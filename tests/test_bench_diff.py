"""``tools/bench_diff.py`` judges alternating runs under BENCHMARK.json.

Synthetic run records go through the tool: a drop in a higher-is-better
metric beyond its bound is flagged, a drop within it is not, a
lower-is-better latency is read the right way round, and a malformed
line makes the tool exit non-zero.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location(
        "bench_diff", REPO / "tools" / "bench_diff.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(side: str, pair: int, **metrics) -> str:
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": "-"} for name, value in metrics.items()
        },
    }
    return json.dumps({
        "pr": 0,
        "side": side,
        "commit": "0" * 7,
        "pair": pair,
        "first": "parent" if pair % 2 else "change",
        "workload": "serve",
        "seed": 100 + pair,
        "seconds": 20,
        "result": json.dumps(result),
        "host": {"cpu_count": 2, "python": "3", "numpy": "1"},
    })


def _runs(tmp_path, scale: dict) -> pathlib.Path:
    """Five pairs; the change's metrics are the parent's times *scale*."""
    lines = []
    for pair in range(5):
        jitter = 1.0 + 0.002 * pair
        parent = {"cols_per_s": 1000.0 * jitter, "latency_p50_ms": 40.0 * jitter}
        lines.append(_line("parent", pair, **parent))
        lines.append(_line(
            "change", pair,
            **{name: value * scale.get(name, 1.0) for name, value in parent.items()},
        ))
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _verdicts(bench_diff, path) -> dict:
    runs = bench_diff.load_runs([path])
    metrics = bench_diff.load_metrics(REPO / "BENCHMARK.json")
    return {row["metric"]: row for row in bench_diff.compare(runs, metrics)}


def test_thirty_percent_throughput_drop_is_flagged(bench_diff, tmp_path):
    rows = _verdicts(bench_diff, _runs(tmp_path, {"cols_per_s": 0.7}))
    assert rows["cols_per_s"]["verdict"] == "worse beyond bound"
    assert rows["cols_per_s"]["won"] == 0
    assert rows["latency_p50_ms"]["verdict"] == "no worse"


def test_five_percent_throughput_drop_is_not_flagged(bench_diff, tmp_path):
    rows = _verdicts(bench_diff, _runs(tmp_path, {"cols_per_s": 0.95}))
    assert rows["cols_per_s"]["verdict"] == "no worse"


def test_latency_is_lower_is_better(bench_diff, tmp_path):
    slower = _verdicts(bench_diff, _runs(tmp_path, {"latency_p50_ms": 1.3}))
    assert slower["latency_p50_ms"]["verdict"] == "worse beyond bound"
    assert slower["latency_p50_ms"]["won"] == 0
    faster = _verdicts(bench_diff, _runs(tmp_path, {"latency_p50_ms": 0.7}))
    assert faster["latency_p50_ms"]["verdict"] == "no worse"
    assert faster["latency_p50_ms"]["won"] == 5


def test_wide_spread_is_unresolved(bench_diff, tmp_path):
    lines = [
        _line(side, pair, cols_per_s=value)
        for pair, value in enumerate((1000.0, 2000.0, 500.0, 1500.0))
        for side in ("parent", "change")
    ]
    path = tmp_path / "wide.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert _verdicts(bench_diff, path)["cols_per_s"]["verdict"] == "unresolved"


def test_main_prints_the_table(bench_diff, tmp_path, capsys):
    path = _runs(tmp_path, {"cols_per_s": 0.7})
    assert bench_diff.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "cols_per_s" in out and "worse beyond bound" in out


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        json.dumps({"pr": 0, "side": "parent"}),  # missing fields
        _line("parent", 0, cols_per_s=1.0).replace('"parent"', '"child"', 1),
        _line("parent", 0, cols_per_s=1.0).replace(
            '\\"value\\": 1.0', '\\"value\\": \\"fast\\"'
        ),
    ],
)
def test_malformed_line_is_rejected(bench_diff, tmp_path, capsys, bad):
    path = _runs(tmp_path, {})
    path.write_text(path.read_text() + bad + "\n")
    with pytest.raises(bench_diff.MalformedInput):
        bench_diff.load_runs([path])
    assert bench_diff.main([str(path)]) == 2
    assert "malformed input" in capsys.readouterr().err
