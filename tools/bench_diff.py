"""Compare alternating parent/change layerbench runs under BENCHMARK.json.

Reads one or more JSON-lines files of ``layerbench`` runs (the committed
trajectory lives in ``benchmarks/results/layerbench/``), one object per
run::

    {"pr": 7, "side": "parent", "commit": "abc1234", "pair": 0,
     "first": "parent", "workload": "shard", "seed": 101, "seconds": 20,
     "result": "<the run's JSON result line, verbatim>",
     "host": {"cpu_count": 2, "python": "3.11.7", "numpy": "1.26.4"}}

``side`` is ``parent`` or ``change``; ``pair`` numbers the alternating
pairs and ``first`` says which side of the pair ran first.  For each PR,
workload and end-to-end metric of ``BENCHMARK.json`` it prints the
parent's median with its quartiles, the change's median, how many pairs
the change won (by the metric's ``better``), and a verdict:

* ``worse beyond bound`` — the change median is worse than the parent
  median by more than the metric's relative ``bound``;
* ``unresolved`` — either side's interquartile range, relative to its
  median, is wider than the bound, so the runs cannot tell;
* ``no worse`` — otherwise.

Usage::

    python tools/bench_diff.py benchmarks/results/layerbench/*.jsonl

Only the standard library is used.  The exit status is 0 whatever the
verdicts say; it is 2 on malformed input (an unreadable line, a missing
field, an unknown side, a result line without a metric value).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
FIELDS = ("pr", "side", "commit", "pair", "first", "workload", "seed",
          "seconds", "result", "host")


class MalformedInput(ValueError):
    """A run record or the benchmark declaration cannot be read."""


def load_metrics(path) -> List[dict]:
    """The ``end_to_end`` metric declarations of a ``BENCHMARK.json``."""
    try:
        declared = json.loads(pathlib.Path(path).read_text())["end_to_end"]
        for metric in declared:
            if metric["better"] not in ("higher", "lower"):
                raise MalformedInput(f"{path}: {metric['name']}: bad 'better'")
            float(metric["bound"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    return declared


def parse_run(line: str, where: str) -> dict:
    """One run record, with its result line parsed into ``metrics``."""
    try:
        run = json.loads(line)
        missing = [name for name in FIELDS if name not in run]
        if missing:
            raise MalformedInput(f"missing {', '.join(missing)}")
        if run["side"] not in SIDES or run["first"] not in SIDES:
            raise MalformedInput("side and first must be parent or change")
        if not isinstance(run["pair"], int):
            raise MalformedInput("pair must be an integer")
        result = json.loads(run["result"])
        run["metrics"] = {
            name: float(entry["value"])
            for name, entry in result["metrics"].items()
        }
    except MalformedInput as exc:
        raise MalformedInput(f"{where}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"{where}: {type(exc).__name__}: {exc}") from None
    return run


def load_runs(paths: Sequence) -> List[dict]:
    runs = []
    for path in paths:
        try:
            lines = pathlib.Path(path).read_text().splitlines()
        except OSError as exc:
            raise MalformedInput(str(exc)) from None
        for number, line in enumerate(lines, 1):
            if line.strip():
                runs.append(parse_run(line, f"{path}:{number}"))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(runs: Sequence[dict], metrics: Sequence[dict]) -> List[dict]:
    """One row per PR × workload × end-to-end metric found in *runs*."""
    groups: Dict[tuple, Dict[str, Dict[int, float]]] = {}
    for run in runs:
        for metric in metrics:
            value = run["metrics"].get(metric["name"])
            if value is None:
                continue
            key = (run["pr"], run["workload"], metric["name"])
            sides = groups.setdefault(key, {side: {} for side in SIDES})
            sides[run["side"]][run["pair"]] = value
    declared = {metric["name"]: metric for metric in metrics}
    rows = []
    for (pr, workload, name), sides in sorted(
        groups.items(), key=lambda item: tuple(map(str, item[0]))
    ):
        parent, change = sides["parent"], sides["change"]
        if not parent or not change:
            continue
        higher = declared[name]["better"] == "higher"
        bound = float(declared[name]["bound"])
        p_q1, p_med, p_q3 = quartiles(sorted(parent.values()))
        c_q1, c_med, c_q3 = quartiles(sorted(change.values()))
        pairs = sorted(set(parent) & set(change))
        won = sum(
            (change[i] > parent[i]) if higher else (change[i] < parent[i])
            for i in pairs
        )
        spread = max(
            (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
            (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
        )
        worse = (
            c_med < p_med * (1.0 - bound) if higher
            else c_med > p_med * (1.0 + bound)
        )
        if spread > bound:
            verdict = "unresolved"
        elif worse:
            verdict = "worse beyond bound"
        else:
            verdict = "no worse"
        rows.append({
            "pr": pr, "workload": workload, "metric": name,
            "parent": (p_q1, p_med, p_q3), "change": c_med,
            "won": won, "pairs": len(pairs), "verdict": verdict,
        })
    return rows


def _fmt(value: float) -> str:
    if abs(value) >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:.4g}"


def render(rows: Sequence[dict]) -> str:
    header = ("pr", "workload", "metric", "parent median [q1, q3]",
              "change median", "pairs won", "verdict")
    table = [header] + [
        (
            str(row["pr"]), row["workload"], row["metric"],
            f"{_fmt(row['parent'][1])} [{_fmt(row['parent'][0])}, "
            f"{_fmt(row['parent'][2])}]",
            _fmt(row["change"]), f"{row['won']}/{row['pairs']}",
            row["verdict"],
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", help="JSON-lines files of runs")
    args = parser.parse_args(argv)
    try:
        rows = compare(
            load_runs(args.runs), load_metrics(ROOT / "BENCHMARK.json")
        )
    except MalformedInput as exc:
        print(f"bench_diff: malformed input: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
