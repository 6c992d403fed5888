"""The layer ledger: end-to-end and per-layer numbers for four workloads.

Usage (from the repository root)::

    python3 layerbench/run.py --workload build --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``build``, ``advect``, ``serve``, ``shard``, or
``all`` (the default), which runs each of the four in a fresh process of
its own so that its set-up and peak memory are its own.

With ``--trace 0`` the last line of standard output is one JSON object::

    {"correct": true, "attempted": 312, "failed": 0,
     "metrics": {"setup_s": {"value": 0.27, "unit": "s"}, ...}}

holding the end-to-end metrics.  With ``--trace 1`` it holds the
per-layer metrics instead: the named workload's layers are traced for the
whole ``--seconds``, the other three workloads' layers for a short pass
each, so every traced run reports the whole ledger.  Spans are written
at exit as Chrome trace-event JSON to ``layerbench/out/``.

The seed makes the inputs; the program only ever sees the generated
inputs.  A run exits non-zero without a result line when an output check
fails to run, when it is interrupted (SIGTERM/SIGINT shut the service,
engine and workers down first), or when it leaves a child process,
thread, socket or shared-memory segment behind.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "advect", "serve", "shard")
#: seconds of the short traced pass given to each workload not named
SHORT_PASS_SECONDS = 2.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
        last = out.strip().splitlines()[-1] if out.strip() else "(no result)"
        print(f"{name}: {last}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"layerbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the engine and its workers bring their own
    # parallelism, and a second pool would fight them for the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import common

    common.install_signal_handlers()
    if args.workload == "all":
        try:
            return run_all(args)
        except common.Interrupted as exc:
            print(f"layerbench: {exc}", file=sys.stderr)
            return 128 + exc.signum

    before = common.baseline()
    # the named workload first; a traced run then covers the other three
    order = [args.workload]
    if args.trace:
        order += [w for w in WORKLOADS if w != args.workload]
    modules = {name: importlib.import_module(name) for name in order}
    tracer = common.Tracer() if args.trace else None
    outcome = None
    status = 0
    try:
        if tracer is None:
            outcome = modules[args.workload].run(args.seconds, args.seed)
        else:
            outcome = traced_ledger(modules, args, tracer)
    except common.Interrupted as exc:
        print(f"layerbench: {exc}; shut down and exiting", file=sys.stderr)
        status = 128 + exc.signum
    except Exception:  # noqa: BLE001 - report, then still check for leaks
        traceback.print_exc()
        status = 1
    problems = common.release_and_check(before)
    for problem in problems:
        print(f"layerbench: left behind: {problem}", file=sys.stderr)
    if status or problems:
        return status or 1
    for note in outcome.notes:
        print(f"layerbench: {note}", file=sys.stderr)
    if tracer is None and "peak_rss_mb" not in outcome.metrics:
        outcome.metrics["peak_rss_mb"] = (common.peak_rss_mb(), "MiB")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }))
    return 0 if outcome.correct else 1


def traced_ledger(modules, args, tracer):
    """The named workload traced for ``--seconds``, the others briefly."""
    import common

    merged = common.Outcome()
    traced_e2e = {}
    for name in modules:
        seconds = args.seconds if name == args.workload else SHORT_PASS_SECONDS
        tracer.scope = name
        t0 = time.perf_counter()
        part = modules[name].trace(seconds, args.seed, tracer)
        print(f"layerbench: traced {name} pass: {time.perf_counter() - t0:.1f} s, "
              f"own end-to-end {part.traced}", file=sys.stderr)
        traced_e2e[name] = part.traced
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.correct = merged.correct and part.correct
        merged.notes += part.notes
        merged.metrics.update(part.metrics)
    path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome(str(path), {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced_end_to_end": traced_e2e,
        "metrics": {k: v[0] for k, v in merged.metrics.items()},
    })
    print(f"layerbench: trace written to {path}", file=sys.stderr)
    return merged


if __name__ == "__main__":
    sys.exit(main())
