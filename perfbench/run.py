"""Benchmark entry point.

    python3 perfbench/run.py --workload nobench_scan --seed 1 --seconds 15 --trace 0

Runs one workload against the engine sources of this checkout (``src``)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON object of run metadata (machine, lane, CPU probe, tail
percentile, exact counts, unmeasured per-layer metrics and why).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("nobench_scan", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SOURCE}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomized per process; set iteration order in
        # the engine (and with it the order of its work) would differ
        # between runs of one seed.  Re-run with a fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    sys.path[:0] = [str(HERE), str(SOURCE)]
    import common

    common.clean_environment()
    flushes = common.DeviceFlushes()
    flushes.install()
    import importlib

    workload = importlib.import_module(args.workload)
    meta = common.run_metadata(args.seed, args.workload)
    meta["cpu_probe_ms_before"] = common.cpu_probe_ms()
    work = common.WorkDir(args.workload)
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        work.close()
    meta["cpu_probe_ms_after"] = common.cpu_probe_ms()
    meta["fsync_calls"] = flushes.calls
    meta.update(outcome.meta)

    errors = list(outcome.errors)
    exact = outcome.meta.get("exact_counts")
    if exact is not None:
        mismatch = common.check_exact_counts(args.workload, args.seed, exact)
        if mismatch:
            errors.append(mismatch)
    if args.trace:
        metrics = outcome.layers.metrics()
        meta["unmeasured"] = outcome.layers.unmeasured
        meta["span_totals"] = outcome.layers.span_totals
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in common.END_TO_END.items()
        }
    meta["errors"] = errors
    print(json.dumps({"meta": meta}, default=str))
    print(
        json.dumps(
            {
                "correct": not errors and outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
