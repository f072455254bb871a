"""One benchmark for the sharded Eiffel runtime (``repro.runtime.ShardedRuntime``).

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniform_paced --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
ones, from a separate traced run (see ``tracing.py``) whose spans are
written to ``.perfbench/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print the same numbers by name and unit, with the checks,
the raw wall figures and the host-drift probe.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from measure import END_TO_END, PER_LAYER, Run

    run = Run(workload, seed, seconds)
    if trace:
        metrics, units = run.per_layer(), dict(PER_LAYER)
    else:
        metrics, units = run.end_to_end(), dict(END_TO_END)
    run.notes.append(f"host probe median {statistics.median(run.probes):.2f} ns/iter")
    failed = sum(run.failures.values())
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures,
        "notes": run.notes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker, and wait for it to end.

    The process backend's ``ShmRing`` starts CPython's resource tracker on
    its first segment.  Left alone, the tracker outlives this process by a
    moment and is never waited for; stopping it closes its pipe and reaps it.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return measure_and_report(argv)
    finally:
        stop_resource_tracker()


def measure_and_report(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    results = [
        run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    for result in results:
        print(f"== {result['workload']} seed={args.seed} trace={args.trace}")
        for name, entry in result["metrics"].items():
            print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
        print(
            f"failed_frac {result['failed'] / result['attempted']:.6g} "
            f"({result['failed']}/{result['attempted']}) {result['failures'] or ''}"
        )
        for note in result["notes"]:
            print(f"note: {note}")
    prefix = len(results) > 1
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    (f"{r['workload']}.{name}" if prefix else name): entry
                    for r in results
                    for name, entry in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
