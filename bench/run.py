"""Benchmark of schurkit's Schur transform: one workload per run.

Run from the root of a source checkout (the package need not be installed):

    python3 bench/run.py --workload apply-qudit --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run with wrapped layer functions. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

WORKLOADS = ("apply-qubit", "apply-qudit", "dense-cold")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.seed %= 2**64  # numpy seeds are non-negative; any integer names one
    return args


def _import_program() -> None:
    """Import schurkit from ./src of the checkout, and from nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "schurkit", "__init__.py")):
        raise SystemExit(f"error: no schurkit sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import schurkit

    if not os.path.abspath(schurkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported schurkit from {schurkit.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from tracing import Tracer
    from workloads import ApplyWorkload, DenseColdWorkload, summarize

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run_dir = os.path.join("bench", ".run")
    os.makedirs(run_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run_dir)
    try:
        if args.workload == "dense-cold":
            workload = DenseColdWorkload(args.seed, workdir)
        else:
            workload = ApplyWorkload(args.workload, args.seed)
        result = workload.run(args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    loop = result["loop"]
    for error in loop.errors:
        print(f"failed: {error}", file=sys.stderr)
    for kind, times in sorted(loop.by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(
            f"{kind:<20} n={len(times):<4} median {statistics.median(times) * 1e3:9.2f} ms",
            file=sys.stderr,
        )
    if tracer is None:
        metrics = summarize(loop, result["setup_s"], result["peak_rss_mb"])
    else:
        metrics = tracer.metrics(result["sector_bytes_peak"])
        traced = loop.traced
        rest_ops = len(loop.latencies) - traced["ops"]
        rest_time = sum(loop.latencies) - traced["time"]
        if traced["ops"] and rest_ops:
            print(
                f"tracing overhead: traced rounds {traced['ops'] / traced['time']:.4g} ops/s, "
                f"untraced rounds {rest_ops / rest_time:.4g} ops/s",
                file=sys.stderr,
            )
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
