#!/usr/bin/env python
"""Run the pinned benchmark-trajectory suite and write ``BENCH_<date>.json``.

The artifact (triangle counts, simulated miss totals, per-region miss
shares on every machine model) is the unit the regression gate compares:

    PYTHONPATH=src python scripts/bench_trajectory.py --quick
    PYTHONPATH=src python -m repro.obs.regress \\
        benchmarks/trajectory/BENCH_baseline.json --latest benchmarks/trajectory

``--baseline`` rewrites the committed baseline instead (do this in the
same commit as any intentional change to the tracked metrics).
See ``repro/obs/trajectory.py`` for the schema and suite definitions.

Each invocation also appends a provenance-stamped run record embedding
the full artifact to the run ledger (``--ledger DIR``, default
``runs/``; ``--no-ledger`` skips), so the regression gate can compare a
candidate against any historical measurement via
``repro.obs.regress --against-run`` (see ``docs/runs.md``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.obs.trajectory import (  # noqa: E402  (path bootstrap above)
    ALL_MACHINES,
    DEFAULT_SUITE,
    DYNAMIC_DATASET,
    DIST_DATASET,
    PROFILER_DATASET,
    QUICK_SUITE,
    SCALING_DATASET,
    SERVE_DATASET,
    TELEMETRY_DATASET,
    build_trajectory_artifact,
    write_trajectory_artifact,
)

DEFAULT_OUT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "trajectory"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"measure only the quick suite {QUICK_SUITE}")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for the BENCH_<date>.json artifact")
    parser.add_argument("--date", default=None,
                        help="override the artifact date stamp (YYYY-MM-DD)")
    parser.add_argument("--baseline", action="store_true",
                        help="write BENCH_baseline.json (the committed gate)")
    parser.add_argument("--machines", nargs="+", default=list(ALL_MACHINES),
                        choices=list(ALL_MACHINES), help="machine models to replay")
    parser.add_argument("--scaling", nargs="?", const=SCALING_DATASET,
                        default=None, metavar="DATASET",
                        help="also record the phase-1 scaling run (default "
                             f"dataset: {SCALING_DATASET}): the phase-1 hit "
                             "count and the simulated work-stealing speedups "
                             "of the squared-edge tiling, both gated")
    parser.add_argument("--serve", nargs="?", const=SERVE_DATASET,
                        default=None, metavar="DATASET",
                        help="also record a scripted serve session (default "
                             f"dataset: {SERVE_DATASET}); the serve.* keys "
                             "are timing-kind — trended, never gated")
    parser.add_argument("--telemetry-overhead", nargs="?",
                        const=TELEMETRY_DATASET, default=None,
                        metavar="DATASET",
                        help="also self-measure the telemetry overhead "
                             f"(default dataset: {TELEMETRY_DATASET}); the "
                             "on/off wall-time ratio is gated against an "
                             "absolute ceiling (see repro.obs.regress)")
    parser.add_argument("--profiler-overhead", nargs="?",
                        const=PROFILER_DATASET, default=None,
                        metavar="DATASET",
                        help="also self-measure the sampling-profiler "
                             f"overhead (default dataset: {PROFILER_DATASET}); "
                             "the on/off ratio is gated against the tighter "
                             "profiler ceiling (see repro.obs.regress)")
    parser.add_argument("--dynamic", nargs="?", const=DYNAMIC_DATASET,
                        default=None, metavar="DATASET",
                        help="also replay the pinned dynamic update stream "
                             f"(default dataset: {DYNAMIC_DATASET}); the "
                             "amortised update-vs-recount speedup is gated "
                             "as a floor and the final count exactly")
    parser.add_argument("--dist", nargs="?", const=DIST_DATASET,
                        default=None, metavar="DATASET",
                        help="also run the pinned sharded distributed count "
                             f"(default dataset: {DIST_DATASET}); the exact "
                             "count and the deterministic traffic metrics "
                             "are gated, wall-clock is informational")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default: runs/ at the "
                             "repo root)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append a run record to the ledger")
    args = parser.parse_args(argv)
    suite = QUICK_SUITE if args.quick else DEFAULT_SUITE
    started = time.perf_counter()
    artifact = build_trajectory_artifact(
        suite=suite, machines=tuple(args.machines), generated=args.date,
        scaling=args.scaling, serve=args.serve,
        telemetry_overhead=args.telemetry_overhead,
        profiler_overhead=args.profiler_overhead,
        dynamic=args.dynamic,
        dist=args.dist,
    )
    path = write_trajectory_artifact(artifact, args.out, baseline=args.baseline)
    elapsed = time.perf_counter() - started
    print(f"wrote {path} ({len(artifact['metrics'])} tracked metrics, "
          f"{elapsed:.1f}s)")
    if not args.no_ledger:
        from repro.obs.ledger import Ledger, build_run_record

        record = build_run_record(
            None,
            command="bench_trajectory"
                    + (" --quick" if args.quick else "")
                    + (" --baseline" if args.baseline else ""),
            config={
                "command": "bench_trajectory",
                "suite": list(suite),
                "machines": list(args.machines),
                "baseline": bool(args.baseline),
                "scaling": args.scaling,
                "serve": args.serve,
                "telemetry_overhead": args.telemetry_overhead,
                "profiler_overhead": args.profiler_overhead,
                "dynamic": args.dynamic,
                "dist": args.dist,
            },
            meta={"artifact_path": str(path), "elapsed": elapsed},
            artifact=artifact,
        )
        ledger = Ledger(
            args.ledger or pathlib.Path(__file__).resolve().parents[1] / "runs"
        )
        run_id = ledger.append(record)
        print(f"recorded run {run_id} -> {ledger.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
