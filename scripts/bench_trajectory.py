#!/usr/bin/env python
"""Run the pinned benchmark-trajectory specs and write ``BENCH_<date>.json``.

The artifact holds every spec of ``repro.obs.trajectory.SPECS`` (or the
``--spec`` subset) and is the unit the regression gate compares:

    PYTHONPATH=src python scripts/bench_trajectory.py --out /tmp/trajectory
    PYTHONPATH=src python -m repro.obs.regress \\
        benchmarks/trajectory/BENCH_baseline.json --latest /tmp/trajectory

``--baseline`` rewrites the committed baseline instead (do this in the
same commit as any intentional change to the tracked metrics).

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
    SPECS,
    build_trajectory_artifact,
    write_trajectory_artifact,
)

REPO = pathlib.Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", action="append", choices=list(SPECS),
                        metavar="NAME",
                        help="measure only this spec (repeatable; default: "
                             f"all of {', '.join(SPECS)})")
    parser.add_argument("--out", default=str(REPO / "benchmarks" / "trajectory"),
                        help="directory for the BENCH_<date>.json artifact")
    parser.add_argument("--baseline", action="store_true",
                        help="write BENCH_baseline.json (the committed gate)")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default: runs/ at the "
                             "repo root)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append a run record to the ledger")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    artifact = build_trajectory_artifact(args.spec)
    path = write_trajectory_artifact(artifact, args.out, baseline=args.baseline)
    elapsed = time.perf_counter() - started
    print(f"wrote {path} ({len(artifact['metrics'])} tracked metrics, "
          f"{elapsed:.1f}s)")
    if not args.no_ledger:
        from repro.obs.ledger import Ledger, build_run_record

        record = build_run_record(
            None,
            command=" ".join(["bench_trajectory"]
                             + [f"--spec {name}" for name in args.spec or ()]
                             + (["--baseline"] if args.baseline else [])),
            config={
                "command": "bench_trajectory",
                "specs": artifact["specs"],
                "baseline": bool(args.baseline),
            },
            meta={"artifact_path": str(path), "elapsed": elapsed},
            artifact=artifact,
        )
        ledger = Ledger(args.ledger or REPO / "runs")
        run_id = ledger.append(record)
        print(f"recorded run {run_id} -> {ledger.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
