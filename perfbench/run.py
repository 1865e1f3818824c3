"""LOTUS benchmark: run one workload with one seed, print one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload web-hub-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from the benchmark's own
spans, which it also writes to ``perfbench/traces/``.  Layers a workload
does not reach report 0.  Every answer is checked for exactness; any
mismatch makes ``correct`` false and the exit code 1.  The program's
``repro.obs`` registry stays off in both modes.

End-to-end metrics (every workload reports each one):

* ``setup_s`` -- median of three set-ups: dataset generation plus a
  warm-up (a LJGrp repetition for the count workloads; engine start, one
  count per source and the dynamic-session open for serve-read-write);
* ``count_s`` -- median latency of one exact LOTUS count as its caller
  waits for it: a cold sequential ``count_triangles_lotus``
  (preprocess included), or a count request, submit to result;
* ``edges_per_s`` -- the GraphChallenge rate, undirected edges of the
  counted graph over that latency (median over counts);
* ``aux_op_s`` -- latency of the workload's other operation: the median
  2-shard ``run_distributed_count``, or the mean 16-edge write request;
* ``ops_per_s`` -- completed timed operations of both kinds per second;
* ``peak_rss_mb`` -- VmHWM of the benchmark process over the timed loop.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

WORKLOADS = ("web-hub-heavy", "social-low-skew", "serve-read-write")
COUNT_DATASETS = {"web-hub-heavy": "EU15", "social-low-skew": "Frndstr"}

E2E_UNITS = {
    "setup_s": "s",
    "count_s": "s",
    "edges_per_s": "edges/s",
    "aux_op_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "graph.load_s": "s",
    "structure.build_s": "s",
    "structure.arcs_per_s": "arcs/s",
    "structure.bytes": "bytes",
    "phase1.s": "s",
    "hnn.s": "s",
    "nnn.s": "s",
    "phase1.pairs": "count",
    "hnn.pairs": "count",
    "nnn.pairs": "count",
    "phase1.pairs_per_s": "1/s",
    "hnn.pairs_per_s": "1/s",
    "nnn.pairs_per_s": "1/s",
    "dist.plan_s": "s",
    "dist.bytes_exchanged": "bytes",
    "dist.remote_share": "ratio",
    "dist.shard_arc_imbalance": "ratio",
    "dist.shard_peak_rss_mb": "MB",
    "dist.vs_sequential": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.evictions": "count",
    "serve.coalesced_ratio": "ratio",
    "serve.rejected": "count",
    "serve.queued_p50_ms": "ms",
    "serve.queued_p90_ms": "ms",
    "serve.hit_service_p50_ms": "ms",
    "serve.miss_service_p50_ms": "ms",
    "serve.request_p90_ms": "ms",
    "serve.update_p90_ms": "ms",
    "dynamic.insert_p50_ms": "ms",
    "dynamic.delete_p50_ms": "ms",
    "dynamic.snapshot_p50_ms": "ms",
    "dynamic.applied_ratio": "ratio",
    "dynamic.edges_per_s": "edges/s",
    "host.calib_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.phase_coverage": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(outcome, trace: bool) -> dict:
    """The JSON result: every metric of the mode, by name, with its unit."""
    units = LAYER_UNITS if trace else E2E_UNITS
    values = outcome.layers if trace else outcome.e2e
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from the unit table: {sorted(unknown)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    import workloads

    tracer = Tracer(enabled=bool(args.trace))
    if args.workload in COUNT_DATASETS:
        outcome = workloads.run_count_workload(
            COUNT_DATASETS[args.workload], args.seconds, tracer
        )
    else:
        outcome = workloads.run_serve_workload(args.seed, args.seconds, tracer)
    if tracer.enabled:
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    for error in outcome.errors:
        print(f"mismatch: {error}", file=sys.stderr)
    line = result_line(outcome, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
