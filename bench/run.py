#!/usr/bin/env python3
"""Benchmark of hcgr: training, evaluation, checkpoints and single-session
recommendation, on one workload per run.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The run drives the package through the calls the CLI makes, in one process
and one thread, checks the outputs it times (verify.py), and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from span recording with ``--trace 1``. README.md in this
directory lists the workloads, the metrics and reference figures.
"""

import os

# One BLAS thread, set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hcgr" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    import spans
    import verify

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    tracer.install()
    start = perf_counter()
    try:
        out = harness.run(args.workload, args.seed, args.seconds, tracer, str(OUT_DIR))
    except verify.CheckFailed as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.uninstall()
    wall = perf_counter() - start

    print(f"bench: workload={args.workload} seed={args.seed} digest={out['digest']}")
    print("bench: attempted/failed " + " ".join(f"{k}={a}/{f}" for k, (a, f) in out["ops"].items()))
    counts = {k: len(v) for k, v in out["samples"].items()}
    counts["latency"] = sum(map(len, out["samples"]["latency"]))
    print(f"bench: cycles={out['cycles']} samples={json.dumps(counts)} tail=p{out['tail_q']} wall_s={wall:.1f}")
    samples_path = OUT_DIR / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples_path.write_text(json.dumps(out["samples"]))
    metrics = out["end_to_end"]
    if args.trace:
        print("bench: end-to-end under tracing " + json.dumps({k: v for k, (v, _) in metrics.items()}))
        metrics = spans.per_layer(tracer.spans, out["train_pairs"], out["nodes_per_pair"])
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed})
        print(f"bench: {len(tracer.spans)} spans written to {trace_path.relative_to(BENCH_DIR.parent)}")
    result = {
        "correct": True,
        "attempted": sum(a for a, _ in out["ops"].values()),
        "failed": sum(f for _, f in out["ops"].values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
