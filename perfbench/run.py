"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-mid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, the line before it the traced
run's end-to-end figures, and the spans go to ``perfbench/out/``.
The workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread in every run, whatever the machine: see README, "BLAS threads".
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fakesent" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer, unit_of

        tracer = Tracer()
        tracer.install()
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(workdir, args.seed, args.seconds, tracer)
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = run.end_to_end()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(OUT / f"spans-{tag}.npz")
        print(json.dumps({"traced_end_to_end": metrics}))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in tracer.layer_metrics().items()}
    print(json.dumps({
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
