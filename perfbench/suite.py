"""Run every workload, each in a fresh process, untraced and then traced.

    python3 perfbench/suite.py [--seeds 1] [--seconds 35] [workload ...]

For each workload and seed, prints every end-to-end metric by name with its
unit, from the untraced run and from the traced run, and the difference:
the tracing overhead. Run from the root of a checkout; exits 1 if a run
fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("train-mid", "encode-paper", "probe-desk")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, end-to-end metrics) of one run."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    metrics = json.loads(lines[-2])["traced_end_to_end"] if trace else result["metrics"]
    return result, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args()
    ok = True
    print(f"{'workload':<13} {'seed':>4} {'metric':<25} {'unit':<12} {'untraced':>10} {'traced':>10} {'overhead':>8}")
    for workload in args.workloads:
        for seed in (int(s) for s in args.seeds.split(",")):
            plain, untraced = run(workload, seed, args.seconds, 0)
            spans, traced = run(workload, seed, args.seconds, 1)
            for metric, m in untraced.items():
                value, other = m["value"], traced[metric]["value"]
                change = (other - value) / value if value else 0.0
                print(f"{workload:<13} {seed:>4} {metric:<25} {m['unit']:<12} {value:>10.4g} {other:>10.4g} {change:>+8.1%}")
            for name, r in (("untraced", plain), ("traced", spans)):
                print(f"{workload:<13} {seed:>4} {name} run: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}")
                ok &= r["correct"] and r["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
