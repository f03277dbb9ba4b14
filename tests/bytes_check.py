"""Hash every file a seeded CLI pipeline writes, at 1 and 2 BLAS threads, outside tier-1.

A change that claims to leave every output byte-identical runs this script
on the parent commit and on the change, and compares the printed lines. On
two seeded corpora of uniformly drawn words (train and valid) it runs
``gen-fakes`` on each, and once more on train with two fakes per real
sentence (``build_dataset``'s multi-fake loop); then ``train`` in float32,
in float64 and in float32 with ``--freeze-embeddings``, and ``encode``,
``evaluate`` and ``probe`` with each of the three models. Each command runs in its own subprocess, once with 1
and once with 2 OpenBLAS threads. Paths are relative to a fresh directory,
so the written ``.config`` files do not depend on where it is.

It prints one ``<sha256>  <threads>t/<file>`` line per file the pipeline
wrote, then whether both thread counts wrote the same bytes (exit 1 if not).
pytest does not collect it (its name does not start with ``test_``). Run it
from the repository root:

    PYTHONPATH=src python tests/bytes_check.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
THREADS = (1, 2)
MODELS = {
    "f32": ["--precision", "float32"],
    "f64": ["--precision", "float64"],
    "f32-frozen": ["--precision", "float32", "--freeze-embeddings"],
}


def pipeline() -> list[list[str]]:
    """The CLI calls, in order, on the files ``write_corpora`` leaves."""
    calls = [
        ["gen-fakes", "--strategy", "shuffle", "--seed", "3", "--in", "train.txt", "--out", "train.jsonl"],
        ["gen-fakes", "--strategy", "drop", "--seed", "4", "--in", "valid.txt", "--out", "valid.jsonl"],
        ["gen-fakes", "--strategy", "shuffle", "--fakes-per-real", "2", "--seed", "6", "--in", "train.txt",
         "--out", "train-2fakes.jsonl"],
    ]
    for name, flags in MODELS.items():
        calls += [
            ["train", "--data", "train.jsonl", "--valid", "valid.jsonl", "--dim", "16", "--hidden", "32",
             "--mlp", "16,8", "--epochs", "2", "--batch", "64", "--lr", "0.5", "--seed", "5",
             *flags, "--out", f"{name}.ckpt"],
            ["encode", "--model", f"{name}.ckpt", "--in", "valid.txt", "--out", f"{name}.vec"],
            ["evaluate", "--model", f"{name}.ckpt", "--data", "valid.jsonl", "--report", f"{name}.eval.json"],
            ["probe", "--model", f"{name}.ckpt", "--corpus", "train.txt", "--seed", "2",
             "--report", f"{name}.probe.json"],
        ]
    return calls


def write_corpora(work: Path) -> None:
    # sentences of 3-12 words out of 200: every wc probe target occurs alone often enough
    for name, n, seed in (("train", 1000, 11), ("valid", 200, 12)):
        rng = np.random.default_rng(seed)
        lines = (" ".join(f"w{k:03d}" for k in rng.integers(0, 200, size=rng.integers(3, 13))) for _ in range(n))
        (work / f"{name}.txt").write_text("\n".join(lines) + "\n")


def run(threads: int) -> dict[str, str]:
    """sha256 of each file one pipeline run writes, by file name."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_corpora(work)
        for call in pipeline():
            done = subprocess.run([sys.executable, "-m", "fakesent", *call], cwd=work, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(call)} exited {done.returncode}: {done.stderr.strip()}")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())}


def main() -> int:
    runs = {}
    for threads in THREADS:
        runs[threads] = run(threads)
        for name, digest in runs[threads].items():
            print(f"{digest}  {threads}t/{name}", flush=True)
    first, *others = runs.values()
    differ = sorted(name for other in others for name in set(first) | set(other)
                    if first.get(name) != other.get(name))
    print(f"{len(first)} files; threads {THREADS}: " + (f"differ in {differ}" if differ else "identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
