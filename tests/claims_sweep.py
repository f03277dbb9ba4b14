"""Rerun the trained acceptance criteria across seeds, outside tier-1.

Each criterion in ``test_acceptance.py`` runs at one seed (``SEED`` = 100).
This script reruns SEP-1 at seeds 100-107 and SEP-2 and PROBE-2 at seeds
100-104, with the suite's own set-up (``run_sep``, ``build_sep_model``),
settings and gates; only the seed changes. PROBE-2 probes the SEP-1 model
of its seed, and each of its lines also gives the ungated sentlen pair. For
each criterion it prints every reading as it comes, then the minimum, the
median and the gate.

pytest does not collect it (its name does not start with ``test_``). Run it
from the repository root:

    PYTHONPATH=src python tests/claims_sweep.py
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import test_acceptance as acc  # the script's own directory is first on sys.path

SEP1_SEEDS = range(100, 108)
SEP2_SEEDS = range(100, 105)
PROBE2_SEEDS = range(100, 105)


def summarize(name: str, gate: str, readings: dict[int, float]) -> None:
    values = list(readings.values())
    print(f"{name} ({gate}), seeds {min(readings)}-{max(readings)}: "
          + ", ".join(f"{v:.3f}" for v in values)
          + f" | min {min(values):.3f}, median {statistics.median(values):.3f}", flush=True)


def main() -> int:
    start = time.perf_counter()
    sep1, sep2, probe2 = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for seed in SEP1_SEEDS:
            result = acc.run_sep(**acc.SEP1, out_dir=out_dir, tag=f"sep1-{seed}", seed=seed)
            sep1[seed] = result["test_accuracy"]
            print(f"SEP-1 seed {seed}: {sep1[seed]:.3f} (best epoch {result['report'].best_epoch}, "
                  f"{result['elapsed']:.0f}s)", flush=True)
            if seed in PROBE2_SEEDS:
                bshift, sentlen = acc.probe2_accuracies(result, seed)
                probe2[seed] = bshift[0] - bshift[1]
                print(f"PROBE-2 seed {seed}: {probe2[seed]:.3f} (bshift {bshift[0]:.3f} trained "
                      f"vs {bshift[1]:.3f} untrained; sentlen, not gated, {sentlen[0]:.3f} vs "
                      f"{sentlen[1]:.3f})", flush=True)
        for seed in SEP2_SEEDS:
            result = acc.run_sep(**acc.SEP2, out_dir=out_dir, tag=f"sep2-{seed}", seed=seed)
            sep2[seed] = result["test_accuracy"]
            print(f"SEP-2 seed {seed}: {sep2[seed]:.3f} ({result['elapsed']:.0f}s)", flush=True)
    print()
    summarize("SEP-1", f"> {acc.SEP1_GATE}", sep1)
    summarize("SEP-2", f"> {acc.SEP2_GATE}", sep2)
    summarize("PROBE-2 bshift gain", f">= {acc.PROBE2_GATE}", probe2)
    print(f"sweep took {time.perf_counter() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
