"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical corpora and checkpoints. Tokens are drawn i.i.d.
from a Zipf-Mandelbrot distribution over a seeded word list, so word
frequencies follow a long tail while mid-frequency words occur
independently of each other (the probe's ``wc`` task needs that).
"""

from __future__ import annotations

import numpy as np

WORD_TYPES = 20000
ZIPF_SHIFT = 2.7
ZIPF_EXPONENT = 1.1
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def word_list(rng: np.random.Generator) -> list[str]:
    """WORD_TYPES distinct lowercase words of 2 to 9 letters, in rank order."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < WORD_TYPES:
        n = int(rng.integers(2, 10))
        w = "".join(_LETTERS[rng.integers(0, 26, size=n)])
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_probabilities() -> np.ndarray:
    ranks = np.arange(WORD_TYPES, dtype=np.float64)
    p = 1.0 / (ranks + ZIPF_SHIFT) ** ZIPF_EXPONENT
    return p / p.sum()


BLOCK = 64  # the batch size every workload uses


def length_block(profile: str) -> np.ndarray:
    """The token counts of every 64-sentence block, before shuffling.

    Each block holds the same multiset, so a batch's padded length, and
    with it the work per batch, does not depend on the seed.
    ``long-tail``: 48 lengths spread over 5..30, 12 over 31..59 and four
    of 60. ``moderate``: spread over 10..30. ``short``: spread over 5..30.
    """
    if profile == "long-tail":
        spread = [np.linspace(5, 30, 48), np.linspace(31, 59, 12), np.full(4, 60.0)]
    elif profile == "moderate":
        spread = [np.linspace(10, 30, BLOCK)]
    elif profile == "short":
        spread = [np.linspace(5, 30, BLOCK)]
    else:
        raise ValueError(f"unknown length profile {profile!r}")
    return np.concatenate(spread).round().astype(np.int64)


def sentence_lengths(rng: np.random.Generator, n: int, profile: str) -> np.ndarray:
    """Token counts for ``n`` sentences: whole blocks, each in seeded order."""
    block = length_block(profile)
    return np.concatenate([rng.permutation(block) for _ in range(-(-n // BLOCK))])[:n]


def corpus_lines(seed: int, n: int, profile: str) -> list[str]:
    """``n`` sentences as space-joined lines, from one seeded stream."""
    rng = np.random.default_rng([seed, 0x5EED])
    words = word_list(rng)
    lengths = sentence_lengths(rng, n, profile)
    tokens = rng.choice(WORD_TYPES, size=int(lengths.sum()), p=zipf_probabilities())
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [
        " ".join(words[t] for t in tokens[bounds[i] : bounds[i + 1]]) for i in range(n)
    ]


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def write_random_checkpoint(path, lines, dim: int, hidden: int, mlp: tuple[int, int], seed: int):
    """Save an untrained detector whose vocabulary is built from ``lines``.

    Weights come from the package's own initializers with a seeded
    generator; throughput does not depend on whether weights are trained.
    """
    from fakesent import checkpoint, classifier, corpus
    from fakesent.encoder import SentenceEncoder

    vocab = corpus.build_vocab(corpus.tokenize(line, str(i)) for i, line in enumerate(lines))
    rng = np.random.default_rng([seed, 0xC0DE])
    table = corpus.init_embeddings(vocab, dim, rng)
    encoder = SentenceEncoder.create(vocab, table, hidden, rng)
    model = classifier.DetectorModel.create(encoder, mlp[0], mlp[1], rng)
    checkpoint.save_model(path, model)
