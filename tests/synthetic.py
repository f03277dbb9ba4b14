"""Synthetic corpora, splits and graph inputs shared by unit and acceptance tests.

The learnability corpus is built over a 200-token alphabet whose canonical
order is the numeric suffix of the token name (w000 < w001 < ...). Every
sentence is a consecutive ascending run in that order, so a shuffle breaks
monotonicity somewhere and a drop leaves a single skipped index, which is
the only clue that survives (dropping an endpoint produces another perfect
run and is genuinely ambiguous).
"""

import hashlib

import numpy as np

from fakesent import numcore as nc
from fakesent.corpus import Sentence


def constant(data) -> nc.Tensor:
    """A graph input with no gradient path."""
    return nc.Tensor(np.asarray(data))


def dp_edit_distance(a, b):
    """Independent full-matrix Levenshtein oracle (unit edit costs)."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, sub)
    return d[n][m]


def ascending_corpus(n_sentences=5000, vocab_size=200, min_len=5, max_len=12, seed=0):
    rng = np.random.default_rng(seed)
    alphabet = [f"w{i:03d}" for i in range(vocab_size)]
    sentences = []
    for k in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        start = int(rng.integers(0, vocab_size - length + 1))
        toks = tuple(alphabet[start : start + length])
        sentences.append(Sentence(toks, str(k)))
    return sentences


def split_by_source(examples, seed=0, valid_share=0.1, test_share=0.1):
    """Deterministic train/valid/test split keeping each real sentence and
    its fakes together (split on source_id, hashed with the seed)."""
    train, valid, test = [], [], []
    v_cut = int(valid_share * 100)
    t_cut = v_cut + int(test_share * 100)
    for ex in examples:
        digest = hashlib.sha256(f"{seed}:{ex.source_id}".encode()).digest()
        bucket = int.from_bytes(digest[:4], "little") % 100
        if bucket < v_cut:
            valid.append(ex)
        elif bucket < t_cut:
            test.append(ex)
        else:
            train.append(ex)
    return train, valid, test
