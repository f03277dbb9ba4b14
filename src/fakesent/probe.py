"""Frozen-encoder evaluation: probing-task generators and logistic probes.

Three tasks are generable from raw tokens alone:

  sentlen  predict which of six sextile bins holds a sentence's token count
  wc       predict which one of the vocabulary's ten mid-frequency target
           words the sentence contains
  bshift   detect whether one adjacent token pair was swapped

Each generator produces a deterministic 80/10/10 train/valid/test split
keyed by a hash of (seed, sentence id). Probes are multinomial logistic
regressions trained by full-batch gradient descent with an L2 penalty on
the weights (bias unpenalized); the penalty is picked on the validation
split (ties go to the smaller penalty) and only the test accuracy of the
chosen probe is reported. The encoder is never touched.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import numcore as nc
from .corpus import RESERVED, Sentence, Vocabulary
from .errors import DegenerateBins, InsufficientExamples, MalformedLine
from .fakegen import swap_positions

SENTLEN = "sentlen"
WC = "wc"
BSHIFT = "bshift"
TASKS = (SENTLEN, WC, BSHIFT)

WC_TARGETS = 10  # target words of the wc probe
WC_MIN_PER_CLASS = 10  # exactly-one sentences each wc target word needs


@dataclass
class ProbeConfig:
    l2_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    max_iterations: int = 300
    tolerance: float = 1e-5

    def __post_init__(self):
        if not self.l2_grid or not all(0 < l2 < math.inf for l2 in self.l2_grid):
            raise ValueError("l2_grid must be non-empty, finite and strictly positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")


@dataclass
class ProbeDataset:
    name: str
    num_classes: int
    train: list[tuple[Sentence, int]]
    valid: list[tuple[Sentence, int]]
    test: list[tuple[Sentence, int]]

    def __post_init__(self):
        for split in (self.train, self.valid, self.test):
            for _, label in split:
                if not 0 <= label < self.num_classes:
                    raise ValueError(f"label {label} outside [0, {self.num_classes})")
        present = {label for _, label in self.train}
        if len(present) < self.num_classes:
            missing = sorted(set(range(self.num_classes)) - present)
            raise InsufficientExamples(f"{self.name}: classes {missing} absent from train split")

    @property
    def split_sizes(self) -> dict[str, int]:
        return {"train": len(self.train), "valid": len(self.valid), "test": len(self.test)}

    def sentences(self) -> list[Sentence]:
        return [s for split in (self.train, self.valid, self.test) for s, _ in split]


def _bucket(seed: int, sentence_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{sentence_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % 10


def _split(pairs: Iterable[tuple[Sentence, int]], seed: int):
    """Deterministic 80/10/10 assignment by hashed sentence id."""
    train, valid, test = [], [], []
    for sent, label in pairs:
        b = _bucket(seed, sent.id)
        (train if b < 8 else valid if b == 8 else test).append((sent, label))
    return train, valid, test


def sextile_thresholds(lengths: Sequence[int]) -> list[int]:
    """Five empirical sextile cut points giving six length bins."""
    ordered = sorted(lengths)
    return [int(ordered[k * len(ordered) // 6]) for k in range(1, 6)]


def gen_sentlen(sentences: Sequence[Sentence], seed: int = 0) -> ProbeDataset:
    """Label each sentence with its length bin at the corpus's sextiles.

    Bin k holds lengths in (thresholds[k-1], thresholds[k]]; the last bin is
    open-ended. InsufficientExamples without sentences; DegenerateBins if a
    bin is empty, which includes every corpus whose sextile cuts collapse.
    """
    if not sentences:
        raise InsufficientExamples("no sentence to bin for sentlen")
    thresholds = sextile_thresholds([len(s) for s in sentences])
    num_classes = len(thresholds) + 1
    pairs = [(s, bisect_left(thresholds, len(s))) for s in sentences]
    counts = np.bincount([label for _, label in pairs], minlength=num_classes)
    if (counts == 0).any():
        raise DegenerateBins(f"empty length bins at thresholds {thresholds}: counts {counts.tolist()}")
    return ProbeDataset(SENTLEN, num_classes, *_split(pairs, seed))


def default_wc_targets(vocab: Vocabulary) -> list[str]:
    """The WC_TARGETS mid-frequency target words: vocabulary ranks 100..109
    when available, otherwise a centered window (stopwords and hapaxes are
    both poor probes)."""
    words = vocab.tokens[len(RESERVED):]
    if len(words) < WC_TARGETS:
        raise InsufficientExamples(f"vocabulary has only {len(words)} tokens, need {WC_TARGETS}")
    start = 100 if len(words) >= 100 + WC_TARGETS else (len(words) - WC_TARGETS) // 2
    return list(words[start : start + WC_TARGETS])


def gen_wc(sentences: Sequence[Sentence], vocab: Vocabulary, seed: int = 0) -> ProbeDataset:
    """Keep sentences containing exactly one distinct target word of
    ``default_wc_targets(vocab)``; the label is that word's index there."""
    targets = default_wc_targets(vocab)
    target_index = {t: i for i, t in enumerate(targets)}
    pairs = []
    for s in sentences:
        hits = {target_index[t] for t in set(s.tokens) if t in target_index}
        if len(hits) == 1:
            pairs.append((s, hits.pop()))
    counts = np.bincount([label for _, label in pairs], minlength=len(targets))
    if (counts < WC_MIN_PER_CLASS).any():
        starved = [targets[i] for i in np.flatnonzero(counts < WC_MIN_PER_CLASS)]
        raise InsufficientExamples(
            f"target words {starved} have fewer than {WC_MIN_PER_CLASS} exactly-one sentences"
        )
    return ProbeDataset(WC, len(targets), *_split(pairs, seed))


def gen_bshift(sentences: Sequence[Sentence], seed: int = 0) -> ProbeDataset:
    """Binary task: original sentence (0) versus a copy with one random
    adjacent distinct-token pair swapped (1), roughly balanced by coin flip.

    Only sentences with n >= 3 and at least one adjacent distinct pair are
    eligible.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for s in sentences:
        if len(s) < 3:
            continue
        positions = [p for p in range(len(s) - 1) if s.tokens[p] != s.tokens[p + 1]]
        if not positions:
            continue
        if rng.integers(2) == 0:
            pairs.append((s, 0))
        else:
            p = positions[int(rng.integers(len(positions)))]
            pairs.append((swap_positions(s, p, p + 1, s.id + ":b"), 1))
    if not pairs:
        raise InsufficientExamples("no sentence is eligible for bshift")
    return ProbeDataset(BSHIFT, 2, *_split(pairs, seed))


@dataclass
class ProbeResult:
    name: str
    test_accuracy: float
    chosen_l2: float
    converged: bool
    num_classes: int
    split_sizes: dict[str, int]
    valid_accuracy: float

    def to_dict(self) -> dict:
        """Every field but ``name``, which the report keys by."""
        return {k: v for k, v in asdict(self).items() if k != "name"}


def fit_logistic(
    x: np.ndarray, y: np.ndarray, num_classes: int, l2: float, max_iterations: int, tolerance: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Multinomial logistic regression by full-batch gradient descent.

    Minimizes mean cross-entropy + l2 * sum(W^2) with a backtracking
    (Armijo) line search; the bias is not penalized. Returns (W, b,
    converged) where converged means the gradient norm fell below the
    tolerance within the iteration budget. When the line search finds no
    acceptable step above 1e-14, the fit stops at the last accepted (W, b).
    """
    n, d = x.shape
    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    rows = np.arange(n)

    def objective(w_, b_):
        """Penalized loss at (w_, b_) and the class probabilities its gradient needs."""
        logp, probs = nc.log_softmax(x @ w_ + b_)
        return float(-logp[rows, y].mean()) + l2 * float((w_ * w_).sum()), probs

    loss, probs = objective(w, b)
    step = 1.0
    converged = False
    for _ in range(max_iterations):
        r = probs.copy()
        r[rows, y] -= 1.0  # probs - onehot(y)
        r /= n
        gw, gb = x.T @ r + 2.0 * l2 * w, r.sum(axis=0)
        gnorm2 = float((gw * gw).sum() + (gb * gb).sum())
        if np.sqrt(gnorm2) < tolerance:
            converged = True
            break
        while step > 1e-14:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, probs_new = objective(w_new, b_new)
            if loss_new <= loss - 0.5 * step * gnorm2:
                break
            step *= 0.5
        else:
            break  # no step passed the Armijo test: keep the last accepted (w, b)
        w, b, loss, probs = w_new, b_new, loss_new, probs_new
        step = min(step * 2.0, 1e6)
    return w, b, converged


def _features(split, encodings) -> tuple[np.ndarray, np.ndarray]:
    try:
        x = np.stack([np.asarray(encodings[s.id], dtype=np.float64) for s, _ in split])
    except KeyError as e:
        raise ValueError(f"missing encoding for sentence id {e.args[0]!r}")
    y = np.array([label for _, label in split], dtype=np.int64)
    return x, y


def train_probe(
    dataset: ProbeDataset, encodings: dict[str, np.ndarray], cfg: ProbeConfig | None = None
) -> ProbeResult:
    """Fit one probe per grid penalty, pick by validation accuracy, and
    report the chosen probe's test accuracy. Encoder parameters are not
    part of this computation at all, only the cached encodings."""
    cfg = cfg or ProbeConfig()
    if not dataset.valid or not dataset.test:
        raise InsufficientExamples(f"{dataset.name}: no probe can be chosen and tested on splits "
                                   f"{dataset.split_sizes}")
    x_train, y_train = _features(dataset.train, encodings)
    x_valid, y_valid = _features(dataset.valid, encodings)
    x_test, y_test = _features(dataset.test, encodings)
    best = None
    for l2 in sorted(cfg.l2_grid):
        w, b, converged = fit_logistic(
            x_train, y_train, dataset.num_classes, l2, cfg.max_iterations, cfg.tolerance
        )
        val_acc = float((np.argmax(x_valid @ w + b, axis=1) == y_valid).mean())
        if best is None or val_acc > best[0]:
            best = (val_acc, l2, w, b, converged)
    val_acc, l2, w, b, converged = best
    test_acc = float((np.argmax(x_test @ w + b, axis=1) == y_test).mean())
    return ProbeResult(
        name=dataset.name,
        test_accuracy=test_acc,
        chosen_l2=l2,
        converged=converged,
        num_classes=dataset.num_classes,
        split_sizes=dataset.split_sizes,
        valid_accuracy=val_acc,
    )


def run_probes(
    encoder,
    sentences: Sequence[Sentence],
    tasks: Sequence[str] = TASKS,
    seed: int = 0,
    cfg: ProbeConfig | None = None,
) -> dict[str, ProbeResult]:
    """Generate the requested probe datasets, encode each distinct sentence
    they contain once with the frozen encoder, and train the probes.

    Tasks share sentences, and a sentence's encoding does not depend on the
    batch it is encoded in, so one encoding per sentence id serves them all;
    MalformedLine if one id names two different token sequences.
    """
    if not tasks:
        raise ValueError("no probing task requested")
    # built per call: perfbench/tracing.py replaces the gen_* functions after import
    generators = {SENTLEN: gen_sentlen, WC: lambda s, seed: gen_wc(s, encoder.vocab, seed), BSHIFT: gen_bshift}
    datasets = {}
    for task in tasks:
        if task not in generators:
            raise ValueError(f"unknown probing task {task!r}")
        datasets[task] = generators[task](sentences, seed=seed)
    by_id: dict[str, Sentence] = {}
    for s in (s for dataset in datasets.values() for s in dataset.sentences()):
        if by_id.setdefault(s.id, s).tokens != s.tokens:
            raise MalformedLine(f"sentence id {s.id!r} names two different sentences")
    vectors = encoder.encode_batch(list(by_id.values()))  # _features casts each row to float64
    encodings = dict(zip(by_id, vectors))
    return {task: train_probe(dataset, encodings, cfg) for task, dataset in datasets.items()}
