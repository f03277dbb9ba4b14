"""Frozen-encoder evaluation: probing-task generators and logistic probes.

Three tasks are generable from raw tokens alone:

  sentlen  predict which of six sextile bins holds a sentence's token count
  wc       predict which one of the vocabulary's ten mid-frequency target
           words the sentence contains
  bshift   detect whether one adjacent token pair was swapped

Each generator produces a deterministic 80/10/10 train/valid/test split
keyed by a hash of (seed, sentence id). Probes are multinomial logistic
regressions with an L2 penalty on the weights (bias unpenalized), fit from
zero by a Hessian-free Newton method (Newton-CG) that never forms the
Hessian; the penalty is picked on the validation split (ties go to the
smaller penalty), and only the test accuracy of the chosen probe is
reported, beside every penalty's validation accuracy, Newton steps and
convergence. The encoder is never touched.
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
    sweep: list[dict]  # per grid penalty, ascending: l2, valid_accuracy, iterations, converged

    def to_dict(self) -> dict:
        """Every field but ``name``, which the report keys by."""
        return {k: v for k, v in asdict(self).items() if k != "name"}


@dataclass(frozen=True)
class LogisticFit:
    """One fitted probe: weights (d, K), bias (K,), whether the gradient norm
    fell below the tolerance, and the Newton steps taken."""

    w: np.ndarray
    b: np.ndarray
    converged: bool
    iterations: int


def fit_logistic(
    x: np.ndarray, y: np.ndarray, num_classes: int, l2: float, max_iterations: int, tolerance: float
) -> LogisticFit:
    """Multinomial logistic regression by Hessian-free Newton (Newton-CG).

    Minimizes mean cross-entropy + l2 * sum(W^2) from W = 0, b = 0; the bias
    is not penalized. Each Newton step solves H p = -g by conjugate
    gradients, which see the Hessian only through products H v, each two
    products with the (n, d) features over (n, K) temporaries: the
    ((d+1)K)^2 Hessian is never formed. CG stops at a relative residual of
    min(0.5, sqrt(|g|)), on non-positive or overflowed curvature (at its
    first step p is then -g), or after (d+1)K steps; an Armijo backtracking
    line search along p then starts at the full step. ``max_iterations`` bounds the Newton steps, and converged means
    the gradient norm fell below ``tolerance``. When no step down to 1e-14
    passes the line search, the fit stops at the last accepted (W, b).
    """
    n, d = x.shape
    theta = np.zeros((d + 1, num_classes))  # rows :d hold W, row d holds b
    rows = np.arange(n)

    def logits(v):
        return x @ v[:d] + v[d]

    def objective(v):
        """Penalized loss at v and the class probabilities its gradient needs."""
        logp, probs = nc.log_softmax(logits(v))
        return float(-logp[rows, y].mean()) + l2 * float((v[:d] * v[:d]).sum()), probs

    def pull_back(z, v):
        """An (n, K) logit-space array taken to parameter space, plus the
        penalty's term at v: (x.T z + 2 l2 v_W, column sums of z)."""
        return np.vstack([x.T @ z + 2.0 * l2 * v[:d], z.sum(axis=0)])

    def hessian_times(v, probs):
        """H v at the point whose class probabilities are ``probs``."""
        z = logits(v)
        return pull_back(probs * (z - (probs * z).sum(axis=1, keepdims=True)) / n, v)

    def newton_direction(g, gnorm, probs):
        """Truncated CG on H p = -g from p = 0."""
        p = np.zeros_like(g)
        r = s = -g
        rr = gnorm * gnorm
        stop = min(0.5, math.sqrt(gnorm)) * gnorm
        for k in range((d + 1) * num_classes):
            hs = hessian_times(s, probs)
            curvature = float((s * hs).sum())
            if not 0 < curvature < math.inf:  # non-positive, or H s overflowed: CG cannot go on
                return s if k == 0 else p
            alpha = rr / curvature
            p = p + alpha * s
            r = r - alpha * hs
            rr_next = float((r * r).sum())
            if math.sqrt(rr_next) <= stop:
                break
            s = r + (rr_next / rr) * s
            rr = rr_next
        return p

    loss, probs = objective(theta)
    iterations = 0
    while True:
        r = probs.copy()
        r[rows, y] -= 1.0  # probs - onehot(y)
        g = pull_back(r / n, theta)
        gnorm = math.sqrt(float((g * g).sum()))
        converged = gnorm < tolerance
        if converged or iterations == max_iterations:
            break
        p = newton_direction(g, gnorm, probs)
        slope = float((g * p).sum())
        step = 1.0
        while step > 1e-14:
            trial = theta + step * p
            trial_loss, trial_probs = objective(trial)
            if trial_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no step passed the Armijo test: keep the last accepted (W, b)
        theta, loss, probs = trial, trial_loss, trial_probs
        iterations += 1
    return LogisticFit(theta[:d], theta[d], converged, iterations)


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
    report the chosen probe's test accuracy with the whole sweep. Encoder
    parameters are not part of this computation at all, only the cached
    encodings."""
    cfg = cfg or ProbeConfig()
    if not dataset.valid or not dataset.test:
        raise InsufficientExamples(f"{dataset.name}: no probe can be chosen and tested on splits "
                                   f"{dataset.split_sizes}")
    x_train, y_train = _features(dataset.train, encodings)
    x_valid, y_valid = _features(dataset.valid, encodings)
    x_test, y_test = _features(dataset.test, encodings)
    sweep, best = [], None
    for l2 in sorted(cfg.l2_grid):
        fit = fit_logistic(x_train, y_train, dataset.num_classes, l2, cfg.max_iterations, cfg.tolerance)
        val_acc = float((np.argmax(x_valid @ fit.w + fit.b, axis=1) == y_valid).mean())
        sweep.append({"l2": l2, "valid_accuracy": val_acc, "iterations": fit.iterations,
                      "converged": fit.converged})
        if best is None or val_acc > best[0]:
            best = (val_acc, l2, fit)
    val_acc, l2, fit = best
    test_acc = float((np.argmax(x_test @ fit.w + fit.b, axis=1) == y_test).mean())
    return ProbeResult(
        name=dataset.name,
        test_accuracy=test_acc,
        chosen_l2=l2,
        converged=fit.converged,
        num_classes=dataset.num_classes,
        split_sizes=dataset.split_sizes,
        valid_accuracy=val_acc,
        sweep=sweep,
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
