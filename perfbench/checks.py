"""Correctness checks on the program's outputs.

Each check compares an output with a computation made apart from the
package (its own edit-distance DP, checkpoint parser, float64 BiLSTM, probe
labels from token scans) or with a property the method must have, and
raises ``CheckFailed`` on the first disagreement. ``check_live.py`` feeds
every check a corrupted output to show that it rejects it.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- gen-fakes --------------------------------------------------------------------


def edit_distance_capped(a, b, cap: int = 3) -> int:
    """Word-level Levenshtein distance, exact up to ``cap``; ``cap + 1`` beyond.

    Banded DP: an alignment of cost <= cap never leaves the diagonal band
    of half-width cap, so cells outside it are treated as unreachable.
    """
    over = cap + 1
    n, m = len(a), len(b)
    if abs(n - m) > cap:
        return over
    prev = [j if j <= cap else over for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [over] * (m + 1)
        if i <= cap:
            cur[0] = i
        for j in range(max(1, i - cap), min(m, i + cap) + 1):
            sub = prev[j - 1] + (a[i - 1] != b[j - 1])
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, sub, over)
        prev = cur
    return prev[m]


def _shuffle_eligible(tokens) -> bool:
    return len(tokens) >= 2 and len(set(tokens)) >= 2


def check_shuffle_dataset(lines: list[str], examples) -> None:
    """Each eligible corpus line appears once as REAL, in order, followed by
    one shuffle fake at edit distance exactly 2 (so reals and fakes are 1:1)."""
    eligible = [(str(i), tuple(l.lower().split())) for i, l in enumerate(lines)]
    eligible = [(i, t) for i, t in eligible if _shuffle_eligible(t)]
    require(len(examples) == 2 * len(eligible),
            f"{len(examples)} examples for {len(eligible)} eligible sentences, want 1 real : 1 fake")
    for k, (sid, tokens) in enumerate(eligible):
        real, fake = examples[2 * k], examples[2 * k + 1]
        require(real.label == 1 and real.record is None and real.sentence.id == sid
                and real.sentence.tokens == tokens, f"example {2 * k} is not real sentence {sid}")
        require(fake.label == 0 and fake.source_id == sid and fake.record.strategy == "shuffle",
                f"example {2 * k + 1} is not a shuffle fake of sentence {sid}")
        d = edit_distance_capped(tokens, fake.sentence.tokens)
        require(d == 2, f"fake of sentence {sid} is at edit distance {d}, want 2")


def check_same_examples(loaded, generated) -> None:
    require(len(loaded) == len(generated),
            f"JSONL holds {len(loaded)} examples, generated {len(generated)}")
    for k, (a, b) in enumerate(zip(loaded, generated)):
        require(a == b, f"JSONL example {k} differs from the generated one")


# -- training -----------------------------------------------------------------------


def check_initial_loss(loss: float) -> None:
    require(abs(loss - math.log(2.0)) <= 0.1, f"first-batch loss {loss:.4f} not within 0.1 of ln 2")


def check_epoch_losses(losses) -> None:
    require(len(losses) > 0 and all(math.isfinite(x) for x in losses),
            f"non-finite epoch loss in {losses}")


def check_all_equal(digests, what: str) -> None:
    require(len(set(digests)) == 1, f"{what} differ between rounds: {sorted(set(digests))}")


def check_bytes_equal(a: bytes, b: bytes, what: str) -> None:
    require(a == b, f"{what}: bytes differ")


# -- checkpoint and encodings ----------------------------------------------------------


def read_checkpoint(path) -> tuple[dict, list[str], dict[str, np.ndarray]]:
    """Parse the checkpoint layout documented in ``fakesent.checkpoint``."""
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0

    def take(n):
        nonlocal pos
        require(pos + n <= len(raw), "checkpoint truncated")
        out = raw[pos : pos + n]
        pos += n
        return out

    def u(fmt):
        return struct.unpack("<" + fmt, take(struct.calcsize(fmt)))[0]

    def text():
        return take(u("H")).decode("utf-8")

    require(take(8) == b"FSENTCK1", "checkpoint magic")
    header = json.loads(take(u("I")).decode("utf-8"))
    tokens = [text() for _ in range(u("I"))]
    params = {}
    for _ in range(u("I")):
        name = text()
        shape = tuple(u("I") for _ in range(u("B")))
        dtype = np.dtype("<" + take(2).decode("ascii"))
        count = int(np.prod(shape)) if shape else 1
        params[name] = np.frombuffer(take(count * dtype.itemsize), dtype=dtype).reshape(shape)
    require(pos == len(raw), "trailing bytes in checkpoint")
    return header, tokens, params


def reference_encoding(params: dict[str, np.ndarray], tokens: list[str], sentence) -> np.ndarray:
    """BiLSTM-max in float64, one sentence at a time.

    Gate order per 4H block: input, forget, output, candidate. The backward
    direction reads the sentence right to left; pooling is the max over the
    sentence's own positions.
    """
    index = {t: i for i, t in enumerate(tokens)}
    ids = [index.get(t, 1) for t in sentence]
    x = params["embedding"].astype(np.float64)[ids]

    def run(prefix, seq):
        w, u, b = (params[f"{prefix}.{k}"].astype(np.float64) for k in "wub")
        hidden = u.shape[1]
        h, c = np.zeros(hidden), np.zeros(hidden)
        states = []
        for x_t in seq:
            pre = w @ x_t + u @ h + b
            i, f, o = (1.0 / (1.0 + np.exp(-pre[k * hidden : (k + 1) * hidden])) for k in range(3))
            c = f * c + i * np.tanh(pre[3 * hidden :])
            h = o * np.tanh(c)
            states.append(h)
        return np.array(states)

    forward = run("fwd", x)
    backward = run("bwd", x[::-1])[::-1]
    return np.concatenate([forward, backward], axis=1).max(axis=0)


def read_vectors(path, sentence_ids: list[str], width: int) -> np.ndarray:
    """The encode command's text output: one ``id v1 .. v2H`` line per sentence."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    require(len(lines) == len(sentence_ids),
            f"vectors file has {len(lines)} lines for {len(sentence_ids)} sentences")
    out = np.empty((len(lines), width), dtype=np.float32)
    for k, (line, sid) in enumerate(zip(lines, sentence_ids)):
        fields = line.split(" ")
        require(fields[0] == sid and len(fields) == width + 1,
                f"vectors line {k + 1}: want id {sid} and {width} values")
        out[k] = np.array(fields[1:], dtype=np.float32)
    return out


def check_same_bits(a: np.ndarray, b: np.ndarray, what: str) -> None:
    require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"{what}: not bit-identical")


def check_close(got: np.ndarray, want: np.ndarray, what: str, atol=2e-5, rtol=2e-5) -> None:
    err = np.abs(got.astype(np.float64) - want)
    worst = float(np.max(err - rtol * np.abs(want)))
    require(worst <= atol, f"{what}: off by {float(err.max()):.3g}")


# -- probes ------------------------------------------------------------------------------


def _pairs(dataset):
    return [p for split in (dataset.train, dataset.valid, dataset.test) for p in split]


def check_sentlen(dataset, lines: list[str]) -> None:
    """Labels are length bins at the corpus's empirical sextiles."""
    lengths = sorted(len(l.split()) for l in lines)
    cuts = [lengths[min(len(lengths) - 1, k * len(lengths) // 6)] for k in range(1, 6)]
    want = {str(i): sum(c < len(l.split()) for c in cuts) for i, l in enumerate(lines)}
    got = {s.id: label for s, label in _pairs(dataset)}
    require(len(got) == len(_pairs(dataset)) == len(want), "sentlen covers each sentence once")
    for sid, label in got.items():
        require(label == want[sid], f"sentlen label of sentence {sid} is {label}, want {want[sid]}")


def check_wc(dataset, lines: list[str]) -> None:
    """Targets are frequency ranks 100..109; sentences holding exactly one
    distinct target are kept, labelled by that target's rank order."""
    counts: dict[str, int] = {}
    for l in lines:
        for t in l.split():
            counts[t] = counts.get(t, 0) + 1
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    require(len(ranked) >= 110, "wc needs at least 110 word types")
    targets = {t: k for k, t in enumerate(ranked[100:110])}
    want = {}
    for i, l in enumerate(lines):
        hits = {targets[t] for t in l.split() if t in targets}
        if len(hits) == 1:
            want[str(i)] = hits.pop()
    got = {s.id: label for s, label in _pairs(dataset)}
    require(len(got) == len(_pairs(dataset)), "wc lists a sentence twice")
    bad = next((sid for sid in sorted(want.keys() | got.keys()) if got.get(sid) != want.get(sid)), None)
    require(bad is None, f"wc label of sentence {bad} is {got.get(bad)}, want {want.get(bad)}")


def check_bshift(dataset, lines: list[str]) -> None:
    """Negatives equal their source; positives differ from it by one swap of
    adjacent distinct tokens."""
    for s, label in _pairs(dataset):
        src = lines[int(s.id.removesuffix(":b"))].split()
        got = list(s.tokens)
        if label == 0:
            require(got == src and not s.id.endswith(":b"), f"bshift negative {s.id} altered")
            continue
        diff = [p for p in range(len(src)) if got[p] != src[p]] if len(got) == len(src) else None
        require(diff is not None and len(diff) == 2 and diff[1] == diff[0] + 1
                and got[diff[0]] == src[diff[1]] and got[diff[1]] == src[diff[0]],
                f"bshift positive {s.id} is not one adjacent transposition of its source")


def check_split_sizes(result, dataset) -> None:
    n = len(_pairs(dataset))
    require(sum(result.split_sizes.values()) == n and result.split_sizes == dataset.split_sizes,
            f"{dataset.name}: split sizes {result.split_sizes} do not add up to {n}")


def check_above_chance(result, dataset) -> None:
    """Chance is what a probe without information scores: predicting the
    most frequent training label for every test sentence."""
    train = [label for _, label in dataset.train]
    majority = max(set(train), key=lambda c: (train.count(c), -c))
    test = [label for _, label in dataset.test]
    chance = test.count(majority) / len(test)
    require(result.test_accuracy > chance,
            f"{dataset.name}: test accuracy {result.test_accuracy:.3f} does not clear chance {chance:.3f}")
