"""Fake-sentence generation: word shuffle, word drop, and dataset assembly.

A fake sentence is a corrupted copy of a real one. Shuffling swaps the
tokens at two sampled positions; dropping removes the token at one sampled
position. Positions are 0-based everywhere, including in serialized records.

Dataset records are JSON objects, one per line:
    {"id", "tokens", "label", "source_id", "strategy", "i", "j"}
with strategy/i/j absent for real records and j absent for drop records.
The record rules live in the constructors every caller uses: Sentence (id,
tokens), CorruptionRecord (strategy, positions), LabeledExample (label, source size).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import Sentence, text_lines
from .errors import EmptyDataset, EmptySentence, MalformedLine, NoDistinctPair, TooShort

REAL = 1
FAKE = 0

WORD_SHUFFLE = "shuffle"
WORD_DROP = "drop"
STRATEGIES = (WORD_SHUFFLE, WORD_DROP)

# identical-token swaps would produce a "fake" equal to the real sentence;
# resample the index pair this many times before giving up on the sentence
_MAX_PAIR_DRAWS = 10


@dataclass(frozen=True)
class CorruptionRecord:
    """How a fake was made: a strategy of STRATEGIES and int source positions >= 0,
    a shuffle's two distinct i and j or a drop's i alone (else ValueError)."""

    strategy: str
    i: int
    j: int | None = None  # shuffle only

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == WORD_DROP and self.j is not None:
            raise ValueError("a drop record has no j")
        positions = {"i": self.i} if self.strategy == WORD_DROP else {"i": self.i, "j": self.j}
        for name, value in positions.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} = {value!r} is not a position")
        if self.i == self.j:
            raise ValueError("a shuffle swaps two distinct positions")


@dataclass(frozen=True)
class LabeledExample:
    """A sentence labelled the int REAL or FAKE, FAKE iff it has a record, whose positions lie in the
    source (str ``source_id``): n tokens for a shuffle, n + 1 for a drop (else ValueError or TypeError)."""

    sentence: Sentence
    label: int
    record: CorruptionRecord | None
    source_id: str

    def __post_init__(self):
        if type(self.label) is not int or self.label not in (REAL, FAKE):
            raise ValueError(f"label {self.label!r} is neither {FAKE} (fake) nor {REAL} (real)")
        if (self.label == FAKE) != (self.record is not None):
            raise ValueError("label FAKE iff a corruption record is present")
        if not isinstance(self.source_id, str):
            raise TypeError(f"source_id {self.source_id!r} is not a string")
        if self.record is not None:
            size = len(self.sentence) + (self.record.strategy == WORD_DROP)
            for name, value in (("i", self.record.i), ("j", self.record.j)):
                if value is not None and value >= size:
                    raise ValueError(f"{name} = {value!r} is not a position of the {size}-token source")


def swap_positions(s: Sentence, i: int, j: int, id: str) -> Sentence:
    """Deterministic core of word_shuffle: swap tokens at positions i and j."""
    toks = list(s.tokens)
    toks[i], toks[j] = toks[j], toks[i]
    return Sentence(tuple(toks), id)


def word_shuffle(
    s: Sentence, rng: np.random.Generator, id: str | None = None
) -> tuple[Sentence, CorruptionRecord]:
    """Swap two sampled positions holding distinct tokens.

    Raises TooShort for n < 2 and NoDistinctPair when no acceptable pair is
    drawn within the resampling budget (guaranteed when all tokens are
    identical).
    """
    n = len(s.tokens)
    if n < 2:
        raise TooShort(f"sentence {s.id!r} has {n} token(s), need 2 to shuffle")
    for _ in range(_MAX_PAIR_DRAWS):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1  # uniform over pairs with i != j
        if s.tokens[i] != s.tokens[j]:
            out = swap_positions(s, i, j, id if id is not None else s.id + ":shuffle")
            return out, CorruptionRecord(WORD_SHUFFLE, i, j)
    raise NoDistinctPair(f"sentence {s.id!r}: no distinct-token pair found")


def word_drop(
    s: Sentence, rng: np.random.Generator, id: str | None = None
) -> tuple[Sentence, CorruptionRecord]:
    """Remove the token at one sampled position."""
    n = len(s.tokens)
    if n < 2:
        raise TooShort(f"sentence {s.id!r} has {n} token(s), need 2 to drop")
    i = int(rng.integers(n))
    toks = s.tokens[:i] + s.tokens[i + 1 :]
    out = Sentence(toks, id if id is not None else s.id + ":drop")
    return out, CorruptionRecord(WORD_DROP, i)


def sentence_rng(run_seed: int, sentence_id: str) -> np.random.Generator:
    """Per-sentence random stream: derived from (run seed, sentence id).

    Corruption of distinct sentences is therefore independent of corpus
    order and safe to parallelize with a deterministic merge.
    """
    digest = hashlib.sha256(sentence_id.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng([int(run_seed), *words])  # any seed >= 0, not just 32 bits


def build_dataset(
    corpus: Iterable[Sentence],
    strategy: str,
    fakes_per_real: int,
    seed: int,
) -> list[LabeledExample]:
    """Emit each eligible real sentence followed by its corruption(s).

    Sentences failing the strategy's precondition are skipped entirely so
    the class balance stays at 1 : fakes_per_real.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if fakes_per_real < 1:
        raise ValueError("fakes_per_real must be >= 1")
    corrupt = word_shuffle if strategy == WORD_SHUFFLE else word_drop
    out: list[LabeledExample] = []
    for sent in corpus:
        rng = sentence_rng(seed, sent.id)
        fakes = []
        try:
            for k in range(fakes_per_real):
                fake_sent, record = corrupt(sent, rng, id=f"{sent.id}:f{k}")
                fakes.append(LabeledExample(fake_sent, FAKE, record, sent.id))
        except (TooShort, NoDistinctPair):
            continue
        out.append(LabeledExample(sent, REAL, None, sent.id))
        out.extend(fakes)
    if not out:
        raise EmptyDataset(f"no sentence was eligible for {strategy}")
    return out


def example_to_json(ex: LabeledExample) -> str:
    obj: dict = {
        "id": ex.sentence.id,
        "tokens": list(ex.sentence.tokens),
        "label": ex.label,
        "source_id": ex.source_id,
    }
    if ex.record is not None:
        obj["strategy"] = ex.record.strategy
        obj["i"] = ex.record.i
        if ex.record.j is not None:
            obj["j"] = ex.record.j
    return json.dumps(obj, ensure_ascii=False)


def example_from_json(line: str) -> LabeledExample:
    """Parse one record; MalformedLine naming the rule it breaks unless its fields make a LabeledExample."""
    try:
        obj = json.loads(line)
        if not isinstance(obj["tokens"], list):  # tuple("abc") would pass Sentence
            raise ValueError("tokens must be a list of strings")
        record = CorruptionRecord(obj["strategy"], obj["i"], obj.get("j")) if "strategy" in obj else None
        return LabeledExample(Sentence(tuple(obj["tokens"]), obj["id"]), obj["label"], record, obj["source_id"])
    except KeyError as e:
        raise MalformedLine(f"bad dataset record: missing field {e}")
    except (ValueError, TypeError, EmptySentence, RecursionError) as e:  # RecursionError: JSON too deep
        raise MalformedLine(f"bad dataset record: {e}")


def write_dataset(path, examples: Iterable[LabeledExample]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(example_to_json(ex) + "\n")


def load_dataset(path) -> list[LabeledExample]:
    """One example per non-blank line; a bad record is a MalformedLine naming its path and line."""
    examples = []
    for lineno, line in text_lines(path):
        try:
            examples.append(example_from_json(line))
        except MalformedLine as e:
            raise MalformedLine(f"{path}:{lineno}: {e}") from None
    if not examples:
        raise EmptyDataset(f"{path}: no examples")
    return examples
