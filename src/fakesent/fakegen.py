"""Fake-sentence generation: word shuffle, word drop, and dataset assembly.

A fake sentence is a corrupted copy of a real one. Shuffling swaps the
tokens at two sampled positions; dropping removes the token at one sampled
position. Positions are 0-based everywhere, including in serialized records.

Dataset records are JSON objects, one per line:
    {"id", "tokens", "label", "source_id", "strategy", "i", "j"}
with strategy/i/j absent for real records and j absent for drop records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import MAX_TOKEN_BYTES, Sentence, text_lines
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
    strategy: str
    i: int
    j: int | None = None  # shuffle only


@dataclass(frozen=True)
class LabeledExample:
    sentence: Sentence
    label: int
    record: CorruptionRecord | None
    source_id: str

    def __post_init__(self):
        if (self.label == FAKE) != (self.record is not None):
            raise ValueError("label FAKE iff a corruption record is present")


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


def _record_from_json(obj: dict, n_tokens: int) -> CorruptionRecord:
    """The corruption record of a FAKE line whose sentence has ``n_tokens``.

    Positions index the source sentence: a shuffle keeps its length and
    swaps two distinct positions, a drop removed one token and has no j.
    """
    strategy = obj["strategy"]
    if strategy == WORD_SHUFFLE:
        positions, size = {"i": obj["i"], "j": obj["j"]}, n_tokens
    elif strategy == WORD_DROP:
        if "j" in obj:
            raise ValueError("a drop record has no j")
        positions, size = {"i": obj["i"]}, n_tokens + 1
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    for name, value in positions.items():
        if type(value) is not int or not 0 <= value < size:
            raise ValueError(f"{name} = {value!r} is not a position of the {size}-token source")
    if strategy == WORD_SHUFFLE and positions["i"] == positions["j"]:
        raise ValueError("a shuffle swaps two distinct positions")
    return CorruptionRecord(strategy, positions["i"], positions.get("j"))


def example_from_json(line: str) -> LabeledExample:
    """Parse one record; MalformedLine unless ``example_to_json`` could have
    written it for an example of ``build_dataset``."""
    try:
        obj = json.loads(line)
        tokens, label = obj["tokens"], obj["label"]
        if type(label) is not int or label not in (REAL, FAKE):
            raise ValueError(f"label {label!r} is neither {FAKE} (fake) nor {REAL} (real)")
        if not isinstance(tokens, list):
            raise ValueError("tokens must be a list of strings")
        try:
            sent = Sentence(tuple(tokens), obj["id"])
        except AttributeError:  # Sentence splits every token, and only a str has split()
            raise ValueError("tokens must be a list of strings") from None
        if len(line) > MAX_TOKEN_BYTES // 4:  # a token has at most its line's characters, each of at most 4 UTF-8 bytes
            size = max(len(t.encode("utf-8")) for t in tokens)
            if size > MAX_TOKEN_BYTES:
                raise ValueError(f"a token of {size} UTF-8 bytes, over the {MAX_TOKEN_BYTES} a checkpoint stores")
        record = _record_from_json(obj, len(tokens)) if "strategy" in obj else None
        source_id = obj["source_id"]
        if not (isinstance(sent.id, str) and isinstance(source_id, str)):
            raise ValueError("id and source_id must be strings")
        return LabeledExample(sent, label, record, source_id)
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
