"""Tokenization, vocabulary construction, and pretrained-embedding ingestion.

File formats:
  corpus     UTF-8 text, one sentence per line (blank lines skipped on read)
  embeddings one line per token: the token then d decimal floats, whitespace
             separated

Every sentence rule lives in Sentence's constructor, which every reader uses.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptySentence,
    MalformedLine,
)

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1
RESERVED = (PAD, UNK)  # the first rows of every vocabulary, in index order
MAX_TOKEN_BYTES = 0xFFFF  # a checkpoint stores each token's UTF-8 length as a uint16


@dataclass(frozen=True)
class Sentence:
    """A non-empty token sequence with a corpus-unique str id; each token a str (else TypeError), non-empty
    with no whitespace (else EmptySentence), of at most MAX_TOKEN_BYTES UTF-8 bytes (else ValueError)."""

    tokens: tuple[str, ...]
    id: str

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"sentence id {self.id!r} is not a string")
        if len(self.tokens) == 0:
            raise EmptySentence(f"sentence {self.id!r} has no tokens")
        text = " ".join(self.tokens)  # TypeError unless every token is a str
        if text.split() != list(self.tokens):  # equal iff every token is non-empty, with no whitespace
            raise EmptySentence(f"sentence {self.id!r} has an empty or whitespace token")
        raw = text if text.isascii() else text.encode("utf-8")  # a lone surrogate: UnicodeEncodeError
        size = max(map(len, raw.split())) if len(raw) > MAX_TOKEN_BYTES else 0  # no token is longer than raw
        if size > MAX_TOKEN_BYTES:
            raise ValueError(f"a token of {size} UTF-8 bytes, over the {MAX_TOKEN_BYTES} a checkpoint stores")

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(line: str, id: str = "") -> Sentence:
    """Lower-case and whitespace-split a raw line into a Sentence (EmptySentence if it has no token)."""
    return Sentence(tuple(line.lower().split()), id)


class Vocabulary:
    """Bijection between tokens and indices: the RESERVED rows (PAD=0, UNK=1),
    then each token of ``tokens_in_order`` at its first occurrence.

    A repeated token adds no row, a reserved token keeps its reserved row, and
    ``Vocabulary(v.tokens)`` rebuilds ``v``. Unknown tokens map to UNK on lookup.
    """

    def __init__(self, tokens_in_order: Iterable[str]):
        self._index = {t: i for i, t in enumerate(dict.fromkeys((*RESERVED, *tokens_in_order)))}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        return self._index.get(token, UNK_INDEX)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._index)

    def indices(self, tokens: Iterable[str]) -> list[int]:
        get = self._index.get
        return [get(t, UNK_INDEX) for t in tokens]


def build_vocab(corpus: Iterable[Sentence], min_count: int = 1) -> Vocabulary:
    """Count token frequencies and keep everything occurring >= min_count.

    Kept words take rows after the reserved ones in descending frequency,
    ties broken lexicographically; a literal PAD or UNK in the corpus keeps
    its reserved row (see Vocabulary).
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    n = 0
    for sent in corpus:
        counts.update(sent.tokens)
        n += 1
    if n == 0:
        raise EmptyCorpus("no sentences in corpus")
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def init_embeddings(
    vocab: Vocabulary, dim: int, rng: np.random.Generator, dtype=np.float32, scale: float = 1.0
) -> np.ndarray:
    """Random (V, d) table in ``dtype`` for training without a pretrained
    file: rows are uniform(-scale, scale), PAD stays zero.

    The default scale is deliberately larger than the 0.1 used for rows
    missing from a pretrained file: with nothing but random vectors, the
    encoder needs input magnitudes comparable to real word vectors for
    gradients to be useful at desk scale.
    """
    table = rng.uniform(-scale, scale, size=(len(vocab), dim)).astype(dtype)
    table[PAD_INDEX] = 0.0
    return table


def load_embeddings(
    path, vocab: Vocabulary, rng: np.random.Generator, dtype=np.float32
) -> np.ndarray:
    """Read a "token v1 ... vd" text file into a vocabulary-aligned (V, d)
    table in ``dtype``.

    The table is allocated once the first line fixes d, and each vector of
    a vocabulary token is written straight into its row (a repeated token
    keeps its last vector). Every value on every line must be finite in
    ``dtype``. Rows still missing once the file is read (including UNK) are
    filled in place with vectors drawn uniform(-0.1, 0.1) from ``rng``, in
    vocabulary-index order, so a fixed seed gives a fixed table. PAD stays
    zero.
    """
    table = found = None
    for lineno, line in text_lines(path):
        tok, *values = line.split()
        if table is None:
            if not values:
                raise DimensionMismatch(f"{path}:{lineno}: no vector values")
            table = np.zeros((len(vocab), len(values)), dtype=dtype)
            found = np.zeros(len(vocab), dtype=bool)
            spare = np.empty(len(values), dtype=dtype)  # the row of a token outside the vocabulary
        elif len(values) != table.shape[1]:
            raise DimensionMismatch(f"{path}:{lineno}: expected {table.shape[1]} values, got {len(values)}")
        try:
            vec = [float(v) for v in values]
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: non-numeric field")
        row = vocab.index(tok) if tok in vocab else None
        dest = spare if row is None else table[row]
        with np.errstate(over="ignore"):
            dest[:] = vec
        if not np.isfinite(dest).all():
            raise MalformedLine(f"{path}:{lineno}: value not finite in {np.dtype(dtype).name}")
        if row is not None:
            found[row] = True
    if table is None:
        raise EmptyCorpus(f"{path}: embedding file has no rows")
    table[PAD_INDEX] = 0.0
    found[PAD_INDEX] = True
    for row in np.flatnonzero(~found):
        table[row] = rng.uniform(-0.1, 0.1, size=table.shape[1])
    return table


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for each non-blank line of a UTF-8 text file; MalformedLine
    naming the first line that is not UTF-8.

    Whitespace-only lines count as blank. Skipped lines keep their numbers, so each number is the
    line's place in the file. A leading byte-order mark is dropped, so a file saved with one reads
    as one saved without.
    """
    with open(path, encoding="utf-8-sig") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as e:
            # the error knows only its byte offset in a decoded chunk: read the file again with
            # each bad byte escaped to a lone surrogate (U+DC80..U+DCFF), and find the first one
            with open(path, encoding="utf-8-sig", errors="surrogateescape") as again:
                lineno = next(n for n, line in enumerate(again, start=1) if re.search("[\udc80-\udcff]", line))
            raise MalformedLine(f"{path}:{lineno}: not UTF-8 text ({e.reason})") from None


def load_corpus(path) -> list[Sentence]:
    """One Sentence per non-blank line, ids being 0-based line numbers; MalformedLine naming a bad line."""
    sentences = []
    for lineno, line in text_lines(path):
        try:
            sentences.append(tokenize(line, id=str(lineno - 1)))
        except ValueError as e:
            raise MalformedLine(f"{path}:{lineno}: {e}") from None
    if not sentences:
        raise EmptyCorpus(f"{Path(path)}: no sentences")
    return sentences
