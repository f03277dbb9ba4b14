"""Sentence encoder: embedding lookup, single-layer bidirectional LSTM,
concatenated directional states, max-pooling over time.

A forward pass is ``numcore.rows`` -> ``numcore.bilstm`` (both directions,
one tape record) -> ``numcore.max_over_time``.

Layout conventions:

* Gate order inside every 4H-wide block is (input, forget, output, cell
  candidate). Each direction is held as the (w, u, b) triple of Parameters
  that ``numcore.bilstm`` takes and checkpoints store: input weights
  (4H, d), recurrent weights (4H, H), bias (4H,).
* The backward direction consumes tokens in reverse order; its state after
  reading tokens n-1 .. t is aligned to position t before concatenation,
  so the per-step concatenated state at t sees the full prefix (forward)
  and the full suffix (backward).
* Batches are padded with PAD (index 0). The recurrence of each sentence
  stops at its own length, so no state is computed at a padded position
  (it is exactly 0 there), and pooling masks positions at or beyond each
  sentence's length. Encodings are bit-identical whether a sentence is
  encoded alone or inside any batch.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import numcore as nc
from .corpus import Sentence, Vocabulary
from .errors import EmptyDataset, ShapeMismatch

GATES = 4
Direction = tuple[nc.Parameter, nc.Parameter, nc.Parameter]  # (w, u, b)


def init_direction(prefix: str, dim: int, hidden: int, rng: np.random.Generator, dtype) -> Direction:
    """Uniform(-k, k) with k = 1/sqrt(H); forget-gate bias starts at 1.0
    so early cell memory survives the first updates."""
    k = 1.0 / math.sqrt(hidden)
    w = rng.uniform(-k, k, size=(GATES * hidden, dim)).astype(dtype)
    u = rng.uniform(-k, k, size=(GATES * hidden, hidden)).astype(dtype)
    b = np.zeros(GATES * hidden, dtype=dtype)
    b[hidden : 2 * hidden] = 1.0
    return nc.Parameter(f"{prefix}.w", w), nc.Parameter(f"{prefix}.u", u), nc.Parameter(f"{prefix}.b", b)


class SentenceEncoder:
    """Embedding + BiLSTM + temporal max-pooling; output width is 2H."""

    def __init__(self, vocab: Vocabulary, embedding: nc.Parameter, fwd: Direction, bwd: Direction):
        self.vocab = vocab
        self.embedding = embedding
        self.fwd = fwd
        self.bwd = bwd
        self.dim = embedding.value.shape[1]
        self.hidden = fwd[1].value.shape[1]

    @classmethod
    def create(
        cls,
        vocab: Vocabulary,
        table: np.ndarray,
        hidden: int,
        rng: np.random.Generator,
    ) -> "SentenceEncoder":
        """Encoder over a copy of the (V, d) embedding ``table``, whose dtype
        every parameter takes; training never writes into the caller's array."""
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if table.ndim != 2 or table.shape[0] != len(vocab):
            raise ShapeMismatch("embedding table must be (V, d) with V the vocabulary size")
        embedding = nc.Parameter("embedding", table.copy())
        fwd = init_direction("fwd", table.shape[1], hidden, rng, table.dtype)
        bwd = init_direction("bwd", table.shape[1], hidden, rng, table.dtype)
        return cls(vocab, embedding, fwd, bwd)

    @property
    def dtype(self):
        return self.embedding.value.dtype

    @property
    def out_dim(self) -> int:
        return 2 * self.hidden

    def parameters(self) -> list[nc.Parameter]:
        """Checkpoint order: embedding, then each direction's (w, u, b)."""
        return [self.embedding, *self.fwd, *self.bwd]

    def prepare_batch(self, sentences: Sequence[Sentence]) -> tuple[np.ndarray, np.ndarray]:
        """Token-index matrix (batch, max_len) padded with PAD, plus lengths."""
        if len(sentences) == 0:
            raise EmptyDataset("empty batch")
        lengths = np.array([len(s) for s in sentences], dtype=np.int64)
        idx = np.zeros((len(sentences), int(lengths.max())), dtype=np.int64)
        for r, s in enumerate(sentences):
            idx[r, : lengths[r]] = self.vocab.indices(s.tokens)
        return idx, lengths

    def forward_batch(
        self, tape: nc.Tape | None, idx: np.ndarray, lengths: np.ndarray
    ) -> tuple[nc.Tensor, nc.Tensor]:
        """Pooled encodings (batch, 2H) and per-step concatenated states."""
        emb = nc.rows(tape, self.embedding, idx)
        u = nc.bilstm(tape, emb, lengths, self.fwd, self.bwd)
        z = nc.max_over_time(tape, u, lengths)
        return z, u

    def encode_batch(self, sentences: Sequence[Sentence], batch_size: int = 64) -> np.ndarray:
        """Encodings for a list of sentences, in input order, processed in
        padded chunks of up to ``batch_size`` sentences of similar length
        (every inference path in the package takes the default).

        Chunking is invisible: pooled values are bit-identical for any
        grouping. Each row's recurrence stops at its own length, and every
        forward matrix product runs as BLAS gemms over fixed-size,
        zero-padded row tiles (``numcore._mm``), so each row is summed in
        the same order whatever the number of rows in the chunk. So the
        sentences are chunked longest first, which leaves little padding in
        a chunk, and each encoding is written back to its input position.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if len(sentences) == 0:
            raise EmptyDataset("empty batch")
        order = np.argsort([-len(s) for s in sentences], kind="stable")
        out = np.empty((len(sentences), self.out_dim), dtype=self.dtype)
        for start in range(0, len(sentences), batch_size):
            chunk = order[start : start + batch_size]
            idx, lengths = self.prepare_batch([sentences[r] for r in chunk])
            z, _ = self.forward_batch(None, idx, lengths)
            out[chunk] = z.data
        return out

    def encode(self, sentence: Sentence) -> np.ndarray:
        """Fixed-length representation of one sentence, shape (2H,)."""
        return self.encode_batch([sentence])[0]

    def encode_with_states(self, sentence: Sentence) -> tuple[np.ndarray, np.ndarray]:
        """Encoding plus the (n, 2H) matrix of per-step concatenated states."""
        idx, lengths = self.prepare_batch([sentence])
        z, u = self.forward_batch(None, idx, lengths)
        return z.data[0], u.data[0]
