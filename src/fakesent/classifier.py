"""Real/fake classification head and the SGD training loop.

The head is a two-hidden-layer MLP with tanh activations and a 2-way softmax
output; class 1 is REAL, class 0 is FAKE. Training shuffles the train split
each epoch with a seeded generator, runs minibatch SGD on the fused softmax
cross-entropy, validates after every epoch, halves the learning rate whenever
validation accuracy fails to improve, and keeps the checkpoint of the best
epoch (ties resolve to the earliest). A non-finite value in an epoch's steps or
validation raises DivergedTraining, naming the epoch. A frozen table is in
each step's ``Tape(frozen)``: its gather is not taped, so it takes no gradient.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt
from . import numcore as nc
from .corpus import Sentence
from .encoder import SentenceEncoder
from .errors import (
    DivergedTraining,
    EmptyDataset,
    NonFiniteValue,
    ShapeMismatch,
    SingleClassData,
)
from .fakegen import REAL, LabeledExample


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 15
    learning_rate: float = 0.1
    lr_decay_factor: float = 0.5
    seed: int = 0
    freeze_embeddings: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.lr_decay_factor <= 1:
            raise ValueError("lr_decay_factor must be in (0, 1]")


class MlpHead:
    """hidden1 -> tanh -> hidden2 -> tanh -> 2-way softmax logits.

    ``layers`` holds the three (w, b) pairs: w is (in, out), b is (out,).
    """

    def __init__(self, layers: Sequence[tuple[nc.Parameter, nc.Parameter]]):
        self.layers = list(layers)

    @classmethod
    def create(cls, in_dim: int, hidden1: int, hidden2: int, rng: np.random.Generator, dtype):
        if hidden1 < 1 or hidden2 < 1:
            raise ValueError("hidden widths must be >= 1")
        widths = (in_dim, hidden1, hidden2, 2)
        layers = []
        for k, (n_in, n_out) in enumerate(zip(widths, widths[1:]), 1):
            bound = math.sqrt(6.0 / (n_in + n_out))  # Glorot uniform
            w = nc.Parameter(f"head.w{k}", rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype))
            layers.append((w, nc.Parameter(f"head.b{k}", np.zeros(n_out, dtype=dtype))))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].value.shape[0]

    @property
    def hidden_widths(self) -> tuple[int, int]:
        return tuple(w.value.shape[1] for w, _ in self.layers[:2])

    def parameters(self) -> list[nc.Parameter]:
        return [p for layer in self.layers for p in layer]

    def forward(self, tape: nc.Tape | None, z: nc.Tensor) -> nc.Tensor:
        for k, (w, b) in enumerate(self.layers):
            z = nc.add(tape, nc.matmul(tape, z, w), b)
            if k < len(self.layers) - 1:
                z = nc.tanh(tape, z)
        return z


class DetectorModel:
    """Encoder plus classification head; the trainable unit."""

    def __init__(self, encoder: SentenceEncoder, head: MlpHead):
        if head.in_dim != encoder.out_dim:
            raise ShapeMismatch(
                f"head expects {head.in_dim} features, encoder produces {encoder.out_dim}"
            )
        self.encoder = encoder
        self.head = head

    @classmethod
    def create(cls, encoder: SentenceEncoder, hidden1: int, hidden2: int, rng) -> "DetectorModel":
        head = MlpHead.create(encoder.out_dim, hidden1, hidden2, rng, encoder.dtype)
        return cls(encoder, head)

    def all_parameters(self) -> list[nc.Parameter]:
        return self.encoder.parameters() + self.head.parameters()

    def batch_loss(
        self, tape: nc.Tape | None, idx: np.ndarray, lengths: np.ndarray, labels: np.ndarray
    ) -> tuple[nc.Tensor, np.ndarray]:
        z, _ = self.encoder.forward_batch(tape, idx, lengths)
        logits = self.head.forward(tape, z)
        return nc.softmax_cross_entropy(tape, logits, labels)

    def predict_proba(self, sentences: Sequence[Sentence]) -> np.ndarray:
        """p(REAL) per sentence: the head over the ``encode_batch`` encodings.

        The head's products are row-tiled, so a row's value does not depend
        on the rows that come with it."""
        logits = self.head.forward(None, nc.Tensor(self.encoder.encode_batch(sentences)))
        return nc.log_softmax(logits.data)[1][:, REAL].astype(np.float64)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    valid_accuracy: float
    learning_rate: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_valid_accuracy: float = 0.0


def train(
    model: DetectorModel,
    train_data: Sequence[LabeledExample],
    valid_data: Sequence[LabeledExample],
    cfg: TrainConfig,
    checkpoint_path,
    metrics_path=None,
) -> TrainReport:
    """Minibatch SGD over the labeled dataset, saving the best epoch's model
    to ``checkpoint_path``; returns the per-epoch report.

    Fully reproducible: the same (data, config, seed, initial model) gives
    a bit-identical checkpoint and metrics file.
    """
    if len(train_data) == 0 or len(valid_data) == 0:
        raise EmptyDataset("both train and valid splits must be non-empty")
    train_labels = np.array([ex.label for ex in train_data], dtype=np.int64)
    if len(set(train_labels.tolist())) < 2:
        raise SingleClassData("train split contains a single class")
    frozen = (model.encoder.embedding,) if cfg.freeze_embeddings else ()
    params = [p for p in model.all_parameters() if p not in frozen]
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    report = TrainReport()
    with (open(metrics_path, "w", encoding="utf-8") if metrics_path
          else contextlib.nullcontext()) as metrics_file:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(train_data))
            loss_sum = 0.0
            correct = 0
            try:
                for start in range(0, len(order), cfg.batch_size):
                    batch_ids = order[start : start + cfg.batch_size]
                    idx, lengths = model.encoder.prepare_batch([train_data[i].sentence for i in batch_ids])
                    labels = train_labels[batch_ids]
                    tape = nc.Tape(frozen)
                    loss, probs = model.batch_loss(tape, idx, lengths, labels)
                    nc.backward(tape, loss)
                    nc.sgd_step(params, lr)
                    loss_sum += loss.data.item() * len(batch_ids)
                    correct += int(((probs[:, REAL] >= 0.5).astype(np.int64) == labels).sum())
                valid_acc = evaluate(model, valid_data).accuracy
            except NonFiniteValue as e:
                raise DivergedTraining(f"epoch {epoch}: {e}") from e
            stats = EpochStats(
                epoch=epoch,
                train_loss=loss_sum / len(train_data),
                train_accuracy=correct / len(train_data),
                valid_accuracy=valid_acc,
                learning_rate=lr,
            )
            report.epochs.append(stats)
            if metrics_file:
                metrics_file.write(stats.to_json() + "\n")
            if valid_acc > report.best_valid_accuracy or report.best_epoch == 0:
                report.best_epoch = epoch
                report.best_valid_accuracy = valid_acc
                ckpt.save_model(checkpoint_path, model)
            else:
                lr *= cfg.lr_decay_factor
    return report


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    support: int


@dataclass
class EvalMetrics:
    accuracy: float
    per_class: dict[str, ClassMetrics]
    count: int


def evaluate(model: DetectorModel, data: Sequence[LabeledExample]) -> EvalMetrics:
    """Accuracy and per-class precision/recall in one pass; REAL where ``predict_proba`` >= 0.5."""
    if len(data) == 0:
        raise EmptyDataset("no examples to evaluate")
    labels = np.array([ex.label for ex in data], dtype=np.int64)
    preds = (model.predict_proba([ex.sentence for ex in data]) >= 0.5).astype(np.int64)
    per_class = {}
    for cls, name in ((1, "real"), (0, "fake")):
        tp = int(((preds == cls) & (labels == cls)).sum())
        fp = int(((preds == cls) & (labels != cls)).sum())
        fn = int(((preds != cls) & (labels == cls)).sum())
        per_class[name] = ClassMetrics(
            precision=tp / (tp + fp) if tp + fp else 0.0,
            recall=tp / (tp + fn) if tp + fn else 0.0,
            support=int((labels == cls).sum()),
        )
    return EvalMetrics(accuracy=float((preds == labels).mean()), per_class=per_class, count=len(data))
