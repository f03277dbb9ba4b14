"""fakesent: sentence encoders trained by fake-sentence detection."""

__version__ = "0.1.0"

from .corpus import (
    Sentence,
    Vocabulary,
    build_vocab,
    init_embeddings,
    load_embeddings,
    tokenize,
)
from .fakegen import (
    FAKE,
    REAL,
    CorruptionRecord,
    LabeledExample,
    build_dataset,
    word_drop,
    word_shuffle,
)
from .classifier import DetectorModel, MlpHead, TrainConfig, evaluate, train
from .encoder import SentenceEncoder
from .probe import ProbeConfig, ProbeDataset, run_probes, train_probe

__all__ = [
    "__version__",
    "Sentence",
    "Vocabulary",
    "build_vocab",
    "init_embeddings",
    "load_embeddings",
    "tokenize",
    "FAKE",
    "REAL",
    "CorruptionRecord",
    "LabeledExample",
    "build_dataset",
    "word_drop",
    "word_shuffle",
    "DetectorModel",
    "MlpHead",
    "TrainConfig",
    "evaluate",
    "train",
    "SentenceEncoder",
    "ProbeConfig",
    "ProbeDataset",
    "run_probes",
    "train_probe",
]
