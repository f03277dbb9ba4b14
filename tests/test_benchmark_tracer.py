"""The benchmark's tracer still installs against the package.

``perfbench/tracing.py`` looks up, by name, every numcore op it times and
every function and method it wraps; a name the package drops makes every
traced benchmark run fail at install. This test shows it in the suite.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from fakesent import numcore as nc
from fakesent.classifier import DetectorModel
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_a_training_step_and_uninstalls():
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    sentences = [Sentence(tuple(f"w{k}" for k in range(n)), str(n)) for n in (2, 5, 3)]
    vocab = build_vocab(sentences)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 3, rng)
    model = DetectorModel.create(encoder, 4, 2, rng)
    idx, lengths = encoder.prepare_batch(sentences)
    ops = {op: getattr(nc, op) for op in tracing.OPS}
    record, forward = nc.Tape.record, SentenceEncoder.forward_batch

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(nc, op) is not fn for op, fn in ops.items())
        tracer.set_phase("main")
        tape = nc.Tape()
        loss, _ = model.batch_loss(tape, idx, lengths, np.array([0, 1, 1]))
        nc.backward(tape, loss)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()

    assert all(getattr(nc, op) is fn for op, fn in ops.items())
    assert nc.Tape.record is record and SentenceEncoder.forward_batch is forward
    assert metrics["numcore.tape_records_per_step"] == 12
    assert metrics["numcore.rows.calls"] == 1 and metrics["numcore.max_over_time.calls"] == 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
