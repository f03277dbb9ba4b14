"""The benchmark's tracer and checkpoint reader still work against the package.

``perfbench/tracing.py`` looks up, by name, every numcore op it times and
every function and method it wraps; a name the package drops makes every
traced benchmark run fail at install, and a call that stops going through
the module attribute the tracer patches leaves its layer's metrics at 0.
``perfbench/checks.py`` parses checkpoints and encodes with its own float64
BiLSTM-max; a renamed, reordered or relaid parameter makes every
``encode-paper`` run fail its check. These tests show both in the suite.
"""

import importlib.util
import json
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from fakesent import cli, probe
from fakesent import numcore as nc
from fakesent.checkpoint import save_model
from fakesent.classifier import DetectorModel
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_a_training_step_and_uninstalls():
    tracing = load_perfbench("tracing")
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


def test_tracer_records_the_probe_and_gen_fakes_layers(tmp_path):
    tracing = load_perfbench("tracing")
    sentences = [Sentence(tuple(f"w{k % 7}" for k in range(n)), str(n)) for n in range(1, 61)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(" ".join(s.tokens) + "\n" for s in sentences))
    rng = np.random.default_rng(2)
    vocab = build_vocab(sentences)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 3, rng)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        probe.run_probes(encoder, sentences, tasks=("sentlen",),
                         cfg=probe.ProbeConfig(l2_grid=(1e-2,), max_iterations=5))
        assert cli.main(["gen-fakes", "--strategy", "shuffle", "--seed", "1",
                         "--in", str(corpus), "--out", str(tmp_path / "data.jsonl")]) == 0
    finally:
        tracer.uninstall()

    recorded = {tracer.names[i] for i in tracer.spans()["name"]}
    assert {"probe.gen", "probe.fit_logistic", "fakegen.build_dataset", "fakegen.write_dataset",
            "corpus.load_corpus"} <= recorded


def test_a_traced_run_on_two_threads_records_the_spans_of_a_sequential_one(monkeypatch):
    # the tracer's span stack is not thread-safe: the worker thread must call
    # nothing it wraps, so every span opens on the calling thread
    tracing = load_perfbench("tracing")
    rng = np.random.default_rng(3)
    sentences = [Sentence(tuple(f"w{(k * n) % 9}" for k in range(n)), str(n)) for n in range(1, 80)]
    vocab = build_vocab(sentences)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 3, rng)
    model = DetectorModel.create(encoder, 4, 2, rng)
    idx, lengths = encoder.prepare_batch(sentences[:8])
    forward, lstm_threads = nc._lstm_forward, set()
    monkeypatch.setattr(nc, "_lstm_forward", lambda *a: lstm_threads.add(threading.get_ident()) or forward(*a))
    runs = []
    for parallel_hidden in (encoder.hidden + 1, encoder.hidden):  # sequential, then threaded
        monkeypatch.setattr(nc, "_PARALLEL_HIDDEN", parallel_hidden)
        tracer, threads = tracing.Tracer(), set()
        wrap = tracer.wrap

        def on_thread(name, fn, after=None, wrap=wrap, threads=threads):
            traced = wrap(name, fn, after)

            def call(*args, **kwargs):
                threads.add(threading.get_ident())
                return traced(*args, **kwargs)

            return call

        tracer.wrap = on_thread
        tracer.install()
        try:
            tracer.set_phase("main")
            encoder.encode_batch(sentences)
            tape = nc.Tape()
            loss, _ = model.batch_loss(tape, idx, lengths, np.arange(8) % 2)
            nc.backward(tape, loss)
        finally:
            tracer.uninstall()
        s = tracer.spans()
        parents = [tracer.names[s["name"][p]] if p >= 0 else None for p in s["parent"]]
        runs.append((Counter(zip((tracer.names[i] for i in s["name"]), parents)), threads))
    (sequential, sequential_threads), (threaded, threaded_threads) = runs
    assert threaded == sequential and sequential[("numcore.backward", None)] == 1
    assert threaded_threads == sequential_threads == {threading.get_ident()}
    assert len(lstm_threads) == 2  # the threaded run did use the worker


def test_benchmark_checkpoint_reader_matches_the_model(tmp_path):
    checks = load_perfbench("checks")
    rng = np.random.default_rng(1)
    sentences = [Sentence(tuple(f"w{(k * n) % 7}" for k in range(n)), str(n)) for n in (1, 4, 9)]
    vocab = build_vocab(sentences)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 5, rng), 3, rng)
    model = DetectorModel.create(encoder, 4, 2, rng)
    path = tmp_path / "m.ckpt"
    save_model(path, model)

    header, tokens, params = checks.read_checkpoint(path)
    assert (header["d"], header["H"], header["V"]) == (5, 3, len(vocab))
    assert tokens == list(vocab.tokens)
    # the saved order is the checkpoint format's, documented in fakesent.checkpoint
    lstm = [f"{k}.{p}" for k in ("fwd", "bwd") for p in "wub"]
    assert list(params) == ["embedding", *lstm, *(f"head.{p}{k}" for k in (1, 2, 3) for p in "wb")]
    for s in sentences + [Sentence(("unseen", "w1"), "u")]:
        checks.check_close(encoder.encode(s), checks.reference_encoding(params, tokens, s.tokens), s.id)
