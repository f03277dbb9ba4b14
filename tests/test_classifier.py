import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fakesent import checkpoint as ckpt
from fakesent import classifier as cl
from fakesent import numcore as nc
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder
from fakesent.errors import (
    CheckpointFormatError,
    DivergedTraining,
    EmptyDataset,
    FakesentError,
    ShapeMismatch,
    SingleClassData,
)
from fakesent.fakegen import FAKE, REAL, LabeledExample


def build_model(tokens, dim=6, hidden=6, h1=8, h2=4, seed=0, dtype=np.float32):
    vocab = build_vocab([Sentence(tuple(tokens), "v")])
    rng = np.random.default_rng(seed)
    table = init_embeddings(vocab, dim, rng, dtype=dtype)
    encoder = SentenceEncoder.create(vocab, table, hidden, rng)
    return cl.DetectorModel.create(encoder, h1, h2, rng)


def labeled(tokens, label, id):
    s = Sentence(tuple(tokens), id)
    return LabeledExample(s, label, None, id) if label == REAL else _fake(s, id)


def _fake(s, id):
    from fakesent.fakegen import CorruptionRecord

    return LabeledExample(s, FAKE, CorruptionRecord("drop", 0), id)


def separable_dataset(n, rng):
    """REAL sentences use one half of the alphabet, FAKE the other."""
    real_tokens = [f"r{i}" for i in range(8)]
    fake_tokens = [f"f{i}" for i in range(8)]
    data = []
    for k in range(n):
        length = int(rng.integers(2, 6))
        if k % 2 == 0:
            toks = [real_tokens[int(i)] for i in rng.integers(0, 8, length)]
            data.append(labeled(toks, REAL, f"r{k}"))
        else:
            toks = [fake_tokens[int(i)] for i in rng.integers(0, 8, length)]
            data.append(labeled(toks, FAKE, f"f{k}"))
    return data


def p_real(head, z):
    """p(REAL) for one encoding, through the head and the softmax."""
    return float(nc.log_softmax(head.forward(None, nc.Tensor(np.asarray(z)[None, :])).data)[1][0, REAL])


def test_zero_head_predicts_exactly_half():
    head = cl.MlpHead.create(4, 5, 3, np.random.default_rng(0), np.float64)
    for p in head.parameters():
        p.value[...] = 0.0
    assert p_real(head, np.array([0.3, -1.0, 2.0, 0.0])) == 0.5


def test_classify_matches_closed_form_on_1_1_1_head():
    head = cl.MlpHead.create(1, 1, 1, np.random.default_rng(0), np.float64)
    (w1, b1), (w2, b2), (w3, b3) = head.layers
    w1.value[:] = [[0.7]]
    b1.value[:] = [0.2]
    w2.value[:] = [[-1.1]]
    b2.value[:] = [0.05]
    w3.value[:] = [[0.9, -0.4]]
    b3.value[:] = [0.1, -0.3]
    z = 0.5
    h1 = math.tanh(0.7 * z + 0.2)
    h2 = math.tanh(-1.1 * h1 + 0.05)
    logit_fake = 0.9 * h2 + 0.1
    logit_real = -0.4 * h2 - 0.3
    expect = math.exp(logit_real) / (math.exp(logit_real) + math.exp(logit_fake))
    assert abs(p_real(head, np.array([z])) - expect) < 1e-12


def test_class_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    head = cl.MlpHead.create(6, 8, 4, rng, np.float64)
    for _ in range(50):
        z = rng.standard_normal(6)
        logits = head.forward(None, nc.Tensor(z[None, :]))
        probs = nc.log_softmax(logits.data)[1][0]
        assert abs(probs.sum() - 1.0) < 1e-9


def test_classify_shape_mismatch():
    head = cl.MlpHead.create(4, 2, 2, np.random.default_rng(0), np.float64)
    with pytest.raises(ShapeMismatch):
        p_real(head, np.zeros(3))


def test_train_config_validation():
    with pytest.raises(ValueError):
        cl.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        cl.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        cl.TrainConfig(learning_rate=0.0)
    for not_finite in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cl.TrainConfig(learning_rate=not_finite)


def test_first_batch_loss_near_ln2():
    rng = np.random.default_rng(3)
    data = separable_dataset(64, rng)
    model = build_model([ex.sentence.tokens[0] for ex in data], seed=5)
    idx, lengths = model.encoder.prepare_batch([ex.sentence for ex in data])
    labels = np.array([ex.label for ex in data])
    loss, _ = model.batch_loss(None, idx, lengths, labels)
    assert abs(loss.data.item() - math.log(2)) < 0.1


def test_train_learns_separable_task(tmp_path):
    rng = np.random.default_rng(7)
    data = separable_dataset(240, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=2)
    cfg = cl.TrainConfig(batch_size=32, epochs=6, learning_rate=0.5, seed=11)
    report = cl.train(model, data[:200], data[200:], cfg, tmp_path / "m.ckpt")
    assert len(report.epochs) == 6
    assert report.best_valid_accuracy > 0.9
    assert (tmp_path / "m.ckpt").exists()
    ev = cl.evaluate(model, data[200:])
    assert ev.accuracy > 0.9


def test_train_rejects_single_class(tmp_path):
    rng = np.random.default_rng(9)
    data = [ex for ex in separable_dataset(40, rng) if ex.label == REAL]
    model = build_model(["r0"], seed=1)
    with pytest.raises(SingleClassData):
        cl.train(model, data, data, cl.TrainConfig(epochs=1), tmp_path / "m.ckpt")


def test_train_rejects_empty_split(tmp_path):
    model = build_model(["a"], seed=1)
    with pytest.raises(EmptyDataset):
        cl.train(model, [], [], cl.TrainConfig(epochs=1), tmp_path / "m.ckpt")


def test_train_diverges_with_absurd_learning_rate(tmp_path):
    rng = np.random.default_rng(13)
    data = separable_dataset(64, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=3, dtype=np.float32)
    cfg = cl.TrainConfig(batch_size=16, epochs=20, learning_rate=1e36, seed=1)
    with pytest.raises(DivergedTraining):
        cl.train(model, data, data, cfg, tmp_path / "m.ckpt")


def test_divergence_first_found_by_validation_names_its_epoch(tmp_path):
    # one batch per epoch: the step runs on the initial weights and succeeds,
    # then validation meets the overflow that the 1e22 update left behind
    data = separable_dataset(40, np.random.default_rng(13))
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=3, dtype=np.float32)
    cfg = cl.TrainConfig(batch_size=64, epochs=1, learning_rate=1e22, seed=1)
    with pytest.raises(DivergedTraining) as exc:
        cl.train(model, data, data, cfg, tmp_path / "m.ckpt")
    assert str(exc.value).startswith("epoch 1: ")


def test_train_is_reproducible(tmp_path):
    rng = np.random.default_rng(17)
    data = separable_dataset(120, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]

    def run(tag):
        model = build_model(vocab_tokens, seed=21)
        cfg = cl.TrainConfig(batch_size=32, epochs=3, learning_rate=0.2, seed=5)
        report = cl.train(
            model, data[:100], data[100:], cfg,
            tmp_path / f"{tag}.ckpt", metrics_path=tmp_path / f"{tag}.jsonl",
        )
        return report, (tmp_path / f"{tag}.ckpt").read_bytes(), (tmp_path / f"{tag}.jsonl").read_bytes()

    r1, c1, m1 = run("a")
    r2, c2, m2 = run("b")
    assert r1.epochs == r2.epochs
    assert c1 == c2
    assert m1 == m2


def test_frozen_embedding_gradient_does_not_carry_into_a_later_run(tmp_path):
    rng = np.random.default_rng(19)
    data = separable_dataset(64, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=22)
    embedding = model.encoder.embedding.value.copy()
    frozen = cl.TrainConfig(batch_size=16, epochs=1, learning_rate=0.2, seed=3, freeze_embeddings=True)
    cl.train(model, data[:48], data[48:], frozen, tmp_path / "frozen.ckpt")
    assert np.array_equal(model.encoder.embedding.value, embedding)
    assert all(p.grad is None for p in model.all_parameters())
    # the same weights in a model that never trained, then one unfrozen run each
    twin = build_model(vocab_tokens, seed=22)
    for p, q in zip(model.all_parameters(), twin.all_parameters()):
        np.copyto(q.value, p.value)
    cfg = cl.TrainConfig(batch_size=16, epochs=1, learning_rate=0.2, seed=4)
    for m in (model, twin):
        cl.train(m, data[:48], data[48:], cfg, tmp_path / "unfrozen.ckpt")
    for p, q in zip(model.all_parameters(), twin.all_parameters()):
        assert np.array_equal(p.value, q.value), p.name


def test_lr_decays_on_plateau(tmp_path):
    rng = np.random.default_rng(23)
    data = separable_dataset(60, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=4)
    # tiny lr: accuracy will plateau immediately, so decay must kick in
    cfg = cl.TrainConfig(batch_size=64, epochs=4, learning_rate=1e-6,
                         lr_decay_factor=0.5, seed=2)
    report = cl.train(model, data[:40], data[40:], cfg, tmp_path / "m.ckpt")
    lrs = [e.learning_rate for e in report.epochs]
    assert lrs[0] == 1e-6
    assert any(l < 1e-6 for l in lrs[1:])
    assert report.best_epoch == min(
        e.epoch for e in report.epochs if e.valid_accuracy == report.best_valid_accuracy
    )


def test_train_validates_with_evaluate(tmp_path):
    rng = np.random.default_rng(31)
    data = separable_dataset(60, rng)
    vocab_tokens = [f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)]
    model = build_model(vocab_tokens, seed=8)
    valid = data[40:]
    cfg = cl.TrainConfig(batch_size=16, epochs=1, learning_rate=1e-3, seed=6)
    report = cl.train(model, data[:40], valid, cfg, tmp_path / "m.ckpt")
    accuracy = cl.evaluate(model, valid).accuracy
    assert 0.0 < accuracy < 1.0
    assert report.epochs[0].valid_accuracy == accuracy == report.best_valid_accuracy


def test_evaluate_all_correct_and_constant_predictor():
    rng = np.random.default_rng(29)
    data = separable_dataset(80, rng)
    model = build_model([f"r{i}" for i in range(8)] + [f"f{i}" for i in range(8)], seed=6)

    class Stub:
        def __init__(self, preds):
            self.preds = np.asarray(preds)

        def predict(self, sentences, batch_size=64):
            return self.preds[: len(sentences)]

    labels = np.array([ex.label for ex in data])
    perfect = cl.evaluate.__wrapped__ if hasattr(cl.evaluate, "__wrapped__") else None
    # exact-match predictor
    stub = Stub(labels)
    metrics = cl.evaluate(stub, data)
    assert metrics.accuracy == 1.0
    assert metrics.per_class["real"].precision == 1.0
    assert metrics.per_class["real"].recall == 1.0
    # constant-REAL predictor on balanced data
    stub = Stub(np.ones(len(data), dtype=np.int64))
    metrics = cl.evaluate(stub, data)
    assert metrics.accuracy == 0.5
    assert metrics.per_class["real"].recall == 1.0
    assert metrics.per_class["fake"].recall == 0.0


def test_evaluate_matches_confusion_recount():
    rng = np.random.default_rng(31)
    data = separable_dataset(1000, rng)
    labels = np.array([ex.label for ex in data])
    preds = rng.integers(0, 2, size=1000)

    class Stub:
        def predict(self, sentences, batch_size=64):
            return preds

    metrics = cl.evaluate(Stub(), data)
    # independent recount
    tp = fp = fn = tn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    assert metrics.accuracy == (tp + tn) / 1000
    assert metrics.per_class["real"].precision == tp / (tp + fp)
    assert metrics.per_class["real"].recall == tp / (tp + fn)
    assert metrics.per_class["fake"].precision == tn / (tn + fn)
    assert metrics.per_class["fake"].recall == tn / (tn + fp)


def test_evaluate_empty_raises():
    model = build_model(["a"])
    with pytest.raises(EmptyDataset):
        cl.evaluate(model, [])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = build_model(["a", "b", "héllo"], dim=5, hidden=3, seed=8)
    p = tmp_path / "m.ckpt"
    ckpt.save_model(p, model)
    loaded = ckpt.load_model(p)
    for orig, back in zip(model.all_parameters(), loaded.all_parameters()):
        assert orig.name == back.name
        assert orig.value.dtype == back.value.dtype
        assert np.array_equal(orig.value, back.value)
    assert loaded.encoder.vocab.tokens == model.encoder.vocab.tokens
    sents = [Sentence(("a", "b"), "0"), Sentence(("héllo",), "1"), Sentence(("zz",), "2")]
    assert np.array_equal(model.encoder.encode_batch(sents), loaded.encoder.encode_batch(sents))
    assert np.array_equal(model.predict_proba(sents), loaded.predict_proba(sents))
    # save the loaded model again: identical bytes
    p2 = tmp_path / "m2.ckpt"
    ckpt.save_model(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTAMODEL")
    with pytest.raises(CheckpointFormatError):
        ckpt.load_model(p)


def test_checkpoint_float64_roundtrip(tmp_path):
    model = build_model(["a", "b"], dtype=np.float64, seed=9)
    p = tmp_path / "m.ckpt"
    ckpt.save_model(p, model)
    loaded = ckpt.load_model(p)
    assert loaded.encoder.dtype == np.float64
    assert np.array_equal(loaded.encoder.embedding.value, model.encoder.embedding.value)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    ckpt.save_model(path, build_model(["a", "bé", "c"], dim=2, hidden=2, h1=3, h2=2, seed=3))
    return path.read_bytes()


def with_header(raw, header):
    """The checkpoint ``raw`` with its JSON header replaced by ``header`` bytes."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen :]


def header_of(raw):
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + hlen])


def with_param_count(raw, count):
    """The checkpoint ``raw`` with its parameter count (just before the
    embedding's block) set to ``count``."""
    at = raw.index(b"\x09\x00embedding") - 4
    return raw[:at] + struct.pack("<I", count) + raw[at + 4 :]


def with_f8_param(raw, name, shape):
    """The float32 checkpoint ``raw`` with parameter ``name`` of ``shape`` stored as float64."""
    start = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name) + 1 + 4 * len(shape)
    n = math.prod(shape)
    assert raw[start : start + 2] == b"f4"
    values = np.frombuffer(raw[start + 2 : start + 2 + 4 * n], dtype="<f4").astype("<f8")
    return raw[:start] + b"f8" + values.tobytes() + raw[start + 2 + 4 * n :]


def swap_names(raw, a, b):
    """The checkpoint ``raw`` with the equal-length parameter names ``a`` and ``b`` swapped."""
    tmp = b"?" * len(a)
    assert tmp not in raw
    return raw.replace(a, tmp).replace(b, a).replace(tmp, b)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: with_header(raw, b'{"d": 2, "\xff": 1}'),
        lambda raw: raw.replace("bé".encode(), b"b\xff\xa9"),
        lambda raw: with_header(raw, b"[1, 2]"),
        lambda raw: with_header(raw, json.dumps({**header_of(raw), "mlp": [3]}).encode()),
        lambda raw: with_header(raw, json.dumps({k: v for k, v in header_of(raw).items() if k != "H"}).encode()),
        lambda raw: with_header(raw, json.dumps({**header_of(raw), "d": 2.0}).encode()),
        lambda raw: raw[:8] + struct.pack("<I", 0xFFFFFFFF) + raw[12:],
        # the embedding's first dimension, right after its name and ndim byte
        lambda raw: raw.replace(b"embedding\x02" + struct.pack("<I", 5), b"embedding\x02" + struct.pack("<I", 2**32 - 1)),
        # zero bytes pass the overrun check, but the other dimensions' product overflows int64
        lambda raw: raw.replace(b"embedding\x02" + struct.pack("<II", 5, 2),
                                b"embedding\x03" + struct.pack("<III", 2**32 - 1, 2**32 - 1, 0)),
        lambda raw: raw.replace(b"\x01\x00c", b"\x01\x00a", 1),
        # head.b3 is the last block
        lambda raw: with_param_count(raw, 12)[: raw.rindex(b"\x07\x00head.b3")],
        lambda raw: with_param_count(raw, 14) + b"\x05\x00extra\x01" + struct.pack("<I", 1) + b"f4" + bytes(4),
        lambda raw: swap_names(raw, b"head.w1", b"head.w2"),
        lambda raw: with_header(raw, json.dumps({**header_of(raw), "V": 6}).encode()),
        lambda raw: with_header(raw, json.dumps({**header_of(raw), "precision": "float16"}).encode()),
        lambda raw: with_f8_param(raw, b"fwd.u", (8, 2)),
        lambda raw: with_param_count(raw, 14) + raw[raw.rindex(b"\x07\x00head.b3") :],
        lambda raw: raw + b"\x00",
    ],
    ids=["header-not-utf8", "token-not-utf8", "header-not-object", "header-mlp-short",
         "header-no-H", "header-float-d", "header-overruns", "param-overruns", "param-empty-overflows",
         "repeated-token", "param-missing", "param-unexpected", "param-misshapen", "header-V-not-vocab",
         "header-precision-float16", "param-not-header-precision", "param-repeated",
         "bytes-after-params"],
)
def test_checkpoint_corruption_is_a_format_error(small_checkpoint, tmp_path, corrupt):
    raw = corrupt(small_checkpoint)
    assert raw != small_checkpoint
    p = tmp_path / "bad.ckpt"
    p.write_bytes(raw)
    with pytest.raises(CheckpointFormatError):
        ckpt.load_model(p)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    first = build_model(["a", "b"], seed=1)
    ckpt.save_model(path, first)
    written = []
    write_param = ckpt._write_param

    def failing_write_param(f, p):
        written.append(p.name)
        if len(written) == 3:
            raise OSError("no space left on device")
        write_param(f, p)

    monkeypatch.setattr(ckpt, "_write_param", failing_write_param)
    with pytest.raises(OSError, match="no space left"):
        ckpt.save_model(path, build_model(["a", "b"], seed=2))
    assert os.listdir(tmp_path) == ["m.ckpt"]  # no partial file left behind
    reloaded = ckpt.load_model(path)
    for p, q in zip(first.all_parameters(), reloaded.all_parameters(), strict=True):
        assert p.name == q.name and p.value.tobytes() == q.value.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_package_errors(small_checkpoint, tmp_path, data):
    raw = bytearray(small_checkpoint)
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
    for pos, mask in data.draw(st.lists(flips, max_size=3), label="flips"):
        raw[pos] ^= mask
    start = data.draw(st.integers(0, len(raw)), label="delete from")
    del raw[start : start + data.draw(st.integers(0, 8), label="delete count")]
    p = tmp_path / "bad.ckpt"
    p.write_bytes(bytes(raw))
    try:
        ckpt.load_model(p)
    except FakesentError:
        pass
