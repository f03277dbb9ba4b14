import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fakesent import numcore as nc
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.classifier import DetectorModel
from fakesent.encoder import SentenceEncoder, init_direction
from fakesent.errors import EmptyDataset
from synthetic import constant
from unfused_lstm import assert_grads_close, bilstm_unfused, lstm_cell


def make_vocab(n_tokens):
    sentences = [Sentence(tuple(f"w{i:03d}" for i in range(n_tokens)), "0")]
    return build_vocab(sentences)


def make_encoder(n_tokens=20, dim=4, hidden=4, seed=0, dtype=np.float64):
    vocab = make_vocab(n_tokens)
    rng = np.random.default_rng(seed)
    table = init_embeddings(vocab, dim, rng, dtype=dtype)
    return SentenceEncoder.create(vocab, table, hidden, rng)


def rand_sentence(rng, vocab, n):
    toks = tuple(vocab.tokens[int(i)] for i in rng.integers(2, len(vocab), size=n))
    return Sentence(toks, f"s{rng.integers(1 << 30)}")


def zero_direction(dim, hidden, dtype=np.float64):
    """A direction's (w, u, b) Parameters, all zero."""
    d = init_direction("z", dim, hidden, np.random.default_rng(0), dtype)
    for p in d:
        p.value[...] = 0.0
    return d


def scalar_lstm_oracle(xs, w, u, b):
    """Pure-python scalar LSTM, gate order (i, f, o, g)."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = c = 0.0
    out = []
    for x in xs:
        pre = [w[k] * x + u[k] * h + b[k] for k in range(4)]
        i, f, o = sig(pre[0]), sig(pre[1]), sig(pre[2])
        g = math.tanh(pre[3])
        c = f * c + i * g
        h = o * math.tanh(c)
        out.append((h, c))
    return out


def direction_states(d, xs):
    """bilstm over one sequence of inputs xs (T, dim) with d's (w, u, b) in
    both directions: the (T, H) forward states and the backward ones in
    reading order (last token first)."""
    x = constant(np.asarray(xs, dtype=np.float64).reshape(1, len(xs), -1))
    weights = tuple(constant(p.value) for p in d)
    out = nc.bilstm(None, x, np.array([len(xs)]), weights, weights).data[0]
    hidden = out.shape[1] // 2
    return out[:, :hidden], out[::-1, hidden:]


def test_lstm_step_all_zero_parameters():
    # i = f = o = 0.5 and g = 0, so c stays 0 from the zero state and h is exactly zero
    d = zero_direction(dim=3, hidden=2)
    xs = np.array([[0.4, -1.0, 2.0], [1.0, 0.0, -3.0]])
    for states in direction_states(d, xs):
        assert np.array_equal(states, np.zeros((2, 2)))
    # a candidate bias b_g gives g = tanh(b_g): c_t = 0.5 c_prev + 0.5 g and h_t = 0.5 tanh(c_t)
    d[2].value[6:] = [0.8, -0.6]  # b
    g = np.tanh(np.array([0.8, -0.6]))
    for states in direction_states(d, xs):
        c = np.zeros(2)
        for h in states:
            c = 0.5 * c + 0.5 * g
            np.testing.assert_allclose(h, 0.5 * np.tanh(c), atol=1e-15)


def test_lstm_step_scalar_input_gate_only_layout():
    # H = d = 1, input weights [1, 0, 0, 0]: only the input gate sees x
    d = zero_direction(dim=1, hidden=1)
    d[0].value[0, 0] = 1.0  # w
    xs = [0.0, 1.5, -2.0]
    fwd, bwd = direction_states(d, xs)
    for states, seq in ((fwd, xs), (bwd, xs[::-1])):
        for h, (eh, _) in zip(states, scalar_lstm_oracle(seq, [1, 0, 0, 0], [0] * 4, [0] * 4)):
            np.testing.assert_allclose(h[0], eh, atol=1e-14)


def test_lstm_step_scalar_sequence_matches_hand_oracle():
    w, u, b = [1.0, -0.5, 0.3, 0.8], [0.2, 0.4, -0.3, 0.6], [0.1, 1.0, -0.2, 0.05]
    d = zero_direction(dim=1, hidden=1)
    d[0].value[:, 0] = w
    d[1].value[:, 0] = u
    d[2].value[:] = b
    xs = [0.7, -0.3, 1.2, 0.0, -2.0]
    fwd, bwd = direction_states(d, xs)
    for states, seq in ((fwd, xs), (bwd, xs[::-1])):
        assert states.shape == (5, 1)
        for h, (eh, _) in zip(states, scalar_lstm_oracle(seq, w, u, b)):
            np.testing.assert_allclose(h[0], eh, atol=1e-13)


def test_lstm_step_gradients_match_finite_differences():
    # bilstm alone, on both directions' weights and its input, at T = 1, 2 and 7
    # (the second row is padded at T = 2 and 7)
    rng = np.random.default_rng(6)
    init_rng = np.random.default_rng(5)
    dirs = [init_direction(p, 3, 2, init_rng, np.float64) for p in ("f", "b")]
    for t in (1, 2, 7):
        x = nc.Parameter("x", rng.standard_normal((2, t, 3)))
        lengths = np.array([t, max(1, t - 3)])
        weights = constant(rng.standard_normal((2, t, 4)))
        params = [x] + [p for d in dirs for p in d]

        def loss_fn(tape):
            h = nc.bilstm(tape, x, lengths, dirs[0], dirs[1])
            flat = nc.reshape(tape, nc.mul(tape, h, weights), (1, 8 * t))
            return nc.matmul(tape, flat, constant(np.ones((8 * t, 1))))

        err = nc.grad_check(loss_fn, params, eps=1e-5, samples=40, rng=np.random.default_rng(2))
        assert err < 1e-6, f"T={t}"


def test_encode_single_step_equals_its_state():
    enc = make_encoder()
    s = Sentence(("w003",), "x")
    z, u = enc.encode_with_states(s)
    assert u.shape == (1, 2 * enc.hidden)
    assert np.array_equal(z, u[0])


def test_pooling_dominance_on_stored_states():
    enc = make_encoder(seed=3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rand_sentence(rng, enc.vocab, int(rng.integers(1, 9)))
        z, u = enc.encode_with_states(s)
        assert np.array_equal(z, u.max(axis=0))


def test_batch_of_one_equals_encode():
    enc = make_encoder(seed=8)
    s = rand_sentence(np.random.default_rng(1), enc.vocab, 5)
    assert np.array_equal(enc.encode_batch([s])[0], enc.encode(s))


def test_mixed_length_batch_bit_identical_to_unbatched():
    enc = make_encoder(seed=9, dtype=np.float32)
    rng = np.random.default_rng(2)
    sents = [rand_sentence(rng, enc.vocab, n) for n in (2, 5, 3, 7, 1)]
    batched = enc.encode_batch(sents)
    for i, s in enumerate(sents):
        assert np.array_equal(batched[i], enc.encode(s)), f"sentence {i} differs"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim, hidden", [(24, 40), (600, 16)])
def test_encode_batch_rows_equal_encode_at_every_batch_size(dtype, dim, hidden):
    # (600, 16): an input projection with a long inner dimension and few
    # outputs, the sizes at which OpenBLAS switches kernels with the row count
    enc = make_encoder(n_tokens=60, dim=dim, hidden=hidden, seed=18, dtype=dtype)
    rng = np.random.default_rng(12)
    sents = [rand_sentence(rng, enc.vocab, int(rng.integers(1, 13))) for _ in range(70)]
    alone = np.stack([enc.encode(s) for s in sents])
    assert alone.dtype == dtype
    for size in range(1, 71):
        assert np.array_equal(enc.encode_batch(sents, batch_size=size), alone), f"batch size {size}"


_ENCODE_IN_CHILD = """
import numpy as np
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder

rng = np.random.default_rng(5)
words = [f"w{i:03d}" for i in range(300)]
vocab = build_vocab([Sentence(tuple(words), "v")])
encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 48, rng), 96, rng)
sents = [Sentence(tuple(words[int(k)] for k in rng.integers(0, 300, size=int(n))), str(i))
         for i, n in enumerate(rng.integers(1, 25, size=70))]
batched = encoder.encode_batch(sents, batch_size=64)
alone = np.stack([encoder.encode(s) for s in sents])
print(batched.tobytes().hex())
print(alone.tobytes().hex())
"""


_TRAIN_IN_CHILD = """
import sys
import numpy as np
from fakesent.classifier import DetectorModel, TrainConfig, train
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder
from fakesent.fakegen import build_dataset

rng = np.random.default_rng(9)
words = [f"w{i:03d}" for i in range(300)]
sents = [Sentence(tuple(words[int(k)] for k in rng.integers(0, 300, size=int(n))), str(i))
         for i, n in enumerate(rng.integers(3, 25, size=200))]
data = build_dataset(sents, "shuffle", 1, seed=3)
vocab = build_vocab(ex.sentence for ex in data)
encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 64, rng), 128, rng)
model = DetectorModel.create(encoder, 64, 32, rng)
out = sys.argv[1]
n = int(sys.argv[2])
train(model, data[:n], data[n:], TrainConfig(epochs=1, seed=3), out + "/model.ckpt", out + "/metrics.jsonl")
"""


def run_with_blas_threads(script: str, threads: str, *args: str) -> str:
    """What ``script`` prints in a child process whose BLAS runs ``threads`` threads.

    The thread count is read once, when numpy loads BLAS, so each count needs its own process.
    """
    root = Path(__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    env.update({var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_encodings_bit_identical_across_blas_thread_counts():
    outputs = {threads: run_with_blas_threads(_ENCODE_IN_CHILD, threads).split() for threads in ("1", "2")}
    assert outputs["1"] == outputs["2"], "encodings differ between 1 and 2 BLAS threads"
    batched, alone = (np.frombuffer(bytes.fromhex(h), dtype=np.float32) for h in outputs["1"])
    assert batched.size == 70 * 192
    assert np.array_equal(batched, alone)


@pytest.mark.parametrize("examples", [320, 350])  # 350: a last batch of 30 rows
def test_training_bytes_identical_across_blas_thread_counts(tmp_path, examples):
    written = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        run_with_blas_threads(_TRAIN_IN_CHILD, threads, str(tmp_path / threads), str(examples))
        written[threads] = [(tmp_path / threads / name).read_bytes() for name in ("model.ckpt", "metrics.jsonl")]
    assert written["1"][1].count(b"\n") == 1  # one epoch
    assert written["1"] == written["2"], "checkpoint or metrics differ between 1 and 2 BLAS threads"


def test_encode_batch_rows_follow_input_order():
    # lengths in shuffled order: the chunks run longest first, the rows come back in input order
    enc = make_encoder(seed=19, dtype=np.float32)
    rng = np.random.default_rng(14)
    sents = [rand_sentence(rng, enc.vocab, int(n)) for n in rng.permutation(np.arange(1, 13))]
    assert np.array_equal(enc.encode_batch(sents, 5), np.stack([enc.encode(s) for s in sents]))


def test_chunked_encoding_matches_single_chunk():
    enc = make_encoder(seed=10, dtype=np.float32)
    rng = np.random.default_rng(3)
    sents = [rand_sentence(rng, enc.vocab, int(rng.integers(1, 10))) for _ in range(10)]
    assert np.array_equal(enc.encode_batch(sents, batch_size=3), enc.encode_batch(sents, batch_size=64))


def test_all_unk_sentence_encodes_to_something_nonzero():
    enc = make_encoder(seed=11)
    s = Sentence(("zzz", "qqq"), "u")
    assert all(i == 1 for i in enc.vocab.indices(s.tokens))
    z = enc.encode(s)
    assert np.all(np.isfinite(z))
    assert np.any(z != 0.0)


def test_empty_batch_raises():
    enc = make_encoder()
    with pytest.raises(EmptyDataset):
        enc.encode_batch([])


@pytest.mark.parametrize("batch_size", [0, -1])
def test_encode_batch_rejects_a_batch_size_below_one(batch_size):
    # unchecked, -1 hands back np.empty's unwritten rows and 0 a bare range() error
    enc = make_encoder()
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        enc.encode_batch([Sentence(("w001", "w002"), "a")], batch_size)


@pytest.mark.parametrize("hidden", [0, -1])
def test_create_rejects_a_hidden_width_below_one(hidden):
    vocab = make_vocab(5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="hidden must be >= 1"):
        SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), hidden, rng)


def test_zeroing_backward_direction_leaves_forward_half_unchanged():
    enc = make_encoder(seed=12)
    rng = np.random.default_rng(5)
    sents = [rand_sentence(rng, enc.vocab, 6) for _ in range(5)]
    before = enc.encode_batch(sents)
    for p in enc.bwd:
        p.value[...] = 0.0
    after = enc.encode_batch(sents)
    h = enc.hidden
    assert np.array_equal(before[:, :h], after[:, :h])
    assert np.array_equal(after[:, h:], np.zeros_like(after[:, h:]))


def test_loop_matches_manual_lstm_step_sequence():
    enc = make_encoder(seed=13)
    rng = np.random.default_rng(7)
    s = rand_sentence(rng, enc.vocab, 5)
    idx, lengths = enc.prepare_batch([s])
    _, u = enc.forward_batch(None, idx, lengths)
    # forward half, recomputed step by step through the unfused cell
    emb = enc.embedding.value[idx[0]]
    w, u_rec, b = (constant(p.value) for p in enc.fwd)
    w_t = constant(w.data.T)
    h = constant(np.zeros((1, enc.hidden)))
    c = constant(np.zeros((1, enc.hidden)))
    for t in range(5):
        pre_x = nc.add(None, nc.matmul(None, constant(emb[t : t + 1]), w_t), b)
        h, c = lstm_cell(None, pre_x, h, c, u_rec)
        assert np.array_equal(u.data[0, t, : enc.hidden], h.data[0])


def test_pad_row_receives_no_gradient():
    enc = make_encoder(seed=14)
    rng = np.random.default_rng(8)
    sents = [rand_sentence(rng, enc.vocab, n) for n in (3, 6)]  # padding present
    idx, lengths = enc.prepare_batch(sents)
    tape = nc.Tape()
    z, _ = enc.forward_batch(tape, idx, lengths)
    flat = nc.reshape(tape, z, (1, z.data.size))
    loss = nc.matmul(tape, flat, constant(np.ones((z.data.size, 1))))
    nc.backward(tape, loss)
    assert np.array_equal(enc.embedding.grad[0], np.zeros(enc.dim))
    assert np.any(enc.embedding.grad != 0.0)


def test_encode_path_gradients_match_finite_differences():
    enc = make_encoder(n_tokens=15, dim=3, hidden=3, seed=15)
    rng = np.random.default_rng(9)
    sents = [rand_sentence(rng, enc.vocab, n) for n in (3, 5)]
    idx, lengths = enc.prepare_batch(sents)
    ones = np.ones((2 * enc.out_dim, 1))

    def loss_fn(tape):
        z, _ = enc.forward_batch(tape, idx, lengths)
        flat = nc.reshape(tape, z, (1, 2 * enc.out_dim))
        return nc.matmul(tape, flat, constant(ones))

    err = nc.grad_check(loss_fn, enc.parameters(), eps=1e-5, samples=80,
                        rng=np.random.default_rng(3))
    assert err < 1e-4


def test_model_gradient_matches_finite_differences_at_benchmark_lengths():
    # rows up to 60 steps, as the benchmark pads them: an error in the carry
    # past the first few steps shows only on long rows
    enc = make_encoder(n_tokens=30, dim=6, hidden=5, seed=18)
    model = DetectorModel.create(enc, 6, 4, np.random.default_rng(1))
    rng = np.random.default_rng(12)
    idx, lengths = enc.prepare_batch([rand_sentence(rng, enc.vocab, n) for n in (1, 60, 2, 17, 33, 60)])
    labels = np.array([0, 1, 1, 0, 1, 0])
    params = model.all_parameters()

    def loss(tape=None):
        return model.batch_loss(tape, idx, lengths, labels)[0]

    tape = nc.Tape()
    nc.backward(tape, loss(tape))
    grads = [p.grad.copy() for p in params]
    base = [p.value.copy() for p in params]
    eps = 1e-5
    worst = 0.0
    for _ in range(4):
        direction = [rng.standard_normal(p.value.shape) for p in params]
        norm = math.sqrt(sum(float((v * v).sum()) for v in direction))
        direction = [v / norm for v in direction]
        analytic = sum(float((g * v).sum()) for g, v in zip(grads, direction))
        values = []
        for sign in (1.0, -1.0):
            for p, b, v in zip(params, base, direction):
                p.value[...] = b + sign * eps * v
            values.append(loss().data.item())
        for p, b in zip(params, base):
            p.value[...] = b
        numeric = (values[0] - values[1]) / (2 * eps)
        worst = max(worst, abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)))
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_recurrence_bit_identical_to_unfused_on_padded_batch(dtype, monkeypatch):
    enc = make_encoder(n_tokens=15, dim=3, hidden=4, seed=16, dtype=dtype)
    rng = np.random.default_rng(10)
    idx, lengths = enc.prepare_batch([rand_sentence(rng, enc.vocab, n) for n in (4, 1, 7, 3, 6, 2, 5)])
    weights = constant(rng.standard_normal((7, enc.out_dim)).astype(dtype))

    def run():
        tape = nc.Tape()
        z, u = enc.forward_batch(tape, idx, lengths)
        flat = nc.reshape(tape, nc.mul(tape, z, weights), (1, z.data.size))
        nc.backward(tape, nc.matmul(tape, flat, constant(np.ones((z.data.size, 1), dtype=dtype))))
        grads = [p.grad.copy() for p in enc.parameters()]
        for p in enc.parameters():
            p.zero_grad()
        return z.data, u.data, grads

    fused = run()
    monkeypatch.setattr(nc, "bilstm", bilstm_unfused)
    oracle = run()
    assert fused[0].dtype == dtype
    assert np.array_equal(fused[0], oracle[0])
    padded = np.arange(idx.shape[1])[None, :] >= lengths[:, None]
    assert np.array_equal(fused[1][~padded], oracle[1][~padded])
    assert np.array_equal(fused[1][padded], np.zeros_like(fused[1][padded]))
    assert_grads_close(enc.parameters(), fused[2], oracle[2])


def test_tape_length_of_a_training_step_does_not_grow_with_length():
    enc = make_encoder(n_tokens=15, seed=17)
    model = DetectorModel.create(enc, 5, 3, np.random.default_rng(0))
    rng = np.random.default_rng(11)
    counts = []
    for n in (3, 30):
        idx, lengths = enc.prepare_batch([rand_sentence(rng, enc.vocab, n) for _ in range(2)])
        tape = nc.Tape()
        model.batch_loss(tape, idx, lengths, np.array([0, 1]))
        counts.append(len(tape))
    # rows, bilstm and max_over_time; three matmul/add pairs and two tanh in
    # the head; the loss
    assert counts == [12, 12]


def test_prepare_batch_pads_with_pad_index():
    enc = make_encoder()
    s1 = Sentence(("w001", "w002"), "a")
    s2 = Sentence(("w003",), "b")
    idx, lengths = enc.prepare_batch([s1, s2])
    assert idx.shape == (2, 2)
    assert np.array_equal(lengths, [2, 1])
    assert idx[1, 1] == 0  # PAD
    assert idx[0, 0] == enc.vocab.index("w001")
