import inspect
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fakesent import numcore as nc
from fakesent.errors import NonFiniteValue, ShapeMismatch
from synthetic import constant
from unfused_lstm import assert_grads_close, bilstm_unfused


def scalar_sum(tape, x):
    # sum-to-scalar expressed with the primitive set: ones^T @ x
    flat = nc.reshape(tape, x, (1, x.data.size))
    ones = constant(np.ones((x.data.size, 1), dtype=x.data.dtype))
    return nc.matmul(tape, flat, ones)


def test_sigmoid_at_zero():
    out = nc.sigmoid(None, constant(np.array([0.0])))
    assert out.data[0] == 0.5


def test_sigmoid_extremes_stay_finite():
    out = nc.sigmoid(None, constant(np.array([-1e4, 1e4], dtype=np.float32)))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def two_branch_sigmoid(x):
    # the split form _sigmoid had before its branch-free one, kept as its oracle
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def test_sigmoid_bits_match_two_branch_form():
    edges = np.array([0.0, 1e-30, 1.0, 50.0, 88.0, 100.0])
    edges = np.concatenate([edges, -edges])
    # every 4099th float32 bit pattern: both signs, subnormals, infinities and NaNs
    sweep = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)
    spread = 40.0 * np.random.default_rng(17).standard_normal(1 << 16)
    for x in (edges.astype(np.float32), edges, sweep, spread):
        with np.errstate(invalid="ignore"):  # exp of a signalling NaN sets the invalid flag
            got, want = nc._sigmoid(x), two_branch_sigmoid(x)
        assert got.dtype == x.dtype
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_matmul_against_naive_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = nc.matmul(None, constant(a), constant(b))
    oracle = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                oracle[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(out.data - oracle)) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_rows_bit_identical_to_rows_computed_alone(dtype):
    # inner dimension 600 spans more than one of the BLAS kernel's blocks over it
    rng = np.random.default_rng(9)
    a = rng.standard_normal((70, 600)).astype(dtype)
    b = constant(rng.standard_normal((600, 96)).astype(dtype))
    alone = np.stack([nc.matmul(None, constant(a[i : i + 1]), b).data[0] for i in range(70)])
    for n in range(1, 71):
        for start in (0, 3) if n <= 67 else (0,):
            out = nc.matmul(None, constant(a[start : start + n]), b).data
            assert out.dtype == dtype
            assert np.array_equal(out, alone[start : start + n]), f"{n} rows from row {start}"


@pytest.mark.parametrize("rows, cols", [(40, 7), (64, 3), (130, 9)])
def test_transposed_copy_is_the_transpose_in_c_order(rows, cols):
    # 40 is 4H at H = 10: the last 64-row block of the copy is partial
    a = np.random.default_rng(3).standard_normal((rows, cols)).astype(np.float32)
    t = nc._transposed(a)
    assert t.flags.c_contiguous and t.dtype == a.dtype
    assert np.array_equal(t, a.T)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d, hidden", [(8, 8), (16, 32), (64, 256), (300, 512)])
def test_mm_gives_the_same_bits_with_a_contiguous_copy_as_with_the_transposed_view(dtype, d, hidden):
    # the model's forward weights, (4H, d) input and (4H, H) recurrent, at the
    # gradcheck, desk, mid and paper shapes; 70 rows make one full and one padded tile
    rng = np.random.default_rng(11)
    for inner in (d, hidden):
        w = rng.standard_normal((4 * hidden, inner)).astype(dtype)
        x = rng.standard_normal((70, inner)).astype(dtype)
        assert np.array_equal(nc._mm(x, nc._transposed(w)), nc._mm(x, w.T)), (dtype, inner)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nc.matmul(None, constant(np.ones((2, 3))), constant(np.ones((4, 2))))


def test_backward_of_linear_sum():
    p = nc.Parameter("p", np.array([1.0, 5.0, -2.0]))
    q = nc.Parameter("q", np.array([4.0]))
    tape = nc.Tape()
    nc.mul(tape, q, q)  # taped, but the loss never reads it: backward skips the record
    loss = scalar_sum(tape, p)
    nc.backward(tape, loss)
    assert np.array_equal(p.grad, [1.0, 1.0, 1.0])
    assert q.grad is None


def test_backward_of_quadratic():
    p = nc.Parameter("p", np.array([1.0, 2.0]))
    tape = nc.Tape()
    loss = scalar_sum(tape, nc.mul(tape, p, p))
    nc.backward(tape, loss)
    assert np.array_equal(p.grad, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    p = nc.Parameter("p", np.array([1.0, 2.0]))
    tape = nc.Tape()
    out = nc.mul(tape, p, p)
    with pytest.raises(ShapeMismatch):
        nc.backward(tape, out)


def test_backward_accumulates_over_multiple_uses():
    # loss = sum(p) + sum(p * p) -> grad = 1 + 2p
    p = nc.Parameter("p", np.array([3.0, -1.0]))
    tape = nc.Tape()
    loss = nc.add(tape, scalar_sum(tape, p), scalar_sum(tape, nc.mul(tape, p, p)))
    nc.backward(tape, loss)
    np.testing.assert_allclose(p.grad, 1.0 + 2.0 * p.value)


def test_a_second_sweep_gives_its_own_gradient_not_the_sum():
    p = nc.Parameter("p", np.array([1.0, 2.0]))
    for scale in (3.0, 5.0):  # no update between the sweeps
        tape = nc.Tape()
        loss = nc.matmul(tape, nc.reshape(tape, p, (1, 2)), constant(np.full((2, 1), scale)))
        nc.backward(tape, loss)
        assert np.array_equal(p.grad, [scale, scale])


def test_bias_add_backward_sums_over_batch():
    x = nc.Parameter("x", np.zeros((4, 3)))
    b = nc.Parameter("b", np.array([1.0, 2.0, 3.0]))
    tape = nc.Tape()
    out = nc.add(tape, x, b)
    loss = scalar_sum(tape, out)
    nc.backward(tape, loss)
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


@pytest.mark.parametrize("a_shape, b_shape", [((), ()), ((3,), (3,)), ((2, 3), (2, 3)), ((2, 3), (3,)),
                                               ((2, 4, 3), (3,))])
def test_add_accepts_equal_shapes_and_a_trailing_vector(a_shape, b_shape):
    a, b = nc.Parameter("a", np.ones(a_shape)), nc.Parameter("b", np.ones(b_shape))
    tape = nc.Tape()
    nc.backward(tape, scalar_sum(tape, nc.add(tape, a, b)))
    assert np.array_equal(a.grad, np.ones(a_shape))
    assert np.array_equal(b.grad, np.full(b_shape, np.prod(a_shape) / np.prod(b_shape)))


@pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (2,)), ((3,), (2, 3)), ((2, 3), (1, 3)),
                                               ((2, 3), ()), ((), (1,))])
def test_add_rejects_other_broadcasts(a_shape, b_shape):
    with pytest.raises(ShapeMismatch):
        nc.add(None, constant(np.ones(a_shape)), constant(np.ones(b_shape)))


def test_softmax_cross_entropy_probabilities_normalized():
    rng = np.random.default_rng(3)
    logits = constant(rng.standard_normal((16, 5)))
    labels = rng.integers(0, 5, size=16)
    loss, probs = nc.softmax_cross_entropy(None, logits, labels)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(16), atol=1e-9)
    assert float(loss.data) >= 0.0


def test_softmax_cross_entropy_uniform_is_log_c():
    loss, probs = nc.softmax_cross_entropy(None, constant(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12
    np.testing.assert_allclose(probs, 0.5)


@pytest.mark.parametrize("logits, labels", [
    (np.zeros((2, 2)), np.array([0.0, 1.0])),  # float labels
    (np.zeros((2, 2)), np.array([True, False])),  # boolean labels
    (np.zeros((2, 2)), np.array([0, 2])),  # a label past the classes
    (np.zeros((2, 2)), np.array([-1, 0])),
    (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),  # an empty batch
])
def test_softmax_cross_entropy_rejects_labels_it_cannot_score(logits, labels):
    with pytest.raises(ShapeMismatch):
        nc.softmax_cross_entropy(None, constant(logits), labels)


def test_softmax_cross_entropy_gradient_matches_probs_minus_onehot():
    rng = np.random.default_rng(5)
    logits = nc.Parameter("logits", rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, size=6)
    tape = nc.Tape()
    loss, probs = nc.softmax_cross_entropy(tape, logits, labels)
    nc.backward(tape, loss)
    onehot = np.zeros((6, 3))
    onehot[np.arange(6), labels] = 1.0
    np.testing.assert_allclose(logits.grad, (probs - onehot) / 6.0, atol=1e-12)


def test_max_backward_routes_to_argmax_and_preserves_mass():
    x = nc.Parameter("x", np.array([[[1.0, -2.0], [0.0, 3.0], [1.0, 3.0]]]))
    tape = nc.Tape()
    out = nc.max_over_time(tape, x, np.array([3]))
    loss = scalar_sum(tape, out)
    nc.backward(tape, loss)
    # ties go to the first maximal index: feature 0's max is shared by steps 0 and 2
    assert np.array_equal(out.data, [[1.0, 3.0]])
    assert np.array_equal(x.grad, [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])
    assert x.grad.sum() == 2.0  # one unit per pooled coordinate


def test_max_over_time_masks_padding():
    data = np.zeros((2, 3, 2))
    data[0] = [[1.0, -5.0], [2.0, -6.0], [9.0, 9.0]]  # length 2: step 2 is padding
    data[1] = [[0.0, 1.0], [4.0, -1.0], [-2.0, 7.0]]
    x = nc.Parameter("x", data)
    tape = nc.Tape()
    out = nc.max_over_time(tape, x, np.array([2, 3]))
    nc.backward(tape, scalar_sum(tape, out))
    assert np.array_equal(out.data, [[2.0, -5.0], [4.0, 7.0]])
    # each pooled coordinate's gradient lands on its maximal real step, never on padding
    assert np.array_equal(np.argmax(x.grad, axis=1), [[1, 0], [1, 2]])
    assert x.grad.sum() == 4.0 and not x.grad[0, 2].any()


def bilstm_params(rng, d, hidden, dtype=np.float64, scale=0.5):
    """fwd and bwd (w, u, b) Parameters."""
    return [
        nc.Parameter(f"{prefix}.{name}", (scale * rng.standard_normal(shape)).astype(dtype))
        for prefix in ("fwd", "bwd")
        for name, shape in (("w", (4 * hidden, d)), ("u", (4 * hidden, hidden)), ("b", (4 * hidden,)))
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilstm_bit_identical_to_unfused_oracle(dtype):
    rng = np.random.default_rng(21)
    t, d, hidden = 6, 3, 4
    lengths = np.array([6, 1, 4, 2, 5, 3])  # every length from 1 to T, padded to T
    x = nc.Parameter("x", rng.standard_normal((len(lengths), t, d)).astype(dtype))
    params = [x] + bilstm_params(rng, d, hidden, dtype)
    padded = np.arange(t)[None, :] >= lengths[:, None]
    weights = rng.standard_normal((len(lengths), t, 2 * hidden)).astype(dtype)
    weights[padded] = 0.0  # the oracle runs on through the padding; bilstm holds 0 there
    weights = constant(weights)
    results = []
    for op in (nc.bilstm, bilstm_unfused):
        tape = nc.Tape()
        out = op(tape, params[0], lengths, tuple(params[1:4]), tuple(params[4:]))
        nc.backward(tape, scalar_sum(tape, nc.mul(tape, out, weights)))
        results.append((out.data, [p.grad.copy() for p in params]))
        for p in params:
            p.zero_grad()
    (fused, fused_grads), (oracle, oracle_grads) = results
    assert fused.dtype == dtype and fused.shape == (len(lengths), t, 2 * hidden)
    assert np.array_equal(fused[~padded], oracle[~padded])
    assert np.array_equal(fused[padded], np.zeros_like(fused[padded]))
    assert_grads_close(params, fused_grads, oracle_grads)


def test_bilstm_gradients_match_finite_differences_on_unsorted_lengths():
    # rows in no length order, lengths 1 and T among them, so the packed steps
    # shrink unevenly; every state carries its own loss weight
    rng = np.random.default_rng(23)
    t, d, hidden = 9, 3, 2
    lengths = np.array([4, 9, 1, 7, 2, 9, 5])
    x = nc.Parameter("x", rng.standard_normal((len(lengths), t, d)))
    params = [x] + bilstm_params(rng, d, hidden)
    weights = constant(rng.standard_normal((len(lengths), t, 2 * hidden)))

    def loss_fn(tape):
        out = nc.bilstm(tape, x, lengths, tuple(params[1:4]), tuple(params[4:]))
        return scalar_sum(tape, nc.mul(tape, out, weights))

    err = nc.grad_check(loss_fn, params, eps=1e-5, samples=120, rng=np.random.default_rng(4))
    assert err < 1e-6


def test_bilstm_overflow_raises():
    # step 0 saturates every gate (h = tanh(1) in both units); step 1's
    # recurrent product 2 * tanh(1) * 1.5e308 overflows
    x = constant(np.ones((1, 2, 1)))
    weights = (constant(np.full((8, 1), 50.0)), constant(np.full((8, 2), 1.5e308)), constant(np.zeros(8)))
    with pytest.raises(NonFiniteValue):
        nc.bilstm(None, x, np.array([2]), weights, weights)
    assert np.all(np.isfinite(nc.bilstm(None, constant(x.data[:, :1]), np.array([1]), weights, weights).data))
    # the input projection itself overflows: 10 * 1e308
    big = (constant(np.full((8, 1), 1e308)), constant(np.zeros((8, 2))), weights[2])
    with pytest.raises(NonFiniteValue):
        nc.bilstm(None, constant(np.full((1, 1, 1), 10.0)), np.array([1]), big, big)


def test_bilstm_shape_mismatch():
    x, lengths = constant(np.zeros((2, 3, 5))), np.array([3, 1])
    good = tuple(constant(np.zeros(shape)) for shape in ((8, 5), (8, 2), (8,)))
    for bad_x, bad_lengths, bad_fwd, bad_bwd in [
        (constant(np.zeros((6, 5))), lengths, good, good),  # input not 3-D
        (x, np.array([3, 1, 2]), good, good),  # one length per row
        (x, np.array([4, 1]), good, good),  # a length beyond T
        (x, np.array([3, 0]), good, good),  # a row of no step
        (x, np.array([3.0, 1.0]), good, good),  # float lengths
        (x, np.array([2.5, 1.0]), good, good),  # a fractional length
        (x, np.array([True, True]), good, good),  # boolean lengths
        (x, lengths.astype(np.uint64), good, good),  # uint64, which int64 does not hold
        (constant(np.zeros((0, 3, 5))), np.zeros(0, dtype=np.int64), good, good),  # an empty batch
        (x, lengths, (constant(np.zeros((8, 4))),) + good[1:], good),  # W not (4H, d)
        (x, lengths, good, good[:2] + (constant(np.zeros(12)),)),  # b not (4H,)
        (x, lengths, good, tuple(constant(np.zeros(s)) for s in ((12, 5), (12, 3), (12,)))),  # H differs
        (x, lengths, good[:1] + (constant(np.zeros((8, 3))),) + good[2:], good),  # U is not (4H, H)
    ]:
        with pytest.raises(ShapeMismatch):
            nc.bilstm(None, bad_x, bad_lengths, bad_fwd, bad_bwd)


def test_max_over_time_rejects_lengths_it_cannot_pool_over():
    x = constant(np.zeros((2, 3, 4)))
    for bad_lengths in [
        np.array([0, 3]),  # a max over no position
        np.array([-1, 3]),  # a negative length
        np.array([5, 3]),  # a length beyond T
        np.array([3, 1, 2]),  # one length per row
        np.array([3.0, 1.0]),  # float lengths
        np.array([2.5, 3.0]),  # a fractional length
        np.array([True, True]),  # boolean lengths
        np.array([3, 1], dtype=np.uint64),  # uint64, which int64 does not hold
    ]:
        with pytest.raises(ShapeMismatch):
            nc.max_over_time(None, x, bad_lengths)
    with pytest.raises(ShapeMismatch):  # not (batch, T, features)
        nc.max_over_time(None, constant(np.zeros((2, 3))), np.array([1, 2]))
    with pytest.raises(ShapeMismatch):  # an empty batch
        nc.max_over_time(None, constant(np.zeros((0, 3, 4))), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("name", ["bilstm", "max_over_time", "reverse_within"])
def test_int32_lengths_give_the_bits_of_int64_lengths(name):
    args = op_cases()[name]
    assert args[1].dtype == np.int64
    as_int32 = (args[0], args[1].astype(np.int32), *args[2:])
    assert np.array_equal(getattr(nc, name)(None, *as_int32).data, getattr(nc, name)(None, *args).data)


def op_cases():
    """One call per op of ``__all__`` that takes a tape: op name -> args after the tape."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 4))
    seq = rng.standard_normal((2, 5, 3))
    lengths = np.array([5, 2])
    directions = bilstm_params(rng, 3, 2)
    return {
        "matmul": (constant(x), constant(rng.standard_normal((4, 5)))),
        "add": (constant(x), constant(rng.standard_normal(4))),
        "mul": (constant(x), constant(rng.standard_normal((3, 4)))),
        "concat": ([constant(x), constant(rng.standard_normal((3, 2)))], 1),
        "narrow": (constant(x), 1, 1, 2),
        "pick": (constant(x), 0, 2),
        "sigmoid": (constant(x),),
        "tanh": (constant(x),),
        "bilstm": (constant(seq), lengths, tuple(directions[:3]), tuple(directions[3:])),
        "softmax_cross_entropy": (constant(x), np.array([0, 3, 1])),
        "max_over_time": (constant(seq), lengths),
        "rows": (constant(x), np.array([2, 0, 2])),
        "stack": ([constant(x), constant(x + 1.0)], 1),
        "reshape": (constant(x), (4, 3)),
        "reverse_within": (constant(seq), lengths),
    }


def test_every_taping_op_has_an_output_rule_case():
    functions = {name: getattr(nc, name) for name in nc.__all__ if inspect.isfunction(getattr(nc, name))}
    taping = {name for name, f in functions.items() if "tape" in inspect.signature(f).parameters}
    assert taping - {"backward"} == set(op_cases())


@pytest.mark.parametrize("name", sorted(op_cases()))
def test_taped_call_adds_one_record_and_the_untaped_bits(name):
    args = op_cases()[name]
    op = getattr(nc, name)
    tape = nc.Tape()
    taped, untaped = op(tape, *args), op(None, *args)
    assert len(tape) == 1
    if isinstance(taped, tuple):  # (output, side result) ops
        assert np.array_equal(taped[1], untaped[1])
        taped, untaped = taped[0], untaped[0]
    assert tape._records[0][0] is taped
    assert taped.data.dtype == untaped.data.dtype and np.array_equal(taped.data, untaped.data)


def test_an_op_whose_inputs_are_all_frozen_is_not_taped():
    rng = np.random.default_rng(8)
    table = nc.Parameter("emb", rng.standard_normal((5, 3)))
    w = nc.Parameter("w", rng.standard_normal((3, 2)))
    runs = []
    for frozen in ((), (table,)):
        table.zero_grad()  # a frozen table keeps whatever gradient it had
        tape = nc.Tape(frozen)
        gathered = nc.rows(tape, table, np.array([4, 1, 4]))  # reads only the table
        gather_records = len(tape)
        nc.backward(tape, scalar_sum(tape, nc.matmul(tape, gathered, w)))
        gather = (gather_records, table.grad, w.grad)
        tape = nc.Tape(frozen)
        nc.backward(tape, scalar_sum(tape, nc.matmul(tape, table, w)))  # reads the table and w
        runs.append((gather, (len(tape), w.grad)))
    (taped, taped_mixed), (untaped, frozen_mixed) = runs
    assert (taped[0], untaped[0]) == (1, 0)
    assert taped[1] is not None and untaped[1] is None
    assert np.array_equal(untaped[2], taped[2])
    assert taped_mixed[0] == frozen_mixed[0] == 3
    assert np.array_equal(frozen_mixed[1], taped_mixed[1])


def test_bilstm_computes_no_gradient_for_a_frozen_input():
    # a training step with a frozen table: the gather's output is frozen, so
    # bilstm's backward builds no dx and the weights' gradients do not change
    rng = np.random.default_rng(12)
    table = nc.Parameter("emb", rng.standard_normal((7, 3)))
    idx, lengths = rng.integers(0, 7, size=(4, 5)), np.array([5, 2, 4, 1])
    params = bilstm_params(rng, 3, 2)
    runs = []
    for frozen in ((), (table,)):
        table.zero_grad()  # a frozen table keeps whatever gradient it had
        tape = nc.Tape(frozen)
        x = nc.rows(tape, table, idx)
        out = nc.bilstm(tape, x, lengths, tuple(params[:3]), tuple(params[3:]))
        dx = tape._records[-1][2](np.ones_like(out.data))[0]  # bilstm's backward rule
        nc.backward(tape, scalar_sum(tape, nc.max_over_time(tape, out, lengths)))
        runs.append((x in tape.frozen, dx, table.grad, [p.grad for p in params]))
    (taped, taped_dx, table_grad, grads), (frozen, frozen_dx, frozen_table_grad, frozen_grads) = runs
    assert not taped and taped_dx.shape == (4, 5, 3) and table_grad.shape == (7, 3)
    assert frozen and frozen_dx is None and frozen_table_grad is None
    for g, fg in zip(grads, frozen_grads):
        assert np.array_equal(g, fg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilstm_on_two_threads_gives_the_sequential_bits(monkeypatch, dtype):
    # 30 sentences of up to 11 words: projection tiles of 64 rows end mid-step
    rng = np.random.default_rng(43)
    hidden = nc._PARALLEL_HIDDEN
    lengths = rng.integers(1, 12, size=30)
    x = constant(rng.standard_normal((len(lengths), lengths.max(), 3)).astype(dtype))
    params = bilstm_params(rng, 3, hidden, dtype, scale=1 / np.sqrt(hidden))
    args = (x, lengths, tuple(params[:3]), tuple(params[3:]))
    threads, forward = set(), nc._lstm_forward
    monkeypatch.setattr(nc, "_lstm_forward", lambda *a: threads.add(threading.get_ident()) or forward(*a))
    threaded = nc.bilstm(None, *args).data
    assert len(threads) == 2  # the backward direction ran on a second thread
    threads.clear()
    nc.bilstm(nc.Tape(), *args)
    assert threads == {threading.get_ident()}  # a taped call stays on one thread
    monkeypatch.setattr(nc, "_PARALLEL_HIDDEN", hidden + 1)
    sequential = nc.bilstm(None, *args).data
    assert threaded.dtype == dtype and np.array_equal(threaded, sequential)


@pytest.mark.parametrize("d, hidden", [(16, 32), (64, 256), (300, 512)])
def test_untaped_bilstm_states_equal_the_taped_ones(d, hidden):
    # from the threaded width on, an untaped call projects a tile of rows at a
    # time; a taped one, and any call below that width, the whole sequence
    rng = np.random.default_rng(47)
    lengths = np.array([9, 3, 9, 1, 6, 4, 8])
    x = constant(rng.standard_normal((len(lengths), 9, d)).astype(np.float32))
    params = bilstm_params(rng, d, hidden, np.float32, scale=1 / np.sqrt(hidden))
    args = (x, lengths, tuple(params[:3]), tuple(params[3:]))
    assert np.array_equal(nc.bilstm(None, *args).data, nc.bilstm(nc.Tape(), *args).data)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_failure_on_either_thread_is_raised_once_both_have_finished(monkeypatch, failing):
    # one direction's recurrent product overflows at step 1 (see test_bilstm_overflow_raises);
    # the worker's direction starts late, so the caller's is done long before it
    rng = np.random.default_rng(53)
    x, lengths = constant(np.ones((1, 2, 1))), np.array([2])
    good = tuple(constant(0.5 * rng.standard_normal(s)) for s in ((8, 1), (8, 2), (8,)))
    bad = (constant(np.full((8, 1), 50.0)), constant(np.full((8, 2), 1.5e308)), constant(np.zeros(8)))
    fwd, bwd = (bad, good) if failing == "caller" else (good, bad)
    monkeypatch.setattr(nc, "_PARALLEL_HIDDEN", 2)
    caller, forward = threading.get_ident(), nc._lstm_forward
    finished, raised = [], []

    def spy(*args):
        on_worker = threading.get_ident() != caller
        try:
            if on_worker:
                time.sleep(0.2)
            return forward(*args)
        except NonFiniteValue as e:
            raised.append(e)
            raise
        finally:
            finished.append("worker" if on_worker else "caller")

    monkeypatch.setattr(nc, "_lstm_forward", spy)
    with pytest.raises(NonFiniteValue) as exc:
        nc.bilstm(None, x, lengths, fwd, bwd)
    assert raised == [exc.value]
    assert finished == ["caller", "worker"]
    # the next call works, on both threads, and gives the sequential bits
    again = nc.bilstm(None, x, lengths, good, good).data
    assert finished[2:] == ["caller", "worker"]
    monkeypatch.setattr(nc, "_PARALLEL_HIDDEN", 3)
    assert np.array_equal(again, nc.bilstm(None, x, lengths, good, good).data)


def test_an_untaped_bilstm_keeps_no_array_a_backward_would_read():
    # paper shape: the call holds its output, each direction's transposed weights
    # and a few arrays of a tile's rows, never a (positions, 4H) projection; the
    # sequential whole-sequence pass peaked at 32.3 MiB here, this bound is 28.2
    rng = np.random.default_rng(59)
    d, hidden, bsz = 300, 512, 64
    lengths = rng.integers(10, 31, size=bsz)
    x = constant(rng.standard_normal((bsz, lengths.max(), d)).astype(np.float32))
    params = bilstm_params(rng, d, hidden, np.float32, scale=1 / np.sqrt(hidden))
    args = (x, lengths, tuple(params[:3]), tuple(params[3:]))
    nc.bilstm(None, *args)  # BLAS buffers exist before the count starts
    tracemalloc.start()
    try:
        out = nc.bilstm(None, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    weights = sum(p.data.nbytes for p in params)
    step = bsz * 4 * hidden * out.data.itemsize
    assert peak < out.data.nbytes + weights + 16 * step


@pytest.mark.parametrize("name, args", [("narrow", (1, 2)), ("pick", (1,))])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_narrow_and_pick_count_a_negative_axis_from_the_end(name, args, axis):
    x = nc.Parameter("x", np.random.default_rng(5).standard_normal((3, 4, 5)))
    results = []
    for ax in (axis, axis - x.data.ndim):
        tape = nc.Tape()
        out = getattr(nc, name)(tape, x, ax, *args)
        nc.backward(tape, scalar_sum(tape, out))
        results.append((out.data, x.grad.copy()))
        x.zero_grad()
    (out_pos, grad_pos), (out_neg, grad_neg) = results
    assert np.array_equal(out_pos, out_neg) and np.array_equal(grad_pos, grad_neg)


@pytest.mark.parametrize("name, args", [
    ("narrow", (1, 3, 3)),  # [3:6] on an axis of 5
    ("narrow", (1, -1, 2)),
    ("pick", (1, 5)),
    ("pick", (1, -1)),
    ("reverse_within", (np.array([6, 1, 2]),)),  # a length past the time axis
    ("reverse_within", (np.array([-1, 1, 2]),)),
    ("reverse_within", (np.array([0, 1, 2]),)),  # a row of no step
    ("reverse_within", (np.array([5, 1]),)),  # one length per row
])
def test_indexing_ops_reject_positions_outside_their_input(name, args):
    with pytest.raises(ShapeMismatch):
        getattr(nc, name)(None, constant(np.zeros((3, 5, 2))), *args)


def test_concat_and_narrow_roundtrip_gradients():
    a = nc.Parameter("a", np.arange(6, dtype=float).reshape(2, 3))
    b = nc.Parameter("b", np.arange(4, dtype=float).reshape(2, 2))
    tape = nc.Tape()
    cat = nc.concat(tape, [a, b], axis=1)
    right = nc.narrow(tape, cat, axis=1, start=3, size=2)
    loss = scalar_sum(tape, right)
    nc.backward(tape, loss)
    assert np.array_equal(a.grad, np.zeros((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_rows_gather_accumulates_duplicate_indices():
    table = nc.Parameter("emb", np.arange(8, dtype=float).reshape(4, 2))
    tape = nc.Tape()
    out = nc.rows(tape, table, np.array([1, 1, 3]))
    loss = scalar_sum(tape, out)
    nc.backward(tape, loss)
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_rows_rejects_indices_outside_the_table():
    table = constant(np.arange(8, dtype=float).reshape(4, 2))
    for bad in (np.array([-1]), np.array([[0, 4]])):  # the last row counted from the end; past V
        with pytest.raises(ShapeMismatch):
            nc.rows(None, table, bad)
    # a boolean mask (numpy would gather rows 0 and 2), one of another length, float indices
    for bad in (np.array([True, False, True, False]), np.array([True, False]), np.array([0.0, 2.0])):
        with pytest.raises(ShapeMismatch):
            nc.rows(None, table, bad)
    assert nc.rows(None, table, np.zeros((2, 0), dtype=np.int64)).data.shape == (2, 0, 2)


def test_reverse_within_is_an_involution():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5, 2))
    lengths = np.array([5, 2, 4])
    once = nc.reverse_within(None, constant(x), lengths)
    twice = nc.reverse_within(None, once, lengths)
    assert np.array_equal(twice.data, x)
    # row 1, length 2: first two steps swapped, tail untouched
    assert np.array_equal(once.data[1, 0], x[1, 1])
    assert np.array_equal(once.data[1, 2:], x[1, 2:])


def test_forward_is_deterministic():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((10, 7)).astype(np.float32)
    b = rng.standard_normal((7, 4)).astype(np.float32)
    r1 = nc.matmul(None, constant(a), constant(b)).data
    r2 = nc.matmul(None, constant(a), constant(b)).data
    assert np.array_equal(r1, r2)
    t1 = nc.tanh(None, constant(a)).data
    t2 = nc.tanh(None, constant(a)).data
    assert np.array_equal(t1, t2)


def test_non_finite_forward_raises():
    big = constant(np.array([[1e300]]))
    with pytest.raises(NonFiniteValue):
        nc.mul(None, big, big)


def test_sgd_step_arithmetic():
    p = nc.Parameter("p", np.array([1.0]))
    p.grad = np.array([0.5])
    nc.sgd_step([p], 0.1)
    assert np.allclose(p.value, [0.95])
    assert p.grad is None


def test_sgd_step_zero_lr_is_identity():
    p = nc.Parameter("p", np.array([1.0, -2.0]))
    p.grad = np.array([3.0, 4.0])
    nc.sgd_step([p], 0.0)
    assert np.array_equal(p.value, [1.0, -2.0])
    assert p.grad is None


def test_sgd_step_rejects_non_finite_gradient():
    p = nc.Parameter("p", np.array([1.0]))
    p.grad = np.array([np.inf])
    with pytest.raises(NonFiniteValue):
        nc.sgd_step([p], 0.1)


def test_sgd_step_moves_no_value_when_a_later_gradient_is_non_finite():
    a, b = nc.Parameter("a", np.array([1.0])), nc.Parameter("b", np.array([1.0]))
    a.grad, b.grad = np.array([1.0]), np.array([np.inf])
    with pytest.raises(NonFiniteValue, match="gradient for b"):
        nc.sgd_step([a, b], 0.1)
    assert a.value[0] == 1.0 and b.value[0] == 1.0


def test_sgd_step_leaves_a_parameter_without_a_gradient_unchanged():
    p = nc.Parameter("p", np.array([1.0, -2.0]))
    assert p.grad is None
    nc.sgd_step([p], 0.1)
    assert np.array_equal(p.value, [1.0, -2.0])
    assert p.grad is None


def test_a_gradient_array_handed_to_two_inputs_is_never_written_into():
    # loss = (p1 + p2) + 5 p1, with 5 p1 taped first: the inner add hands one
    # array to p1 and p2, and p1's later 5 must not be added into it
    p1, p2 = nc.Parameter("p1", np.array([2.0])), nc.Parameter("p2", np.array([3.0]))
    tape = nc.Tape()
    scaled = nc.mul(tape, p1, constant(np.array([5.0])))
    nc.backward(tape, nc.add(tape, nc.add(tape, p1, p2), scaled))
    assert np.array_equal(p1.grad, [6.0])
    assert np.array_equal(p2.grad, [1.0])


def quadratic_loss(theta):
    def loss_fn(tape):
        shifted = nc.add(tape, theta, constant(np.array([-2.0])))
        return nc.mul(tape, shifted, shifted)

    return loss_fn


def test_sgd_converges_on_quadratic_matching_closed_form():
    # theta_{k+1} - 2 = (1 - 2 lr)(theta_k - 2): geometric decay at rate 0.8
    theta = nc.Parameter("theta", np.array([0.0]))
    loss_fn = quadratic_loss(theta)
    for k in range(100):
        expected = 2.0 - 2.0 * 0.8**k
        assert abs(theta.value[0] - expected) < 1e-9 * (1 + abs(expected))
        tape = nc.Tape()
        nc.backward(tape, loss_fn(tape))
        nc.sgd_step([theta], 0.1)
    assert abs(theta.value[0] - 2.0) < 1e-6


def test_grad_check_scalar_quadratic():
    theta = nc.Parameter("theta", np.array([3.0]))

    def loss_fn(tape):
        return nc.mul(tape, theta, theta)

    err = nc.grad_check(loss_fn, [theta], eps=1e-5, samples=1)
    assert err < 1e-9


def test_grad_check_flags_corrupted_tanh_backward(monkeypatch):
    real_tanh = nc.tanh

    def corrupted_tanh(tape, x):
        out_d = np.tanh(x.data)
        out = nc.Tensor(out_d)
        if tape is not None:
            # wrong rule: 5% too strong
            tape.record(out, (x,), lambda g: (1.05 * g * (1.0 - out_d * out_d),))
        return out

    rng = np.random.default_rng(2)
    p = nc.Parameter("p", rng.standard_normal(8))

    def loss_fn(tape):
        flat = nc.reshape(tape, nc.tanh(tape, p), (1, 8))
        ones = constant(np.ones((8, 1)))
        return nc.matmul(tape, flat, ones)

    clean = nc.grad_check(loss_fn, [p], eps=1e-5, samples=8)
    assert clean < 1e-8
    monkeypatch.setattr(nc, "tanh", corrupted_tanh)
    err = nc.grad_check(loss_fn, [p], eps=1e-5, samples=8)
    monkeypatch.setattr(nc, "tanh", real_tanh)
    assert err > 1e-2


def test_grad_check_raises_on_a_non_finite_analytic_gradient(monkeypatch):
    # a NaN gradient would otherwise read as a perfect match: max(0.0, nan) is 0.0
    def nan_tanh(tape, x):
        out = nc.Tensor(np.tanh(x.data))
        if tape is not None:
            tape.record(out, (x,), lambda g: (np.full_like(g, np.nan),))
        return out

    p = nc.Parameter("p", np.random.default_rng(3).standard_normal(8))

    def loss_fn(tape):
        flat = nc.reshape(tape, nc.tanh(tape, p), (1, 8))
        return nc.matmul(tape, flat, constant(np.ones((8, 1))))

    monkeypatch.setattr(nc, "tanh", nan_tanh)
    with pytest.raises(NonFiniteValue, match="gradient for p"):
        nc.grad_check(loss_fn, [p], eps=1e-5, samples=8)


def test_grad_check_needs_a_sample_to_check():
    p = nc.Parameter("p", np.array([0.5, -1.0, 2.0]))

    def loss_fn(tape):
        # sum(p ** 2) with a wrong backward rule: 123 in place of 2p
        out = nc.Tensor(np.array((p.data**2).sum()))
        if tape is not None:
            tape.record(out, (p,), lambda g: (np.full_like(p.data, 123.0),))
        return out

    assert nc.grad_check(loss_fn, [p], eps=1e-5, samples=2) > 0.5
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            nc.grad_check(loss_fn, [p], eps=1e-5, samples=samples)


def test_grad_check_requires_float64():
    p = nc.Parameter("p", np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError):
        nc.grad_check(lambda tape: None, [p])


def test_grad_check_composed_ops_small():
    rng = np.random.default_rng(42)
    w = nc.Parameter("w", rng.standard_normal((3, 4)))
    b = nc.Parameter("b", rng.standard_normal(4))
    x = rng.standard_normal((5, 3))
    labels = rng.integers(0, 4, size=5)

    def loss_fn(tape):
        h = nc.tanh(tape, nc.add(tape, nc.matmul(tape, constant(x), w), b))
        loss, _ = nc.softmax_cross_entropy(tape, h, labels)
        return loss

    err = nc.grad_check(loss_fn, [w, b], eps=1e-5, samples=16, rng=np.random.default_rng(1))
    assert err < 1e-6
