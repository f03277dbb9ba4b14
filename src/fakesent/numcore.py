"""Minimal dense-tensor core: tape-based reverse-mode differentiation and SGD.

Everything the encoder and classifier compute is assembled from the ops in
this module. There is one node type: a Parameter is a Tensor that adds a name,
so every op takes one wherever it takes a Tensor; one forward serves training
and inference. There is one gradient rule: ``backward`` sets ``grad`` to None
on every tensor its tape reads before it sweeps, and the update that consumes
a gradient drops it. There is one argument rule: indices, lengths and labels
pass ``_ints``, integers in a range. There is one output rule: each op
computes its value eagerly and returns it through ``_out``, which wraps it in
a Tensor and, on a Tape, records the op's backward closure or, when every input
is one of the tape's ``frozen`` tensors (a fixed embedding table), freezes the
output too; only ``softmax_cross_entropy`` also returns its probabilities.
``backward`` replays the tape in reverse, summing each tensor's gradients.

The encoder's BiLSTM is one fused op, ``bilstm``, with one hand-written
backpropagation-through-time rule, so a training step's tape length does not
grow with sentence length. Each row runs for its own length only: rows are
sorted by length and their real positions packed time-major, so no work is
spent on padding and padded states are exactly 0. At every real position
its forward arithmetic is, operation for operation, that of composing
``reverse_within``, ``reshape``, ``matmul``, ``add``, a per-step cell of
``pick``, ``narrow``, ``sigmoid``, ``tanh``, ``mul`` and ``stack``, and
``concat``, so both give bit-identical states; its gradients agree with the
composition's up to the order of the sums over the batch. The tests keep
that composition as the op's oracle.

Determinism notes, load-bearing for the batch/unbatched bit-identity
guarantee of the encoder:

* Forward matrix products go through ``_mm``, which cuts the left operand
  into tiles of ``_ROW_TILE`` rows (the last one zero-padded) and runs one
  BLAS gemm per tile. For a given right operand every call has the same
  shape, so BLAS picks the same kernel and the same blocking of the inner
  dimension for each, and a row's value depends only on that row and the
  right operand, never on how many rows came with it. BLAS threads split a
  product's rows and columns, never its inner sum, so the thread count
  does not change a value either. Plain ``@`` over the whole operand gives
  no such guarantee: a single row goes to gemv, and OpenBLAS picks a
  small-matrix or a blocked gemm kernel by the product of the three
  dimensions; these kernels sum in different orders. Backward rules use
  plain ``@``: bit-stability across batch sizes is not required there.
  A product that sums over rows (a weight gradient, ``a.T @ b``) goes
  through ``_tmm``, which zero-pads the summed axis to a multiple of
  ``_ROW_TILE``: OpenBLAS was seen to change such a sum with the thread
  count at other lengths, never at a multiple of 64, so training bytes do
  not depend on the thread count when a batch is partial.
* A forward product's right operand is C-contiguous (``_transposed``
  copies ``w.T`` and ``u.T``), which OpenBLAS runs faster; the tests pin
  that both layouts give equal bits at every model shape tested.
* From ``_PARALLEL_HIDDEN`` on, an untaped ``bilstm`` projects its inputs
  ``_ROW_TILE`` rows at a time as the steps reach them, where other calls
  project the whole sequence at once. ``_mm`` is row-stable, so a row's
  projection has the same bits either way. An untaped call holds the
  current cell and state, never the per-step arrays a backward rule reads.
* From ``_PARALLEL_HIDDEN`` on, an untaped ``bilstm`` runs its backward
  direction on a thread of its own while the calling thread runs the
  forward one. The threads split the directions, never a sum: each runs
  its own direction's sequential arithmetic and writes only its own half
  of the output. The second thread calls only private helpers of this
  module, no op and no Tape method. Taped calls, and so backpropagation
  through time, run on the calling thread alone.
* All other forward ops are elementwise or pure indexing, which numpy
  evaluates value-deterministically.

Every forward output of an op that computes new values (in ``bilstm``, every
step's pre-activation, input projection included) is checked for NaN/Inf
and raises NonFiniteValue; ops that only index or move values
(``narrow``, ``pick``, ``rows``, ``stack``, ``reshape``, ``reverse_within``)
are not checked.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch

__all__ = [
    "Tensor", "Parameter", "Tape", "backward", "sgd_step", "grad_check",
    "matmul", "add", "mul", "concat", "narrow", "pick", "sigmoid", "tanh", "bilstm",
    "softmax_cross_entropy", "log_softmax", "max_over_time", "rows", "stack", "reshape", "reverse_within",
]


class Tensor:
    """A node in the computation graph: an ndarray plus a gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A Tensor with a name. Its ``grad`` is None until a ``backward`` sweep reaches it,
    then held until ``sgd_step``, ``zero_grad`` or the next sweep drops it. ``value`` is a
    read-only name for ``data``; write a new value into the array, not the attribute.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(value)
        self.name = name

    @property
    def value(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


BackwardFn = Callable[[np.ndarray], Sequence[np.ndarray]]


class Tape:
    """Ordered record of executed ops for the reverse sweep.

    Construction order is the topological order: every op's inputs are
    created before the op runs, so sweeping the records in reverse visits
    each tensor's consumers before the tensor itself.
    """

    __slots__ = ("_records", "frozen")

    def __init__(self, frozen: Sequence[Tensor] = ()):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], BackwardFn]] = []
        self.frozen = list(frozen)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], fn: BackwardFn) -> None:
        self._records.append((out, inputs, fn))

    def __len__(self) -> int:
        return len(self._records)


def _out(tape: Tape | None, data: np.ndarray, inputs: tuple[Tensor, ...], back: BackwardFn) -> Tensor:
    """An op's output: ``data`` as a Tensor, taped with its backward rule, or frozen
    itself when every input is frozen."""
    out = Tensor(data)
    if tape is not None and any(t not in tape.frozen for t in inputs):
        tape.record(out, inputs, back)
    elif tape is not None:
        tape.frozen.append(out)
    return out


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"non-finite value in output of {op}")
    return arr


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # out of place: a backward rule may hand one array to several inputs (add does)
    t.grad = g if t.grad is None else t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: d(loss)/d(t) into ``t.grad`` for each tensor the tape reaches.

    Every tensor the tape reads starts the sweep with ``grad`` None, takes its first
    contribution as is and adds later ones; intermediate gradients are freed once their
    record is processed, so only tensors no record outputs keep theirs, such as Parameters;
    a rule may give None for a frozen input (a gather from a frozen table), which then takes
    no gradient. Gradients are not checked for finiteness here: ``sgd_step`` and
    ``grad_check`` check the ones they use.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
    if len(tape) == 0:
        raise ShapeMismatch("backward on an empty tape")
    for _, inputs, _ in tape._records:
        for t in inputs:
            t.grad = None
    loss.grad = np.ones_like(loss.data)
    for out, inputs, fn in reversed(tape._records):
        if out.grad is None:
            continue
        for t, g in zip(inputs, fn(out.grad)):
            if g is not None:
                _accumulate(t, g)
        out.grad = None


def sgd_step(params: Sequence[Parameter], learning_rate: float) -> None:
    """value <- value - lr * grad, then drop grad; a parameter without one is left as is.
    All or nothing: a non-finite gradient raises NonFiniteValue before any value moves."""
    params = [p for p in params if p.grad is not None]
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NonFiniteValue(f"non-finite gradient for {p.name}")
    for p in params:
        p.data -= learning_rate * p.grad
        p.zero_grad()


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


# Rows per BLAS call in every forward product; see the determinism notes.
# 64 is the default batch size of training and of encode_batch, so a default
# batch's recurrent step is one gemm; a lone row pays for 63 zero rows.
_ROW_TILE = 64


def _pad_rows(a: np.ndarray) -> np.ndarray:
    pad = -a.shape[0] % _ROW_TILE
    return np.concatenate([a, np.zeros((pad, a.shape[1]), dtype=a.dtype)]) if pad else a


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a @ b as one gemm per _ROW_TILE rows of a, all of the same shape; the
    # zero rows padding the last tile are sliced off again.
    out = _pad_rows(a).reshape(-1, _ROW_TILE, a.shape[1]) @ b
    return out.reshape(-1, out.shape[-1])[: len(a)]


def _transposed(a: np.ndarray) -> np.ndarray:
    # a.T, C-contiguous, copied _ROW_TILE rows at a time (one strided copy thrashes the cache)
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for lo in range(0, len(a), _ROW_TILE):
        out[:, lo : lo + _ROW_TILE] = a[lo : lo + _ROW_TILE].T
    return out


def _tmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a.T @ b, a sum over the rows of a and b, with that axis zero-padded to
    # a multiple of _ROW_TILE; see the determinism notes.
    return _pad_rows(a).T @ _pad_rows(b)


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a @ b."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-D operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {ad.shape} vs {bd.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out_d = _check_finite(_mm(ad, bd), "matmul")
    return _out(tape, out_d, (a, b), lambda g: (g @ bd.T, _tmm(ad, g)))


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a vector broadcast over leading axes."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape and not (bd.ndim == 1 and ad.ndim >= 1 and ad.shape[-1] == bd.shape[0]):
        raise ShapeMismatch(f"add shapes {ad.shape} and {bd.shape}")
    with np.errstate(over="ignore"):
        out_d = _check_finite(ad + bd, "add")
    lead = ad.ndim - bd.ndim
    return _out(tape, out_d, (a, b), lambda g: (g, g.sum(axis=tuple(range(lead))) if lead else g))


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeMismatch(f"mul shapes {ad.shape} and {bd.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out_d = _check_finite(ad * bd, "mul")
    return _out(tape, out_d, (a, b), lambda g: (g * bd, g * ad))


def concat(tape: Tape | None, parts: Sequence[Tensor], axis: int) -> Tensor:
    out_d = _check_finite(np.concatenate([p.data for p in parts], axis=axis), "concat")
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return _out(tape, out_d, tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))


def _select(tape: Tape | None, x: Tensor, axis: int, start: int, stop: int, keep_axis: bool) -> Tensor:
    """Entries [start, stop) along ``axis``, or entry ``start`` without the axis unless
    ``keep_axis``; the backward rule scatters g into zeros."""
    if start < 0 or stop > x.data.shape[axis]:
        raise ShapeMismatch(f"[{start}:{stop}] out of range along axis {axis} of {x.data.shape}")
    idx = [slice(None)] * x.data.ndim  # a list, so a negative axis counts from the end
    idx[axis] = slice(start, stop) if keep_axis else start
    idx = tuple(idx)

    def back(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return _out(tape, x.data[idx], (x,), back)


def narrow(tape: Tape | None, x: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice of ``size`` entries along ``axis`` starting at ``start``."""
    return _select(tape, x, axis, start, start + size, keep_axis=True)


def pick(tape: Tape | None, x: Tensor, axis: int, index: int) -> Tensor:
    """Select one entry along ``axis``, dropping that axis."""
    return _select(tape, x, axis, index, index + 1, keep_axis=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # overflow-free: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with
    # no branch; elementwise, so value-deterministic
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(tape: Tape | None, x: Tensor) -> Tensor:
    out_d = _check_finite(_sigmoid(x.data), "sigmoid")
    return _out(tape, out_d, (x,), lambda g: (g * (out_d * (1.0 - out_d)),))


def tanh(tape: Tape | None, x: Tensor) -> Tensor:
    out_d = _check_finite(np.tanh(x.data), "tanh")
    return _out(tape, out_d, (x,), lambda g: (g * (1.0 - out_d * out_d),))


# Hidden width from which an untaped ``bilstm`` runs its two directions on
# two threads. At H=32 a step is mostly Python, and two threads measured
# slower. Taped calls stay on one thread: at H=256 a threaded training step
# held both directions' temporary arrays at once, and peak memory rose by a
# sixth.
_PARALLEL_HIDDEN = 512


def _each_direction(threaded: bool, run: Callable[[int], object]) -> list:
    """[run(0), run(1)]. When ``threaded``, run(1) runs on a thread of its own
    while this one runs run(0); this returns or raises only once both have
    finished, and an exception reaches the caller unchanged (run(0)'s, if
    both raise)."""
    if not threaded:
        return [run(0), run(1)]
    outcome = []  # run(1)'s (result, None), or (None, the exception it raised)

    def other():
        try:
            outcome.append((run(1), None))
        except BaseException as e:
            outcome.append((None, e))

    thread = threading.Thread(target=other, name="bilstm")
    thread.start()
    try:
        first = run(0)
    finally:
        thread.join()
    second, error = outcome.pop()
    if error is not None:
        raise error
    return [first, second]


def _lstm_forward(x: np.ndarray, at, active: list[int], w: np.ndarray, u: np.ndarray, b: np.ndarray,
                  out: np.ndarray, keep: bool):
    """One direction from a zero state over the rows ``at`` of x (positions, d),
    which are packed time-major: step s takes the next ``active[s]``
    positions, one per sentence still running (a non-increasing count), so
    its sentences are the first ``active[s]`` of step s - 1's. Per step
    pre = x W^T + b + h U^T, c = f * c + i * g, h = o * tanh(c), gates
    (i, f, o, g); each h is written to its row of ``out`` (positions, H).

    With ``keep`` it returns what ``_lstm_backward`` reads, one row per packed
    position: the (N, d) inputs, the (N, 4H) gate activations, and the
    (N, H) cells, tanh(cells) and states. Without, it returns None and holds
    only the current c and h; from ``_PARALLEL_HIDDEN`` on, where the other
    direction runs at the same time, it also projects the inputs a whole
    tile of rows at a time as the steps reach them, not the whole sequence
    at once.
    """
    hidden = u.shape[1]
    wt, ut = _transposed(w), _transposed(u)
    # from the threaded width on, an untaped call projects rows in whole tiles as
    # the steps reach them, each row once; every other call, all rows at step 0
    tiled = not keep and hidden >= _PARALLEL_HIDDEN
    if keep:
        kept = [np.empty((len(at), hidden), dtype=x.dtype) for _ in range(3)]
    h = c = np.zeros((active[0], hidden), dtype=x.dtype)
    lo = first = projected = 0  # acts holds the projections of rows first..projected
    for n in active:
        hi = lo + n
        with np.errstate(over="ignore", invalid="ignore"):
            if hi > projected:
                tiles = -(-(hi - projected) // _ROW_TILE)
                end = min(len(at), projected + tiles * _ROW_TILE) if tiled else len(at)
                xs = x[at[projected:end]]
                more = _mm(xs, wt)
                more += b
                acts = np.concatenate([acts[lo - first :], more]) if lo < projected else more
                first, projected = lo, end
            a = acts[lo - first : hi - first]
            a += _mm(h[:n], ut)
        _check_finite(a, "bilstm")
        a[:, : 3 * hidden] = _sigmoid(a[:, : 3 * hidden])
        np.tanh(a[:, 3 * hidden :], out=a[:, 3 * hidden :])
        i, f, o, g = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
        cell, tc, state = (s[lo:hi] for s in kept) if keep else (None, None, None)
        c = np.multiply(f, c[:n], out=cell)
        c += i * g
        h = np.multiply(o, np.tanh(c, out=tc), out=state)
        out[at[lo:hi]] = h
        lo = hi
    return (xs, acts, *kept) if keep else None


def _lstm_backward(dstates: np.ndarray, active: list[int], w: np.ndarray | None, u: np.ndarray, saved):
    """Backpropagation through time for one direction over what ``_lstm_forward``
    kept: (dxp, dw, du, db), dxp (N, d) like the packed inputs, or None without ``w``."""
    xp, acts, cells, tcs, states = saved
    hidden = u.shape[1]
    dproj = np.empty_like(acts)
    h_prev = np.zeros_like(states)  # each position's state one step earlier
    dh_next = dc_next = f_next = acts[:0, :hidden]  # nothing flows back past the last step
    hi = len(acts)
    for s in reversed(range(len(active))):
        lo = hi - active[s]
        c_prev = 0.0  # step 0 starts from the zero state
        if s:
            prev = slice(lo - active[s - 1], hi - active[s - 1])  # the same rows one step earlier
            h_prev[lo:hi], c_prev = states[prev], cells[prev]
        i, f, o, g = (acts[lo:hi, k * hidden : (k + 1) * hidden] for k in range(4))
        tc = tcs[lo:hi]
        # products grouped as the primitives' backward rules group them; rows
        # past the next step's count have no later step to receive from
        m = len(dh_next)
        dh = dstates[lo:hi].copy()
        dh[:m] += dh_next
        dc = (dh * o) * (1.0 - tc * tc)
        dc[:m] += dc_next * f_next
        dpre = dproj[lo:hi]
        dpre[:, :hidden] = (dc * g) * (i * (1.0 - i))
        dpre[:, hidden : 2 * hidden] = (dc * c_prev) * (f * (1.0 - f))
        dpre[:, 2 * hidden : 3 * hidden] = (dh * tc) * (o * (1.0 - o))
        dpre[:, 3 * hidden :] = (dc * i) * (1.0 - g * g)
        dh_next = dpre @ u
        dc_next, f_next = dc, f
        hi = lo
    return None if w is None else dproj @ w, _tmm(dproj, xp), _tmm(dproj, h_prev), dproj.sum(axis=0)


def bilstm(
    tape: Tape | None, x: Tensor, lengths: np.ndarray, fwd: Sequence[Tensor], bwd: Sequence[Tensor]
) -> Tensor:
    """Bidirectional LSTM over a padded (batch, T, d) input: (batch, T, 2H) states.

    ``fwd`` and ``bwd`` are each a direction's (w, u, b): input weights
    (4H, d), recurrent weights (4H, H) and bias (4H,). Each row runs for its
    own ``lengths[r]`` steps and no further: ``out[r, t]`` is the forward
    state after the prefix up to t, then the backward state after the
    suffix from t, for t < lengths[r], and exactly 0 at the padded
    positions. The whole op is one tape record.

    Rows are sorted by length, longest first, and each direction's real
    positions are packed time-major, so step s works on one contiguous block
    of the rows still running and no step computes padding. From
    ``_PARALLEL_HIDDEN`` on, an untaped call runs the two directions on two
    threads.
    """
    xd = x.data
    lengths = _check_lengths(xd.shape, lengths)
    bsz, t, d = xd.shape
    hidden = fwd[1].data.shape[-1]
    shapes = ((4 * hidden, d), (4 * hidden, hidden), (4 * hidden,))
    for weights in (fwd, bwd):
        if tuple(p.data.shape for p in weights) != shapes:
            raise ShapeMismatch(f"bilstm (w, u, b) {[p.data.shape for p in weights]}, want {shapes}")

    order = np.argsort(-lengths, kind="stable")
    steps, pos = np.nonzero(lengths[order][None, :] > np.arange(t)[:, None])
    rows = order[pos]
    active = np.bincount(steps).tolist()  # rows still running at each step
    # each direction's packed positions, as indices row * T + time of the rows
    # of the input and output seen as (batch * T, features)
    where = (rows * t + steps, rows * t + lengths[rows] - 1 - steps)

    out_d = np.zeros((bsz, t, 2 * hidden), dtype=xd.dtype)
    keep = tape is not None  # a bool: a closure holding the tape makes a cycle
    frozen_x = keep and x in tape.frozen

    def forward(k):
        w, u, b = (fwd, bwd)[k]
        half = out_d.reshape(-1, 2 * hidden)[:, k * hidden : (k + 1) * hidden]
        return _lstm_forward(xd.reshape(-1, d), where[k], active, w.data, u.data, b.data, half, keep)

    saved = _each_direction(not keep and hidden >= _PARALLEL_HIDDEN, forward)

    def back(g):
        dx = None if frozen_x else np.zeros(xd.shape, dtype=xd.dtype)  # a frozen input takes no gradient
        grads = []
        for k, (w, u, _) in enumerate((fwd, bwd)):
            dstates = g.reshape(-1, 2 * hidden)[where[k], k * hidden : (k + 1) * hidden]
            dxp, *dwub = _lstm_backward(dstates, active, None if frozen_x else w.data, u.data, saved[k])
            if dx is not None:
                dx.reshape(-1, d)[where[k]] += dxp  # dx is C order, so the reshape is a view
            grads += dwub
        return (dx, *grads)

    return _out(tape, out_d, (x, *fwd, *bwd), back)


def log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-stable (log-probabilities, probabilities) over the last axis, no tape.

    Log-probabilities come from max-shifted logits, so no exp overflows and
    no log of an underflowed probability is taken.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    return shifted - np.log(z), e / z


def softmax_cross_entropy(
    tape: Tape | None, logits: Tensor, labels: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Fused stable softmax + mean cross-entropy over the batch.

    Returns the scalar loss tensor and the (batch, classes) probability
    matrix, both from ``log_softmax``.
    """
    ld = logits.data
    if ld.ndim != 2 or len(ld) == 0:
        raise ShapeMismatch(f"logits must be 2-D with at least one row, got {ld.shape}")
    n, c = ld.shape
    labels = _ints(labels, 0, c, f"labels, one per row of {ld.shape} logits,", (n,))
    logp, probs = log_softmax(ld)
    loss_val = -logp[np.arange(n), labels].mean()
    out_d = _check_finite(np.asarray(loss_val, dtype=ld.dtype), "softmax_cross_entropy")

    def back(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0  # probs - onehot(labels)
        return (d * (g / n),)

    return _out(tape, out_d, (logits,), back), probs


def max_over_time(tape: Tape | None, x: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-row masked max over axis 1 of a (batch, time, features) tensor.

    Positions at or beyond each row's length are excluded, so padding can
    never leak into the pooled output (``bilstm`` holds 0 there, which would
    beat a feature that is negative at every real position). Ties go to the
    earliest maximal position, which alone receives the gradient. Each
    length must lie in [1, T]: a max over no position is undefined.
    """
    lengths = _check_lengths(x.data.shape, lengths)
    b, t, k = x.data.shape
    mask = np.arange(t)[None, :] >= lengths[:, None]  # True where padded
    masked = x.data.copy()
    masked[mask] = -np.inf
    am = np.argmax(masked, axis=1)  # (b, k)
    out_d = _check_finite(np.take_along_axis(x.data, am[:, None, :], axis=1)[:, 0, :], "max_over_time")

    def back(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, am[:, None, :], g[:, None, :], axis=1)
        return (gx,)

    return _out(tape, out_d, (x,), back)


def rows(tape: Tape | None, table: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding lookup: rows of a 2-D (V, d) table by integer indices in [0, V), never a boolean mask."""
    if table.data.ndim != 2:
        raise ShapeMismatch(f"rows needs a 2-D table, got {table.data.shape}")
    indices = _ints(indices, 0, len(table.data), "rows indices")

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, indices, g)
        return (gt,)

    return _out(tape, table.data[indices], (table,), back)


def stack(tape: Tape | None, parts: Sequence[Tensor], axis: int) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    n = len(parts)
    return _out(tape, np.stack([p.data for p in parts], axis=axis), tuple(parts),
                lambda g: tuple(np.take(g, i, axis=axis) for i in range(n)))


def reshape(tape: Tape | None, x: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = x.data.shape
    return _out(tape, x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),))


def _ints(values, lo: int, hi: int, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as int64; ShapeMismatch unless they are integers of a type int64 holds (so
    not uint64, nor booleans, which numpy reads as a mask) in [lo, hi), of ``shape`` if given."""
    values = np.asarray(values)
    if (values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.int64)
            or shape not in (None, values.shape) or np.any((values < lo) | (values >= hi))):
        raise ShapeMismatch(f"{what} must be integers in [{lo}, {hi}), got {values.dtype} {values.shape}")
    return values.astype(np.int64, copy=False)


def _check_lengths(shape: tuple[int, ...], lengths) -> np.ndarray:
    """``lengths`` as int64; ShapeMismatch unless ``shape`` is a (batch, T, features) input
    with at least one row and ``lengths`` holds one length in [1, T] per row."""
    if len(shape) != 3 or shape[0] == 0:
        raise ShapeMismatch(f"lengths need a (batch, T, features) input with a row, got {shape}")
    return _ints(lengths, 1, shape[1] + 1, f"lengths, one per row of a {shape} input,", shape[:1])


def reverse_within(tape: Tape | None, x: Tensor, lengths: np.ndarray) -> Tensor:
    """Reverse each row's first ``lengths[b]`` steps along axis 1; tail unchanged.

    The index map is an involution, so the backward rule is the same gather
    applied to the incoming gradient.
    """
    lengths = _check_lengths(x.data.shape, lengths)[:, None]
    ar = np.arange(x.data.shape[1])[None, :]
    rev = np.arange(len(lengths))[:, None], np.where(ar < lengths, lengths - 1 - ar, ar)
    return _out(tape, x.data[rev], (x,), lambda g: (g[rev],))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    model_loss: Callable[[Tape | None], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    samples: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients to central finite differences.

    ``model_loss(tape)`` must rebuild the forward computation from the
    parameters' current values; it is called once with a fresh tape for the
    analytic gradients and twice per sampled coordinate with ``tape=None``
    for the numeric estimate (L(th+eps) - L(th-eps)) / 2 eps.

    Relative error per coordinate is |a - f| / max(1e-8, |a| + |f|); the
    worst over all sampled coordinates is returned. Parameters must be
    float64: central differences need the headroom.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-4]")
    if samples < 1:
        raise ValueError(f"samples {samples} < 1 would check no coordinate")
    for p in params:
        if p.value.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, {p.name} is {p.value.dtype}")
    if rng is None:
        rng = np.random.default_rng(0)

    for p in params:
        p.zero_grad()
    tape = Tape()
    loss = model_loss(tape)
    backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p, a in zip(params, analytic):
        # the worst-error scan below cannot see a NaN: max(0.0, nan) is 0.0
        if not np.isfinite(a).all():
            raise NonFiniteValue(f"non-finite gradient for {p.name}")
        p.zero_grad()

    sizes = np.array([p.value.size for p in params])
    total = int(sizes.sum())
    n = min(samples, total)
    flat_choice = rng.choice(total, size=n, replace=False)
    bounds = np.cumsum(sizes)

    worst = 0.0
    for flat in flat_choice:
        pi = int(np.searchsorted(bounds, flat, side="right"))
        local = int(flat - (bounds[pi - 1] if pi > 0 else 0))
        p = params[pi]
        orig = p.value.flat[local]
        p.value.flat[local] = orig + eps
        lp = model_loss(None).data.item()
        p.value.flat[local] = orig - eps
        lm = model_loss(None).data.item()
        p.value.flat[local] = orig
        numeric = (lp - lm) / (2.0 * eps)
        a = float(analytic[pi].flat[local])
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    return worst
