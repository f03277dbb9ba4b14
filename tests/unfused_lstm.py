"""The bidirectional LSTM composed from numcore primitives.

This is the value and gradient oracle for the fused ``nc.bilstm``: the same
arithmetic, taped as a prefix reversal, projection and per-step cell (about
sixteen primitive records per step) for each direction, then a
concatenation, with every backward rule coming from the primitives' own.
It runs every row through the padding too, so its states agree with
``nc.bilstm``'s at real positions only (``nc.bilstm`` holds 0 elsewhere).
"""

import numpy as np

from fakesent import numcore as nc
from synthetic import constant


def transpose(tape, x):
    """x.T of a 2-D tensor; the gradient goes back transposed."""
    return nc._out(tape, x.data.T, (x,), lambda g: (g.T,))


def lstm_cell(tape, pre_x, h_prev, c_prev, u):
    """One step from the input projection pre_x = W x_t + b; returns (h_t, c_t)."""
    hidden = u.data.shape[1]
    pre = nc.add(tape, pre_x, nc.matmul(tape, h_prev, transpose(tape, u)))
    i = nc.sigmoid(tape, nc.narrow(tape, pre, 1, 0, hidden))
    f = nc.sigmoid(tape, nc.narrow(tape, pre, 1, hidden, hidden))
    o = nc.sigmoid(tape, nc.narrow(tape, pre, 1, 2 * hidden, hidden))
    g = nc.tanh(tape, nc.narrow(tape, pre, 1, 3 * hidden, hidden))
    c = nc.add(tape, nc.mul(tape, f, c_prev), nc.mul(tape, i, g))
    h = nc.mul(tape, o, nc.tanh(tape, c))
    return h, c


def lstm_sequence_unfused(tape, proj, u):
    """One direction's (batch, T, H) states from a zero state, given the
    (batch, T, 4H) input projections."""
    b, t, _ = proj.data.shape
    zeros = np.zeros((b, u.data.shape[1]), dtype=proj.data.dtype)
    h, c = constant(zeros), constant(zeros.copy())
    states = []
    for step in range(t):
        h, c = lstm_cell(tape, nc.pick(tape, proj, axis=1, index=step), h, c, u)
        states.append(h)
    return nc.stack(tape, states, axis=1)


def bilstm_unfused(tape, x, lengths, fwd, bwd):
    """Drop-in for ``nc.bilstm``: (batch, T, 2H) states of both directions."""
    b, t, d = x.data.shape
    halves = []
    for (w, u, bias), reverse in ((fwd, False), (bwd, True)):
        xs = nc.reverse_within(tape, x, lengths) if reverse else x
        proj = nc.add(tape, nc.matmul(tape, nc.reshape(tape, xs, (b * t, d)), transpose(tape, w)), bias)
        states = lstm_sequence_unfused(tape, nc.reshape(tape, proj, (b, t, w.data.shape[0])), u)
        halves.append(nc.reverse_within(tape, states, lengths) if reverse else states)
    return nc.concat(tape, halves, axis=2)


def assert_grads_close(params, grads, oracle_grads):
    """Each gradient within 64 ulps of the oracle's largest entry: ``nc.bilstm``
    sums over the batch in sorted, packed order, the oracle over padded rows in
    input order, so the two may differ in the last bits."""
    for p, a, b in zip(params, grads, oracle_grads):
        assert a.dtype == b.dtype, p.name
        np.testing.assert_allclose(a, b, rtol=0, atol=64 * np.finfo(a.dtype).eps * np.abs(b).max(), err_msg=p.name)
