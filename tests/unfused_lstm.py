"""The LSTM recurrence composed step by step from numcore primitives.

This is the value and gradient oracle for the fused ``nc.lstm_sequence``:
the same arithmetic, taped as about sixteen primitive records per step,
with every backward rule coming from the primitives' own.
"""

import numpy as np

from fakesent import numcore as nc


def lstm_cell(tape, pre_x, h_prev, c_prev, u):
    """One step from the input projection pre_x = W x_t + b; returns (h_t, c_t)."""
    hidden = u.data.shape[1]
    pre = nc.add(tape, pre_x, nc.matmul(tape, h_prev, u, transpose_b=True))
    i = nc.sigmoid(tape, nc.narrow(tape, pre, 1, 0, hidden))
    f = nc.sigmoid(tape, nc.narrow(tape, pre, 1, hidden, hidden))
    o = nc.sigmoid(tape, nc.narrow(tape, pre, 1, 2 * hidden, hidden))
    g = nc.tanh(tape, nc.narrow(tape, pre, 1, 3 * hidden, hidden))
    c = nc.add(tape, nc.mul(tape, f, c_prev), nc.mul(tape, i, g))
    h = nc.mul(tape, o, nc.tanh(tape, c))
    return h, c


def lstm_sequence_unfused(tape, proj, u):
    """Drop-in for ``nc.lstm_sequence``: (batch, T, H) states from zero state."""
    b, t, _ = proj.data.shape
    zeros = np.zeros((b, u.data.shape[1]), dtype=proj.data.dtype)
    h, c = nc.constant(zeros), nc.constant(zeros.copy())
    states = []
    for step in range(t):
        h, c = lstm_cell(tape, nc.pick(tape, proj, axis=1, index=step), h, c, u)
        states.append(h)
    return nc.stack(tape, states, axis=1)
