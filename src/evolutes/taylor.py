"""Truncated Taylor jet arithmetic.

A jet stores plain derivative values (not divided by factorials) along axis
0: ``f[m]`` is the m-th derivative of f at the expansion point.  Trailing
axes are free, so the same kernels serve scalar jets of shape (M+1, N) and
vector jets of shape (M+1, N, 3) vectorized over N sample points.  Products
and quotients follow the Leibniz rule; quotient, square root, and sin/cos
use the standard triangular recurrences.  Binary operations truncate to the
shorter operand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jet_mul", "jet_div", "jet_recip", "jet_sqrt", "jet_sin_cos",
    "jet_dot", "jet_cross", "arclength_derivative", "antiderivative_jet",
]

_MAX_ORDER = 48
_C = np.zeros((_MAX_ORDER + 1, _MAX_ORDER + 1))
_C[:, 0] = 1.0
for _m in range(1, _MAX_ORDER + 1):
    _C[_m, 1:] = _C[_m - 1, 1:] + _C[_m - 1, :-1]
del _m


def _orders(m: int) -> int:
    """m jet entries, if the binomial table covers them."""
    if m > _MAX_ORDER + 1:
        raise ValueError(f"jet order {m - 1} exceeds the maximum {_MAX_ORDER}")
    return m


def _match(f, g):
    """Trim to the shorter order; lift a scalar jet against a vector jet."""
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    if f.ndim == g.ndim - 1:
        f = f[..., None]
    elif g.ndim == f.ndim - 1:
        g = g[..., None]
    return f, g


def jet_mul(f, g):
    f, g = _match(f, g)
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for m in range(len(f)):
        acc = _C[m, 0] * f[0] * g[m]
        for j in range(1, m + 1):
            acc = acc + _C[m, j] * f[j] * g[m - j]
        out[m] = acc
    return out


def jet_div(f, g):
    f, g = _match(f, g)
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for m in range(len(f)):
        acc = f[m]
        for j in range(m):
            acc = acc - _C[m, j] * out[j] * g[m - j]
        out[m] = acc / g[0]
    return out


def jet_recip(g):
    g = np.asarray(g)
    one = np.zeros_like(g)
    one[0] = 1.0
    return jet_div(one, g)


def jet_sqrt(f):
    f = np.asarray(f)
    out = np.empty_like(f)
    out[0] = np.sqrt(f[0])
    for m in range(1, _orders(len(f))):
        acc = f[m]
        for j in range(1, m):
            acc = acc - _C[m, j] * out[j] * out[m - j]
        out[m] = acc / (2.0 * out[0])
    return out


def jet_sin_cos(u):
    """Jets of sin(u) and cos(u) from the jet of the phase u."""
    u = np.asarray(u)
    s = np.empty_like(u)
    c = np.empty_like(u)
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])
    for m in range(_orders(len(u)) - 1):
        acc_s = 0.0
        acc_c = 0.0
        for j in range(m + 1):
            acc_s = acc_s + _C[m, j] * c[j] * u[m + 1 - j]
            acc_c = acc_c + _C[m, j] * s[j] * u[m + 1 - j]
        s[m + 1] = acc_s
        c[m + 1] = -acc_c
    return s, c


def jet_dot(f, g):
    """Scalar-product jet of two vector jets."""
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    out = np.empty(np.broadcast_shapes(f.shape, g.shape)[:-1])
    for k in range(m):
        acc = np.sum(_C[k, 0] * f[0] * g[k], axis=-1)
        for j in range(1, k + 1):
            acc = acc + np.sum(_C[k, j] * f[j] * g[k - j], axis=-1)
        out[k] = acc
    return out


def jet_cross(f, g):
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for k in range(m):
        acc = _C[k, 0] * np.cross(f[0], g[k])
        for j in range(1, k + 1):
            acc = acc + _C[k, j] * np.cross(f[j], g[k - j])
        out[k] = acc
    return out


def arclength_derivative(f, speed):
    """Jet of df/ds given the jet of f and the speed jet, one order lower."""
    f = np.asarray(f)
    return jet_div(f[1:], np.asarray(speed)[: len(f) - 1])


def antiderivative_jet(anchor, g):
    """Jet of G with G' = g and G(t0) = anchor, one order higher than g."""
    g = np.asarray(g)
    out = np.empty((len(g) + 1,) + g.shape[1:])
    out[0] = anchor
    out[1:] = g
    return out
