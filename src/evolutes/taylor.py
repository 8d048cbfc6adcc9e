"""Truncated Taylor jet arithmetic.

A jet stores plain derivative values (not divided by factorials) along axis
0: ``f[m]`` is the m-th derivative of f at the expansion point.  Trailing
axes are free, so the same kernels serve scalar jets of shape (M+1, N) and
vector jets of shape (M+1, N, 3) vectorized over N sample points.  Products
and quotients follow the Leibniz rule; quotient, square root, sin/cos, exp,
log and constant powers use the standard triangular recurrences (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  Binary operations
truncate to the shorter operand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jet_mul", "jet_div", "jet_recip", "jet_sqrt", "jet_sin_cos", "jet_exp",
    "jet_log", "jet_pow", "jet_dot", "jet_cross", "arclength_derivative",
    "antiderivative_jet",
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


def _degree(f) -> int:
    """Index of the last row of the jet f with a nonzero value, 0 if none.

    The rows past it are zero, as for a polynomial of that degree (an
    affine argument such as 5*t has degree 1), so the recurrences sum only
    the terms within it.  The terms they skip are exact zeros, so their
    sums are unchanged.
    """
    live = np.flatnonzero(f.reshape(len(f), -1).any(axis=1))
    return int(live[-1]) if len(live) else 0


def jet_mul(f, g):
    f, g = _match(f, g)
    return _product(f, g, _degree(f), _degree(g))


def _product(f, g, df, dg):
    """Leibniz product of two jets of one length, of degrees df and dg."""
    out = np.zeros(np.broadcast_shapes(f.shape, g.shape))
    for m in range(min(len(f), df + dg + 1)):
        lo, hi = max(0, m - dg), min(m, df)
        acc = _C[m, lo] * f[lo] * g[m - lo]
        for j in range(lo + 1, hi + 1):
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
    du = _degree(u)
    for m in range(_orders(len(u)) - 1):
        acc_s = 0.0
        acc_c = 0.0
        for j in range(max(0, m + 1 - du), m + 1):
            acc_s = acc_s + _C[m, j] * c[j] * u[m + 1 - j]
            acc_c = acc_c + _C[m, j] * s[j] * u[m + 1 - j]
        s[m + 1] = acc_s
        c[m + 1] = -acc_c
    return s, c


def jet_exp(f):
    """Jet of exp(f), from exp(f)' = f' exp(f)."""
    f = np.asarray(f)
    out = np.empty_like(f)
    out[0] = np.exp(f[0])
    df = _degree(f)
    for m in range(_orders(len(f)) - 1):
        acc = _C[m, 0] * f[1] * out[m]
        for j in range(1, min(m, df - 1) + 1):
            acc = acc + _C[m, j] * f[j + 1] * out[m - j]
        out[m + 1] = acc
    return out


def jet_log(f):
    """Jet of log(f), from log(f)' = f' / f."""
    f = np.asarray(f)
    out = np.empty_like(f)
    out[0] = np.log(f[0])
    out[1:] = jet_div(f[1:], f[:-1])
    return out


def jet_pow(f, p: float):
    """Jet of f**p for a constant exponent p.

    A non-negative integer p takes repeated products, exact where f
    vanishes.  Any other p takes the recurrence f (f**p)' = p f' f**p, which
    divides by f[0]; where f[0] is 0, f**p vanishes to order p, so its rows
    below p are 0 and those past p are nan.  The value row is
    np.power(f[0], p) in every case.
    """
    f = np.asarray(f)
    top = _orders(len(f)) - 1
    if p >= 0.0 and float(p).is_integer():
        # repeated squaring; a product's degree is at most the sum of its
        # factors' degrees
        out, d_out = None, 0
        base, d_base, n = f, _degree(f), int(p)
        while n:
            if n & 1:
                if out is None:
                    out, d_out = base, d_base
                else:
                    out = _product(out, base, d_out, d_base)
                    d_out = min(d_out + d_base, top)
            n >>= 1
            if n:
                base = _product(base, base, d_base, d_base)
                d_base = min(2 * d_base, top)
        out = np.zeros_like(f) if out is None else out.copy()
        out[0] = np.power(f[0], p)
        return out
    out = np.empty_like(f)
    out[0] = np.power(f[0], p)
    zero = f[0] == 0.0
    base = np.where(zero, 1.0, f[0])
    df = _degree(f)
    for m in range(len(f) - 1):
        acc = p * f[1] * out[m]
        for j in range(1, min(m, df) + 1):
            acc = acc + _C[m, j] * (p * f[j + 1] * out[m - j]
                                    - f[j] * out[m + 1 - j])
        out[m + 1] = np.where(zero, 0.0 if m + 1 < p else np.nan, acc / base)
    return out


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


def _cross(f, g):
    """np.cross of 3-vectors on the last axis, bit for bit: the same
    products and differences in the same order, without its set-up cost."""
    out = np.empty(np.broadcast_shapes(f.shape, g.shape),
                   dtype=np.result_type(f, g))
    f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
    g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
    np.subtract(f1 * g2, f2 * g1, out=out[..., 0])
    np.subtract(f2 * g0, f0 * g2, out=out[..., 1])
    np.subtract(f0 * g1, f1 * g0, out=out[..., 2])
    return out


def jet_cross(f, g):
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for k in range(m):
        acc = _C[k, 0] * _cross(f[0], g[k])
        for j in range(1, k + 1):
            acc = acc + _C[k, j] * _cross(f[j], g[k - j])
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
