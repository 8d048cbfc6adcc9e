"""Truncated Taylor jet arithmetic.

A jet stores plain derivative values (not divided by factorials) along axis
0: ``f[m]`` is the m-th derivative of f at the expansion point.  Trailing
axes are free, so the same kernels serve scalar jets of shape (M+1, N) and
vector jets of shape (M+1, N, 3) vectorized over N sample points.  Products
and quotients follow the Leibniz rule; quotient, square root, sin/cos, exp,
log and constant powers use the standard triangular recurrences (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  Binary operations
truncate to the shorter operand.  The row kernels give one row of a
product from the rows below it, for the ODE curves' recurrences, so every
Leibniz sum and binomial of the package is formed in this module.

The kernels accumulate each output row in place, from one scratch row per
call, but their arithmetic is fixed: the terms of a Leibniz sum are added
in ascending j, each product grouped (C * a) * b, and the components of a
dot product summed (x + y) + z starting from +0.0, as np.sum sums three.
A binomial that is 1, C(m, 0) or C(m, m), is not multiplied at all: that
is exact, since (1 * a) * b is a * b bit for bit.
So every output, a row kernel's included, is bit-identical to the
written-out loop forms (tests/test_taylor.py keeps them as an oracle).
That is a contract, not a nicety: the figures check compares artifacts
with a slack at rounding level, and a reordered sum moves their last bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jet_mul", "jet_div", "jet_recip", "jet_sqrt", "jet_sin_cos", "jet_exp",
    "jet_log", "jet_pow", "jet_dot", "jet_cross", "jet_mul_row",
    "jet_cross_row", "jet_deflate", "arclength_derivative",
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


def _shape(f, g):
    """np.broadcast_shapes of two arrays, skipped when their shapes agree."""
    if f.shape == g.shape:
        return f.shape
    return np.broadcast_shapes(f.shape, g.shape)


def _degree(f) -> int:
    """Index of the last row of the jet f with a nonzero value, 0 if none.

    The rows past it are zero, as for a polynomial of that degree (an
    affine argument such as 5*t has degree 1), so the recurrences sum only
    the terms within it.  The terms they skip are exact zeros, so their
    sums are unchanged.
    """
    for d in range(len(f) - 1, 0, -1):
        if f[d].any():
            return d
    return 0


def _term(out, m, j, a, b):
    """out = (_C[m, j] * a) * b, grouped as in the written-out sums; a
    binomial of 1 (j = 0 or m) skips its multiply."""
    if 0 < j < m:
        np.multiply(_C[m, j], a, out=out)
        out *= b
    else:
        np.multiply(a, b, out=out)
    return out


def _fold(row, term, op, m, js, a, b, k):
    """row = op(row, _C[m, j] * a[j] * b[k - j]) for j in js, in that order.

    Each product is formed by _term in the scratch row term, so a term
    costs no temporaries.
    """
    for j in js:
        op(row, _term(term, m, j, a[j], b[k - j]), out=row)


def jet_mul(f, g):
    f, g = _match(f, g)
    return _product(f, g, _degree(f), _degree(g))


def jet_mul_row(f, g, m, out=None):
    """Row m of jet_mul(f, g) from rows 0..m of f and g, into out if given;
    the degrees that bound its terms are those rows', not the whole jets'."""
    f, g = _match(f[: m + 1], g[: m + 1])
    row = np.empty(_shape(f, g)[1:]) if out is None else out
    return _mul_row(f, g, m, _degree(f), _degree(g), row, np.empty_like(row))


def _mul_row(f, g, m, df, dg, row, term):
    """Row m of the product of jets of degrees df and dg, summed in row."""
    lo, hi = max(0, m - dg), min(m, df)
    if lo > hi:                                 # past df + dg
        row[...] = 0.0
    else:
        _term(row, m, lo, f[lo], g[m - lo])
        _fold(row, term, np.add, m, range(lo + 1, hi + 1), f, g, m)
    return row


def _product(f, g, df, dg):
    """Leibniz product of two jets of one length, of degrees df and dg."""
    out = np.zeros(_shape(f, g))
    term = np.empty(out.shape[1:])
    for m in range(min(len(f), df + dg + 1)):
        _mul_row(f, g, m, df, dg, out[m, ...], term)
    return out


def jet_div(f, g):
    f, g = _match(f, g)
    out = np.empty(_shape(f, g))
    term = np.empty(out.shape[1:])
    for m in range(len(f)):
        row = out[m, ...]
        row[...] = f[m]
        _fold(row, term, np.subtract, m, range(m), out, g, m)
        row /= g[0]
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
    twice = 2.0 * out[0]
    term = np.empty_like(out[0, ...])
    for m in range(1, _orders(len(f))):
        row = out[m, ...]
        row[...] = f[m]
        _fold(row, term, np.subtract, m, range(1, m), out, out, m)
        row /= twice
    return out


def jet_sin_cos(u):
    """Jets of sin(u) and cos(u) from the jet of the phase u."""
    u = np.asarray(u)
    s = np.empty_like(u)
    c = np.empty_like(u)
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])
    du = _degree(u)
    term = np.empty_like(u[0, ...])
    for m in range(_orders(len(u)) - 1):
        js = range(max(0, m + 1 - du), m + 1)
        row_s, row_c = s[m + 1, ...], c[m + 1, ...]
        row_s[...] = 0.0
        row_c[...] = 0.0
        _fold(row_s, term, np.add, m, js, c, u, m + 1)
        _fold(row_c, term, np.add, m, js, s, u, m + 1)
        np.negative(row_c, out=row_c)
    return s, c


def jet_exp(f):
    """Jet of exp(f), from exp(f)' = f' exp(f)."""
    f = np.asarray(f)
    out = np.empty_like(f)
    out[0] = np.exp(f[0])
    df = _degree(f)
    term = np.empty_like(out[0, ...])
    for m in range(_orders(len(f)) - 1):
        row = _term(out[m + 1, ...], m, 0, f[1], out[m])
        js = range(1, min(m, df - 1) + 1)
        _fold(row, term, np.add, m, js, f[1:], out, m)
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
    term, other = np.empty_like(base), np.empty_like(base)
    for m in range(len(f) - 1):
        row = out[m + 1, ...]
        np.multiply(p, f[1], out=row)
        row *= out[m]
        for j in range(1, min(m, df) + 1):
            # _C[m, j] * (p f[j+1] out[m-j] - f[j] out[m+1-j])
            np.multiply(p, f[j + 1], out=term)
            term *= out[m - j]
            np.multiply(f[j], out[m + 1 - j], out=other)
            term -= other
            if j < m:
                term *= _C[m, j]
            row += term
        row /= base
        np.copyto(row, 0.0 if m + 1 < p else np.nan, where=zero)
    return out


def jet_dot(f, g):
    """Scalar-product jet of two vector jets."""
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    shape = _shape(f, g)
    out = np.empty(shape[:-1])
    prod = np.empty(shape[1:])
    term = np.empty(shape[1:-1])
    x, y, z = prod[..., 0], prod[..., 1], prod[..., 2]
    for k in range(m):
        row = out[k, ...]
        for j in range(k + 1):
            _term(prod, k, j, f[j], g[k - j])
            acc = term if j else row            # term 0 lands in the row
            np.add(x, y, out=acc)
            acc += z
            if j:
                row += term
        # each component sum of np.sum starts from +0.0; adding it once
        # turns only an all -0.0 row into +0.0, as those sums did
        row += 0.0
    return out


def _cross(f, g, out=None):
    """np.cross of 3-vectors on the last axis, bit for bit: the same
    products and differences in the same order, without its set-up cost."""
    if out is None:
        out = np.empty(_shape(f, g), dtype=np.result_type(f, g))
    f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
    g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
    for i, (a, b, c, d) in enumerate(((f1, g2, f2, g1), (f2, g0, f0, g2),
                                      (f0, g1, f1, g0))):
        np.multiply(a, b, out=out[..., i])
        out[..., i] -= c * d
    return out


def jet_cross(f, g):
    m = _orders(min(len(f), len(g)))
    f, g = np.asarray(f)[:m], np.asarray(g)[:m]
    out = np.empty(_shape(f, g))
    for k in range(m):
        jet_cross_row(f, g, k, out[k, ...])
    return out


def jet_cross_row(f, g, m, out=None):
    """Row m of jet_cross(f, g) from rows 0..m of f and g, into out if given;
    the binomials C(m, 0) and C(m, m) are 1 and multiply nothing."""
    row = _cross(f[0], g[m], out=out)
    term = np.empty_like(row)
    for j in range(1, m + 1):
        _cross(f[j], g[m - j], out=term)
        if j < m:
            term *= _C[m, j]
        row += term
    return row


def jet_deflate(f, j):
    """Jet of j! f / (t - t0)^j, for an f that vanishes to order j at t0:
    row i is f[i + j] / C(i + j, j)."""
    f = np.asarray(f)
    c = _C[j: _orders(len(f)), j]
    return f[j:] / c.reshape(c.shape + (1,) * (f.ndim - 1))


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
