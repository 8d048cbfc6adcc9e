"""Taylor-jet kernels against sympy derivatives.

A jet here is an array of plain derivatives f, f', f'', ... stacked on the
leading axis; kernels must reproduce the derivatives of products, quotients,
square roots, trig pairs, exp, log, constant powers, and arclength
reparametrizations.
"""
import numpy as np
import pytest
import sympy as sp

from evolutes.frenet import FrenetEval
from evolutes.taylor import (_cross, antiderivative_jet, arclength_derivative,
                             jet_cross, jet_div, jet_dot, jet_exp, jet_log,
                             jet_mul, jet_pow, jet_recip, jet_sin_cos,
                             jet_sqrt)

_T = sp.Symbol("t")


def _jet_of(expr, ts, order):
    rows = []
    cur = expr
    for _ in range(order + 1):
        rows.append(sp.lambdify(_T, cur, "numpy")(ts) + 0.0 * ts)
        cur = sp.diff(cur, _T)
    return np.stack(rows)


TS = np.linspace(0.4, 1.9, 7)
ORDER = 6

F = _T ** 3 + 2 * _T - 1
G = sp.sin(_T) + sp.Rational(3, 2)

H = 3 * _T - 1          # affine: every row past the first derivative is 0

FJ = _jet_of(F, TS, ORDER)
GJ = _jet_of(G, TS, ORDER)
HJ = _jet_of(H, TS, ORDER)


def _close(a, b, tol=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    scale = 1.0 + np.abs(b).max()
    assert np.max(np.abs(a - b)) <= tol * scale


def test_jet_mul():
    _close(jet_mul(FJ, GJ), _jet_of(F * G, TS, ORDER))


def test_jet_div_and_recip():
    _close(jet_div(FJ, GJ), _jet_of(F / G, TS, ORDER))
    _close(jet_recip(GJ), _jet_of(1 / G, TS, ORDER))


def test_jet_sqrt():
    _close(jet_sqrt(GJ), _jet_of(sp.sqrt(G), TS, ORDER))


def test_jet_sin_cos():
    s, c = jet_sin_cos(FJ)
    _close(s, _jet_of(sp.sin(F), TS, ORDER))
    _close(c, _jet_of(sp.cos(F), TS, ORDER))
    s, c = jet_sin_cos(HJ)
    _close(s, _jet_of(sp.sin(H), TS, ORDER))
    _close(c, _jet_of(sp.cos(H), TS, ORDER))


def test_jet_exp_and_log():
    _close(jet_exp(FJ), _jet_of(sp.exp(F), TS, ORDER))
    _close(jet_exp(HJ), _jet_of(sp.exp(H), TS, ORDER))
    _close(jet_log(GJ), _jet_of(sp.log(G), TS, ORDER))


@pytest.mark.parametrize("p", [0, 1, 3, sp.Rational(5, 2), -2])
def test_jet_pow(p):
    for base, jet in ((G, GJ), (H, HJ)):
        _close(jet_pow(jet, float(p)), _jet_of(base ** p, TS, ORDER))


def test_jet_pow_of_a_zero_base():
    # f = t + t^2 at t = 0: f^2.5 vanishes to order 2.5
    f = np.array([0.0, 1.0, 2.0, 0.0, 0.0])
    out = jet_pow(f, 2.5)
    assert np.array_equal(out[:3], np.zeros(3))
    assert np.isnan(out[3:]).all()
    assert np.array_equal(jet_pow(f, 3.0)[:4], [0.0, 0.0, 0.0, 6.0])


def test_mismatched_lengths_truncate():
    out = jet_mul(FJ[:3], GJ)
    assert out.shape[0] == 3
    _close(out, _jet_of(F * G, TS, 2))


def test_vector_jets_dot_and_cross():
    comps = (F, G, F * G)
    vec = np.stack([_jet_of(c, TS, ORDER) for c in comps], axis=-1)
    other = np.stack([_jet_of(c, TS, ORDER) for c in (G, F, F + G)], axis=-1)
    dot_ref = _jet_of(sum(a * b for a, b in
                          zip(comps, (G, F, F + G))), TS, ORDER)
    _close(jet_dot(vec, other), dot_ref)
    # cross(a, b) = (a2 b3 - a3 b2, a3 b1 - a1 b3, a1 b2 - a2 b1)
    want = np.stack([_jet_of(sp.expand(c), TS, ORDER) for c in (
        G * (F + G) - (F * G) * F,
        (F * G) * G - F * (F + G),
        F * F - G * G,
    )], axis=-1)
    got = jet_cross(vec, other)
    _close(got, want, tol=1e-8)


def test_arclength_derivative_chain():
    # d/ds f = f' / speed where speed = dsigma/dt
    speed = GJ
    dfds = arclength_derivative(FJ, speed)
    want = _jet_of(sp.diff(F, _T) / G, TS, ORDER - 1)
    _close(dfds, want)
    # second application gives d2/ds2
    d2 = arclength_derivative(dfds, speed)
    want2 = _jet_of(sp.diff(sp.diff(F, _T) / G, _T) / G, TS, ORDER - 2)
    _close(d2, want2)


def test_antiderivative_jet_rows():
    anchor = np.cos(TS)
    out = antiderivative_jet(anchor, FJ)
    assert out.shape[0] == FJ.shape[0] + 1
    _close(out[0], anchor, tol=0)
    _close(out[1:], FJ, tol=0)


def test_orders_beyond_the_binomial_table_raise_value_error(helix):
    with pytest.raises(ValueError, match="maximum 48"):
        jet_mul(np.ones(60), np.ones(60))
    with pytest.raises(ValueError, match="maximum 48"):
        FrenetEval(helix, 0.5, order=60).sigma
    assert len(jet_mul(np.ones(49), np.ones(49))) == 49


@pytest.mark.parametrize("shapes", [((4, 1, 3), (4, 1, 3)),
                                    ((5, 2049, 3), (5, 2049, 3)),
                                    ((2049, 3), (5, 2049, 3))])
def test_cross_kernel_is_bit_identical_to_np_cross(shapes):
    rng = np.random.default_rng(11)
    f, g = (rng.normal(size=s) * 10.0 ** rng.integers(-8, 8, size=s)
            for s in shapes)
    for a in (f, g):
        a.flat[rng.choice(a.size, 4, replace=False)] = [np.inf, -np.inf,
                                                        np.nan, 0.0]
    with np.errstate(invalid="ignore"):      # inf * 0 and inf - inf
        assert np.array_equal(_cross(f, g), np.cross(f, g), equal_nan=True)


# ------------------------------------------------------------------------
# Bit-identity oracle.  The kernels are in-place rewrites of the written-out
# Leibniz sums below (the loop forms they replaced): the same products, the
# same grouping, the same order of terms, and components summed as np.sum
# sums them.  Every output must match to the bit, including the sign of
# zeros, infinities and nan, because the figures check compares artifacts
# at rounding level.

from evolutes.taylor import _C, _MAX_ORDER, _match, _orders  # noqa: E402


def _ref_degree(f):
    live = np.flatnonzero(f.reshape(len(f), -1).any(axis=1))
    return int(live[-1]) if len(live) else 0


def _ref_mul(f, g):
    f, g = _match(f, g)
    return _ref_product(f, g, _ref_degree(f), _ref_degree(g))


def _ref_product(f, g, df, dg):
    out = np.zeros(np.broadcast_shapes(f.shape, g.shape))
    for m in range(min(len(f), df + dg + 1)):
        lo, hi = max(0, m - dg), min(m, df)
        acc = _C[m, lo] * f[lo] * g[m - lo]
        for j in range(lo + 1, hi + 1):
            acc = acc + _C[m, j] * f[j] * g[m - j]
        out[m] = acc
    return out


def _ref_div(f, g):
    f, g = _match(f, g)
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for m in range(len(f)):
        acc = f[m]
        for j in range(m):
            acc = acc - _C[m, j] * out[j] * g[m - j]
        out[m] = acc / g[0]
    return out


def _ref_recip(g):
    one = np.zeros_like(g)
    one[0] = 1.0
    return _ref_div(one, g)


def _ref_sqrt(f):
    out = np.empty_like(f)
    out[0] = np.sqrt(f[0])
    for m in range(1, _orders(len(f))):
        acc = f[m]
        for j in range(1, m):
            acc = acc - _C[m, j] * out[j] * out[m - j]
        out[m] = acc / (2.0 * out[0])
    return out


def _ref_sin_cos(u):
    s = np.empty_like(u)
    c = np.empty_like(u)
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])
    du = _ref_degree(u)
    for m in range(_orders(len(u)) - 1):
        acc_s = 0.0
        acc_c = 0.0
        for j in range(max(0, m + 1 - du), m + 1):
            acc_s = acc_s + _C[m, j] * c[j] * u[m + 1 - j]
            acc_c = acc_c + _C[m, j] * s[j] * u[m + 1 - j]
        s[m + 1] = acc_s
        c[m + 1] = -acc_c
    return s, c


def _ref_exp(f):
    out = np.empty_like(f)
    out[0] = np.exp(f[0])
    df = _ref_degree(f)
    for m in range(_orders(len(f)) - 1):
        acc = _C[m, 0] * f[1] * out[m]
        for j in range(1, min(m, df - 1) + 1):
            acc = acc + _C[m, j] * f[j + 1] * out[m - j]
        out[m + 1] = acc
    return out


def _ref_log(f):
    out = np.empty_like(f)
    out[0] = np.log(f[0])
    out[1:] = _ref_div(f[1:], f[:-1])
    return out


def _ref_pow(f, p):
    top = _orders(len(f)) - 1
    if p >= 0.0 and float(p).is_integer():
        out, d_out = None, 0
        base, d_base, n = f, _ref_degree(f), int(p)
        while n:
            if n & 1:
                if out is None:
                    out, d_out = base, d_base
                else:
                    out = _ref_product(out, base, d_out, d_base)
                    d_out = min(d_out + d_base, top)
            n >>= 1
            if n:
                base = _ref_product(base, base, d_base, d_base)
                d_base = min(2 * d_base, top)
        out = np.zeros_like(f) if out is None else out.copy()
        out[0] = np.power(f[0], p)
        return out
    out = np.empty_like(f)
    out[0] = np.power(f[0], p)
    zero = f[0] == 0.0
    base = np.where(zero, 1.0, f[0])
    df = _ref_degree(f)
    for m in range(len(f) - 1):
        acc = p * f[1] * out[m]
        for j in range(1, min(m, df) + 1):
            acc = acc + _C[m, j] * (p * f[j + 1] * out[m - j]
                                    - f[j] * out[m + 1 - j])
        out[m + 1] = np.where(zero, 0.0 if m + 1 < p else np.nan, acc / base)
    return out


def _ref_dot(f, g):
    m = _orders(min(len(f), len(g)))
    f, g = f[:m], g[:m]
    out = np.empty(np.broadcast_shapes(f.shape, g.shape)[:-1])
    for k in range(m):
        acc = np.sum(_C[k, 0] * f[0] * g[k], axis=-1)
        for j in range(1, k + 1):
            acc = acc + np.sum(_C[k, j] * f[j] * g[k - j], axis=-1)
        out[k] = acc
    return out


def _ref_cross3(f, g):
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
    g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
    np.subtract(f1 * g2, f2 * g1, out=out[..., 0])
    np.subtract(f2 * g0, f0 * g2, out=out[..., 1])
    np.subtract(f0 * g1, f1 * g0, out=out[..., 2])
    return out


def _ref_cross(f, g):
    m = _orders(min(len(f), len(g)))
    f, g = f[:m], g[:m]
    out = np.empty(np.broadcast_shapes(f.shape, g.shape))
    for k in range(m):
        acc = _C[k, 0] * _ref_cross3(f[0], g[k])
        for j in range(1, k + 1):
            acc = acc + _C[k, j] * _ref_cross3(f[j], g[k - j])
        out[k] = acc
    return out


_POWERS = (0.0, 1.0, 2.0, 3.0, 5.0, 0.5, 2.5, -0.5, -2.0)
_ORACLES = {
    "mul": (jet_mul, _ref_mul, 2),
    "div": (jet_div, _ref_div, 2),
    "recip": (jet_recip, _ref_recip, 1),
    "sqrt": (jet_sqrt, _ref_sqrt, 1),
    "sin_cos": (jet_sin_cos, _ref_sin_cos, 1),
    "exp": (jet_exp, _ref_exp, 1),
    "log": (jet_log, _ref_log, 1),
    "dot": (jet_dot, _ref_dot, 2),
    "cross": (jet_cross, _ref_cross, 2),
}
_VECTOR = ("dot", "cross")


def _random_jet(rng, shape):
    """Values over ten decades and both signs, with -0.0, +0.0, +-inf and
    nan sprinkled in; some jets end in zero rows (a polynomial of a lower
    degree), some have a whole row of -0.0."""
    jet = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    hit = rng.random(shape) < 0.08
    jet[hit] = rng.choice(specials, size=int(hit.sum()))
    roll = rng.random()
    if roll < 0.25:
        jet[rng.integers(1, 3):] = 0.0          # affine or quadratic
    elif roll < 0.4:
        jet[rng.integers(len(jet))] = -0.0
    return jet


def _same(got, want):
    if isinstance(want, tuple):                 # jet_sin_cos
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same(a, b)
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    # zeros and infinities keep their signs; a nan's sign is left open by
    # IEEE 754, and numpy's scalar and array loops propagate different ones
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def _operands(rng, name, rows, lift):
    """Operands for a kernel: one-point (rows,) or (rows, 3) jets, jets over
    4 points, and for the binary scalar kernels a scalar jet lifted against
    a vector jet, as jet_div(d1, v) and jet_mul(k, T) are called."""
    out = []
    for points in ((), (4,)):
        vec = (3,) if name in _VECTOR else ()
        shape = (rows, *points, *vec)
        out.append((_random_jet(rng, shape), _random_jet(rng, shape)))
    if lift and name not in _VECTOR:
        s, v = _random_jet(rng, (rows, 4)), _random_jet(rng, (rows, 4, 3))
        out += [(v, s), (s, v)]
    return out


def _refusal(kernel, *args):
    """The message of the ValueError a kernel raises, '' if it returns."""
    try:
        kernel(*args)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_kernels_are_bit_identical_to_the_loop_forms(name):
    new, ref, arity = _ORACLES[name]
    rng = np.random.default_rng(sorted(_ORACLES).index(name))
    with np.errstate(all="ignore"):
        for order in range(_MAX_ORDER + 1):
            for f, g in _operands(rng, name, order + 1, arity == 2):
                args = (f, g)[:arity]
                _same(new(*args), ref(*args))
        # orders past the table raise where the loop forms raised (jet_log
        # takes one row more, as its quotient is one order lower), and a
        # truncating product does not look past the shorter operand
        for rows in (_MAX_ORDER + 2, _MAX_ORDER + 3):
            f, g = _operands(rng, name, rows, False)[1]
            raised = [_refusal(fn, *(f, g)[:arity]) for fn in (new, ref)]
            assert raised[0] == raised[1]
        assert "maximum 48" in raised[0]
        if arity == 2:
            _same(new(f[:7], g), ref(f[:7], g))


@pytest.mark.parametrize("p", _POWERS)
def test_jet_pow_is_bit_identical_to_the_loop_form(p):
    rng = np.random.default_rng(int(10 * p) + 100)
    with np.errstate(all="ignore"):
        for order in range(_MAX_ORDER + 1):
            for f, _ in _operands(rng, "pow", order + 1, False):
                _same(jet_pow(f, p), _ref_pow(f, p))
                f[0, ...] = np.where(rng.random(f[0].shape) < 0.5, 0.0, f[0])
                _same(jet_pow(f, p), _ref_pow(f, p))      # zero bases
        with pytest.raises(ValueError, match="maximum 48"):
            jet_pow(np.ones(_MAX_ORDER + 2), p)


def test_jet_dot_sums_an_all_negative_zero_term_to_plus_zero():
    # np.sum of three -0.0 products is +0.0, where (x + y) + z is -0.0
    f = np.ones((3, 2, 3))
    g = np.full((3, 2, 3), -0.0)
    g[:, 1] = [1.0, -2.0, 0.5]
    f[1, 1] = -0.0
    for a, b in ((f, g), (g, f)):
        _same(jet_dot(a, b), _ref_dot(a, b))
    assert not np.signbit(jet_dot(f, g)[:, 0]).any()
