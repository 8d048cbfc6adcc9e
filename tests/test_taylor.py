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
