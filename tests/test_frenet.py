"""Frenet apparatus against a fully symbolic oracle and helix closed forms.

The symbolic route differentiates the curve components with sympy and builds
curvature, torsion, and the sphere-rate function from scratch, so it shares
no code with the jet pipeline under test.
"""
import math

import numpy as np
import pytest
import sympy as sp

from evolutes import preset
from evolutes.curves import ExprCurve
from evolutes.errors import CuspPoint, DegenerateCurvature
from evolutes.frenet import (FrenetEval, indicatrix_geodesic_curvature,
                             is_congruent, regular_eval, sigma_values,
                             total_absolute_torsion, total_curvature,
                             total_torsion)

_T = sp.Symbol("t")
_KNOT = ("(1 + 0.15*cos(5*t))*cos(t)",
         "(1 + 0.15*cos(5*t))*sin(t)",
         "-0.15*sin(5*t)")


def _symbolic_invariants(components):
    xi = sp.Matrix([sp.sympify(c.replace("^", "**"), locals={"t": _T})
                    for c in components])
    d1, d2, d3 = (xi.diff(_T, m) for m in (1, 2, 3))
    v = sp.sqrt(d1.dot(d1))
    cr = d1.cross(d2)
    w = sp.sqrt(cr.dot(cr))
    k = w / v**3
    tau = cr.dot(d3) / cr.dot(cr)
    r = 1 / k
    rr = (r.diff(_T) / v) / tau
    sigma = r * tau + rr.diff(_T) / v
    return sp.lambdify(_T, [v, k, tau, sigma], "numpy")


def test_invariants_match_symbolic_oracle(knot):
    oracle = _symbolic_invariants(_KNOT)
    ts = np.array([0.21, 0.9, 2.3, 3.85, 5.5])
    fe = FrenetEval(knot, ts, order=5)
    v, k, tau, sigma = oracle(ts)
    np.testing.assert_allclose(fe.v[0], v, rtol=1e-10)
    np.testing.assert_allclose(fe.k[0], k, rtol=1e-9)
    np.testing.assert_allclose(fe.tau[0], tau, rtol=1e-9)
    np.testing.assert_allclose(fe.sigma[0], sigma, rtol=1e-7, atol=1e-9)


def test_helix_closed_forms(helix):
    ts = np.linspace(0.3, 6.0, 11)
    fe = FrenetEval(helix, ts, order=5)
    np.testing.assert_allclose(fe.k[0], 0.5, atol=1e-12)
    np.testing.assert_allclose(fe.tau[0], 0.5, atol=1e-12)
    np.testing.assert_allclose(fe.v[0], math.sqrt(2.0), atol=1e-12)
    # T = (-sin t, cos t, 1)/sqrt2, N = (-cos t, -sin t, 0)
    T = np.stack([-np.sin(ts), np.cos(ts), np.ones_like(ts)],
                 axis=-1) / math.sqrt(2.0)
    N = np.stack([-np.cos(ts), -np.sin(ts), np.zeros_like(ts)], axis=-1)
    np.testing.assert_allclose(fe.T[0], T, atol=1e-12)
    np.testing.assert_allclose(fe.N[0], N, atol=1e-12)
    np.testing.assert_allclose(fe.B[0], np.cross(T, N), atol=1e-12)
    # constant radius, so the spherical radius rate vanishes identically
    np.testing.assert_allclose(fe.r_s[0], 0.0, atol=1e-12)
    # sigma = r tau for a curve of constant radius
    np.testing.assert_allclose(fe.sigma[0], 1.0, atol=1e-11)


def test_frame_derivative_rows():
    # rows of fe.T are t-derivatives of the unit tangent
    c = __import__("evolutes").preset("elliptical-helix")
    ts = np.array([0.7, 2.1, 4.9])
    fe = FrenetEval(c, ts, order=4)
    h = 1e-6
    fd = (FrenetEval(c, ts + h, order=2).T[0]
          - FrenetEval(c, ts - h, order=2).T[0]) / (2 * h)
    np.testing.assert_allclose(fe.T[1], fd, atol=1e-6)


def test_frenet_at_reports_degeneracies():
    cusp = __import__("evolutes").preset("cusp-curve")
    with pytest.raises(CuspPoint):
        regular_eval(cusp, 0.0, order=4)
    from evolutes.curves import ExprCurve
    line = ExprCurve("t, 2*t, 3*t", (0.0, 1.0))
    with pytest.raises(DegenerateCurvature):
        regular_eval(line, 0.5, order=4)


@pytest.mark.parametrize("components, cusps, ts, error, reason, t", [
    # at t = 0 the speed vanishes and k is undefined; a declared cusp there
    # is named first
    ("t^2, t^3, t^4", (0.0,), [0.5, 0.0, -0.5], CuspPoint,
     "curve has a cusp", 0.0),
    ("t^2, t^3, t^4", (), [0.5, 0.0, -0.5], CuspPoint, "speed vanishes", 0.0),
    # every parameter of a line is flat: the first one is named
    ("t, 2*t, 3*t", (), [0.7, 0.2], DegenerateCurvature,
     "curvature vanishes", 0.7),
])
def test_regular_eval_raises_at_the_first_irregular_parameter(
        components, cusps, ts, error, reason, t):
    curve = ExprCurve(components, (-1.0, 1.0), cusps=cusps)
    with pytest.raises(error) as err:
        regular_eval(curve, np.array(ts), order=2)
    assert err.value.reason == reason and err.value.t == t


def test_regular_eval_of_regular_parameters(cusp_curve):
    fe = regular_eval(cusp_curve, np.array([-0.5, 0.5]), order=2)
    assert fe.k.shape == (1, 2) and np.all(fe.k[0] > 0.0)


def test_sigma_undefined_where_torsion_vanishes(fig8):
    t = math.pi / 4.0
    assert abs(regular_eval(fig8, t, order=4).tau[0, 0]) < 1e-12
    assert math.isnan(sigma_values(fig8, t)[0])


def test_totals_on_helix(helix):
    want = math.pi * math.sqrt(2.0)
    assert abs(total_curvature(helix) - want) < 1e-10
    assert abs(total_torsion(helix) - want) < 1e-10


def test_total_torsion_signed_vs_absolute(fig8):
    # figure-eight torsion integrates to zero by symmetry
    assert abs(total_torsion(fig8)) < 1e-9
    assert total_absolute_torsion(fig8) > 1.0


def test_total_absolute_torsion_through_a_torsion_pole():
    # t^2, t^3, t^4: tau ~ 4/(3t) at the cusp, where the speed vanishes;
    # |tau| v is even, so the total is twice the integral over [0, 1]
    x, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * (x + 1.0)
    rate = (48.0 * np.sqrt(4.0 + 9.0 * t**2 + 16.0 * t**4)
            / (144.0 * t**4 + 256.0 * t**2 + 36.0))
    want = float(w @ rate)
    assert abs(want - 2.7959035902220792) < 1e-14
    got = total_absolute_torsion(preset("cusp-curve"))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("start", [0.1, 0.37])
def test_total_absolute_torsion_with_zeros_inside_panels(fig8, start):
    # shifting the period moves the torsion zeros off the panel edges
    shifted = ExprCurve(fig8.components, (start, start + 2.0 * math.pi),
                        closed=True)
    want = total_absolute_torsion(fig8)
    assert abs(total_absolute_torsion(shifted) - want) < 1e-12


def test_congruence_detects_rigid_motion(knot):
    from evolutes.curves import ExprCurve
    # rotate 90 degrees about z and translate
    moved = ExprCurve(
        "-(1 + 0.15*cos(5*t))*sin(t) + 2, (1 + 0.15*cos(5*t))*cos(t) - 1,"
        " -0.15*sin(5*t) + 0.5",
        knot.domain, closed=True)
    verdict = is_congruent(knot, moved)
    assert verdict.congruent and not verdict.mirror
    assert verdict.max_deviation < 1e-9

    mirrored = ExprCurve(
        "(1 + 0.15*cos(5*t))*cos(t), (1 + 0.15*cos(5*t))*sin(t),"
        " 0.15*sin(5*t)",
        knot.domain, closed=True)
    flipped = is_congruent(knot, mirrored)
    assert flipped.congruent and flipped.mirror


def test_indicatrix_geodesic_curvature_of_helix_is_one(helix):
    ts = np.linspace(0.2, 6.0, 9)
    np.testing.assert_allclose(indicatrix_geodesic_curvature(helix, ts), 1.0,
                               atol=1e-12)
