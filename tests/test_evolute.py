"""Osculating-sphere evolute: closed forms, identities, and the sphere-fit
oracle.

The 4-point sphere fit is the independent route: fitting a sphere through
four nearby curve points by a linear solve must converge to the jet-computed
osculating sphere as the points coalesce.
"""
import math

import numpy as np
import pytest

from evolutes import preset
from evolutes.curves import EPS_TAU, ExprCurve, FrenetODECurve
from evolutes.errors import CuspPoint
from evolutes.evolute import (EvoluteCurve, conformal_torsion,
                              evolute_curvature_torsion,
                              evolute_singularities, interior_sign,
                              osculating_circle, osculating_circles_disjoint,
                              osculating_sphere, second_evolute_residual)
from evolutes.frenet import FrenetEval
from evolutes.taylor import arclength_derivative, jet_mul


def _fit_sphere(points):
    # |P|^2 = 2 c.P + d  is linear in (c, d)
    P = np.asarray(points)
    A = np.hstack([2.0 * P, np.ones((4, 1))])
    rhs = np.sum(P * P, axis=1)
    sol = np.linalg.solve(A, rhs)
    center = sol[:3]
    radius = math.sqrt(sol[3] + center @ center)
    return center, radius


def test_osculating_sphere_matches_four_point_fit(knot):
    for t in (0.35, 1.8, 4.2):
        center, radius = osculating_sphere(knot, t)
        errs = []
        for h in (3e-3, 1e-3, 3e-4):
            fit_c, fit_r = _fit_sphere(knot.point([t - h, t, t + h,
                                                   t + 2 * h]))
            assert abs(fit_r - radius) < 0.2 * h * (1 + radius)
            errs.append(np.linalg.norm(fit_c - center))
        # first-order contact error: shrinks with h and is already small
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-4 * (1 + radius)


def test_helix_evolute_closed_form(helix):
    # r = 2, dr/ds = 0: e = xi + 2 N = (-cos t, -sin t, t)
    ts = np.linspace(0.0, 6.2, 32)
    want = np.stack([-np.cos(ts), -np.sin(ts), ts], axis=-1)
    np.testing.assert_allclose(EvoluteCurve(helix).point(ts), want,
                               atol=1e-10)


def test_cusp_curve_evolute_stays_bounded(cusp_curve):
    # (t^2, t^3, t^4) has an ordinary cusp at 0 but its evolute tends to a
    # finite point on the z axis
    near = EvoluteCurve(cusp_curve).point(np.array([-1e-5, 1e-5]))
    np.testing.assert_allclose(near[0], near[1], atol=1e-3)
    np.testing.assert_allclose(near[0], [0.0, 0.0, 0.5], atol=1e-3)


def test_evolute_tangent_is_binormal(knot):
    ts = np.linspace(0.15, 6.0, 21)
    ev = EvoluteCurve(knot)
    jets = ev.derivatives(ts, 1)
    fe = FrenetEval(knot, ts, order=5)
    # e'(t) = sigma v B
    want = (fe.sigma[0] * fe.v[0])[:, None] * fe.B[0]
    np.testing.assert_allclose(jets[1], want, atol=1e-8)


def test_sphere_radius_rate_identity(knot):
    # (R^2)' = 2 (dr/ds / tau) sigma with ' the arclength derivative
    ts = np.linspace(0.1, 6.1, 41)
    fe = FrenetEval(knot, ts, order=5)
    m = len(fe.rr)
    R2 = jet_mul(fe.r, fe.r)[:m] + jet_mul(fe.rr, fe.rr)
    lhs = arclength_derivative(R2, fe.v)[0]
    rhs = 2.0 * fe.rr[0] * fe.sigma[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(rhs).max()))


def test_evolute_invariants_dual_route(knot):
    # closed forms |tau/sigma|, k/sigma against the Frenet apparatus of the
    # evolute treated as a plain curve
    ts = np.linspace(0.3, 5.9, 17)
    k_e, tau_e = evolute_curvature_torsion(knot, ts)
    fe = FrenetEval(EvoluteCurve(knot), ts, order=3)
    np.testing.assert_allclose(fe.k[0], k_e, rtol=1e-7)
    np.testing.assert_allclose(fe.tau[0], tau_e, rtol=1e-7)


def test_interior_sign_against_sphere_distance(ell_helix):
    # positive sign means the curve leaves its osculating sphere locally
    ts = np.array([0.3, 0.6, 1.2, 2.0, 2.6, 3.2])
    signs = interior_sign(ell_helix, ts)
    assert set(signs.tolist()) == {-1.0, 1.0}
    for t, sign in zip(ts, signs):
        center, radius = osculating_sphere(ell_helix, t)
        gaps = [np.linalg.norm(ell_helix.point(t + h) - center) - radius
                for h in (-0.12, -0.08, 0.08, 0.12)]
        assert all(math.copysign(1.0, g) == sign for g in gaps), (t, gaps)


def test_conformal_torsion_of_helix(helix):
    ts = np.linspace(0.1, 6.0, 13)
    want = 2.0 ** (-7.5)
    np.testing.assert_allclose(conformal_torsion(helix, ts), want,
                               atol=1e-12)


def test_second_evolute_residual_vanishes_for_constant_curvature(helix):
    ts = np.linspace(0.2, 6.0, 15)
    np.testing.assert_allclose(second_evolute_residual(helix, ts), 0.0,
                               atol=1e-8)


def test_second_evolute_residual_detects_generic_curve(knot):
    res = second_evolute_residual(knot, np.linspace(0.3, 1.2, 7))
    assert np.max(np.abs(res)) > 1e-2


def test_spherical_curve_evolute_is_a_point(spherical):
    pts = EvoluteCurve(spherical).point(np.linspace(0.1, 6.1, 64))
    spread = np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1))
    assert spread < 1e-9


def test_evolute_cusps_of_elliptical_helix(ell_helix):
    _, cusps = evolute_singularities(ell_helix)
    np.testing.assert_allclose(
        cusps, [0.79928884, 2.34230381, 3.94088149, 5.48389647], atol=1e-6)


def test_evolute_escapes_of_figure_eight(fig8):
    escapes, _ = evolute_singularities(fig8)
    want = np.array([1.0, 3.0, 5.0, 7.0]) * math.pi / 4.0
    np.testing.assert_allclose(escapes, want, atol=1e-9)


def _sigma_pair(gap):
    # unit speed and tau = 1, so sigma = r + r'' = (t - 0.7)^2 - gap
    return FrenetODECurve(f"1/((t-0.7)^2-2-{gap}+5*cos(t-0.7))", "1",
                          (0.0, 1.0))


@pytest.mark.xfail(reason=(
    "the sigma zeros 0.7 +- 1e-4 lie inside one interval of the scan "
    "(width 4.9e-4), at whose ends sigma has one sign, so no cusp is "
    "found and the swallowtail is drawn as a smooth arc"))
def test_close_sigma_zeros_inside_one_scan_interval():
    _, cusps = evolute_singularities(_sigma_pair("1e-8"))
    np.testing.assert_allclose(cusps, [0.7 - 1e-4, 0.7 + 1e-4], atol=1e-6)


def test_sigma_zeros_four_scan_intervals_apart_are_cusps():
    _, cusps = evolute_singularities(_sigma_pair("1e-6"))
    np.testing.assert_allclose(cusps, [0.7 - 1e-3, 0.7 + 1e-3], atol=1e-6)


def test_evolute_rows_at_torsion_zeros_are_nan(fig8):
    # the sphere center is at infinity where tau vanishes: nan in every
    # order, and finite rows between the zeros
    ts = np.array([1.0, 3.0, 5.0, 7.0]) * math.pi / 4.0
    assert np.all(np.abs(FrenetEval(fig8, ts, order=3).tau[0]) <= EPS_TAU)
    jets = EvoluteCurve(fig8).derivatives(np.append(ts, 0.1), 2)
    assert np.isnan(jets[:, :4]).all()
    assert np.isfinite(jets[:, 4]).all()


def test_osculating_circle_values(helix):
    center, radius, normal = osculating_circle(helix, 0.0)
    np.testing.assert_allclose(center, [-1.0, 0.0, 0.0], atol=1e-12)
    assert abs(radius - 2.0) < 1e-12
    np.testing.assert_allclose(np.abs(normal @ np.array([0.0, -1.0, 1.0])
                                      / math.sqrt(2.0)), 1.0, atol=1e-12)


def test_nearby_osculating_circles_are_disjoint(knot, helix):
    for curve in (knot, helix):
        a, b = curve.domain
        delta = 1e-2 * (b - a)
        for t0 in np.linspace(a + 0.1, b - 0.1, 12):
            assert osculating_circles_disjoint(curve, float(t0), delta)
        assert osculating_circles_disjoint(curve, 1.0, 0.0)


def _frame(curve, ts):
    """Point, T, N, B and k at ts, straight from the raw derivatives."""
    x = curve.derivatives(ts, 2)
    speed = np.linalg.norm(x[1], axis=-1)
    c = np.cross(x[1], x[2])
    T = x[1] / speed[:, None]
    B = c / np.linalg.norm(c, axis=-1)[:, None]
    return x[0], T, np.cross(B, T), B, np.linalg.norm(c, axis=-1) / speed**3


def _sampled_circles_disjoint(curve, t0, delta):
    # 4096 points of each circle; it misses a neighbour's osculating plane
    # when their signed distances to that plane share one sign
    a, b = curve.domain
    p, T, N, _, k = _frame(curve, t0)
    r = (1.0 / k)[:, None, None]
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)[:, None]
    circle = (p[:, None] + r * N[:, None]
              + r * (np.cos(theta) * T[:, None] + np.sin(theta) * N[:, None]))
    out = np.ones(len(t0), dtype=bool)
    for t1 in (t0 - delta, t0 + delta):
        if curve.closed:
            t1 = a + (t1 - a) % (b - a)
        q, _, _, n1, _ = _frame(curve, np.clip(t1, a, b))
        side = np.einsum("ijk,ik->ij", circle - q[:, None], n1)
        out &= ((side > 0).all(axis=1) | (side < 0).all(axis=1)
                | (t1 < a) | (t1 > b))
    return out


@pytest.mark.parametrize("delta", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("name", ["torus-knot", "helix", "elliptical-helix"])
def test_circle_check_agrees_with_sampled_circles(name, delta):
    # the knot is closed and wraps at both ends; the helices are open, so
    # neighbours of their end probes fall outside the domain
    curve = preset(name)
    t0 = np.linspace(*curve.domain, 40)
    got = osculating_circles_disjoint(curve, t0, delta)
    np.testing.assert_array_equal(
        got, _sampled_circles_disjoint(curve, t0, delta))
    if delta == 1.0 and name != "helix":
        assert 0 < np.count_nonzero(got) < len(t0)


def test_neighbours_past_the_ends_wrap_or_drop(knot):
    # probes within delta of the ends: the closed knot wraps their outer
    # neighbours round, an open copy of it ignores them
    open_knot = ExprCurve(knot.components, knot.domain)
    a, b = knot.domain
    t0 = np.concatenate([np.linspace(a, a + 1.0, 20),
                         np.linspace(b - 1.0, b, 20)])
    flags = []
    for curve in (knot, open_knot):
        flags.append(osculating_circles_disjoint(curve, t0, 1.0))
        np.testing.assert_array_equal(
            flags[-1], _sampled_circles_disjoint(curve, t0, 1.0))
    assert np.any(flags[0] != flags[1])


def test_circle_check_of_one_parameter_is_a_bool(knot):
    flags = osculating_circles_disjoint(knot, np.linspace(0.0, 6.0, 7), 1.0)
    for t0, flag in zip(np.linspace(0.0, 6.0, 7), flags):
        got = osculating_circles_disjoint(knot, float(t0), 1.0)
        assert type(got) is bool and got == flag
    assert osculating_circles_disjoint(knot, 1.0, 0.0) is True


def test_circle_check_raises_at_a_declared_cusp(cusp_curve):
    with pytest.raises(CuspPoint, match="curve has a cusp") as err:
        osculating_circles_disjoint(cusp_curve, np.array([-0.5, 0.0, 0.5]),
                                    0.01)
    assert err.value.t == 0.0
