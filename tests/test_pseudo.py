"""Pseudo-evolute (edge of the rectifying developable) and its involutes."""
import math
import warnings

import numpy as np
import pytest

from evolutes.classify import classify
from evolutes.curves import FrenetODECurve
from evolutes.errors import LineThroughEdge
from evolutes.frenet import FrenetEval
from evolutes.pseudo import (PseudoEvoluteCurve, PseudoInvoluteCurve,
                             geodesic_residual)


def test_cusp_curve_rational_values(cusp_curve):
    # frozen rationals for (t^2, t^3, t^4), checked against the limit of the
    # rectifying plane family
    pseudo = PseudoEvoluteCurve(cusp_curve)
    want_t1 = np.array([-16628.0 / 1575.0, 136.0 / 27.0, -34019.0 / 3150.0])
    np.testing.assert_allclose(pseudo.point(1.0), want_t1, rtol=1e-12)
    # removable 0/0 at the cusp parameter itself
    want_t0 = np.array([24.0 / 175.0, 0.0, 27.0 / 350.0])
    np.testing.assert_allclose(pseudo.point(0.0), want_t0, rtol=1e-10,
                               atol=1e-12)


def test_cusp_curve_limit_agrees_with_side_approach(cusp_curve):
    pseudo = PseudoEvoluteCurve(cusp_curve)
    want = pseudo.point(0.0)
    for t in (1e-4, -1e-4):
        got = pseudo.point(t)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_cusp_curve_limit_jets_agree_with_side_approach(cusp_curve):
    # the jets of the limit, orders 0-2, against the quotient's a step h
    # to either side; closer in, the quotient's second derivative is
    # rounding noise
    pseudo = PseudoEvoluteCurve(cusp_curve)
    at_zero = pseudo.derivatives(0.0, 2)[:, 0]
    # the closed form of acceptance criterion 2 is even in t
    want = [[0.0, 0.0, 0.0], [512.0 / 105.0, 0.0, 96.0 / 35.0]]
    np.testing.assert_allclose(at_zero[1:], want, atol=1e-9)
    for h in (1e-2, 1e-3):
        sides = pseudo.derivatives(np.array([-h, h]), 2)
        np.testing.assert_allclose(sides, at_zero[:, None].repeat(2, axis=1),
                                   atol=10.0 * h)


@pytest.mark.parametrize("h", [1e-3, pytest.param(1e-4, marks=pytest.mark.xfail(
    reason=("the quotient's second derivative is rounding noise this close "
            "to the cusp: 4.18 from the limit, while the points are within "
            "2.3e-8 of it; the limit gate takes only rows where W and E are "
            "0 to rounding")))])
def test_cusp_curve_second_derivative_beside_the_cusp(cusp_curve, h):
    pseudo = PseudoEvoluteCurve(cusp_curve)
    limit = pseudo.derivatives(0.0, 3)[2, 0]
    np.testing.assert_allclose(limit, [512.0 / 105.0, 0.0, 96.0 / 35.0],
                               atol=1e-9)
    sides = pseudo.derivatives(np.array([-h, h]), 3)[2]
    assert np.abs(sides - limit).max() <= 1e-2


def test_point_pass_takes_no_limit_at_the_seam(knot, monkeypatch):
    # the seam rows of the closed knot are escapes, not removable 0/0
    # points, so one order-4 pass of the base serves every row
    pseudo = PseudoEvoluteCurve(knot)
    calls = []
    derivatives = knot.derivatives

    def counting(ts, order):
        calls.append(order)
        return derivatives(ts, order)

    monkeypatch.setattr(knot, "derivatives", counting)
    pseudo.point(knot.grid(1024))
    assert calls == [4]


def test_points_between_the_escapes_follow_the_arclength_formula(cusp_curve):
    # eps = xi + k / (k' tau - k tau') (tau T + k B), arclength derivatives;
    # the escapes themselves are checked by the singularity census below
    ts = np.array([-0.3, 0.4])
    fe = FrenetEval(cusp_curve, ts, order=4)
    k, tau, v = fe.k, fe.tau, fe.v[0]
    scale = k[0] / (k[1] / v * tau[0] - k[0] * tau[1] / v)
    want = fe.x[0] + scale[:, None] * (tau[0][:, None] * fe.T[0]
                                       + k[0][:, None] * fe.B[0])
    pts = PseudoEvoluteCurve(cusp_curve).point(ts)
    assert np.isfinite(pts).all()
    np.testing.assert_allclose(pts, want, atol=1e-10)


def test_cusp_curve_singularity_census(cusp_curve):
    verdict, = classify(cusp_curve, ("pseudo-evolute",), 512)
    esc, cusps = verdict.escapes, verdict.cusps
    np.testing.assert_allclose(
        esc, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-10)
    np.testing.assert_allclose(
        cusps, [-0.9315414334795427, 0.9315414334795427], atol=1e-8)


def test_figure_eight_census(fig8):
    verdict, = classify(fig8, ("pseudo-evolute",), 512)
    assert len(verdict.escapes) == 4
    assert len(verdict.cusps) == 12


def _rate_pair(gap):
    # unit speed and k = 1, so (tau/k)' = (t - 0.7)^2 - gap and
    # (tau/k)'' = 2 (t - 0.7)
    return FrenetODECurve("1", f"(t-0.7)^3/3-{gap}*(t-0.7)+0.5", (0.0, 1.0))


@pytest.mark.parametrize("gap", ["1e-8", "1e-6"])
def test_close_rate_zeros_keep_the_cusp_between(gap):
    cusps = classify(_rate_pair(gap), ("pseudo-evolute",), 512)[0].cusps
    np.testing.assert_allclose(cusps, [0.7], atol=1e-9)


@pytest.mark.xfail(reason=(
    "the (tau/k)' zeros 0.7 +- 1e-4 lie inside one interval of the scan "
    "(width 4.9e-4), at whose ends (tau/k)' has one sign, so no escape is "
    "found"))
def test_close_rate_zeros_inside_one_scan_interval():
    verdict, = classify(_rate_pair("1e-8"), ("pseudo-evolute",), 512)
    escapes = verdict.escapes
    np.testing.assert_allclose(escapes, [0.7 - 1e-4, 0.7 + 1e-4], atol=1e-6)


def test_rate_zeros_four_scan_intervals_apart_are_escapes():
    verdict, = classify(_rate_pair("1e-6"), ("pseudo-evolute",), 512)
    escapes = verdict.escapes
    np.testing.assert_allclose(escapes, [0.7 - 1e-3, 0.7 + 1e-3], atol=1e-6)


def test_cylindrical_curves_have_no_pseudo_evolute(helix, knot):
    assert classify(helix, ("pseudo-evolute",), 512)[0].cylindrical
    assert not classify(knot, ("pseudo-evolute",), 512)[0].cylindrical
    pts = PseudoEvoluteCurve(helix).point(np.linspace(0.5, 5.5, 7))
    assert not np.isfinite(pts).any()


def test_curve_is_geodesic_of_rectifying_developable(knot):
    ts = np.linspace(0.1, 6.1, 33)
    np.testing.assert_allclose(geodesic_residual(knot, ts), 0.0, atol=1e-10)


def test_pseudo_involute_lies_on_tangent_lines(helix):
    inv = PseudoInvoluteCurve(helix, (0.0, 10.0), (1.0, 0.0))
    ts = np.linspace(0.5, 3.5, 11)
    fe = FrenetEval(helix, ts, order=2)
    rel = inv.point(ts) - helix.point(ts)
    residual = np.cross(rel, fe.T[0])
    np.testing.assert_allclose(residual, 0.0, atol=1e-8)


def test_pseudo_evolute_of_involute_is_the_base(helix):
    inv = PseudoInvoluteCurve(helix, (0.0, 10.0), (1.0, 0.0))
    ts = np.linspace(0.8, 3.2, 9)
    back = PseudoEvoluteCurve(inv).point(ts)
    np.testing.assert_allclose(back, helix.point(ts), atol=1e-6)


def test_involute_constructor_warns_when_line_meets_edge(helix):
    with pytest.warns(LineThroughEdge):
        PseudoInvoluteCurve(helix, (0.0, 0.0), (1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PseudoInvoluteCurve(helix, (0.0, 10.0), (1.0, 0.0))
