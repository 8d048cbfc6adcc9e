"""Monge evolutes (taut-string family) and involutes."""
import math

import numpy as np
import pytest

from evolutes.classify import classify
from evolutes.curves import ExprCurve
from evolutes.evolute import EvoluteCurve
from evolutes.frenet import FrenetEval
from evolutes.monge import (MongeEvoluteCurve, MongeInvoluteCurve,
                            distance_identity_residual, envelope_meetings,
                            monge_evolutes_closed, offset_angles,
                            polar_line_residual, signed_length,
                            string_residual)
from evolutes.pseudo import PseudoEvoluteCurve

ALPHAS = (0.0, 0.3, 0.6)


def _generic_ts(ev, n=25):
    # parameters away from escapes, where the string identities are finite
    a, b = ev.base.domain
    ts = np.linspace(a + 0.07, b - 0.07, n)
    return ts[np.abs(np.cos(ev.alpha(ts))) > 0.2]


@pytest.mark.parametrize("alpha0", ALPHAS)
def test_string_identities(knot, alpha0):
    ev = MongeEvoluteCurve(knot, alpha0)
    ts = _generic_ts(ev)
    assert len(ts) > 10
    np.testing.assert_allclose(string_residual(ev, ts), 0.0, atol=1e-7)
    np.testing.assert_allclose(distance_identity_residual(ev, ts), 0.0,
                               atol=1e-8)
    np.testing.assert_allclose(polar_line_residual(ev, ts), 0.0, atol=1e-8)


def test_escapes_are_cosine_zeros(knot):
    ev = MongeEvoluteCurve(knot, 0.0)
    esc = np.array(classify(knot, ("monge-evolute",), 512, 0.0)[0].escapes)
    # alpha sweeps the total torsion, crossing pi/2 + m pi eight times
    assert len(esc) == 8
    np.testing.assert_allclose(np.cos(ev.alpha(esc)), 0.0, atol=1e-9)
    # the evolute is at infinity there: nan rows in every order
    assert np.isnan(ev.derivatives(esc, 2)).all()


def test_cusps_are_critical_points_of_k_cos_alpha(knot):
    ev = MongeEvoluteCurve(knot, 0.3)
    cusps = np.array(classify(knot, ("monge-evolute",), 512, 0.3)[0].cusps)
    assert len(cusps) > 0

    def k_cos(ts):
        fe = FrenetEval(knot, ts, order=2)
        return fe.k[0] * np.cos(ev.alpha(ts))

    h = 1e-6
    rate = (k_cos(cusps + h) - k_cos(cusps - h)) / (2 * h)
    np.testing.assert_allclose(rate, 0.0, atol=1e-6)


def test_closure_criterion(knot, fig8):
    # closes iff total torsion is a multiple of pi; the figure eight has
    # zero total torsion by symmetry, the knot a generic value
    assert monge_evolutes_closed(fig8)
    assert not monge_evolutes_closed(knot)
    ev = MongeEvoluteCurve(fig8, 0.3, closed=True)
    a, b = fig8.domain
    np.testing.assert_allclose(ev.point(a), ev.point(b), atol=1e-9)
    ev = MongeEvoluteCurve(knot, 0.3)
    gap = np.linalg.norm(ev.point(knot.domain[0]) - ev.point(knot.domain[1]))
    assert gap > 1e-2


def test_constant_angle_between_two_evolutes(knot):
    e1 = MongeEvoluteCurve(knot, 0.2)
    e2 = MongeEvoluteCurve(knot, 0.5)
    ts = np.linspace(0.1, 6.1, 40)
    angles = offset_angles(e1, e2, ts)
    np.testing.assert_allclose(angles, 0.3, atol=1e-9)


def test_envelope_meetings_touch_the_sphere_evolute(knot):
    ev = MongeEvoluteCurve(knot, 0.4)
    meets = envelope_meetings(ev)
    assert len(meets) > 0
    evolute = EvoluteCurve(knot)
    for t in meets:
        np.testing.assert_allclose(ev.point(float(t)),
                                   evolute.point(float(t)), atol=1e-7)


def test_involute_offsets_are_tangent_with_string_length(knot):
    ell = 9.0
    inv = MongeInvoluteCurve(knot, ell)
    ts = np.linspace(0.1, 6.1, 15)
    fe = FrenetEval(knot, ts, order=2)
    rel = inv.point(ts) - knot.point(ts)
    np.testing.assert_allclose(np.cross(rel, fe.T[0]), 0.0, atol=1e-10)
    from evolutes.frenet import ArclengthMap
    s = ArclengthMap(knot)(ts)
    np.testing.assert_allclose(np.linalg.norm(rel, axis=-1), ell - s,
                               atol=1e-9)


def test_base_lies_on_polar_lines_of_its_involute(knot):
    # the base curve is a Monge evolute of each of its involutes
    inv = MongeInvoluteCurve(knot, 9.0)
    ts = np.linspace(0.1, 6.1, 15)
    fe = FrenetEval(inv, ts, order=3)
    rel = knot.point(ts) - inv.point(ts)
    np.testing.assert_allclose(np.sum(rel * fe.N[0], axis=-1), fe.r[0],
                               rtol=1e-7)


def test_sphere_evolute_of_involute_is_the_pseudo_evolute(knot):
    # string length drops out: any involute's sphere evolute is the
    # pseudo-evolute of the base
    ts = np.linspace(0.2, 6.0, 11)
    want = PseudoEvoluteCurve(knot).point(ts)
    for ell in (9.0, 12.0):
        got = EvoluteCurve(MongeInvoluteCurve(knot, ell)).point(ts)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_helix_involute_is_planar(helix):
    inv = MongeInvoluteCurve(helix, 10.0)
    ts = np.linspace(0.3, 5.9, 17)
    fe = FrenetEval(inv, ts, order=3)
    np.testing.assert_allclose(fe.tau[0], 0.0, atol=1e-9)


def test_plane_ellipse_evolute_cusps_and_signed_length():
    ellipse = ExprCurve("2*cos(t), sin(t), 0", (0.0, 2.0 * math.pi),
                        closed=True)
    verdict, = classify(ellipse, ("monge-evolute",), 512, 0.0)
    cusps = verdict.cusps
    want = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
    np.testing.assert_allclose(cusps, want, atol=1e-9)
    astroid = MongeEvoluteCurve(ellipse, 0.0, closed=True,
                                cusps=cusps)
    assert abs(signed_length(astroid)) < 1e-9


def test_signed_involutes_of_cusped_evolute_close():
    ellipse = ExprCurve("2*cos(t), sin(t), 0", (0.0, 2.0 * math.pi),
                        closed=True)
    cusps = classify(ellipse, ("monge-evolute",), 512, 0.0)[0].cusps
    astroid = MongeEvoluteCurve(ellipse, 0.0, closed=True, cusps=cusps)
    a, b = astroid.domain
    delta = 1e-9        # the seam parameter is itself a cusp
    for ell in (3.0, 5.0):
        inv = MongeInvoluteCurve(astroid, ell, signed=True)
        gap = np.linalg.norm(inv.point(a + delta) - inv.point(b - delta))
        assert gap < 1e-6
    unsigned = MongeInvoluteCurve(astroid, 3.0)
    gap = np.linalg.norm(unsigned.point(a + delta)
                         - unsigned.point(b - delta))
    assert gap > 1.0
