"""Plane-family envelopes checked against the direct Frenet constructions.

Each plane family's regression edge has an independent closed form: the
normal planes envelope to the sphere-center curve, the osculating planes
back to the curve itself, and the rectifying planes to the centers of
second-order cylindrical contact.  Solving the 3x3 jet system must agree
with those formulas computed through entirely different code paths.
"""
import numpy as np
import pytest

from evolutes import preset
from evolutes.envelope import (PlaneFamily, developable_patch, edge_cusps,
                               edge_points, polar_line, ruling_directions)
from evolutes.evolute import EvoluteCurve
from evolutes.frenet import FrenetEval, sigma_values
from evolutes.pseudo import PseudoEvoluteCurve


def test_normal_family_edge_is_the_evolute(knot):
    fam = PlaneFamily(knot, "normal")
    ts = np.linspace(0.1, 6.1, 23)
    edge = edge_points(fam, ts)
    want = EvoluteCurve(knot).point(ts)
    np.testing.assert_allclose(edge, want, atol=1e-9)


def test_osculating_family_edge_is_the_curve(knot):
    fam = PlaneFamily(knot, "osculating")
    ts = np.linspace(0.1, 6.1, 23)
    np.testing.assert_allclose(edge_points(fam, ts), knot.point(ts),
                               atol=1e-8)


def test_rectifying_family_edge_is_the_pseudo_evolute(knot):
    fam = PlaneFamily(knot, "rectifying")
    ts = np.linspace(0.1, 6.1, 23)
    edge = edge_points(fam, ts)
    want = PseudoEvoluteCurve(knot).point(ts)
    np.testing.assert_allclose(edge, want, atol=1e-8)


def test_edge_cusps_of_normal_family_are_sigma_roots(ell_helix):
    fam = PlaneFamily(ell_helix, "normal")
    cusps = edge_cusps(fam)
    sig = sigma_values(ell_helix, cusps)
    np.testing.assert_allclose(sig, 0.0, atol=1e-9)
    assert len(cusps) == 4


def test_edge_cusps_of_a_point_edge_are_none():
    # the normal planes of a spherical curve all pass through the center,
    # so the cusp gap is rounding noise everywhere
    assert len(edge_cusps(PlaneFamily(preset("spherical"), "normal"))) == 0


def test_singular_system_gives_nan_rows(helix):
    # normal planes of a line are parallel: build a degenerate family
    from evolutes.curves import ExprCurve
    line = ExprCurve("t, 0, 0", (0.0, 1.0))
    pts = edge_points(PlaneFamily(line, "normal"), np.array([0.25, 0.5]))
    assert np.isnan(pts).all()


def test_ruling_directions(helix):
    ts = np.linspace(0.2, 6.0, 9)
    fe = FrenetEval(helix, ts, order=3)
    # normal planes: ruling n x n' is parallel to the binormal
    rul = ruling_directions(PlaneFamily(helix, "normal"), ts)
    unit = rul / np.linalg.norm(rul, axis=-1, keepdims=True)
    cross = np.cross(unit, fe.B[0])
    np.testing.assert_allclose(cross, 0.0, atol=1e-10)
    # osculating planes: ruling parallel to the tangent
    rul = ruling_directions(PlaneFamily(helix, "osculating"), ts)
    unit = rul / np.linalg.norm(rul, axis=-1, keepdims=True)
    np.testing.assert_allclose(np.cross(unit, fe.T[0]), 0.0, atol=1e-10)


def test_polar_line_contains_evolute_point(knot):
    t = 1.3
    line = polar_line(knot, t)
    e = EvoluteCurve(knot).point(t)
    # e lies on the line: (e - p) parallel to direction
    gap = np.cross(e - line.point, line.direction)
    np.testing.assert_allclose(gap, 0.0, atol=1e-12)
    lam = float(np.dot(e - line.point, line.direction)
                / np.dot(line.direction, line.direction))
    np.testing.assert_allclose(line.at(lam), e, atol=1e-12)


def test_developable_patch_shapes_and_rails(helix):
    ts = np.linspace(0.1, 2.0, 7)
    patch = developable_patch(helix, "tangent", ts, extent=0.5,
                              rail_samples=5)
    assert patch.vertices.shape == (7, 5, 3)
    # middle rail lies on the curve
    np.testing.assert_allclose(patch.vertices[:, 2], helix.point(ts),
                               atol=1e-12)
    # asymmetric extent
    patch = developable_patch(helix, "polar", ts, extent=(0.0, 2.0),
                              rail_samples=3)
    np.testing.assert_allclose(patch.lambdas, [0.0, 1.0, 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        developable_patch(helix, "moebius", ts)


def test_rectifying_patch_rules_along_darboux(helix):
    ts = np.array([0.4, 1.7])
    patch = developable_patch(helix, "rectifying", ts, extent=1.0,
                              rail_samples=3)
    fe = FrenetEval(helix, ts, order=3)
    darboux = fe.tau[0][..., None] * fe.T[0] + fe.k[0][..., None] * fe.B[0]
    rail = patch.vertices[:, 2] - patch.vertices[:, 1]
    cross = np.cross(rail, darboux)
    np.testing.assert_allclose(cross, 0.0, atol=1e-12)
