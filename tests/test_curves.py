"""Curve constructions: expression curves, curvature/torsion-built curves,
arclength maps, and branch sampling."""
import math

import numpy as np
import pytest
import sympy as sp

from evolutes import preset, preset_names
from evolutes.curves import ExprCurve, FrenetODECurve, branch_grids
from evolutes.evolute import EvoluteCurve
from evolutes.expr import _SLICE
from evolutes.frenet import ArclengthMap, FrenetEval, is_congruent
from evolutes.pseudo import PseudoEvoluteCurve
from evolutes.rolling import TracedInvoluteCurve

_T = sp.Symbol("t")
_KNOT = ("(1 + 0.15*cos(5*t))*cos(t)",
         "(1 + 0.15*cos(5*t))*sin(t)",
         "-0.15*sin(5*t)")


def test_expr_curve_derivatives_match_sympy(knot):
    comps = [sp.sympify(c.replace("^", "**"), locals={"t": _T}) for c in _KNOT]
    ts = np.array([0.37, 1.2, 2.9, 4.4, 5.8])
    jets = knot.derivatives(ts, 6)
    for m in range(7):
        want = np.stack(
            [sp.lambdify(_T, sp.diff(c, _T, m), "numpy")(ts) for c in comps],
            axis=-1)
        np.testing.assert_allclose(jets[m], want, rtol=1e-9, atol=1e-9)


def test_point_shapes():
    c = ExprCurve("t, t^2, t^3", (0.0, 1.0))
    assert c.point(0.5).shape == (3,)
    assert c.point([0.25, 0.75]).shape == (2, 3)


_SLICED = {
    **{name: lambda name=name: preset(name) for name in preset_names()},
    "evolute": lambda: EvoluteCurve(preset("torus-knot")),
    # the grid's middle point, the first of the second pass, is the cusp
    # t = 0, where the points are the removable limit's
    "pseudo-evolute": lambda: PseudoEvoluteCurve(preset("cusp-curve")),
    "traced-involute": lambda: TracedInvoluteCurve(preset("helix"),
                                                   (0.3, 0.2)),
}


@pytest.mark.parametrize("name", _SLICED)
def test_point_passes_are_bounded_and_bit_identical(name, monkeypatch):
    curve = _SLICED[name]()
    ts = curve.grid(2 * _SLICE + 1)
    want = curve.derivatives(ts, 0)[0]
    calls = []
    derivatives = curve.derivatives

    def counted(t, order):
        calls.append(len(t))
        return derivatives(t, order)

    monkeypatch.setattr(curve, "derivatives", counted)
    got = curve.point(ts)
    assert calls == [_SLICE, _SLICE, 1]
    np.testing.assert_array_equal(got, want)
    if name == "pseudo-evolute":
        assert ts[_SLICE] == 0.0 and np.isfinite(got).all()


def test_catalog_presets_build():
    for name in preset_names():
        curve = preset(name)
        a, b = curve.domain
        assert b > a
        if curve.closed:
            np.testing.assert_allclose(curve.point(a), curve.point(b),
                                       atol=1e-12)
    with pytest.raises(ValueError):
        preset("klein-bottle")


def test_spherical_preset_is_on_unit_sphere(spherical):
    pts = spherical.point(spherical.grid(200))
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_ode_curve_is_unit_speed_with_requested_profile():
    curve = FrenetODECurve("1/(2 + sin(t))", "0.3", (0.0, 8.0))
    ts = np.linspace(0.5, 7.5, 29)
    fe = FrenetEval(curve, ts, order=4)
    np.testing.assert_allclose(fe.v[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(fe.k[0], 1.0 / (2.0 + np.sin(ts)), atol=1e-8)
    np.testing.assert_allclose(fe.tau[0], 0.3, atol=1e-8)


def test_ode_curve_congruent_to_explicit_helix(helix):
    length = 2.0 * math.pi * math.sqrt(2.0)
    rebuilt = FrenetODECurve("0.5", "0.5", (0.0, length))
    verdict = is_congruent(rebuilt, helix)
    assert verdict.congruent
    assert verdict.max_deviation < 1e-6


def test_ode_curve_jets_are_exact_derivatives():
    curve = FrenetODECurve("1/(2 + sin(t))", "0.3", (0.0, 8.0))
    ts = np.array([1.1, 3.7, 6.2])
    jets = curve.derivatives(ts, 5)
    h = 1e-5
    for m in range(3):
        fd = (curve.derivatives(ts + h, m + 1)[m]
              - curve.derivatives(ts - h, m + 1)[m]) / (2 * h)
        scale = 1.0 + np.abs(jets[m + 1]).max()
        assert np.max(np.abs(jets[m + 1] - fd)) < 1e-7 * scale


def test_arclength_map_roundtrip(helix):
    amap = ArclengthMap(helix)
    assert abs(amap.total - 2.0 * math.pi * math.sqrt(2.0)) < 1e-10
    ts = np.linspace(*helix.domain, 17)
    np.testing.assert_allclose(amap.inverse(amap(ts)), ts, atol=1e-9)
    # the speed of t^2, t^3, t^4 vanishes at t = 0, where s(t) goes as t^2
    amap = ArclengthMap(preset("cusp-curve"))
    ts = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1e-3, 1e-3, 1e-2]])
    np.testing.assert_allclose(amap.inverse(amap(ts)), ts, atol=1e-8)


def test_branch_grids_shrink_only_at_cuts():
    grids = branch_grids((0.0, 10.0), [4.0], 100)
    assert len(grids) == 2
    lo, hi = grids
    assert lo[0] == 0.0 and hi[-1] == 10.0
    margin = 10.0 * 1e-3
    assert abs(lo[-1] - (4.0 - margin)) < 1e-12
    assert abs(hi[0] - (4.0 + margin)) < 1e-12
    # proportional sampling, at least 2 points each
    assert len(lo) + len(hi) >= 98


def test_branch_grids_cut_at_boundary():
    grids = branch_grids((0.0, 10.0), [0.0, 10.0], 64)
    assert len(grids) == 1
    assert grids[0][0] > 0.0 and grids[0][-1] < 10.0
