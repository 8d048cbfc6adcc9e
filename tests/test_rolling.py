"""Rolling-plane developments, monodromy, and traced involutes."""
import math

import numpy as np
import pytest

from evolutes import preset
from evolutes.cli import entry
from evolutes.curves import ExprCurve
from evolutes.errors import (IdentityMonodromy, NotClosed, PureTranslation)
from evolutes.evolute import EvoluteCurve
from evolutes.frenet import ArclengthMap, FrenetEval, total_curvature
from evolutes.rolling import (Development, PlanarIsometry, TracedInvoluteCurve,
                              _trace_rhs, closed_involute, monodromy)
from evolutes.taylor import jet_mul


def test_development_preserves_length_and_curvature(knot):
    dev = Development(knot)
    ts = np.linspace(0.2, 6.0, 9)
    # same arc length up to each parameter
    smap = ArclengthMap(knot)
    h = 1e-6
    speed = np.linalg.norm((dev.point(ts + h) - dev.point(ts - h)) / (2 * h),
                           axis=-1)
    fe = FrenetEval(knot, ts, order=2)
    np.testing.assert_allclose(speed, fe.v[0], atol=1e-6)
    # turning rate equals the space curvature
    dtheta = (dev.angle(ts + h) - dev.angle(ts - h)) / (2 * h)
    np.testing.assert_allclose(dtheta, fe.k[0] * fe.v[0], rtol=1e-6)
    # development starts at the origin heading along +x
    a = knot.domain[0]
    np.testing.assert_allclose(dev.point(a), 0.0, atol=1e-12)
    assert abs(dev.angle(a)) < 1e-12


def test_development_is_two_tables(monkeypatch):
    # the turning angle and the complex position x + iy, each a 64-panel
    # table of 15 Kronrod nodes: 2 x 960 curve points for the torus knot
    knot = preset("torus-knot")
    derivatives = knot.derivatives
    points = []

    def counting(ts, order):
        points.append(np.size(ts))
        return derivatives(ts, order)

    monkeypatch.setattr(knot, "derivatives", counting)
    Development(knot)
    assert sum(points) == 1920


def test_helix_development_is_a_circle_arc(helix):
    dev = Development(helix)
    ts = np.linspace(0.0, 2.0 * math.pi, 33)
    pts = dev.point(ts)
    # curvature 1/2 everywhere: circle of radius 2 through the origin
    center = np.array([0.0, 2.0])
    np.testing.assert_allclose(np.linalg.norm(pts - center, axis=-1), 2.0,
                               atol=1e-9)


def test_monodromy_angle_is_total_curvature(knot):
    iso = monodromy(knot)
    assert abs(iso.angle - total_curvature(knot)) < 1e-9
    assert abs(iso.angle - 19.991104950574908) < 1e-6
    assert abs(iso.angle_mod_2pi - 1.1415490290361454) < 1e-6
    np.testing.assert_allclose(
        iso.fixed_point(), [0.0, 0.40637285116196675], atol=1e-6)
    # fixed point is actually fixed
    np.testing.assert_allclose(iso.apply(iso.fixed_point()),
                               iso.fixed_point(), atol=1e-9)


def test_monodromy_requires_closed_curve(helix):
    with pytest.raises(NotClosed, match="curve is not declared closed"):
        monodromy(helix)
    with pytest.raises(NotClosed, match="curve endpoints differ by 1.41"):
        monodromy(ExprCurve("t, t^2, 0", (0.0, 1.0), closed=True))


@pytest.mark.parametrize("argv", [
    ["monodromy", "--expr", "cos(t),sin(t),0"],
    ["involute", "--expr", "cos(t),sin(t),0.2*sin(2*t)"],
])
def test_cli_names_a_curve_not_declared_closed(argv, tmp_path, capsys):
    # the ends of these --expr curves meet to rounding, but the CLI never
    # declares an --expr curve closed: that, not a gap, is the reason
    assert entry([*argv, "--range", "0:6.283185307179586",
                  "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == "degenerate geometry: curve is not declared closed\n"


def test_degenerate_isometries():
    with pytest.raises(IdentityMonodromy):
        PlanarIsometry(0.0, np.zeros(2)).fixed_point()
    with pytest.raises(PureTranslation):
        PlanarIsometry(4.0 * math.pi, np.array([1.0, 0.0])).fixed_point()


def test_traced_point_stays_on_osculating_plane(knot):
    inv = TracedInvoluteCurve(knot, (0.7, -0.4))
    ts = np.linspace(*knot.domain, 41)
    rel = inv.point(ts) - knot.point(ts)
    fe = FrenetEval(knot, ts, order=2)
    np.testing.assert_allclose(np.sum(rel * fe.B[0], axis=-1), 0.0,
                               atol=1e-8)


def test_two_traced_involutes_stay_equidistant(knot):
    i1 = TracedInvoluteCurve(knot, (0.7, 0.0))
    i2 = TracedInvoluteCurve(knot, (-0.2, 0.5))
    ts = np.linspace(*knot.domain, 23)
    gaps = np.linalg.norm(i1.point(ts) - i2.point(ts), axis=-1)
    np.testing.assert_allclose(gaps, gaps[0], atol=1e-8)


def test_closed_involute_closes_and_inverts_the_evolute(knot):
    inv = closed_involute(knot)
    a, b = knot.domain
    assert np.linalg.norm(inv.point(a) - inv.point(b)) < 1e-8
    # the rolling traces are exactly the curves whose osculating-sphere
    # evolute is the base curve
    ts = np.linspace(0.3, 6.0, 9)
    np.testing.assert_allclose(EvoluteCurve(inv).point(ts), knot.point(ts),
                               atol=1e-8)


def test_sphere_evolute_of_any_trace_is_the_base(helix):
    traced = TracedInvoluteCurve(helix, (1.3, 0.4))
    ts = np.linspace(0.4, 5.8, 11)
    np.testing.assert_allclose(EvoluteCurve(traced).point(ts), helix.point(ts),
                               atol=1e-7)


def test_closed_involute_reads_its_base_curve_from_a_table(monkeypatch):
    # one vectorized call per round of the field table; a base-curve call
    # per DOP853 stage would be thousands.  Exact counts for the figures'
    # two involutes: they do not depend on the machine.
    def reads(curve, make):
        derivatives = curve.derivatives
        seen = []

        def counting(ts, order):
            seen.append(np.size(ts))
            return derivatives(ts, order)

        monkeypatch.setattr(curve, "derivatives", counting)
        return seen, len(make(curve)._segments)

    # monodromy's two ends, the development's turning-angle and position
    # tables, the start point, the 64-panel field table; 145 DOP853 steps
    assert reads(preset("torus-knot"), closed_involute) == (
        [2, 960, 960, 1, 960], 145)
    # the start point and the 64-panel field table; 28 steps
    assert reads(preset("helix"),
                 lambda c: TracedInvoluteCurve(c, (0.5, 0.2))) == ([1, 960], 28)


def test_traced_points_read_no_base_jets(knot, monkeypatch):
    # point asks for order 0: the dense output alone, the same rows as
    # row 0 of a higher order
    inv = TracedInvoluteCurve(knot, (0.7, -0.4))
    ts = np.linspace(*knot.domain, 57)
    want = inv.derivatives(ts, 2)[0]
    calls = []
    derivatives = knot.derivatives

    def counting(ts, order):
        calls.append(order)
        return derivatives(ts, order)

    monkeypatch.setattr(knot, "derivatives", counting)
    np.testing.assert_array_equal(inv.point(ts), want)
    assert calls == []


@pytest.mark.parametrize("name", ["torus-knot", "helix"])
def test_involute_field_matches_the_direct_formula(name):
    # w x (P - x) with w = det(x', x'', x''') / |x' x x''|^2 x'
    curve = preset(name)
    inv = TracedInvoluteCurve(curve, (0.5, 0.0))
    rng = np.random.default_rng(7)
    ts = rng.uniform(*curve.domain, 1000)
    P = rng.uniform(-3.0, 3.0, (1000, 3))
    x = curve.derivatives(ts, 3)
    c = np.cross(x[1], x[2])
    w = (np.sum(c * x[3], axis=-1) / np.sum(c * c, axis=-1))[:, None] * x[1]
    want = np.cross(w, P - x[0])
    got = np.array([_trace_rhs(c, p)
                    for c, p in zip(inv._rolling(ts).tolist(), P)])
    rel = (np.linalg.norm(got - want, axis=-1)
           / np.linalg.norm(want, axis=-1))
    assert rel.max() < 1e-13


def _trace_loop(inv, t, order):
    """TracedInvoluteCurve.derivatives as a written-out Leibniz loop, the
    form the rows of taylor.jet_cross_row replaced; kept as an oracle."""
    t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), *inv.domain)
    fe = FrenetEval(inv.base, t, order=order + 2)
    w = jet_mul(fe.tau, fe.d1)
    out = np.empty((order + 1, len(t), 3))
    out[0] = inv._segments(t)
    for m in range(order):
        acc = np.zeros((len(t), 3))
        for j in range(m + 1):
            acc += math.comb(m, j) * np.cross(w[j], out[m - j] - fe.x[m - j])
        out[m + 1] = acc
    return out


def test_traced_jets_are_bit_identical_to_the_loop_form(knot):
    inv = closed_involute(knot)
    ts = np.linspace(*knot.domain, 433)
    for order in range(1, 6):
        got = inv.derivatives(ts, order)
        assert got.tobytes() == _trace_loop(inv, ts, order).tobytes()
