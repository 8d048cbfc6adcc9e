"""Acceptance suite: sixteen numbered criteria, one per test.

Each test prints a single PASS line with the measured figure once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances are pinned; do not loosen them to make a failure go
away.
"""
import math

import numpy as np

from evolutes import preset, preset_names
from evolutes.classify import classify
from evolutes.curves import ExprCurve, FrenetODECurve
from evolutes.evolute import (EvoluteCurve, osculating_circles_disjoint,
                              second_evolute_residual)
from evolutes.frenet import (FrenetEval, is_congruent, sigma_values,
                             total_absolute_torsion, total_curvature)
from evolutes.monge import (MongeEvoluteCurve, MongeInvoluteCurve,
                            distance_identity_residual, envelope_meetings,
                            offset_angles, polar_line_residual,
                            string_residual)
from evolutes.pseudo import PseudoEvoluteCurve
from evolutes.rolling import closed_involute, monodromy
from evolutes.taylor import arclength_derivative


def _pass(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS  {message}")


def test_criterion_01_cusp_curve_evolute_closed_form(cusp_curve):
    ts = [1.0, -1.0, 0.5, -0.5, 0.25, -0.25] + [0.1 * k for k in range(1, 11)]
    worst = 0.0
    evolute = EvoluteCurve(cusp_curve)
    for t in ts:
        got = evolute.point(t)
        want = np.array([4.5 * t**4 + 20.0 * t**6,
                         -8.0 * t**3 - 32.0 * t**5,
                         0.5 + 4.5 * t**2 + 15.0 * t**4])
        rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
        worst = max(worst, rel)
    assert worst <= 1e-9
    _pass(1, f"cusp-curve evolute exact at {len(ts)} params, "
             f"max rel err {worst:.2e}")


def _monster(t):
    t = np.asarray(t, dtype=float)
    den = 1.0 - 4.0 * t**4
    x = 4.0 * (324.0 * t**10 + 1440.0 * t**8 + 1335.0 * t**6
               + 720.0 * t**4 + 320.0 * t**2 + 18.0) / (525.0 * den)
    y = -8.0 * t**5 * (9.0 * t**2 + 8.0) / (9.0 * den)
    z = (4608.0 * t**10 + 7880.0 * t**8 + 11520.0 * t**6
         + 8490.0 * t**4 + 1440.0 * t**2 + 81.0) / (1050.0 * den)
    return np.stack([x, y, z], axis=-1)


def test_criterion_02_cusp_curve_pseudo_evolute_closed_form(cusp_curve):
    ts = np.linspace(-0.95, 0.95, 50)
    assert np.min(np.abs(np.abs(ts) - 1.0 / math.sqrt(2.0))) > 1e-2
    worst = 0.0
    pseudo = PseudoEvoluteCurve(cusp_curve)
    for t in ts:
        got = pseudo.point(float(t))
        want = _monster(t)
        rel = np.max(np.abs(got - want)
                     / np.maximum(np.abs(want), 1e-12))
        worst = max(worst, rel)
    assert worst <= 1e-8
    at_zero = pseudo.point(0.0)
    gap = np.max(np.abs(at_zero - np.array([24.0 / 175.0, 0.0, 27.0 / 350.0])))
    assert gap <= 1e-12
    _pass(2, f"pseudo-evolute closed form, max rel err {worst:.2e}, "
             f"t=0 limit gap {gap:.2e}")


def test_criterion_03_sphere_radius_identity():
    worst = 0.0
    for name in ("helix", "torus-knot", "elliptical-helix"):
        curve = preset(name)
        ts = curve.grid(512)
        fe = FrenetEval(curve, ts, order=5)
        e = EvoluteCurve(curve).point(ts)
        R2 = np.sum((e - curve.point(ts)) ** 2, axis=-1)
        resid = np.abs(R2 - fe.r[0] ** 2 - fe.rr[0] ** 2) / R2
        worst = max(worst, float(np.max(resid)))
    assert worst <= 1e-8
    _pass(3, f"R^2 = r^2 + (dr/ds / tau)^2 on 3 presets, "
             f"max rel resid {worst:.2e}")


def test_criterion_04_evolute_tangent_parallel_binormal():
    worst = 0.0
    for name in preset_names():
        curve = preset(name)
        ts = curve.grid(512)
        keep = np.ones(len(ts), dtype=bool)
        for c in curve.cusps:
            keep &= np.abs(ts - c) > 1e-6
        ts = ts[keep]
        fe = FrenetEval(curve, ts, order=5)
        with np.errstate(all="ignore"):
            deriv = EvoluteCurve(curve).derivatives(ts, 1)[1]
            norm = np.linalg.norm(deriv, axis=-1)
            ratio = np.linalg.norm(np.cross(deriv, fe.B[0]), axis=-1) / norm
        mask = (np.abs(fe.sigma[0]) > 1e-3) & np.isfinite(ratio)
        if mask.any():
            worst = max(worst, float(np.max(ratio[mask])))
    assert worst <= 1e-6
    _pass(4, f"evolute tangent along binormal on all presets, "
             f"max sin angle {worst:.2e}")


def test_criterion_05_determinant_identity(knot):
    ts = knot.grid(256)
    fe = FrenetEval(knot, ts, order=6)
    T = fe.T
    T_s = arclength_derivative(T, fe.v)
    T_ss = arclength_derivative(T_s, fe.v[: len(T_s)])
    T_sss = arclength_derivative(T_ss, fe.v[: len(T_ss)])
    det = np.linalg.det(np.stack([T[0], T_ss[0], T_sss[0]], axis=-2))
    k, tau, sigma = fe.k[0], fe.tau[0], fe.sigma[0]
    want = k**3 * tau**2 * sigma + k**4 * tau
    resid = np.abs(det - want) / (k**4 * np.abs(tau) + 1.0)
    worst = float(np.max(resid))
    assert worst <= 1e-6
    _pass(5, f"det(t, t'', t''') identity at 256 samples, "
             f"max resid {worst:.2e}")


def test_criterion_06_evolute_total_curvature_is_total_torsion(knot):
    lhs = total_curvature(EvoluteCurve(knot))
    rhs = total_absolute_torsion(knot)
    rel = abs(lhs - rhs) / abs(rhs)
    assert rel <= 1e-4
    _pass(6, f"evolute total curvature {lhs:.10f} vs total |torsion| "
             f"{rhs:.10f}, rel {rel:.2e}")


def test_criterion_07_cusp_censuses(ell_helix, knot):
    cusps = classify(ell_helix, ("evolute",), 512)[0].cusps
    assert len(cusps) == 4
    ev = EvoluteCurve(ell_helix)

    def speed(ts):
        with np.errstate(all="ignore"):
            return np.linalg.norm(ev.derivatives(ts, 1)[1], axis=-1)

    peak = float(np.max(speed(ell_helix.grid(512))))
    h = 1e-4
    for c in cusps:
        trio = speed(np.array([c - h, c, c + h]))
        assert trio[1] < trio[0] and trio[1] < trio[2]
        assert trio[1] < 1e-6 * peak
    floor = float(np.min(np.abs(sigma_values(knot, knot.grid(2048)))))
    assert floor > 0.0
    _pass(7, f"elliptical helix: 4 evolute cusps, all speed minima; "
             f"torus knot min |sigma| = {floor:.3f}")


def test_criterion_08_spherical_curve_evolute_is_center(spherical):
    ts = spherical.grid(512)
    e = EvoluteCurve(spherical).point(ts)
    off = float(np.max(np.linalg.norm(e, axis=-1)))
    sig = float(np.max(np.abs(sigma_values(spherical, ts))))
    assert off <= 1e-6 and sig <= 1e-8
    _pass(8, f"spherical preset: evolute spread {off:.2e}, "
             f"max |sigma| {sig:.2e}")


def test_criterion_09_congruent_to_evolute_family():
    curve = FrenetODECurve("1/sqrt(t)", "1/sqrt(t)", (1.0, 16.0))
    verdict = is_congruent(curve, EvoluteCurve(curve))
    assert verdict.congruent and not verdict.mirror
    assert verdict.max_deviation <= 1e-4
    # explicit constant-slope parametrization over the circle involute
    s2 = math.sqrt(2.0)
    explicit = ExprCurve(
        "(cos(2*sqrt(2*t)) + 2*sqrt(2*t)*sin(2*sqrt(2*t))) / (4*sqrt(2)),"
        " (sin(2*sqrt(2*t)) - 2*sqrt(2*t)*cos(2*sqrt(2*t))) / (4*sqrt(2)),"
        " t / sqrt(2)", (1.0, 16.0))
    verdict2 = is_congruent(curve, explicit)
    assert verdict2.congruent and verdict2.max_deviation <= 1e-3
    _pass(9, f"k = tau = 1/sqrt(t) curve vs evolute dev "
             f"{verdict.max_deviation:.2e}, vs explicit form "
             f"{verdict2.max_deviation:.2e}")


def test_criterion_10_second_evolute_residual_on_helix(helix):
    ts = helix.grid(512)
    worst = float(np.max(np.abs(second_evolute_residual(helix, ts))))
    assert worst <= 1e-7
    _pass(10, f"constant-curvature second-evolute residual {worst:.2e}")


def test_criterion_11_involute_evolute_equals_pseudo_evolute(knot, helix):
    worst = 0.0
    ts = np.linspace(0.15, 6.1, 64)
    want = PseudoEvoluteCurve(knot).point(ts)
    for ell in (9.0, 12.0):
        got = EvoluteCurve(MongeInvoluteCurve(knot, ell)).point(ts)
        worst = max(worst, float(np.max(np.linalg.norm(got - want, axis=-1))))
    assert worst <= 1e-6
    # helix leg: both sides escape together.  tau/k is constant, so the
    # pseudo-evolute is at infinity; the string involute is planar, so its
    # sphere evolute is at infinity too.
    assert classify(helix, ("pseudo-evolute",), 512)[0].cylindrical
    inv = MongeInvoluteCurve(helix, 10.0)
    tau_inv = float(np.max(np.abs(
        FrenetEval(inv, np.linspace(0.3, 5.9, 33), order=3).tau[0])))
    assert tau_inv <= 1e-9
    _pass(11, f"evolute of string involute = pseudo-evolute, max gap "
              f"{worst:.2e}; helix: mutual escape confirmed")


def test_criterion_12_figure_eight_census(fig8):
    verdict, = classify(fig8, ("pseudo-evolute",), 512)
    assert len(verdict.cusps) == 12 and len(verdict.escapes) == 4
    _pass(12, "figure-eight pseudo-evolute: 12 cusps, 4 infinity escapes")


def test_criterion_13_monge_evolute_suite(knot):
    alphas = (0.0, 0.3, 0.6)
    evs = {a: MongeEvoluteCurve(knot, a) for a in alphas}
    ts = np.linspace(0.1, 6.1, 200)
    figures = []
    for a, ev in evs.items():
        keep = np.abs(np.cos(ev.alpha(ts))) > 0.1
        sub = ts[keep]
        string = float(np.max(string_residual(ev, sub)))
        fe = FrenetEval(knot, sub, order=2)
        eta = ev.point(sub)
        ortho = float(np.max(np.abs(
            np.sum((eta - knot.point(sub)) * fe.T[0], axis=-1))))
        dist = float(np.max(np.abs(distance_identity_residual(ev, sub))))
        polar = float(np.max(polar_line_residual(ev, sub)))
        assert string <= 1e-7 and ortho <= 1e-7
        assert dist <= 1e-8 and polar <= 1e-8
        figures.append(max(string, ortho, dist, polar))
    angle_dev = 0.0
    for a1, a2, want in ((0.0, 0.3, 0.3), (0.0, 0.6, 0.6), (0.3, 0.6, 0.3)):
        angles = offset_angles(evs[a1], evs[a2], ts)
        angle_dev = max(angle_dev, float(np.max(np.abs(angles - want))))
    assert angle_dev <= 1e-6
    meet_gap = 0.0
    evolute = EvoluteCurve(knot)
    for a, ev in evs.items():
        meets = envelope_meetings(ev)
        assert len(meets) > 0
        for t in meets:
            gap = np.linalg.norm(ev.point(float(t))
                                 - evolute.point(float(t)))
            meet_gap = max(meet_gap, float(gap))
    assert meet_gap <= 1e-5
    _pass(13, f"string suite max resid {max(figures):.2e}, angle dev "
              f"{angle_dev:.2e}, envelope meeting gap {meet_gap:.2e}")


def test_criterion_14_monodromy_and_closed_involute(knot):
    iso = monodromy(knot)
    total = total_curvature(knot)
    wrap = abs(math.remainder(iso.angle - total, 2.0 * math.pi))
    assert wrap <= 1e-6
    inv = closed_involute(knot)
    a, b = knot.domain
    gap = float(np.linalg.norm(inv.point(a) - inv.point(b)))
    assert gap <= 1e-4
    # the evolute of the involute retraces the knot with matching
    # parameters, so the pointwise gap bounds the Hausdorff distance of the
    # two point sets
    ts = np.linspace(a, b, 4096)
    dist = np.linalg.norm(EvoluteCurve(inv).point(ts) - knot.point(ts),
                          axis=-1)
    hausdorff = float(np.max(dist))
    assert hausdorff <= 1e-3
    _pass(14, f"monodromy angle = total curvature (mod 2pi) to {wrap:.2e}; "
              f"closed involute gap {gap:.2e}; evolute returns the knot, "
              f"Hausdorff <= {hausdorff:.2e}")


def test_criterion_15_osculating_circles_unlinked(knot, helix):
    rng = np.random.default_rng(123)
    for curve in (knot, helix):
        a, b = curve.domain
        for t0 in rng.uniform(a, b, 100):
            assert osculating_circles_disjoint(curve, float(t0), 0.01)
    _pass(15, "osculating circles disjoint at 100 random params on "
              "torus knot and helix, delta = 0.01")


def test_criterion_16_parser_fuzzing():
    import random

    from test_expr import check_fuzzed, random_expression
    rng = random.Random(2024)
    checked = 0
    produced = 0
    while produced < 1000:
        text = random_expression(rng)
        produced += 1
        checked += check_fuzzed(text)
    assert checked >= 400
    _pass(16, f"{produced} fuzzed expressions, {checked} derivative "
              f"spot-checks against finite differences")
