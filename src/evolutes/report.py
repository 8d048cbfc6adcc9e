"""Aggregated numeric report for a curve: invariants, singularities, residuals.

The report is a plain dict ready for JSON serialization.  Blocks that cannot
be computed for a given curve (a plane curve has no evolute, an open curve has
no monodromy) are recorded with the reason instead of failing the entire run.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

from .classify import Verdict, classify, probe_grid
from .curves import SIGMA_CLEARANCE, Curve
from .errors import GeometryError
from .evolute import _evolute_jets, osculating_circles_disjoint
from .frenet import ArclengthMap, FrenetEval
from .monge import monge_evolutes_closed
from .rolling import Development, monodromy
from .taylor import arclength_derivative, jet_mul

__all__ = ["curve_report", "identity_residuals", "monodromy_block"]


def _listed(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float)]


def _finite(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float).ravel()
    return values[np.isfinite(values)]


def _span(values: np.ndarray):
    """[min, max] of finite values, or None when there are none."""
    return [float(values.min()), float(values.max())] if values.size else None


def identity_residuals(curve: Curve, ts) -> dict:
    """Worst-case residuals of the structural identities along the curve.

    tangent_alignment: the evolute velocity against the binormal direction,
    away from evolute cusps.  sphere_rate: d(R^2)/ds against 2 (dr/ds / tau)
    sigma.  determinant_identity: det(t, t'', t''') against
    k^3 tau^2 sigma + k^4 tau, arclength derivatives of the unit tangent.
    """
    return _residuals(FrenetEval(curve, np.asarray(ts, dtype=float), order=4))


def _residuals(fe: FrenetEval) -> dict:
    """identity_residuals from fe, a FrenetEval of order 4: the lowest
    order that holds every jet they read."""
    out = {}
    with np.errstate(all="ignore"):
        sigma = fe.sigma[0]
        good = np.isfinite(sigma) & (np.abs(sigma) > SIGMA_CLEARANCE)
        if good.any():
            dev = _evolute_jets(fe, 1)[1][good]
            cross = np.cross(dev, fe.B[0][good])
            align = np.linalg.norm(cross, axis=-1) / np.linalg.norm(dev, axis=-1)
            out["tangent_alignment"] = float(np.max(_finite(align), initial=0.0))

        radius2 = jet_mul(fe.r, fe.r)[:2] + jet_mul(fe.rr, fe.rr)[:2]
        rate = arclength_derivative(radius2, fe.v)[0]
        sphere = np.abs(rate - 2.0 * fe.rr[0] * sigma) / (1.0 + np.abs(radius2[0]))
        out["sphere_rate"] = float(np.max(_finite(sphere), initial=0.0))

        d1 = arclength_derivative(fe.T, fe.v)
        d2 = arclength_derivative(d1, fe.v)
        d3 = arclength_derivative(d2, fe.v)
        det = np.linalg.det(np.stack([fe.T[0], d2[0], d3[0]], axis=-2))
        k, tau = fe.k[0], fe.tau[0]
        target = k ** 3 * tau ** 2 * sigma + k ** 4 * tau
        rel = np.abs(det - target) / (k ** 4 * np.abs(tau) + 1.0)
        out["determinant_identity"] = float(np.max(_finite(rel), initial=0.0))
    return out


def _verdict_block(verdict: Verdict) -> dict:
    """The report's view of an evolute or pseudo-evolute verdict; a failed
    one raises its error."""
    err = verdict.error
    if verdict.failed:
        raise err
    reason = None if err is None else (
        err.reason if err.t is None else f"{err.reason} at t≈{err.t:.6g}")
    if verdict.construction == "evolute":
        if err is not None:
            return {"defined": False, "reason": reason,
                    "escapes": _listed(verdict.escapes)}
        return {"defined": True, "spherical": verdict.spherical,
                "cusps": _listed(verdict.cusps)}
    if verdict.cylindrical:
        return {"cylindrical": True}
    if err is not None:
        return {"cylindrical": False, "reason": reason}
    return {"cylindrical": False, "escapes": _listed(verdict.escapes),
            "cusps": _listed(verdict.cusps)}


def monodromy_block(curve: Curve,
                    development: Development | None = None) -> dict:
    """The monodromy of a closed curve and its fixed point, or the reason
    it has none."""
    iso = monodromy(curve, development)
    block = {"angle": iso.angle, "angle_mod_2pi": iso.angle_mod_2pi,
             "shift": _listed(iso.shift)}
    try:
        block["fixed_point"] = _listed(iso.fixed_point())
    except GeometryError as exc:
        block["fixed_point"] = None
        block["degeneracy"] = str(exc)
    return block


def _circles_block(curve: Curve, delta: float) -> dict:
    a, b = curve.domain
    probes = np.linspace(a, b, 32, endpoint=False)[1:]
    flags = osculating_circles_disjoint(curve, probes, delta)
    return {"delta": float(delta), "checked": len(flags),
            "all_disjoint": bool(flags.all())}


def curve_report(curve: Curve, samples: int = 1024,
                 circle_delta: float | None = None) -> dict:
    """Full numeric report; see README for the key-by-key schema."""
    ts = probe_grid(curve, samples)
    fe = FrenetEval(curve, ts, order=4)
    with np.errstate(all="ignore"):
        k, tau, sigma = _finite(fe.k[0]), _finite(fe.tau[0]), fe.sigma[0]
    sigma_peak = float(np.max(np.abs(_finite(sigma)), initial=0.0))

    report = {
        "domain": [curve.domain[0], curve.domain[1]],
        "closed": curve.closed,
        "samples": int(samples),
        "curvature_range": _span(k),
        "torsion_range": _span(tau),
        "sigma_peak": sigma_peak,
    }

    def attempt(key, fn):
        try:
            value = fn()
        except (GeometryError, ValueError) as exc:
            report[key] = {"error": str(exc)}
            return
        report[key] = value if value is None or not isinstance(value, float) \
            or math.isfinite(value) else None

    # one table of arc length, turning angle and torsion angle: its tau part
    # serves two keys (three on a closed curve) and its k part two on a
    # closed curve, and a part that fails fails only its own keys.  A build
    # that raises is tried again by the next key, and raises alike
    @cache
    def frenet():
        return ArclengthMap(curve, (None, lambda fe: fe.k, lambda fe: fe.tau))

    attempt("arclength", lambda: frenet().part(0).total)
    attempt("total_curvature", lambda: frenet().part(1).total)
    attempt("total_torsion", lambda: frenet().part(2).total)
    attempt("total_absolute_torsion", lambda: frenet().part(2).variation)
    verdicts = classify(curve, ("evolute", "pseudo-evolute"), samples,
                        probe=fe)
    for key, verdict in zip(("evolute", "pseudo_evolute"), verdicts):
        attempt(key, lambda: _verdict_block(verdict))
    if curve.closed:
        attempt("monge_evolutes_closed", lambda: bool(
            monge_evolutes_closed(curve, frenet().part(2).total)))
        attempt("monodromy", lambda: monodromy_block(
            curve, Development(curve, frenet().part(1))))
    if circle_delta is not None:
        attempt("osculating_circles",
                lambda: _circles_block(curve, circle_delta))
    attempt("residuals", lambda: _residuals(fe))
    return report
