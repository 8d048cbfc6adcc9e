"""One singularity classifier for the evolute, pseudo-evolute and Monge
evolute, read by both the CLI and ``report``.

The checks, in order, on a probe grid that skips the declared cusps: k <=
EPS_K everywhere leaves no construction defined; for the evolute, |tau| <=
EPS_TAU everywhere (a planar curve) sends it to infinity and |sigma| <=
SPHERICAL_SIGMA everywhere (a spherical curve) collapses it to a point;
constant tau/k (a cylindrical curve) sends the pseudo-evolute to infinity;
constant k cos(alpha) (a circle, say) collapses the Monge evolute to a
point.  Constant means a relative spread of at most CONSTANT_SPREAD.
Escapes and cusps are the roots of one shared search per construction,
made by its own module's ``*_singularities``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .curves import CONSTANT_SPREAD, EPS_K, EPS_TAU, SPHERICAL_SIGMA, Curve
from .errors import (DegenerateCurvature, GeometryError, InfinityEscape,
                     TorsionVanishes)
from .evolute import EvoluteCurve, evolute_singularities
from .frenet import FrenetEval
from .monge import MongeEvoluteCurve, monge_singularities
from .pseudo import (PseudoEvoluteCurve, is_constant, is_cylindrical,
                     pseudo_singularities)

__all__ = ["Verdict", "classify", "probe_grid"]

PROBE_SAMPLES = 512
PROBE_MARGIN = 1e-6     # probe points this close to a declared cusp are dropped


@dataclass(frozen=True)
class Verdict:
    """``error`` is the degeneracy to raise, or None; ``cuts`` are the
    branch cuts (escapes, cusps, declared cusps); ``point`` maps t to points."""

    construction: str
    error: GeometryError | None
    point: Callable | None
    spherical: bool = False
    cylindrical: bool = False
    escapes: tuple = ()
    cusps: tuple = ()
    cuts: tuple = ()


def probe_grid(curve: Curve, samples: int) -> np.ndarray:
    """The uniform grid of the domain without points at declared cusps."""
    ts = curve.grid(samples)
    if curve.cusps:
        gap = np.min(np.abs(ts[:, None] - np.array(curve.cusps)), axis=1)
        ts = ts[gap > PROBE_MARGIN]
    return ts


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def classify(curve: Curve, construction: str, samples: int,
             alpha0: float = 0.0) -> Verdict:
    """Existence, escapes and cusps of one construction on the curve."""
    ts = probe_grid(curve, min(samples, PROBE_SAMPLES))
    t0 = float(ts[0]) if len(ts) else None
    fe = FrenetEval(curve, ts, order=4 if construction == "evolute" else 2)
    verdict = partial(Verdict, construction)
    if not np.any(fe.k[0] > EPS_K):
        return verdict(DegenerateCurvature(
            f"curvature vanishes identically (k <= EPS_K={EPS_K:g})", t=t0),
            None)
    if construction == "evolute":
        point = EvoluteCurve(curve).point
        if not np.any(np.abs(fe.tau[0]) > EPS_TAU):
            return verdict(TorsionVanishes(
                "torsion vanishes identically (planar curve,"
                f" |tau| <= EPS_TAU={EPS_TAU:g})", t=t0), point)
        sigma = fe.sigma[0][np.isfinite(fe.sigma[0])]
        if sigma.size and np.all(np.abs(sigma) <= SPHERICAL_SIGMA):
            return verdict(None, point, spherical=True, cuts=curve.cusps)
        escapes, cusps = map(_floats, evolute_singularities(curve))
        if escapes:
            return verdict(TorsionVanishes("torsion vanishes", t=escapes[0]),
                           point, escapes=escapes)
    elif construction == "pseudo-evolute":
        point = PseudoEvoluteCurve(curve).point
        if is_cylindrical(curve):
            return verdict(InfinityEscape(
                "tau/k is constant (cylindrical curve): the pseudo-evolute"
                " escapes to infinity everywhere"), point, cylindrical=True)
        escapes, cusps = map(_floats, pseudo_singularities(curve))
    elif construction == "monge-evolute":
        ev = MongeEvoluteCurve(curve, alpha0, closed=curve.closed)
        point = ev.point
        if is_constant(fe.k[0] * np.cos(ev.alpha(ts))):
            return verdict(GeometryError(
                "k cos(alpha) is constant (relative spread <= CONSTANT_SPREAD="
                f"{CONSTANT_SPREAD:g}): the Monge evolute degenerates to a"
                " point", t=t0), point)
        escapes, cusps = map(_floats, monge_singularities(ev))
    else:
        raise ValueError(f"unknown construction {construction!r}")
    return verdict(None, point, escapes=escapes, cusps=cusps,
                   cuts=escapes + cusps + curve.cusps)
