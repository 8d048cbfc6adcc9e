"""One singularity classifier for the evolute, pseudo-evolute and Monge
evolute, read by both the CLI and ``report``: the only code that probes a
construction and searches its scan rows.

The checks, in order, on a probe grid that skips the declared cusps: k <=
EPS_K everywhere leaves no construction defined; for the evolute, |tau| <=
EPS_TAU everywhere (a planar curve) sends it to infinity and |sigma| <=
SPHERICAL_SIGMA everywhere (a spherical curve) collapses it to a point;
constant tau/k (a cylindrical curve) sends the pseudo-evolute to infinity;
constant k cos(alpha) (a circle, say) collapses the Monge evolute to a
point.  Constant means a relative spread of at most CONSTANT_SPREAD.
Escapes and cusps are the roots of one shared search per call: the scan
rows of every construction the checks leave pending, each module's
``*_scan_rows``, from one FrenetEval per call of f.  The rows keep their
own brackets, so each construction's roots are those a search of its rows
alone finds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import evolute, monge, pseudo
from .curves import CONSTANT_SPREAD, EPS_K, EPS_TAU, SPHERICAL_SIGMA, Curve
from .errors import (DegenerateCurvature, GeometryError, InfinityEscape,
                     TorsionVanishes)
from .evolute import EvoluteCurve, evolute_scan_rows
from .frenet import FrenetEval
from .monge import MongeEvoluteCurve, monge_scan_rows
from .pseudo import PseudoEvoluteCurve, pseudo_scan_rows
from .roots import find_roots

__all__ = ["Verdict", "classify", "probe_grid"]

PROBE_SAMPLES = 512
PROBE_MARGIN = 1e-6     # probe points this close to a declared cusp are dropped
# the FrenetEval order each construction's probe checks read
_PROBE_ORDER = {"evolute": 4, "pseudo-evolute": 3, "monge-evolute": 2}


@dataclass(frozen=True)
class Verdict:
    """``error`` is the degeneracy to raise, or None; ``failed`` marks an
    error that classifying raised (a DomainError, say) rather than found;
    ``cuts`` are the branch cuts (escapes, cusps, declared cusps);
    ``point`` maps t to points."""

    construction: str
    error: Exception | None
    point: Callable | None
    spherical: bool = False
    cylindrical: bool = False
    escapes: tuple = ()
    cusps: tuple = ()
    cuts: tuple = ()
    failed: bool = False


def probe_grid(curve: Curve, samples: int) -> np.ndarray:
    """The uniform grid of the domain without points at declared cusps."""
    ts = curve.grid(samples)
    if curve.cusps:
        gap = np.min(np.abs(ts[:, None] - np.array(curve.cusps)), axis=1)
        ts = ts[gap > PROBE_MARGIN]
    return ts


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def is_constant(values) -> bool:
    """True when the finite values exist and spread by at most
    CONSTANT_SPREAD times the largest of them in size."""
    values = values[np.isfinite(values)]
    if values.size == 0:
        return False
    scale = max(float(np.max(np.abs(values))), 1e-30)
    return float(np.max(values) - np.min(values)) <= CONSTANT_SPREAD * scale


def classify(curve: Curve, constructions: tuple, samples: int,
             alpha0: float = 0.0, probe: FrenetEval | None = None) -> tuple:
    """Existence, escapes and cusps of each construction on the curve: one
    Verdict each, from one probe FrenetEval and one root search.  A higher
    jet order can raise where a lower one does not, so where the joint pass
    raises, each construction is classified alone and keeps its own
    outcome.  ``probe``, a FrenetEval the caller already has, is the probe
    if it is of the probe grid and of at least the order the checks read."""
    for construction in constructions:
        if construction not in _PROBE_ORDER:
            raise ValueError(f"unknown construction {construction!r}")
    try:
        return _classify(curve, constructions, samples, alpha0, probe)
    except (GeometryError, ValueError) as exc:
        if len(constructions) > 1:
            return tuple(classify(curve, (c,), samples, alpha0, probe)[0]
                         for c in constructions)
        return (Verdict(constructions[0], exc, None, failed=True),)


def _probe_checks(curve: Curve, construction: str, fe: FrenetEval,
                  alpha0: float):
    """The construction's checks on the probe fe: the Verdict when one
    decides it, else (point, scan order, scan rows of a FrenetEval)."""
    verdict = partial(Verdict, construction)
    t0 = float(fe.t[0]) if len(fe.t) else None
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
        return point, evolute.SCAN_ORDER, evolute_scan_rows
    if construction == "pseudo-evolute":
        point = PseudoEvoluteCurve(curve).point
        with np.errstate(all="ignore"):
            cylindrical = is_constant(fe.tau[0] / fe.k[0])
        if cylindrical:
            return verdict(InfinityEscape(
                "tau/k is constant (cylindrical curve): the pseudo-evolute"
                " escapes to infinity everywhere"), point, cylindrical=True)
        return point, pseudo.SCAN_ORDER, pseudo_scan_rows
    ev = MongeEvoluteCurve(curve, alpha0, closed=curve.closed)
    if is_constant(fe.k[0] * np.cos(ev.alpha(fe.t))):
        return verdict(GeometryError(
            "k cos(alpha) is constant (relative spread <= CONSTANT_SPREAD="
            f"{CONSTANT_SPREAD:g}): the Monge evolute degenerates to a"
            " point", t=t0), ev.point)
    return ev.point, monge.SCAN_ORDER, partial(monge_scan_rows, ev)


def _classify(curve, constructions, samples, alpha0, probe=None) -> tuple:
    ts = probe_grid(curve, min(samples, PROBE_SAMPLES))
    order = max(_PROBE_ORDER[c] for c in constructions)
    fe = probe
    if fe is None or fe.order < order or not np.array_equal(fe.t, ts):
        fe = FrenetEval(curve, ts, order=order)
    verdicts = [_probe_checks(curve, c, fe, alpha0) for c in constructions]
    pending = [i for i, v in enumerate(verdicts) if not isinstance(v, Verdict)]
    if not pending:
        return tuple(verdicts)
    scan_order = max(verdicts[i][1] for i in pending)

    def scan(t):
        fe = FrenetEval(curve, t, order=scan_order)
        return [row for i in pending for row in verdicts[i][2](fe)]

    a, b = curve.domain
    roots = iter(find_roots(scan, a, b, closed=curve.closed))
    for i in pending:
        escapes, cusps = _floats(next(roots)), _floats(next(roots))
        verdict = partial(Verdict, constructions[i], point=verdicts[i][0],
                          escapes=escapes)
        if constructions[i] == "evolute" and escapes:
            verdicts[i] = verdict(TorsionVanishes("torsion vanishes",
                                                  t=escapes[0]), cusps=cusps)
        else:
            verdicts[i] = verdict(None, cusps=cusps,
                                  cuts=escapes + cusps + curve.cusps)
    return tuple(verdicts)
