"""Frenet data as truncated Taylor jets.

``FrenetEval`` turns the raw derivative stack of a curve into jets of every
first-order invariant: speed, curvature, torsion, the frame, the curvature
radius r, its arclength derivative, and the cusp density

    sigma = r*tau + d/ds( (dr/ds) / tau ),

which is the speed of the evolute with respect to arc length of the base
curve and vanishes exactly at evolute cusps.  All quantities are vectorized
over the query parameters and computed to whatever jet order the raw stack
supports, so derived curves in turn have exact derivatives.

``ArclengthMap`` is the one integral along a curve, c0 + the integral of a
Frenet weight ds: arc length, the turning angle of the development, the
torsion angle of the Monge evolutes and every total are its tables.

Conventions: curvature is nonnegative, torsion is signed by det(x', x'',
x''') and d/ds denotes the arclength derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import CUSP_GAP, EPS_K, EPS_TAU, MIN_SPEED, Curve
from .errors import CuspPoint, DegenerateCurvature, LengthMismatch
from .quadrature import CumulativeIntegral
from .taylor import (antiderivative_jet, arclength_derivative, jet_cross,
                     jet_div, jet_dot, jet_mul, jet_recip, jet_sqrt)

__all__ = [
    "FrenetEval", "regular_eval", "sigma_values",
    "ArclengthMap", "arclength", "total_curvature", "total_torsion",
    "total_absolute_torsion", "indicatrix_geodesic_curvature",
    "CongruenceReport", "is_congruent",
]


def jet_sum(a, b):
    m = min(len(a), len(b))
    return a[:m] + b[:m]


class FrenetEval:
    """Jets of the Frenet apparatus at an array of parameters.

    ``order`` is the order of the raw derivative stack; derived jets come
    out shorter (sigma loses four orders, the frame two).  Division by a
    vanishing torsion or curvature produces inf/nan entries rather than
    raising; callers mask or avoid those parameters.
    """

    def __init__(self, curve: Curve, t, order: int = 4):
        self.curve = curve
        self.t = np.atleast_1d(np.asarray(t, dtype=float))
        self.order = order
        with np.errstate(all="ignore"):
            self.x = curve.derivatives(self.t, order)

    def _quiet(self, fn):
        with np.errstate(all="ignore"):
            return fn()

    @cached_property
    def d1(self):
        return self.x[1:]

    @cached_property
    def u(self):
        return jet_dot(self.d1, self.d1)

    @cached_property
    def v(self):
        """Speed jet |x'|."""
        return self._quiet(lambda: jet_sqrt(self.u))

    @cached_property
    def cross12(self):
        return jet_cross(self.d1, self.x[2:])

    @cached_property
    def q(self):
        return jet_dot(self.cross12, self.cross12)

    @cached_property
    def w(self):
        return self._quiet(lambda: jet_sqrt(self.q))

    @cached_property
    def p(self):
        """det(x', x'', x''') jet."""
        return jet_dot(self.cross12, self.x[3:])

    @cached_property
    def k(self):
        return self._quiet(lambda: jet_div(self.w, jet_mul(self.u, self.v)))

    @cached_property
    def tau(self):
        return self._quiet(lambda: jet_div(self.p, self.q))

    @cached_property
    def T(self):
        return self._quiet(lambda: jet_div(self.d1, self.v))

    @cached_property
    def B(self):
        return self._quiet(lambda: jet_div(self.cross12, self.w))

    @cached_property
    def N(self):
        return jet_cross(self.B, self.T)

    @cached_property
    def r(self):
        """Curvature radius jet 1/k."""
        return self._quiet(lambda: jet_recip(self.k))

    @cached_property
    def r_s(self):
        return self._quiet(lambda: arclength_derivative(self.r, self.v))

    @cached_property
    def rr(self):
        """Jet of (dr/ds)/tau, the binormal coefficient of the evolute."""
        return self._quiet(lambda: jet_div(self.r_s, self.tau))

    @cached_property
    def sigma(self):
        return self._quiet(lambda: jet_sum(
            jet_mul(self.r, self.tau),
            arclength_derivative(self.rr, self.v)))


def regular_eval(curve: Curve, t, order: int) -> FrenetEval:
    """FrenetEval at the parameters t, which raises at the first irregular
    one: CuspPoint on a declared cusp or where the speed vanishes, then
    DegenerateCurvature where k does."""
    fe = FrenetEval(curve, t, order=order)
    cusps = np.asarray(curve.cusps, dtype=float)
    on_cusp = (np.abs(fe.t[:, None] - cusps) <= CUSP_GAP).any(axis=1)
    stalled = ~(fe.v[0] > MIN_SPEED)
    flat = ~(fe.k[0] > EPS_K)
    bad = np.flatnonzero(on_cusp | stalled | flat)
    if bad.size:
        i = bad[0]
        t = float(fe.t[i])
        if on_cusp[i]:
            raise CuspPoint("curve has a cusp", t=t)
        if stalled[i]:
            raise CuspPoint("speed vanishes", t=t)
        raise DegenerateCurvature("curvature vanishes", t=t)
    return fe


def sigma_values(curve: Curve, ts) -> np.ndarray:
    """Vectorized sigma with nan where torsion is below the threshold."""
    fe = FrenetEval(curve, ts, order=4)
    out = fe.sigma[0].copy()
    out[np.abs(fe.tau[0]) <= EPS_TAU] = np.nan
    return out


class ArclengthMap(CumulativeIntegral):
    """c0 + the integral of weight ds from the start of the curve's domain.

    ``weight`` maps a FrenetEval to the jet of the weight: None is 1 (arc
    length), ``fe.k`` gives the turning angle and ``fe.tau`` the torsion
    angle.  ``inverse`` (say from arc length to parameter) assumes a
    weight >= 0.
    """

    def __init__(self, curve: Curve, weight=None, c0: float = 0.0):
        self.weight = weight
        order = 1 if weight is None else 3

        def rate(ts):
            fe = FrenetEval(curve, ts, order=order)
            return fe.v[0] if weight is None else weight(fe)[0] * fe.v[0]

        a, b = curve.domain
        super().__init__(rate, a, b, c0)

    def jets(self, fe: FrenetEval, ts, order: int):
        """Jet of the map at ts to the given order, from fe, the FrenetEval
        of the curve at ts; it is one row longer than the jet of
        weight * speed."""
        rate = fe.v if self.weight is None else jet_mul(self.weight(fe), fe.v)
        return antiderivative_jet(self(ts), rate)[: order + 1]


def arclength(curve: Curve) -> float:
    return ArclengthMap(curve).total


def total_curvature(curve: Curve) -> float:
    """Integral of k ds over the whole domain."""
    return ArclengthMap(curve, lambda fe: fe.k).total


def total_torsion(curve: Curve) -> float:
    """Integral of tau ds over the whole domain."""
    return ArclengthMap(curve, lambda fe: fe.tau).total


def total_absolute_torsion(curve: Curve) -> float:
    """Integral of |tau| ds over the whole domain; panel refinement resolves
    the kinks at torsion zeros."""
    return ArclengthMap(curve, lambda fe: np.sign(fe.tau[0]) * fe.tau).total


def indicatrix_geodesic_curvature(curve: Curve, ts) -> np.ndarray:
    """Geodesic curvature tau/k of the tangent indicatrix on the sphere."""
    fe = FrenetEval(curve, ts, order=3)
    with np.errstate(all="ignore"):
        return fe.tau[0] / fe.k[0]


@dataclass(frozen=True)
class CongruenceReport:
    congruent: bool
    mirror: bool
    max_deviation: float
    length_difference: float


def is_congruent(c1: Curve, c2: Curve) -> CongruenceReport:
    """Compare curvature/torsion profiles over arc length from each start.

    Curves of equal length are congruent iff the profiles agree (within
    1e-4 at 512 arc lengths); a sign flip of torsion alone marks a mirror
    image.  Raises LengthMismatch when the arc lengths differ by more than
    1e-3 of the longer, too much for the comparison to mean anything.
    """
    maps = ArclengthMap(c1), ArclengthMap(c2)
    L1, L2 = (smap.total for smap in maps)
    if abs(L1 - L2) > 1e-3 * max(L1, L2):
        raise LengthMismatch(f"arc lengths differ: {L1:.9g} vs {L2:.9g}")
    s = np.linspace(0.0, min(L1, L2), 512)
    profiles = []
    for curve, smap in zip((c1, c2), maps):
        fe = FrenetEval(curve, smap.inverse(s), order=3)
        profiles.append((fe.k[0], fe.tau[0]))
    (k1, tau1), (k2, tau2) = profiles
    dk = float(np.max(np.abs(k1 - k2)))
    direct = max(dk, float(np.max(np.abs(tau1 - tau2))))
    mirrored = max(dk, float(np.max(np.abs(tau1 + tau2))))
    mirror = mirrored < direct
    deviation = min(direct, mirrored)
    return CongruenceReport(deviation <= 1e-4, mirror, deviation,
                            abs(L1 - L2))
