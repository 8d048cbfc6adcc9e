"""The evolute as locus of osculating-sphere centers.

For a curve with nonvanishing curvature and torsion the centers of the
osculating spheres trace the evolute

    e = xi + r n + (dr/ds / tau) b,

whose tangent is everywhere parallel to the binormal: de/ds = sigma b.
Cusps of the evolute are the zeros of sigma, escapes to infinity are the
zeros of the torsion, and sigma identically zero characterizes spherical
curves.  The evolute of a curve with an ordinary cusp stays bounded and
acquires a cusp of its own.
"""

from __future__ import annotations

import numpy as np

from .curves import EPS_TAU, Curve
from .errors import TorsionVanishes
from .frenet import FrenetEval, jet_sum, regular_eval
from .roots import find_roots
from .taylor import (arclength_derivative, jet_div, jet_mul, jet_recip)

__all__ = [
    "evolute_point", "EvoluteCurve",
    "evolute_cusps", "evolute_escapes",
    "osculating_sphere", "osculating_circle",
    "evolute_curvature_torsion", "interior_sign", "conformal_torsion",
    "second_evolute_residual", "osculating_circle_avoids_plane",
    "osculating_circles_disjoint",
]


def _evolute_jets(fe: FrenetEval, order: int) -> np.ndarray:
    m = order + 1
    e = jet_sum(fe.x[:m], jet_mul(fe.r, fe.N)[:m])
    return jet_sum(e, jet_mul(fe.rr, fe.B)[:m])


def evolute_point(curve: Curve, t: float) -> np.ndarray:
    """Center of the osculating sphere at t; raises on degeneracies."""
    fe = regular_eval(curve, t, order=3)
    if abs(fe.tau[0, 0]) <= EPS_TAU:
        raise TorsionVanishes("evolute escapes to infinity", t=t)
    return _evolute_jets(fe, 0)[0, 0].copy()


class EvoluteCurve(Curve):
    """The evolute as a differentiable curve in its own right.

    Derivatives of any order are propagated through the defining jets, so
    the evolute can be fed back into every construction here, including a
    second evolute.  Parameters where the base torsion vanishes evaluate to
    non-finite entries.
    """

    def __init__(self, base: Curve):
        super().__init__(base.domain, base.closed)
        self.base = base

    def derivatives(self, t, order: int) -> np.ndarray:
        fe = FrenetEval(self.base, t, order=order + 3)
        with np.errstate(all="ignore"):
            return _evolute_jets(fe, order)

    def __repr__(self):
        return f"EvoluteCurve({self.base!r})"


def evolute_cusps(curve: Curve) -> np.ndarray:
    """Parameters where sigma vanishes (cusps of the evolute)."""
    def sigma_fn(ts):
        return FrenetEval(curve, ts, order=4).sigma[0]
    a, b = curve.domain
    return find_roots(sigma_fn, a, b, closed=curve.closed)


def evolute_escapes(curve: Curve) -> np.ndarray:
    """Parameters where the torsion vanishes and the evolute diverges."""
    def tau_fn(ts):
        return FrenetEval(curve, ts, order=3).tau[0]
    a, b = curve.domain
    return find_roots(tau_fn, a, b, closed=curve.closed)


def osculating_sphere(curve: Curve, t: float):
    """Center and radius of the osculating sphere at t."""
    center = evolute_point(curve, t)
    fe = FrenetEval(curve, t, order=3)
    radius = float(np.hypot(fe.r[0, 0], fe.rr[0, 0]))
    return center, radius


def osculating_circle(curve: Curve, t: float):
    """Center, radius, and plane normal of the osculating circle at t."""
    fe = regular_eval(curve, t, order=2)
    k = fe.k[0, 0]
    center = fe.x[0, 0] + fe.N[0, 0] / k
    return center.copy(), float(1.0 / k), fe.B[0, 0].copy()


def evolute_curvature_torsion(curve: Curve, ts):
    """Closed-form curvature |tau/sigma| and torsion k/sigma of the evolute."""
    fe = FrenetEval(curve, ts, order=4)
    with np.errstate(all="ignore"):
        return np.abs(fe.tau[0] / fe.sigma[0]), fe.k[0] / fe.sigma[0]


def interior_sign(curve: Curve, ts) -> np.ndarray:
    """Sign of sigma*tau, the local position relative to the osculating sphere.

    Positive means the sphere center moves along the binormal (for positive
    torsion) and the curve stays locally outside its osculating sphere;
    negative means locally inside.  Checked directly: the circular helix has
    sigma*tau = 1/2 and dist(xi(t+h), center)^2 - R^2 = h^4/12 + O(h^6) > 0.
    """
    fe = FrenetEval(curve, ts, order=4)
    with np.errstate(all="ignore"):
        product = fe.sigma[0] * fe.tau[0]
    return np.sign(np.where(np.isfinite(product), product, 0.0))


def conformal_torsion(curve: Curve, ts) -> np.ndarray:
    """k^3 tau^2 sigma / R^(5/2) with R the osculating-sphere radius."""
    fe = FrenetEval(curve, ts, order=4)
    with np.errstate(all="ignore"):
        R = np.hypot(fe.r[0], fe.rr[0])
        return fe.k[0] ** 3 * fe.tau[0] ** 2 * fe.sigma[0] / R ** 2.5


def second_evolute_residual(curve: Curve, ts) -> np.ndarray:
    """Residual of the second-evolute arclength condition.

    A curve is congruent to its second evolute exactly when

        (1/(r tau)) (dr/ds / tau)' + ( (1/(sigma tau)) (sigma/tau)' )' = 0

    with ' the arclength derivative.  Curves of constant curvature satisfy
    it identically.
    """
    fe = FrenetEval(curve, ts, order=6)
    with np.errstate(all="ignore"):
        rr_s = arclength_derivative(fe.rr, fe.v)
        first = rr_s[0] / (fe.r[0] * fe.tau[0])
        ratio_s = arclength_derivative(jet_div(fe.sigma, fe.tau), fe.v)
        inner = jet_mul(jet_recip(jet_mul(fe.sigma, fe.tau)), ratio_s)
        second = arclength_derivative(inner, fe.v)[0]
    return first + second


def osculating_circle_avoids_plane(curve: Curve, t0: float, t1: float) -> bool:
    """True when the osculating circle at t0 misses the osculating plane at t1.

    The circle lies in the osculating plane at t0; it meets the plane at t1
    only if it meets the intersection line of the two planes, so the test
    compares the in-plane distance from the circle center to that line with
    the circle radius.  Parallel distinct planes trivially miss.
    """
    center, radius, n0 = osculating_circle(curve, t0)
    fe1 = FrenetEval(curve, t1, order=2)
    n1 = fe1.B[0, 0]
    p0, p1 = curve.point(t0), curve.point(t1)
    direction = np.cross(n0, n1)
    norm2 = float(direction @ direction)
    if norm2 <= 1e-24:
        return True
    line_point = ((p0 @ n0) * np.cross(n1, direction)
                  + (p1 @ n1) * np.cross(direction, n0)) / norm2
    offset = center - line_point
    offset -= (offset @ direction) / norm2 * direction
    return float(np.linalg.norm(offset)) > radius


def osculating_circles_disjoint(curve: Curve, t0: float, delta: float) -> bool:
    """True when the circle at t0 misses the osculating planes at t0 +- delta.

    Neighbours outside the domain are ignored (wrapped first for closed
    curves).  delta = 0 degenerates to the same plane and counts as true.
    """
    if delta == 0.0:
        return True
    a, b = curve.domain
    for t1 in (t0 - delta, t0 + delta):
        if curve.closed:
            t1 = a + (t1 - a) % (b - a)
        elif not a <= t1 <= b:
            continue
        if not osculating_circle_avoids_plane(curve, t0, t1):
            return False
    return True
