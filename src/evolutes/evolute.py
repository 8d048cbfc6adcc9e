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

from .curves import EPS_K, EPS_TAU, Curve
from .errors import TorsionVanishes
from .frenet import FrenetEval, jet_sum, regular_eval
from .taylor import (arclength_derivative, jet_div, jet_mul, jet_recip)

__all__ = [
    "EvoluteCurve", "evolute_scan_rows",
    "osculating_sphere", "osculating_circle",
    "evolute_curvature_torsion", "interior_sign", "conformal_torsion",
    "second_evolute_residual", "osculating_circles_disjoint",
]


def _evolute_jets(fe: FrenetEval, order: int) -> np.ndarray:
    m = order + 1
    e = jet_sum(fe.x[:m], jet_mul(fe.r, fe.N)[:m])
    return jet_sum(e, jet_mul(fe.rr, fe.B)[:m])


class EvoluteCurve(Curve):
    """The evolute as a differentiable curve in its own right.

    Derivatives of any order are propagated through the defining jets, so
    the evolute can be fed back into every construction here, including a
    second evolute.  Where k <= EPS_K or |tau| <= EPS_TAU it is at
    infinity: nan rows in every order.
    """

    def __init__(self, base: Curve):
        super().__init__(base.domain, base.closed)
        self.base = base

    def derivatives(self, t, order: int) -> np.ndarray:
        fe = FrenetEval(self.base, t, order=order + 3)
        with np.errstate(all="ignore"):
            out = _evolute_jets(fe, order)
            defined = (fe.k[0] > EPS_K) & (np.abs(fe.tau[0]) > EPS_TAU)
        out[:, ~defined] = np.nan
        return out

    def __repr__(self):
        return f"EvoluteCurve({self.base!r})"


SCAN_ORDER = 4      # the FrenetEval order evolute_scan_rows reads


def evolute_scan_rows(fe: FrenetEval) -> tuple:
    """Row 0 of the torsion, zero where the evolute diverges, and of sigma,
    zero at its cusps."""
    return fe.tau[0], fe.sigma[0]


def osculating_sphere(curve: Curve, t: float):
    """Center and radius of the osculating sphere at t; raises where not
    defined."""
    fe = regular_eval(curve, t, order=3)
    if abs(fe.tau[0, 0]) <= EPS_TAU:
        raise TorsionVanishes("evolute escapes to infinity", t=t)
    center = _evolute_jets(fe, 0)[0, 0]
    return center, float(np.hypot(fe.r[0, 0], fe.rr[0, 0]))


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


def osculating_circles_disjoint(curve: Curve, t0, delta: float):
    """True where the osculating circle at t0 misses the osculating planes
    at t0 +- delta; t0 is an array of parameters or one, which gives a bool.

    The circle lies in the osculating plane at t0; it meets the plane at a
    neighbour t1 only if it meets the intersection line of the two planes,
    so the test compares the in-plane distance from the circle center to
    that line with the circle radius.  Parallel distinct planes trivially
    miss.  Neighbours outside the domain are ignored (wrapped first for
    closed curves).  delta = 0 degenerates to the same plane and counts as
    true.  A t0 without a circle raises as in regular_eval.
    """
    scalar = np.ndim(t0) == 0
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    disjoint = np.ones(len(t0), dtype=bool)
    if delta != 0.0:
        a, b = curve.domain
        fe0 = regular_eval(curve, t0, order=2)
        t1 = np.stack([t0 - delta, t0 + delta])
        if curve.closed:
            t1 = a + (t1 - a) % (b - a)
        fe1 = FrenetEval(curve, np.clip(t1, a, b).ravel(), order=2)
        p0, n0, k = fe0.x[0], fe0.B[0], fe0.k[0]
        p1, n1 = (x.reshape(2, len(t0), 3) for x in (fe1.x[0], fe1.B[0]))
        center = p0 + fe0.N[0] / k[:, None]
        direction = np.cross(n0, n1)
        norm2 = np.sum(direction * direction, axis=-1, keepdims=True)
        with np.errstate(all="ignore"):
            line_point = (np.sum(p0 * n0, axis=-1, keepdims=True)
                          * np.cross(n1, direction)
                          + np.sum(p1 * n1, axis=-1, keepdims=True)
                          * np.cross(direction, n0)) / norm2
            offset = center - line_point
            offset -= (np.sum(offset * direction, axis=-1, keepdims=True)
                       / norm2 * direction)
            misses = np.linalg.norm(offset, axis=-1) > 1.0 / k
        misses |= (norm2[..., 0] <= 1e-24) | (t1 < a) | (t1 > b)
        disjoint = misses.all(axis=0)
    return bool(disjoint[0]) if scalar else disjoint
