"""Pseudo-evolutes: regression edges of rectifying developables.

The rectifying planes of a curve envelope a developable surface on which
the curve is a geodesic; the regression edge of that surface is the
pseudo-evolute.  In arclength terms

    eps = xi + k / (k' tau - k tau') (tau T + k B),

but the implementation clears every radical first.  With t-derivatives and

    u = x'.x',  C = x' x x'',  q = C.C,  p = C.x''',
    E = 3 u p q' - 3 u' p q - 2 u q p',

the same point is

    eps = xi + 2 q (u p x' + q C) / E,

a ratio of polynomials in the curve derivatives.  That makes the formula
usable at parameters where speed, curvature, and torsion all degenerate
simultaneously: when numerator and denominator vanish to matching order the
limit is recovered by comparing leading jet coefficients, which is how the
pseudo-evolute of a cusped curve is evaluated straight through the cusp.

Escapes to infinity happen where (tau/k)' = 0 and cusps where (tau/k)'' = 0
(arclength derivatives).  A curve with constant tau/k has a cylindrical
rectifying developable and no pseudo-evolute at all.
"""

from __future__ import annotations

import warnings

import numpy as np

from .curves import CONSTANT_SPREAD, Curve
from .errors import LineThroughEdge
from .frenet import FrenetEval, jet_sum
from .roots import find_roots
from .taylor import (arclength_derivative, jet_deflate, jet_div, jet_mul,
                     jet_sin_cos)

__all__ = [
    "pseudo_evolute_points", "PseudoEvoluteCurve",
    "pseudo_singularities", "is_cylindrical", "is_constant",
    "geodesic_residual", "PseudoInvoluteCurve",
]


def _numerator_denominator(fe: FrenetEval):
    """Jets of 2q(u p x' + q C) and E; the pseudo-evolute offset is their ratio."""
    u, q, p = fe.u, fe.q, fe.p
    up = jet_mul(u, p)
    terms = (jet_mul(up, q[1:]), jet_mul(jet_mul(u[1:], p), q),
             jet_mul(jet_mul(u, q), p[1:]))
    m = min(len(term) for term in terms)
    E = 3.0 * terms[0][:m] - 3.0 * terms[1][:m] - 2.0 * terms[2][:m]
    V = jet_sum(jet_mul(up, fe.d1), jet_mul(q, fe.cross12))
    W = 2.0 * jet_mul(q, V)
    return W, E


def _escape_threshold(fe: FrenetEval):
    # matches |k' tau - k tau'| <= 1e-12 k |tau| in arclength terms
    return 2e-12 * fe.u[0] * fe.q[0] * np.abs(fe.p[0])


# highest order of the numerator and denominator jets a 0/0 limit reads
_LIMIT_ORDER = 10


def _limit_jets(curve: Curve, t, order: int) -> np.ndarray:
    """Jets at removable 0/0 points t: W and E over (t - t0)^j, j the order
    to which both vanish in their jets to _LIMIT_ORDER; nan rows where E
    vanishes to every order read, or W to fewer orders than E."""
    m = order + 1
    fe = FrenetEval(curve, t, order=order + _LIMIT_ORDER + 4)
    out = np.full((m, len(fe.t), 3), np.nan)
    with np.errstate(all="ignore"):
        W, E = _numerator_denominator(fe)
        e = np.abs(E[: _LIMIT_ORDER + 1])
        w = np.max(np.abs(W[: _LIMIT_ORDER + 1]), axis=-1)
        j = np.argmax(e > 1e-6 * e.max(axis=0), axis=0)
        noise = (e <= 1e-9 * e.max(axis=0)) & (w <= 1e-9 * w.max(axis=0))
        below = np.arange(_LIMIT_ORDER + 1)[:, None] < j
        ok = (e.max(axis=0) > 0.0) & (noise | ~below).all(axis=0)
        for jj in np.unique(j[ok]):
            rows = ok & (j == jj)
            ratio = jet_div(jet_deflate(W[: jj + m, rows], jj),
                            jet_deflate(E[: jj + m, rows], jj))
            out[:, rows] = fe.x[:m, rows] + ratio
    return out


def pseudo_evolute_points(curve: Curve, ts) -> np.ndarray:
    """Vectorized pseudo-evolute; escape parameters give non-finite rows."""
    fe = FrenetEval(curve, ts, order=4)
    with np.errstate(all="ignore"):
        W, E = _numerator_denominator(fe)
        out = fe.x[0] + W[0] / E[0][:, None]
        out[np.abs(E[0]) <= _escape_threshold(fe)] = np.nan
    return out


class PseudoEvoluteCurve(Curve):
    """The pseudo-evolute as a differentiable curve; where W and E are both
    0 to rounding, as at a curve cusp, its jets are their limit's."""

    def __init__(self, base: Curve):
        super().__init__(base.domain, base.closed)
        self.base = base

    def derivatives(self, t, order: int) -> np.ndarray:
        fe = FrenetEval(self.base, t, order=order + 4)
        m = order + 1
        with np.errstate(all="ignore"):
            W, E = _numerator_denominator(fe)
            out = jet_sum(fe.x[:m], jet_div(W, E)[:m])
            # W's rounding level: 2e-12 times the sizes of its terms
            u, q = fe.u[0], fe.q[0]
            w_tiny = 2e-12 * q * (u * np.abs(fe.p[0]) * np.sqrt(u)
                                  + q * np.sqrt(q))
            removable = ((np.abs(E[0]) <= _escape_threshold(fe))
                         & (np.max(np.abs(W[0]), axis=-1) <= w_tiny))
        if removable.any():
            out[:, removable] = _limit_jets(self.base, fe.t[removable], order)
        return out

    def __repr__(self):
        return f"PseudoEvoluteCurve({self.base!r})"


def pseudo_singularities(curve: Curve) -> tuple:
    """(escapes, cusps) of the pseudo-evolute from one search: the zeros of
    (tau/k)', where it diverges, and of (tau/k)'', its cusps."""
    def scan(ts):
        fe = FrenetEval(curve, ts, order=5)
        with np.errstate(all="ignore"):
            rate = arclength_derivative(jet_div(fe.tau, fe.k), fe.v)
            return np.stack([rate[0], arclength_derivative(rate, fe.v)[0]])
    a, b = curve.domain
    return find_roots(scan, a, b, closed=curve.closed)


def is_cylindrical(curve: Curve) -> bool:
    """True when tau/k is constant on 512 samples, so the rectifying
    developable is a cylinder and the pseudo-evolute is everywhere at
    infinity."""
    ts = curve.grid(513)[:-1] if curve.closed else curve.grid(512)
    fe = FrenetEval(curve, ts, order=3)
    with np.errstate(all="ignore"):
        return is_constant(fe.tau[0] / fe.k[0])


def is_constant(values) -> bool:
    """True when the finite values exist and spread by at most
    CONSTANT_SPREAD times the largest of them in size."""
    values = values[np.isfinite(values)]
    if values.size == 0:
        return False
    scale = max(float(np.max(np.abs(values))), 1e-30)
    return float(np.max(values) - np.min(values)) <= CONSTANT_SPREAD * scale


def geodesic_residual(curve: Curve, ts) -> np.ndarray:
    """Sine of the angle between the principal normal and the rectifying
    plane normal; identically zero because the curve is a geodesic of its
    rectifying developable."""
    from .envelope import PlaneFamily

    n, _ = PlaneFamily(curve, "rectifying").jets(ts, 0)
    fe = FrenetEval(curve, ts, order=2)
    unit = n[0] / np.linalg.norm(n[0], axis=-1, keepdims=True)
    return np.linalg.norm(np.cross(unit, fe.N[0]), axis=-1)


class PseudoInvoluteCurve(Curve):
    """Geodesic of the tangent developable of the base curve.

    Straight lines in the unrolled surface are exactly its geodesics;
    pulled back to space they are the curves whose pseudo-evolute is the
    base curve.  The line, through ``line_point`` along ``line_direction``,
    lives in the development plane of the base, where the base unrolls
    starting at the origin heading along +x.

    Warns LineThroughEdge when the line passes within 1e-6 of the scale of
    the developed base curve at one of 512 samples: the involute then
    touches the regression edge and has a cusp there.
    """

    def __init__(self, base: Curve, line_point, line_direction):
        from .rolling import Development

        super().__init__(base.domain)
        self.base = base
        self.line_point = np.asarray(line_point, dtype=float)
        d = np.asarray(line_direction, dtype=float)
        self.line_direction = d / np.linalg.norm(d)
        self.development = Development(base)
        dev_pts = self.development.point(self.grid(512))
        rel = self.line_point - dev_pts
        dx, dy = self.line_direction
        offsets = rel[:, 0] * dy - rel[:, 1] * dx
        scale = max(1.0, float(np.max(np.abs(dev_pts))))
        if float(np.min(np.abs(offsets))) <= 1e-6 * scale:
            warnings.warn("development line meets the developed edge; "
                          "the involute has a cusp there", LineThroughEdge)

    def derivatives(self, t, order: int) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pos, theta = self.development.jets(t, order)
        sin_j, cos_j = jet_sin_cos(theta)
        dx, dy = self.line_direction
        rel = -pos
        rel[0] += self.line_point
        num = rel[..., 0] * dy - rel[..., 1] * dx
        den = cos_j * dy - sin_j * dx
        with np.errstate(all="ignore"):
            lam = jet_div(num, den)
        fe = FrenetEval(self.base, t, order=order + 2)
        m = order + 1
        return jet_sum(fe.x[:m], jet_mul(lam, fe.T)[:m])

    def __repr__(self):
        return (f"PseudoInvoluteCurve({self.base!r}, "
                f"point={self.line_point.tolist()}, "
                f"direction={self.line_direction.tolist()})")

