"""Monge evolutes and involutes: the taut-string constructions.

Wrapping a taut string of length l around a curve eta traces the Monge
involute xi = eta + (l - s) T.  Conversely the Monge evolutes of xi form a
one-parameter family

    eta = xi + r n - r tan(alpha) b,      d(alpha)/ds = tau,

indexed by the starting angle alpha0.  They foliate the normal developable
of xi (each point sits on a polar line), satisfy the string identities

    |eta - xi| = 1 / (k |cos alpha|),     |d eta/ds| = | d/ds |eta - xi| |,

have cusps at critical points of k cos(alpha), escape to infinity where
cos(alpha) or k vanishes, and touch the evolute of xi where the binormal
coefficients agree, i.e. at zeros of dr/ds + r tau tan(alpha).  For a
closed curve the evolutes close up exactly when the total torsion is an
integer multiple of pi; involutes of a closed (cusped) curve close exactly
when its signed length vanishes, the sign flipping at every cusp.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import EPS_K, Curve
from .frenet import ArclengthMap, FrenetEval, jet_sum, total_torsion
from .roots import find_roots
from .taylor import (antiderivative_jet, arclength_derivative, jet_div,
                     jet_dot, jet_mul, jet_sin_cos, jet_sqrt)

__all__ = [
    "EPS_COS", "MongeEvoluteCurve", "monge_singularities",
    "monge_evolutes_closed", "MongeInvoluteCurve",
    "string_residual", "distance_identity_residual", "polar_line_residual",
    "offset_angles", "envelope_meetings", "signed_length",
]

EPS_COS = 1e-12     # |cos alpha| at or below this: the string is binormal


class MongeEvoluteCurve(Curve):
    """One Monge evolute of the base curve, selected by the start angle;
    nan rows where it is at infinity (k <= EPS_K, |cos alpha| <= EPS_COS)."""

    def __init__(self, base: Curve, alpha0: float = 0.0, closed=False,
                 cusps=()):
        super().__init__(base.domain, closed, cusps)
        self.base = base
        self.alpha0 = float(alpha0)
        self._alpha = ArclengthMap(base, lambda fe: fe.tau, c0=self.alpha0)

    def alpha(self, t):
        """Torsion angle alpha(t) = alpha0 + integral of tau ds."""
        return self._alpha(t)

    def derivatives(self, t, order: int) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        fe = FrenetEval(self.base, t, order=order + 3)
        alpha = self._alpha.jets(fe, t, order + 1)
        sin_j, cos_j = jet_sin_cos(alpha)
        with np.errstate(all="ignore"):
            tan_j = jet_div(sin_j, cos_j)
            m = order + 1
            eta = jet_sum(fe.x[:m], jet_mul(fe.r, fe.N)[:m])
            out = jet_sum(eta, -jet_mul(jet_mul(fe.r, tan_j), fe.B)[:m])
            defined = (fe.k[0] > EPS_K) & (np.abs(cos_j[0]) > EPS_COS)
        out[:, ~defined] = np.nan
        return out

    def __repr__(self):
        return f"MongeEvoluteCurve({self.base!r}, alpha0={self.alpha0})"


def monge_singularities(evolute: MongeEvoluteCurve) -> tuple:
    """(escapes, cusps) of the Monge evolute from one search: the zeros of
    cos(alpha), where it diverges, and the critical points of k cos(alpha),
    its cusps."""
    def scan(ts):
        fe = FrenetEval(evolute.base, ts, order=4)
        _, cos_j = jet_sin_cos(evolute._alpha.jets(fe, ts, 3))
        with np.errstate(all="ignore"):
            rate = arclength_derivative(jet_mul(fe.k, cos_j), fe.v)
        return np.stack([cos_j[0], rate[0]])
    a, b = evolute.base.domain
    return find_roots(scan, a, b, closed=evolute.base.closed)


def monge_evolutes_closed(curve: Curve, torsion: float | None = None) -> bool:
    """Monge evolutes of a closed curve close up iff the total torsion is an
    integer multiple of pi; ``torsion``, if given, is that total, already
    computed."""
    if torsion is None:
        torsion = total_torsion(curve)
    return abs(math.remainder(torsion, math.pi)) <= 1e-9


class MongeInvoluteCurve(Curve):
    """Taut-string involute xi = eta + (l - s) T of the base curve.

    With ``signed`` the length element flips sign after every declared cusp
    of the base, which is the right notion for involutes of closed curves
    with cusps: they close up exactly when the signed length vanishes.
    """

    def __init__(self, base: Curve, length: float, signed: bool = False):
        super().__init__(base.domain)
        self.base = base
        self.length = float(length)
        self.signed = bool(signed)
        self._smap = ArclengthMap(base)
        self._cusps = np.sort(np.asarray(base.cusps if signed else (),
                                         dtype=float))

    def derivatives(self, t, order: int) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        fe = FrenetEval(self.base, t, order=order + 2)
        s, sign = _signed_arclength(self._smap, self._cusps, t)
        # string offset sign(l - s) T stays continuous through base cusps:
        # the tangent and the length element flip together
        ls = antiderivative_jet(sign * (self.length - s), -fe.v[: order + 1])
        with np.errstate(all="ignore"):
            m = order + 1
            return jet_sum(fe.x[:m], jet_mul(ls, fe.T)[:m])

    def __repr__(self):
        return (f"MongeInvoluteCurve({self.base!r}, length={self.length}"
                + (", signed=True)" if self.signed else ")"))


def _signed_arclength(smap: ArclengthMap, cusps, t):
    """Arc length from the start to t with the sign flipping at every cusp
    (sorted), and the sign of the length element at t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    marks = np.concatenate([[0.0], smap(cusps)])    # s at the start, cusps
    flips = (-1.0) ** np.arange(len(marks))         # sign after each mark
    anchors = np.concatenate([[0.0], np.cumsum(np.diff(marks) * flips[:-1])])
    arc = np.searchsorted(cusps, t, side="right")
    return anchors[arc] + flips[arc] * (smap(t) - marks[arc]), flips[arc]


def signed_length(curve: Curve) -> float:
    """Arc length with the sign flipping at every declared cusp."""
    cusps = np.sort(np.asarray(curve.cusps, dtype=float))
    s, _ = _signed_arclength(ArclengthMap(curve), cusps, curve.domain[1])
    return float(s[0])


def _monge_offsets(evolute: MongeEvoluteCurve, ts, order: int):
    """Jets of eta - xi to the given order."""
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    eta = evolute.derivatives(t, order)
    xi = evolute.base.derivatives(t, order)
    return eta - xi, eta, xi


def string_residual(evolute: MongeEvoluteCurve, ts) -> np.ndarray:
    """| d/ds |eta - xi| | - |d eta/ds|, pointwise; zero wherever the taut
    string description is valid."""
    diff, eta, _ = _monge_offsets(evolute, ts, 1)
    fe = FrenetEval(evolute.base, ts, order=2)
    with np.errstate(all="ignore"):
        dist = jet_sqrt(jet_dot(diff, diff))
        lhs = np.abs(dist[1] / fe.v[0])
        rhs = np.linalg.norm(eta[1], axis=-1) / fe.v[0]
    return np.abs(lhs - rhs)


def distance_identity_residual(evolute: MongeEvoluteCurve, ts) -> np.ndarray:
    """|eta - xi| - 1/(k |cos alpha|), pointwise."""
    diff, _, _ = _monge_offsets(evolute, ts, 0)
    fe = FrenetEval(evolute.base, ts, order=2)
    alpha = evolute.alpha(np.atleast_1d(np.asarray(ts, dtype=float)))
    with np.errstate(all="ignore"):
        rhs = 1.0 / (fe.k[0] * np.abs(np.cos(alpha)))
    return np.linalg.norm(diff[0], axis=-1) - rhs


def polar_line_residual(evolute: MongeEvoluteCurve, ts) -> np.ndarray:
    """Distance from the Monge evolute to the polar line of the base curve:
    the component of eta - (xi + r n) orthogonal to the binormal."""
    diff, _, _ = _monge_offsets(evolute, ts, 0)
    fe = FrenetEval(evolute.base, ts, order=2)
    rest = diff[0] - fe.r[0][:, None] * fe.N[0]
    rest -= np.sum(rest * fe.B[0], axis=-1, keepdims=True) * fe.B[0]
    return np.linalg.norm(rest, axis=-1)


def offset_angles(e1: MongeEvoluteCurve, e2: MongeEvoluteCurve,
                  ts) -> np.ndarray:
    """Angle under which two Monge evolutes are seen from the curve.

    Measured between unoriented lines (the offset direction reverses at
    every escape), so it is constant, the difference of the start angles
    folded into [0, pi/2]."""
    d1, _, _ = _monge_offsets(e1, ts, 0)
    d2, _, _ = _monge_offsets(e2, ts, 0)
    u1 = d1[0] / np.linalg.norm(d1[0], axis=-1, keepdims=True)
    u2 = d2[0] / np.linalg.norm(d2[0], axis=-1, keepdims=True)
    return np.arccos(np.clip(np.abs(np.sum(u1 * u2, axis=-1)), 0.0, 1.0))


def envelope_meetings(evolute: MongeEvoluteCurve) -> np.ndarray:
    """Parameters where the Monge evolute touches the evolute of the base:
    zeros of dr/ds + r tau tan(alpha)."""
    base = evolute.base

    def gap(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        fe = FrenetEval(base, ts, order=4)
        alpha = evolute.alpha(ts)
        with np.errstate(all="ignore"):
            return fe.r_s[0] + fe.r[0] * fe.tau[0] * np.tan(alpha)

    a, b = base.domain
    return find_roots(gap, a, b, closed=base.closed)
