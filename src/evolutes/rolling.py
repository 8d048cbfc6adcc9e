"""Rolling the osculating plane along the tangent developable.

Rolling a plane H along the tangent developable of a curve (no slipping, no
twisting) makes every point of H trace an involute of the curve in space;
the trace of the curve itself inside H is its planar development, a plane
curve with the same curvature profile.  For a closed curve the plane comes
back to its initial position composed with an orientation-preserving
isometry, the monodromy, whose rotation angle is the total curvature of the
curve; its fixed point seeds the unique closed involute.

So an involute is indexed by a point p of the rolling plane, given as
coordinates (x, y) in the initial frame (T, N): the same coordinates as the
development and the monodromy fixed point.  ``TracedInvoluteCurve(base, p)``
is the trace of p, and ``closed_involute`` passes the fixed point.

The instantaneous motion of H is a rotation about the current tangent line
with angular rate equal to the torsion, so a tracked point obeys

    dP/dt = tau(t) v(t) T(t) x (P - xi(t)),

which keeps (P - xi) . B constant: a point starting on the osculating plane
stays on it.  Only P in it depends on the traced point, so w = tau v T,
which a ``FrenetEval`` of the base curve gives as tau x', and xi are
tabled once as the rate of a ``CumulativeIntegral`` (its panel
polynomials, each component held to its own quadrature budget) and DOP853
reads the table once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dop853
from .curves import Curve
from .errors import IdentityMonodromy, NotClosed, PureTranslation
from .frenet import ArclengthMap, FrenetEval, regular_eval
from .quadrature import CumulativeIntegral
from .taylor import antiderivative_jet, jet_cross_row, jet_mul, jet_sin_cos

__all__ = [
    "Development", "PlanarIsometry", "monodromy",
    "TracedInvoluteCurve", "closed_involute",
]


class Development:
    """Planar development (unrolling) of a curve into its osculating plane.

    The developed curve starts at the origin heading along +x; its turning
    angle is the cumulative integral of k ds and its position, as the
    complex number x + iy, the cumulative integral of exp(i theta) ds.
    Plane coordinates correspond to the frame (T, N) of the space curve at
    the starting parameter.  ``theta``, if given, is the turning-angle
    table ArclengthMap(curve, k) that a caller has already built.
    """

    def __init__(self, curve: Curve, theta: ArclengthMap | None = None):
        self.curve = curve
        a, b = curve.domain
        self._theta = (theta if theta is not None
                       else ArclengthMap(curve, lambda fe: fe.k))
        self._position = CumulativeIntegral(
            lambda ts: np.exp(1j * self._theta(ts)) * curve.speed(ts), a, b)

    def angle(self, t):
        return self._theta(t)

    def point(self, t):
        z = self._position(t)
        return np.stack([np.real(z), np.imag(z)], axis=-1)

    def jets(self, ts, order: int):
        """Jets of the developed position and turning angle at ts."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        fe = FrenetEval(self.curve, ts, order=max(order, 1) + 1)
        theta = self._theta.jets(fe, ts, order)
        sin_j, cos_j = jet_sin_cos(theta)
        vel = np.stack([jet_mul(cos_j, fe.v), jet_mul(sin_j, fe.v)], axis=-1)
        pos = antiderivative_jet(self.point(ts), vel)[: order + 1]
        return pos, theta


@dataclass(frozen=True)
class PlanarIsometry:
    """Orientation-preserving plane isometry x -> R(angle) x + shift."""

    angle: float
    shift: np.ndarray

    @property
    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    @property
    def angle_mod_2pi(self) -> float:
        """Representative of the rotation angle in (-pi, pi]."""
        a = math.remainder(self.angle, 2.0 * math.pi)
        return a if a != -math.pi else math.pi

    def apply(self, pts):
        return np.asarray(pts, dtype=float) @ self.rotation.T + self.shift

    def fixed_point(self) -> np.ndarray:
        """The unique fixed point of a genuine rotation; a rotation angle
        or shift at most 1e-10 in size counts as none."""
        if abs(self.angle_mod_2pi) <= 1e-10:
            if np.linalg.norm(self.shift) <= 1e-10:
                raise IdentityMonodromy("every point is fixed")
            raise PureTranslation("no fixed point: monodromy is a translation")
        eye = np.eye(2)
        return np.linalg.solve(eye - self.rotation, self.shift)


def monodromy(curve: Curve, development: Development | None = None) -> PlanarIsometry:
    """Isometry taking the initial contact element (point and heading angle)
    of the development to the terminal one; defined for closed curves."""
    a, b = curve.domain
    start, end = curve.point(np.array([a, b]))
    gap = np.linalg.norm(start - end)
    scale = max(1.0, float(np.linalg.norm(start)))
    if not curve.closed or gap > 1e-8 * scale:
        raise NotClosed(f"curve endpoints differ by {gap:.3g}")
    dev = development if development is not None else Development(curve)
    return PlanarIsometry(angle=float(dev.angle(b)), shift=dev.point(b))


class TracedInvoluteCurve(Curve):
    """Trajectory of one rolling-plane point: an involute of the base curve.

    ``plane_point`` is (x, y) in the initial frame (T, N) at the start a
    of the domain, so the trace starts at the base point plus x T + y N,
    on the initial osculating plane by construction.  That frame comes
    from ``regular_eval``: a cusp or vanishing curvature at a raises
    CuspPoint or DegenerateCurvature.

    The defining field w x (P - xi) with w = tau v T is integrated once;
    derivatives of any order follow from the same field, one row at a time
    (``taylor.jet_cross_row``), using exact jets of the base curve.

    Only P depends on the solver's state, so w and xi are read from the
    panel polynomials of a CumulativeIntegral of (w, xi) over the base
    curve, built before the integration with one vectorized derivatives
    call per round of refinement; a step reads the table once at its stage
    times (``rate``), and a stage is a cross product on floats.  Each
    component of w and xi meets the quadrature budget of every cumulative
    table, relative to its own integral of |f|.  A base curve that the
    table cannot resolve fails with IntegrationFailure naming the
    parameter: a pole of the torsion, or an inflection of a planar curve,
    where w is rounding noise over a vanishing |x' x x''|^2.
    """

    def __init__(self, base: Curve, plane_point, closed: bool = False):
        super().__init__(base.domain, closed)
        self.base = base
        self.plane_point = np.asarray(plane_point, dtype=float)
        fe = regular_eval(base, base.domain[0], order=3)
        x, y = self.plane_point
        start = fe.x[0, 0] + x * fe.T[0, 0] + y * fe.N[0, 0]
        self._rolling = CumulativeIntegral(partial(_axis_and_foot, base),
                                           *base.domain).rate
        self._segments = dop853.integrate(self._rolling, _trace_rhs, start,
                                          *self.domain, "involute")

    def derivatives(self, t, order: int) -> np.ndarray:
        t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), *self.domain)
        if order == 0:      # the points alone: the dense output, no jets
            return self._segments(t)[None]
        fe = FrenetEval(self.base, t, order=order + 2)
        w = jet_mul(fe.tau, fe.d1)
        out = np.empty((order + 1, len(t), 3))
        out[0] = self._segments(t)
        for m in range(order):
            jet_cross_row(w, out[: m + 1] - fe.x[: m + 1], m, out=out[m + 1])
        return out

    def __repr__(self):
        return (f"TracedInvoluteCurve({self.base!r}, "
                f"plane_point={self.plane_point.tolist()})")


def _axis_and_foot(base: Curve, ts) -> np.ndarray:
    """Rows (w, xi) at ts: the angular velocity w = tau v T = tau x' of the
    rolling plane and the contact point xi."""
    fe = FrenetEval(base, ts, 3)
    return np.stack([fe.tau[0][:, None] * fe.d1[0], fe.x[0]], axis=1)


def _trace_rhs(c, P):
    """The field w x (P - xi) at the coefficients c = (w, xi), in floats."""
    (w0, w1, w2), (x0, x1, x2) = c
    d0, d1, d2 = P.tolist()
    d0, d1, d2 = d0 - x0, d1 - x1, d2 - x2
    return np.array([w1 * d2 - w2 * d1, w2 * d0 - w0 * d2,
                     w0 * d1 - w1 * d0])


def closed_involute(curve: Curve) -> TracedInvoluteCurve:
    """The involute traced by the monodromy fixed point.

    For a generic closed curve this is the unique closed involute; the
    caller can check the residual gap between its endpoints.
    """
    return TracedInvoluteCurve(curve, monodromy(curve).fixed_point(),
                               closed=True)
