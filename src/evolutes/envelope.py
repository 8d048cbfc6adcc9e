"""Envelopes of one-parameter plane families and their developables.

A family n(t).P = c(t) with smooth, not necessarily unit, normals envelopes
a developable surface; its regression edge solves the linear system stacked
from the equation and its first two t-derivatives.  Scaling the family by
any nonvanishing function changes neither the characteristic lines nor the
edge, which is why the rectifying family below can avoid radicals entirely.

The three families attached to a curve:

  normal      n = x'              edge = evolute (centers of osc. spheres)
  osculating  n = x' x x''        edge = the curve itself
  rectifying  n = |x'|^2 x'' - (x'.x'') x'   edge = pseudo-evolute

Cusps of the edge appear where the third derivative of the family equation
is also satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import EDGE_DET, EDGE_NOISE, Curve
from .frenet import FrenetEval
from .roots import SCAN_SAMPLES, find_roots
from .taylor import jet_cross, jet_dot, jet_mul

__all__ = [
    "Line3", "PlaneFamily", "edge_points", "edge_cusps",
    "ruling_directions", "polar_line", "RuledPatch", "developable_patch",
]

_KINDS = ("normal", "osculating", "rectifying")


@dataclass(frozen=True)
class Line3:
    point: np.ndarray
    direction: np.ndarray

    def at(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.point + lam[..., None] * self.direction


@dataclass(frozen=True)
class PlaneFamily:
    """Family of planes n(t).P = c(t) derived from a curve."""

    curve: Curve
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")

    def jets(self, ts, order: int):
        """Jets of n and c to the given order, shapes (.., N, 3) and (.., N)."""
        raw = {"normal": 1, "osculating": 2, "rectifying": 2}[self.kind]
        x = self.curve.derivatives(ts, order + raw)
        d1 = x[1:]
        if self.kind == "normal":
            n = d1
        elif self.kind == "osculating":
            n = jet_cross(d1, x[2:])
        else:
            u = jet_dot(d1, d1)
            n = jet_mul(u, x[2:]) - jet_mul(jet_dot(d1, x[2:]), d1)[: len(u)]
        n = n[: order + 1]
        c = jet_dot(n, x[: order + 1])
        return n, c


def edge_points(family: PlaneFamily, ts) -> np.ndarray:
    """Regression edge at ts, from the plane equation and its first two
    derivatives; singular parameters give nan rows."""
    n, c = family.jets(ts, 2)
    A = np.stack([n[0], n[1], n[2]], axis=-2)
    rhs = np.stack([c[0], c[1], c[2]], axis=-1)
    scale = np.prod(np.linalg.norm(A, axis=-1), axis=-1)
    with np.errstate(all="ignore"):
        det = np.linalg.det(A)
        bad = ~(np.abs(det) > EDGE_DET * scale)
    A[bad] = np.eye(3)
    out = np.linalg.solve(A, rhs[..., None])[..., 0]
    out[bad] = np.nan
    return out


def edge_cusps(family: PlaneFamily) -> np.ndarray:
    """Parameters where the edge has a cusp: the third derivative of the
    plane equation also vanishes on the edge point.

    The gap n3.P - c3 (third derivatives, c3 = sum of C(3, j) nj.x(3-j))
    is a difference of products.  Where it is at most EDGE_NOISE times
    their sizes at every scan point, it is rounding noise, as on the
    normal family of a spherical curve, whose edge is one point: no cusps.
    """
    def gap(ts):
        n, c = family.jets(ts, 3)
        P = edge_points(family, ts)
        return np.sum(n[3] * P, axis=-1) - c[3]

    curve = family.curve
    a, b = curve.domain
    ts = np.linspace(a, b, SCAN_SAMPLES + 1)
    n, _ = family.jets(ts, 3)
    x = curve.derivatives(ts, 3)
    size = (np.linalg.norm(n[3], axis=-1)
            * np.linalg.norm(edge_points(family, ts), axis=-1)
            + jet_mul(np.linalg.norm(n, axis=-1),
                      np.linalg.norm(x, axis=-1))[3])
    if not np.any(np.abs(gap(ts)) > EDGE_NOISE * size):
        return np.empty(0)
    return find_roots(gap, a, b, closed=curve.closed)


def ruling_directions(family: PlaneFamily, ts) -> np.ndarray:
    """Directions n x n' of the characteristic lines, unnormalized."""
    n, _ = family.jets(ts, 1)
    return np.cross(n[0], n[1])


def polar_line(curve: Curve, t: float) -> Line3:
    """Axis of the osculating circle: through xi + r n along the binormal."""
    fe = FrenetEval(curve, t, order=2)
    point = fe.x[0, 0] + fe.r[0, 0] * fe.N[0, 0]
    return Line3(point.copy(), fe.B[0, 0].copy())


@dataclass(frozen=True)
class RuledPatch:
    """Sampled ruled surface: vertices[i, j] = base[i] + lam[j] * dir[i]."""

    ts: np.ndarray
    lambdas: np.ndarray
    vertices: np.ndarray


def developable_patch(curve: Curve, kind: str, ts, extent=1.0,
                      rail_samples: int = 9) -> RuledPatch:
    """Sample a developable attached to the curve.

    kind 'tangent' rules along the tangent at the curve, 'rectifying' along
    the Darboux direction tau T + k B, and 'polar' along the binormal
    through the osculating-circle center.  extent is either the half-width
    of a symmetric ruling interval or an explicit (lo, hi) pair.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.ndim(extent) == 0:
        lo, hi = -float(extent), float(extent)
    else:
        lo, hi = float(extent[0]), float(extent[1])
    lams = np.linspace(lo, hi, rail_samples)
    fe = FrenetEval(curve, ts, order=3)
    with np.errstate(all="ignore"):
        if kind == "tangent":
            base, direction = fe.x[0], fe.T[0]
        elif kind == "rectifying":
            base = fe.x[0]
            direction = fe.tau[0][:, None] * fe.T[0] + fe.k[0][:, None] * fe.B[0]
            direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
        elif kind == "polar":
            base = fe.x[0] + fe.r[0][:, None] * fe.N[0]
            direction = fe.B[0]
        else:
            raise ValueError("kind must be tangent, rectifying, or polar")
    vertices = base[:, None, :] + lams[None, :, None] * direction[:, None, :]
    return RuledPatch(ts=ts, lambdas=lams, vertices=vertices)
