"""Curve sources.

Every curve exposes ``derivatives(t, order)`` returning the stack of plain
parameter derivatives with shape (order+1, N, 3).  That one contract feeds
the whole package: Frenet data, singularity scans, and the derived curves
(evolutes and involutes of all three kinds) all propagate truncated Taylor
jets through it, so no finite differencing happens anywhere.

Two concrete sources live here: curves given by coordinate expressions in t,
and curves reconstructed from prescribed curvature/torsion by integrating
the frame equations at unit speed.
"""

from __future__ import annotations

import numpy as np

from . import dop853
from . import expr as ex
from .errors import GeometryError
from .taylor import antiderivative_jet, jet_mul_row

__all__ = ["Curve", "ExprCurve", "FrenetODECurve",
           "branch_grids", "EPS_K", "EPS_TAU", "MIN_SPEED", "CUSP_GAP",
           "SPHERICAL_SIGMA", "SIGMA_CLEARANCE", "CONSTANT_SPREAD",
           "EDGE_DET", "EDGE_NOISE"]

# Regularity thresholds, shared by every check in the package.
EPS_K = 1e-9             # curvature at or below this vanishes
EPS_TAU = 1e-9           # torsion at or below this (in size) vanishes
MIN_SPEED = 1e-15        # speed at or below this is a cusp
CUSP_GAP = 1e-12         # a parameter this close to a declared cusp is on it
SPHERICAL_SIGMA = 1e-6   # |sigma| at or below this everywhere: spherical
SIGMA_CLEARANCE = 1e-3   # |sigma| above this: clear of evolute cusps
CONSTANT_SPREAD = 1e-9   # relative spread at or below this: a constant profile
# Regression edges of plane families (envelope.py).
EDGE_DET = 1e-14         # |det| at or below this x its row norms: singular
EDGE_NOISE = 1e-10       # cusp gap at or below this x its terms' sizes: noise


class Curve:
    """Base: a parametric space curve on a fixed domain."""

    def __init__(self, domain, closed: bool = False, cusps=()):
        a, b = float(domain[0]), float(domain[1])
        if not b > a:
            raise ValueError("domain must have positive length")
        self.domain = (a, b)
        self.closed = bool(closed)
        self.cusps = tuple(float(c) for c in cusps)

    def derivatives(self, t, order: int) -> np.ndarray:
        """Derivatives 0..order at t, shape (order+1, N, 3)."""
        raise NotImplementedError

    def speed(self, t) -> np.ndarray:
        """|x'(t)| at an array of parameters."""
        return np.linalg.norm(self.derivatives(t, 1)[1], axis=-1)

    def point(self, t) -> np.ndarray:
        """Points at t; an array goes through derivatives in passes of at
        most expr._SLICE parameters, so a caller never builds a larger one;
        each pass is written into the one array of points."""
        if np.ndim(t) == 0:
            return self.derivatives(t, 0)[0, 0]
        t = np.asarray(t, dtype=float)
        out = np.empty((len(t), 3))
        for lo in range(0, len(t), ex._SLICE):
            # a pass's jets live on until the next pass has its own: freed
            # at once, they let the C allocator give the heap back to the
            # system and fault it in again on the next pass, page by page
            jets = self.derivatives(t[lo:lo + ex._SLICE], 0)
            out[lo:lo + ex._SLICE] = jets[0]
        return out

    def grid(self, samples: int) -> np.ndarray:
        a, b = self.domain
        return np.linspace(a, b, samples)


def branch_grids(domain, cuts, samples: int):
    """Sample grids for each branch of (a, b) cut at singular parameters.

    Every interval between consecutive cuts is shrunk by a margin of 1e-3
    of the domain's width on any side that touches a cut (including the
    domain ends, should a cut land there) and sampled proportionally to its
    share of the domain, at least two points per branch.  Downstream
    writers then never bridge a singularity.  Cuts that leave no branch
    raise GeometryError naming the first of them.
    """
    a, b = float(domain[0]), float(domain[1])
    margin = (b - a) * 1e-3
    cuts = sorted({float(c) for c in cuts if a <= c <= b})
    edges = [a] + [c for c in cuts if a < c < b] + [b]
    singular = set(cuts)
    grids = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        lo_cut = lo + margin if lo in singular else lo
        hi_cut = hi - margin if hi in singular else hi
        if hi_cut <= lo_cut:
            continue
        count = max(2, round(samples * ((hi_cut - lo_cut) / (b - a))))
        grids.append(np.linspace(lo_cut, hi_cut, count))
    if not grids:
        raise GeometryError(f"{len(cuts)} cuts leave no branch outside"
                            f" their margins of {margin:.3g}", t=cuts[0])
    return grids


class ExprCurve(Curve):
    """Curve whose coordinates are closed-form expressions in t."""

    def __init__(self, components, domain, closed=False, cusps=()):
        super().__init__(domain, closed, cusps)
        if isinstance(components, str):
            components = ex.parse_curve(components)
        self.components = tuple(components)
        if len(self.components) != 3:
            raise ValueError("need exactly 3 components")

    def derivatives(self, t, order: int) -> np.ndarray:
        return ex.jets(self.components, t, order)

    def __repr__(self):
        parts = ", ".join(ex.to_source(c) for c in self.components)
        return f"ExprCurve({parts!r}, domain={self.domain})"


def _reorthonormalize(y):
    """Put the frame (T, N, B) of the state y back onto SO(3), in place."""
    T = y[3:6] / np.linalg.norm(y[3:6])
    N = y[6:9] - (y[6:9] @ T) * T
    N /= np.linalg.norm(N)
    y[3:6], y[6:9], y[9:12] = T, N, np.cross(T, N)


def _frame_rhs(c, y):
    """The frame system at the coefficients c = (k, tau), in floats."""
    k, tau = c
    _, _, _, T0, T1, T2, N0, N1, N2, B0, B1, B2 = y.tolist()
    return np.array([T0, T1, T2, k * N0, k * N1, k * N2,
                     -k * T0 + tau * B0, -k * T1 + tau * B1,
                     -k * T2 + tau * B2, -tau * N0, -tau * N1, -tau * N2])


class FrenetODECurve(Curve):
    """Unit-speed open curve built from curvature and torsion expressions.

    It starts at the origin with the standard basis as its frame (T, N, B).
    The frame system (T' = kN, N' = -kT + tau B, B' = -tau N, xi' = T) is
    integrated once, reading k and tau at all the stage times of a step in
    one pass; the frame is re-orthonormalized after every accepted step.
    Higher derivatives come from the frame equations, a row of T, N and B
    at a time from the jets of k and tau, not from the solver output.
    """

    def __init__(self, curvature, torsion, domain):
        super().__init__(domain)
        self.k_expr = ex.parse(curvature) if isinstance(curvature, str) else curvature
        self.tau_expr = ex.parse(torsion) if isinstance(torsion, str) else torsion
        y0 = np.concatenate([np.zeros(3), np.eye(3).ravel()])
        ktau = (self.k_expr, self.tau_expr)
        self._segments = dop853.integrate(lambda ts: ex.jets(ktau, ts, 0)[0],
                                          _frame_rhs, y0, *self.domain,
                                          "frame", _reorthonormalize)

    def derivatives(self, t, order: int) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        state = self._segments(np.clip(t, *self.domain))
        # rows of shape (3, N): k and tau broadcast along the points
        T, N, B = np.empty((3, max(order, 1), 3, len(t)))
        T[0], N[0], B[0] = state[:, 3:].T.reshape(3, 3, -1)
        if order > 1:
            ktau = ex.jets((self.k_expr, self.tau_expr), t, order - 2)
            k, tau = np.moveaxis(ktau, -1, 0)[:, :, None]
        for m in range(order - 1):
            # every row kernel writes into the frame (B[m + 1] holds k T
            # until it is due): one without out pays for broadcasting shapes
            jet_mul_row(k, N, m, out=T[m + 1])
            np.subtract(jet_mul_row(tau, B, m, out=N[m + 1]),
                        jet_mul_row(k, T, m, out=B[m + 1]), out=N[m + 1])
            np.negative(jet_mul_row(tau, N, m, out=B[m + 1]), out=B[m + 1])
        return antiderivative_jet(state[:, :3], T[:order].transpose(0, 2, 1))

    def __repr__(self):
        return (f"FrenetODECurve(k={ex.to_source(self.k_expr)!r}, "
                f"tau={ex.to_source(self.tau_expr)!r}, domain={self.domain})")

