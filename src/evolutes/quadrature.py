"""Cumulative integrals as tables of panel polynomials.

Everything here is vectorized over panels.  The 15-point Kronrod rule with
its embedded 7-point Gauss rule supplies the error estimate; adaptive
refinement bisects the offending panels only.

A cumulative integral (arc length, turning angle, torsion angle, the
developed position) is the table of panels that refinement accepted; a
total is the last entry of its table.  On each panel it keeps the
degree-14 polynomial through the 15 Kronrod node values, as a Legendre
series, and the antiderivative of that series: the cumulative sum of
Chebfun (Driscoll, Hale & Trefethen, *Chebfun Guide*, 2014).  Kronrod's
rule is interpolatory on its nodes, so a whole panel integrates to its
Kronrod value.  Values and inverses at any number of parameters come from
these polynomials; the integrand is called while the table is built and
never after.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationFailure

__all__ = ["CumulativeIntegral"]

# 15-point Kronrod abscissae/weights and the embedded 7-point Gauss weights
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299785,
    0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189, 0.2797053914892767, 0.1294849661688697,
])

_RTOL = 1e-11            # relative error budget of every integral
_ATOL = 1e-13            # absolute error budget of every integral
_PANELS = 64             # first panels of a cumulative table
_MAX_ROUNDS = 48
# Cap on the panels still being refined: an integrand that never meets its
# budget (a NaN, a pole) doubles them every round until memory runs out.
_MAX_LIVE_PANELS = 4096
_NEWTON_STEPS = 60       # cap on the iterations of an inverse


def _series(coef, i, x):
    """The Legendre series of row i of coef at x (i and x broadcast), by
    Clenshaw's recurrence; only elementwise operations, so equal inputs
    round alike."""
    b1 = b2 = 0.0
    for k in range(coef.shape[1] - 1, -1, -1):
        b1, b2 = (coef[i, k] + (2 * k + 1) / (k + 1) * x * b1
                  - (k + 1) / (k + 2) * b2), b1
    return b1


def _antiderivative_map(degree: int) -> np.ndarray:
    """Legendre coefficients of a series to those of an antiderivative:
    the integral of P_n is (P_(n+1) - P_(n-1)) / (2n + 1)."""
    out = np.zeros((degree + 1, degree + 2))
    for n in range(degree + 1):
        out[n, n + 1] = 1.0 / (2 * n + 1)
        if n:
            out[n, n - 1] = -1.0 / (2 * n + 1)
    return out


# node values @ _TO_SERIES: Legendre coefficients of the interpolant.  The
# series with the rows of eye(15) as coefficients are P_0 .. P_14.
_TO_SERIES = np.linalg.inv(
    _series(np.eye(len(_XK)), np.arange(len(_XK)), _XK[:, None])).T
_INTEGRATE = _antiderivative_map(len(_XK) - 1)


def _gk15(f, a, b):
    """Kronrod estimate and error for panels [a_i, b_i], and the integrand
    values at the nodes, in f's dtype (one row per panel); a, b are arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    kron = (y @ _WK) * half
    gauss = (y[:, 1::2] @ _WG) * half
    return kron, np.abs(kron - gauss), y


def _refine(f, edges):
    """Bisect the panels between edges until each meets its share of the
    error budget; the accepted left ends, values and node values, round by
    round.  A round in which no integrand value is finite ends the
    refinement."""
    lo, hi = edges[:-1], edges[1:]
    width = abs(edges[-1] - edges[0])
    keep_lo, keep_val, keep_nodes = [], [], []
    for _ in range(_MAX_ROUNDS):
        vals, errs, nodes = _gk15(f, lo, hi)
        if not np.isfinite(nodes).any():
            raise IntegrationFailure(
                f"quadrature failed on [{edges[0]:.6g}, {edges[-1]:.6g}]:"
                " no finite integrand value")
        scale = max(abs(sum(v.sum() for v in keep_val) + vals.sum()), _ATOL)
        budget = (np.abs(hi - lo) / width) * max(_ATOL, _RTOL * scale)
        ok = errs <= budget
        keep_lo.append(lo[ok])
        keep_val.append(vals[ok])
        keep_nodes.append(nodes[ok])
        lo, hi = lo[~ok], hi[~ok]
        if lo.size == 0:
            return keep_lo, keep_val, keep_nodes
        if 2 * lo.size > _MAX_LIVE_PANELS:
            break
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
    raise IntegrationFailure(
        f"quadrature failed on [{edges[0]:.6g}, {edges[-1]:.6g}]")


class CumulativeIntegral:
    """Cumulative map F(t) = c0 + integral of f from a to t, queryable on arrays.

    The panels between ``edges`` are refined until each meets the error
    budget; ``table`` holds F at the edges.  Inside panel i, with
    x = (t - edges[i]) / h_i - 1 and h_i its half-width,

        F(t) = table[i] + h_i (G_i(x) - G_i(-1)),

    where G_i is the antiderivative of the polynomial through the panel's
    Kronrod node values; F is complex for a complex f and reads table[i]
    exactly at every edge.  ``inverse`` assumes a real f >= 0 (nondecreasing
    F) and runs Newton's method on the same polynomials.  Neither calls f.
    """

    def __init__(self, f, a: float, b: float, c0: float = 0.0):
        if not b > a:
            raise ValueError("need b > a")
        keep_lo, keep_val, keep_nodes = _refine(
            f, np.linspace(a, b, _PANELS + 1))
        lo = np.concatenate(keep_lo)
        order = np.argsort(lo)
        self.edges = np.append(lo[order], float(b))
        vals = np.concatenate(keep_val)[order]
        self.table = np.concatenate([[0.0], np.cumsum(vals)]) + float(c0)
        self._half = 0.5 * np.diff(self.edges)
        self._interpolant = np.concatenate(keep_nodes)[order] @ _TO_SERIES
        self._antiderivative = self._interpolant @ _INTEGRATE
        self._start = _series(self._antiderivative, np.arange(len(vals)),
                              -1.0)

    @property
    def total(self) -> float:
        return self.table[-1].item()

    def _rise(self, i, x):
        """F minus table[i] at x of panel i."""
        return self._half[i] * (_series(self._antiderivative, i, x)
                                - self._start[i])

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.clip(np.searchsorted(self.edges, t, side="right") - 1,
                    0, len(self._half) - 1)
        out = self.table[i] + self._rise(i, (t - self.edges[i])
                                         / self._half[i] - 1.0)
        out[t == self.edges[-1]] = self.table[-1]    # b closes the table too
        return out[0].item() if scalar else out

    def inverse(self, s):
        """Parameters t with F(t) = s, for nondecreasing F (f >= 0); s is
        clipped to [F(a), F(b)]."""
        scalar = np.ndim(s) == 0
        s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)),
                    self.table[0], self.table[-1])
        i = np.clip(np.searchsorted(self.table, s, side="right") - 1,
                    0, len(self._half) - 1)
        want = s - self.table[i]
        lo, hi = -np.ones_like(s), np.ones_like(s)
        with np.errstate(all="ignore"):
            # linear interpolation in (table, edges), then Newton steps;
            # an iterate that leaves the bracket [lo, hi] bisects it
            x = 2.0 * want / (self.table[i + 1] - self.table[i]) - 1.0
            for _ in range(_NEWTON_STEPS):
                gap = self._rise(i, x) - want
                lo = np.where(gap <= 0.0, x, lo)
                hi = np.where(gap >= 0.0, x, hi)
                slope = self._half[i] * _series(self._interpolant, i, x)
                step = x - gap / slope
                step = np.where((step >= lo) & (step <= hi), step,
                                0.5 * (lo + hi))
                done = np.all(np.abs(step - x) <= 1e-14)    # in x
                x = step
                if done:
                    break
        t = self.edges[i] + self._half[i] * (x + 1.0)
        return float(t[0]) if scalar else t
