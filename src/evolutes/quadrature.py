"""Deterministic Gauss-Kronrod quadrature.

Everything here is vectorized over panels so that cumulative maps (arc
length, torsion angle, development angle) can be queried at thousands of
parameters at once.  The 15-point Kronrod rule with its embedded 7-point
Gauss rule supplies the error estimate; adaptive refinement bisects the
offending panels only.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationFailure

__all__ = ["adaptive_integral", "CumulativeIntegral"]

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

_MAX_ROUNDS = 48
# Cap on the panels still being refined: an integrand that never meets its
# budget (a NaN, a pole) doubles them every round until memory runs out.
_MAX_LIVE_PANELS = 4096


def _gk15(f, a, b):
    """Kronrod estimate and error for panels [a_i, b_i], and the integrand
    values at the nodes (one row per panel); a, b are arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kron = (y @ _WK) * half
    gauss = (y[:, 1::2] @ _WG) * half
    return kron, np.abs(kron - gauss), y


def _refine(f, edges, rtol: float, atol: float, failure: str):
    """Bisect the panels between edges until each meets its share of the
    error budget; the accepted left ends and values, round by round.  A
    round in which no integrand value is finite ends the refinement."""
    lo, hi = edges[:-1], edges[1:]
    width = abs(edges[-1] - edges[0])
    keep_lo, keep_val = [], []
    for _ in range(_MAX_ROUNDS):
        vals, errs, nodes = _gk15(f, lo, hi)
        if not np.isfinite(nodes).any():
            raise IntegrationFailure(
                f"{failure} on [{edges[0]:.6g}, {edges[-1]:.6g}]:"
                " no finite integrand value")
        scale = max(abs(sum(v.sum() for v in keep_val) + vals.sum()), atol)
        budget = (np.abs(hi - lo) / width) * max(atol, rtol * scale)
        ok = errs <= budget
        keep_lo.append(lo[ok])
        keep_val.append(vals[ok])
        lo, hi = lo[~ok], hi[~ok]
        if lo.size == 0:
            return keep_lo, keep_val
        if 2 * lo.size > _MAX_LIVE_PANELS:
            break
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
    raise IntegrationFailure(
        f"{failure} on [{edges[0]:.6g}, {edges[-1]:.6g}]")


def adaptive_integral(f, a: float, b: float, rtol: float = 1e-11,
                      atol: float = 1e-13) -> float:
    """Integrate f over [a, b]; f maps an ndarray of parameters to values."""
    if a == b:
        return 0.0
    _, vals = _refine(f, np.array([a, b], dtype=float), rtol, atol,
                      "quadrature failed to converge")
    return float(sum(v.sum() for v in vals))


class CumulativeIntegral:
    """Cumulative map F(t) = c0 + integral of f from a to t, queryable on arrays.

    Panels are refined until each meets the error budget, then a prefix-sum
    table makes F(t) a table lookup plus one Kronrod pass over the partial
    panel.  ``inverse`` assumes f > 0 (monotone F) and polishes a monotone
    interpolant with Newton steps.
    """

    def __init__(self, f, a: float, b: float, c0: float = 0.0,
                 rtol: float = 1e-11, atol: float = 1e-13, panels: int = 64):
        if not b > a:
            raise ValueError("need b > a")
        self.f = f
        self.a = float(a)
        self.b = float(b)
        self.c0 = float(c0)
        keep_lo, keep_val = _refine(f, np.linspace(a, b, panels + 1), rtol,
                                    atol, "cumulative quadrature failed")
        lo = np.concatenate(keep_lo)
        order = np.argsort(lo)
        self.edges = np.append(lo[order], b)
        vals = np.concatenate(keep_val)[order]
        self.table = np.concatenate([[0.0], np.cumsum(vals)]) + self.c0

    @property
    def total(self) -> float:
        return float(self.table[-1])

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.clip(np.searchsorted(self.edges, t, side="right") - 1,
                    0, len(self.edges) - 2)
        start = self.edges[i]
        partial = _gk15(self.f, start, t)[0]
        out = self.table[i] + partial
        return float(out[0]) if scalar else out

    def inverse(self, s):
        """Parameters t with F(t) = s, for monotone F (f > 0)."""
        from scipy.interpolate import PchipInterpolator

        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        guess = PchipInterpolator(self.table, self.edges)(s)
        t = np.clip(guess, self.a, self.b)
        for _ in range(3):
            slope = np.asarray(self.f(t), dtype=float)
            step = np.where(slope > 0.0, (self(t) - s) / np.where(slope > 0.0, slope, 1.0), 0.0)
            t = np.clip(t - step, self.a, self.b)
        return float(t[0]) if scalar else t
