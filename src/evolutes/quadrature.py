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
these polynomials, and so does the integral of |f|: the table's variation
between the sign changes of the panel polynomials.  The integrand is called
while the table is built and never after.

f may be a vector (an array of components per parameter), each component
held to its own budget; ``rate`` then reads f itself from the panel
polynomials, as the rolling involute reads its field.  The values, the
inverse and the variation take a scalar or complex f.  A separate table
is the other way to hold a vector f: one scalar table per component, each
on its own panels and with its own outcome, that share the calls of f, as
arc length, turning angle and torsion angle share one Frenet evaluation
per round.
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
# F is flat where f changes sign, so F at a cut is off by the square of the
# cut's error: a few regula falsi steps on a bracket between neighbouring
# samples reach rounding
_FALSI_STEPS = 6


def _series(coef, i, x):
    """The Legendre series of row i of coef at x (i and x broadcast), by
    Clenshaw's recurrence; coef[i, ..., k] multiplies P_k.  Only elementwise
    operations, so equal inputs round alike."""
    b1 = b2 = 0.0
    for k in range(coef.shape[-1] - 1, -1, -1):
        b1, b2 = (coef[i, ..., k] + (2 * k + 1) / (k + 1) * x * b1
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
# where variation looks for sign changes: the ends and nodes of a panel, and
# interpolant coefficients @ _AT_SAMPLES: the values there
_SAMPLES = np.concatenate([[-1.0], _XK, [1.0]])
_AT_SAMPLES = _series(np.eye(len(_XK)), np.arange(len(_XK)),
                      _SAMPLES[:, None]).T


def _falsi(coef, i, xl, xr, fl, fr):
    """A zero of the series of row i of coef in each bracket [xl, xr], at
    whose ends it takes the values fl and fr of opposite signs: Illinois
    regula falsi, vectorized over the brackets."""
    x = xl
    kept = np.zeros(len(i))      # +1: xl stayed last step, -1: xr did
    for _ in range(_FALSI_STEPS if len(i) else 0):
        x = xl - fl * (xr - xl) / (fr - fl)
        fx = _series(coef, i, x)
        left = np.sign(fx) == np.sign(fl)       # the zero is right of x
        # Illinois: halve the value at an end that stays twice running
        fl = np.where(~left & (kept == 1), 0.5 * fl, fl)
        fr = np.where(left & (kept == -1), 0.5 * fr, fr)
        xl, fl = np.where(left, x, xl), np.where(left, fx, fl)
        xr, fr = np.where(left, xr, x), np.where(left, fr, fx)
        kept = np.where(left, -1, 1)
    return x


def _at_nodes(f, lo, hi):
    """f at the Kronrod nodes of the panels [lo_i, hi_i], in f's dtype, one
    row per panel; f's trailing axes, if any, go between the panel and the
    node axis, so the nodes are always last.  f is called on at most
    _MAX_LIVE_PANELS panels at a time, the most one table holds open."""
    rows = []
    for i in range(0, len(lo), _MAX_LIVE_PANELS):
        cut = slice(i, i + _MAX_LIVE_PANELS)
        mid = 0.5 * (lo[cut] + hi[cut])
        half = 0.5 * (hi[cut] - lo[cut])
        x = mid[:, None] + half[:, None] * _XK
        y = np.asarray(f(x.ravel()))
        rows.append(np.moveaxis(y.reshape(x.shape + y.shape[1:]), 1, -1))
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


class _Refinement:
    """The refinement of one table: the panels it accepted, round by round,
    those it still holds open, and how it failed, once it has.  Its node
    values are f's at the index ``component``: () for all of them, (j,)
    for component j."""

    def __init__(self, edges, component):
        self.component = component
        self.where = f"quadrature failed on [{edges[0]:.6g}, {edges[-1]:.6g}]"
        self.width = edges[-1] - edges[0]
        self.lo, self.hi = edges[:-1], edges[1:]
        self.kept_lo, self.kept_nodes, self.kept_val = [], [], []
        self.failure = None

    @property
    def open(self) -> bool:
        return self.failure is None and self.lo.size > 0

    def step(self, nodes):
        """One round on the node values of the open panels: keep those that
        meet the budget and bisect the rest.  A round in which no value is
        finite fails, and so does one that leaves more than half the cap on
        open panels."""
        if not np.isfinite(nodes).any():
            self.failure = IntegrationFailure(f"{self.where}: no finite value")
            return
        ok = self._accept(nodes)
        self.kept_lo.append(self.lo[ok])
        self.kept_nodes.append(nodes[ok])
        self.lo, self.hi = lo, hi = self.lo[~ok], self.hi[~ok]
        if 2 * lo.size > _MAX_LIVE_PANELS:
            self.give_up()
            return
        mid = 0.5 * (lo + hi)
        self.lo, self.hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

    def give_up(self):
        """Fail past the caps, naming the midpoint of the narrowest panel
        still open: where refinement went deepest."""
        narrowest = np.argmin(self.hi - self.lo)
        self.failure = IntegrationFailure(self.where, t=float(
            0.5 * (self.lo[narrowest] + self.hi[narrowest])))

    def _accept(self, nodes):
        """Which open panels meet the budget, nodes being f at their Kronrod
        nodes: the Kronrod value against its embedded Gauss value, within
        the panel's share of the budget of the running integral of |f|, per
        component (a signed total that cancels would tighten it)."""
        col = (-1,) + (1,) * (nodes.ndim - 2)
        half = (0.5 * (self.hi - self.lo)).reshape(col)
        # a value that is not finite fails its panel, and the caps name it
        with np.errstate(all="ignore"):
            vals = (nodes @ _WK) * half
            errs = np.abs(vals - (nodes[..., 1::2] @ _WG) * half)
            # fmax: a NaN in the running sum leaves the absolute budget
            scale = np.fmax(sum(np.abs(v).sum(axis=0) for v in self.kept_val)
                            + np.abs(vals).sum(axis=0), _ATOL)
        ok = errs <= (((self.hi - self.lo) / self.width).reshape(col)
                      * np.fmax(_ATOL, _RTOL * scale))
        ok = ok.reshape(len(ok), -1).all(axis=1)
        self.kept_val.append(vals[ok])
        return ok


def _refine(f, edges, separate: bool):
    """Bisect the panels between edges until each is accepted; one
    _Refinement per table.  f is one table, or with ``separate`` one per
    component (f maps N parameters to shape (N, m)), each refined on its
    own panels as its own table would be: f is called once per round, at
    the panels any table holds open.  A table fails in a round in which
    none of its values is finite, or past the caps."""
    lo, hi = edges[:-1], edges[1:]
    tables = None
    for _ in range(_MAX_ROUNDS):
        nodes = _at_nodes(f, lo, hi)
        if tables is None:
            components = ([(j,) for j in range(nodes.shape[1])] if separate
                          else [()])
            tables = live = [_Refinement(edges, c) for c in components]
            picks = [slice(None)] * len(live)
        for table, pick in zip(live, picks):
            # contiguous, so its sums round as one table's own would
            table.step(np.ascontiguousarray(nodes[(pick,) + table.component]))
        live = [t for t in tables if t.open]
        if not live:
            return tables
        if len(live) == 1:
            lo, hi = live[0].lo, live[0].hi
            picks = [slice(None)]
        else:
            # every open panel was bisected as often, so its left end tells
            # it apart
            lo, first = np.unique(np.concatenate([t.lo for t in live]),
                                  return_index=True)
            hi = np.concatenate([t.hi for t in live])[first]
            picks = [np.searchsorted(lo, t.lo) for t in live]
    for table in tables:
        if table.open:
            table.give_up()
    return tables


class CumulativeIntegral:
    """Cumulative map F(t) = c0 + integral of f from a to t, queryable on arrays.

    The panels between ``edges`` are refined until each meets the error
    budget; ``table`` holds F at the edges.  Inside panel i, with
    x = (t - edges[i]) / h_i - 1 and h_i its half-width,

        F(t) = table[i] + h_i (G_i(x) - G_i(-1)),

    where G_i is the antiderivative of the polynomial through the panel's
    Kronrod node values; F is complex for a complex f and reads table[i]
    exactly at every edge.  ``inverse`` assumes a real f >= 0 (nondecreasing
    F) and runs Newton's method on the same polynomials; ``variation``, the
    integral of |f| for a real f, cuts F at their sign changes.  f may have
    trailing axes (f maps N parameters to shape (N, ...)); each component
    then meets its own budget, and ``rate`` reads f itself from the panel
    polynomials.  ``__call__``, ``inverse`` and ``variation`` take a scalar
    or complex f.  None of them calls f.

    With ``separate``, the components of f (f maps N parameters to shape
    (N, m)) are m tables that share only the calls of f: each is refined on
    its own panels and fails on its own, as its own table would, and f is
    called once per round, at the panels any of them holds open.  Such a
    table is read through ``part(j)`` alone.
    """

    def __init__(self, f, a: float, b: float, c0: float = 0.0,
                 separate: bool = False):
        if not b > a:
            raise ValueError("need b > a")
        tables = _refine(f, np.linspace(a, b, _PANELS + 1), separate)
        if separate:
            self.parts = [t.failure or self._part(t, b, c0) for t in tables]
            return
        (table,) = tables
        if table.failure:
            raise table.failure
        self._assemble(table, b, c0)

    def _part(self, refinement, b, c0):
        """A table of this class from the refinement of one component."""
        part = object.__new__(type(self))
        part._assemble(refinement, b, c0)
        return part

    def _assemble(self, refinement, b, c0):
        lo = np.concatenate(refinement.kept_lo)
        order = np.argsort(lo)
        self.edges = np.append(lo[order], float(b))
        vals = np.concatenate(refinement.kept_val)[order]
        self.table = np.concatenate([np.zeros((1,) + vals.shape[1:]),
                                     np.cumsum(vals, axis=0)]) + float(c0)
        self._half = 0.5 * np.diff(self.edges)
        self._interpolant = (np.concatenate(refinement.kept_nodes)[order]
                             @ _TO_SERIES)
        self._antiderivative = self._interpolant @ _INTEGRATE
        self._start = _series(self._antiderivative, np.arange(len(vals)),
                              -1.0)

    def part(self, j: int) -> CumulativeIntegral:
        """The table of component j of a separate table; it raises the
        IntegrationFailure that component's own table raises."""
        part = self.parts[j]
        if isinstance(part, IntegrationFailure):
            raise part
        return part

    @property
    def total(self) -> float:
        return self.table[-1].item()

    @property
    def variation(self) -> float:
        """The integral of |f| over [a, b], for a real f, from the panel
        polynomials alone.  It is the sum of |F(c_(j+1)) - F(c_j)| over a,
        the cuts c_j and b: the sign changes of f.  A sign change between
        consecutive samples of a panel (its ends and Kronrod nodes) is
        polished by regula falsi (Illinois) on the panel's series, a sample
        where f is exactly 0 is a cut, and so is an edge across which f
        jumps from one sign to the other."""
        y = self._interpolant @ _AT_SAMPLES
        s = np.sign(y)
        i, j = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
        x = _falsi(self._interpolant, i, _SAMPLES[j], _SAMPLES[j + 1],
                   y[i, j], y[i, j + 1])
        zi, zj = np.nonzero(s == 0)
        jumps = np.flatnonzero(s[:-1, -1] * s[1:, 0] < 0) + 1
        i = np.concatenate([i, zi, jumps])
        x = np.concatenate([x, _SAMPLES[zj], np.full(len(jumps), -1.0)])
        order = np.lexsort((x, i))
        i, x = i[order], x[order]
        # F reads the table exactly at an edge: _rise(i, -1) is 0
        cuts = np.where(x == 1.0, self.table[i + 1],
                        self.table[i] + self._rise(i, x))
        values = np.concatenate([self.table[:1], cuts, self.table[-1:]])
        return np.abs(np.diff(values)).sum().item()

    def _rise(self, i, x):
        """F minus table[i] at x of panel i."""
        return self._half[i] * (_series(self._antiderivative, i, x)
                                - self._start[i])

    def _locate(self, t):
        """The panel i of each parameter of the array t, and x in [-1, 1]
        within it."""
        i = np.clip(np.searchsorted(self.edges, t, side="right") - 1,
                    0, len(self._half) - 1)
        return i, (t - self.edges[i]) / self._half[i] - 1.0

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i, x = self._locate(t)
        out = self.table[i] + self._rise(i, x)
        out[t == self.edges[-1]] = self.table[-1]    # b closes the table too
        return out[0].item() if scalar else out

    def rate(self, t):
        """f at an array of parameters, from its panel polynomials: shape
        (len(t),) followed by f's trailing axes."""
        i, x = self._locate(t)
        return _series(self._interpolant, i,
                       x.reshape(x.shape + (1,) * (self._interpolant.ndim - 2)))

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
