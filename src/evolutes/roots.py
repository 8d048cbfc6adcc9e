"""Root finding by one grid scan and rounds of inverse cubic clusters.

The first scan evaluates f on a uniform grid of [a, b]; every exact zero
and every sign change between consecutive finite values is a bracket.
A bracket [ts[i], ts[i + 1]] also carries its outer neighbours ts[i - 1]
and ts[i + 2], with their values on its row (an end repeats where the
grid ends).  Each later round is one call of f for all live brackets, at
each distinct point once.  It lays 32 equal sub-intervals across each
bracket, plus a cluster about the bracket's estimate g: g, the 8 floats
on either side of it, and g +- w 8^-k for k = 1..17, w the bracket's
width.  Only the first exact zero or sign change among those sorted
points is kept, so brackets never multiply, with the round's points
beside it as its outer neighbours.

g is the zero of the inverse cubic through the bracket's four points
(Alefeld, Potra & Shi, ACM TOMS 21, 1995) when their values are finite
and strictly monotone and that zero lies strictly inside the bracket.
Otherwise g is the regula falsi estimate of the two ends: at a grid end,
on the seam, at a pole, or where f is rounding noise.  Near a simple root
the inverse cubic is good to a few ulps after one round, and then the
floats about g close the bracket in the next: a simple root closes in two
rounds.  The regula falsi estimate is accurate to about w^2, so one of the
cluster's intervals closes in on it and a bracket shrinks superlinearly
(Dowell & Jarratt, BIT 11, 1971); the uniform points bound every round's
gain from below by 5 bits.  A bracket is done at adjacent floats (at most
12 rounds).  Its root is the end with the smaller |f|, dropped if that
exceeds 1e-4 times the scan's median |f|: the sign change of a pole
(curvature-based quantities blow up where torsion vanishes), not a root.

f may return m rows of values, one per scan function.  Every row then
keeps its own brackets, residual filter and seam, all rows share each call
of f, and the result is one sorted array per row.  A bracket reads only
its own row, so every row gets the roots a search of that row alone finds.

A closed curve is scanned once.  A root on its seam is an exact zero at a
or b, a sign change in the first or last interval, or f(a) and f(b)
straddling zero while each end shares its neighbour's sign; that last case
is reported once, at a, if min(|f(a)|, |f(b)|) passes the residual filter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["find_roots", "SCAN_SAMPLES"]

SCAN_SAMPLES = 2048     # intervals of the first scan
_SPLITS = 32    # equal sub-intervals laid across a bracket in each round
_ROUNDS = 12    # cap on the rounds after the first scan
_CLUSTER = 8.0 ** -np.arange(1, 18)    # offsets about g, in bracket widths
_LADDER = 8     # floats on either side of g in each round's cluster


def _events(fv):
    """Exact zeros and sign changes along the last axis of fv, interleaved:
    entry 2j is point j, entry 2j + 1 the interval from point j to j + 1."""
    finite = np.isfinite(fv)
    sign = np.sign(fv)
    out = np.zeros(fv.shape[:-1] + (2 * fv.shape[-1] - 1,), dtype=bool)
    out[..., 0::2] = finite & (fv == 0.0)
    out[..., 1::2] = (finite[..., :-1] & finite[..., 1:]
                      & (sign[..., :-1] * sign[..., 1:] < 0))
    return out


def _four(events, n):
    """Columns of each event's four points on a grid of n points: the point
    before it, its bracket (a zero is the bracket [t, t]) and the point
    after it; an end repeats where the grid ends."""
    lo, hi = events // 2, (events + 1) // 2
    return np.clip(np.stack([lo - 1, lo, hi, hi + 1], axis=-1), 0, n - 1)


def _estimate(pts, vals):
    """Each bracket's g: the zero of the inverse cubic through its four
    points, by Neville's scheme on offsets from the lower end, where their
    values are finite and strictly monotone and that zero lies strictly
    inside the bracket; otherwise the regula falsi estimate of its ends."""
    lo, hi = pts[:, 1], pts[:, 2]
    with np.errstate(all="ignore"):
        g = lo - vals[:, 1] * (hi - lo) / (vals[:, 2] - vals[:, 1])
        g = np.clip(np.where(np.isfinite(g), g, 0.5 * (lo + hi)), lo, hi)
        x = list((pts - lo[:, None]).T)
        y = vals.T
        for level in range(1, 4):
            for i in range(4 - level):
                j = i + level
                x[i] = (y[i] * x[i + 1] - y[j] * x[i]) / (y[i] - y[j])
        cubic = lo + x[0]
        dy = np.diff(vals, axis=1)
    ok = (np.isfinite(vals).all(axis=1)
          & ((dy > 0).all(axis=1) | (dy < 0).all(axis=1))
          & (lo < cubic) & (cubic < hi))
    return np.where(ok, cubic, g)


def _round_points(pts, vals):
    """Each bracket's sorted points of one round: the 33 uniform points and
    the cluster about its estimate g, clipped into it.  An estimate on an
    end is kept: near a root where f is rounding noise, the regula falsi
    estimate sits within one ulp of an end."""
    lo, hi = pts[:, 1:2], pts[:, 2:3]
    g = _estimate(pts, vals)[:, None]
    ladder = [g]
    for _ in range(_LADDER):
        ladder = ([np.nextafter(ladder[0], lo)] + ladder
                  + [np.nextafter(ladder[-1], hi)])
    w = (hi - lo) * _CLUSTER
    uniform = np.linspace(lo[:, 0], hi[:, 0], _SPLITS + 1, axis=-1)
    return np.sort(np.concatenate(
        [uniform, *ladder, np.clip(g - w, lo, hi), np.clip(g + w, lo, hi)],
        axis=1), axis=1)


def _merge(roots, a, b, closed, tol):
    keep = []
    for t in np.sort(roots):
        if not keep or t - keep[-1] > tol:
            keep.append(t)
    out = np.asarray(keep, dtype=float)
    if closed and len(out) > 1 and (out[0] - a) + (b - out[-1]) <= tol:
        out = out[:-1]
    return out


def find_roots(f, a: float, b: float, samples: int = SCAN_SAMPLES,
               closed: bool = False):
    """Simple roots of f on [a, b], sorted.  f maps an ndarray of N
    parameters to N values, or to m rows of N values: then the result is a
    tuple of m arrays, the roots of each row."""
    ts = np.linspace(a, b, samples + 1)
    fv = np.asarray(f(ts), dtype=float)
    single = fv.ndim == 1
    fv = fv.reshape(-1, len(ts))
    m = len(fv)
    scale = [np.median(np.abs(row[ok])) if ok.any() else 0.0
             for row, ok in zip(fv, np.isfinite(fv))]
    residual = np.maximum(1e-4 * np.array(scale), 1e-300)
    rows, events = np.nonzero(_events(fv))
    cols = _four(events, len(ts))
    pts, vals = ts[cols], fv[rows[:, None], cols]
    sign = np.sign(fv)
    seam = np.flatnonzero(
        closed & (sign[:, 0] * sign[:, -1] < 0) & (sign[:, 0] == sign[:, 1])
        & (sign[:, -1] == sign[:, -2]))
    # the seam's two values, as a bracket that has all four points at a
    rows = np.concatenate([rows, seam])
    pts = np.vstack([pts, np.full((len(seam), 4), float(a))])
    vals = np.vstack([vals, fv[seam][:, [0, 0, -1, -1]]])
    for _ in range(_ROUNDS):
        live = np.nextafter(pts[:, 1], pts[:, 2]) < pts[:, 2]
        if not live.any():
            break
        grid = _round_points(pts[live], vals[live])
        # one value per distinct point: cluster points clipped to an end or
        # closer to g than its ulp repeat
        at, where = np.unique(grid.ravel(), return_inverse=True)
        gv = np.asarray(f(at), dtype=float).reshape(m, -1)[:, where]
        gv = gv.reshape(m, *grid.shape)[rows[live], np.arange(len(grid))]
        events = _events(gv)
        first = events.argmax(axis=-1)
        hit = events[np.arange(len(first)), first]
        k, cols = np.nonzero(hit)[0][:, None], _four(first[hit], grid.shape[1])
        rows = np.concatenate([rows[~live], rows[live][hit]])
        pts = np.concatenate([pts[~live], grid[k, cols]])
        vals = np.concatenate([vals[~live], gv[k, cols]])
    ends, vals = pts[:, 1:3], vals[:, 1:3]
    best = np.abs(vals).argmin(axis=-1)
    small = np.abs(vals).min(axis=-1) <= residual[rows]
    found = ends[np.arange(len(ends)), best]
    merge_tol = max(1e-9, 1e-12 * (b - a))
    out = tuple(_merge(found[small & (rows == i)], a, b, closed, merge_tol)
                for i in range(m))
    return out[0] if single else out
