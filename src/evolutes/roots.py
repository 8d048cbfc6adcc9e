"""Root finding by one repeated grid scan.

The first scan evaluates f on a uniform grid of [a, b]; every exact zero
and every sign change between consecutive finite values is a bracket.
Each later round is one call of f for all live brackets: it lays 32 equal
sub-intervals across each and keeps only the first exact zero or sign
change, so brackets never multiply.  A bracket is done at adjacent floats
(at most 11 rounds from a width of (b - a)/2048).  Its root is the end with
the smaller |f|, dropped if that exceeds 1e-4 times the scan's median |f|:
the sign change of a pole (curvature-based quantities blow up where
torsion vanishes), not a root.

A closed curve is scanned once.  A root on its seam is an exact zero at a
or b, a sign change in the first or last interval, or f(a) and f(b)
straddling zero while each end shares its neighbour's sign; that last case
is reported once, at a, if min(|f(a)|, |f(b)|) passes the residual filter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["find_roots", "SCAN_SAMPLES"]

SCAN_SAMPLES = 2048     # intervals of the first scan
_SPLITS = 32    # sub-intervals laid across a bracket in each round
_ROUNDS = 12    # cap on the rounds after the first scan


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


def _bounds(events):
    """Grid points around each event; a zero is the bracket [t, t]."""
    return np.stack([events // 2, (events + 1) // 2], axis=-1)


def find_roots(f, a: float, b: float, samples: int = SCAN_SAMPLES,
               closed: bool = False) -> np.ndarray:
    """Simple roots of f on [a, b], sorted.  f maps ndarray to ndarray."""
    ts = np.linspace(a, b, samples + 1)
    fv = np.asarray(f(ts), dtype=float)
    finite = np.isfinite(fv)
    scale = np.median(np.abs(fv[finite])) if finite.any() else 0.0
    residual = max(1e-4 * scale, 1e-300)
    cols = _bounds(np.nonzero(_events(fv))[0])
    ends, vals = ts[cols], fv[cols]
    sign = np.sign(fv)
    if (closed and sign[0] * sign[-1] < 0 and sign[0] == sign[1]
            and sign[-1] == sign[-2]):
        # the seam's two values, as a bracket that has both ends at a
        ends = np.vstack([ends, [a, a]])
        vals = np.vstack([vals, [fv[0], fv[-1]]])
    for _ in range(_ROUNDS):
        live = np.nextafter(ends[:, 0], ends[:, 1]) < ends[:, 1]
        if not live.any():
            break
        grid = np.linspace(*ends[live].T, _SPLITS + 1, axis=-1)
        gv = np.asarray(f(grid.ravel()), dtype=float).reshape(grid.shape)
        events = _events(gv)
        first = events.argmax(axis=-1)
        hit = events[np.arange(len(first)), first]
        rows, cols = np.nonzero(hit)[0][:, None], _bounds(first[hit])
        ends = np.concatenate([ends[~live], grid[rows, cols]])
        vals = np.concatenate([vals[~live], gv[rows, cols]])
    best = np.abs(vals).argmin(axis=-1)
    small = np.abs(vals).min(axis=-1) <= residual
    roots = np.sort(ends[np.arange(len(ends)), best][small])
    merge_tol = max(1e-9, 1e-12 * (b - a))
    keep = []
    for t in roots:
        if not keep or t - keep[-1] > merge_tol:
            keep.append(t)
    out = np.asarray(keep, dtype=float)
    if closed and len(out) > 1 and (out[0] - a) + (b - out[-1]) <= merge_tol:
        out = out[:-1]
    return out
