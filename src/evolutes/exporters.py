"""File writers for sampled geometry: CSV, OBJ, SVG, JSON.

All writers are atomic (temp file + rename, never a partial artifact) and
deterministic: numbers are serialized with their shortest round-trip decimal
representation, so identical inputs give byte-identical files.  Splitting a
curve into branches at singular parameters happens upstream; these functions
only lay out the rows, faces, and paths they are handed.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = [
    "render_csv", "render_obj", "render_svg", "render_json", "atomic_write",
]


# rows per tolist() in _rows: one list of a whole 65536-row table costs
# about 14 MB of peak RSS, and a chunk this size is as fast
_CHUNK = 4096


def _rows(table, sep: str, prefix: str = "") -> list:
    """One line per row of a 2-D array: prefix, then its numbers joined by
    sep.  repr of a Python float is the shortest string that round-trips."""
    lines = []
    for start in range(0, len(table), _CHUNK):
        lines += [prefix + sep.join(map(repr, row))
                  for row in table[start:start + _CHUNK].tolist()]
    return lines


def atomic_write(path, text: str) -> None:
    """Write text to path so that the file appears complete or not at all."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(ts, points, extras=None) -> str:
    """CSV with header t,x,y,z plus one column per (name, values) in extras."""
    ts = np.asarray(ts, dtype=float)
    points = np.asarray(points, dtype=float).reshape(len(ts), 3)
    extras = list(extras or ())
    header = "t,x,y,z" + "".join("," + name for name, _ in extras)
    table = np.column_stack(
        [ts, points] + [np.asarray(vals, dtype=float) for _, vals in extras])
    return "\n".join([header] + _rows(table, ",")) + "\n"


def render_obj(patch) -> str:
    """Wavefront OBJ for a ruled patch: v lines, then quad f lines.

    Vertices are the patch grid flattened ruling-fastest; each quad joins two
    neighbouring rulings and is wound counterclockwise as seen from the side
    the ruling directions point to.
    """
    grid = np.asarray(patch.vertices, dtype=float)
    n, m = grid.shape[0], grid.shape[1]
    index = np.arange(1, n * m + 1).reshape(n, m)
    a, b = index[:-1, :-1], index[1:, :-1]
    faces = np.stack([a, b, b + 1, a + 1], axis=-1).reshape(-1, 4)
    lines = ([f"# ruled patch {n} rulings x {m} samples"]
             + _rows(grid.reshape(-1, 3), " ", "v ") + _rows(faces, " ", "f "))
    return "\n".join(lines) + "\n"


def render_svg(branches, scale: float = 100.0, pad: float = 10.0) -> str:
    """SVG document with one black path element, 1.5 pixels wide, per
    planar branch.

    branches is a sequence of (n, 2) arrays in mathematical coordinates;
    the y axis is flipped for screen space and everything is scaled to
    scale pixels per unit with a margin of pad pixels.
    """
    branches = [np.asarray(b, dtype=float).reshape(-1, 2) for b in branches]
    drawn = [b for b in branches if len(b) >= 2]
    if drawn:
        lo = np.min([b.min(axis=0) for b in drawn], axis=0)
        hi = np.max([b.max(axis=0) for b in drawn], axis=0)
    else:
        lo = hi = np.zeros(2)
    width, height = ((hi - lo) * scale + 2 * pad).tolist()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width!r}" '
        f'height="{height!r}" viewBox="0 0 {width!r} {height!r}">',
    ]
    for branch in drawn:
        xs = (branch[:, 0] - lo[0]) * scale + pad
        ys = (hi[1] - branch[:, 1]) * scale + pad
        steps = " L ".join(_rows(np.column_stack([xs, ys]), " "))
        lines.append(f'  <path d="M {steps}" fill="none" stroke="black" '
                     'stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_plain) + "\n"
