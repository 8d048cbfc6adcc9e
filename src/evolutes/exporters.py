"""File writers for sampled geometry: CSV, OBJ, SVG, JSON.

All writers are atomic (temp file + rename, never a partial artifact) and
deterministic: numbers are serialized with their shortest round-trip decimal
representation, so identical inputs give byte-identical files.  The CSV,
OBJ and SVG writers return their text as pieces made block by block as they
are written, so no file is ever held whole in memory.  Splitting a
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


# ------------------------------------------------------------ number text
#
# Numbers are written as repr writes them, a block of numbers at a time in
# uint64 arithmetic.  Each number fills one cell of seven little-endian
# words that hold the bytes of its text in order, with zero bytes between
# the pieces; dropping the zero bytes of a block leaves its text:
#   word 0     the sign, then "0." and up to three zeros when 1e-4 <= |x| < 1
#   words 1-2  the digits before the decimal point
#   words 3-5  the decimal point (byte 0), then the digits after it
#   word 6     the exponent, "e-05" to "e+308", then the separator (byte 5)

_U, _I = np.uint64, np.int64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_ONE, _INF = _U(0x3FF0000000000000), _U(0x7FF0000000000000)
_K_MIN, _K_MAX = -324, 292   # range of the decimal exponent k below

# numbers per block: each numpy call costs about a microsecond besides its
# work, so larger blocks are faster (8192 by about a seventh), but the C
# allocator then keeps more of a block's arrays resident between calls
_BLOCK = 4096


def _words(text: bytes, count: int) -> list:
    """text as count little-endian uint64 values, zero-padded."""
    text = text.ljust(8 * count, b"\0")
    return [int.from_bytes(text[i:i + 8], "little")
            for i in range(0, 8 * count, 8)]


def _schubfach_limbs(k: int):
    """g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32 for one k, where g = g1 *
    2**63 + g0 = floor(10**-k * 2**(125 - floor(log2 10**-k))) + 1 is the
    126-bit upper approximation of 10**-k that Schubfach reads."""
    shift = 125 - ((-k * 913124641741) >> 38)
    if k > 0:
        g = (1 << shift) // 10**k + 1
    else:
        g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
    g1, g0 = g >> 63, g & (2**63 - 1)
    return g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF


def _layout(c: int, n: int) -> tuple:
    """The head word, the masks of the digit words 1-5 and the decimal point
    of a float with n significant digits and the decimal point after its
    decpt-th digit (x = 0.d1d2... * 10**decpt), c = decpt clipped to -4..17
    (repr uses the exponent form outside -3 <= decpt <= 16), or of an
    integer of n digits for c = 18."""
    if c == 18:                              # integer: all digits, no point
        p, end, dot, zeros = 0, n, False, 0
    elif c < -3 or c > 16:                   # d.ddde+XX
        p, end, dot, zeros = 1, n, n > 1, 0
    elif c > 0:                              # ddd.ddd, ddd00.0
        p, end, dot, zeros = c, max(n, c + 1), True, 0
    else:                                    # 0.000ddd
        p, end, dot, zeros = 0, n, False, 1 - c
    head = int.from_bytes(b"\0" + b"0.000"[:zeros + 1], "little") if zeros else 0
    lo = (1 << 8 * p) - 1
    hi = ((1 << 8 * end) - 1) ^ lo
    word = 2**64 - 1
    return (head, lo & word, lo >> 64, hi & word, hi >> 64 & word, hi >> 128,
            0x2E * dot)


_G = np.fromiter((limb for k in range(_K_MIN, _K_MAX + 1)
                  for limb in _schubfach_limbs(k)), dtype=_U)
_G = _G.reshape(-1, 5).T.copy()
# column 18 * (c + 4) + n of _layout(c, n)
_LAYOUT = np.fromiter((word for c in range(-4, 19) for n in range(18)
                       for word in _layout(c, n)), dtype=_U)
_LAYOUT = _LAYOUT.reshape(-1, 7).T.copy()
_INT_LAYOUT = 18 * 22
# word 6 by decpt + 323 (decpt of a finite nonzero double: -323..309)
_EXPONENT = np.fromiter((0 if -3 <= d <= 16 else
                         int.from_bytes(f"e{d - 1:+03d}".encode(), "little")
                         for d in range(-323, 310)), dtype=_U)
_SPECIAL = np.array([_words(w, 1)[0] for w in (b"0.0", b"inf", b"nan")],
                    dtype=_U)
_POW10 = np.array([10**i for i in range(18)], dtype=_U)


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a * b from 32-bit limbs, a = ah * 2**32 + al and b
    alike, for a < 2**63 and b < 2**60: the middle sum stays below 2**64."""
    high = al * bl
    high >>= _U(32)
    high += ah * bl
    high += al * bh
    high >>= _U(32)
    high += ah * bh
    return high


def _round_to_odd(g, cp):
    """Java's rop: floor(g * cp / 2**127) with its lowest bit set when the
    rest of the product (to 2**-63) is not zero; overwrites cp."""
    ch = cp >> _U(32)
    z = g[0] * cp
    cp &= _M32
    z >>= _U(1)
    z += _mulhi(g[3], g[4], ch, cp)
    vb = _mulhi(g[1], g[2], ch, cp)
    vb += z >> _U(63)
    z &= _M63
    z += _M63
    vb |= z >> _U(63)
    return vb


def _schubfach(mag, g):
    """(f, k) with f * 10**k the shortest decimal that rounds to each double
    of the bits mag (finite, positive), the closest one when several do;
    g (5, N) is workspace.

    Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) as in
    Java's DoubleToDecimal, without Java's two-digit minimum (its C_TINY
    subnormals and its s >= 100 guard), which repr does not have.
    """
    bq = mag >> _U(52)
    c = mag & _U(2**52 - 1)
    # at a power of two the next double down is half as far away
    irregular = (c == 0) & (bq > 1)
    c |= np.minimum(bq, _U(1)) << _U(52)
    q = np.maximum(bq, _U(1), out=bq).view(_I)
    q -= 1075                                           # v = c * 2**q
    # k = floor(log10(2**q)), of 3/4 * 2**q when irregular, and h = q +
    # floor(log2(10**-k)) + 2, by Java's flog10pow2 and flog2pow10
    k = q * 661971961083
    k -= irregular * _I(274743187321)
    k >>= 41
    q += (-k * 913124641741) >> 38
    q += 2
    h = q.view(_U)                                      # 2..5
    np.take(_G, k - _K_MIN, axis=1, out=g, mode="clip")
    # v's rounding interval in units of 10**k / 4, closed when c is even
    out = c & _U(1)
    c <<= _U(2)
    vb = _round_to_odd(g, c << h)
    lo = _round_to_odd(g, (c - _U(2) + irregular) << h)
    lo += out
    c += _U(2)
    hi = _round_to_odd(g, c << h)
    hi -= out
    del c, h, out, irregular
    # one digit less: s10 or s10 + 10, when exactly one is in the interval
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    edge = s10 << _U(2)
    upin = lo <= edge
    edge += _U(40)
    wpin = edge <= hi
    # else s or s + 1: the one in the interval, or the closer one when both
    # are, s on a tie when s is even (vb & 7 in 3, 6, 7 rounds up)
    edge = vb & ~_U(3)
    uin = lo <= edge
    edge += _U(4)
    win = edge <= hi
    s += win & (~uin | ((_U(0xC8) >> (vb & _U(7))) & _U(1)))
    return np.where(upin | wpin, s10 + _U(10) * wpin, s), k


def _ndigits(f):
    """Decimal digits of each f >= 1."""
    bits = (f.astype(np.float64).view(_I) >> 52) - 1022    # bit length
    bits *= 1233
    bits >>= 12
    return bits + (f >= _POW10[bits])


def _swar8(x):
    """The eight decimal digits of each x < 10**8 as bytes 0-9, the first
    digit in the lowest byte: SWAR divisions by 10**4, 100 and 10, in x."""
    for mul, shift, mask, div, width in (
            (109951163, 40, 2**64 - 1, 10000, 32),
            (10486, 20, 0x0000007F0000007F, 100, 16),
            (103, 10, 0x000F000F000F000F, 10, 8)):
        top = x * _U(mul)
        top >>= _U(shift)
        top &= _U(mask)
        x -= top * _U(div)
        x <<= _U(width)
        x |= top
    return x


def _nonzero_bytes(digits):
    """Bit j set where byte j of digits (bytes 0-9) is not zero."""
    flags = digits + _U(0x7F7F7F7F7F7F7F7F)
    flags &= _U(0x8080808080808080)
    flags >>= _U(7)
    flags *= _U(0x0102040810204080)
    flags >>= _U(56)
    return flags


def _digits(f, ndig):
    """The 17 ASCII digits of f * 10**(17 - ndig) as bytes 0-16 of three
    words, and the number of them up to the last nonzero one."""
    f = f * _POW10[17 - ndig]
    mid = f // _U(10**8)
    f -= mid * _U(10**8)
    first = mid // _U(10**8)
    mid -= first * _U(10**8)
    mid, last = _swar8(mid), _swar8(f)
    # the highest set bit of the 16-bit mask of nonzero digits, via float
    nonzero = _nonzero_bytes(last)
    nonzero <<= _U(8)
    nonzero |= _nonzero_bytes(mid)
    n = (nonzero.astype(np.float64).view(_I) >> 52) - 1021
    ascii0 = _U(0x3030303030303030)
    first |= mid << _U(8)
    first += ascii0
    mid >>= _U(56)
    mid |= last << _U(8)
    mid += ascii0
    last >>= _U(56)
    last += _U(0x30)
    return (first, mid, last), np.maximum(n, 1, out=n)


class _Workspace:
    """What one table writes block after block: the values of a block and
    their cells, and one scratch array of 7 words per value that holds, in
    turn, the powers of ten the values read, the layout of their cells and
    the mask of the text bytes in the cells."""

    def __init__(self, rows: int, cols: int, dtype):
        self.values = np.empty((rows, cols), dtype=dtype)
        self.cells = np.empty((rows * cols, 7), dtype="<u8")
        self.scratch = np.empty((7, rows * cols), dtype=_U)


def _fill(ws: _Workspace) -> None:
    """The cells of the float64 or int64 values (ints below 10**17)."""
    values, cells = ws.values.reshape(-1), ws.cells
    if values.dtype.kind == "f":
        bits = values.view(_U)
        neg = bits >> _U(63)
        mag = bits & _M63
        special = np.flatnonzero(mag - _U(1) >= _INF - _U(1))  # 0, inf, nan
        kind = (mag[special] != 0) + (mag[special] > _INF).astype(np.intp)
        mag[special] = _ONE
        f, k = _schubfach(mag, ws.scratch[:5])
        del mag
        ndig = _ndigits(f)
        digits, n = _digits(f, ndig)
        del f
        k += ndig                                       # decpt
        cells[:, 6] = _EXPONENT[k + 323]
        np.clip(k, -4, 17, out=k)
        k += 4
        k *= 18
        k += n
        layout = k
    else:
        neg = (values < 0).astype(_U)
        f = np.abs(values).view(_U)
        ndig = _ndigits(np.maximum(f, _U(1)))
        digits, _ = _digits(f, ndig)
        layout = ndig + _INT_LAYOUT
        cells[:, 6] = 0
        special = kind = np.zeros(0, dtype=np.intp)     # none among integers
    masks = np.take(_LAYOUT, layout, axis=1, out=ws.scratch, mode="clip")
    neg *= _U(0x2D)
    np.bitwise_or(masks[0], neg, out=cells[:, 0])
    for word, source in zip(range(1, 6), (0, 1, 0, 1, 2)):
        np.bitwise_and(digits[source], masks[word], out=cells[:, word])
    cells[:, 3] |= masks[6]
    cells[special, :6] = 0
    cells[special, 0] = neg[special] * (kind < 2)
    cells[special, 1] = _SPECIAL[kind]


# stands in the cells for a separator longer than three bytes: no number
# text or separator holds it
_MARK = "\x01"


def _lines(columns, sep: str, between: str, end: str, breaks=(), brk=""):
    """Yield between.join(sep.join(map(repr, row)) for row in table) + end,
    table being the columns side by side, as one str per block of about
    _BLOCK numbers; each row whose index is in breaks (sorted, the last row
    not among them) ends with brk in place of between.  No rows yield
    nothing."""
    rows, cols = len(columns[0]), len(columns)
    kind = np.float64 if np.asarray(columns[0]).dtype.kind == "f" else np.int64
    seps = [_U(_words(b"\0" * 5 + s.encode(), 1)[0])
            for s in (sep, between, end, _MARK)]
    breaks = np.asarray(breaks, dtype=np.intp)
    per = max(1, _BLOCK // cols)
    ws = None
    for start in range(0, rows, per):
        stop = min(start + per, rows)
        if ws is None or len(ws.values) != stop - start:
            ws = _Workspace(stop - start, cols, kind)
        np.stack([c[start:stop] for c in columns], axis=1, out=ws.values)
        _fill(ws)
        cells = ws.cells.reshape(-1, cols, 7)
        cells[:, :-1, 6] |= seps[0]
        last = cells[:, -1, 6]
        last |= seps[1]
        if stop == rows:
            last[-1] = (last[-1] & _U(2**40 - 1)) | seps[2]
        marked = breaks[np.searchsorted(breaks, start):
                        np.searchsorted(breaks, stop)] - start
        last[marked] = (last[marked] & _U(2**40 - 1)) | seps[3]
        text = ws.cells.reshape(-1).view(np.uint8)
        text = str(text[np.not_equal(text, 0,
                                     out=ws.scratch.reshape(-1).view(bool))],
                   "utf-8")
        yield text.replace(_MARK, brk) if len(marked) else text


class _Pieces:
    """The text of one file as str pieces, made as they are iterated.  A str
    part stands for itself; a part (columns, sep, between, end[, breaks,
    brk]) stands for the rows of the columns side by side, a piece per block
    as _lines yields them: sep, between and end are at most three characters
    each.  The writers check their input before they return one, so no
    refusal waits for the pieces.  len is the number of pieces, known
    before any is made."""

    def __init__(self, *parts):
        self.parts = parts

    def __iter__(self):
        for part in self.parts:
            if isinstance(part, str):
                yield part
            else:
                yield from _lines(*part)

    def __len__(self):
        return sum(1 if isinstance(p, str)
                   else -(-len(p[0][0]) // max(1, _BLOCK // len(p[0])))
                   for p in self.parts)


def atomic_write(path, pieces) -> None:
    """Write the str pieces to path as they come, so that the file appears
    complete or not at all."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(ts, points, extras=None) -> _Pieces:
    """CSV with header t,x,y,z plus one column per (name, values) in extras."""
    ts = np.asarray(ts, dtype=float)
    points = np.asarray(points, dtype=float).reshape(len(ts), 3)
    extras = list(extras or ())
    header = "t,x,y,z" + "".join("," + name for name, _ in extras) + "\n"
    columns = [ts, *points.T] + [np.asarray(vals, dtype=float)
                                 for _, vals in extras]
    return _Pieces(header, (columns, ",", "\n", "\n"))


def render_obj(patch) -> _Pieces:
    """Wavefront OBJ for a ruled patch: v lines, then quad f lines.

    Vertices are the patch grid flattened ruling-fastest; each quad joins two
    neighbouring rulings and is wound counterclockwise as seen from the side
    the ruling directions point to.
    """
    grid = np.asarray(patch.vertices, dtype=float)
    n, m = grid.shape[0], grid.shape[1]
    index = np.arange(1, n * m + 1).reshape(n, m)
    a, b = index[:-1, :-1], index[1:, :-1]
    parts = [f"# ruled patch {n} rulings x {m} samples\n"]
    for kind, columns in (("v ", grid.reshape(-1, 3).T),
                          ("f ", [a, b, b + 1, a + 1])):
        columns = [np.ravel(c) for c in columns]
        if len(columns[0]):
            parts += [kind, (columns, " ", "\n" + kind, "\n")]
    return _Pieces(*parts)


def render_svg(branches, scale: float = 100.0, pad: float = 10.0) -> _Pieces:
    """SVG document with one black path element, 1.5 pixels wide, per
    planar branch.

    branches is a sequence of (n, 2) arrays in mathematical coordinates;
    the y axis is flipped for screen space and everything is scaled to
    scale pixels per unit with a margin of pad pixels.  A scaled drawing
    that is not finite raises ValueError.
    """
    branches = [np.asarray(b, dtype=float).reshape(-1, 2) for b in branches]
    drawn = [b for b in branches if len(b) >= 2]
    pts = np.concatenate([np.empty((0, 2)), *drawn])
    lo, hi = ((pts.min(axis=0), pts.max(axis=0)) if len(pts)
              else (np.zeros(2), np.zeros(2)))
    with np.errstate(over="ignore", invalid="ignore"):
        size = (hi - lo) * scale + 2 * pad
        xs = (pts[:, 0] - lo[0]) * scale + pad
        ys = (hi[1] - pts[:, 1]) * scale + pad
    if not np.isfinite(size).all():
        raise ValueError(f"scale {scale:g} overflows the drawing")
    width, height = "".join(_lines([size[:1], size[1:]], " ", "", "")).split()
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">\n']
    if drawn:
        # one table of every branch's points; a path ends after each branch
        path = '  <path d="M '
        close = '" fill="none" stroke="black" stroke-width="1.5"/>\n'
        ends = np.cumsum([len(b) for b in drawn])[:-1] - 1
        parts += [path, ((xs, ys), " ", " L ", "", ends, close + path), close]
    parts.append("</svg>\n")
    return _Pieces(*parts)


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
