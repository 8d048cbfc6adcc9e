"""File writers: round-trip precision, determinism, atomicity, and the
array formatter against repr, byte for byte."""
import io
import math
import pathlib
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from evolutes.envelope import developable_patch
from evolutes import cli
from evolutes.exporters import (_BLOCK, _lines, atomic_write, render_csv,
                                render_json, render_obj, render_svg)


def _csv(*args, **kw):
    return "".join(render_csv(*args, **kw))


def _obj(patch):
    return "".join(render_obj(patch))


def _svg(*args, **kw):
    return "".join(render_svg(*args, **kw))


def test_csv_roundtrips_full_precision():
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(0, 10, 40))
    pts = rng.standard_normal((40, 3))
    extra = rng.standard_normal(40)
    text = _csv(ts, pts, extras=[("k", extra)])
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,z,k"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], ts)
    np.testing.assert_array_equal(back[:, 1:4], pts)
    np.testing.assert_array_equal(back[:, 4], extra)


def test_empty_polyline_gives_header_only():
    assert _csv([], np.zeros((0, 3))) == "t,x,y,z\n"


def test_obj_counts(helix):
    patch = developable_patch(helix, "tangent", np.linspace(0.1, 1.0, 4),
                              rail_samples=3)
    text = _obj(patch)
    lines = text.strip().split("\n")
    v = [ln for ln in lines if ln.startswith("v ")]
    f = [ln for ln in lines if ln.startswith("f ")]
    assert len(v) == 12 and len(f) == 6
    # quad indices are 1-based and in range
    for ln in f:
        idx = [int(w) for w in ln.split()[1:]]
        assert len(idx) == 4 and all(1 <= i <= 12 for i in idx)


def test_obj_single_ruling_has_no_faces(helix):
    patch = developable_patch(helix, "tangent", [0.5], rail_samples=2)
    text = _obj(patch)
    assert text.count("\nv ") + text.startswith("v ") == 2
    assert "f " not in text


def test_obj_single_sample_per_ruling_has_no_faces():
    text = _obj(SimpleNamespace(vertices=np.ones((5, 1, 3))))
    assert text.count("\nv ") == 5
    assert "\nf " not in text


# shortest round-trip reprs of every kind: infinities, nan, a negative zero,
# the smallest subnormal and the largest float
_SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
            1.7976931348623157e308]


def _layout(table, sep):
    return [sep.join(repr(float(v)) for v in row) for row in table]


def _table(rows, columns):
    # rows past one block of the formatter, special values at its seams
    rng = np.random.default_rng(11)
    table = (rng.standard_normal((rows, columns))
             * 10.0 ** rng.uniform(-300.0, 300.0, (rows, columns)))
    per = _BLOCK // columns
    for i, row in enumerate([0, per - 1, per, 2 * per - 1, 2 * per, rows - 1]):
        table[row] = np.roll(_SPECIAL, i)[:columns]
    return table


def _streamed(pieces, tmp_path, capsys):
    """The joined pieces, after checking that a file written by atomic_write
    and the CLI's standard output hold the same text and that len counts
    the pieces."""
    text = "".join(pieces)
    assert len(pieces) == sum(1 for _ in pieces) > 2
    atomic_write(tmp_path / "streamed", pieces)
    assert (tmp_path / "streamed").read_bytes() == text.encode()
    capsys.readouterr()
    cli._write(cli.RunConfig(source=("preset", "helix")), pieces)
    assert capsys.readouterr().out == text
    return text


def test_rows_past_one_chunk_keep_a_per_number_layout(tmp_path, capsys):
    # 14 blocks of 682 rows and a short one of 452; the file and standard
    # output get the same text
    table = _table(10_000, 6)
    text = _streamed(render_csv(table[:, 0], table[:, 1:4],
                                extras=[("a", table[:, 4]), ("b", table[:, 5])]),
                     tmp_path, capsys)
    assert text.split("\n")[1:-1] == _layout(table, ",")

    # vertices: 14 blocks of 1365 rows and one of 890; faces: 19 blocks of
    # 1024 rows and one of 245
    grid = table.reshape(100, 200, 3)
    lines = _streamed(render_obj(SimpleNamespace(vertices=grid)), tmp_path,
                      capsys).split("\n")
    n, m = grid.shape[:2]
    faces = [f"f {i * m + j + 1} {(i + 1) * m + j + 1} "
             f"{(i + 1) * m + j + 2} {i * m + j + 2}"
             for i in range(n - 1) for j in range(m - 1)]
    assert lines[1:-1] == (["v " + ln for ln in _layout(grid.reshape(-1, 3),
                                                         " ")] + faces)

    # an SVG path holds finite numbers only: its bounding box is finite
    rng = np.random.default_rng(12)
    branch = (rng.standard_normal((10_000, 2))
              * 10.0 ** rng.uniform(-20.0, 20.0, (10_000, 2)))
    per = _BLOCK // 2
    branch[[0, per - 1, per, 9999], 0] = [-0.0, 5e-324, 0.0, -5e-324]
    lo, hi = branch.min(axis=0), branch.max(axis=0)
    xs = (branch[:, 0] - lo[0]) * 100.0 + 10.0
    ys = (hi[1] - branch[:, 1]) * 100.0 + 10.0
    path = _svg([branch]).split('d="')[1].split('"')[0]
    assert path == "M " + " L ".join(_layout(np.column_stack([xs, ys]), " "))


def test_svg_one_path_per_branch():
    b1 = np.stack([np.linspace(0, 1, 9), np.zeros(9)], axis=-1)
    b2 = np.stack([np.linspace(0, 1, 5), np.ones(5)], axis=-1)
    text = _svg([b1, b2])
    assert text.count("<path ") == 2
    assert 'viewBox="' in text
    # single-point branches cannot be drawn
    assert _svg([b1[:1]]).count("<path ") == 0


def _svg_per_branch(branches, scale=100.0, pad=10.0):
    """render_svg as it was written with one _lines call per branch."""
    branches = [np.asarray(b, dtype=float).reshape(-1, 2) for b in branches]
    drawn = [b for b in branches if len(b) >= 2]
    if drawn:
        lo = np.min([b.min(axis=0) for b in drawn], axis=0)
        hi = np.max([b.max(axis=0) for b in drawn], axis=0)
    else:
        lo = hi = np.zeros(2)
    size = (hi - lo) * scale + 2 * pad
    width, height = "".join(_lines([size[:1], size[1:]], " ", "", "")).split()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    ]
    for branch in drawn:
        xs = (branch[:, 0] - lo[0]) * scale + pad
        ys = (hi[1] - branch[:, 1]) * scale + pad
        parts += ['  <path d="M ', *_lines((xs, ys), " ", " L ", ""),
                  '" fill="none" stroke="black" stroke-width="1.5"/>\n']
    parts.append("</svg>\n")
    return "".join(parts)


def test_svg_of_many_branches_as_one_call_per_branch():
    rng = np.random.default_rng(13)
    # branch lengths about the formatter's block of _BLOCK // 2 rows,
    # single points (not drawn) among them, and signed zeros and
    # subnormals in the coordinates
    sizes = [1, 2, 3, _BLOCK // 2 - 1, 1, _BLOCK // 2, _BLOCK // 2 + 1, 7,
             _BLOCK + 5, 2]
    branches = [rng.standard_normal((n, 2))
                * 10.0 ** rng.uniform(-8.0, 8.0, (n, 2)) for n in sizes]
    branches[2][:, 0] = [-0.0, 5e-324, -5e-324]
    cases = [([], 100.0, 10.0), (branches[:1], 100.0, 10.0),
             (branches, 100.0, 10.0), (branches[3:], 0.37, 0.0),
             (branches[1:3], 1e-300, 1e300),
             # paths that end on the last row of a block and on the
             # second row of the next
             ([branches[5], branches[1], branches[5]], 100.0, 10.0)]
    # the committed figure-eight pseudo-evolute: 16 branches
    text = (pathlib.Path(__file__).parents[1] / "outputs"
            / "fig8_pseudo.svg").read_text()
    fig8 = [np.array([float(v) for v in re.findall(r"[-+0-9.e]+", d)])
            .reshape(-1, 2) for d in re.findall(r' d="([^"]*)"', text)]
    assert len(fig8) == 16
    cases.append((fig8, 100.0, 10.0))
    for drawn, scale, pad in cases:
        assert (_svg(drawn, scale=scale, pad=pad)
                == _svg_per_branch(drawn, scale=scale, pad=pad))


def test_svg_flips_y_axis():
    up = np.array([[0.0, 0.0], [0.0, 1.0]])
    text = _svg([up], scale=10.0, pad=0.0)
    segment = text.split('d="')[1].split('"')[0]
    coords = [float(x) for x in segment.replace("M", " ").replace("L", " ")
              .replace(",", " ").split()]
    assert coords[1] > coords[3]  # larger y drawn higher up (smaller svg y)


def test_render_json_is_sorted_and_newline_terminated():
    text = render_json({"b": 1, "a": np.float64(0.5)})
    assert text == '{\n  "a": 0.5,\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        render_json({"bad": float("nan")})


def test_atomic_write_leaves_no_partials(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    with pytest.raises(TypeError):
        atomic_write(tmp_path / "бад.csv", 123)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


class _Failing:
    """Pieces whose iteration raises after the first block of a table."""

    def __init__(self, pieces, error):
        self.pieces, self.error = pieces, error

    def __iter__(self):
        it = iter(self.pieces)
        yield next(it)
        yield next(it)
        raise self.error


def _full_disk(written):
    """os.fdopen for a file whose write fails as on a full disk once a
    piece is written."""
    class Full(io.TextIOWrapper):
        def write(self, text):
            if written:
                raise OSError(28, "No space left on device")
            written.append(text)
            return super().write(text)

    def fdopen(fd, mode, **kw):
        return Full(io.FileIO(fd, mode), **kw)
    return fdopen


def test_streaming_leaves_the_target_or_nothing(tmp_path, monkeypatch):
    table = _table(5_000, 6)
    pieces = render_csv(table[:, 0], table[:, 1:4])
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(ZeroDivisionError):
        atomic_write(target, _Failing(pieces, ZeroDivisionError()))
    written = []
    monkeypatch.setattr("evolutes.exporters.os.fdopen", _full_disk(written))
    with pytest.raises(OSError, match="No space left"):
        atomic_write(target, pieces)
    assert written == ["t,x,y,z\n"]
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_a_failed_write_exits_1_and_keeps_the_target(tmp_path, monkeypatch,
                                                     capsys):
    target = tmp_path / "knot.csv"
    target.write_bytes(b"old\n")
    monkeypatch.setattr("evolutes.exporters.os.fdopen", _full_disk([]))
    assert cli.entry(["frenet", "--preset", "torus-knot", "--samples",
                      "10000", "--out", str(target)]) == 1
    assert capsys.readouterr().err.startswith(
        "io error: [Errno 28] No space left on device")
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["knot.csv"]


def test_export_is_deterministic(tmp_path):
    ts = np.linspace(0, 1, 7)
    pts = np.stack([np.sin(ts), np.cos(ts), ts], axis=-1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    pieces = render_csv(ts, pts)
    atomic_write(p1, pieces)
    atomic_write(p2, pieces)
    assert p1.read_bytes() == p2.read_bytes()


# ----------------------------------------------- the formatter against repr
#
# The loop the exporters used before the array formatter: one repr per
# number.  It is the oracle, byte for byte.

def _rows(table, sep, prefix=""):
    lines = []
    for start in range(0, len(table), 4096):
        lines += [prefix + sep.join(map(repr, row))
                  for row in table[start:start + 4096].tolist()]
    return lines


def _assert_as_repr(values, columns=4):
    table = np.asarray(values).reshape(-1, columns)
    got = "".join(_lines(table.T, ",", "\n", "\n"))
    want = "\n".join(_rows(table, ",")) + "\n"
    if got != want:
        bad = next(i for i, (a, b) in enumerate(
            zip(got.split("\n"), want.split("\n"))) if a != b)
        pytest.fail(f"row {bad}: {got.split(chr(10))[bad]!r} != "
                    f"{want.split(chr(10))[bad]!r}")


def check_random_patterns(count, seed=0, batch=10**6):
    """count random bit patterns, every exponent and both signs, against
    repr; CI runs it at 10**7 on the numpy floor and on the latest numpy."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, batch):
        size = min(batch, count - start)
        _assert_as_repr(rng.integers(0, 2**64, size - size % 4,
                                     dtype=np.uint64, endpoint=False)
                        .view(np.float64))


def test_random_bit_patterns_as_repr():
    check_random_patterns(10**6)


def test_smallest_subnormals_of_both_signs_as_repr():
    bits = np.arange(1, 2**20 + 1, dtype=np.uint64)
    _assert_as_repr(np.concatenate([bits, bits | np.uint64(2**63)])
                    .view(np.float64))


def test_layout_edges_as_repr():
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
             1e-05, 0.0001, 1e16, 9.999999999999999e15, 1e-4 * (1 - 2**-53),
             123456789012345680.0, 0.1, 100.0, 1.5, 12345.678, 1e22, 1e23,
             1e-100, -1.5e300, 2.5e-200, 1.7976931348623157e308,
             2.2250738585072014e-308, 2.225073858507201e-308]
    _assert_as_repr(edges, columns=1)


def test_powers_of_two_as_repr():
    # c = 2**52: the next double down is half as far away (Schubfach's
    # irregular spacing); their neighbours on either side too
    bits = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    bits = np.concatenate([bits, bits + np.uint64(1), bits - np.uint64(1)])
    _assert_as_repr(np.concatenate([bits, bits | np.uint64(2**63)])
                    .view(np.float64), columns=2)


def test_schubfach_pitfalls_as_repr():
    # Java's C_TINY path would give 4.9e-324, its s >= 100 guard 7.9e-323;
    # f of 0.5 is 5 * 10**16, 16 trailing zeros to drop
    assert "".join(_lines([[5e-324], [2.0**-1070], [0.5]], " ", "", "")) == (
        "5e-324 8e-323 0.5")


def test_integer_tables_as_repr():
    faces = np.arange(1, 4097 * 4 + 1).reshape(-1, 4)
    wide = np.array([[0, -1, 10**16, -(10**17 - 1)], [9, 10, 99, 100]])
    for table in (faces, faces[::-1].copy(), wide, faces.astype(np.int32)):
        assert "".join(_lines(table.T, " ", "\nf ", "\n")) == (
            "\n".join(_rows(table, " ")).replace("\n", "\nf ") + "\n")


def test_every_number_of_the_outputs_as_repr():
    root = pathlib.Path(__file__).resolve().parents[1] / "outputs"
    numbers = [float(tok) for path in sorted(root.iterdir())
               for tok in re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+",
                                     path.read_text())]
    assert len(numbers) > 50_000
    _assert_as_repr(numbers[:len(numbers) // 4 * 4])


def test_writing_peaks_below_a_quarter_of_its_text(tmp_path):
    # the pieces are made as they are written: the text is never whole in
    # memory (joined, it took twice its size)
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0, 10, 65536))
    pts = rng.standard_normal((65536, 3))
    extras = [(name, rng.standard_normal(65536)) for name in ("k", "tau", "s")]
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        atomic_write(path, render_csv(ts, pts, extras))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size / 4
