"""File writers: round-trip precision, determinism, atomicity."""
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from evolutes.envelope import developable_patch
from evolutes.exporters import (atomic_write, render_csv, render_json,
                                render_obj, render_svg)


def test_csv_roundtrips_full_precision():
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(0, 10, 40))
    pts = rng.standard_normal((40, 3))
    extra = rng.standard_normal(40)
    text = render_csv(ts, pts, extras=[("k", extra)])
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,z,k"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], ts)
    np.testing.assert_array_equal(back[:, 1:4], pts)
    np.testing.assert_array_equal(back[:, 4], extra)


def test_empty_polyline_gives_header_only():
    assert render_csv([], np.zeros((0, 3))) == "t,x,y,z\n"


def test_obj_counts(helix):
    patch = developable_patch(helix, "tangent", np.linspace(0.1, 1.0, 4),
                              rail_samples=3)
    text = render_obj(patch)
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
    text = render_obj(patch)
    assert text.count("\nv ") + text.startswith("v ") == 2
    assert "f " not in text


def test_obj_single_sample_per_ruling_has_no_faces():
    text = render_obj(SimpleNamespace(vertices=np.ones((5, 1, 3))))
    assert text.count("\nv ") == 5
    assert "\nf " not in text


# shortest round-trip reprs of every kind: infinities, nan, a negative zero,
# the smallest subnormal and the largest float
_SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
            1.7976931348623157e308]


def _layout(table, sep):
    return [sep.join(repr(float(v)) for v in row) for row in table]


def _table(rows, columns):
    # rows past one tolist() chunk of 4096, special values at its seams
    rng = np.random.default_rng(11)
    table = (rng.standard_normal((rows, columns))
             * 10.0 ** rng.uniform(-300.0, 300.0, (rows, columns)))
    for i, row in enumerate([0, 4095, 4096, 8191, 8192, rows - 1]):
        table[row] = np.roll(_SPECIAL, i)[:columns]
    return table


def test_rows_past_one_chunk_keep_a_per_number_layout():
    table = _table(10_000, 6)
    text = render_csv(table[:, 0], table[:, 1:4],
                      extras=[("a", table[:, 4]), ("b", table[:, 5])])
    assert text.split("\n")[1:-1] == _layout(table, ",")

    grid = table.reshape(100, 200, 3)
    lines = render_obj(SimpleNamespace(vertices=grid)).split("\n")
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
    branch[[0, 4095, 4096, 9999], 0] = [-0.0, 5e-324, 0.0, -5e-324]
    lo, hi = branch.min(axis=0), branch.max(axis=0)
    xs = (branch[:, 0] - lo[0]) * 100.0 + 10.0
    ys = (hi[1] - branch[:, 1]) * 100.0 + 10.0
    path = render_svg([branch]).split('d="')[1].split('"')[0]
    assert path == "M " + " L ".join(_layout(np.column_stack([xs, ys]), " "))


def test_svg_one_path_per_branch():
    b1 = np.stack([np.linspace(0, 1, 9), np.zeros(9)], axis=-1)
    b2 = np.stack([np.linspace(0, 1, 5), np.ones(5)], axis=-1)
    text = render_svg([b1, b2])
    assert text.count("<path ") == 2
    assert 'viewBox="' in text
    # single-point branches cannot be drawn
    assert render_svg([b1[:1]]).count("<path ") == 0


def test_svg_flips_y_axis():
    up = np.array([[0.0, 0.0], [0.0, 1.0]])
    text = render_svg([up], scale=10.0, pad=0.0)
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


def test_export_is_deterministic(tmp_path):
    ts = np.linspace(0, 1, 7)
    pts = np.stack([np.sin(ts), np.cos(ts), ts], axis=-1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    atomic_write(p1, render_csv(ts, pts))
    atomic_write(p2, render_csv(ts, pts))
    assert p1.read_bytes() == p2.read_bytes()
