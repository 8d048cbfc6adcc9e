"""Command-line front end: exit codes, artifacts, determinism."""
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from evolutes import cli, preset
from evolutes.classify import classify
from evolutes.cli import entry
from evolutes.curves import FrenetODECurve, branch_grids
from evolutes.evolute import EvoluteCurve
from evolutes.exporters import render_csv
from evolutes.expr import _SLICE
from evolutes.frenet import FrenetEval
from evolutes.monge import MongeInvoluteCurve
from evolutes.rolling import TracedInvoluteCurve


def _csv(path):
    return np.loadtxt(io.StringIO(path.read_text()), delimiter=",",
                      skiprows=1)


def test_evolute_csv_matches_closed_form(tmp_path):
    out = tmp_path / "ev.csv"
    code = entry(["evolute", "--preset", "cusp-curve", "--range", "-1:1",
                  "--samples", "512", "--out", str(out)])
    assert code == 0
    data = _csv(out)
    t = data[:, 0]
    want = np.stack([4.5 * t**4 + 20.0 * t**6,
                     -8.0 * t**3 - 32.0 * t**5,
                     0.5 + 4.5 * t**2 + 15.0 * t**4], axis=-1)
    np.testing.assert_allclose(data[:, 1:4], want, rtol=1e-9, atol=1e-12)


def test_monodromy_json(tmp_path):
    out = tmp_path / "m.json"
    assert entry(["monodromy", "--preset", "torus-knot",
                  "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    angle = payload["angle"]
    total = payload["total_curvature"]
    assert abs(math.remainder(angle - total, 2.0 * math.pi)) < 1e-9
    assert abs(payload["angle_mod_2pi"] - 1.1415490290361454) < 1e-6


def test_torsion_zero_curve_exits_3(capsys):
    assert entry(["evolute", "--preset", "fig8"]) == 3
    err = capsys.readouterr().err
    assert "degenerate geometry" in err
    assert "torsion vanishes at t≈0.7853981" in err


def test_cylindrical_pseudo_evolute_exits_3(capsys):
    assert entry(["pseudo-evolute", "--preset", "helix"]) == 3
    assert "degenerate geometry" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["frenet", "--preset", "no-such-curve"],
    ["frenet", "--expr", "cos(, t, t", "--range", "0:1"],
    ["frenet", "--expr", "t, t^2, t^3"],            # missing --range
    ["frenet", "--preset", "helix", "--samples", "8"],
    ["frenet", "--preset", "helix", "--range", "2:1"],
    ["monge-involute", "--preset", "helix"],        # missing --length
    ["report", "--preset", "helix", "--format", "csv"],
    ["frenet", "--preset", "helix", "--range=0:inf"],
    ["frenet", "--preset", "helix", "--range=-1e308:1e308"],
    ["frenet", "--preset", "helix", "--tol", "1e-3"],   # option retired
    ["involute", "--preset", "helix", "--point", "nan:0"],
    ["involute", "--preset", "helix", "--point", "inf:0"],
    ["involute", "--preset", "helix", "--point", "-inf:0"],
    ["involute", "--preset", "helix", "--point", "-NaN:0"],
    ["frenet", "--preset", "helix", "--range", "-inf:1"],
    ["frenet", "--preset", "helix", "--range", "-Infinity:1"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert "Warning" not in err
    if "--point" in argv:
        assert "--point coordinates must be finite" in err
    if "--range" in argv and argv[argv.index("--range") + 1].startswith("-"):
        assert "--range bounds and width must be finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "nan"], "--alpha0"),
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "inf"], "--alpha0"),
    (["monge-involute", "--preset", "helix", "--length", "nan"], "--length"),
    (["monge-involute", "--preset", "helix", "--length", "inf"], "--length"),
    (["report", "--preset", "helix", "--delta", "nan"], "--delta"),
    (["developable", "--preset", "helix", "--ruling-extent", "0:inf"],
     "--ruling-extent"),
    (["developable", "--preset", "helix", "--ruling-extent", "nan"],
     "--ruling-extent"),
    (["develop", "--preset", "helix", "--svg-scale", "inf"], "--svg-scale"),
    (["develop", "--preset", "helix", "--svg-scale", "0"], "--svg-scale"),
    (["develop", "--preset", "helix", "--svg-scale", "-1"], "--svg-scale"),
    # a negative non-finite value follows its option without '='
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "-inf"], "--alpha0"),
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "-INF"], "--alpha0"),
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "-Infinity"],
     "--alpha0"),
    (["monge-evolute", "--preset", "torus-knot", "--alpha0", "-nan"], "--alpha0"),
    (["monge-involute", "--preset", "helix", "--length", "-NaN"], "--length"),
    # checked before any array is allocated
    (["evolute", "--preset", "helix", "--samples", "4194305"], "--samples"),
    (["evolute", "--preset", "helix", "--samples", "100000000000"],
     "--samples"),
    # finite and positive, but the scaled drawing overflows
    (["evolute", "--preset", "torus-knot", "--format", "svg",
      "--svg-scale", "1e308"], "--svg-scale"),
    (["pseudo-evolute", "--preset", "fig8", "--format", "svg",
      "--svg-scale", "1e300"], "--svg-scale"),
])
def test_unusable_numbers_exit_2_naming_the_option(argv, flag, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    assert entry(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} must be")
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, check", [
    (["evolute", "--expr", "cos(t),sin(t),0"], "EPS_TAU"),
    (["evolute", "--expr", "t,2*t,3*t"], "EPS_K"),
    (["pseudo-evolute", "--expr", "t,2*t,3*t"], "EPS_K"),
    (["monge-evolute", "--expr", "t,2*t,3*t"], "EPS_K"),
    (["monge-evolute", "--expr", "cos(t),sin(t),0"], "k cos(alpha) is constant"),
    # exp(t)^1000 overflows past t = 0.709
    (["frenet", "--expr", "exp(t)^1000,t,t^2"], "curve point is not finite at t≈0.7"),
    # finite, but the error norm overflows and rejects every step
    (["involute", "--preset", "helix", "--point", "1e300:0"],
     "involute integration failed at t≈"),
])
def test_degenerate_curves_exit_3(argv, check, tmp_path, capsys):
    out = tmp_path / "deg.csv"
    assert entry(argv + ["--range", "0:1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "degenerate geometry" in err and check in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pseudo-evolute", "--expr", "cos(t),sin(t),0.01*sin(400*t)",
     "--range", "0:6"],
    # 637 cusps of the Monge evolute
    ["monge-evolute", "--ktau", "2+sin(200*t);cos(300*t)", "--range", "0:10"],
])
def test_cuts_that_leave_no_branch_exit_3(argv, tmp_path, capsys):
    # every branch between the cuts is narrower than twice its margin
    out = tmp_path / "out.csv"
    assert entry(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"degenerate geometry: \d+ cuts leave no branch"
                        r" outside their margins of \S+ at t≈\S+\n", err)
    assert not out.exists()


def test_domain_error_names_the_parameter(capsys):
    # the root scans' grid of (-1, 1) holds t = 0, where 1/t has its pole
    assert entry(["evolute", "--expr", "t,1/t,t^2", "--range", "-1:1"]) == 2
    err = capsys.readouterr().err
    assert "division by zero at t=0" in err


def test_zero_base_below_its_exponent_has_a_frame(tmp_path):
    # the frame needs derivatives up to order 4 < 4.5, all 0 at t = 0
    out = tmp_path / "frame.csv"
    assert entry(["frenet", "--expr", "t,t^2,t^4.5", "--range", "0:1",
                  "--out", str(out)]) == 0
    assert out.read_text().count("\n") > 1


def test_report_on_a_straight_line(tmp_path):
    out = tmp_path / "line.json"
    assert entry(["report", "--expr", "t,2*t,3*t", "--range", "0:1",
                  "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["curvature_range"] == [0.0, 0.0]
    assert payload["torsion_range"] is None
    assert payload["evolute"]["defined"] is False
    assert "EPS_K" in payload["evolute"]["reason"]
    assert "EPS_K" in payload["pseudo_evolute"]["reason"]
    assert "error" in payload["total_torsion"]


def test_huge_range_does_not_overflow(capsys):
    assert entry(["frenet", "--preset", "helix", "--range", "0:1e308",
                  "--samples", "16"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 17


def test_frenet_stdout_csv(capsys):
    assert entry(["frenet", "--preset", "helix", "--samples", "16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,y,z,k,tau,sigma"
    row = [float(x) for x in lines[1].split(",")]
    assert abs(row[4] - 0.5) < 1e-12 and abs(row[5] - 0.5) < 1e-12


def _fail_to_allocate(*args, **kwargs):
    raise MemoryError


def _fail_after_one_piece(*args, **kwargs):
    yield "t,x,y,z\n"
    raise MemoryError


@pytest.mark.parametrize("target, stub", [
    ("FrenetEval", _fail_to_allocate),        # before any output
    ("render_csv", _fail_after_one_piece)])   # while --out is written
def test_an_allocation_failure_exits_1_and_leaves_out_as_it_was(
        target, stub, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, target, stub)
    out = tmp_path / "f.csv"
    out.write_text("kept\n")
    assert entry(["frenet", "--preset", "helix", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "resource error: out of memory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
    assert out.read_text() == "kept\n"


def test_frenet_passes_keep_the_bytes_of_one_evaluation(tmp_path, capsys):
    # three passes of FrenetEval (4096, 4096 and 1808 parameters) and 17
    # blocks of 585 rows, the last one short: the file and standard output
    # are the rows of one FrenetEval on the whole grid, written by repr
    argv = ["frenet", "--preset", "torus-knot", "--samples", "10000"]
    out = tmp_path / "knot.csv"
    assert entry(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert entry(argv) == 0
    curve = preset("torus-knot")
    ts = np.concatenate(branch_grids(curve.domain, curve.cusps, 10000))
    fe = FrenetEval(curve, ts, order=4)
    table = np.column_stack([ts, fe.x[0], fe.k[0], fe.tau[0], fe.sigma[0]])
    want = "t,x,y,z,k,tau,sigma\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in table.tolist())
    assert out.read_text() == want
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command, bound_mb", [("frenet", 12), ("evolute", 8)])
def test_dense_commands_peak_below_their_bounds(command, bound_mb, tmp_path):
    # the traced peak grows with the output columns, 8 bytes a number, plus
    # one pass of jets and one block of text: 7.6 MB for frenet and 5.8 MB
    # for evolute in a fresh process (numpy 2.4, Python 3.11), where
    # writing whole tables took 44.3 and 14.3 MB
    argv = [command, "--preset", "torus-knot", "--samples", "65536",
            "--out", str(tmp_path / "knot.csv")]
    tracemalloc.start()
    try:
        assert entry(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20


def test_range_flag_accepts_negative_bounds(capsys):
    assert entry(["frenet", "--expr", "t, t^2, 1 + t", "--range", "-1:1",
                  "--samples", "16"]) == 0
    capsys.readouterr()
    assert entry(["frenet", "--expr", "t, t^2, 1 + t", "--range=-1:1",
                  "--samples", "16"]) == 0
    capsys.readouterr()


def test_expression_curve_and_ktau_sources(tmp_path):
    out = tmp_path / "c.csv"
    assert entry(["evolute", "--expr", "2*cos(t), sin(t), t/2",
                  "--range", "0:6.283185307179586", "--samples", "64",
                  "--out", str(out)]) == 0
    assert len(_csv(out)) > 0
    assert entry(["frenet", "--ktau", "0.5;0.5", "--range", "0:6",
                  "--samples", "32", "--out", str(out)]) == 0
    data = _csv(out)
    np.testing.assert_allclose(data[:, 4], 0.5, atol=1e-8)


def test_pseudo_evolute_svg_branches(tmp_path):
    out = tmp_path / "p.svg"
    assert entry(["pseudo-evolute", "--preset", "fig8",
                  "--out", str(out)]) == 0
    text = out.read_text()
    # 4 escapes and 12 cusps cut one period into 16 visible branches
    assert text.count("<path ") == 16


def _one_call_per_branch(point, grids):
    """The CSV of each branch's finite rows, one point call per branch."""
    pts = [point(ts) for ts in grids]
    good = [np.isfinite(p).all(axis=-1) for p in pts]
    return "".join(render_csv(
        np.concatenate([ts[g] for ts, g in zip(grids, good)]),
        np.concatenate([p[g] for p, g in zip(pts, good)])))


@pytest.mark.parametrize("argv", [
    ["pseudo-evolute", "--preset", "torus-knot"],       # 20 branches
    ["monge-evolute", "--preset", "torus-knot"],        # 17 branches
])
def test_branches_share_one_point_pass(argv, tmp_path, monkeypatch):
    # the command calls point once on all branches; the bytes are those of
    # one call per branch
    calls = []

    def counted(*args):
        verdict = classify(*args)

        def point(ts):
            calls.append(len(ts))
            return verdict.point(ts)
        return dataclasses.replace(verdict, point=point)

    monkeypatch.setattr(cli, "classify", counted)
    out = tmp_path / "c.csv"
    assert entry([*argv, "--out", str(out)]) == 0

    curve = preset("torus-knot")
    verdict = classify(curve, argv[0], 1024, 0.0)
    grids = branch_grids(curve.domain, verdict.cuts, 1024)
    assert len(grids) > 10
    assert calls == [sum(len(ts) for ts in grids)]
    assert out.read_text() == _one_call_per_branch(verdict.point, grids)


def test_branches_that_straddle_passes_keep_their_bytes(tmp_path):
    # 5 branches of 2068 to 4136 points: Curve.point cuts its passes at
    # multiples of _SLICE, inside branches
    curve = preset("elliptical-helix")
    verdict = classify(curve, "evolute", 16384)
    grids = branch_grids(curve.domain, verdict.cuts, 16384)
    sizes = [len(ts) for ts in grids]
    assert len(grids) == 5 and min(sizes) == 2068 and max(sizes) == 4136
    ends = np.cumsum(sizes)
    assert any(lo // _SLICE != (hi - 1) // _SLICE
               for lo, hi in zip(ends - sizes, ends))
    out = tmp_path / "e.csv"
    assert entry(["evolute", "--preset", "elliptical-helix", "--samples",
                  "16384", "--out", str(out)]) == 0
    assert out.read_text() == _one_call_per_branch(verdict.point, grids)


@pytest.mark.xfail(reason=(
    "the seam root of a closed curve is reported once, at a, so the last "
    "grid point b escapes to infinity; kept until the figures reference "
    "is re-recorded"))
@pytest.mark.parametrize("name", ["torus-knot", "fig8"])
def test_closed_pseudo_evolute_is_bounded_at_the_seam(name, tmp_path):
    # the largest |coordinate| away from the seam is 20.1 on the knot and
    # 7.6 on the figure-eight
    out = tmp_path / "p.csv"
    assert entry(["pseudo-evolute", "--preset", name, "--out", str(out)]) == 0
    assert np.max(np.abs(_csv(out)[:, 1:4])) <= 1e3


@pytest.mark.xfail(reason=(
    "the torsion zeros 0.7 +- 1e-4 lie inside one interval of the scan, "
    "so no escape is found and the evolute is drawn through both, out to "
    "7e7"))
def test_close_torsion_zeros_exit_3(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert entry(["evolute", "--ktau", "1+t;(t-0.7)^2-1e-8", "--range",
                  "0:1", "--samples", "4096", "--out", str(out)]) == 3
    assert "at t≈0.6999" in capsys.readouterr().err


@pytest.mark.xfail(reason=(
    "a pole of the curve is not a singularity: the scan's grid point "
    "lands on it and the division by zero exits 2 as a usage error"))
def test_pole_on_the_scan_grid_exits_3(tmp_path):
    assert entry(["evolute", "--expr", "t,1/t,t^2", "--range", "-1:1",
                  "--out", str(tmp_path / "e.csv")]) == 3


@pytest.mark.xfail(reason=(
    "a pole of the curve is not a branch cut: the rows on either side of "
    "it, at t = -0.0008 and 0.0015, are joined"))
def test_pole_inside_the_range_cuts_the_rows(tmp_path):
    # exit 3, or branches cut at the pole: the CSV concatenates branches,
    # so the rows next to t = 0 keep branch_grids' margin from it
    out = tmp_path / "e.csv"
    code = entry(["evolute", "--expr", "t,1/t,t^2", "--range", "-1:1.3",
                  "--samples", "1000", "--out", str(out)])
    if code != 0:
        assert code == 3
        return
    t = _csv(out)[:, 0]
    straddle = np.flatnonzero((t[:-1] < 0.0) & (t[1:] > 0.0))
    margin = 1e-3 * 2.3
    assert np.all(-t[straddle] >= margin) and np.all(t[straddle + 1] >= margin)


@pytest.mark.xfail(reason=(
    "a pole of the curve is not a cut for report: arclength refuses the "
    "interval, but total_curvature (2.595) and total_torsion (2.910) are "
    "integrated across the pole"))
def test_report_across_a_pole_integrates_no_total(tmp_path):
    # exit 3, or every total refused with its reason
    out = tmp_path / "r.json"
    code = entry(["report", "--expr", "t,1/t,t^2", "--range", "-1:1.3",
                  "--out", str(out)])
    if code != 0:
        assert code == 3
        return
    payload = json.loads(out.read_text())
    for key in ("arclength", "total_curvature", "total_torsion",
                "total_absolute_torsion"):
        refused = payload[key]
        assert refused is None or (isinstance(refused, dict) and {
            "error", "reason"} & set(refused)), key


def test_traced_involute_of_a_smooth_wavy_curve(tmp_path):
    # w = tau x' is rounding noise near the torsion zeros; the field table
    # holds each component to its quadrature budget, which that noise meets
    out = tmp_path / "i.csv"
    for span in ("0:2", "0:20"):
        assert entry(["involute", "--expr", "cos(t), sin(t), 0.1*sin(40*t)",
                      "--range", span, "--point", "0.5:0.2",
                      "--out", str(out)]) == 0
        rows = _csv(out)
        assert len(rows) and np.isfinite(rows).all()


def test_traced_involute_of_a_ktau_profile(tmp_path):
    # the base's frame, read from the dense output of its ODE, jumps by up
    # to 5e-13 at step ends (each accepted state is re-orthonormalized), a
    # kink in w = tau x' that the field table resolves to its quadrature
    # budget; the trace's sphere evolute returns the base where its torsion
    # is not small
    out = tmp_path / "i.csv"
    assert entry(["involute", "--ktau", "1+t;1", "--range", "0:2",
                  "--point", "0.3:0.2", "--out", str(out)]) == 0
    rows = _csv(out)
    base = FrenetODECurve("1+t", "1", (0.0, 2.0))
    traced = TracedInvoluteCurve(base, (0.3, 0.2))
    np.testing.assert_array_equal(traced.point(rows[:, 0]), rows[:, 1:4])
    ts = rows[1:-1, 0]
    ts = ts[np.abs(FrenetEval(base, ts, 3).tau[0]) > 1e-2]
    x = base.point(ts)
    rel = (np.linalg.norm(EvoluteCurve(traced).point(ts) - x, axis=-1)
           / np.abs(x).max())
    assert len(ts) > 1000 and np.median(rel) < 1e-10 and rel.max() < 1e-8


def test_developable_obj(tmp_path):
    out = tmp_path / "d.obj"
    assert entry(["developable", "--preset", "torus-knot", "--kind",
                  "tangent", "--samples", "32", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\nv ") + text.startswith("v ") > 0
    assert "f " in text


def test_developable_refuses_a_non_finite_vertex(tmp_path, capsys):
    out = tmp_path / "d.obj"
    assert entry(["developable", "--expr", "exp(t)^1000,t,t^2", "--range",
                  "0:1", "--out", str(out)]) == 3
    assert "patch vertex is not finite at t≈0.7" in capsys.readouterr().err
    assert not out.exists()


def test_develop_and_involute(tmp_path, capsys):
    svg = tmp_path / "dev.svg"
    assert entry(["develop", "--preset", "torus-knot",
                  "--out", str(svg)]) == 0
    assert "<path " in svg.read_text()
    out = tmp_path / "inv.csv"
    assert entry(["involute", "--preset", "torus-knot",
                  "--out", str(out)]) == 0
    data = _csv(out)
    gap = np.linalg.norm(data[0, 1:4] - data[-1, 1:4])
    assert gap < 1e-4


def test_involute_failure_names_the_parameter(tmp_path, capsys):
    # a planar curve whose |x' x x''| is least near t = 0.598: the rolling
    # rate tau is rounding noise there and its table never resolves
    out = tmp_path / "inv.csv"
    assert entry(["involute", "--expr", "cos(3*t), sin(t), cos(3*t)+ 2*sin(t)",
                  "--range", "0.5:2", "--point", "0.5:0.2",
                  "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "failed on [0.5, 2] at t≈0.59" in err
    assert not out.exists()


@pytest.mark.parametrize("source, check", [
    (["--preset", "cusp-curve"], "curve has a cusp at t≈0"),
    (["--expr", "t,2*t,3*t"], "curvature vanishes at t≈0"),
])
def test_involute_refuses_a_degenerate_start(source, check, tmp_path, capsys):
    # --point is read in the frame (T, N) at the start of the range, which
    # a cusp or a vanishing curvature there leaves undefined
    out = tmp_path / "inv.csv"
    assert entry(["involute", *source, "--range", "0:1", "--point", "0.5:0.2",
                  "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "degenerate geometry" in err and check in err
    assert not out.exists()


def test_monge_involute_rows_are_the_curve(tmp_path):
    out = tmp_path / "mi.csv"
    assert entry(["monge-involute", "--preset", "helix", "--length", "10",
                  "--out", str(out)]) == 0
    data = _csv(out)
    want = MongeInvoluteCurve(preset("helix"), 10.0).point(data[:, 0])
    np.testing.assert_array_equal(data[:, 1:4], want)


def test_signed_monge_involute_skips_the_cusp(tmp_path):
    out = tmp_path / "mi.csv"
    assert entry(["monge-involute", "--preset", "cusp-curve", "--length", "1",
                  "--signed", "--out", str(out)]) == 0
    data = _csv(out)
    assert np.isfinite(data).all()
    # branch_grids keeps 1e-3 of the width of (-1, 1) clear of the cusp at 0
    assert np.abs(data[:, 0]).min() >= 2e-3 - 1e-12


def test_report_degrades_gracefully(tmp_path):
    out = tmp_path / "r.json"
    assert entry(["report", "--preset", "fig8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["evolute"]["defined"] is False
    assert entry(["report", "--preset", "spherical",
                  "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["evolute"]["spherical"] is True


def test_cli_is_deterministic(tmp_path):
    args = ["report", "--preset", "torus-knot", "--samples", "128"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert entry(args + ["--out", str(a)]) == 0
    assert entry(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    pytest.param(["evolute", "--preset", "helix"], id="evolute-preset"),
    pytest.param(["evolute", "--ktau", "1/sqrt(t);1/sqrt(t)",
                  "--range", "1:16"], id="evolute-ktau"),
    pytest.param(["involute", "--preset", "torus-knot"], id="involute-closed"),
])
def test_no_command_imports_scipy(argv, tmp_path):
    # the package integrates its ODEs with its own DOP853, so a fresh
    # process never pays for importing scipy
    script = (
        "import sys\n"
        "from evolutes.cli import entry\n"
        f"code = entry({argv + ['--out', str(tmp_path / 'out.csv')]!r})\n"
        "print(code, [m for m in sys.modules if m.startswith('scipy')])\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "[]"]
