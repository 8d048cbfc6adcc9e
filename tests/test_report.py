"""Structured curve reports.

The report's totals are checked against one table per key on the presets
and on the first shapes of the benchmark's unfiltered draw
(``perfbench/workloads.py``, ``_draw`` with degenerate shapes kept).
``check_report_totals`` runs that check on any number of shapes:

    PYTHONPATH=src:tests python -c 'import test_report as t; t.check_report_totals(120)'
"""
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from evolutes import preset
from evolutes.catalog import preset_names
from evolutes.classify import probe_grid
from evolutes.cli import entry
from evolutes.curves import ExprCurve
from evolutes.errors import GeometryError
from evolutes.exporters import render_json
from evolutes.frenet import ArclengthMap, FrenetEval
from evolutes.quadrature import CumulativeIntegral
from evolutes.report import (_circles_block, curve_report,
                             identity_residuals, monodromy_block)
from test_classify import _shape_curve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

TOTALS = ("arclength", "total_curvature", "total_torsion")
WEIGHTS = (None, lambda fe: fe.k, lambda fe: fe.tau)


def test_identity_residuals_small_on_generic_curve(knot):
    res = identity_residuals(knot, knot.grid(128))
    assert set(res) == {"tangent_alignment", "sphere_rate",
                        "determinant_identity"}
    assert all(v < 1e-9 for v in res.values())


@pytest.mark.parametrize("name", preset_names())
def test_report_residuals_share_the_probe_grid_jets(name):
    # curve_report reads the residuals from the FrenetEval of its invariants
    curve = preset(name)
    assert curve_report(curve)["residuals"] == identity_residuals(
        curve, probe_grid(curve, 1024))


def test_report_shape_and_serializability(knot):
    rep = curve_report(knot, samples=256)
    assert rep["closed"] is True
    assert rep["evolute"]["defined"] is True
    assert rep["evolute"]["cusps"] == []
    assert len(rep["pseudo_evolute"]["cusps"]) > 0
    assert abs(rep["monodromy"]["angle"] - rep["total_curvature"]) < 1e-9
    # every report must serialize without nan leakage
    payload = render_json(rep)
    assert json.loads(payload) == rep


def test_report_on_open_curve_omits_monodromy(cusp_curve):
    rep = curve_report(cusp_curve, samples=256)
    assert rep["closed"] is False
    assert "monodromy" not in rep
    # sigma has no roots here: the evolute's only cusp is inherited from
    # the cusp of the base curve, which is excluded from the grid
    assert rep["evolute"]["defined"] is True


def test_monodromy_of_a_circle_has_no_fixed_point():
    # rolling a plane circle back to its start turns the plane by 2 pi:
    # the identity, under which every point is fixed
    circle = ExprCurve("cos(t), sin(t), 0", (0.0, 2 * np.pi), closed=True)
    block = monodromy_block(circle)
    assert block["fixed_point"] is None
    assert block["degeneracy"] == "every point is fixed"
    assert json.loads(render_json(block)) == block


def test_report_marks_cylindrical_pseudo_evolute(helix):
    rep = curve_report(helix, samples=128)
    assert rep["pseudo_evolute"]["cylindrical"] is True
    assert rep["evolute"]["defined"] is True


def test_closed_curve_report_builds_two_tables(knot, monkeypatch):
    # one table of arclength, k (total curvature and the monodromy angle)
    # and tau (total torsion, its variation the total absolute torsion, and
    # the Monge closing test), and the developed position
    built = []
    init = CumulativeIntegral.__init__

    def counting(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(CumulativeIntegral, "__init__", counting)
    curve_report(knot)
    assert built == ["ArclengthMap", "CumulativeIntegral"]


@pytest.mark.parametrize("name", preset_names())
def test_report_makes_one_frenet_eval_per_round_for_its_totals(
        name, monkeypatch):
    # a table of one weight makes one FrenetEval per refinement round; the
    # report's one table makes as many as the deepest of the three, where
    # the three tables made their sum
    curve = preset(name)
    orders = []

    def counted(curve, t, order=4):
        orders.append(order)
        return FrenetEval(curve, t, order)

    monkeypatch.setattr("evolutes.frenet.FrenetEval", counted)
    rounds = []
    for weight in WEIGHTS:
        orders.clear()
        ArclengthMap(curve, weight)
        rounds.append(len(orders))
    orders.clear()
    curve_report(curve)
    assert orders == [3] * max(rounds)
    assert max(rounds) < sum(rounds)


def _outcome(fn):
    """fn's value, or the exception it raises."""
    try:
        return fn()
    except (GeometryError, ValueError) as exc:
        return exc


def check_report_totals(shapes: int) -> int:
    """Compare the totals of a report with those of one table per key on
    the presets and the first ``shapes`` draws: each key has the outcome of
    its own table, the same error or a value within 1e-14 relative (within
    1e-12 of the arc length where it is 0 in exact arithmetic).  Return how
    many keys failed."""
    rng = random.Random(0)
    curves = [preset(name) for name in preset_names()] + [
        _shape_curve(workloads._draw(rng, i, degenerate=True))
        for i in range(shapes)]
    failed = 0
    for index, curve in enumerate(curves):
        want = {}
        for key, weight in zip(TOTALS, WEIGHTS):
            table = _outcome(lambda: ArclengthMap(curve, weight))
            want[key] = table if isinstance(table, Exception) else _outcome(
                lambda: table.total)
            if weight is WEIGHTS[2]:
                want["total_absolute_torsion"] = (
                    table if isinstance(table, Exception)
                    else _outcome(lambda: table.variation))
        scale = want["arclength"]
        scale = 1.0 if isinstance(scale, Exception) else max(scale, 1.0)
        report = curve_report(curve, samples=64)
        for key, value in want.items():
            got = report[key]
            if isinstance(value, Exception):
                failed += 1
                assert got == {"error": str(value)}, (index, key)
            else:
                assert abs(got - value) <= max(1e-14 * abs(value),
                                               1e-12 * scale), (index, key)
    return failed


def test_report_totals_keep_each_key_s_outcome():
    # 11 keys of 5 curves fail, among them the k and tau keys of a curve
    # whose arc length is found: each keeps its own table's error
    assert check_report_totals(40) == 11


def test_circle_block_evaluates_the_curve_twice(monkeypatch):
    # one regular_eval over the 31 probes and one FrenetEval over their 62
    # neighbours
    knot = preset("torus-knot")
    derivatives = knot.derivatives
    calls = []

    def counting(ts, order):
        calls.append(np.size(ts))
        return derivatives(ts, order)

    monkeypatch.setattr(knot, "derivatives", counting)
    block = _circles_block(knot, 0.01)
    assert block == {"delta": 0.01, "checked": 31, "all_disjoint": True}
    assert calls == [31, 62]


@pytest.mark.parametrize("delta, block", [
    ("0.01", {"error": "curve has a cusp at t≈0"}),
    ("0", {"delta": 0.0, "checked": 31, "all_disjoint": True}),
])
def test_circle_block_on_a_cusped_curve(tmp_path, delta, block):
    # a probe lands on the cusp at t = 0; delta = 0 evaluates nothing
    out = tmp_path / "report.json"
    assert entry(["report", "--preset", "cusp-curve", "--delta", delta,
                  "--out", str(out)]) == 0
    assert json.loads(out.read_text())["osculating_circles"] == block
