"""Structured curve reports."""
import json

import numpy as np
import pytest

from evolutes import preset
from evolutes.catalog import preset_names
from evolutes.classify import probe_grid
from evolutes.cli import entry
from evolutes.exporters import render_json
from evolutes.quadrature import CumulativeIntegral
from evolutes.report import (_circles_block, curve_report,
                             identity_residuals)


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


def test_report_marks_cylindrical_pseudo_evolute(helix):
    rep = curve_report(helix, samples=128)
    assert rep["pseudo_evolute"]["cylindrical"] is True
    assert rep["evolute"]["defined"] is True


def test_closed_curve_report_builds_four_tables(knot, monkeypatch):
    # arclength, k (total curvature and the monodromy angle), tau (total
    # torsion, its variation the total absolute torsion, and the Monge
    # closing test) and the developed position
    built = []
    init = CumulativeIntegral.__init__

    def counting(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(CumulativeIntegral, "__init__", counting)
    curve_report(knot)
    assert len(built) == 4


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
