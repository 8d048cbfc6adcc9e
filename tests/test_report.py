"""Structured curve reports."""
import json

from evolutes.exporters import render_json
from evolutes.quadrature import CumulativeIntegral
from evolutes.report import curve_report, identity_residuals


def test_identity_residuals_small_on_generic_curve(knot):
    res = identity_residuals(knot, knot.grid(128))
    assert set(res) == {"tangent_alignment", "sphere_rate",
                        "determinant_identity"}
    assert all(v < 1e-9 for v in res.values())


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


def test_closed_curve_report_builds_five_tables(knot, monkeypatch):
    # arclength, k (total curvature and the monodromy angle), tau (total
    # torsion and the Monge closing test), |tau| and the developed position
    built = []
    init = CumulativeIntegral.__init__

    def counting(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(CumulativeIntegral, "__init__", counting)
    curve_report(knot)
    assert len(built) == 5
