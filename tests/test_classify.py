"""The singularity classifier: one verdict for the CLI and the report."""
import importlib
import json

import pytest

from evolutes import preset, preset_names
from evolutes.classify import classify
from evolutes.cli import entry
from evolutes.curves import ExprCurve


@pytest.mark.parametrize("name", preset_names())
def test_cli_exit_codes_agree_with_the_report(name, tmp_path, capsys):
    common = ["--preset", name, "--samples", "256"]
    out = tmp_path / "r.json"
    assert entry(["report", *common, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    evolute = entry(["evolute", *common, "--out", str(tmp_path / "e.csv")])
    pseudo = entry(["pseudo-evolute", *common,
                    "--out", str(tmp_path / "p.csv")])
    capsys.readouterr()
    assert evolute == (0 if report["evolute"]["defined"] else 3)
    assert pseudo == (3 if report["pseudo_evolute"]["cylindrical"] else 0)


def test_verdicts_carry_branch_cuts():
    cusp = preset("cusp-curve")
    verdict = classify(cusp, "pseudo-evolute", 512)
    assert verdict.error is None
    assert set(verdict.cuts) == (set(verdict.escapes) | set(verdict.cusps)
                                 | set(cusp.cusps))
    sphere = classify(preset("spherical"), "evolute", 512)
    assert sphere.spherical and sphere.error is None and sphere.cusps == ()


def test_planar_curve_is_not_spherical():
    circle = ExprCurve("cos(t), sin(t), 0", (0.0, 1.0))
    verdict = classify(circle, "evolute", 512)
    assert not verdict.spherical
    assert "EPS_TAU" in str(verdict.error)
    assert verdict.error.t == 0.0


# calls of f one classify makes, at most: the first scan and its rounds
ROOT_CALLS = {
    ("torus-knot", "evolute"): 1, ("torus-knot", "pseudo-evolute"): 6,
    ("torus-knot", "monge-evolute"): 5,
    ("cusp-curve", "evolute"): 1, ("cusp-curve", "pseudo-evolute"): 6,
    ("cusp-curve", "monge-evolute"): 1,
    ("fig8", "evolute"): 10, ("fig8", "pseudo-evolute"): 6,
    ("fig8", "monge-evolute"): 3,
}


@pytest.mark.parametrize("name,construction", sorted(ROOT_CALLS))
def test_one_root_search_per_construction(name, construction, monkeypatch):
    # a work-count gate: counts do not depend on the machine
    searches = []
    for module in ("evolute", "pseudo", "monge"):
        module = importlib.import_module(f"evolutes.{module}")

        def counted(f, *args, _find=module.find_roots, **kw):
            calls = []

            def g(t):
                calls.append(len(t))
                return f(t)
            searches.append(calls)
            return _find(g, *args, **kw)
        monkeypatch.setattr(module, "find_roots", counted)
    classify(preset(name), construction, 512)
    assert len(searches) == 1
    assert len(searches[0]) <= ROOT_CALLS[name, construction]
