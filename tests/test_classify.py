"""The singularity classifier: one verdict for the CLI and the report.

The joint classification is checked against one call per construction on
the presets and on the first shapes of the benchmark's unfiltered draw
(``perfbench/workloads.py``, ``_draw`` with degenerate shapes kept).
``check_joint_classify`` runs that check on any number of shapes:

    PYTHONPATH=src:tests python -c 'import test_classify as t; t.check_joint_classify(120)'

``check_root_definition`` checks every root those searches keep against
the definition of a root, on the same curves:

    PYTHONPATH=src:tests python -c 'import test_classify as t; t.check_root_definition(120)'
"""
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from evolutes import preset, preset_names
from evolutes.classify import (PROBE_SAMPLES, _classify, classify, is_constant,
                               probe_grid)
from evolutes.cli import entry
from evolutes.curves import ExprCurve, FrenetODECurve
from evolutes.errors import DegenerateCurvature, GeometryError
from evolutes.frenet import FrenetEval
from evolutes.report import curve_report
from evolutes.roots import _ROUNDS, SCAN_SAMPLES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CONSTRUCTIONS = ("evolute", "pseudo-evolute", "monge-evolute")


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
    verdict, = classify(cusp, ("pseudo-evolute",), 512)
    assert verdict.error is None
    assert set(verdict.cuts) == (set(verdict.escapes) | set(verdict.cusps)
                                 | set(cusp.cusps))
    sphere, = classify(preset("spherical"), ("evolute",), 512)
    assert sphere.spherical and sphere.error is None and sphere.cusps == ()


def test_planar_curve_is_not_spherical():
    circle = ExprCurve("cos(t), sin(t), 0", (0.0, 1.0))
    verdict, = classify(circle, ("evolute",), 512)
    assert not verdict.spherical
    assert "EPS_TAU" in str(verdict.error)
    assert verdict.error.t == 0.0


# calls of f one classify makes, at most: the first scan and its rounds
ROOT_CALLS = {
    ("torus-knot", "evolute"): 1, ("torus-knot", "pseudo-evolute"): 4,
    ("torus-knot", "monge-evolute"): 3,
    ("cusp-curve", "evolute"): 1, ("cusp-curve", "pseudo-evolute"): 5,
    ("cusp-curve", "monge-evolute"): 1,
    ("fig8", "evolute"): 10, ("fig8", "pseudo-evolute"): 3,
    ("fig8", "monge-evolute"): 2,
}


def _count_searches(monkeypatch) -> list:
    """Record the calls of f of every root search the package makes: one
    list of their sizes per search, appended as it starts."""
    searches = []
    for name, module in list(sys.modules.items()):
        if (name.startswith("evolutes.") and name != "evolutes.roots"
                and hasattr(module, "find_roots")):
            def counted(f, *args, _find=module.find_roots, **kw):
                calls = []

                def g(t):
                    calls.append(len(t))
                    return f(t)
                searches.append(calls)
                return _find(g, *args, **kw)
            monkeypatch.setattr(module, "find_roots", counted)
    return searches


@pytest.mark.parametrize("name,construction", sorted(ROOT_CALLS))
def test_one_root_search_per_construction(name, construction, monkeypatch):
    # a work-count gate: counts do not depend on the machine
    searches = _count_searches(monkeypatch)
    classify(preset(name), (construction,), 512)
    assert len(searches) == 1
    assert len(searches[0]) <= ROOT_CALLS[name, construction]


@pytest.mark.parametrize("name", ["torus-knot", "cusp-curve", "fig8"])
def test_pseudo_evolute_probe_is_the_only_frenet_eval_before_the_search(
        name, monkeypatch):
    # a work-count gate: the cylindrical check reads tau/k from the probe,
    # so the probe is the only evaluation of the curve before the search
    built, at_search = [], []
    init = FrenetEval.__init__

    def counted_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)
    monkeypatch.setattr(FrenetEval, "__init__", counted_init)
    find = sys.modules["evolutes.classify"].find_roots

    def counted_find(*args, **kw):
        at_search.append(len(built))
        return find(*args, **kw)
    monkeypatch.setattr(sys.modules["evolutes.classify"], "find_roots",
                        counted_find)
    verdict, = classify(preset(name), ("pseudo-evolute",), 512)
    assert verdict.error is None
    assert at_search == [1]


# calls of f one report makes, at most: one search for the evolute and the
# pseudo-evolute together, where two searches took 14, 10, 6, 6, 1 and 5
REPORT_CALLS = {"fig8": 10, "elliptical-helix": 3, "torus-knot": 4,
                "cusp-curve": 5, "helix": 1, "spherical": 3}


@pytest.mark.parametrize("name", preset_names())
def test_report_makes_one_root_search(name, monkeypatch):
    searches = _count_searches(monkeypatch)
    curve_report(preset(name))
    assert len(searches) == 1
    assert len(searches[0]) <= REPORT_CALLS[name]


def _fingerprint(verdict) -> tuple:
    """What a verdict decides, as text that is equal only when the floats
    are equal bit for bit: escapes, cusps, cuts, the flags and the error's
    class, message and t."""
    err = verdict.error
    return (verdict.construction, repr(verdict.escapes), repr(verdict.cusps),
            repr(verdict.cuts), verdict.spherical, verdict.cylindrical,
            verdict.failed, type(err), str(err), repr(getattr(err, "t", None)))


def _shape_curve(twin):
    texts = [workloads._text(tree, "t") for tree in twin.trees]
    if twin.kind == "expr":
        return ExprCurve(", ".join(texts), twin.domain)
    return FrenetODECurve(*texts, twin.domain)


def _cylindrical(curve) -> bool:
    """The reference for the probe's cylindrical check: tau/k constant on
    512 samples of the whole domain, declared cusps kept, from an
    evaluation of its own."""
    ts = curve.grid(513)[:-1] if curve.closed else curve.grid(512)
    fe = FrenetEval(curve, ts, order=3)
    with np.errstate(all="ignore"):
        return is_constant(fe.tau[0] / fe.k[0])


def _curves(shapes: int) -> list:
    """The presets and the first ``shapes`` curves of the unfiltered draw."""
    rng = random.Random(0)
    return [preset(name) for name in preset_names()] + [
        _shape_curve(workloads._draw(rng, i, degenerate=True))
        for i in range(shapes)]


def check_joint_classify(shapes: int, samples: int = 1024) -> int:
    """Classify every construction jointly and one at a time on the presets
    and the first ``shapes`` draws; assert equal fingerprints, and return on
    how many curves the joint pass itself raised (and each construction was
    classified alone).  On every other curve the joint call is handed its
    probe, as ``report`` hands its own.  Every pseudo-evolute verdict that
    neither failed nor found vanishing curvature is cylindrical exactly
    where ``_cylindrical`` says so."""
    retried = 0
    for index, curve in enumerate(_curves(shapes)):
        alone = [_fingerprint(classify(curve, (c,), samples)[0])
                 for c in CONSTRUCTIONS]
        probe = None
        if index % 2:
            try:
                probe = FrenetEval(curve, probe_grid(curve, PROBE_SAMPLES), 4)
            except ValueError:
                pass
        try:
            joint = _classify(curve, CONSTRUCTIONS, samples, 0.0, probe)
        except (GeometryError, ValueError):
            retried += 1
            joint = classify(curve, CONSTRUCTIONS, samples)
        assert [_fingerprint(v) for v in joint] == alone, index
        pseudo = joint[1]
        if not (pseudo.failed
                or isinstance(pseudo.error, DegenerateCurvature)):
            assert pseudo.cylindrical == _cylindrical(curve), index
    return retried


def test_joint_classification_equals_one_call_per_construction():
    # the joint pass raises on 2 of the 46 curves, where the Monge
    # evolute's torsion table fails; the other two verdicts are kept
    assert check_joint_classify(40) == 2


def check_root_definition(shapes: int) -> int:
    """Classify every construction jointly on the presets and the first
    ``shapes`` draws, and check every root kept by a search that closed
    before the cap on rounds against the definition of a root, with no
    oracle: its row is exactly 0 there, or has the other sign one float
    above or below it.  The seam root at a (f(a) against f(b) on a closed
    curve) is exempt.  Return how many roots were checked."""
    module = sys.modules["evolutes.classify"]
    find, signs = module.find_roots, []

    def checked(f, a, b, closed=False):
        calls = []

        def counted(t):
            calls.append(len(t))
            return f(t)
        found = find(counted, a, b, closed=closed)
        kept = [(row, r) for row, roots in enumerate(found)
                for r in roots if not (closed and r == a)]
        if kept and len(calls) <= _ROUNDS:
            r = np.array([r for _, r in kept])
            ts = np.concatenate([r, np.nextafter(r, np.inf),
                                 np.nextafter(r, -np.inf)])
            rows = np.asarray(f(ts)).reshape(len(found), 3, -1)
            for i, (row, t) in enumerate(kept):
                signs.append((row, t, *np.sign(rows[row, :, i])))
        return found
    module.find_roots = checked
    try:
        for curve in _curves(shapes):
            classify(curve, CONSTRUCTIONS, 1024)
    finally:
        module.find_roots = find
    for row, r, at, above, below in signs:
        assert at == 0 or at * above < 0 or at * below < 0, (row, r)
    return len(signs)


def test_every_kept_root_is_a_zero_or_a_sign_change_to_the_next_float():
    # the estimate may move a root only within the floats where its row
    # changes sign
    assert check_root_definition(40) > 0


def test_report_hands_classify_its_probe(monkeypatch):
    # at 256 samples the report's grid is the probe grid, so the first
    # FrenetEval classify builds is the scan's
    sizes = []

    def counted(curve, t, order=4):
        sizes.append(len(t))
        return FrenetEval(curve, t, order)
    # the package exports the function classify under the module's name
    monkeypatch.setattr(sys.modules["evolutes.classify"], "FrenetEval",
                        counted)
    curve_report(preset("torus-knot"), samples=256)
    assert sizes[0] == SCAN_SAMPLES + 1


def test_a_failed_joint_pass_keeps_each_report_key(tmp_path, capsys):
    # the pseudo-evolute's scan reads order 5, where t^4.5 has no derivative
    # at 0; the evolute's reads order 4 and finds its escape there
    out = tmp_path / "r.json"
    assert entry(["report", "--expr", "t,t^2,t^4.5", "--range", "0:1",
                  "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["evolute"] == {"defined": False, "escapes": [0.0],
                                 "reason": "torsion vanishes at t≈0"}
    assert report["pseudo_evolute"] == {"error": (
        "non-integer power of zero has no derivative of order 5 at t=0")}


def test_an_unknown_construction_is_refused():
    with pytest.raises(ValueError, match="unknown construction 'involute'"):
        classify(preset("helix"), ("evolute", "involute"), 256)


def test_no_finite_value_is_not_constant():
    assert not is_constant(np.array([np.nan, np.inf, -np.inf]))
    assert not is_constant(np.empty(0))
    assert is_constant(np.array([np.nan, 2.0, 2.0]))


_PLANAR_NOISE = (1, 14, 57, 74, 86, 101)


def _shape(index):
    rng = random.Random(0)
    for i in range(index + 1):
        twin = workloads._draw(rng, i, degenerate=True)
    return twin


def _shape_argv(index):
    """The source and range of one expression shape of the unfiltered draw."""
    twin = _shape(index)
    texts = [workloads._text(tree, "t") for tree in twin.trees]
    return ["--expr", ", ".join(texts),
            "--range", f"{twin.domain[0]}:{twin.domain[1]}"]


def test_the_shapes_below_are_planar_expression_curves():
    for index in _PLANAR_NOISE:
        twin = _shape(index)
        assert twin.kind == "expr" and twin.planar(), index


@pytest.mark.xfail(reason=(
    "planar shapes whose torsion is rounding noise: noise has no constant "
    "tau/k, so the pseudo-evolute is not called cylindrical, and its rows, "
    "some of them not finite, are refused instead"))
@pytest.mark.parametrize("index", _PLANAR_NOISE)
def test_a_planar_shape_has_a_cylindrical_pseudo_evolute(index, tmp_path,
                                                         capsys):
    assert entry(["pseudo-evolute", *_shape_argv(index), "--samples", "256",
                  "--out", str(tmp_path / "p.csv")]) == 3
    assert "cylindrical" in capsys.readouterr().err


@pytest.mark.xfail(reason=(
    "shape 1 is planar: at 256 samples the probe finds |tau| <= EPS_TAU "
    "everywhere and says so; at 512 one probe point of rounding noise is "
    "above it, and the search reports an escape at t≈0.991 instead"))
def test_the_planar_verdict_does_not_depend_on_samples(tmp_path, capsys):
    errs = []
    for samples in ("256", "512"):
        assert entry(["evolute", *_shape_argv(1), "--samples", samples,
                      "--out", str(tmp_path / "e.csv")]) == 3
        errs.append(capsys.readouterr().err)
    assert "planar curve" in errs[0]
    assert errs[1] == errs[0]
