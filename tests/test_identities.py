"""The paper's inverse pairs as oracles on generated curves.

The shapes are the first 40 of the benchmark's unfiltered draw
(``perfbench/workloads.py``, ``_draw`` with degenerate shapes kept), built
as library curves: expression triples and curvature/torsion profiles,
planar and nearly planar ones among them.
"""
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from evolutes.curves import ExprCurve, FrenetODECurve
from evolutes.errors import GeometryError
from evolutes.evolute import EvoluteCurve
from evolutes.frenet import FrenetEval
from evolutes.rolling import TracedInvoluteCurve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SHAPES = 40


def _curve(twin):
    texts = [workloads._text(tree, "t") for tree in twin.trees]
    if twin.kind == "expr":
        return ExprCurve(", ".join(texts), twin.domain)
    return FrenetODECurve(*texts, twin.domain)


@pytest.fixture(scope="module")
def shapes():
    rng = random.Random(0)
    return [workloads._draw(rng, i, degenerate=True) for i in range(SHAPES)]


def test_evolute_of_the_traced_involute_is_the_base(shapes):
    # Each trace of the rolling-plane point (0.3, 0.2) either is refused
    # with a GeometryError that names t, or its sphere evolute returns the
    # base, away from the base's torsion zeros and the poles of sigma.  On
    # a planar base the torsion is 0 and the trace a fixed point: no grid
    # point is left, and the shape must be planar.
    traced, checked = 0, 0
    for index, twin in enumerate(shapes):
        base = _curve(twin)
        try:
            inv = TracedInvoluteCurve(base, (0.3, 0.2))
        except GeometryError as err:
            assert err.t is not None, (index, str(err))
            continue
        traced += 1
        ts = np.linspace(*twin.domain, 256)[1:-1]
        fe = FrenetEval(base, ts, 4)
        ts = ts[(np.abs(fe.tau[0]) > 1e-2) & np.isfinite(fe.sigma[0])]
        if not len(ts):
            assert twin.planar(), index
            continue
        checked += 1
        x = base.point(ts)
        rel = (np.linalg.norm(EvoluteCurve(inv).point(ts) - x, axis=-1)
               / np.abs(x).max())
        assert np.median(rel) <= 1e-9, (index, np.median(rel))
    # 2 planar shapes whose torsion is rounding noise are refused by the
    # field table, 3 by a cusp or a flat point at the start; 12 of the 35
    # traces are fixed points of planar bases
    assert (traced, checked) == (35, 23)
