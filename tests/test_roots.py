"""Root scanning: a grid scan, regula falsi rounds, pole rejection,
closed-curve seams, and several scan functions sharing one search."""
import math

import numpy as np
import pytest

from evolutes import FrenetEval
from evolutes.roots import _ROUNDS, find_roots


def _counted(f):
    calls = []

    def counted(t):
        calls.append(len(t))
        return f(t)
    return counted, calls


def test_sine_roots():
    calls = []

    def f(t):
        calls.append(len(t))
        return np.sin(t)

    roots = find_roots(f, 0.5, 10.0)
    want = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(roots) == len(want)
    np.testing.assert_allclose(roots, want, atol=1e-9)
    # the scan and at most 4 rounds: simple roots close superlinearly
    assert len(calls) <= 5


def test_endpoint_root_kept_once():
    roots = find_roots(np.sin, 0.0, 10.0)
    assert abs(roots[0]) < 1e-9
    assert len(roots) == 4


def test_poles_are_not_roots():
    # tan has a sign change at pi/2 that is a pole, plus no true root in (0.5, 3)
    f, calls = _counted(np.tan)
    roots = find_roots(f, 0.5, 3.0)
    assert len(roots) == 0
    assert len(calls) <= 1 + _ROUNDS


def test_rounding_noise_root_closes_within_the_cap(fig8):
    # sigma = r tau + (r'/tau)' is 0/0 where the torsion of fig8 vanishes,
    # at pi/4 + k pi/2; about those points its computed values are rounding
    # noise, and the regula falsi estimate sits within an ulp of an end
    f, calls = _counted(lambda t: FrenetEval(fig8, t, order=4).sigma[0])
    roots = find_roots(f, *fig8.domain)
    want = (np.arange(4) + 0.5) * math.pi / 2
    np.testing.assert_allclose(roots, want, atol=2e-6)
    assert len(calls) < 1 + _ROUNDS          # closed before the cap


def test_rows_share_one_search():
    rows = (np.sin, np.tan, lambda t: np.cos(t ** -2.0))

    def both(t):
        return np.stack([row(t) for row in rows])

    f, calls = _counted(both)
    found = find_roots(f, 0.3, 7.0)
    assert isinstance(found, tuple) and len(found) == len(rows)
    alone = []
    for row, roots in zip(rows, found):
        g, row_calls = _counted(row)
        np.testing.assert_array_equal(roots, find_roots(g, 0.3, 7.0))
        alone.append(len(row_calls))
    # one call per round for all rows: as many as the slowest row needs
    assert len(calls) == max(alone)
    period = 2 * math.pi
    closed = find_roots(lambda t: np.stack([np.sin(t), np.cos(t)]),
                        0.0, period, closed=True)
    np.testing.assert_allclose(closed[0], [0.0, math.pi], atol=1e-9)
    np.testing.assert_allclose(closed[1], [math.pi / 2, 1.5 * math.pi],
                               atol=1e-9)


def test_closed_seam_root_found_once():
    period = 2 * math.pi
    for f in (
        np.sin,     # root exactly at the seam 0 ~ 2pi, and at pi
        # f(0) > 0 > f(2pi): the seam straddles zero between two intervals
        # that do not change sign
        lambda t: np.sin(t) + np.where(t < 1.0, 1e-20, -1e-20),
    ):
        roots = find_roots(f, 0.0, period, closed=True)
        # a seam root may be reported at either end
        on_circle = np.sort(np.mod(roots + 1.0, period) - 1.0)
        np.testing.assert_allclose(on_circle, [0.0, math.pi], atol=1e-9)


def test_tight_cluster_resolved():
    def f(t):
        return (t - 1.0) * (t - 1.01) * (t - 2.5)

    roots = find_roots(f, 0.0, 3.0)
    np.testing.assert_allclose(roots, [1.0, 1.01, 2.5], atol=1e-9)


@pytest.mark.xfail(reason=(
    "both roots lie inside one scan interval, at whose ends f has one "
    "sign, so the scan steps over the pair and returns none"))
def test_close_pair_inside_one_scan_interval():
    roots = find_roots(lambda t: (t - 0.7) ** 2 - 1e-8, 0.0, 1.0)
    np.testing.assert_allclose(roots, [0.7 - 1e-4, 0.7 + 1e-4], atol=1e-9)


def test_oscillation_gives_one_root_per_scan_bracket():
    # near t = 0.02 cos(t^-2) turns faster than the scan samples it; each
    # bracket still yields one root, and brackets never multiply
    def f(t):
        return np.cos(t ** -2.0)

    roots = find_roots(f, 0.02, 1.0)
    assert len(roots) == 122
    assert np.max(np.abs(f(roots))) <= 1e-9
