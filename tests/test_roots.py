"""Root scanning: repeated grid scans, pole rejection, closed-curve seams."""
import math

import numpy as np

from evolutes.roots import find_roots


def test_sine_roots():
    calls = []

    def f(t):
        calls.append(len(t))
        return np.sin(t)

    roots = find_roots(f, 0.5, 10.0)
    want = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(roots) == len(want)
    np.testing.assert_allclose(roots, want, atol=1e-9)
    # the scan, at most 12 rounds over all brackets, one spare
    assert len(calls) <= 2 + 12


def test_endpoint_root_kept_once():
    roots = find_roots(np.sin, 0.0, 10.0)
    assert abs(roots[0]) < 1e-9
    assert len(roots) == 4


def test_poles_are_not_roots():
    # tan has a sign change at pi/2 that is a pole, plus no true root in (0.5, 3)
    roots = find_roots(np.tan, 0.5, 3.0)
    assert len(roots) == 0


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


def test_oscillation_gives_one_root_per_scan_bracket():
    # near t = 0.02 cos(t^-2) turns faster than the scan samples it; each
    # bracket still yields one root, and brackets never multiply
    def f(t):
        return np.cos(t ** -2.0)

    roots = find_roots(f, 0.02, 1.0)
    assert len(roots) == 122
    assert np.max(np.abs(f(roots))) <= 1e-9
