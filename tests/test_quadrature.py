"""Cumulative integral tables: totals, values and inverses."""
import math

import numpy as np
import pytest

from evolutes.errors import IntegrationFailure
from evolutes.quadrature import CumulativeIntegral


def test_smooth_integral_to_tolerance():
    got = CumulativeIntegral(lambda t: 4.0 / (1.0 + t * t), 0.0, 1.0).total
    assert abs(got - math.pi) < 1e-11


def test_oscillatory_integral():
    got = CumulativeIntegral(lambda t: np.sin(40.0 * t), 0.0, math.pi).total
    want = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert abs(got - want) < 1e-10


def test_kinked_integrand():
    # |t - 1| is the shape a cusp speed has; bisection isolates the kink
    got = CumulativeIntegral(lambda t: np.abs(t - 1.0), 0.0, 4.0).total
    assert abs(got - 5.0) < 1e-10


def test_divergent_integrand_raises():
    with pytest.raises(IntegrationFailure):
        CumulativeIntegral(lambda t: 1.0 / t, 0.0, 1.0).total


def test_cumulative_matches_closed_form():
    table = CumulativeIntegral(np.cos, 0.0, 2.0)
    ts = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(table(ts), np.sin(ts), atol=1e-11)
    assert abs(table.total - math.sin(2.0)) < 1e-11


def test_cumulative_offset_constant():
    table = CumulativeIntegral(np.cos, 0.0, 2.0, c0=5.0)
    assert abs(float(table(0.0)) - 5.0) < 1e-14
    assert abs(float(table(2.0)) - (5.0 + math.sin(2.0))) < 1e-11


def test_cumulative_inverse_roundtrip():
    # strictly increasing integrands keep the map invertible; the slope of
    # the second comes down to 0.01
    ts = np.linspace(0.0, 6.0, 25)
    for f in (lambda t: 1.0 + 0.5 * np.sin(t),
              lambda t: 1.0 + 0.99 * np.sin(5.0 * t)):
        table = CumulativeIntegral(f, 0.0, 6.0)
        np.testing.assert_allclose(table.inverse(table(ts)), ts, atol=1e-10)


def test_cumulative_table_never_calls_its_integrand():
    calls = []

    def counted(t):
        calls.append(t)
        return 1.0 + 0.5 * np.sin(t)

    table = CumulativeIntegral(counted, 0.0, 6.0)
    built = len(calls)
    ts = np.linspace(-0.5, 6.5, 301)
    table(ts)
    table(2.0)
    table.inverse(table(ts))
    table.inverse(3.0)
    table.variation
    assert len(calls) == built


@pytest.mark.parametrize("f, a, b, want", [
    # zeros inside panels
    (np.sin, 0.0, 10.0, 7.0 + math.cos(10.0)),
    # a jump from one sign to the other at the panel edge t = 0
    (lambda t: np.where(t < 0.0, -1.0 - t * t, 1.0 + t * t), -1.0, 1.0,
     8.0 / 3.0),
    # panels on which f is 0 at every sample, then a kink inside a panel
    (lambda t: np.where(t < 0.0, 0.0, np.sin(3.0 * t)), -1.0, 2.0,
     (3.0 + math.cos(6.0)) / 3.0),
    # a zero on a panel edge
    (lambda t: t - 0.5, 0.0, 1.0, 0.25),
], ids=["zeros-inside-panels", "jump-at-an-edge", "zero-stretch-and-kink",
        "zero-on-an-edge"])
def test_variation_is_the_integral_of_the_absolute_value(f, a, b, want):
    assert abs(CumulativeIntegral(f, a, b).variation - want) <= 1e-12 * want


def test_cumulative_table_is_exact_at_its_edges():
    # a peak at 2.9 makes refinement bisect some of the first 64 panels
    table = CumulativeIntegral(lambda t: 1.0 / (0.01 + (t - 2.9) ** 2),
                               0.0, 6.0)
    assert len(table.edges) > 65
    assert np.array_equal(table(table.edges), table.table)
    assert table(6.0) == table.total
    assert CumulativeIntegral(np.cos, 0.0, 2.0, c0=0.6)(0.0) == 0.6


def test_nan_integrand_stops_at_the_panel_cap():
    # a NaN never meets its error budget; refinement must not grow the
    # panel set until memory runs out
    rounds = []

    def nan(t):
        rounds.append(t)
        return np.full(np.shape(t), np.nan)

    with pytest.raises(IntegrationFailure):
        CumulativeIntegral(nan, 0.0, 1.0).total
    with pytest.raises(IntegrationFailure):
        CumulativeIntegral(nan, 0.0, 1.0)
    assert len(rounds) == 2         # no finite value: one round each

    def half_nan(t):
        return np.where(t < 0.5, np.nan, 1.0)

    with pytest.raises(IntegrationFailure):
        CumulativeIntegral(half_nan, 0.0, 1.0).total


def test_rate_resolves_each_vector_to_its_own_size():
    # two vectors of sizes 1e3 and 1e-3: each component meets the budget of
    # its own integral, so the small one is resolved relative to itself
    def f(t):
        small = 1e-3 * np.stack([np.sin(3 * t), np.cos(t), t], axis=-1)
        large = 1e3 * np.stack([np.cos(t), np.exp(-t), 1 + 0 * t], axis=-1)
        return np.stack([small, large], axis=1)

    rate = CumulativeIntegral(f, 0.0, 4.0).rate
    ts = np.random.default_rng(3).uniform(0.0, 4.0, 200)
    got = rate(ts)
    want = f(ts)
    assert got.shape == (200, 2, 3)
    assert np.abs(got[:, 0] - want[:, 0]).max() < 1e-16
    assert np.abs(got[:, 1] - want[:, 1]).max() < 1e-10


def test_rate_of_a_pole_fails_naming_the_interval():
    # the panels next to the pole never resolve it: bisection stops at the
    # cap on live panels with an error
    calls = []

    def pole(t):
        calls.append(np.size(t))
        return (1.0 / (t - 1.0 / 3.0))[:, None, None]

    with pytest.raises(IntegrationFailure,
                       match=r"quadrature failed on \[0, 1\] at t≈0\.33"):
        CumulativeIntegral(pole, 0.0, 1.0).rate
    assert max(calls) <= 15 * 4096


def test_each_part_of_a_separate_table_is_its_own_table():
    # a smooth component, a peaked one and a pole, from one call of f per
    # round: each part has the panels and the outcome of its own table
    fs = (np.cos, lambda t: 1.0 / (0.01 + (t - 2.9) ** 2),
          lambda t: 1.0 / (t - 1.0 / 3.0))
    calls = []

    def f(t):
        calls.append(np.size(t))
        return np.stack([g(t) for g in fs], axis=-1)

    table = CumulativeIntegral(f, 0.0, 6.0, separate=True)
    rounds = []
    for j, g in enumerate(fs):
        counted = []
        try:
            alone = CumulativeIntegral(
                lambda t, g=g: counted.append(t) or g(t), 0.0, 6.0)
        except IntegrationFailure as exc:
            with pytest.raises(IntegrationFailure) as got:
                table.part(j)
            assert str(got.value) == str(exc) and got.value.t == exc.t
        else:
            part = table.part(j)
            assert np.array_equal(part.edges, alone.edges)
            assert np.array_equal(part.table, alone.table)
            assert part(2.5) == alone(2.5)
        rounds.append(len(counted))
    assert len(calls) == max(rounds) < sum(rounds)
