"""The package's DOP853 against scipy's, the code it ports, its refusal of
values that are not finite, and its one coefficient call per step."""
import numpy as np
import pytest

from evolutes import FrenetODECurve, closed_involute, dop853, preset
from evolutes.curves import _frame_rhs, _reorthonormalize
from evolutes.dop853 import integrate
from evolutes.errors import IntegrationFailure
from evolutes.expr import jets
from evolutes.rolling import _trace_rhs


def _frame():
    curve = FrenetODECurve("1/sqrt(t)", "1/sqrt(t)", (1.0, 16.0))

    def ktau(ts):
        return jets((curve.k_expr, curve.tau_expr), ts, 0)[0]

    return curve, ktau, _frame_rhs, _reorthonormalize


def _closed_involute():
    curve = closed_involute(preset("torus-knot"))
    return curve, curve._rolling, _trace_rhs, None


@pytest.mark.parametrize("build", [_frame, _closed_involute],
                         ids=["ktau-frame", "closed-involute"])
def test_steps_and_states_match_scipy(build):
    # scipy asks for one time at a time: a one-element coefficient call
    scipy_integrate = pytest.importorskip("scipy.integrate")
    curve, coefficients, rhs, project = build()

    def fun(t, y):
        return rhs(coefficients(np.array([t]))[0], y)

    a, b = curve.domain
    y0 = curve._segments.y_old[0]
    solver = scipy_integrate.DOP853(fun, a, y0.copy(), b,
                                    rtol=1e-11, atol=1e-11)
    segments = []
    while solver.status == "running":
        assert solver.step() is None
        segments.append(solver.dense_output())
        if project is not None:
            project(solver.y)
            solver.f = solver.fun(solver.t, solver.y)

    dense = curve._segments
    assert len(dense) == len(segments)
    ends = np.append(dense.t_old[1:], b)
    np.testing.assert_array_equal(ends, [s.t for s in segments])

    t = np.linspace(a, b, 1000)
    j = np.searchsorted(ends, t, side="left")
    want = np.array([segments[i](x) for i, x in zip(j, t)])
    got = curve._segments(t)
    np.testing.assert_allclose(got, want, rtol=1e-15,
                               atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("build", [
    lambda: FrenetODECurve("1/sqrt(t)", "1/sqrt(t)", (1.0, 16.0)),
    lambda: closed_involute(preset("torus-knot")),
], ids=["ktau-frame", "closed-involute"])
def test_one_coefficient_call_per_attempted_step(build, monkeypatch):
    # the first derivative and the first-step probe read one parameter;
    # every attempted step then reads its 15 stage times and its end at once
    sizes, norms = [], []

    def counting_integrate(coefficients, rhs, *args, **kwargs):
        def counted(ts):
            sizes.append(len(ts))
            return coefficients(ts)
        return integrate(counted, rhs, *args, **kwargs)

    error_norm = dop853._error_norm

    def recording_error_norm(*args):
        norms.append(error_norm(*args))
        return norms[-1]

    monkeypatch.setattr(dop853, "integrate", counting_integrate)
    monkeypatch.setattr(dop853, "_error_norm", recording_error_norm)
    curve = build()
    rejected = sum(norm >= 1 for norm in norms)
    assert len(norms) - rejected == len(curve._segments)
    assert sizes == [1, 1] + [16] * (len(curve._segments) + rejected)


def _time(ts):
    return ts[:, None]


def test_a_start_that_is_not_finite_fails_at_once():
    with pytest.raises(IntegrationFailure, match="test integration failed"
                       " at t≈0.25"):
        integrate(_time, lambda c, y: y, [np.nan], 0.25, 1.0, "test")


def test_a_derivative_that_is_not_finite_fails():
    # its first step size is not a number, which no comparison with the
    # smallest step rejects: without the check the solver never returns
    with pytest.raises(IntegrationFailure, match="at t≈0"):
        integrate(_time, lambda c, y: np.array([np.nan]), [1.0], 0.0, 1.0,
                  "test")


def test_a_stage_that_is_not_finite_fails_naming_its_step():
    # y' = 1 until t = 0.5, then a pole: the step that reaches it fails
    def coefficients(ts):
        return np.where(ts < 0.5, 1.0, np.inf)[:, None]

    with pytest.raises(IntegrationFailure) as info:
        integrate(coefficients, lambda c, y: np.array(c), [0.0], 0.0, 1.0,
                  "test")
    assert 0.0 <= info.value.t < 0.5


def test_more_steps_than_the_cap_fail(monkeypatch):
    # the involute of the point 1e15:0 of the helix takes steps of about
    # 2e-10, hours of them; the cap ends it after 100000 attempted steps
    monkeypatch.setattr("evolutes.dop853.MAX_STEPS", 5)
    with pytest.raises(IntegrationFailure, match="test integration failed"):
        integrate(lambda ts: np.cos(ts)[:, None], lambda c, y: np.array(c),
                  [0.0], 0.0, 50.0, "test")
