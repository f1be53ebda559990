"""Planar front speed checks against closed-form and collocation oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst
from scipy.integrate import solve_bvp

from frontlab.errors import ConfigurationError, NumericalError
from frontlab.laminar import (
    _classify_shot,
    _OVERSHOOT,
    ReactionModel,
    laminar_speed,
    profile_eval,
)


def step_speed(theta0, amplitude=1.0):
    # C1 matching of the two exponential branches of the piecewise-linear
    # problem gives c = sqrt(A) * (1 - theta0) / sqrt(theta0)
    return math.sqrt(amplitude) * (1.0 - theta0) / math.sqrt(theta0)


def test_step_linear_quarter_threshold():
    r = ReactionModel("step_linear", 0.25)
    p = laminar_speed(r, tol=1e-5)
    assert p.c0 == pytest.approx(1.5, abs=2e-5)


def test_step_linear_half_threshold():
    r = ReactionModel("step_linear", 0.5)
    p = laminar_speed(r, tol=1e-5)
    assert p.c0 == pytest.approx(step_speed(0.5), abs=2e-5)


def _collocation_speed(reaction, L=60.0):
    """Independent oracle: collocation BVP on [-L, 0] with unknown speed.

    Endpoint conditions: burned state on the left, the normalization
    phi(0) = theta0 and the exact tail slope phi'(0) = -c*theta0.
    """
    t0 = reaction.theta0

    def rhs(x, y, p):
        return np.vstack([y[1], -p[0] * y[1] - reaction(y[0])])

    def bc(ya, yb, p):
        return np.array([ya[0] - 1.0, yb[0] - t0, yb[1] + p[0] * t0])

    x = np.linspace(-L, 0.0, 4001)
    phi = 1.0 - (1.0 - t0) * np.exp(0.5 * x)
    dphi = -(1.0 - t0) * 0.5 * np.exp(0.5 * x)
    sol = solve_bvp(rhs, bc, x, np.vstack([phi, dphi]), p=[0.8], tol=1e-9, max_nodes=500000)
    assert sol.success
    return float(sol.p[0])


def test_quad_ignition_against_collocation():
    r = ReactionModel("quad_ignition", 0.25)
    oracle = _collocation_speed(r)
    p = laminar_speed(r, tol=1e-6)
    assert p.c0 == pytest.approx(oracle, abs=1e-4)


def test_profile_invariants():
    r = ReactionModel("step_linear", 0.25)
    p = laminar_speed(r, tol=1e-6)
    # normalization and exact nonreactive tail
    assert profile_eval(p, 0.0) == pytest.approx(0.25, abs=1e-12)
    tail = p.xs > 0
    expect = 0.25 * np.exp(-p.c0 * p.xs[tail])
    assert np.abs(p.phi[tail] / expect - 1.0).max() < 1e-8
    # strictly decreasing away from the saturated far field
    core = p.phi[(p.phi > 1e-12) & (p.phi < 1.0 - 1e-9)]
    assert np.all(np.diff(core) < 0)
    assert p.residual_max() <= 1e-6


def test_profile_eval_tail_and_limits():
    r = ReactionModel("quad_ignition", 0.3)
    p = laminar_speed(r, tol=1e-6)
    assert profile_eval(p, 1.0 / p.c0) == pytest.approx(0.3 / math.e, abs=1e-8)
    xs = np.linspace(0.0, 120.0, 200)
    vals = profile_eval(p, xs)
    assert np.all(np.diff(vals) <= 0)
    assert vals[-1] < 1e-8
    assert profile_eval(p, -1e6) == 1.0


def test_speed_monotone_in_amplitude():
    speeds = []
    for amp in (0.5, 1.0, 2.0):
        p = laminar_speed(ReactionModel("quad_ignition", 0.25, amp), tol=1e-5)
        speeds.append(p.c0)
    assert speeds[0] < speeds[1] < speeds[2]


def test_tol_refinement():
    r = ReactionModel("quad_ignition", 0.25)
    c_coarse = laminar_speed(r, tol=2e-4).c0
    c_fine = laminar_speed(r, tol=1e-4).c0
    assert abs(c_coarse - c_fine) <= 2e-4


def test_translation_invariance_of_shooting():
    # start the tail shot at x0 = 2 instead of 0; the classifier boundary
    # (and hence the bisected speed) must not move by more than tol
    r = ReactionModel("step_linear", 0.25)
    tol = 1e-4

    def classify_shifted(c):
        return _classify_shot(r, c, start_x=2.0)

    lo, hi = 1e-6, 10.0 + r.M
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify_shifted(mid) == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.5, abs=2 * tol)


def test_no_reaction_raises():
    r = ReactionModel("quad_ignition", 0.25, 1e-300)
    with pytest.raises((NumericalError, ConfigurationError)):
        laminar_speed(r, tol=1e-4)


def test_reaction_model_constants():
    step = ReactionModel("step_linear", 0.25, 2.0)
    assert step.M == pytest.approx(2.0 * 0.75 / 0.25)
    assert math.isinf(step.lipschitz)
    assert step.cfl_stiffness == pytest.approx(8.0)
    quad = ReactionModel("quad_ignition", 0.25, 3.0)
    assert quad.M == pytest.approx(3.0 * 0.5 / 1.5)
    assert quad.lipschitz == pytest.approx(3.0)


def test_reaction_shapes():
    for kind in ("step_linear", "quad_ignition", "narrow_compliant"):
        r = ReactionModel(kind, 0.3)
        T = np.linspace(0, 1, 501)
        f = r(T)
        assert np.all(f[T <= 0.3] == 0.0)
        assert f[-1] == 0.0
        assert np.all(f[(T > 0.3) & (T < 1.0)] >= 0.0)
        assert np.max(f) > 0.0


def test_narrow_compliant_bound():
    lam = 2.0
    r = ReactionModel.narrow_for_width(0.3, lam)
    T = np.linspace(0, 1, 2001)
    assert np.all(r(T) <= np.clip(T - 0.3, 0, None) ** 2 / lam**2 + 1e-15)


def test_bad_reaction_params():
    with pytest.raises(ConfigurationError):
        ReactionModel("step_linear", 0.0)
    with pytest.raises(ConfigurationError):
        ReactionModel("step_linear", 0.5, -1.0)
    with pytest.raises(ConfigurationError):
        ReactionModel("unknown", 0.5)
    with pytest.raises(ConfigurationError):
        laminar_speed(ReactionModel("step_linear", 0.25), tol=0.5)


@pytest.mark.parametrize("amplitude", [0.0, -1.0, math.nan, math.inf])
def test_reaction_model_rejects_bad_amplitudes(amplitude):
    # NaN must fail the check, not surface later as a non-finite field
    with pytest.raises(ConfigurationError):
        ReactionModel("quad_ignition", 0.25, amplitude)


def _same_float(x: float, y: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    kind=hst.sampled_from(["step_linear", "quad_ignition", "narrow_compliant"]),
    theta0=hst.floats(1e-3, 0.999),
    amplitude=hst.floats(1e-3, 1e3),
    shift=hst.floats(-1e-13, 1e-13),
    anywhere=hst.floats(),
)
@example("step_linear", 0.25, 1.0, 0.0, 0.2500000000005)  # a tie for the 12-digit rounding
@example("step_linear", 0.25, 1.0, 5e-13, 2e296)  # T * 1e12 overflows
def test_scalar_rate_matches_the_array_rate_bitwise(kind, theta0, amplitude, shift, anywhere):
    # the shooting integrates with rate(); any bit of difference could move
    # a bisection verdict and with it c0
    r = ReactionModel(kind, theta0, amplitude)
    with np.errstate(all="ignore"):
        for T in (theta0 + shift, theta0 * (1.0 + shift), 1.0 + shift, shift, anywhere):
            assert _same_float(r.rate(T), r(T))
