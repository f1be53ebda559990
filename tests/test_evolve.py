"""Cauchy evolution: conservation structure, oracles, recentering."""

import math

import numpy as np
import pytest

from frontlab.diagnostics import (
    COLUMNS,
    burning_rate,
    check_winn_inequality,
    front_position,
    nusselt,
    nz_norm,
    omega_enstrophy,
    u_sup,
    winn_functional,
)
from frontlab.errors import BlowUpError, ConfigurationError
from frontlab.evolve import OmegaInit, SimConfig, SimState, cfl_dt, init_front_like, run, step
from frontlab.flow import FlowState, GravityDir, buoyancy_torque, weighted_inner
from frontlab.grid import (
    ScalarField,
    constant_field,
    edge_grad_sq,
    make_grid,
    temperature_bc,
    vorticity_bc,
)
from frontlab.laminar import ReactionModel, laminar_speed


def _config(**kw):
    g = kw.pop("grid", make_grid(20.0, 2.0, 129, 9))
    r = kw.pop("reaction", ReactionModel("quad_ignition", 0.25))
    return SimConfig(grid=g, reaction=r, **kw)


def test_init_front_like_shape():
    cfg = _config(R=4.0)
    st = init_front_like(cfg)
    g = cfg.grid
    X = g.x
    assert np.all(st.T.values[X < -4.0 - 1e-9, :] == 1.0)
    assert np.all(st.T.values[X > 4.0 + 1e-9, :] == 0.0)
    mid = st.T.values[:, 0]
    assert np.all(np.diff(mid) <= 1e-12)
    assert st.flow.u_sup() == 0.0


def test_init_rejects_wide_interface():
    with pytest.raises(ConfigurationError):
        init_front_like(_config(R=15.0))


@pytest.mark.parametrize("R", [math.nan, -1.0, math.inf])
def test_config_rejects_interface_width_that_is_not_finite_and_nonnegative(R):
    with pytest.raises(ConfigurationError):
        _config(R=R)


def test_init_degenerate_ramp():
    cfg = _config(R=0.0)
    st = init_front_like(cfg)
    g = cfg.grid
    inside = np.abs(g.x) <= g.hx + 1e-12
    assert np.all((st.T.values[~inside, :] == 0.0) | (st.T.values[~inside, :] == 1.0))


def test_init_single_mode_zero_amplitude():
    cfg = _config(omega0=OmegaInit("single_mode", amplitude=0.0))
    st = init_front_like(cfg)
    assert np.abs(st.omega.values).max() == 0.0


def test_init_random_seed_reproducible():
    cfg1 = _config(omega0=OmegaInit("random", seed=42, energy=0.5))
    cfg2 = _config(omega0=OmegaInit("random", seed=42, energy=0.5))
    st1, st2 = init_front_like(cfg1), init_front_like(cfg2)
    assert np.array_equal(st1.omega.values, st2.omega.values)
    other = init_front_like(_config(omega0=OmegaInit("random", seed=7, energy=0.5)))
    assert not np.array_equal(st1.omega.values, other.omega.values)


def test_zero_buoyancy_keeps_vorticity_zero():
    cfg = _config(rho=0.0, dt=0.05, t_end=1.0)
    st = init_front_like(cfg)
    for _ in range(20):
        st = step(st, cfg, 0.05)
    assert np.abs(st.omega.values).max() <= 1e-13
    assert st.T.values.min() >= -1e-8 and st.T.values.max() <= 1.0 + 1e-8


def test_diffusion_eigenmode_decay_rate():
    # nearly reaction-free step: cross-strip cosine decays at the heat rate
    g = make_grid(10.0, 2.0, 129, 65)
    r = ReactionModel("quad_ignition", 0.5, 1e-30)
    cfg = SimConfig(grid=g, reaction=r, dt=1e-3, t_end=1.0)
    X, Z = g.mesh()
    eps = 1e-3
    vals = 0.5 + eps * np.cos(np.pi * Z / g.lam)
    vals[0, :], vals[-1, :] = 1.0, 0.0
    zero = constant_field(g, 0.0, vorticity_bc())
    st = SimState(0.0, ScalarField(g, vals, temperature_bc()), zero,
                  flow=__import__("frontlab.flow", fromlist=["velocity_from_vorticity"]).velocity_from_vorticity(zero))
    dt = 1e-3
    mid = g.nx // 2
    amp0 = 0.5 * (st.T.values[mid, 0] - st.T.values[mid, -1])
    st = step(st, cfg, dt)
    amp1 = 0.5 * (st.T.values[mid, 0] - st.T.values[mid, -1])
    factor = amp1 / amp0
    expect = math.exp(-np.pi**2 * dt / g.lam**2)
    assert abs(factor - expect) <= 5.0 * (dt**2 + g.hz**2 * dt)


def test_cfl_limits():
    g = make_grid(10.0, 2.0, 65, 9)
    r = ReactionModel("step_linear", 0.5, 0.5)  # stiffness 1
    cfg = SimConfig(grid=g, reaction=r, cfl_safety=0.5, t_end=1.0)
    zero = constant_field(g, 0.0)

    def state_with_speed(vmax):
        v = constant_field(g, vmax)
        flow = FlowState(omega=zero, psi=zero, v=v, w=zero)
        return SimState(0.0, constant_field(g, 0.0, temperature_bc()), zero, flow)

    assert cfl_dt(state_with_speed(0.0), cfg) == pytest.approx(0.5)
    d1 = cfl_dt(state_with_speed(2.0), cfg)
    d2 = cfl_dt(state_with_speed(4.0), cfg)
    assert d1 == pytest.approx(2.0 * d2, rel=1e-9)
    speeds = [0.1, 0.5, 2.5, 12.0]
    dts = [cfl_dt(state_with_speed(s), cfg) for s in speeds]
    assert all(a >= b for a, b in zip(dts, dts[1:]))


def test_run_zero_horizon_single_row():
    cfg = _config(dt=0.1, t_end=0.0)
    series = run(cfg)
    assert len(series) == 1
    assert series.rows[0][0] == 0.0


def test_recenter_noop_is_bit_identical():
    # theta0 > 1/2 keeps the level crossing of the initial ramp left of
    # x = 0, so recentering never triggers during the short run
    base = dict(
        grid=make_grid(20.0, 2.0, 129, 9),
        reaction=ReactionModel("quad_ignition", 0.6),
        rho=0.0,
        dt=0.05,
        t_end=1.0,
        R=6.0,
    )
    s_off = run(_config(**base, recenter=False))
    s_on = run(_config(**base, recenter=True))
    assert s_off.rows == s_on.rows


def test_recentered_front_speed_matches_laminar():
    r = ReactionModel("step_linear", 0.25)
    prof = laminar_speed(r, tol=1e-5)
    g = make_grid(30.0, 2.0, 385, 9)
    cfg = SimConfig(grid=g, reaction=r, dt=0.02, t_end=30.0, R=5.0, recenter=True)
    series = run(cfg)
    ts = series.column("t")
    fp = series.column("front_pos")
    keep = ts >= 10.0
    slope = np.polyfit(ts[keep], fp[keep], 1)[0]
    assert slope == pytest.approx(prof.c0, rel=0.05)
    # burned state holds on the left edge throughout
    assert series.column("V").min() > 0.0


def test_max_principle_and_left_state_on_buoyant_run():
    g = make_grid(15.0, 2.0, 129, 17)
    cfg = SimConfig(
        grid=g,
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=0.3,
        ehat=GravityDir.normalized(1.0, 1.0),
        dt=0.05,
        t_end=5.0,
        R=4.0,
    )
    collected = []
    series = run(cfg, observer=lambda st: collected.append(st))
    for st in collected[::10]:
        assert st.T.values.min() >= -1e-8
        assert st.T.values.max() <= 1.0 + 1e-8
        left = st.T.values[g.x <= -g.a + 2.0, :]
        assert np.abs(left - 1.0).max() <= 1e-6
    assert len(series) == len(collected)


def test_energy_identity_residual_halves_with_dt():
    g = make_grid(15.0, 2.0, 129, 17)
    r = ReactionModel("quad_ignition", 0.25)

    def residual_scale(dt, n_steps):
        cfg = SimConfig(grid=g, reaction=r, rho=0.2,
                        ehat=GravityDir.normalized(1.0, 1.0), dt=dt, t_end=10.0)
        st = init_front_like(cfg)
        total, count = 0.0, 0
        for _ in range(n_steps):
            prev = st
            st = step(st, cfg, dt)
            e1 = 0.5 * weighted_inner(st.omega, st.omega)
            e0 = 0.5 * weighted_inner(prev.omega, prev.omega)
            torque = ScalarField(g, buoyancy_torque(prev.T, cfg.rho, cfg.ehat))
            resid = (e1 - e0) / dt + cfg.sigma * edge_grad_sq(st.omega) - weighted_inner(st.omega, torque)
            total += abs(resid)
            count += 1
        return total / count

    r1 = residual_scale(0.04, 50)
    r2 = residual_scale(0.02, 100)
    assert 1.5 <= r1 / r2 <= 2.5


def test_step_raises_blowup_on_nonfinite_fields():
    from frontlab.errors import BlowUpError

    cfg = _config(dt=0.05, t_end=1.0)
    st = init_front_like(cfg)
    st.T.values[5, 3] = np.nan
    with pytest.raises(BlowUpError) as err:
        step(st, cfg, 0.05)
    assert err.value.last_state is not None


def test_run_attaches_partial_series_on_blowup():
    from frontlab.errors import BlowUpError, RecenterError

    g = make_grid(10.0, 1.0, 65, 33)
    cfg = SimConfig(
        grid=g,
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=1e8,
        ehat=GravityDir.normalized(0.0, 1.0),
        R=2.0,
        dt=0.5,
        t_end=50.0,
    )
    with pytest.raises((BlowUpError, RecenterError)) as err:
        run(cfg)
    assert err.value.partial_series is not None
    assert len(err.value.partial_series) >= 1
    assert err.value.last_state is not None


def test_run_attaches_partial_series_on_refused_recentering():
    from frontlab.errors import RecenterError

    cfg = _config(dt=0.05, t_end=1.0, recenter=True)
    calls = []

    def warm_right_quarter(state):
        # after the first step, heat the inflow so the next shift is refused
        calls.append(state.t)
        if len(calls) == 2:
            state.T.values[-10, :] = 0.5

    with pytest.raises(RecenterError) as err:
        run(cfg, observer=warm_right_quarter)
    assert len(err.value.partial_series) == 2
    assert err.value.last_state.t > err.value.partial_series.rows[-1][0]


def test_winn_inequality_on_short_run():
    g = make_grid(20.0, 2.0, 193, 9)
    cfg = SimConfig(grid=g, reaction=ReactionModel("quad_ignition", 0.25),
                    rho=0.0, dt=0.05, t_end=15.0, R=5.0)
    series = run(cfg)
    for t in (10.0, 12.0, 15.0):
        nbar = series.row_at(t)[COLUMNS.index("Nbar")]
        assert check_winn_inequality(series, t) >= -0.05 * nbar
    # sign-definite observables stay nonnegative along the run
    for col in ("V", "N", "Nz", "Omega2", "R_winn"):
        assert series.column(col).min() >= 0.0


def _buoyant_recentering_config(**kw):
    base = dict(
        grid=make_grid(20.0, 2.0, 129, 17),
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=0.3,
        ehat=GravityDir.normalized(1.0, 1.0),
        dt=0.05,
        t_end=6.0,
        R=4.0,
        recenter=True,
        omega0=OmegaInit("random", seed=3, energy=1e-6),
    )
    return SimConfig(**{**base, **kw})


def _handed_out(state):
    return (state.T.values, state.omega.values, state.flow.psi.values,
            state.flow.v.values, state.flow.w.values)


def test_states_are_never_overwritten_by_later_steps():
    kept = []

    def keep(state):
        kept.append((_handed_out(state), [a.copy() for a in _handed_out(state)]))

    series = run(_buoyant_recentering_config(), observer=keep)
    assert len(kept) == len(series) > 100
    for arrays, copies in kept:
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)

    # the state a failing step started from rides on the error unchanged
    g = make_grid(10.0, 1.0, 65, 33)
    blowing = SimConfig(grid=g, reaction=ReactionModel("quad_ignition", 0.25), rho=1e8,
                        ehat=GravityDir.normalized(0.0, 1.0), R=2.0, dt=0.5, t_end=50.0)
    kept.clear()
    with pytest.raises(BlowUpError) as err:
        run(blowing, observer=keep)
    last = err.value.last_state
    arrays, copies = kept[-1]
    assert all(a is b for a, b in zip(_handed_out(last), arrays))
    for a, c in zip(_handed_out(last), copies):
        assert np.array_equal(a, c)


def test_run_rows_match_the_public_diagnostics():
    cfg = _buoyant_recentering_config()
    states = []
    series = run(cfg, observer=states.append)
    assert states[-1].shift_accum > 0.0  # the run recentered
    theta0 = cfg.reaction.theta0
    for row, st in zip(series.rows, states, strict=True):
        expected = {
            "t": st.t,
            "V": burning_rate(st.T, cfg.reaction),
            "N": nusselt(st.T),
            "U_sup": u_sup(st.flow),
            "Nz": nz_norm(st.T),
            "Omega2": omega_enstrophy(st.omega),
            "R_winn": winn_functional(st.T),
            "front_pos": front_position(st.T, theta0) + st.shift_accum,
        }
        for name, value in expected.items():
            assert row[COLUMNS.index(name)] == pytest.approx(value, rel=1e-12, abs=0.0), name
