"""Time integration of the coupled Cauchy problem in vorticity form.

First-order IMEX stepping: advection, reaction and buoyancy torque are
explicit; diffusion is implicit through the transform solvers, so there
is no diffusive time-step limit.  The temperature's inhomogeneous ends
are handled by subtracting the steady linear lift before each implicit
solve.

The moving-frame bookkeeping is integer-cell recentering: when the
front reaches x = 0 all fields shift left by whole cells, incoming
columns are filled with fresh fluid (T = 0, omega = 0), and the total
displacement accumulates so lab-frame positions stay exact.  Monitors
verify that the state ahead of the front is actually quiescent before
every shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .diagnostics import (
    TimeSeries,
    burning_rate,
    front_position,
    nusselt,
    nz_norm,
    omega_enstrophy,
    u_sup,
    winn_functional,
)
from .elliptic import linear_lift, plan_for
from .errors import BlowUpError, ConfigurationError, RecenterError
from .flow import (
    FlowState,
    GravityDir,
    advect,
    buoyancy_torque,
    flow_from_streamfunction,
    velocity_from_vorticity,
)
from .grid import ScalarField, StripGrid, temperature_bc, vorticity_bc
from .laminar import ReactionModel


@dataclass(frozen=True)
class OmegaInit:
    """Initial vorticity: zero, one Dirichlet mode, or seeded random."""

    kind: str = "zero"
    amplitude: float = 0.0
    kx: int = 1
    kz: int = 1
    seed: int = 0
    energy: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "single_mode", "random"):
            raise ConfigurationError(f"unknown omega0 kind {self.kind!r}")

    def build(self, grid: StripGrid) -> np.ndarray:
        X, Z = grid.mesh()
        if self.kind == "zero":
            return np.zeros(grid.shape)
        if self.kind == "single_mode":
            return self.amplitude * np.sin(
                self.kx * np.pi * (X + grid.a) / (2 * grid.a)
            ) * np.sin(self.kz * np.pi * Z / grid.lam)
        rng = np.random.default_rng(self.seed)
        w = np.zeros(grid.shape)
        for kx in range(1, 5):
            for kz in range(1, 4):
                w += rng.standard_normal() * np.sin(
                    kx * np.pi * (X + grid.a) / (2 * grid.a)
                ) * np.sin(kz * np.pi * Z / grid.lam)
        norm2 = float(np.sum(w * w) * grid.hx * grid.hz)
        if norm2 > 0 and self.energy > 0:
            w *= math.sqrt(self.energy / norm2)
        else:
            w[:] = 0.0
        return w


@dataclass
class SimConfig:
    grid: StripGrid
    reaction: ReactionModel
    rho: float = 0.0
    sigma: float = 1.0
    ehat: GravityDir = dc_field(default_factory=lambda: GravityDir(0.0, 1.0))
    R: float = 5.0
    dt: float | None = None  # None: CFL-controlled
    t_end: float = 10.0
    cfl_safety: float = 0.4
    recenter: bool = False
    omega0: OmegaInit = dc_field(default_factory=OmegaInit)

    def __post_init__(self):
        if self.t_end < 0:
            raise ConfigurationError("t_end must be nonnegative")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1)")
        if self.rho < 0 or self.sigma <= 0:
            raise ConfigurationError("rho >= 0 and sigma > 0 required")
        if self.dt is not None and self.dt <= 0:
            raise ConfigurationError("dt must be positive")


@dataclass
class SimState:
    t: float
    T: ScalarField
    omega: ScalarField
    flow: FlowState
    shift_accum: float = 0.0


def init_front_like(config: SimConfig) -> SimState:
    """Cosine interface ramp from 1 to 0 across [-R, R]; seeded vorticity."""
    g = config.grid
    if config.R >= g.a / 2:
        raise ConfigurationError("interface half-width R must be < a/2")
    half = max(config.R, g.hx)  # R = 0 degenerates to a two-cell smoothing
    X, _ = g.mesh()
    T = np.where(
        X < -half,
        1.0,
        np.where(X > half, 0.0, 0.5 * (1.0 + np.cos(np.pi * (X + half) / (2 * half)))),
    )
    T[0, :], T[-1, :] = 1.0, 0.0
    omega = config.omega0.build(g)
    omega[0, :] = omega[-1, :] = omega[:, 0] = omega[:, -1] = 0.0
    omega_f = ScalarField(g, omega, vorticity_bc())
    return SimState(
        t=0.0,
        T=ScalarField(g, T, temperature_bc()),
        omega=omega_f,
        flow=velocity_from_vorticity(omega_f),
    )


def cfl_dt(state: SimState, config: SimConfig) -> float:
    """Advection- and reaction-limited step; diffusion is implicit."""
    g = config.grid
    eps = 1e-12
    vmax = float(np.abs(state.flow.v.values).max())
    wmax = float(np.abs(state.flow.w.values).max())
    k_eff = max(config.reaction.cfl_stiffness, eps)
    return config.cfl_safety * min(
        g.hx / (vmax + eps), g.hz / (wmax + eps), 1.0 / k_eff
    )


def step(state: SimState, config: SimConfig, dt: float) -> SimState:
    """One IMEX step; raises BlowUpError with the last good state."""
    g = config.grid
    T, omega, flow = state.T, state.omega, state.flow
    v, w = flow.v.values, flow.w.values

    # intermediate overflow on a diverging run is expected; the verdict
    # comes from the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        expl_T = -advect(v, w, T) + config.reaction(T.values)
        T_star = T.values + dt * expl_T
        lift = linear_lift(g, 1.0, 0.0)
        plan_T = plan_for(g, temperature_bc())
        hom = ScalarField(g, T_star - lift, None)
        T_new = plan_T.solve_helmholtz(hom, dt).values + lift
        np.clip(T_new, 0.0, 1.0, out=T_new)

        expl_W = -advect(v, w, omega) + buoyancy_torque(T, config.rho, config.ehat)
        W_star = ScalarField(g, omega.values + dt * expl_W, None)
        plan_W = plan_for(g, vorticity_bc())
        omega_f, psi = plan_W.solve_helmholtz_streamfunction(W_star, config.sigma * dt)

    if not (np.isfinite(T_new).all() and np.isfinite(omega_f.values).all()):
        raise BlowUpError(f"non-finite field at t={state.t + dt:g}", last_state=state)

    return SimState(
        t=state.t + dt,
        T=ScalarField(g, T_new, temperature_bc()),
        omega=omega_f,
        flow=flow_from_streamfunction(omega_f, psi),
        shift_accum=state.shift_accum,
    )


def _recenter(state: SimState, config: SimConfig) -> SimState:
    """Shift fields left by whole cells so the front returns to x <= 0."""
    g = config.grid
    theta0 = config.reaction.theta0
    fp = front_position(state.T, theta0)
    if fp <= 0.0:
        return state
    cells = int(math.ceil(fp / g.hx))
    nx = g.nx
    quarter = slice(3 * nx // 4, nx)
    decile = slice(max(nx - nx // 10, 0), nx)
    if float(state.T.values[quarter, :].max()) >= theta0 / 10.0:
        raise RecenterError(
            "front shift requested while the right quarter is warm", last_state=state
        )
    if float(np.abs(state.omega.values[decile, :]).max()) >= 1e-3:
        raise RecenterError(
            "front shift requested while inflow vorticity is active", last_state=state
        )

    T = np.empty_like(state.T.values)
    W = np.zeros_like(state.omega.values)
    T[: nx - cells, :] = state.T.values[cells:, :]
    T[nx - cells :, :] = 0.0
    T[0, :], T[-1, :] = 1.0, 0.0
    W[: nx - cells, :] = state.omega.values[cells:, :]
    W[0, :] = W[-1, :] = W[:, 0] = W[:, -1] = 0.0
    omega_f = ScalarField(g, W, vorticity_bc())
    return SimState(
        t=state.t,
        T=ScalarField(g, T, temperature_bc()),
        omega=omega_f,
        flow=velocity_from_vorticity(omega_f),
        shift_accum=state.shift_accum + cells * g.hx,
    )


def _observe(series: TimeSeries, state: SimState, config: SimConfig):
    with np.errstate(over="ignore", invalid="ignore"):
        series.append(
            t=state.t,
            V=burning_rate(state.T, config.reaction),
            N=nusselt(state.T),
            U_sup=u_sup(state.flow),
            Nz=nz_norm(state.T),
            Omega2=omega_enstrophy(state.omega),
            R_winn=winn_functional(state.T),
            front_pos=front_position(state.T, config.reaction.theta0) + state.shift_accum,
        )


def run(config: SimConfig, observer=None) -> TimeSeries:
    """March to t_end collecting diagnostics each step.

    The observer, if given, receives the (read-only) state after every
    step.  On blow-up or a refused recentering the partial series rides
    on the exception.
    """
    state = init_front_like(config)
    series = TimeSeries(metadata={"kind": "cauchy"})
    _observe(series, state, config)
    if observer is not None:
        observer(state)
    while state.t < config.t_end - 1e-12:
        dt = config.dt if config.dt is not None else cfl_dt(state, config)
        dt = min(dt, config.t_end - state.t)
        try:
            state = step(state, config, dt)
            if config.recenter:
                state = _recenter(state, config)
        except (BlowUpError, RecenterError) as e:
            e.partial_series = series
            raise
        _observe(series, state, config)
        if observer is not None:
            observer(state)
    return series
