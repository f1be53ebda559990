"""Time integration of the coupled Cauchy problem in vorticity form.

First-order IMEX stepping: advection, reaction and buoyancy torque are
explicit; diffusion is implicit through the transform solvers, so there
is no diffusive time-step limit.  The temperature's inhomogeneous ends
are handled by subtracting the steady linear lift before each implicit
solve.

A step forms the edge velocities of its flow once and advects both T
and omega with them (flow.EdgeVelocities).  f(T), T_x and T_z are
computed once per state and shared by the diagnostics row, the next
step's reaction term and its buoyancy torque.  The vorticity solve
yields psi from the Helmholtz spectrum, and omega = -lap(psi) by the
stencils, which saves an inverse transform.  Scratch arrays live in a
workspace that the states of one run pass along; an array handed out in
a SimState is never reused as scratch.

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
    front_position,
    nusselt,
    omega_enstrophy,
    u_sup,
    winn_functional,
)
from .elliptic import linear_lift, plan_for
from .errors import BlowUpError, ConfigurationError, RecenterError
from .flow import (
    EdgeVelocities,
    FlowState,
    GravityDir,
    flow_from_streamfunction,
    velocity_from_vorticity,
)
from .grid import (
    ScalarField,
    StripGrid,
    dx_bc,
    dz_bc,
    integrate,
    temperature_bc,
    vorticity_bc,
)
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
        # each check is written so that NaN fails it
        if not 0.0 <= self.t_end < math.inf:
            raise ConfigurationError("t_end must be finite and nonnegative")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1)")
        if not (0.0 <= self.rho < math.inf and 0.0 < self.sigma < math.inf):
            raise ConfigurationError("finite rho >= 0 and sigma > 0 required")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ConfigurationError("dt must be finite and positive")
        if not 0.0 <= self.R < math.inf:
            raise ConfigurationError("interface half-width R must be finite and nonnegative")


@dataclass
class SimState:
    t: float
    T: ScalarField
    omega: ScalarField
    flow: FlowState
    shift_accum: float = 0.0
    # f(T), T_x and T_z of this state once computed, and the scratch arrays
    # its run steps with (shared by the run's states, so one run's states
    # must not be stepped concurrently)
    _derived: "_Derived | None" = dc_field(default=None, repr=False, compare=False)
    _work: "_Workspace | None" = dc_field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Derived:
    """Fields computed from a state's T once: owned by that state alone."""

    T: np.ndarray  # the values they were computed from
    reaction: ReactionModel
    fT: np.ndarray
    Tx: np.ndarray  # dx_bc(T)
    Tz: np.ndarray  # dz_bc(T)


def _derived(state: SimState, config: SimConfig) -> _Derived:
    d = state._derived
    T = state.T
    if d is None or d.T is not T.values or d.reaction != config.reaction:
        fT, Tx, Tz = config.reaction(T.values), dx_bc(T).values, dz_bc(T).values
        d = state._derived = _Derived(T.values, config.reaction, fT, Tx, Tz)
    return d


class _Workspace:
    """Scratch arrays of one run's steps; none of them is ever in a SimState."""

    def __init__(self, grid: StripGrid):
        self.plan_T = plan_for(grid, temperature_bc())
        self.plan_W = plan_for(grid, vorticity_bc())
        self.lift = linear_lift(grid, 1.0, 0.0)
        self.edges = EdgeVelocities(grid)
        self.rhs = np.empty(grid.shape)
        self.tmp = np.empty(grid.shape)
        self.spectrum_T = np.empty(self.plan_T.unknowns_shape)
        self.spectrum_W = np.empty(self.plan_W.unknowns_shape)


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
    ws = state._work or _Workspace(g)
    d = _derived(state, config)
    rhs, tmp = ws.rhs, ws.tmp
    rho_dt = config.rho * dt

    # intermediate overflow on a diverging run is expected; the verdict
    # comes from the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        edges = ws.edges.load(state.flow.v.values, state.flow.w.values, -dt)
        # T* - lift = T - dt*u.grad(T) + dt*f(T) - lift
        edges.advect(state.T, rhs, tmp)
        rhs += state.T.values
        np.multiply(d.fT, dt, out=tmp)
        rhs += tmp
        rhs -= ws.lift
        T_new = ws.plan_T.solve_helmholtz(ScalarField(g, rhs), dt, ws.spectrum_T).values
        T_new += ws.lift
        np.clip(T_new, 0.0, 1.0, out=T_new)

        # omega* = omega - dt*u.grad(omega) + dt*rho*(e2*T_x - e1*T_z)
        edges.advect(state.omega, rhs, tmp)
        rhs += state.omega.values
        np.multiply(d.Tx, rho_dt * config.ehat.e2, out=tmp)
        rhs += tmp
        np.multiply(d.Tz, rho_dt * config.ehat.e1, out=tmp)
        rhs -= tmp
        omega_f, psi = ws.plan_W.solve_helmholtz_streamfunction(
            ScalarField(g, rhs), config.sigma * dt, ws.spectrum_W
        )

    if not (np.isfinite(T_new).all() and np.isfinite(omega_f.values).all()):
        raise BlowUpError(f"non-finite field at t={state.t + dt:g}", last_state=state)

    return SimState(
        t=state.t + dt,
        T=ScalarField(g, T_new, temperature_bc()),
        omega=omega_f,
        flow=flow_from_streamfunction(omega_f, psi),
        shift_accum=state.shift_accum,
        _work=ws,
    )


def _recenter(state: SimState, config: SimConfig, fp: float) -> SimState:
    """Shift fields left by whole cells so the front at fp > 0 returns to x <= 0."""
    g = config.grid
    theta0 = config.reaction.theta0
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
        _work=state._work,
    )


def _observe(series: TimeSeries, state: SimState, config: SimConfig, fp: float):
    """Append the diagnostics row of a state whose front sits at fp.

    V and Nz are burning_rate and nz_norm, evaluated on the state's f(T)
    and T_z, which its next step uses again.
    """
    g = config.grid
    d = _derived(state, config)
    with np.errstate(over="ignore", invalid="ignore"):
        series.append(
            t=state.t,
            V=integrate(ScalarField(g, d.fT)) / g.lam,
            N=nusselt(state.T),
            U_sup=u_sup(state.flow),
            Nz=integrate(ScalarField(g, d.Tz * d.Tz)),
            Omega2=omega_enstrophy(state.omega),
            R_winn=winn_functional(state.T),
            front_pos=fp + state.shift_accum,
        )


def run(config: SimConfig, observer=None) -> TimeSeries:
    """March to t_end collecting diagnostics each step.

    The observer, if given, receives the (read-only) state after every
    step.  On blow-up or a refused recentering the partial series rides
    on the exception.
    """
    state = init_front_like(config)
    theta0 = config.reaction.theta0
    series = TimeSeries(metadata={"kind": "cauchy"})
    _observe(series, state, config, front_position(state.T, theta0))
    if observer is not None:
        observer(state)
    while state.t < config.t_end - 1e-12:
        dt = config.dt if config.dt is not None else cfl_dt(state, config)
        dt = min(dt, config.t_end - state.t)
        try:
            state = step(state, config, dt)
            fp = front_position(state.T, theta0)
            if config.recenter and fp > 0.0:
                state = _recenter(state, config, fp)
                fp = front_position(state.T, theta0)
        except (BlowUpError, RecenterError) as e:
            e.partial_series = series
            raise
        _observe(series, state, config, fp)
        if observer is not None:
            observer(state)
    return series
