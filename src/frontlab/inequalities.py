"""Functional-inequality laboratory: strip Nash ratio, the implicit decay
rate, and flow-uniform L1 -> Linf decay of advection-diffusion.

The decay experiments run on a periodic-in-x strip (the statement is
translation invariant; periodicity removes end effects) with Neumann
walls.  Advection uses the conservative flux form with the grid's
wrap-around and zero-wall ghost stencils, which preserves the discrete
integral exactly; diffusion is implicit through EllipticPlan's periodic
plan (a DCT-I matrix product in z, then the real FFT in x), whose zero
mode is untouched, so mass is conserved to round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .elliptic import plan_for
from .errors import BlowUpError, ConfigurationError
from .grid import (
    DIRICHLET,
    PERIODIC,
    ScalarField,
    _diff_ghost_axis,
    _trapezoid_weights,
    grad_sq_norm,
    integrate,
    make_grid,
    periodic_bc,
)

_WRAP = (PERIODIC, 0.0)
_WALL = (DIRICHLET, 0.0)  # odd ghost: the field vanishes at the walls


def nash_ratio(psi: ScalarField, lam: float) -> float:
    """Ratio whose infimum over admissible fields is the Nash constant.

    |grad psi|_2^2 * (|psi|_1^4 + lam^3 |psi|_1 |psi|_2^3) / (lam^2 |psi|_2^6);
    homogeneous of degree zero in psi.
    """
    vals = psi.values
    if not np.any(vals):
        raise ConfigurationError("nash_ratio needs a nonzero field")
    g = psi.grid
    l1 = integrate(ScalarField(g, np.abs(vals)))
    l2sq = integrate(ScalarField(g, vals * vals))
    l2 = math.sqrt(l2sq)
    grad2 = grad_sq_norm(psi)
    return grad2 * (l1**4 + lam**3 * l1 * l2**3) / (lam**2 * l2**6)


def solve_n_of_t(t: float, lam: float, sigma: float, C: float) -> float:
    """Unique n with n^4 / (1 + n^3 lam^3) = C / (sigma lam^2 t).

    The left side increases from 0 to infinity, so bisection on an
    expanding bracket is safe; relative tolerance 1e-12.
    """
    if min(t, lam, sigma, C) <= 0:
        raise ConfigurationError("all arguments must be positive")
    target = C / (sigma * lam**2 * t)

    def lhs(n):
        return n**4 / (1.0 + n**3 * lam**3)

    lo, hi = 0.0, 1.0
    while lhs(hi) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ConfigurationError("decay-rate bracket overflow")
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if lhs(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FlowSpec:
    """Frozen divergence-free velocity for the decay runs."""

    kind: str = "zero"
    amplitude: float = 0.0
    cells_x: int = 4
    cells_z: int = 1

    def __post_init__(self):
        if self.kind not in ("zero", "shear", "cellular"):
            raise ConfigurationError(f"unknown flow kind {self.kind!r}")
        if not -math.inf < self.amplitude < math.inf:  # NaN fails it
            raise ConfigurationError("flow amplitude must be finite")
        for name in ("cells_x", "cells_z"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ConfigurationError(f"{name} must be an integer >= 1")


@dataclass
class DecayExperiment:
    lam: float = 1.0
    box_length: float = 16.0
    nx: int = 256
    nz: int = 33
    sigma: float = 1.0
    t_end: float = 20.0
    flow: FlowSpec = field(default_factory=FlowSpec)
    dt: float | None = None
    psi0_width: float = 0.5

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("lam", "box_length", "sigma", "t_end", "psi0_width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive")
        # dt = 0 would never reach t_end
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ConfigurationError("dt must be None or finite and positive")
        if self.nx < 16 or self.nz < 8:
            raise ConfigurationError("decay grid too coarse")


@dataclass
class DecaySeries:
    t: np.ndarray
    linf: np.ndarray
    l2: np.ndarray
    l1: np.ndarray
    mass: np.ndarray
    metadata: dict


class _PeriodicStrip:
    """Periodic-x, Neumann-z lattice of nx distinct nodes per box length.

    The grid's periodic ghost wraps node nx-1 onto node 0, so a StripGrid
    spanning (nx-1)/nx of the box has spacing box_length/nx and period
    nx*hx.  Quadrature is uniform in x: no node is an end.
    """

    def __init__(self, exp: DecayExperiment):
        self.exp = exp
        self.grid = make_grid(
            exp.box_length * (exp.nx - 1) / (2 * exp.nx), exp.lam, exp.nx, exp.nz
        )
        g = self.grid
        self.X, self.Z = np.meshgrid(g.hx * np.arange(exp.nx), g.z, indexing="ij")
        # flat, C-ordered like the fields, so each norm is one dot product
        self.weights = np.tile(g.hx * _trapezoid_weights(g.nz, g.hz), exp.nx)

    def divergence(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """d(v)/dx + d(w)/dz for w vanishing oddly at the walls."""
        g = self.grid
        return _diff_ghost_axis(v, g.hx, 0, _WRAP, _WRAP) + _diff_ghost_axis(
            w, g.hz, 1, _WALL, _WALL
        )

    def velocity(self) -> tuple[np.ndarray, np.ndarray]:
        spec = self.exp.flow
        g, X, Z = self.grid, self.X, self.Z
        lam, Lx = self.exp.lam, self.exp.box_length
        if spec.kind == "zero":
            return np.zeros(X.shape), np.zeros(X.shape)
        if spec.kind == "shear":
            v = spec.amplitude * np.cos(np.pi * Z / lam)
            return v, np.zeros(X.shape)
        kx = 2.0 * np.pi * spec.cells_x / Lx
        kz = np.pi * spec.cells_z / lam
        # streamfunction normalized so the velocity amplitude is `amplitude`;
        # differentiating with the run's own stencils keeps the discrete
        # divergence at round-off
        psi = (spec.amplitude / max(kx, kz)) * np.sin(kx * X) * np.sin(kz * Z)
        v = _diff_ghost_axis(psi, g.hz, 1, _WALL, _WALL)
        w = -_diff_ghost_axis(psi, g.hx, 0, _WRAP, _WRAP)
        return v, w

    def norms(self, f: np.ndarray) -> tuple[float, float, float, float]:
        """(sup, L2, L1, mass); the sup is NaN or inf when f is not finite."""
        flat = f.ravel()
        absf = np.abs(flat)
        l1 = float(absf @ self.weights)
        l2 = math.sqrt(float((flat * flat) @ self.weights))
        mass = float(flat @ self.weights)
        return float(absf.max()), l2, l1, mass

    def initial_bump(self) -> np.ndarray:
        X, Z = self.X, self.Z
        x0 = 0.5 * self.exp.box_length
        width = self.exp.psi0_width
        bump = np.exp(-((X - x0) ** 2) / (2.0 * width**2))
        bump *= 1.0 + 0.5 * np.cos(np.pi * Z / self.exp.lam) ** 2
        _, _, l1, _ = self.norms(bump)
        return bump / l1


def max_divergence(exp: DecayExperiment) -> float:
    strip = _PeriodicStrip(exp)
    return float(np.abs(strip.divergence(*strip.velocity())).max())


def decay_experiment(exp: DecayExperiment) -> DecaySeries:
    """March the passive scalar and record (t, sup, L2, L1) each step.

    A step with a non-finite value raises BlowUpError whose partial_series
    holds the rows up to the last finite step.
    """
    strip = _PeriodicStrip(exp)
    g = strip.grid
    plan = plan_for(g, periodic_bc())
    v, w = strip.velocity()
    psi = strip.initial_bump()
    amp = float(max(np.abs(v).max(), np.abs(w).max()))
    if exp.dt is not None:
        dt = exp.dt
    else:
        adv = min(g.hx, g.hz) / (amp + 1e-12)
        dt = min(0.25 * adv, 0.01)
    metadata = {"flow": exp.flow, "nx": exp.nx, "nz": exp.nz, "dt": dt}
    rows = [(0.0, *strip.norms(psi))]
    t = 0.0
    while t < exp.t_end - 1e-12:
        step_dt = min(dt, exp.t_end - t)
        rhs = ScalarField(g, psi - step_dt * strip.divergence(v * psi, w * psi))
        psi = plan.solve_helmholtz(rhs, exp.sigma * step_dt).values
        t += step_dt
        row = strip.norms(psi)
        if not math.isfinite(row[0]):
            raise BlowUpError(
                f"decay run blew up at t={t:g}", partial_series=_decay_series(rows, metadata)
            )
        rows.append((t, *row))
    return _decay_series(rows, metadata)


def _decay_series(rows: list, metadata: dict) -> DecaySeries:
    arr = np.array(rows)
    return DecaySeries(
        t=arr[:, 0],
        linf=arr[:, 1],
        l2=arr[:, 2],
        l1=arr[:, 3],
        mass=arr[:, 4],
        metadata=metadata,
    )


def fit_l2_decay_constant(series: DecaySeries, lam: float, sigma: float,
                          t_lo: float = 1.0) -> float:
    """Smallest C making |psi(t)|_2 <= n_C(t) |psi0|_1 on t >= t_lo.

    Inverts the decay-rate relation at each sample: the required C is
    sigma lam^2 t z^4 / (1 + lam^3 z^3) with z = |psi|_2 / |psi0|_1.
    """
    l10 = series.l1[0]
    keep = series.t >= t_lo
    z = series.l2[keep] / l10
    t = series.t[keep]
    c_needed = sigma * lam**2 * t * z**4 / (1.0 + lam**3 * z**3)
    return float(c_needed.max())


def decay_constant_sup(series: DecaySeries, lam: float, sigma: float,
                       t_lo: float = 1.0, t_hi: float = 20.0) -> float:
    """sup over the window of lam*sqrt(sigma t)*|psi(t)|_inf / |psi0|_1."""
    keep = (series.t >= t_lo) & (series.t <= t_hi)
    vals = lam * np.sqrt(sigma * series.t[keep]) * series.linf[keep] / series.l1[0]
    return float(vals.max())


def nash_fuzz_corpus(n_fields: int = 1000, seed: int = 2024,
                     grid_shape: tuple[int, int] = (129, 33),
                     a: float = 8.0, lam: float = 2.0):
    """Deterministic corpus of smooth nonnegative fields (squared random
    band-limited cosine/sine series), refinement-stable by construction."""
    rng = np.random.default_rng(seed)
    g = make_grid(a, lam, *grid_shape)
    X, Z = g.mesh()
    fields = []
    for _ in range(n_fields):
        s = np.zeros(g.shape)
        for kx in range(4):
            for kz in range(3):
                cx, sx = rng.standard_normal(2) / (1 + kx + kz)
                phase = np.pi * (kx * (X + a) / (2 * a))
                s += (cx * np.cos(phase) + sx * np.sin(phase)) * np.cos(
                    kz * np.pi * Z / lam
                )
        fields.append(ScalarField(g, s * s + 1e-12))
    return fields
