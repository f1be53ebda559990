"""Bulk observables, running averages, and discrete integral identities.

Identity checks reuse the solver stencils (ghost-aware derivatives,
edge-based Dirichlet energy) so that discrete integration by parts is
exact and the reported residuals measure modeling error, not an
avoidable stencil mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import ScalarField, axis_weights, dz_bc, edge_grad_sq, integrate
from .laminar import ReactionModel

COLUMNS = (
    "t",
    "V",
    "N",
    "U_sup",
    "Nz",
    "Omega2",
    "R_winn",
    "front_pos",
    "Vbar",
    "Nbar",
    "Ubar",
    "Nzbar",
)


@dataclass
class TimeSeries:
    """Per-step diagnostics with running time averages.

    Averages are trapezoidal integrals over [0, t] divided by t; the
    first row (t = 0) carries the instantaneous values.
    """

    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows: list[tuple] = []
        self._acc = {"V": 0.0, "N": 0.0, "U_sup": 0.0, "Nz": 0.0}
        self._last: dict | None = None

    def __len__(self):
        return len(self.rows)

    def append(self, t, V, N, U_sup, Nz, Omega2, R_winn, front_pos):
        inst = {"V": V, "N": N, "U_sup": U_sup, "Nz": Nz}
        if self._last is not None:
            dt = t - self._last["t"]
            if dt <= 0:
                raise ConfigurationError("time must be strictly increasing")
            for k in self._acc:
                self._acc[k] += 0.5 * dt * (inst[k] + self._last[k])
        self._last = dict(inst, t=t)
        if t > 0.0:
            bars = {k: self._acc[k] / t for k in self._acc}
        else:
            bars = inst
        self.rows.append(
            (
                t,
                V,
                N,
                U_sup,
                Nz,
                Omega2,
                R_winn,
                front_pos,
                bars["V"],
                bars["N"],
                bars["U_sup"],
                bars["Nz"],
            )
        )

    def column(self, name: str) -> np.ndarray:
        return np.array([row[COLUMNS.index(name)] for row in self.rows])

    def row_at(self, t: float) -> tuple:
        """Latest row with time <= t."""
        ts = self.column("t")
        idx = int(np.searchsorted(ts, t + 1e-12) - 1)
        if idx < 0:
            raise ConfigurationError(f"no samples at or before t={t}")
        return self.rows[idx]

    def window_average(self, name: str, t_lo: float, t_hi: float) -> float:
        """Trapezoidal average of an instantaneous column over [t_lo, t_hi]."""
        ts = self.column("t")
        ys = self.column(name)
        keep = (ts >= t_lo - 1e-12) & (ts <= t_hi + 1e-12)
        if keep.sum() < 2:
            raise ConfigurationError("window contains fewer than 2 samples")
        return float(np.trapezoid(ys[keep], ts[keep]) / (ts[keep][-1] - ts[keep][0]))

    def recomputed_bars(self) -> dict[str, np.ndarray]:
        """Running averages rebuilt from scratch (consistency oracle)."""
        ts = self.column("t")
        out = {}
        for name in ("V", "N", "U_sup", "Nz"):
            ys = self.column(name)
            acc = np.concatenate(
                [[0.0], np.cumsum(0.5 * np.diff(ts) * (ys[1:] + ys[:-1]))]
            )
            bars = np.where(ts > 0, acc / np.where(ts > 0, ts, 1.0), ys)
            out[name] = bars
        return out


def burning_rate(T: ScalarField, reaction: ReactionModel) -> float:
    """Reaction integral per unit strip width; nonnegative."""
    g = T.grid
    return integrate(ScalarField(g, reaction(T.values))) / g.lam


def nusselt(T: ScalarField) -> float:
    """Squared temperature gradient (edge_grad_sq) per unit strip width."""
    return edge_grad_sq(T) / T.grid.lam


def u_sup(flow) -> float:
    """Sup of the horizontal velocity component over grid nodes."""
    return float(np.abs(flow.v.values).max())


def nz_norm(T: ScalarField) -> float:
    """Squared cross-strip derivative; exactly zero for planar fields."""
    g = T.grid
    Tz = dz_bc(T).values
    return integrate(ScalarField(g, Tz * Tz))


def omega_enstrophy(omega: ScalarField) -> float:
    g = omega.grid
    return integrate(ScalarField(g, omega.values * omega.values))


def winn_functional(T: ScalarField) -> float:
    """Integral of T(1-T) per unit width; bounded by area/(4*lam)."""
    g = T.grid
    return integrate(ScalarField(g, T.values * (1.0 - T.values))) / g.lam


def front_position(T: ScalarField, level: float) -> float:
    """Largest x where the column max reaches `level` (interpolated)."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError("level must lie in (0, 1)")
    g = T.grid
    colmax = T.values.max(axis=1)
    above = np.flatnonzero(colmax >= level)
    if above.size == 0:
        return -g.a
    i = int(above.max())
    if i == g.nx - 1:
        return g.a
    x = g.x
    frac = (colmax[i] - level) / (colmax[i] - colmax[i + 1])
    return float(x[i] + frac * g.hx)


def check_steady_identity(sol, reaction: ReactionModel) -> float:
    """Relative residual of the front-speed balance.

    c*lam/2 should equal the outflow flux integral at x = a plus the
    gradient energy plus the (1-T)-weighted reaction integral.  Exact in
    the continuum for any steady front; off-solution fields give O(1).
    """
    g = sol.T.grid
    T = sol.T.values
    lam = g.lam
    _, wz = axis_weights(g)
    tx_right = (3.0 * T[-1, :] - 4.0 * T[-2, :] + T[-3, :]) / (2.0 * g.hx)
    flux = float(tx_right @ wz)
    energy = edge_grad_sq(sol.T)
    reac = integrate(ScalarField(g, (1.0 - T) * reaction(T))) * sol.tau
    lhs = sol.c * lam / 2.0
    rhs = flux + energy + reac
    return abs(lhs - rhs) / max(abs(lhs), 1e-8)


def flux_identity_residual(sol, reaction: ReactionModel) -> float:
    """Relative residual of the integrated temperature equation.

    c*lam*(mean inflow state - mean outflow state) should equal the
    difference of end fluxes plus the tau-weighted reaction integral.
    """
    g = sol.T.grid
    T = sol.T.values
    _, wz = axis_weights(g)
    tx_right = (3.0 * T[-1, :] - 4.0 * T[-2, :] + T[-3, :]) / (2.0 * g.hx)
    tx_left = (-3.0 * T[0, :] + 4.0 * T[1, :] - T[2, :]) / (2.0 * g.hx)
    flux = float((tx_right - tx_left) @ wz)
    reac = integrate(ScalarField(g, reaction(T))) * sol.tau
    ibar_left = float(T[0, :] @ wz) / g.lam
    ibar_right = float(T[-1, :] @ wz) / g.lam
    lhs = sol.c * g.lam * (ibar_left - ibar_right)
    rhs = flux + reac
    return abs(lhs - rhs) / max(abs(lhs), 1e-8)


def check_winn_inequality(series: TimeSeries, t: float) -> float:
    """Margin of R(t)/t + Vbar(t) - 2*Nbar(t); nonnegative up to O(h^2)."""
    row = series.row_at(t)
    tt = row[COLUMNS.index("t")]
    if tt <= 0:
        raise ConfigurationError("inequality needs t > 0")
    R = row[COLUMNS.index("R_winn")]
    Vbar = row[COLUMNS.index("Vbar")]
    Nbar = row[COLUMNS.index("Nbar")]
    return R / tt + Vbar - 2.0 * Nbar
