"""Incompressible velocity recovery and the vorticity-equation right side.

The velocity comes from a streamfunction: psi solves lap(psi) = -omega
with psi = 0 on the whole boundary, then v = psi_z, w = -psi_x
(flow_from_streamfunction).  That single Dirichlet solve reproduces all
four no-stress velocity conditions at once and makes the discrete
divergence vanish identically.  velocity_from_vorticity does the Poisson
solve itself; the Cauchy step instead takes psi from the spectrum of its
implicit vorticity solve (EllipticPlan.solve_helmholtz_streamfunction).

Advection uses the skew-symmetric average of the advective and flux
forms.  With centered differences the two forms differ at O(h^2) (the
discrete product rule does not hold), and only their average is exactly
antisymmetric; the energy identities the diagnostics check rely on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import poisson_dirichlet
from .errors import ConfigurationError
from .grid import (
    DIRICHLET,
    ScalarField,
    _bc_specs,
    _diff_ghost_axis,
    _trapezoid_weights,
    dx_bc,
    dz_bc,
    laplacian,
    node_weights,
    vorticity_bc,
)

_ZERO = (DIRICHLET, 0.0)


@dataclass(frozen=True)
class GravityDir:
    """Unit gravity direction (e1 along the strip axis, e2 across it)."""

    e1: float
    e2: float

    def __post_init__(self):
        if abs(self.e1**2 + self.e2**2 - 1.0) > 1e-12:
            raise ConfigurationError("gravity direction must have unit norm")

    @classmethod
    def normalized(cls, e1: float, e2: float) -> "GravityDir":
        r = math.hypot(e1, e2)
        if r == 0.0:
            raise ConfigurationError("gravity direction cannot be zero")
        return cls(e1 / r, e2 / r)

    @property
    def axis_aligned(self) -> bool:
        """Gravity parallel to the strip axis: planar fronts possible."""
        return abs(self.e2) <= 1e-12


@dataclass
class FlowState:
    """Vorticity with its streamfunction and derived velocities."""

    omega: ScalarField
    psi: ScalarField
    v: ScalarField
    w: ScalarField

    def u_sup(self) -> float:
        return float(
            max(np.abs(self.v.values).max(), np.abs(self.w.values).max())
        )

    def max_interior_divergence(self) -> float:
        g = self.omega.grid
        dvdx = _diff_ghost_axis(self.v.values, g.hx, 0, _ZERO, _ZERO)
        dwdz = _diff_ghost_axis(self.w.values, g.hz, 1, _ZERO, _ZERO)
        div = (dvdx + dwdz)[1:-1, 1:-1]
        return float(np.abs(div).max())

    def max_column_mean(self) -> float:
        """Largest |integral of v over z| across columns; 0 up to round-off."""
        g = self.v.grid
        wz = _trapezoid_weights(g.nz, g.hz)
        return float(np.abs(self.v.values @ wz).max())


def flow_from_streamfunction(omega: ScalarField, psi: ScalarField) -> FlowState:
    """Velocities v = psi_z, w = -psi_x by ghost-aware differentiation.

    psi must vanish on the whole boundary, as the Dirichlet solve of
    lap(psi) = -omega makes it.
    """
    g = omega.grid
    v = dz_bc(psi)
    w = ScalarField(g, -dx_bc(psi).values, None)
    if omega.bc is None:
        omega = ScalarField(g, omega.values, vorticity_bc())
    return FlowState(omega=omega, psi=psi, v=v, w=w)


def velocity_from_vorticity(omega: ScalarField) -> FlowState:
    """Streamfunction solve followed by flow_from_streamfunction."""
    psi = poisson_dirichlet(ScalarField(omega.grid, -omega.values, None))
    return flow_from_streamfunction(omega, psi)


def advect(v: np.ndarray, w: np.ndarray, field: ScalarField) -> np.ndarray:
    """Skew-symmetric centered advection u.grad(field) on the full grid.

    Ghost extensions: the field uses its own bc; the flux products v*f
    and w*f vanish on the boundaries where the corresponding velocity
    component vanishes (v at the ends, w at the walls) and extend oddly.
    Values at Dirichlet-pinned nodes of the field are not meaningful.
    """
    if field.bc is None:
        raise ConfigurationError("advect needs a field with a boundary descriptor")
    g = field.grid
    f = field.values
    xlo, xhi, zspec = _bc_specs(field.bc)
    fx = _diff_ghost_axis(f, g.hx, 0, xlo, xhi)
    fz = _diff_ghost_axis(f, g.hz, 1, zspec, zspec)
    flux_x = _diff_ghost_axis(v * f, g.hx, 0, _ZERO, _ZERO)
    flux_z = _diff_ghost_axis(w * f, g.hz, 1, _ZERO, _ZERO)
    return 0.5 * (v * fx + flux_x + w * fz + flux_z)


def buoyancy_torque(T: ScalarField, rho: float, ehat: GravityDir, tau: float = 1.0) -> np.ndarray:
    """tau*rho*(e2*T_x - e1*T_z), the curl of the buoyancy force."""
    Tx = dx_bc(T).values
    Tz = dz_bc(T).values
    return tau * rho * (ehat.e2 * Tx - ehat.e1 * Tz)


def vorticity_rhs(
    state: FlowState,
    T: ScalarField,
    rho: float,
    sigma: float,
    ehat: GravityDir,
    c: float,
    tau: float,
) -> ScalarField:
    """d(omega)/dt in the frame moving at speed c.

    c*omega_x - u.grad(omega) + sigma*lap(omega) + tau*rho*(e2*T_x - e1*T_z).
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError("tau must lie in [0, 1]")
    omega = state.omega
    out = c * dx_bc(omega).values
    out -= advect(state.v.values, state.w.values, omega)
    out += sigma * laplacian(omega).values
    out += buoyancy_torque(T, rho, ehat, tau)
    return ScalarField(omega.grid, out, None)


def weighted_inner(a: ScalarField, b: ScalarField) -> float:
    """Trapezoid-weighted inner product, shared by the energy identities."""
    return float(np.sum(node_weights(a.grid) * a.values * b.values))
