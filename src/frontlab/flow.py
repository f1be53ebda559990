"""Incompressible velocity recovery and the vorticity-equation right side.

The velocity comes from a streamfunction: psi solves lap(psi) = -omega
with psi = 0 on the whole boundary, then v = psi_z, w = -psi_x
(flow_from_streamfunction).  That single Dirichlet solve reproduces all
four no-stress velocity conditions at once and makes the discrete
divergence vanish identically.  velocity_from_vorticity does the Poisson
solve itself; the Cauchy step instead takes psi from the spectrum of its
implicit vorticity solve and omega as -lap(psi), which the plan inverts
exactly (EllipticPlan.solve_helmholtz_streamfunction).

Advection uses the skew-symmetric average of the advective and flux
forms.  With centered differences the two forms differ at O(h^2) (the
discrete product rule does not hold), and only their average is exactly
antisymmetric; the energy identities the diagnostics check rely on that.
Along each axis that average is one flux of edge velocities,

    (u_k (f_{k+1} - f_{k-1}) + u_{k+1} f_{k+1} - u_{k-1} f_{k-1}) / 4h
        = (a_{k+1/2} f_{k+1} - a_{k-1/2} f_{k-1}) / 2h,

with a_{k+1/2} = (u_k + u_{k+1})/2 (Verstappen & Veldman, JCP 187, 2003).
EdgeVelocities holds those averages, odd ghosts included, so a step that
advects temperature and vorticity with one velocity forms them once.
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
    StripGrid,
    _bc_specs,
    _diff_ghost_axis,
    _ghost_values,
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
    w = dx_bc(psi).values
    np.negative(w, out=w)
    if omega.bc is None:
        omega = ScalarField(g, omega.values, vorticity_bc())
    return FlowState(omega=omega, psi=psi, v=v, w=ScalarField(g, w, None))


def velocity_from_vorticity(omega: ScalarField) -> FlowState:
    """Streamfunction solve followed by flow_from_streamfunction."""
    psi = poisson_dirichlet(ScalarField(omega.grid, -omega.values, None))
    return flow_from_streamfunction(omega, psi)


class EdgeVelocities:
    """Edge averages of (v, w), times scale/2h: the fluxes of advect.

    x holds (v_i + v_{i+1})*scale/(4hx) on the nx-1 x-edges.  z holds the
    same average of w along the raveled array, so z[k] joins nodes k and
    k+1; its entries that join two rows are never read.  The velocity
    extends oddly past every side (ghost = -inner), so the ghost edges are
    (v_0 - v_1)*scale/(4hx) and alike, kept in x_ends and z_walls.  load()
    overwrites every array in place, so one instance serves many steps.
    """

    def __init__(self, grid: StripGrid):
        nx, nz = grid.shape
        self.grid = grid
        self.x = np.empty((nx - 1, nz))
        self.z = np.empty(nx * nz - 1)
        self.x_ends = np.empty((2, nz))
        self.z_walls = np.empty((2, nx))

    def load(self, v: np.ndarray, w: np.ndarray, scale: float = 1.0) -> "EdgeVelocities":
        g = self.grid
        for run, lines, edges, ghosts, h in (
            (v, v, self.x, self.x_ends, g.hx),
            (w.reshape(-1), w.T, self.z, self.z_walls, g.hz),
        ):
            s = 0.25 * scale / h
            np.add(run[:-1], run[1:], out=edges)
            edges *= s
            np.subtract(lines[0], lines[1], out=ghosts[0])
            np.subtract(lines[-1], lines[-2], out=ghosts[1])
            ghosts *= s
        return self

    def advect(self, field: ScalarField, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """scale * u.grad(field) into out; tmp is scratch of the same shape.

        The field extends past each side by its own bc.  Values at
        Dirichlet-pinned nodes of the field are not meaningful.
        """
        if field.bc is None:
            raise ConfigurationError("advect needs a field with a boundary descriptor")
        f = field.values
        nz = f.shape[1]
        xlo, xhi, zspec = _bc_specs(field.bc)
        # z: one pass over the raveled array, then the two wall columns
        ez, fr, o, t = self.z, f.reshape(-1), out.reshape(-1), tmp.reshape(-1)
        np.multiply(ez[1:], fr[2:], out=o[1:-1])
        np.multiply(ez[:-1], fr[:-2], out=t[1:-1])
        o[1:-1] -= t[1:-1]
        lo, hi = _ghost_values(f.T, zspec, zspec)
        out[:, 0] = ez[::nz] * f[:, 1] - self.z_walls[0] * lo
        out[:, -1] = self.z_walls[1] * hi - ez[nz - 2 :: nz] * f[:, -2]
        # x: the interior lines, then the two end lines
        ex = self.x
        np.multiply(ex[1:], f[2:], out=tmp[1:-1])
        out[1:-1] += tmp[1:-1]
        np.multiply(ex[:-1], f[:-2], out=tmp[1:-1])
        out[1:-1] -= tmp[1:-1]
        lo, hi = _ghost_values(f, xlo, xhi)
        out[0] += ex[0] * f[1] - self.x_ends[0] * lo
        out[-1] += self.x_ends[1] * hi - ex[-1] * f[-2]
        return out


def advect(v: np.ndarray, w: np.ndarray, field: ScalarField) -> np.ndarray:
    """Skew-symmetric centered advection u.grad(field) on the full grid.

    The edge form of EdgeVelocities: the field extends by its own bc and
    the velocity oddly.  Values at Dirichlet-pinned nodes of the field are
    not meaningful.
    """
    g = field.grid
    return EdgeVelocities(g).load(v, w).advect(field, np.empty(g.shape), np.empty(g.shape))


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
