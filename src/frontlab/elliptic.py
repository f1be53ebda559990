"""Fast direct solvers for Poisson and implicit-diffusion problems.

The plans diagonalize the 3-point finite-difference Laplacian, not the
continuum operator: DST-I modes are its exact eigenvectors under
Dirichlet ends, DCT-I modes under reflective Neumann ends, and real
Fourier modes under a periodic x (nx distinct nodes, period nx*hx).
Solves are therefore exact relative to the stencils, up to transform
round-off.

Inhomogeneous Dirichlet data in x (temperature fields) must be lifted to
homogeneous form first; linear_lift does that.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
from scipy.fft import dct, dst, idct, idst, irfft, rfft

from .errors import ConfigurationError
from .grid import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    BoundaryKind,
    ScalarField,
    StripGrid,
    vorticity_bc,
)

SINE = "sine"
COSINE = "cosine"
_AXIS_KINDS = {DIRICHLET: SINE, NEUMANN: COSINE, PERIODIC: PERIODIC}
_FORWARD = {SINE: partial(dst, type=1), COSINE: partial(dct, type=1), PERIODIC: rfft}
_INVERSE = {SINE: partial(idst, type=1), COSINE: partial(idct, type=1)}


def _mode_eigenvalues(n: int, h: float, kind: str) -> np.ndarray:
    """Eigenvalues of the 1D 3-point Laplacian under the given transform."""
    if kind == PERIODIC:
        k, period = np.arange(n // 2 + 1), n
    else:
        k = np.arange(1, n - 1) if kind == SINE else np.arange(n)
        period = 2.0 * (n - 1)
    return -(4.0 / h**2) * np.sin(np.pi * k / period) ** 2


class EllipticPlan:
    """Immutable transform plan for one (grid, bc) pair.

    Dirichlet directions transform the interior nodes with DST-I; Neumann
    directions transform all nodes with DCT-I; a periodic x transforms
    all nodes with the real FFT.  Dirichlet boundary values are treated
    as homogeneous; callers lift inhomogeneities.
    """

    def __init__(self, grid: StripGrid, bc: BoundaryKind):
        if bc.x_left.kind != bc.x_right.kind:
            raise ConfigurationError("mixed x-end kinds have no transform plan")
        self.grid = grid
        self.bc = bc
        self.x_kind = _AXIS_KINDS[bc.x_left.kind]
        self.z_kind = SINE if bc.z_walls == "dirichlet_zero" else COSINE
        mux = _mode_eigenvalues(grid.nx, grid.hx, self.x_kind)
        muz = _mode_eigenvalues(grid.nz, grid.hz, self.z_kind)
        self.eigenvalues = mux[:, None] + muz[None, :]
        self._xsl = slice(1, -1) if self.x_kind == SINE else slice(None)
        self._zsl = slice(1, -1) if self.z_kind == SINE else slice(None)

    @property
    def has_zero_mode(self) -> bool:
        return self.x_kind != SINE and self.z_kind == COSINE

    def _forward(self, a: np.ndarray) -> np.ndarray:
        # the first pass reads the caller's array; the second owns its input
        first = _FORWARD[self.x_kind](a, axis=0)
        return _FORWARD[self.z_kind](first, axis=1, overwrite_x=True)

    def _inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse transforms; a is a spectrum the plan owns and may overwrite."""
        if self.x_kind == PERIODIC:
            # irfft takes the complex x-spectrum, so z is undone first
            zpass = _INVERSE[self.z_kind](a, axis=1, overwrite_x=True)
            return irfft(zpass, n=self.grid.nx, axis=0, overwrite_x=True)
        xpass = _INVERSE[self.x_kind](a, axis=0, overwrite_x=True)
        return _INVERSE[self.z_kind](xpass, axis=1, overwrite_x=True)

    def _spectrum(self, rhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
        """Spectrum of u where denom(mu) * u_hat = rhs_hat on the plan's lattice."""
        return self._forward(rhs[self._xsl, self._zsl]) / denom

    def _field(self, spectrum: np.ndarray) -> np.ndarray:
        """Full-grid values of a spectrum, zero on the Dirichlet boundary."""
        out = np.zeros(self.grid.shape)
        out[self._xsl, self._zsl] = self._inverse(spectrum)
        return out

    def solve_poisson(self, rhs: ScalarField) -> ScalarField:
        if self.has_zero_mode:
            raise ConfigurationError("Poisson is singular for a plan with a constant mode")
        u = self._field(self._spectrum(rhs.values, self.eigenvalues))
        return ScalarField(self.grid, u, self.bc)

    def solve_helmholtz(self, rhs: ScalarField, s: float) -> ScalarField:
        if s < 0:
            raise ConfigurationError("anti-diffusion (s < 0) is not allowed")
        if s == 0.0:
            return ScalarField(self.grid, rhs.values.copy(), self.bc)
        u = self._field(self._spectrum(rhs.values, 1.0 - s * self.eigenvalues))
        return ScalarField(self.grid, u, self.bc)

    def solve_helmholtz_streamfunction(
        self, rhs: ScalarField, s: float
    ) -> tuple[ScalarField, ScalarField]:
        """(omega, psi): (I - s*lap) omega = rhs and lap(psi) = -omega.

        psi comes from omega's spectrum, psi_hat = -omega_hat/mu, so the
        pair costs one forward and two inverse transforms instead of the
        two forward and two inverse of a Helmholtz then a Poisson solve.
        omega is bit-identical to solve_helmholtz for s > 0; psi differs
        from a Poisson solve of -omega by transform round-off only.
        """
        if self.has_zero_mode:
            raise ConfigurationError("Poisson is singular for a plan with a constant mode")
        if s < 0:
            raise ConfigurationError("anti-diffusion (s < 0) is not allowed")
        omega_hat = self._spectrum(rhs.values, 1.0 - s * self.eigenvalues)
        psi_hat = omega_hat / self.eigenvalues
        np.negative(psi_hat, out=psi_hat)
        omega = ScalarField(self.grid, self._field(omega_hat), self.bc)
        return omega, ScalarField(self.grid, self._field(psi_hat), self.bc)


@lru_cache(maxsize=32)
def plan_for(grid: StripGrid, bc: BoundaryKind) -> EllipticPlan:
    return EllipticPlan(grid, bc)


def poisson_dirichlet(rhs: ScalarField) -> ScalarField:
    """Solve lap(u) = rhs with u = 0 on all four sides."""
    plan = plan_for(rhs.grid, vorticity_bc())
    return plan.solve_poisson(rhs)


def helmholtz_solve(rhs: ScalarField, s: float, bc: BoundaryKind) -> ScalarField:
    """Solve (I - s*lap) u = rhs under bc (Dirichlet parts homogeneous)."""
    plan = plan_for(rhs.grid, bc)
    return plan.solve_helmholtz(rhs, s)


def poincare_mode_constant(bc: BoundaryKind, grid: StripGrid) -> float:
    """1/sqrt(|mu_min|) for the smallest-magnitude nonzero eigenvalue.

    Converges to lam/pi on a long strip with Dirichlet walls.
    """
    plan = plan_for(grid, bc)
    if plan.has_zero_mode:
        raise ConfigurationError("plan has a zero (constant) mode")
    mu = np.abs(plan.eigenvalues)
    mu_min = mu[mu > 0.0].min()
    return float(1.0 / np.sqrt(mu_min))


def linear_lift(grid: StripGrid, left: float, right: float) -> np.ndarray:
    """x-linear field with the given end values, shape (nx, 1).

    Its ghost-aware Laplacian vanishes identically, so subtracting it
    turns an inhomogeneous-Dirichlet solve into a homogeneous one.
    """
    t = (grid.x + grid.a) / (2.0 * grid.a)
    return (left + (right - left) * t)[:, None]
