"""Fast direct solvers for Poisson and implicit-diffusion problems.

The plans diagonalize the 3-point finite-difference Laplacian, not the
continuum operator: DST-I modes are its exact eigenvectors under
Dirichlet ends, DCT-I modes under reflective Neumann ends, and real
Fourier modes under a periodic x (nx distinct nodes, period nx*hx).
Solves are therefore exact relative to the stencils, up to transform
round-off.

The wall-normal (z) axis is short, so its transform is a dense matrix
product: each plan applies scipy's own type-1 DCT/DST to the identity
once and multiplies by the result, which keeps one definition of the
transform and costs one BLAS call per pass.  The x-axis, long in every
use, goes through scipy's FFTs.  A plan runs z first on the way in and x
first on the way out, and keeps 1/(1 - s*mu) for the diffusion numbers s
it has recently seen.

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
    laplacian,
    vorticity_bc,
)

SINE = "sine"
COSINE = "cosine"
_AXIS_KINDS = {DIRICHLET: SINE, NEUMANN: COSINE, PERIODIC: PERIODIC}
_TRANSFORMS = {SINE: (dst, idst), COSINE: (dct, idct)}
_RECIPROCALS_KEPT = 4  # 1/(1 - s*mu) arrays per plan; the oldest s is dropped first


def _mode_eigenvalues(n: int, h: float, kind: str) -> np.ndarray:
    """Eigenvalues of the 1D 3-point Laplacian under the given transform."""
    if kind == PERIODIC:
        k, period = np.arange(n // 2 + 1), n
    else:
        k = np.arange(1, n - 1) if kind == SINE else np.arange(n)
        period = 2.0 * (n - 1)
    return -(4.0 / h**2) * np.sin(np.pi * k / period) ** 2


def _z_matrices(nz: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) type-1 transforms along z as right factors.

    a @ forward equals scipy's dct/dst(a, type=1, axis=1) because the
    matrices are those transforms applied to the identity.
    """
    forward, inverse = _TRANSFORMS[kind]
    eye = np.eye(nz - 2 if kind == SINE else nz)
    return forward(eye, type=1, axis=1), inverse(eye, type=1, axis=1)


class EllipticPlan:
    """Transform plan for one (grid, bc) pair.

    Dirichlet directions transform the interior nodes with DST-I; Neumann
    directions transform all nodes with DCT-I; a periodic x transforms
    all nodes with the real FFT.  Dirichlet boundary values are treated
    as homogeneous; callers lift inhomogeneities.

    The z-pass is one product with a small cached matrix (nz x nz, or
    (nz-2) x (nz-2) for DST-I), which beats an FFT on the short z-axis.
    Transforms run z first on the way in and x first on the way out, so
    a periodic plan hands rfft/irfft real z-spectra and no complex array
    ever meets a DCT.  The plan keeps 1/(1 - s*mu) for the last few s
    it solved with, which both Helmholtz solves share; that memo is the
    plan's only mutable state and never changes a result.  Results are
    new arrays whose unknowns the inverse z-pass writes directly; callers
    that solve repeatedly may lend a scratch array for the spectrum.
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
        if self.x_kind == PERIODIC:
            self._x_forward, self._x_inverse = rfft, partial(irfft, n=grid.nx)
        else:
            forward, inverse = _TRANSFORMS[self.x_kind]
            self._x_forward, self._x_inverse = partial(forward, type=1), partial(inverse, type=1)
        self._z_forward, self._z_inverse = _z_matrices(grid.nz, self.z_kind)
        self._reciprocals: dict[float, np.ndarray] = {}

    @property
    def has_zero_mode(self) -> bool:
        return self.x_kind != SINE and self.z_kind == COSINE

    @property
    def unknowns_shape(self) -> tuple[int, int]:
        """Shape of the nodes the plan solves for, and of its real spectra."""
        nx, nz = self.grid.shape
        return (nx - 2 if self.x_kind == SINE else nx, nz - 2 if self.z_kind == SINE else nz)

    def _unknowns(self, rhs: np.ndarray) -> np.ndarray:
        return rhs[self._xsl, self._zsl]

    def _forward(self, a: np.ndarray, spectrum: np.ndarray | None = None) -> np.ndarray:
        """Spectrum of the unknowns a, computed in `spectrum` if one is given.

        spectrum is real scratch of unknowns_shape.  The sine and cosine
        x-passes run in place there; a periodic one returns a new complex
        array.
        """
        product = np.matmul(a, self._z_forward, out=spectrum)
        return self._x_forward(product, axis=0, overwrite_x=True)

    def _inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse transforms; a is a spectrum the plan may overwrite."""
        return self._x_inverse(a, axis=0, overwrite_x=True) @ self._z_inverse

    def _field(self, spectrum: np.ndarray) -> np.ndarray:
        """Full-grid values of a spectrum, zero on the Dirichlet boundary.

        The inverse z-pass writes the unknowns of a new array directly;
        only the Dirichlet boundary lines are set besides.  The array is
        allocated after the x-pass: allocated before, it leaves the
        periodic x-pass's temporary on top of the heap, and freeing that
        trims the heap on every solve (~220 page faults per 512x65 step).
        """
        a = self._x_inverse(spectrum, axis=0, overwrite_x=True)
        out = np.empty(self.grid.shape)
        np.matmul(a, self._z_inverse, out=out[self._xsl, self._zsl])
        if self.x_kind == SINE:
            out[0] = out[-1] = 0.0
        if self.z_kind == SINE:
            out[:, 0] = out[:, -1] = 0.0
        return out

    def _helmholtz_spectrum(
        self, rhs: np.ndarray, s: float, spectrum: np.ndarray | None
    ) -> np.ndarray:
        """Spectrum of u where (I - s*lap) u = rhs on the plan's lattice."""
        recip = self._reciprocals.get(s)
        if recip is None:
            if len(self._reciprocals) == _RECIPROCALS_KEPT:
                del self._reciprocals[next(iter(self._reciprocals))]
            recip = self._reciprocals[s] = 1.0 / (1.0 - s * self.eigenvalues)
        spectrum = self._forward(self._unknowns(rhs), spectrum)
        spectrum *= recip
        return spectrum

    def solve_poisson(self, rhs: ScalarField) -> ScalarField:
        if self.has_zero_mode:
            raise ConfigurationError("Poisson is singular for a plan with a constant mode")
        spectrum = self._forward(self._unknowns(rhs.values))
        spectrum /= self.eigenvalues
        return ScalarField(self.grid, self._field(spectrum), self.bc)

    def solve_helmholtz(
        self, rhs: ScalarField, s: float, spectrum: np.ndarray | None = None
    ) -> ScalarField:
        """(I - s*lap) u = rhs; spectrum is optional scratch (see _forward)."""
        if s < 0:
            raise ConfigurationError("anti-diffusion (s < 0) is not allowed")
        if s == 0.0:
            return ScalarField(self.grid, rhs.values.copy(), self.bc)
        spectrum = self._helmholtz_spectrum(rhs.values, s, spectrum)
        return ScalarField(self.grid, self._field(spectrum), self.bc)

    def solve_helmholtz_streamfunction(
        self, rhs: ScalarField, s: float, spectrum: np.ndarray | None = None
    ) -> tuple[ScalarField, ScalarField]:
        """(omega, psi): (I - s*lap) omega = rhs and lap(psi) = -omega.

        psi comes from the Helmholtz spectrum, psi_hat = -rhs_hat/((1 -
        s*mu)*mu), by one forward and one inverse transform.  omega is then
        -lap(psi) by the 3-point stencils, which the plan inverts exactly:
        it equals solve_helmholtz up to transform round-off, and vanishes
        on the boundary exactly.  spectrum is optional scratch.
        """
        if self.has_zero_mode:
            raise ConfigurationError("Poisson is singular for a plan with a constant mode")
        if s < 0:
            raise ConfigurationError("anti-diffusion (s < 0) is not allowed")
        spectrum = self._helmholtz_spectrum(rhs.values, s, spectrum)
        spectrum /= self.eigenvalues
        np.negative(spectrum, out=spectrum)
        psi = ScalarField(self.grid, self._field(spectrum), self.bc)
        omega = laplacian(psi).values
        np.negative(omega, out=omega)
        return ScalarField(self.grid, omega, self.bc), psi


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
