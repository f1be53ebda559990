"""Strip discretization, gridded scalar fields, quadrature and stencils.

The domain is the rectangle [-a, a] x [0, lam] with vertex-centered nodes,
so Dirichlet values sit exactly on nodes and the 3-point Laplacian is
diagonalized by discrete sine/cosine modes (see elliptic.py).

All difference operators are second order and centered in the interior.
At the edges dx/dz are one-sided 3-point; dx_bc/dz_bc/laplacian use one
ghost node whose value follows the boundary condition (_ghost_values).
The kernels write the interior by slices and the two end lines from the
ghosts; along z they make one pass over the raveled array and then
rewrite the wall columns.  Quadrature is trapezoidal in both directions,
which keeps the discrete integration-by-parts identities used by the
diagnostics exact (see edge_grad_sq).  node_weights(grid) and grid.x are
computed once per grid and are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
PERIODIC = "periodic"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BCEnd:
    """Boundary condition at one x-end: a pinned value or zero gradient."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN, PERIODIC):
            raise ConfigurationError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundaryKind:
    """Boundary descriptor for a scalar field on the strip.

    z_walls is either "dirichlet_zero" or "neumann_zero"; the x ends carry
    a BCEnd each.  Temperature uses dirichlet(1)/dirichlet(0) ends with
    neumann walls; vorticity and streamfunction are dirichlet-zero on all
    four sides.
    """

    x_left: BCEnd
    x_right: BCEnd
    z_walls: str

    def __post_init__(self):
        if self.z_walls not in ("dirichlet_zero", "neumann_zero"):
            raise ConfigurationError(f"unknown z_walls {self.z_walls!r}")
        if (self.x_left.kind == PERIODIC) != (self.x_right.kind == PERIODIC):
            raise ConfigurationError("periodic x requires both ends periodic")

    @property
    def x_periodic(self) -> bool:
        return self.x_left.kind == PERIODIC

    @property
    def all_neumann(self) -> bool:
        return (
            self.x_left.kind == NEUMANN
            and self.x_right.kind == NEUMANN
            and self.z_walls == "neumann_zero"
        )


def temperature_bc(left: float = 1.0, right: float = 0.0) -> BoundaryKind:
    return BoundaryKind(BCEnd(DIRICHLET, left), BCEnd(DIRICHLET, right), "neumann_zero")


def vorticity_bc() -> BoundaryKind:
    return BoundaryKind(BCEnd(DIRICHLET, 0.0), BCEnd(DIRICHLET, 0.0), "dirichlet_zero")


def all_neumann_bc() -> BoundaryKind:
    return BoundaryKind(BCEnd(NEUMANN), BCEnd(NEUMANN), "neumann_zero")


def periodic_bc() -> BoundaryKind:
    """x wraps node nx-1 onto node 0 (period nx*hx); Neumann walls."""
    return BoundaryKind(BCEnd(PERIODIC), BCEnd(PERIODIC), "neumann_zero")


@dataclass(frozen=True)
class StripGrid:
    """Uniform vertex-centered grid on [-a, a] x [0, lam].

    Spacings are always derived from (a, lam, nx, nz); they are never
    stored and so cannot drift out of sync.
    """

    a: float
    lam: float
    nx: int
    nz: int

    def __post_init__(self):
        if not (self.a > 0 and self.lam > 0):
            raise ConfigurationError("strip dimensions must be positive")
        if self.nx < 8 or self.nz < 8:
            raise ConfigurationError("need at least 8 nodes per direction")
        # the difference operators divide by h**2
        if not all(0.0 < h * h < math.inf for h in (self.hx, self.hz)):
            raise ConfigurationError("grid spacing squared overflows or underflows")

    @property
    def hx(self) -> float:
        return 2.0 * self.a / (self.nx - 1)

    @property
    def hz(self) -> float:
        return self.lam / (self.nz - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Node abscissae; computed once per grid and read-only."""
        return _read_only(np.linspace(-self.a, self.a, self.nx))

    @property
    def z(self) -> np.ndarray:
        return np.linspace(0.0, self.lam, self.nz)

    def mesh(self):
        """(X, Z) arrays of shape (nx, nz)."""
        return np.meshgrid(self.x, self.z, indexing="ij")

    @property
    def shape(self):
        return (self.nx, self.nz)


def make_grid(a: float, lam: float, nx: int, nz: int) -> StripGrid:
    return StripGrid(a=float(a), lam=float(lam), nx=int(nx), nz=int(nz))


@dataclass
class ScalarField:
    """Grid values plus the boundary descriptor they are supposed to obey.

    values has shape (nx, nz), row-major, values[i, j] at (x_i, z_j).
    bc may be None for derived quantities (derivatives, residuals) that
    do not satisfy a boundary condition of their own.
    """

    grid: StripGrid
    values: np.ndarray
    bc: BoundaryKind | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.bc)

    def bc_violation(self) -> float:
        """Max absolute violation of the Dirichlet parts of the bc."""
        if self.bc is None:
            return 0.0
        v = 0.0
        if self.bc.x_left.kind == DIRICHLET:
            v = max(v, float(np.abs(self.values[0, :] - self.bc.x_left.value).max()))
        if self.bc.x_right.kind == DIRICHLET:
            v = max(v, float(np.abs(self.values[-1, :] - self.bc.x_right.value).max()))
        if self.bc.z_walls == "dirichlet_zero":
            v = max(v, float(np.abs(self.values[:, 0]).max()))
            v = max(v, float(np.abs(self.values[:, -1]).max()))
        return v


def constant_field(grid: StripGrid, value: float, bc: BoundaryKind | None = None) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)), bc)


def field_from_function(grid: StripGrid, fn, bc: BoundaryKind | None = None) -> ScalarField:
    X, Z = grid.mesh()
    return ScalarField(grid, np.asarray(fn(X, Z), dtype=float), bc)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


@lru_cache(maxsize=32)
def node_weights(grid: StripGrid) -> np.ndarray:
    """Trapezoidal quadrature weights, shape (nx, nz); computed once, read-only."""
    wx = _trapezoid_weights(grid.nx, grid.hx)
    wz = _trapezoid_weights(grid.nz, grid.hz)
    return _read_only(np.outer(wx, wz))


def integrate(field: ScalarField) -> float:
    """Trapezoidal double integral over the strip; exact for bilinear fields."""
    return float(np.sum(node_weights(field.grid) * field.values))


def _lines(a: np.ndarray, axis: int) -> np.ndarray:
    """a with `axis` first, as a view: index k is the k-th node line."""
    return a if axis == 0 else a.T


def _run(a: np.ndarray, axis: int) -> np.ndarray:
    """a as one sequence of nodes along axis, for the interior passes.

    Along x that is a itself.  Along z, the contiguous axis of a C-ordered
    array, it is the raveled array: one pass over it is cheaper than
    nx short strided ones, and its entries on the two wall columns mix
    neighbouring rows, so the kernels overwrite them from the ghosts.
    """
    return a if axis == 0 else a.reshape(-1)


def _centered(values: np.ndarray, axis: int, scale: float):
    """(f[k+1] - f[k-1]) * scale at the interior nodes of axis.

    Returns the output and the axis-first views of input and output; the
    caller writes the two end lines.
    """
    out = np.empty(values.shape)
    f, o = _run(values, axis), _run(out, axis)
    inner = o[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    inner *= scale
    return out, _lines(values, axis), _lines(out, axis)


def _diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order derivative: centered interior, one-sided 3-point edges."""
    scale = 0.5 / h
    out, f, o = _centered(values, axis, scale)
    o[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) * scale
    o[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) * scale
    return out


def dx(field: ScalarField) -> ScalarField:
    return ScalarField(field.grid, _diff_axis(field.values, field.grid.hx, 0), None)


def dz(field: ScalarField) -> ScalarField:
    return ScalarField(field.grid, _diff_axis(field.values, field.grid.hz, 1), None)


def grad_sq_norm(field: ScalarField) -> float:
    """Integral of |grad f|^2 with the module stencils; nonnegative."""
    g = field.grid
    fx = _diff_axis(field.values, g.hx, 0)
    fz = _diff_axis(field.values, g.hz, 1)
    return float(np.sum(node_weights(g) * (fx * fx + fz * fz)))


def edge_grad_sq(field: ScalarField) -> float:
    """Edge-based Dirichlet energy matched to the 3-point Laplacian.

    Sum over x-edges of wz*(df/hx)^2*hx plus the z-analogue.  For fields
    that vanish on the boundary (or satisfy homogeneous Neumann walls)
    this equals -(f, lap(f)) under trapezoidal weights exactly, which is
    what the discrete energy identities require.
    """
    g = field.grid
    f = field.values
    wz = _trapezoid_weights(g.nz, g.hz)
    wx = _trapezoid_weights(g.nx, g.hx)
    ex = np.diff(f, axis=0)
    ez = np.diff(f, axis=1)
    sx = np.sum((ex * ex) @ wz) / g.hx
    sz = np.sum(wx @ (ez * ez)) / g.hz
    return float(sx + sz)


def _ghost_values(f: np.ndarray, lo_spec, hi_spec):
    """Ghost lines one node beyond each end of axis 0 of f.

    A spec is ("dirichlet", value) -> ghost = 2*value - inner,
    ("neumann", _) -> ghost = inner mirror, ("periodic", _) -> wrap.
    """
    kind_lo, val_lo = lo_spec
    kind_hi, val_hi = hi_spec
    if kind_lo == PERIODIC:
        return f[-1], f[0]
    lo = 2.0 * val_lo - f[1] if kind_lo == DIRICHLET else f[1]
    hi = 2.0 * val_hi - f[-2] if kind_hi == DIRICHLET else f[-2]
    return lo, hi


def _bc_specs(bc: BoundaryKind):
    xlo = (bc.x_left.kind, bc.x_left.value)
    xhi = (bc.x_right.kind, bc.x_right.value)
    if bc.z_walls == "dirichlet_zero":
        zspec = (DIRICHLET, 0.0)
    else:
        zspec = (NEUMANN, 0.0)
    return xlo, xhi, zspec


def _second_difference(values, twice, axis: int, lo_spec, hi_spec) -> np.ndarray:
    """(f[k+1] - 2f[k]) + f[k-1] along axis, end lines from the ghosts."""
    out = np.empty(values.shape)
    f, t, o = _run(values, axis), _run(twice, axis), _run(out, axis)
    inner = o[1:-1]
    np.subtract(f[2:], t[1:-1], out=inner)
    inner += f[:-2]
    f, t, o = _lines(values, axis), _lines(twice, axis), _lines(out, axis)
    lo, hi = _ghost_values(f, lo_spec, hi_spec)
    o[0] = f[1] - t[0] + lo
    o[-1] = hi - t[-1] + f[-2]
    return out


def laplacian(field: ScalarField) -> ScalarField:
    """3-point Laplacian with ghosts consistent with the field's bc.

    This is exactly the operator the spectral plans invert, evaluated on
    the full grid (boundary rows use the ghost extension).
    """
    if field.bc is None:
        raise ConfigurationError("laplacian needs a field with a boundary descriptor")
    g = field.grid
    xlo, xhi, zspec = _bc_specs(field.bc)
    f = field.values
    twice = 2.0 * f
    lap = _second_difference(f, twice, 0, xlo, xhi)
    lap /= g.hx**2
    lap_z = _second_difference(f, twice, 1, zspec, zspec)
    lap_z /= g.hz**2
    lap += lap_z
    return ScalarField(g, lap, None)


def _diff_ghost_axis(values: np.ndarray, h: float, axis: int, lo_spec, hi_spec) -> np.ndarray:
    """Centered derivative everywhere, boundary nodes via ghost extension."""
    scale = 0.5 / h
    out, f, o = _centered(values, axis, scale)
    lo, hi = _ghost_values(f, lo_spec, hi_spec)
    o[0] = (f[1] - lo) * scale
    o[-1] = (hi - f[-2]) * scale
    return out


def dx_bc(field: ScalarField) -> ScalarField:
    """x-derivative using the field's boundary extension at the ends.

    For Dirichlet fields this is the antisymmetric-ghost stencil that
    makes the discrete incompressibility identities exact; interior nodes
    coincide with dx().
    """
    if field.bc is None:
        raise ConfigurationError("dx_bc needs a field with a boundary descriptor")
    xlo, xhi, _ = _bc_specs(field.bc)
    return ScalarField(
        field.grid, _diff_ghost_axis(field.values, field.grid.hx, 0, xlo, xhi), None
    )


def dz_bc(field: ScalarField) -> ScalarField:
    """z-derivative using the field's wall extension (see dx_bc)."""
    if field.bc is None:
        raise ConfigurationError("dz_bc needs a field with a boundary descriptor")
    _, _, zspec = _bc_specs(field.bc)
    return ScalarField(
        field.grid, _diff_ghost_axis(field.values, field.grid.hz, 1, zspec, zspec), None
    )
