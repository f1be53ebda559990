"""Steady traveling fronts on the finite strip.

The speed is pinned by the normalization max_{x>=0} T = theta0.
find_front runs two natural-parameter continuations, each stage
warm-started from the previous one:

1. The planar front.  A homotopy parameter tau ramps from the linear
   problem at tau = 0 (no advection, no reaction) to the
   reaction-diffusion front at tau = 1, all at rho = 0.  The tau = 0
   stage is one linear solve on the x-line (tau0_profile) at the speed
   tau0_speed that pins the continuous ramp.
2. The coupled front.  From the planar front with omega = 0, pinned
   stages at tau = 1 on the full grid continue in the Rayleigh number up
   to problem.rho.

A stage that does not converge gets the midpoint of its interval
inserted before it, in tau or in rho (_continue).  tau multiplies the
temperature advection, the reaction and the buoyancy torque; the
vorticity keeps its full advection at every tau.

Planar data (rho * tau = 0, omega = 0 and T constant along z) stay
planar: with Neumann walls and no flow the equations do not couple the
z-nodes.  A stage started from such data therefore solves on the (nx, 1)
x-line and broadcasts its answer over z; the whole planar homotopy runs
there.  The line's matrices are the 1D x-factors whose Kronecker lifts
make the full-grid ones, and the full-grid temperature operator applies
those factors column by column with its z-coupling apart
(_SplitOperator), so on planar data the two agree bit for bit.

Stages with tau > 0 run a bordered semi-smooth Newton iteration on
(T, c) (solve_steady_pinned) with the normalization as phase condition.
Near a front the temperature equation at fixed c is nearly singular
along the translation direction (the position is only exponentially
weakly pinned by the ends of the strip); the border removes that
neutral direction.  Each iteration freezes the flow, takes one Newton
step on (T, c) with the speed change capped, then replaces the
vorticity by the exact solution of its linear equation for the new
temperature (block Gauss-Seidel, no relaxation).  c being a Newton
unknown, no slope of the residual in c is estimated.  The discontinuous
step_linear reaction is handled by active-set linearization: the
ignition mask enters the operator and each solve is exact on its
branch, so the iteration can settle bit-exactly instead of chattering.

Each sweep solves two linear systems, the bordered (T, c) step and the
vorticity, by GMRES (_gmres) preconditioned with their operators
stripped of the flow and of the z-variation of the reaction slope: a
type-1 transform in z (DCT-I for T's Neumann walls, DST-I for omega, the
ones elliptic defines) turns them into one tridiagonal x-solve per
z-mode (_ModeSolve), and the border is added by its Schur complement
(_bordered).  On planar data that preconditioner is the operator itself,
so the x-line stages and tau0_profile solve it directly.  A block whose
GMRES misses its cap (KRYLOV_MAX_ITER iterations to KRYLOV_RTOL) or
returns a non-finite value is solved by sparse LU (_factor) instead, and
stays on LU for the rest of its stage; every factorization of a grid
and block reuses one symmetric minimum-degree order computed from the
5-point pattern alone, so it depends only on its matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgttrf, dgttrs

from .elliptic import COSINE, SINE, _mode_eigenvalues, _z_matrices
from .errors import BracketError, ConfigurationError, NonConvergenceError
from .flow import FlowState, GravityDir, flow_from_streamfunction, velocity_from_vorticity
from .grid import (
    ScalarField,
    StripGrid,
    dx_bc,
    dz_bc,
    temperature_bc,
    vorticity_bc,
)
from .laminar import STEP_LINEAR, ReactionModel


def linear_profile(c: float, a: float, x) -> np.ndarray | float:
    """Advection-diffusion ramp with T(-a) = 1, T(a) = 0, speed c.

    Evaluated via shifted exponents so that c*a up to ~300 stays finite;
    the c -> 0 limit is the straight line (a - x) / (2a).
    """
    x = np.asarray(x, dtype=float)
    if c == 0.0:
        out = (a - x) / (2.0 * a)
    elif abs(c) * a <= 30.0:
        # cancellation-free for small exponents, exact c -> 0 limit
        out = np.expm1(c * (a - x)) / math.expm1(2.0 * c * a)
    elif c > 0:
        e = np.exp(-c * (x + a))
        e2 = math.exp(-2.0 * c * a)
        out = (e - e2) / (1.0 - e2)
    else:
        e = np.exp(c * (a - x))
        e2 = math.exp(2.0 * c * a)
        out = (1.0 - e) / (1.0 - e2)
    return out if out.shape else float(out)


def tau0_speed(theta0: float, a: float) -> float:
    """Speed making the linear ramp hit theta0 at x = 0.

    The midpoint value is strictly decreasing in c, so plain bisection
    on [-50, 50] is safe; tolerance 1e-10.
    """
    if not 0.0 < theta0 < 1.0:
        raise ConfigurationError("theta0 must lie in (0, 1)")
    if a <= 0:
        raise ConfigurationError("a must be positive")
    lo, hi = -50.0, 50.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if linear_profile(mid, a, 0.0) > theta0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tau0_profile(grid: StripGrid, c: float) -> np.ndarray:
    """The tau = 0 stage: the discrete linear problem at speed c.

    -T'' - c T' = 0 with T(-a) = 1, T(a) = 0 has no reaction and no flow,
    so it is one tridiagonal solve on the x-line, clipped to [0, 1] and
    broadcast over z into an array the caller owns.
    """
    line = _operators_for(grid, True).temperature(c).line
    T = np.zeros((grid.nx, 1))
    T[0] = 1.0
    # the pinned end values, moved to the right-hand side
    rhs = -(line @ T)[1:-1, 0]
    T[1:-1, 0] = _ModeSolve(line, 0.0, np.zeros(1))(rhs)
    np.clip(T, 0.0, 1.0, out=T)
    return np.repeat(T, grid.nz, axis=1)


def front_residual(T: ScalarField, theta0: float) -> float:
    """(max of T over nodes with x >= 0) - theta0."""
    keep = T.grid.x >= -1e-12
    return float(T.values[keep, :].max() - theta0)


# midpoints one continuation inserts before a failing stage raises
MAX_HALVINGS = 4

# The cap of every GMRES solve: one cycle of at most KRYLOV_MAX_ITER
# iterations must bring the residual to KRYLOV_RTOL times the right-hand
# side's, else the block escalates to sparse LU.
KRYLOV_MAX_ITER = 40
KRYLOV_RTOL = 1e-12

# the solver that served one block of a sweep
TRANSFORM = "transform"
LU = "lu"


@dataclass(frozen=True)
class SweepRecord:
    """The linear solves of one pinned sweep.

    *_iterations count GMRES iterations (0 for a direct solve); *_solver
    is TRANSFORM when the transform-preconditioned solve served, LU when
    sparse LU did.  omega_solver is None when the vorticity is decoupled.
    """

    tc_iterations: int
    tc_solver: str
    omega_iterations: int
    omega_solver: str | None


@dataclass
class Continuation:
    """Homotopy and inner-iteration settings.

    A pinned stage exits once its update is below inner_tol and its
    normalization residual below c_tol * 0.05 * a * theta0 * (1 - theta0).
    """

    tau_steps: int = 10
    inner_tol: float = 1e-8
    c_tol: float = 1e-4
    max_inner: int = 200

    def __post_init__(self):
        for name in ("tau_steps", "max_inner"):
            value = getattr(self, name)
            # a float (NaN included) would reach range() and np.linspace
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ConfigurationError(f"{name} must be an integer >= 1")
        # each check is written so that NaN fails it
        if not (0.0 < self.inner_tol < math.inf and 0.0 < self.c_tol < math.inf):
            raise ConfigurationError("tolerances must be finite and positive")


@dataclass
class FrontProblem:
    grid: StripGrid
    reaction: ReactionModel
    rho: float = 0.0
    sigma: float = 1.0
    ehat: GravityDir = dc_field(default_factory=lambda: GravityDir(0.0, 1.0))
    continuation: Continuation = dc_field(default_factory=Continuation)

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ConfigurationError("rho must be finite and nonnegative")
        if not 0.0 < self.sigma < math.inf:
            raise ConfigurationError("sigma must be finite and positive")


@dataclass
class FrontSolution:
    """A converged stage; iterations counts its sweeps, sweeps records them.

    find_front fills trace with one (tau, c, normalization residual) per
    converged stage: trace[0] is the tau = 0 profile (tau0_profile) at
    its closed-form speed, then come the tau stages of the planar front
    and the rho stages of the coupled one, the latter recorded at tau = 1.
    """

    c: float
    T: ScalarField
    omega: ScalarField
    flow: FlowState
    tau: float
    residual_T: float
    residual_omega: float
    normalization_residual: float
    iterations: int = 0
    trace: list = dc_field(default_factory=list)
    sweeps: list[SweepRecord] = dc_field(default_factory=list)

    def speed_bracket(self, problem: FrontProblem) -> tuple[float, float]:
        """A-priori speed bounds from the comparison argument."""
        vmax = float(np.abs(self.flow.v.values).max())
        lo = -1.0 - self.tau * vmax
        hi = 1.0 + problem.reaction.M * self.tau + self.tau * vmax
        return lo, hi

    def speed_in_bracket(self, problem: FrontProblem, slack: float = 0.1) -> bool:
        lo, hi = self.speed_bracket(problem)
        pad = slack * (abs(hi - lo) + 1.0)
        return lo - pad <= self.c <= hi + pad


class _Operators:
    """Grid-fixed sparse pieces of the steady operators.

    Full-grid matrices in row-major flattening (idx = i*nz + j); rows at
    Dirichlet-pinned nodes are never used, columns at those nodes feed
    the right-hand side.  With line=True the same matrices are built for
    the (nx, 1) x-line of planar data: one z-node whose z-differences are
    zero, so every matrix is its 1D x-factor.  modes_T and modes_W hold
    the z-Laplacians' eigenvalues and the transforms that diagonalize them.
    """

    def __init__(self, grid: StripGrid, line: bool = False):
        nx, hx = grid.nx, grid.hx
        nz = 1 if line else grid.nz
        Ix = sp.identity(nx, format="csr")
        Iz = sp.identity(nz, format="csr")

        Lx1 = sp.diags([np.ones(nx - 1), np.full(nx, -2.0), np.ones(nx - 1)], [-1, 0, 1]) / hx**2
        Dx1 = sp.diags([-np.ones(nx - 1), np.ones(nx - 1)], [-1, 1]) / (2.0 * hx)

        if line:
            LzT1 = LzW1 = DzTc = DzTf = DzW1 = sp.csr_matrix((1, 1))
            # the line's one z-mode is itself
            self.modes_T = (np.zeros(1), None)
        else:
            hz = grid.hz
            # (eigenvalues, z-transforms) diagonalizing LzT1 and LzW1
            self.modes_T = (_mode_eigenvalues(nz, hz, COSINE), _z_matrices(nz, COSINE))
            self.modes_W = (_mode_eigenvalues(nz, hz, SINE), _z_matrices(nz, SINE))
            LzT1 = sp.lil_matrix((nz, nz))
            for j in range(1, nz - 1):
                LzT1[j, j - 1 : j + 2] = [1.0, -2.0, 1.0]
            LzT1[0, 0], LzT1[0, 1] = -2.0, 2.0
            LzT1[nz - 1, nz - 2], LzT1[nz - 1, nz - 1] = 2.0, -2.0
            LzT1 = (LzT1 / hz**2).tocsr()

            LzW1 = (
                sp.diags([np.ones(nz - 1), np.full(nz, -2.0), np.ones(nz - 1)], [-1, 0, 1]) / hz**2
            )

            DzTc = sp.lil_matrix((nz, nz))
            for j in range(1, nz - 1):
                DzTc[j, j - 1], DzTc[j, j + 1] = -1.0, 1.0
            DzTc = (DzTc / (2.0 * hz)).tocsr()  # wall rows stay zero (even ghost)

            DzTf = sp.lil_matrix((nz, nz))
            for j in range(1, nz - 1):
                DzTf[j, j - 1], DzTf[j, j + 1] = -0.5, 0.5
            DzTf[0, 1] = 1.0  # odd ghost: (g[1] - (-g[1])) / (2 hz)
            DzTf[nz - 1, nz - 2] = -1.0
            DzTf = (DzTf / hz).tocsr()

            DzW1 = sp.diags([-np.ones(nz - 1), np.ones(nz - 1)], [-1, 1]) / (2.0 * hz)

        # the temperature operators keep their x-line factors and their
        # z-coupling apart (_SplitOperator)
        self.Lx1, self.Dx1 = Lx1.tocsr(), Dx1.tocsr()
        self.LZZ_T = sp.kron(Ix, LzT1).tocsr()
        self.LAP_W = (sp.kron(Lx1, Iz) + sp.kron(Ix, LzW1)).tocsr()
        self.DX = sp.kron(Dx1, Iz).tocsr()
        self.DZ_Tc = sp.kron(Ix, DzTc).tocsr()
        self.DZ_Tf = sp.kron(Ix, DzTf).tocsr()
        self.DZ_W = sp.kron(Ix, DzW1).tocsr()

        idx = np.arange(nx * nz).reshape(nx, nz)
        maskT = np.zeros((nx, nz), dtype=bool)
        maskT[1:-1, :] = True
        maskW = np.zeros((nx, nz), dtype=bool)
        maskW[1:-1, 1:-1] = True
        self.unknownT = idx[maskT].ravel()
        self.unknownW = idx[maskW].ravel()
        # unknowns the normalization max_{x>=0} T looks at
        self.right_half = idx[maskT & (grid.x >= -1e-12)[:, None]].ravel()
        self.shape = (nx, nz)

    @property
    def LAP_T(self) -> sp.csr_matrix:
        return (sp.kron(self.Lx1, sp.identity(self.shape[1])) + self.LZZ_T).tocsr()

    # Every system on a grid has the 5-point pattern of its Laplacian, so
    # one fill-reducing order per block serves every factorization.
    @cached_property
    def order_T(self) -> np.ndarray:
        return _min_degree_order(self.LAP_T[self.unknownT][:, self.unknownT])

    @cached_property
    def order_W(self) -> np.ndarray:
        return _min_degree_order(self.LAP_W[self.unknownW][:, self.unknownW])

    def skew_T(self, v: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
        dv = sp.diags(v.ravel())
        dw = sp.diags(w.ravel())
        return 0.5 * (dv @ self.DX + self.DX @ dv + dw @ self.DZ_Tc + self.DZ_Tf @ dw)

    def skew_W(self, v: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
        dv = sp.diags(v.ravel())
        dw = sp.diags(w.ravel())
        return 0.5 * (dv @ self.DX + self.DX @ dv + dw @ self.DZ_W + self.DZ_W @ dw)

    def temperature(self, c: float, advection: sp.spmatrix | None = None) -> "_SplitOperator":
        """-LAP_T - c DX + advection."""
        coupling = -self.LZZ_T if advection is None else advection - self.LZZ_T
        return _SplitOperator((-self.Lx1 - c * self.Dx1).tocsr(), coupling.tocsr())


class _SplitOperator:
    """kron(line, I_z) + diag(diagonal) + coupling, applied term by term.

    line acts along x on every z-column alike.  On data constant along z
    without flow the coupling (z-Laplacian, zero advection) sums to an
    exact 0.0 per row, so the product with a broadcast column is the
    broadcast of the x-line's product bit for bit.  Factorizations take
    merged().
    """

    def __init__(self, line: sp.csr_matrix, coupling: sp.csr_matrix, diagonal=0.0):
        self.line, self.coupling, self.diagonal = line, coupling, diagonal

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        along_x = self.line @ u.reshape(self.line.shape[0], -1)
        return along_x.ravel() + self.coupling @ u + self.diagonal * u

    def shifted(self, diagonal: np.ndarray) -> "_SplitOperator":
        """The operator plus diag(diagonal)."""
        return _SplitOperator(self.line, self.coupling, self.diagonal + diagonal)

    def merged(self) -> sp.csr_matrix:
        n, nx = self.coupling.shape[0], self.line.shape[0]
        lift = self.line if n == nx else sp.kron(self.line, sp.identity(n // nx))
        return (lift + self.coupling + sp.diags(np.broadcast_to(self.diagonal, n))).tocsr()


@lru_cache(maxsize=8)
def _operators_for(grid: StripGrid, line: bool = False) -> _Operators:
    return _Operators(grid, line)


def _min_degree_order(matrix: sp.spmatrix) -> np.ndarray:
    """SuperLU's minimum-degree elimination order on A^T + A.

    scipy reaches SuperLU's orderings only through a factorization; an
    incomplete one that drops every off-diagonal entry returns the order
    for a fraction of the time and memory of a full LU.
    """
    from scipy.sparse.linalg import spilu

    ilu = spilu(
        matrix.tocsc(),
        drop_tol=np.inf,
        fill_factor=1,
        permc_spec="MMD_AT_PLUS_A",
        options=dict(SymmetricMode=True),
    )
    # perm_c[i] is the position of column i in the factored matrix
    return np.argsort(ilu.perm_c)


class _OrderedLU:
    """LU of P A P^T for the elimination order P; solves with A."""

    def __init__(self, lu, order: np.ndarray):
        self.lu, self.order = lu, order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[self.order] = self.lu.solve(rhs[self.order])
        return out


def splu(matrix: sp.spmatrix, **options):
    """scipy's sparse LU, imported on first use: only the LU fallback runs it."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(matrix, **options)


def _factor(matrix: sp.spmatrix, order: np.ndarray) -> _OrderedLU:
    """Sparse LU of a front system under its grid's elimination order.

    The bordered (T, c) system has one row and column more than the
    temperature block its order is for; the border goes last.  Pivots
    stay on the diagonal unless it is 100x smaller than the largest
    entry of its column.
    """
    if matrix.shape[0] > order.size:
        order = np.append(order, order.size)
    permuted = matrix.tocsr()[order][:, order].tocsc()
    lu = splu(
        permuted,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.01,
        options=dict(SymmetricMode=True),
    )
    return _OrderedLU(lu, order)


class _ModeSolve:
    """Inverse of line + diag(shift) - mu_k I on the interior x-nodes of every z-mode k.

    line is an (nx, nx) x-factor whose interior block gives the
    tridiagonal coefficients; shift has one value per interior x-node.
    A right-hand side in the grid's row-major order (interior x, then z)
    is transformed along z, solved for all modes by one LAPACK
    tridiagonal call on the modes laid end to end, and transformed back.
    Without transforms (the x-line's single mode) only the tridiagonal
    solve runs.
    """

    def __init__(self, line: sp.spmatrix, shift, mu: np.ndarray, transforms=None):
        n, m = line.shape[0] - 2, mu.size
        main = (line.diagonal()[1:-1] + shift)[None, :] - mu[:, None]
        # the modes do not couple: a zero closes each block's off-diagonals
        dl, du = (np.tile(np.append(line.diagonal(k)[1:-1], 0.0), m)[:-1] for k in (-1, 1))
        *self.factors, _ = dgttrf(dl, main.ravel(), du)
        self.transforms, self.shape = transforms, (n, m)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        a = rhs.reshape(self.shape)
        if self.transforms is not None:
            a = a @ self.transforms[0]
        modes, _ = dgttrs(*self.factors, a.T.reshape(-1, 1))
        out = modes.reshape(self.shape[::-1]).T
        if self.transforms is not None:
            out = out @ self.transforms[1]
        return out.ravel()


def _bordered(inner, col: np.ndarray, local: int):
    """Inverse of [[M, col], [e_local^T, 0]] given the inverse of M.

    M^-1 col and the Schur complement e_local^T M^-1 col are formed once;
    each application is then one solve with M.
    """
    z = inner(col)
    schur = z[local]

    def apply(r: np.ndarray) -> np.ndarray:
        x = inner(r[:-1])
        y = (x[local] - r[-1]) / schur
        x -= y * z
        return np.append(x, y)

    return apply


def _gmres(matvec, precondition, b: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Right-preconditioned GMRES from zero, one cycle (Saad & Schultz, 1986).

    Returns (x, iterations).  x is None when KRYLOV_MAX_ITER iterations
    do not bring the residual to KRYLOV_RTOL * |b|, or when a value turns
    non-finite.  The Krylov basis is orthogonalized by classical
    Gram-Schmidt run twice, and Givens rotations keep the residual norm
    of the least-squares problem at hand.
    """
    m = KRYLOV_MAX_ITER
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    V = np.empty((m + 1, b.size))
    V[0] = b / beta
    H = np.zeros((m + 1, m))
    g = np.zeros(m + 1)
    g[0] = beta
    cos, sin = np.zeros(m), np.zeros(m)
    for k in range(m):
        w = matvec(precondition(V[k]))
        for _ in range(2):
            h = V[: k + 1] @ w
            w -= h @ V[: k + 1]
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(w)
        if H[k + 1, k] > 0.0:
            V[k + 1] = w / H[k + 1, k]
        for i in range(k):
            H[i, k], H[i + 1, k] = (cos[i] * H[i, k] + sin[i] * H[i + 1, k],
                                    cos[i] * H[i + 1, k] - sin[i] * H[i, k])
        r = math.hypot(H[k, k], H[k + 1, k])
        if not 0.0 < r < math.inf:
            return None, k + 1
        cos[k], sin[k] = H[k, k] / r, H[k + 1, k] / r
        H[k, k] = r
        g[k + 1] = -sin[k] * g[k]
        g[k] *= cos[k]
        if abs(g[k + 1]) <= KRYLOV_RTOL * beta:
            y = solve_triangular(H[: k + 1, : k + 1], g[: k + 1])
            x = precondition(y @ V[: k + 1])
            return (x if np.isfinite(x).all() else None), k + 1
    return None, m


def _flow_of(grid: StripGrid, W: np.ndarray) -> FlowState:
    """The flow of the vorticity W; psi = 0 solves the Poisson problem of W = 0."""
    omega = ScalarField(grid, W, vorticity_bc())
    if W.any():
        return velocity_from_vorticity(omega)
    return flow_from_streamfunction(omega, ScalarField(grid, np.zeros(grid.shape), vorticity_bc()))


def _bordered_system(ops: _Operators, J: _SplitOperator, dFdc: np.ndarray, local: int):
    """(matvec, preconditioner, LU factory) of the bordered (T, c) Newton system.

    The unknowns are T at ops.unknownT followed by c; the border column is
    dFdc and the border row pins the unknown at index local.  The
    preconditioner is the bordered operator with the advection dropped
    and the reaction slope replaced by its z-mean.
    """
    uT = ops.unknownT
    n_all = ops.shape[0] * ops.shape[1]
    shift = np.broadcast_to(J.diagonal, n_all).reshape(ops.shape)[1:-1].mean(axis=1)
    mu, transforms = ops.modes_T
    precondition = _bordered(_ModeSolve(J.line, shift, mu, transforms), dFdc, local)

    def matvec(u):
        full = np.zeros(n_all)
        full[uT] = u[:-1]
        return np.append((J @ full)[uT] + u[-1] * dFdc, u[local])

    def factor():
        col = sp.csc_matrix(dFdc.reshape(-1, 1))
        row = sp.csr_matrix(([1.0], ([0], [local])), shape=(1, uT.size))
        B = sp.bmat([[J.merged()[uT][:, uT], col], [row, sp.csc_matrix((1, 1))]], format="csr")
        return _factor(B, ops.order_T)

    return matvec, precondition, factor


def _vorticity_system(ops: _Operators, B: sp.csr_matrix, sigma: float, c: float):
    """(matvec, preconditioner, LU factory) of B = -sigma LAP_W - c DX + skew_W on ops.unknownW.

    The preconditioner is B without the advection.
    """
    uW, (nx, nz) = ops.unknownW, ops.shape
    mu, transforms = ops.modes_W

    def matvec(u):
        full = np.zeros((nx, nz))
        full[1:-1, 1:-1] = u.reshape(nx - 2, nz - 2)
        return (B @ full.ravel())[uW]

    precondition = _ModeSolve(-sigma * ops.Lx1 - c * ops.Dx1, 0.0, sigma * mu, transforms)
    return matvec, precondition, lambda: _factor(B[uW][:, uW], ops.order_W)


class _StageState:
    """The iterate of one pinned (tau, problem) stage and its assembly.

    Without init, T starts from the linear profile at speed c.  Planar
    data (rho * tau = 0, omega = 0, T constant along z) are solved on the
    (nx, 1) x-line; finish broadcasts them back over z.
    """

    def __init__(self, problem: FrontProblem, tau: float, init, c: float):
        self.problem = problem
        self.tau = tau
        g = problem.grid
        if init is None:
            T = np.repeat(linear_profile(c, g.a, g.x)[:, None], g.nz, axis=1)
            W = np.zeros(g.shape)
        else:
            T = np.array(init[0], dtype=float)
            W = np.array(init[1], dtype=float)
        T[0, :], T[-1, :] = 1.0, 0.0
        W[0, :] = W[-1, :] = W[:, 0] = W[:, -1] = 0.0
        self.line = problem.rho * tau == 0.0 and not W.any() and bool((T == T[:, :1]).all())
        if self.line:
            T, W = T[:, :1].copy(), np.zeros((g.nx, 1))
        self.T, self.W = T, W
        self.ops = _operators_for(g, self.line)
        self.active_set = problem.reaction.kind == STEP_LINEAR
        self.mask_history: list[bytes] = []
        self.mask_frozen = False
        self.mask = problem.reaction.ignited(self.T)
        self.last_A = None
        self.last_B_rhs = None
        self.on_lu: set[str] = set()  # blocks escalated to sparse LU
        self.sweeps: list[SweepRecord] = []

    def solve(self, block: str, rhs: np.ndarray, matvec, precondition, factor):
        """One block's linear solve: (x, GMRES iterations, solver).

        GMRES serves until the block's first miss; that solve and the rest
        of the stage's solves of the block go to factor(), a sparse LU.  On
        the x-line the preconditioner is exact and is applied once.
        """
        iterations = 0
        if block not in self.on_lu:
            if self.line:
                x = precondition(rhs)
                x = x if np.isfinite(x).all() else None
            else:
                x, iterations = _gmres(matvec, precondition, rhs)
            if x is not None:
                return x, iterations, TRANSFORM
            self.on_lu.add(block)
        return factor().solve(rhs), iterations, LU

    def update_mask(self):
        if not self.active_set or self.mask_frozen:
            return
        new = self.problem.reaction.ignited(self.T)
        key = new.tobytes()
        hist = self.mask_history
        # freeze on a 2-cycle: the free boundary sits exactly on a node
        if len(hist) >= 2 and key == hist[-2] and key != hist[-1]:
            self.mask_frozen = True
            return
        self.mask = new
        hist.append(key)
        if len(hist) > 4:
            del hist[0]

    @property
    def decoupled(self) -> bool:
        return self.problem.rho * self.tau == 0.0 and np.abs(self.W).max() == 0.0

    def temperature_operator(self, c: float):
        """-LAP_T - c DX + tau skew_T under the frozen flow; returns (A, v, w).

        A is a _SplitOperator; the velocity (v, w) is None while the
        vorticity is decoupled.
        """
        ops = self.ops
        if self.decoupled:
            return ops.temperature(c), None, None
        flow = _flow_of(self.problem.grid, self.W)
        v, w = flow.v.values, flow.w.values
        return ops.temperature(c, self.tau * ops.skew_T(v, w)), v, w

    def solve_vorticity(self, T: np.ndarray, c: float, v, w):
        """Solve the vorticity equation forced by the buoyancy of T.

        Returns (W_new, dW, GMRES iterations, solver), dW relative to the
        larger of the old and new vorticity, and keeps (B, rhs) for finish;
        a decoupled state keeps W and reports solver None.  The
        preconditioner drops the advection.
        """
        if self.decoupled:
            self.last_B_rhs = None
            return self.W, 0.0, 0, None
        p, g, ops = self.problem, self.problem.grid, self.ops
        uW = ops.unknownW
        T_field = ScalarField(g, T, temperature_bc())
        forcing = p.rho * self.tau * (
            p.ehat.e2 * dx_bc(T_field).values - p.ehat.e1 * dz_bc(T_field).values
        )
        B = (-p.sigma * ops.LAP_W - c * ops.DX + ops.skew_W(v, w)).tocsr()
        rhs_W = forcing.ravel()[uW]
        x, iterations, solver = self.solve("omega", rhs_W, *_vorticity_system(ops, B, p.sigma, c))
        W_new = np.zeros(g.shape)
        W_new.ravel()[uW] = x
        scale_w = max(np.abs(W_new).max(), np.abs(self.W).max(), 1e-8)
        self.last_B_rhs = (B, rhs_W)
        return W_new, float(np.abs(W_new - self.W).max()) / scale_w, iterations, solver

    def finish(self, c: float, iterations: int) -> FrontSolution:
        """The stage's solution as full-grid fields the caller owns."""
        p, g = self.problem, self.problem.grid
        ops, tau, f = self.ops, self.tau, p.reaction
        uT, uW = ops.unknownT, ops.unknownW
        T, W = self.T, self.W
        if self.line:
            T, W = np.repeat(T, g.nz, axis=1), np.zeros(g.shape)
        T_field = ScalarField(g, T, temperature_bc())
        flow = _flow_of(g, W)

        res_T = (self.last_A @ self.T.ravel())[uT] - tau * f(self.T).ravel()[uT]
        residual_T = float(np.abs(res_T).max() * g.hx * g.hz)
        if self.last_B_rhs is None:
            residual_omega = 0.0
        else:
            B, rhs_W = self.last_B_rhs
            res_W = B[uW] @ self.W.ravel() - rhs_W
            residual_omega = float(np.abs(res_W).max() * g.hx * g.hz)

        return FrontSolution(
            c=c,
            T=T_field,
            omega=flow.omega,
            flow=flow,
            tau=tau,
            residual_T=residual_T,
            residual_omega=residual_omega,
            normalization_residual=front_residual(T_field, f.theta0),
            iterations=iterations,
            sweeps=self.sweeps,
        )


def _newton_system(ops: _Operators, A: _SplitOperator, T: np.ndarray, tau: float, f_val, f_der):
    """(F, dF/dc, J) of the temperature equation A T - tau f = 0 at flat T.

    F and the border column dF/dc = -DX T are restricted to the unknowns;
    the Jacobian J = A - tau diag(f') is returned whole, as a
    _SplitOperator.
    """
    uT = ops.unknownT
    F = (A @ T - tau * f_val)[uT]
    dFdc = (-(ops.DX @ T))[uT]
    return F, dFdc, A.shifted(-tau * f_der)


def solve_steady_pinned(
    problem: FrontProblem,
    tau: float,
    c_init: float,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> FrontSolution:
    """Bordered Newton on (T, c) with the normalization as phase condition.

    Each sweep freezes the flow, takes one semi-smooth Newton step on
    the temperature equation extended by the scalar equation
    T(argmax) - theta0 = 0 (the border makes the nearly singular
    translation direction well-conditioned, so the Krylov solve keeps
    it), then replaces the vorticity by the solution of its linear
    equation with the new temperature (no relaxation).  Each sweep's
    linear solves are recorded in sweeps, on the solution or on the
    NonConvergenceError.
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError("pinned solves need tau in (0, 1]")
    cfg = problem.continuation
    g = problem.grid
    f = problem.reaction
    theta0 = f.theta0
    st = _StageState(problem, tau, init, c_init)
    uT, right_half = st.ops.unknownT, st.ops.right_half
    res_tol = cfg.c_tol * (0.05 * g.a * theta0 * (1.0 - theta0))

    c = c_init
    history = []
    for it in range(1, cfg.max_inner + 1):
        A_lin, v, w = st.temperature_operator(c)
        Tflat = st.T.ravel()
        mask_used = st.mask.copy() if st.active_set else None
        if st.active_set:
            m = mask_used.ravel().astype(float)
            f_val = f.amplitude * m * (1.0 - Tflat)
            f_der = -f.amplitude * m
        else:
            f_val = f(st.T).ravel()
            f_der = f.derivative(st.T).ravel()
        F, dFdc, J = _newton_system(st.ops, A_lin, Tflat, tau, f_val, f_der)

        i_star = right_half[np.argmax(Tflat[right_half])]
        res = float(Tflat[i_star] - theta0)

        local = int(np.searchsorted(uT, i_star))
        step, tc_iterations, tc_solver = st.solve(
            "tc", np.append(-F, -res), *_bordered_system(st.ops, J, dFdc, local)
        )
        dT_vec, dc = step[:-1], float(step[-1])

        dc_max = 0.25 * (1.0 + abs(c))
        scale = min(1.0, dc_max / abs(dc)) if dc != 0.0 else 1.0
        T_new = st.T.copy()
        T_new.ravel()[uT] += scale * dT_vec
        np.clip(T_new, 0.0, 1.0, out=T_new)
        dT = float(np.abs(T_new - st.T).max())
        st.T = T_new
        c += scale * dc
        st.update_mask()
        st.last_A = A_lin

        st.W, dW, omega_iterations, omega_solver = st.solve_vorticity(st.T, c, v, w)
        st.sweeps.append(SweepRecord(tc_iterations, tc_solver, omega_iterations, omega_solver))
        history.append(max(dT, dW, abs(dc)))
        res_now = float(st.T.ravel()[right_half].max() - theta0)
        # the ignition set used to build the last solve must agree with
        # the set implied by its own output, else keep iterating
        mask_consistent = (not st.active_set) or bool(
            np.array_equal(mask_used, f.ignited(st.T))
        )
        if history[-1] < cfg.inner_tol and abs(res_now) <= res_tol and mask_consistent:
            return st.finish(c, it)
    raise NonConvergenceError(
        f"pinned Newton stalled at tau={tau:g}: update {history[-1]:.3e}, "
        f"residual {res:.3e}",
        residual_history=history,
        sweeps=st.sweeps,
    )


def _continue(stage, params: list, c: float, init, trace: list) -> FrontSolution:
    """Natural-parameter continuation through params[1:] from (c, init).

    stage(param, c, init) solves at one parameter value; each stage starts
    from the last one's (c, T, omega) and appends (tau, c, normalization
    residual) to trace.  A stage that raises NonConvergenceError gets the
    midpoint of its interval inserted before it, at most MAX_HALVINGS
    times per continuation.
    """
    i = 1
    halvings = 0
    while i < len(params):
        try:
            sol = stage(params[i], c, init)
        except NonConvergenceError:
            if halvings >= MAX_HALVINGS:
                raise
            params.insert(i, 0.5 * (params[i - 1] + params[i]))
            halvings += 1
            continue
        trace.append((sol.tau, sol.c, sol.normalization_residual))
        c, init = sol.c, (sol.T.values, sol.omega.values)
        i += 1
    return sol


def find_front(problem: FrontProblem) -> FrontSolution:
    """Planar front by continuation in tau, then coupling by continuation in rho.

    The tau homotopy runs at rho = 0 from tau0_profile at c0 =
    tau0_speed, so every stage of it solves on the x-line and returns its
    broadcast over z.  From that front with omega = 0, pinned stages at
    tau = 1 step rho up to problem.rho on the full grid; at rho = 0 the
    planar front is the answer.

    The returned trace holds one (tau, c, normalization residual) per
    converged stage: trace[0] is the tau = 0 profile at c0, then the tau
    stages, then the rho stages, each recorded at tau = 1.
    """
    cfg = problem.continuation
    planar = replace(problem, rho=0.0)

    g, theta0 = problem.grid, problem.reaction.theta0
    c0 = tau0_speed(theta0, g.a)
    T0 = tau0_profile(g, c0)
    trace = [(0.0, c0, front_residual(ScalarField(g, T0, temperature_bc()), theta0))]
    sol = _continue(
        lambda tau, c, init: solve_steady_pinned(planar, tau, c, init=init),
        list(np.linspace(0.0, 1.0, cfg.tau_steps + 1)),
        c0,
        (T0, np.zeros(g.shape)),
        trace,
    )
    if problem.rho > 0.0:
        sol = _continue(
            lambda rho, c, init: solve_steady_pinned(
                replace(problem, rho=rho), 1.0, c, init=init
            ),
            [0.0, problem.rho],
            sol.c,
            (sol.T.values, sol.omega.values),
            trace,
        )
    if not sol.speed_in_bracket(problem):
        raise BracketError(
            f"converged speed {sol.c:g} violates the a-priori bracket "
            f"{sol.speed_bracket(problem)}",
            history=trace,
        )
    sol.trace = trace
    return sol
