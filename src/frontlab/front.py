"""Steady traveling fronts on the finite strip.

The speed is pinned by the normalization max_{x>=0} T = theta0.
find_front runs two natural-parameter continuations, each stage
warm-started from the previous one:

1. The planar front.  A homotopy parameter tau ramps from the
   closed-form linear problem at tau = 0 (no advection, no reaction) to
   the reaction-diffusion front at tau = 1, all at rho = 0.  Neumann walls
   and no flow make that front constant in z, so it is computed on a
   strip of PLANAR_NZ z-nodes whenever the grid has at least twice as
   many; its broadcast over z solves the full-grid equations.
2. The coupled front.  From the broadcast planar front with omega = 0,
   pinned stages at tau = 1 on the full grid continue in the Rayleigh
   number up to problem.rho.

A stage that does not converge gets the midpoint of its interval
inserted before it, in tau or in rho (_continue).  tau multiplies the
temperature advection, the reaction and the buoyancy torque; the
vorticity keeps its full advection at every tau.

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
Picard sweeps at fixed speed (solve_steady), relaxed by PICARD_DAMPING
at tau > 0, serve the tau = 0 stage and fixed-c solves only.  Both
iterations share _PicardState's operator and vorticity assembly.

All these systems share the 5-point pattern of their grid, so every
sparse LU (_factor) reuses one symmetric minimum-degree order per block
and grid, computed from the pattern alone: a factorization depends only
on its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from .errors import BracketError, ConfigurationError, NonConvergenceError
from .flow import FlowState, GravityDir, velocity_from_vorticity
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


def front_residual(T: ScalarField, theta0: float) -> float:
    """(max of T over nodes with x >= 0) - theta0."""
    keep = T.grid.x >= -1e-12
    return float(T.values[keep, :].max() - theta0)


# relaxation of solve_steady's fixed-speed sweeps at tau > 0; the pinned
# Newton of the continuation refreshes the vorticity undamped
PICARD_DAMPING = 0.85
# z-nodes of the strip the planar stages of find_front run on: the fewest
# the grid guard allows
PLANAR_NZ = 8
# midpoints one continuation inserts before a failing stage raises
MAX_HALVINGS = 4


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
        if self.tau_steps < 1:
            raise ConfigurationError("tau_steps must be >= 1")
        if self.max_inner < 1:
            raise ConfigurationError("max_inner must be >= 1")
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
    """A converged stage; iterations counts its sweeps.

    find_front fills trace with one (tau, c, normalization residual) per
    converged stage: trace[0] is the tau = 0 stage at its closed-form
    speed, then come the tau stages of the planar front and the rho
    stages of the coupled one, the latter recorded at tau = 1.
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
    the right-hand side.
    """

    def __init__(self, grid: StripGrid):
        nx, nz, hx, hz = grid.nx, grid.nz, grid.hx, grid.hz
        Ix = sp.identity(nx, format="csr")
        Iz = sp.identity(nz, format="csr")

        Lx1 = sp.diags([np.ones(nx - 1), np.full(nx, -2.0), np.ones(nx - 1)], [-1, 0, 1]) / hx**2
        Dx1 = sp.diags([-np.ones(nx - 1), np.ones(nx - 1)], [-1, 1]) / (2.0 * hx)

        LzT1 = sp.lil_matrix((nz, nz))
        for j in range(1, nz - 1):
            LzT1[j, j - 1 : j + 2] = [1.0, -2.0, 1.0]
        LzT1[0, 0], LzT1[0, 1] = -2.0, 2.0
        LzT1[nz - 1, nz - 2], LzT1[nz - 1, nz - 1] = 2.0, -2.0
        LzT1 = (LzT1 / hz**2).tocsr()

        LzW1 = sp.diags([np.ones(nz - 1), np.full(nz, -2.0), np.ones(nz - 1)], [-1, 0, 1]) / hz**2

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

        self.LAP_T = (sp.kron(Lx1, Iz) + sp.kron(Ix, LzT1)).tocsr()
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
        self.knownT = idx[~maskT].ravel()
        self.unknownW = idx[maskW].ravel()
        self.shape = (nx, nz)

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


@lru_cache(maxsize=8)
def _operators_for(grid: StripGrid) -> _Operators:
    return _Operators(grid)


def _min_degree_order(matrix: sp.spmatrix) -> np.ndarray:
    """SuperLU's minimum-degree elimination order on A^T + A.

    scipy reaches SuperLU's orderings only through a factorization; an
    incomplete one that drops every off-diagonal entry returns the order
    for a fraction of the time and memory of a full LU.
    """
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


def _boundary_vector(grid: StripGrid) -> np.ndarray:
    tb = np.zeros(grid.shape)
    tb[0, :] = 1.0
    return tb.ravel()


class _PicardState:
    """Shared machinery for one (tau, problem) inner iteration."""

    def __init__(self, problem: FrontProblem, tau: float, init):
        self.problem = problem
        self.tau = tau
        g = problem.grid
        self.ops = _operators_for(g)
        self.tb = _boundary_vector(g)
        if init is None:
            self.T = np.zeros(g.shape)
            self.W = np.zeros(g.shape)
        else:
            self.T = np.array(init[0], dtype=float)
            self.W = np.array(init[1], dtype=float)
        self.T[0, :], self.T[-1, :] = 1.0, 0.0
        self.W[0, :] = self.W[-1, :] = self.W[:, 0] = self.W[:, -1] = 0.0
        self.active_set = problem.reaction.kind == STEP_LINEAR and tau > 0.0
        self.mask_history: list[bytes] = []
        self.mask_frozen = False
        self.mask = problem.reaction.ignited(self.T)
        self.last_A = None
        self.last_B_rhs = None
        self._lu_cache: dict = {}

    def set_default_profile(self, c: float):
        g = self.problem.grid
        self.T = np.broadcast_to(linear_profile(c, g.a, g.x)[:, None], g.shape).copy()
        self.mask = self.problem.reaction.ignited(self.T)

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

        The velocity (v, w) is None while the vorticity is decoupled.
        """
        ops = self.ops
        A = -ops.LAP_T - c * ops.DX
        if self.decoupled:
            return A.tocsr(), None, None
        flow = velocity_from_vorticity(ScalarField(self.problem.grid, self.W, vorticity_bc()))
        v, w = flow.v.values, flow.w.values
        return (A + self.tau * ops.skew_T(v, w)).tocsr(), v, w

    def solve_vorticity(self, T: np.ndarray, c: float, v, w):
        """Exact solve of the vorticity equation forced by the buoyancy of T.

        Returns (W_new, dW), dW relative to the larger of the old and new
        vorticity, and keeps (B, rhs) for finish; a decoupled state keeps W.
        """
        if self.decoupled:
            self.last_B_rhs = None
            return self.W, 0.0
        p, g, ops = self.problem, self.problem.grid, self.ops
        uW = ops.unknownW
        T_field = ScalarField(g, T, temperature_bc())
        forcing = p.rho * self.tau * (
            p.ehat.e2 * dx_bc(T_field).values - p.ehat.e1 * dz_bc(T_field).values
        )
        B = (-p.sigma * ops.LAP_W - c * ops.DX + ops.skew_W(v, w)).tocsr()
        rhs_W = forcing.ravel()[uW]
        W_new = np.zeros(g.shape)
        W_new.ravel()[uW] = _factor(B[uW][:, uW], ops.order_W).solve(rhs_W)
        scale_w = max(np.abs(W_new).max(), np.abs(self.W).max(), 1e-8)
        self.last_B_rhs = (B, rhs_W)
        return W_new, float(np.abs(W_new - self.W).max()) / scale_w

    def sweep(self, c: float, gamma: float) -> tuple[float, float]:
        """One Picard sweep at speed c relaxed by gamma; returns (dT, dW)."""
        ops, tau, f = self.ops, self.tau, self.problem.reaction
        uT, kT = ops.unknownT, ops.knownT

        A, v, w = self.temperature_operator(c)
        # finish subtracts tau f(T), so the stored operator has no mask term
        self.last_A = A
        if self.active_set:
            amp = f.amplitude
            m = self.mask.ravel().astype(float)
            A = (A + tau * amp * sp.diags(m)).tocsr()
            f_rhs = tau * amp * m
        else:
            f_rhs = tau * f(self.T).ravel()
        rhs = f_rhs[uT] - (A[uT][:, kT] @ self.tb[kT])

        # a decoupled operator changes only with c and the ignition mask
        key = (c, self.mask.tobytes() if self.active_set else None)
        lu = self._lu_cache.get(key) if self.decoupled else None
        if lu is None:
            lu = _factor(A[uT][:, uT], ops.order_T)
            if self.decoupled:
                self._lu_cache = {key: lu}

        T_new = self.T.copy()
        T_new.ravel()[uT] = lu.solve(rhs)
        np.clip(T_new, 0.0, 1.0, out=T_new)
        dT = float(np.abs(T_new - self.T).max())

        # the forcing comes from the undamped T_new
        W_new, dW = self.solve_vorticity(T_new, c, v, w)
        self.T = self.T + gamma * (T_new - self.T)
        self.W = self.W + gamma * (W_new - self.W)
        self.update_mask()
        return dT, dW

    def finish(self, c: float, iterations: int) -> FrontSolution:
        p, g = self.problem, self.problem.grid
        ops, tau, f = self.ops, self.tau, p.reaction
        uT, uW = ops.unknownT, ops.unknownW
        T_field = ScalarField(g, self.T, temperature_bc())
        omega_field = ScalarField(g, self.W, vorticity_bc())
        flow = velocity_from_vorticity(omega_field)

        res_T = self.last_A[uT] @ self.T.ravel() - tau * f(self.T).ravel()[uT]
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
            omega=omega_field,
            flow=flow,
            tau=tau,
            residual_T=residual_T,
            residual_omega=residual_omega,
            normalization_residual=front_residual(T_field, f.theta0),
            iterations=iterations,
        )


def solve_steady(
    problem: FrontProblem,
    c: float,
    tau: float,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> FrontSolution:
    """Damped Picard iteration at fixed speed c.

    Converges fast away from pinned fronts (tau = 0, blown-out profiles,
    or transverse relaxation from a good initial guess).  Driving the
    normalization residual to zero additionally requires the speed
    correction of solve_steady_pinned; a fixed-c iteration relaxes the
    translation mode only at the exponentially slow boundary-pinning
    rate.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError("tau must lie in [0, 1]")
    cfg = problem.continuation
    st = _PicardState(problem, tau, init)
    if init is None:
        st.set_default_profile(c)
    gamma = 1.0 if tau == 0.0 else PICARD_DAMPING
    history = []
    for it in range(1, cfg.max_inner + 1):
        history.append(max(st.sweep(c, gamma)))
        if history[-1] < cfg.inner_tol:
            return st.finish(c, it)
    raise NonConvergenceError(
        f"Picard stalled at tau={tau:g}, c={c:g}: update {history[-1]:.3e}",
        residual_history=history,
    )


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
    translation direction well-conditioned; the bordered matrix is
    factored as a whole), then replaces the vorticity by the exact
    solution of its linear equation with the new temperature (no
    relaxation).
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError("pinned solves need tau in (0, 1]")
    cfg = problem.continuation
    g = problem.grid
    f = problem.reaction
    theta0 = f.theta0
    st = _PicardState(problem, tau, init)
    uT = st.ops.unknownT
    if init is None:
        st.set_default_profile(c_init)

    res_tol = cfg.c_tol * (0.05 * g.a * theta0 * (1.0 - theta0))
    xmask = np.zeros(g.shape, dtype=bool)
    xmask[1:-1, :] = True
    xmask[g.x < -1e-12, :] = False
    flat_region = np.flatnonzero(xmask.ravel())

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
        F = (A_lin @ Tflat - tau * f_val)[uT]
        dFdc = (-(st.ops.DX @ Tflat))[uT]

        i_star = flat_region[np.argmax(Tflat[flat_region])]
        res = float(Tflat[i_star] - theta0)

        J_uu = (A_lin - tau * sp.diags(f_der))[uT][:, uT]
        local = int(np.searchsorted(uT, i_star))
        n = uT.size
        col = sp.csc_matrix(dFdc.reshape(-1, 1))
        row = sp.csr_matrix(([1.0], ([0], [local])), shape=(1, n))
        B = sp.bmat([[J_uu, col], [row, sp.csc_matrix((1, 1))]], format="csr")
        step = _factor(B, st.ops.order_T).solve(np.concatenate([-F, [-res]]))
        dT_vec, dc = step[:n], float(step[n])

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

        st.W, dW = st.solve_vorticity(st.T, c, v, w)
        history.append(max(dT, dW, abs(dc)))
        res_now = float(st.T.ravel()[flat_region].max() - theta0)
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

    The tau homotopy runs at rho = 0, on a strip of PLANAR_NZ z-nodes when
    the grid has at least twice that many.  Its front is constant in z, so
    its broadcast with omega = 0 solves the full-grid equations at rho = 0;
    from there pinned stages at tau = 1 step rho up to problem.rho.  Below
    the size rule the tau homotopy runs on the problem's own grid, and at
    rho = 0 its front is the answer.

    The returned trace holds one (tau, c, normalization residual) per
    converged stage: trace[0] is the tau = 0 stage at c0, then the tau
    stages, then the rho stages, each recorded at tau = 1.
    """
    cfg = problem.continuation
    g = problem.grid
    thin = g.nz >= 2 * PLANAR_NZ
    planar = replace(
        problem, rho=0.0, grid=StripGrid(g.a, g.lam, g.nx, PLANAR_NZ) if thin else g
    )

    c0 = tau0_speed(problem.reaction.theta0, g.a)
    sol = solve_steady(planar, c0, 0.0, init=None)
    trace = [(0.0, c0, sol.normalization_residual)]
    sol = _continue(
        lambda tau, c, init: solve_steady_pinned(planar, tau, c, init=init),
        list(np.linspace(0.0, 1.0, cfg.tau_steps + 1)),
        sol.c,
        (sol.T.values, sol.omega.values),
        trace,
    )
    if thin or problem.rho > 0.0:
        planar_T = np.broadcast_to(sol.T.values[:, :1], g.shape)
        sol = _continue(
            lambda rho, c, init: solve_steady_pinned(
                replace(problem, rho=rho), 1.0, c, init=init
            ),
            [0.0, problem.rho],
            sol.c,
            (planar_T, np.zeros(g.shape)),
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
