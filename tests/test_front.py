"""Steady front finder: linear stage oracles, pinned solves, continuation."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as hst
from scipy.sparse.linalg import splu

from frontlab import front
from frontlab.diagnostics import check_steady_identity
from frontlab.errors import ConfigurationError, NonConvergenceError
from frontlab.front import (
    Continuation,
    FrontProblem,
    find_front,
    front_residual,
    linear_profile,
    solve_steady_pinned,
    tau0_profile,
    tau0_speed,
)
from frontlab.flow import GravityDir, advect
from frontlab.grid import (
    ScalarField,
    dx_bc,
    laplacian,
    make_grid,
    temperature_bc,
    vorticity_bc,
)
from frontlab.laminar import ReactionModel, laminar_speed, profile_eval


def test_linear_profile_boundary_values():
    for c in (-3.0, -0.2, 0.0, 0.7, 5.0):
        assert linear_profile(c, 12.0, -12.0) == pytest.approx(1.0, abs=1e-12)
        assert linear_profile(c, 12.0, 12.0) == pytest.approx(0.0, abs=1e-12)


def test_linear_profile_small_c_limit():
    assert linear_profile(0.0, 7.0, 0.0) == 0.5
    # series limit: midpoint value is 1/(exp(c*a)+1) -> 1/2 from below
    assert linear_profile(1e-9, 7.0, 0.0) == pytest.approx(0.5, abs=2e-9)
    assert linear_profile(1e-6, 7.0, 0.0) == pytest.approx(0.5, abs=1e-5)


def test_linear_profile_direct_evaluation():
    # direct formula is finite in doubles at c*a = 20; compare against it
    c, a = 1.0, 20.0
    direct = (1.0 - math.exp(-c * a)) / (math.exp(c * a) - math.exp(-c * a))
    assert direct == pytest.approx(2.061e-9, rel=1e-3)
    assert linear_profile(c, a, 0.0) == pytest.approx(direct, rel=1e-12)


def test_linear_profile_stable_at_large_exponent():
    vals = linear_profile(3.0, 100.0, np.linspace(-100, 100, 501))
    assert np.isfinite(vals).all()
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_tau0_speed_symmetric_threshold():
    assert abs(tau0_speed(0.5, 3.0)) <= 1e-9
    assert abs(tau0_speed(0.5, 40.0)) <= 1e-9


def test_tau0_speed_closed_form():
    # the midpoint value of the ramp is 1/(exp(c*a) + 1), hence
    # c = ln(1/theta0 - 1)/a; derived by simplifying the quotient
    for theta0, a in ((0.25, 20.0), (0.1, 7.0), (0.8, 15.0)):
        expect = math.log(1.0 / theta0 - 1.0) / a
        assert tau0_speed(theta0, a) == pytest.approx(expect, abs=1e-9)


def test_tau0_speed_decreasing_in_theta0():
    speeds = [tau0_speed(t, 10.0) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert np.all(np.diff(speeds) < 0)


def test_front_residual_cases():
    g = make_grid(20.0, 2.0, 65, 9)
    theta0 = 0.25
    c = tau0_speed(theta0, g.a)
    prof = np.broadcast_to(linear_profile(c, g.a, g.x)[:, None], g.shape).copy()
    T = ScalarField(g, prof, temperature_bc())
    assert abs(front_residual(T, theta0)) <= 1e-9
    zeros = ScalarField(g, np.zeros(g.shape))
    ones = ScalarField(g, np.ones(g.shape))
    assert front_residual(zeros, theta0) == pytest.approx(-theta0)
    assert front_residual(ones, theta0) == pytest.approx(1 - theta0)


def _problem(nx=129, nz=9, a=20.0, lam=2.0, rho=0.0, kind="step_linear", **kw):
    g = make_grid(a, lam, nx, nz)
    r = ReactionModel(kind, 0.25)
    return FrontProblem(grid=g, reaction=r, rho=rho, **kw)


def test_tau0_profile_is_linear_stage():
    g = _problem().grid
    c = tau0_speed(0.25, g.a)
    T = tau0_profile(g, c)
    expect = linear_profile(c, g.a, g.x)[:, None]
    assert np.abs(T - expect).max() < 5e-4
    assert T.shape == g.shape and np.array_equal(T, np.broadcast_to(T[:, :1], g.shape))
    assert T.flags.owndata and T.flags.writeable
    # the exact solution of the 3-point scheme: the roots of
    # (1 + c hx/2) r^2 - 2 r + (1 - c hx/2) are 1 and r below
    for nx in (65, 257, 513):
        g = make_grid(20.0, 2.0, nx, 9)
        i, N = np.arange(nx), nx - 1
        for c in (tau0_speed(0.25, g.a), 0.0, -0.3, 2.0):
            if c == 0.0:
                exact = 1.0 - i / N
            else:
                r = (1.0 - 0.5 * c * g.hx) / (1.0 + 0.5 * c * g.hx)
                exact = (r**i - r**N) / (1.0 - r**N)
            assert np.abs(tau0_profile(g, c)[:, 0] - exact).max() <= 1e-12


def test_tau0_profile_refinement_ratio():
    c = tau0_speed(0.25, 20.0)

    def err(nx):
        g = _problem(nx=nx).grid
        expect = linear_profile(c, g.a, g.x)[:, None]
        return np.abs(tau0_profile(g, c) - expect).max()

    ratio = err(65) / err(129)
    assert 3.6 <= ratio <= 4.4


def test_solve_steady_pinned_laminar_embedding():
    # at rho = 0 the planar wave solves the strip problem up to truncation
    r = ReactionModel("step_linear", 0.25)
    prof = laminar_speed(r, tol=1e-6)
    g = make_grid(30.0, 2.0, 241, 9)
    p = FrontProblem(grid=g, reaction=r)
    T0 = np.broadcast_to(profile_eval(prof, g.x)[:, None], g.shape).copy()
    sol = solve_steady_pinned(p, 1.0, prof.c0, init=(T0, np.zeros(g.shape)))
    assert np.abs(sol.T.values - sol.T.values[:, :1]).max() < 1e-8  # z-independent
    # the front stays near x = 0
    assert abs(sol.normalization_residual) < 0.1
    # the stored operator carries no ignition-mask term, so the reaction
    # is subtracted once
    assert sol.residual_T <= 1e-8


def test_find_front_decoupled_recovers_laminar_speed():
    # the ignition interface pinned on a node costs an O(h) speed bias
    # for the discontinuous reaction, so the grid is fine in x
    r = ReactionModel("step_linear", 0.25)
    g = make_grid(20.0, 2.0, 1025, 9)
    p = FrontProblem(grid=g, reaction=r, continuation=Continuation(c_tol=1e-3))
    sol = find_front(p)
    assert sol.tau == 1.0
    assert sol.c == pytest.approx(1.5, abs=0.05)
    assert sol.trace[0][1] == pytest.approx(tau0_speed(0.25, 20.0), abs=1e-9)
    assert abs(sol.normalization_residual) <= 1e-3
    assert sol.speed_in_bracket(p)
    # no reaction right of the normalization point
    f_vals = r(sol.T.values[g.x >= 0, :])
    assert np.abs(f_vals).max() == 0.0


def test_find_front_coupled_small_case():
    r = ReactionModel("quad_ignition", 0.25)
    g = make_grid(15.0, 2.0, 129, 17)
    p = FrontProblem(
        grid=g,
        reaction=r,
        rho=0.4,
        sigma=1.0,
        ehat=GravityDir.normalized(1.0, 1.0),
        continuation=Continuation(c_tol=2e-3),
    )
    sol = find_front(p)
    assert sol.tau == 1.0
    assert sol.c > 0.0
    assert np.abs(sol.omega.values).max() > 1e-6  # genuinely coupled
    assert 0.0 <= sol.T.values.min() and sol.T.values.max() <= 1.0 + 1e-8
    assert sol.speed_in_bracket(p)
    assert abs(sol.normalization_residual) <= 2e-3


def test_flux_identity_and_reaction_floor():
    from frontlab.diagnostics import flux_identity_residual

    r = ReactionModel("quad_ignition", 0.25)
    g = make_grid(20.0, 2.0, 257, 17)
    cont = Continuation(c_tol=2e-3)
    sol0 = find_front(FrontProblem(grid=g, reaction=r, continuation=cont))
    sol1 = find_front(
        FrontProblem(grid=g, reaction=r, rho=0.4,
                     ehat=GravityDir.normalized(1.0, 1.0), continuation=cont)
    )
    assert flux_identity_residual(sol0, r) <= 2e-2
    assert flux_identity_residual(sol1, r) <= 2e-2
    # total reaction stays above half its decoupled value
    from frontlab.grid import ScalarField, integrate

    f0 = integrate(ScalarField(g, r(sol0.T.values)))
    f1 = integrate(ScalarField(g, r(sol1.T.values)))
    assert f1 >= 0.5 * f0
    # ignition never fires right of the normalization point
    assert np.abs(r(sol1.T.values[g.x >= 0, :])).max() == 0.0


def test_front_problem_validation():
    g = make_grid(5.0, 1.0, 33, 9)
    r = ReactionModel("step_linear", 0.25)
    with pytest.raises(ConfigurationError):
        FrontProblem(grid=g, reaction=r, rho=-1.0)
    with pytest.raises(ConfigurationError):
        FrontProblem(grid=g, reaction=r, sigma=0.0)
    for bad in (dict(rho=math.nan), dict(rho=math.inf), dict(sigma=math.nan)):
        with pytest.raises(ConfigurationError):
            FrontProblem(grid=g, reaction=r, **bad)
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            Continuation(c_tol=bad)


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(8, 30),
    nz=hst.integers(8, 16),
    a=hst.floats(1.0, 40.0),
    lam=hst.floats(0.5, 4.0),
    c=hst.floats(-5.0, 5.0),
    tau=hst.floats(0.0, 1.0),
    sigma=hst.floats(0.1, 5.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_operator_products_match_the_stencil_kernels(nx, nz, a, lam, c, tau, sigma, seed):
    # the front's products and the grid/flow kernels define one
    # discretization; they must agree on the rows the front solves for
    # (interior x for T, Neumann wall rows included; interior nodes for
    # omega)
    g = make_grid(a, lam, nx, nz)
    ops = front._Operators(g)
    rng = np.random.default_rng(seed)
    f, v, w = rng.standard_normal((3, nx, nz))
    cases = (
        (temperature_bc(), ops.unknownT, 1.0, ops.temperature),
        (vorticity_bc(), ops.unknownW, sigma, lambda c, adv: ops.vorticity(sigma, c, adv)),
    )
    for bc, rows, diffusion, operator in cases:
        field = ScalarField(g, f, bc)
        product = operator(c, front._Advection(g, bc).load(v, w, tau)) @ f.ravel()
        kernel = (-diffusion * laplacian(field).values - c * dx_bc(field).values
                  + tau * advect(v, w, field))
        ref = kernel.ravel()[rows]
        assert np.abs(product[rows] - ref).max() <= 1e-12 * np.abs(ref).max()


def _slanted_problem(nx, nz, rho):
    # the thm11 setting: a=20, lam=4, quad_ignition, diagonal gravity
    return FrontProblem(
        grid=make_grid(20.0, 4.0, nx, nz),
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=rho,
        ehat=GravityDir.normalized(1.0, 1.0),
        continuation=Continuation(c_tol=1e-3),
    )


def _record_pinned_stages(monkeypatch) -> list:
    """(grid, rho, sweep records) of every pinned stage find_front runs, failed ones included.

    Stages at rho = 0 are the planar ones, which solve on the x-line.
    """
    stages = []
    pinned = front.solve_steady_pinned

    def recording(problem, *args, **kwargs):
        try:
            sol = pinned(problem, *args, **kwargs)
        except NonConvergenceError as exc:
            stages.append((problem.grid, problem.rho, exc.sweeps))
            raise
        assert len(sol.sweeps) == sol.iterations
        stages.append((problem.grid, problem.rho, sol.sweeps))
        return sol

    monkeypatch.setattr(front, "solve_steady_pinned", recording)
    return stages


@pytest.mark.parametrize("rho, c_before", [(0.3, 0.666384669), (30.0, 4.14349192)])
def test_slanted_front_speed_and_pinned_sweeps(monkeypatch, rho, c_before):
    # c_before was computed with a 0.85-relaxed vorticity refresh,
    # COLAMD-ordered factorizations and every tau stage on the full grid
    # at rho; the planar homotopy on the x-line followed by the rho
    # continuation must land on the same front
    p = _slanted_problem(129, 17, rho)
    stages = _record_pinned_stages(monkeypatch)
    sol = find_front(p)
    assert sol.tau == 1.0
    assert sol.speed_in_bracket(p)
    assert check_steady_identity(sol, p.reaction) <= 1e-2
    assert abs(sol.c - c_before) <= 1e-6
    planar = [(grid, r) for grid, r, _ in stages if r == 0.0]
    assert planar == [(p.grid, 0.0)] * front.TAU_STEPS
    # the full-grid tau homotopy took 58 (rho = 0.3) and 175 (rho = 30) sweeps
    full_sweeps = sum(len(sweeps) for _, r, sweeps in stages if r > 0.0)
    assert full_sweeps <= {0.3: 10, 30.0: 45}[rho]


@pytest.mark.parametrize("rho", [0.3, 3.0, 10.0])
def test_inexact_sweeps_keep_the_exact_sweeps_fronts(monkeypatch, rho):
    # each block solves for a Newton correction to the forcing
    # KRYLOV_RTOL of its residual; the sweeps must reach the front and
    # the sweep count of sweeps solved to 1e-12
    p = _slanted_problem(129, 17, rho)
    gmres = front._gmres
    solves = []

    def checked(matvec, precondition, b):
        x, iterations = gmres(matvec, precondition, b)
        if x is not None:
            # the true residual, not GMRES's own estimate of it
            norm_b = np.linalg.norm(b)
            assert np.linalg.norm(b - matvec(x)) <= (front.KRYLOV_RTOL + 1e-12) * norm_b
            solves.append(iterations)
        return x, iterations

    def full_grid_sweeps(stages):
        return [record for _, r, sweeps in stages if r > 0.0 for record in sweeps]

    with monkeypatch.context() as exact:
        exact.setattr(front, "KRYLOV_RTOL", 1e-12)
        exact_stages = _record_pinned_stages(exact)
        exact_c = find_front(p).c
    monkeypatch.setattr(front, "_gmres", checked)
    stages = _record_pinned_stages(monkeypatch)
    sol = find_front(p)
    assert abs(sol.c - exact_c) <= 1e-9 * abs(exact_c)
    assert check_steady_identity(sol, p.reaction) <= 1e-2
    sweeps = full_grid_sweeps(stages)
    assert len(sweeps) == len(full_grid_sweeps(exact_stages))
    assert solves
    if rho == 10.0:
        # solved exactly, the (T, c) block escalates to LU here
        assert all(record.tc_solver == record.omega_solver == front.TRANSFORM
                   for record in sweeps)


def test_front_krylov_matches_plain_splu_and_is_stateless(monkeypatch):
    p = _slanted_problem(33, 17, 0.3)
    factorizations = []
    counted = front.splu

    def counting(*args, **kwargs):
        factorizations.append(None)
        return counted(*args, **kwargs)

    monkeypatch.setattr(front, "splu", counting)
    stages = _record_pinned_stages(monkeypatch)
    sol = find_front(p)
    # tau0_profile and the x-line sweeps solve their tridiagonal systems
    # directly, and GMRES serves every full-grid solve, so no sparse LU runs
    assert not factorizations
    for _, rho, sweeps in stages:
        for record in sweeps:
            assert record.tc_solver == front.TRANSFORM
            if rho == 0.0:
                assert (record.tc_iterations, record.omega_solver) == (0, None)
            else:
                assert record.omega_solver == front.TRANSFORM
                assert 1 <= record.tc_iterations <= front.KRYLOV_MAX_ITER
                assert 1 <= record.omega_iterations <= front.KRYLOV_MAX_ITER
    # no solve depends on an earlier one: the same problem solved again in
    # the same process gives the same front bit for bit, and the LU orders
    # come from the grid alone
    assert find_front(p).c == sol.c
    ops = front._operators_for(p.grid)
    for order in ("order_T", "order_W"):
        assert np.array_equal(getattr(front._Operators(p.grid), order), getattr(ops, order))

    # one Krylov solve of each block at the converged front against splu of
    # the matrix assembled from its products
    f = p.reaction
    uT, uW = ops.unknownT, ops.unknownW
    v, w = sol.flow.v.values, sol.flow.w.values
    T = sol.T.values.ravel()
    col = -dx_bc(sol.T).values.ravel()[uT]
    local = int(np.argmax(T[uT]))
    advect_T = front._Advection(p.grid, temperature_bc()).load(v, w, 1.0)
    advect_W = front._Advection(p.grid, vorticity_bc()).load(v, w, 1.0)
    J = ops.temperature(sol.c, advect_T).shifted(-f.derivative(sol.T.values).ravel())
    B = ops.vorticity(p.sigma, sol.c, advect_W)
    J_uu, B_ww = (front._assemble(front._restricted(op, unknowns, ops.shape), unknowns, ops.shape)
                  for op, unknowns in ((J, uT), (B, uW)))
    border_row = sp.csr_matrix(([1.0], ([0], [local])), shape=(1, uT.size))
    systems = (
        (sp.bmat([[J_uu, col[:, None]], [border_row, None]]),
         front._bordered_system(ops, J, col, local)),
        (B_ww, front._vorticity_system(ops, B, p.sigma)),
    )
    # the sweeps solve to the inexact-Newton forcing; this comparison asks
    # GMRES for the exact solve
    monkeypatch.setattr(front, "KRYLOV_RTOL", 1e-12)
    rng = np.random.default_rng(3)
    for matrix, (matvec, precondition, _) in systems:
        rhs = rng.standard_normal(matrix.shape[0])
        ref = splu(matrix.tocsc()).solve(rhs)
        got, iterations = front._gmres(matvec, precondition, rhs)
        assert 1 < iterations <= front.KRYLOV_MAX_ITER
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_krylov_escalates_to_lu_and_stays_there(monkeypatch):
    p = _slanted_problem(33, 17, 0.3)
    krylov = find_front(p).c
    stages = _record_pinned_stages(monkeypatch)

    def assert_escalated(spent):
        # per full-grid stage and block: transform solves of at most spent
        # iterations, then one solve whose GMRES gave up after spent
        # iterations and went to LU, then LU alone
        full = [sweeps for _, rho, sweeps in stages if rho > 0.0]
        assert full
        for sweeps in full:
            for block in ("tc", "omega"):
                solvers = [getattr(s, f"{block}_solver") for s in sweeps]
                iterations = [getattr(s, f"{block}_iterations") for s in sweeps]
                first = solvers.index(front.LU)
                assert solvers[:first] == [front.TRANSFORM] * first
                assert all(k <= spent for k in iterations[:first])
                assert iterations[first] == spent
                assert solvers[first:] == [front.LU] * (len(sweeps) - first)
                assert iterations[first + 1:] == [0] * (len(sweeps) - first - 1)

    monkeypatch.setattr(front, "KRYLOV_MAX_ITER", 1)
    capped = find_front(p)
    assert abs(capped.c - krylov) <= 1e-9 * abs(krylov)
    assert_escalated(1)

    # a preconditioner that returns non-finite values escalates at its
    # first iteration instead of spreading them
    monkeypatch.undo()
    stages = _record_pinned_stages(monkeypatch)
    mode_solve = front._ModeSolve.__call__

    def poisoned(self, rhs):
        out = mode_solve(self, rhs)
        if self.transforms is not None:
            out[0] = np.nan
        return out

    monkeypatch.setattr(front._ModeSolve, "__call__", poisoned)
    poisoned_sol = find_front(p)
    assert abs(poisoned_sol.c - krylov) <= 1e-9 * abs(krylov)
    assert np.isfinite(poisoned_sol.T.values).all() and np.isfinite(poisoned_sol.omega.values).all()
    assert_escalated(1)
    for _, rho, sweeps in stages:
        if rho > 0.0:
            assert sweeps[0].tc_solver == sweeps[0].omega_solver == front.LU


def test_krylov_sweeps_assemble_no_skew_matrix(monkeypatch):
    # the products apply the frozen flow through the edge-flux kernel:
    # while every block stays on the transform path no matrix is
    # assembled, and a block that escalates to LU assembles its own
    assembled = []
    assemble = front._assemble

    def counting(matvec, unknowns, shape):
        assembled.append(shape)
        return assemble(matvec, unknowns, shape)

    monkeypatch.setattr(front, "_assemble", counting)
    stages = _record_pinned_stages(monkeypatch)
    p = _slanted_problem(129, 17, 0.3)
    sol = find_front(p)
    assert np.abs(sol.omega.values).max() > 0.0
    full = [sweeps for _, rho, sweeps in stages if rho > 0.0]
    assert full
    for sweeps in full:
        for record in sweeps:
            assert record.tc_solver == record.omega_solver == front.TRANSFORM
    assert assembled == []
    monkeypatch.setattr(front, "KRYLOV_MAX_ITER", 1)
    find_front(_slanted_problem(33, 17, 0.3))
    assert assembled


def test_sweep_records_carry_the_stage_updates(monkeypatch):
    # SweepRecord.update is what a stage compares with inner_tol, so a
    # stage's contraction rate can be read from its sweeps alone
    p = _slanted_problem(33, 17, 0.3)
    sol = find_front(p)
    assert len(sol.sweeps) == sol.iterations
    assert sol.sweeps[-1].update < front.INNER_TOL
    # each sweep's new temperature, as the vorticity solve receives it
    temperatures = []
    solve_vorticity = front._StageState.solve_vorticity

    def recording(self, T, *args):
        temperatures.append(T.copy())
        return solve_vorticity(self, T, *args)

    monkeypatch.setattr(front._StageState, "solve_vorticity", recording)
    monkeypatch.setattr(front, "MAX_SWEEPS", 3)
    starved = replace(p, continuation=Continuation(c_tol=1e-3))
    # from the front squared, whose normalization residual is far from 0
    with pytest.raises(NonConvergenceError) as info:
        solve_steady_pinned(starved, 1.0, sol.c * 1.5,
                            init=(sol.T.values**2, np.zeros(p.grid.shape)))
    err = info.value
    assert len(err.sweeps) == 3
    assert err.residual_history == [s.update for s in err.sweeps]
    assert err.sweeps[-1].update >= front.INNER_TOL
    # the message reports the normalization residual of the last sweep's
    # temperature, the one the exit test compared, not the one before it
    residuals = [front_residual(ScalarField(p.grid, T, temperature_bc()), p.reaction.theta0)
                 for T in temperatures[-2:]]
    assert f"residual {residuals[-1]:.3e}" in str(err)
    assert f"residual {residuals[0]:.3e}" not in str(err)


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(9, 30),
    nz=hst.integers(8, 16),
    a=hst.floats(1.0, 40.0),
    lam=hst.floats(0.5, 4.0),
    c=hst.floats(-5.0, 5.0),
    tau=hst.floats(0.0, 1.0),
    sigma=hst.floats(0.1, 5.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_kernel_products_match_the_lu_matrices(nx, nz, a, lam, c, tau, sigma, seed):
    # an LU factors the matrix _assemble recovers from a block's products;
    # it must be that product's matrix on every unknown (T's Neumann wall
    # rows included), on the full grid and on the x-line, and its pattern
    # must not depend on the flow
    g = make_grid(a, lam, nx, nz)
    ops = front._Operators(g)
    rng = np.random.default_rng(seed)
    v, w = rng.standard_normal((2, nx, nz))
    line = front._Operators(g, line=True)
    blocks = [(line.temperature(c).shifted(rng.standard_normal(nx)), line.unknownT, line.shape)]
    for scale in (tau, 0.0):
        advect_T = front._Advection(g, temperature_bc()).load(v * scale, w * scale, tau)
        advect_W = front._Advection(g, vorticity_bc()).load(v * scale, w * scale, 1.0)
        blocks += [
            (ops.temperature(c, advect_T).shifted(rng.standard_normal(nx * nz)), ops.unknownT,
             ops.shape),
            (ops.vorticity(sigma, c, advect_W), ops.unknownW, ops.shape),
        ]
    matrices = []
    for operator, unknowns, shape in blocks:
        matvec = front._restricted(operator, unknowns, shape)
        matrix = front._assemble(matvec, unknowns, shape)
        u = rng.standard_normal(unknowns.size)
        ref = matvec(u)
        assert np.abs(matrix @ u - ref).max() <= 1e-12 * np.abs(ref).max()
        matrices.append(matrix)
    for flowing, still in zip(matrices[1:3], matrices[3:]):
        assert np.array_equal(flowing.indptr, still.indptr)
        assert np.array_equal(flowing.indices, still.indices)

    # the bordered (T, c) factory stacks the border onto the assembled block
    J, col = blocks[1][0], rng.standard_normal(ops.unknownT.size)
    local = int(rng.integers(ops.unknownT.size))
    systems = (
        front._bordered_system(ops, J, col, local),
        front._vorticity_system(ops, blocks[2][0], sigma),
    )
    with mock.patch.object(front, "_factor", lambda matrix, order: matrix):
        for matvec, _, assemble in systems:
            matrix = assemble()
            u = rng.standard_normal(matrix.shape[0])
            ref = matrix @ u
            assert np.abs(matvec(u) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["quad_ignition", "step_linear"])
def test_planar_reduction_is_exact(monkeypatch, kind):
    # at rho = 0 the front is constant in z, so the x-line's front,
    # broadcast over z, solves the full grid's equations: every nz gives
    # one speed, and no stage runs on the full grid
    stages = _record_pinned_stages(monkeypatch)
    narrow = find_front(_problem(nx=65, nz=9, kind=kind)).c
    for nz in (17, 33):
        p = _problem(nx=65, nz=nz, kind=kind)
        stages.clear()
        assert abs(find_front(p).c - narrow) <= 1e-10
        assert stages and all(r == 0.0 for _, r, _ in stages)


def test_rho_continuation_inserts_midpoints(monkeypatch):
    p = _slanted_problem(33, 17, 0.3)
    direct = find_front(p)
    pinned = front.solve_steady_pinned
    full_rhos = []

    def failing(times):
        def stage(problem, *args, **kwargs):
            if problem.rho > 0.0:
                full_rhos.append(problem.rho)
                if len(full_rhos) <= times:
                    raise NonConvergenceError("forced", residual_history=[1.0])
            return pinned(problem, *args, **kwargs)

        return stage

    monkeypatch.setattr(front, "solve_steady_pinned", failing(1))
    sol = find_front(p)
    assert full_rhos == [p.rho, p.rho / 2, p.rho]
    assert abs(sol.c - direct.c) <= 1e-9
    # the rho stages are recorded at tau = 1 after the planar ones
    assert len(sol.trace) == len(direct.trace) + 1
    assert sol.trace[:-2] == direct.trace[:-1]
    assert [entry[0] for entry in sol.trace[-2:]] == [1.0, 1.0]

    # a stage that never converges raises after four halvings toward rho = 0
    full_rhos.clear()
    monkeypatch.setattr(front, "solve_steady_pinned", failing(math.inf))
    with pytest.raises(NonConvergenceError):
        find_front(p)
    assert full_rhos == [p.rho / 2**k for k in range(5)]


# A z-constant temperature in [0, 1], kept out of the subnormal range so
# that the z-Laplacian's row sums (-p + 2p - p) are exact
_planar_values = hst.floats(0.0, 1.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(9, 40),
    nz=hst.integers(8, 20),
    a=hst.floats(1.0, 40.0),
    lam=hst.floats(0.5, 4.0),
    kind=hst.sampled_from(["quad_ignition", "step_linear"]),
    c=hst.floats(-5.0, 5.0),
    tau=hst.floats(0.0, 1.0),
    data=hst.data(),
)
def test_line_system_is_the_planar_full_grid_system(nx, nz, a, lam, kind, c, tau, data):
    # on z-constant data without flow the full-grid Newton system is the
    # broadcast of the x-line's, bit for bit: residual, border column and
    # the Jacobian applied term by term
    g = make_grid(a, lam, nx, nz)
    r = ReactionModel(kind, 0.25)
    line = data.draw(hst.lists(_planar_values, min_size=nx, max_size=nx))
    step = data.draw(hst.lists(_planar_values, min_size=nx, max_size=nx))
    T_line = np.array(line)[:, None]
    u_line = np.array(step)[:, None]
    u_line[[0, -1]] = 0.0  # J_uu acts on the unknowns only

    def system(ops, T, u):
        A = ops.temperature(c)
        F, col, J = front._newton_system(ops, A, T.ravel(), tau, r(T).ravel(),
                                         r.derivative(T).ravel())
        return F, col, (J @ u.ravel())[ops.unknownT]

    on_line = system(front._Operators(g, line=True), T_line, u_line)
    on_grid = system(front._Operators(g), np.repeat(T_line, nz, axis=1),
                     np.repeat(u_line, nz, axis=1))
    for got, ref in zip(on_grid, on_line):
        assert np.array_equal(got.reshape(nx - 2, nz),
                              np.broadcast_to(ref[:, None], (nx - 2, nz)))


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(9, 40),
    nz=hst.integers(8, 20),
    a=hst.floats(1.0, 40.0),
    lam=hst.floats(0.5, 4.0),
    kind=hst.sampled_from(["quad_ignition", "step_linear"]),
    c=hst.floats(-5.0, 5.0),
    tau=hst.floats(0.0, 1.0),
    data=hst.data(),
)
def test_bordered_preconditioner_inverts_the_planar_jacobian(nx, nz, a, lam, kind, c, tau, data):
    # on z-constant T without flow the transform-tridiagonal preconditioner
    # is the bordered Jacobian's exact inverse, on the x-line and on the
    # full grid, for any step (z-varying on the full grid).  T is a
    # monotone front from 1 to 0, bordered where the solver borders it.
    g = make_grid(a, lam, nx, nz)
    r = ReactionModel(kind, 0.25)
    line = data.draw(hst.lists(_planar_values, min_size=nx - 2, max_size=nx - 2))
    T_line = np.array([1.0, *sorted(line, reverse=True), 0.0])[:, None]
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    for ops, T in ((front._Operators(g, line=True), T_line),
                   (front._Operators(g), np.repeat(T_line, nz, axis=1))):
        _, col, J = front._newton_system(ops, ops.temperature(c), T.ravel(), tau,
                                         r(T).ravel(), r.derivative(T).ravel())
        i_star = ops.right_half[np.argmax(T.ravel()[ops.right_half])]
        local = int(np.searchsorted(ops.unknownT, i_star))
        matvec, precondition, _ = front._bordered_system(ops, J, col, local)
        u = rng.standard_normal(ops.unknownT.size + 1)
        assert np.abs(precondition(matvec(u)) - u).max() <= 1e-10 * np.abs(u).max()


# c of the parent code's 2D planar homotopy on 65 x nz (a = 20, lam = 2)
_SPEEDS_2D = {
    "quad_ignition": {9: 0.6537353880570753, 17: 0.6537353880570613, 33: 0.6537353880570854},
    "step_linear": {9: 1.024442192132352, 17: 1.0244421921323406, 33: 1.024442192132333},
}


@pytest.mark.parametrize("kind", ["quad_ignition", "step_linear"])
def test_line_path_keeps_the_2d_speeds(kind):
    for nz, c_2d in _SPEEDS_2D[kind].items():
        sol = find_front(_problem(nx=65, nz=nz, kind=kind))
        assert abs(sol.c - c_2d) <= 1e-10
        T = sol.T.values
        assert T.shape == (65, nz) and np.array_equal(T, np.broadcast_to(T[:, :1], T.shape))


def test_decoupled_finish_returns_zero_flow_and_owned_fields(monkeypatch):
    def no_poisson(omega):
        raise AssertionError("a decoupled stage needs no velocity solve")

    monkeypatch.setattr(front, "velocity_from_vorticity", no_poisson)
    on_line = []
    operators_for = front._operators_for
    monkeypatch.setattr(front, "_operators_for",
                        lambda grid, line=False: on_line.append(line) or operators_for(grid, line))
    p = _problem(nx=65, nz=9, kind="quad_ignition")
    sols = [find_front(p)]
    assert on_line and all(on_line)
    # a T that varies along z is solved on the full grid, with omega = 0 too
    T0 = np.repeat(linear_profile(0.5, p.grid.a, p.grid.x)[:, None], p.grid.nz, axis=1)
    T0[1:-1, 0] *= 0.9
    sols.append(solve_steady_pinned(p, 0.1, 0.5, init=(T0, np.zeros(p.grid.shape))))
    assert on_line[-1] is False
    for sol in sols:
        flow = sol.flow
        for field in (sol.omega, flow.omega, flow.psi, flow.v, flow.w):
            assert field.values.shape == p.grid.shape and not field.values.any()
        for field in (sol.T, sol.omega):
            assert field.values.flags.owndata and field.values.flags.writeable


def test_stage_with_zero_vorticity_skips_the_poisson_solve(monkeypatch):
    # the first full-grid rho stage starts from the planar front with
    # omega = 0, whose flow is zero without a Poisson solve
    velocity = front.velocity_from_vorticity

    def nonzero_only(omega):
        assert omega.values.any(), "omega = 0 needs no Poisson solve"
        return velocity(omega)

    monkeypatch.setattr(front, "velocity_from_vorticity", nonzero_only)
    sol = find_front(_slanted_problem(33, 17, 0.3))
    assert sol.omega.values.any()
