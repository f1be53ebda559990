"""Steady front finder: linear stage oracles, Picard solves, continuation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
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
    solve_steady,
    tau0_speed,
)
from frontlab.flow import GravityDir
from frontlab.grid import ScalarField, make_grid, temperature_bc
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


def test_solve_steady_tau_zero_is_linear_stage():
    p = _problem()
    c = tau0_speed(0.25, p.grid.a)
    sol = solve_steady(p, c, 0.0)
    assert sol.iterations <= 2
    expect = linear_profile(c, p.grid.a, p.grid.x)[:, None]
    err = np.abs(sol.T.values - expect).max()
    assert err < 5e-4
    assert np.abs(sol.omega.values).max() == 0.0


def test_solve_steady_tau_zero_refinement_ratio():
    c = tau0_speed(0.25, 20.0)

    def err(nx):
        p = _problem(nx=nx)
        sol = solve_steady(p, c, 0.0)
        expect = linear_profile(c, p.grid.a, p.grid.x)[:, None]
        return np.abs(sol.T.values - expect).max()

    ratio = err(65) / err(129)
    assert 3.6 <= ratio <= 4.4


def test_solve_steady_laminar_embedding():
    # at rho = 0 the planar wave solves the strip problem up to truncation
    r = ReactionModel("step_linear", 0.25)
    prof = laminar_speed(r, tol=1e-6)
    g = make_grid(30.0, 2.0, 241, 9)
    p = FrontProblem(grid=g, reaction=r)
    T0 = np.broadcast_to(profile_eval(prof, g.x)[:, None], g.shape).copy()
    sol = solve_steady(p, prof.c0, 1.0, init=(T0, np.zeros(g.shape)))
    assert np.abs(sol.T.values - sol.T.values[:, :1]).max() < 1e-8  # z-independent
    # the pinned position is hypersensitive to c, so the residual only
    # reflects the O(h^2) speed discretization error; front stays near 0
    assert abs(sol.normalization_residual) < 0.1
    # the stored operator carries no ignition-mask term, so the reaction
    # is subtracted once
    assert sol.residual_T <= 1e-8


def test_solve_steady_fast_speed_blows_front_right():
    p = _problem()
    sol = solve_steady(p, 10.0, 1.0)
    assert front_residual(sol.T, 0.25) < 0.0
    assert sol.T.values.min() >= 0.0 and sol.T.values.max() <= 1.0


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
        continuation=Continuation(c_tol=2e-3, tau_steps=6),
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
    cont = Continuation(c_tol=2e-3, tau_steps=6)
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
    with pytest.raises(ConfigurationError):
        Continuation(tau_steps=0)
    for bad in (dict(max_inner=0), dict(c_tol=math.nan), dict(inner_tol=math.nan),
                dict(c_tol=math.inf)):
        with pytest.raises(ConfigurationError):
            Continuation(**bad)


def test_sparse_operators_match_the_stencil_kernels():
    # the front's Kronecker matrices and the grid/flow kernels are two
    # definitions of one discretization; they must agree on the rows the
    # front solves for (interior x for T, interior nodes for omega)
    from frontlab.flow import advect
    from frontlab.front import _Operators
    from frontlab.grid import dx_bc, laplacian, vorticity_bc

    g = make_grid(4.0, 1.0, 33, 17)
    ops = _Operators(g)
    rng = np.random.default_rng(12)
    f, v, w = (rng.standard_normal(g.shape) for _ in range(3))
    cases = (
        (temperature_bc(), ops.unknownT, ops.LAP_T, ops.skew_T(v, w)),
        (vorticity_bc(), ops.unknownW, ops.LAP_W, ops.skew_W(v, w)),
    )
    for bc, rows, lap, skew in cases:
        field = ScalarField(g, f, bc)
        pairs = (
            (lap, laplacian(field).values),
            (ops.DX, dx_bc(field).values),
            (skew, advect(v, w, field)),
        )
        for matrix, kernel in pairs:
            ref = kernel.ravel()[rows]
            got = (matrix @ f.ravel())[rows]
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
    """(grid, rho, sweeps) of every pinned stage find_front runs, failed ones included."""
    stages = []
    pinned = front.solve_steady_pinned

    def recording(problem, *args, **kwargs):
        try:
            sol = pinned(problem, *args, **kwargs)
        except NonConvergenceError as exc:
            stages.append((problem.grid, problem.rho, len(exc.residual_history)))
            raise
        stages.append((problem.grid, problem.rho, sol.iterations))
        return sol

    monkeypatch.setattr(front, "solve_steady_pinned", recording)
    return stages


@pytest.mark.parametrize("rho, c_before", [(0.3, 0.666384669), (30.0, 4.14349192)])
def test_slanted_front_speed_and_pinned_sweeps(monkeypatch, rho, c_before):
    # c_before was computed with a 0.85-relaxed vorticity refresh,
    # COLAMD-ordered factorizations and every tau stage on the full grid
    # at rho; the planar homotopy on the thin strip followed by the rho
    # continuation must land on the same front
    p = _slanted_problem(129, 17, rho)
    stages = _record_pinned_stages(monkeypatch)
    sol = find_front(p)
    assert sol.tau == 1.0
    assert sol.speed_in_bracket(p)
    assert check_steady_identity(sol, p.reaction) <= 1e-2
    assert abs(sol.c - c_before) <= 1e-6
    strip = make_grid(p.grid.a, p.grid.lam, p.grid.nx, front.PLANAR_NZ)
    planar = [(grid, r) for grid, r, _ in stages if grid != p.grid]
    assert planar == [(strip, 0.0)] * p.continuation.tau_steps
    # the full-grid tau homotopy took 58 (rho = 0.3) and 175 (rho = 30) sweeps
    full_sweeps = sum(n for grid, _, n in stages if grid == p.grid)
    assert full_sweeps <= {0.3: 10, 30.0: 45}[rho]


def test_front_lu_matches_plain_splu_and_is_stateless(monkeypatch):
    p = _slanted_problem(33, 17, 0.3)
    factorizations = []
    counted = front.splu

    def counting(*args, **kwargs):
        factorizations.append(None)
        return counted(*args, **kwargs)

    monkeypatch.setattr(front, "splu", counting)
    stages = _record_pinned_stages(monkeypatch)
    sol = find_front(p)
    # one LU at tau = 0 (reused at its fixed speed) and one bordered (T, c)
    # LU per planar sweep; then per full-grid sweep a bordered and a
    # vorticity LU
    planar = sum(n for grid, _, n in stages if grid != p.grid)
    full = sum(n for grid, _, n in stages if grid == p.grid)
    assert len(factorizations) == 1 + planar + 2 * full
    # no factorization depends on an earlier one: the same problem solved
    # again in the same process gives the same front bit for bit, and the
    # orders come from the grid alone
    assert find_front(p).c == sol.c
    ops = front._operators_for(p.grid)
    for order in ("order_T", "order_W"):
        assert np.array_equal(getattr(front._Operators(p.grid), order), getattr(ops, order))

    g, f = p.grid, p.reaction
    uT, uW, n = ops.unknownT, ops.unknownW, ops.unknownT.size
    v, w = sol.flow.v.values, sol.flow.w.values
    T = sol.T.values.ravel()
    A = -ops.LAP_T - sol.c * ops.DX + ops.skew_T(v, w) - sp.diags(f.derivative(sol.T.values).ravel())
    border_col = sp.csc_matrix((-(ops.DX @ T))[uT].reshape(-1, 1))
    border_row = sp.csr_matrix(([1.0], ([0], [int(np.argmax(T[uT]))])), shape=(1, n))
    bordered = sp.bmat([[A.tocsr()[uT][:, uT], border_col], [border_row, None]], format="csc")
    vorticity = (-p.sigma * ops.LAP_W - sol.c * ops.DX + ops.skew_W(v, w)).tocsr()[uW][:, uW]

    rng = np.random.default_rng(3)
    for matrix, order in ((bordered, ops.order_T), (vorticity, ops.order_W)):
        rhs = rng.standard_normal(matrix.shape[0])
        ref = splu(matrix.tocsc()).solve(rhs)
        got = front._factor(matrix, order).solve(rhs)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["quad_ignition", "step_linear"])
def test_planar_reduction_is_exact(monkeypatch, kind):
    # at rho = 0 the front is constant in z, so the thin strip's front,
    # broadcast over z, solves the full grid's equations: both sides of
    # the size rule give one speed, and the full-grid stage only confirms it
    stages = _record_pinned_stages(monkeypatch)
    own_grid = find_front(_problem(nx=65, nz=9, kind=kind)).c  # below the rule
    for nz in (17, 33):
        p = _problem(nx=65, nz=nz, kind=kind)
        stages.clear()
        assert abs(find_front(p).c - own_grid) <= 1e-10
        assert [(grid, n) for grid, _, n in stages if grid == p.grid] == [(p.grid, 1)]


def test_rho_continuation_inserts_midpoints(monkeypatch):
    p = _slanted_problem(33, 17, 0.3)
    direct = find_front(p)
    pinned = front.solve_steady_pinned
    full_rhos = []

    def failing(times):
        def stage(problem, *args, **kwargs):
            if problem.grid == p.grid:
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
