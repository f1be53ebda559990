"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from frontlab.diagnostics import check_steady_identity, nz_norm
from frontlab.elliptic import poisson_dirichlet
from frontlab.evolve import SimConfig, init_front_like, step
from frontlab.flow import GravityDir, buoyancy_torque, weighted_inner
from frontlab.front import Continuation, FrontProblem, find_front, linear_profile, tau0_profile, tau0_speed
from frontlab.grid import (
    ScalarField,
    edge_grad_sq,
    field_from_function,
    laplacian,
    make_grid,
    vorticity_bc,
)
from frontlab.harness import (
    SweepSpec,
    verify_burning_rate_perturbation,
    verify_flow_uniform_decay,
    verify_narrow_planarity,
    verify_nash_ratio,
    verify_nonplanar_front,
)
from frontlab.io import render_report
from frontlab import io as fio
from frontlab.laminar import ReactionModel, laminar_speed


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def decoupled_front():
    grid = make_grid(40.0, 4.0, 4097, 9)
    problem = FrontProblem(
        grid=grid,
        reaction=ReactionModel("step_linear", 0.25),
        continuation=Continuation(c_tol=1e-3),
    )
    t0 = time.perf_counter()
    sol = find_front(problem)
    return problem, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def convective_report():
    problem = FrontProblem(
        grid=make_grid(40.0, 4.0, 513, 65),
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=0.3,
        sigma=1.0,
        ehat=GravityDir.normalized(1.0, 1.0),
        continuation=Continuation(c_tol=1e-3),
    )
    t0 = time.perf_counter()
    report = verify_nonplanar_front(problem)
    return problem, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def moderate_front():
    problem = FrontProblem(
        grid=make_grid(30.0, 2.0, 385, 33),
        reaction=ReactionModel("quad_ignition", 0.25),
        rho=0.1,
        ehat=GravityDir.normalized(1.0, 1.0),
        continuation=Continuation(c_tol=1e-3),
    )
    return problem, find_front(problem)


@pytest.fixture(scope="module")
def burning_rate_report():
    t0 = time.perf_counter()
    report = verify_burning_rate_perturbation(
        grid=make_grid(40.0, 4.0, 513, 65),
        reaction=ReactionModel("quad_ignition", 0.25),
        sweep=SweepSpec("rho", [0.0, 0.05, 0.1, 0.2], window=(30.0, 60.0)),
        dt=0.02,
    )
    return report, time.perf_counter() - t0


def test_criterion_01_laminar_speed_oracle():
    t0 = time.perf_counter()
    prof = laminar_speed(ReactionModel("step_linear", 0.25), tol=1e-4)
    elapsed = time.perf_counter() - t0
    c_exact = 0.75 / math.sqrt(0.25)  # branch matching of the linear problem
    ok = abs(prof.c0 - c_exact) <= 1e-3 and elapsed < 1.0
    _verdict(1, ok, f"c0={prof.c0:.6f} vs {c_exact} in {elapsed:.2f}s")


def test_criterion_02_tau0_exactness():
    theta0, a, lam = 0.25, 40.0, 4.0
    t0 = time.perf_counter()
    c_star = tau0_speed(theta0, a)
    tau0_profile(make_grid(a, lam, 513, 17), c_star)
    elapsed = time.perf_counter() - t0

    # the continuation trace starts the homotopy at exactly this speed
    full = find_front(
        FrontProblem(
            grid=make_grid(a, lam, 129, 9),
            reaction=ReactionModel("step_linear", theta0),
            continuation=Continuation(c_tol=1e-3, tau_steps=4),
        )
    )
    c_trace = full.trace[0][1]

    def stage_error(nx):
        g = make_grid(a, lam, nx, 17)
        expect = linear_profile(c_star, a, g.x)[:, None]
        return np.abs(tau0_profile(g, c_star) - expect).max()

    ratio = stage_error(257) / stage_error(513)
    ok = (
        abs(c_trace - c_star) <= 1e-6
        and 3.6 <= ratio <= 4.4
        and elapsed < 5.0
    )
    _verdict(2, ok, f"|c-c*|={abs(c_trace-c_star):.2e} ratio={ratio:.2f} {elapsed:.2f}s")


def test_criterion_03_decoupled_front(decoupled_front):
    problem, sol, elapsed = decoupled_front
    tz = nz_norm(sol.T)
    ok = abs(sol.c - 1.5) <= 0.05 and tz <= 1e-12 and elapsed < 60.0
    _verdict(3, ok, f"c={sol.c:.4f} Tz2={tz:.1e} in {elapsed:.1f}s")


def test_criterion_04_steady_identity(decoupled_front, convective_report, moderate_front):
    residuals = {}
    p1, s1, _ = decoupled_front
    residuals["rho0_step"] = check_steady_identity(s1, p1.reaction)
    p3, s3 = moderate_front
    residuals["rho0.1_quad"] = check_steady_identity(s3, p3.reaction)
    p2, rep, _ = convective_report
    residuals["rho0.3_quad"] = check_steady_identity(rep.data["front_sol"], p2.reaction)
    ok = all(r <= 1e-2 for r in residuals.values())
    _verdict(4, ok, " ".join(f"{k}={v:.2e}" for k, v in residuals.items()))


def test_criterion_05_nonplanar_convective_front(convective_report):
    problem, report, elapsed = convective_report
    ok = report.verdict == "pass" and elapsed < 300.0
    _verdict(5, ok, f"verdict={report.verdict} in {elapsed:.0f}s\n" + render_report(report))


def test_criterion_06_vorticity_bound(decoupled_front, convective_report, moderate_front):
    margins = {}
    for name, (problem, sol) in {
        "rho0_step": decoupled_front[:2],
        "rho0.1_quad": moderate_front,
    }.items():
        lam = problem.grid.lam
        lhs = math.sqrt(edge_grad_sq(sol.omega))
        rhs = 1.05 * (lam / math.pi) * problem.rho * math.sqrt(edge_grad_sq(sol.T))
        margins[name] = (lhs, rhs)
    p2, rep, _ = convective_report
    chk = next(c for c in rep.checks if c.name == "vorticity_gradient_bound")
    margins["rho0.3_quad"] = (chk.value, chk.threshold)
    ok = all(lhs <= rhs + 1e-14 for lhs, rhs in margins.values())
    _verdict(6, ok, " ".join(f"{k}:{l:.3g}<={r:.3g}" for k, (l, r) in margins.items()))


def test_criterion_07_cauchy_burning_rate(burning_rate_report):
    report, elapsed = burning_rate_report
    v0 = next(c for c in report.checks if c.name == "Vbar_rho0_vs_c0")
    slope = next(c for c in report.checks if c.name == "loglog_slope")
    ok = report.verdict == "pass" and elapsed < 600.0
    _verdict(
        7,
        ok,
        f"|V(0)-c0|/c0={v0.value:.3f} slope={slope.value:.2f} "
        f"in {elapsed:.0f}s verdict={report.verdict}\n" + render_report(report),
    )


def test_criterion_08_winn_inequality(burning_rate_report):
    report, _ = burning_rate_report
    margins = [c for c in report.checks if c.name.startswith("winn_margin")]
    ok = len(margins) >= 4 and all(c.ok for c in margins)
    _verdict(8, ok, " ".join(f"{c.name}={c.value:.3f}" for c in margins))


def test_criterion_09_narrow_domain_planarity():
    t0 = time.perf_counter()
    report = verify_narrow_planarity(
        lam=1.0,
        reaction=ReactionModel("quad_ignition", 0.25),
        nx=513,
        nz=17,
        a=40.0,
        dt=0.02,
    )
    elapsed = time.perf_counter() - t0
    ratio = next(c for c in report.checks if c.name == "Nz_quadratic_ratio")
    insens = next(c for c in report.checks if c.name == "rho1_insensitivity")
    ok = report.verdict == "pass" and elapsed < 600.0
    _verdict(
        9,
        ok,
        f"ratio={ratio.value:.2f} rho1_change={insens.value:.2f} in {elapsed:.0f}s\n"
        + render_report(report),
    )


def test_criterion_10_flow_uniform_decay():
    # gates: mass drift <= 1e-8 per flow, band <= 2.0, oracle <= 0.05
    t0 = time.perf_counter()
    report = verify_flow_uniform_decay()
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 180.0
    _verdict(10, ok, f"in {elapsed:.0f}s\n" + render_report(report))


def test_criterion_11_nash_ratio():
    # gates: scale invariance <= 1e-10 at x10 and x0.1, min > 0, drift <= 0.01
    report = verify_nash_ratio()
    _verdict(11, report.passed, render_report(report))


def test_criterion_12_energy_identity_dt_halving():
    g = make_grid(20.0, 2.0, 257, 33)
    r = ReactionModel("quad_ignition", 0.25)

    def residual_scale(dt):
        cfg = SimConfig(grid=g, reaction=r, rho=0.2,
                        ehat=GravityDir.normalized(1.0, 1.0), dt=dt, t_end=8.0)
        st = init_front_like(cfg)
        total, count = 0.0, 0
        while st.t < 8.0 - 1e-12:
            prev = st
            st = step(st, cfg, dt)
            e1 = 0.5 * weighted_inner(st.omega, st.omega)
            e0 = 0.5 * weighted_inner(prev.omega, prev.omega)
            torque = ScalarField(g, buoyancy_torque(prev.T, cfg.rho, cfg.ehat))
            resid = (e1 - e0) / dt + cfg.sigma * edge_grad_sq(st.omega) - weighted_inner(
                st.omega, torque
            )
            total += abs(resid)
            count += 1
        return total / count

    ratio = residual_scale(0.04) / residual_scale(0.02)
    ok = 1.5 <= ratio <= 2.5
    _verdict(12, ok, f"residual ratio under dt halving = {ratio:.2f}")


def test_criterion_13_infrastructure(tmp_path):
    # checkpoint round-trip, bit-exact
    from frontlab.evolve import SimState
    from frontlab.flow import velocity_from_vorticity

    g = make_grid(3.0, 1.0, 17, 9)
    rng = np.random.default_rng(5)
    omega = ScalarField(g, np.zeros(g.shape), vorticity_bc())
    st = SimState(
        t=0.75,
        T=ScalarField(g, rng.random(g.shape)),
        omega=omega,
        flow=velocity_from_vorticity(omega),
        shift_accum=1.5,
    )
    path = tmp_path / "state.bfl"
    fio.write_checkpoint(path, st)
    back = fio.read_checkpoint(path)
    roundtrip = np.array_equal(back.T.values, st.T.values) and back.t == st.t

    # deterministic CSV bytes for a fixed seed
    from frontlab.evolve import OmegaInit, run

    def one_run(p):
        cfg = SimConfig(
            grid=make_grid(10.0, 2.0, 65, 9),
            reaction=ReactionModel("quad_ignition", 0.25),
            rho=0.1,
            R=2.0,
            dt=0.05,
            t_end=1.0,
            omega0=OmegaInit("random", seed=11, energy=1e-3),
        )
        fio.write_timeseries_csv(p, run(cfg))
        return p.read_bytes()

    deterministic = one_run(tmp_path / "a.csv") == one_run(tmp_path / "b.csv")

    # manufactured elliptic solve at 1e-11
    gg = make_grid(2.0, 1.0, 129, 65)
    target = field_from_function(
        gg,
        lambda X, Z: np.sin(np.pi * (X + gg.a) / (2 * gg.a)) * np.sin(np.pi * Z / gg.lam),
        vorticity_bc(),
    )
    psi = poisson_dirichlet(laplacian(target))
    manufactured = float(np.abs(psi.values - target.values).max()) < 1e-11

    ok = roundtrip and deterministic and manufactured
    _verdict(13, ok, f"roundtrip={roundtrip} deterministic={deterministic} "
                     f"manufactured={manufactured}")
