"""Experiment harness: verdict logic on desk-scale configurations."""

import pytest

from frontlab.errors import ConfigurationError
from frontlab.evolve import SimConfig
from frontlab.flow import GravityDir
from frontlab.front import Continuation, FrontProblem
from frontlab.grid import make_grid
from frontlab.harness import (
    SweepSpec,
    envelope_report,
    verify_burning_rate_perturbation,
    verify_domain_length_convergence,
    verify_narrow_planarity,
    verify_nonplanar_front,
)
from frontlab.io import render_report
from frontlab.laminar import ReactionModel


def _quick_problem(rho, ehat=None, **kw):
    g = make_grid(15.0, 2.0, kw.pop("nx", 129), kw.pop("nz", 17))
    return FrontProblem(
        grid=g,
        reaction=ReactionModel(kw.pop("kind", "quad_ignition"), 0.25),
        rho=rho,
        ehat=ehat or GravityDir.normalized(1.0, 1.0),
        continuation=Continuation(c_tol=2e-3),
    )


def test_nonplanar_front_verdict():
    rep = verify_nonplanar_front(_quick_problem(0.4))
    assert rep.verdict == "pass", render_report(rep)
    names = {c.name for c in rep.checks}
    assert {"c_positive", "Tz2_above_floor", "u_above_floor",
            "reaction_active", "tail_rate_alpha"} <= names
    # raw numbers embedded for recomputation
    assert "front" in rep.data and "floors" in rep.data


def test_nonplanar_rho_zero_is_planar_as_expected():
    rep = verify_nonplanar_front(_quick_problem(0.0))
    assert rep.verdict == "planar-as-expected"
    assert rep.passed


def test_nonplanar_axis_aligned_gravity_warns():
    rep = verify_nonplanar_front(_quick_problem(0.3, ehat=GravityDir(1.0, 0.0)))
    assert rep.verdict == "warn"
    assert rep.passed


def test_burning_rate_sweep_report():
    rep = verify_burning_rate_perturbation(
        grid=make_grid(30.0, 2.0, 385, 9),
        reaction=ReactionModel("quad_ignition", 0.25),
        sweep=SweepSpec("rho", [0.0, 0.05, 0.1, 0.2], window=(30.0, 60.0)),
        dt=0.02,
    )
    assert rep.verdict == "pass", render_report(rep)
    devs = rep.data["deviations_vs_measured_rho0"]
    assert all(v >= 0 for v in devs.values())
    slope = next(c for c in rep.checks if c.name == "loglog_slope")
    assert 0.8 <= slope.value <= 2.2


def test_burning_rate_sweep_needs_rho_zero():
    with pytest.raises(ConfigurationError):
        verify_burning_rate_perturbation(
            grid=make_grid(30.0, 2.0, 129, 9),
            reaction=ReactionModel("quad_ignition", 0.25),
            sweep=SweepSpec("rho", [0.05, 0.1]),
        )


def test_narrow_planarity_report():
    rep = verify_narrow_planarity(
        lam=1.0,
        reaction=ReactionModel("quad_ignition", 0.25),
        nx=257,
        nz=9,
        a=20.0,
        dt=0.02,
    )
    assert rep.verdict == "pass", render_report(rep)
    ratio = next(c for c in rep.checks if c.name == "Nz_quadratic_ratio")
    assert 2.5 <= ratio.value <= 5.5


def test_narrow_planarity_refuses_wide_strip():
    with pytest.raises(ConfigurationError):
        verify_narrow_planarity(lam=8.0, reaction=ReactionModel("quad_ignition", 0.25))


def test_domain_length_convergence_small():
    rep = verify_domain_length_convergence(
        reaction=ReactionModel("quad_ignition", 0.25),
        a_values=(10.0, 20.0, 40.0),
        lam=2.0,
        rho=0.2,
        nodes_per_unit=6.4,
        nz=9,
    )
    assert rep.verdict == "pass", render_report(rep)
    gaps = rep.data["speed_gaps"]
    assert gaps[1] <= gaps[0]


def test_decoupled_speed_approaches_laminar_with_length():
    # same spacing at both lengths so only the truncation error differs
    from frontlab.front import find_front
    from frontlab.laminar import laminar_speed

    r = ReactionModel("quad_ignition", 0.25)
    c_inf = laminar_speed(r, tol=1e-6).c0
    errs = []
    for a, nx in ((10.0, 129), (20.0, 257)):
        g = make_grid(a, 2.0, nx, 9)
        sol = find_front(FrontProblem(grid=g, reaction=r,
                                      continuation=Continuation(c_tol=2e-4)))
        errs.append(abs(sol.c - c_inf))
    assert errs[1] < errs[0]


def test_envelope_report_laminar():
    rep = envelope_report(
        SimConfig(
            grid=make_grid(30.0, 2.0, 385, 9),
            reaction=ReactionModel("step_linear", 0.25),
            dt=0.02,
            t_end=20.0,
            R=5.0,
            recenter=True,
        ),
        t_fit=5.0,
    )
    assert rep.verdict == "pass", render_report(rep)
    assert rep.data["C0"] < 50.0


def test_render_report_contains_values():
    rep = verify_nonplanar_front(_quick_problem(0.0))
    text = render_report(rep)
    assert "verdict: planar-as-expected" in text
    assert "c_positive" in text
