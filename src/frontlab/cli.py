"""Command-line driver.

Subcommands: laminar, front, evolve, verify <experiment>, selftest.
Exit codes: 0 success, 1 verdict failure, 2 configuration error,
3 numerical failure.  Errors print one machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from . import io as fio
from .diagnostics import check_steady_identity
from .errors import ConfigurationError, FrontLabError, NumericalError
from .evolve import SimConfig, SimState, run
from .flow import GravityDir
from .front import Continuation, FrontProblem, find_front, tau0_speed
from .grid import ScalarField, field_from_function, laplacian, make_grid, vorticity_bc
from .harness import (
    envelope_report,
    SweepSpec,
    verify_burning_rate_perturbation,
    verify_domain_length_convergence,
    verify_flow_uniform_decay,
    verify_narrow_planarity,
    verify_nash_ratio,
    verify_nonplanar_front,
)
from .laminar import ReactionModel, laminar_speed

_EXIT_OK, _EXIT_VERDICT, _EXIT_CONFIG, _EXIT_NUMERIC = 0, 1, 2, 3


def _fail(kind: str, msg: str) -> None:
    print(f"error: {kind}: {msg}", file=sys.stderr)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return fio.parse_config(fh.read())


def _front_problem(cfg: dict) -> FrontProblem:
    sim = fio.build_sim_config(cfg)
    return FrontProblem(
        grid=sim.grid,
        reaction=sim.reaction,
        rho=sim.rho,
        sigma=sim.sigma,
        ehat=sim.ehat,
        continuation=Continuation(c_tol=1e-3),
    )


def _cmd_laminar(args) -> int:
    reaction = ReactionModel(args.kind, args.theta0, args.amplitude)
    prof = laminar_speed(reaction, tol=args.tol)
    print(f"c0 = {prof.c0:.6f} ± {args.tol:g}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("x,phi\n")
            for x, p in zip(prof.xs, prof.phi):
                fh.write(f"{x:.17g},{p:.17g}\n")
        print(f"profile written to {args.out}")
    return _EXIT_OK


def _cmd_front(args) -> int:
    cfg = _load_config(args.config)
    problem = _front_problem(cfg)
    sol = find_front(problem)
    residual = check_steady_identity(sol, problem.reaction)
    print(f"c = {sol.c:.8f}")
    print(f"normalization_residual = {sol.normalization_residual:.3e}")
    print(f"steady_identity_residual = {residual:.3e}")
    if args.out:
        state = SimState(t=0.0, T=sol.T, omega=sol.omega, flow=sol.flow)
        fio.write_checkpoint(args.out, state)
        print(f"checkpoint written to {args.out}")
    return _EXIT_OK


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    sim = fio.build_sim_config(cfg)
    series = run(sim)
    fio.write_timeseries_csv(args.out, series)
    print(f"{len(series)} rows written to {args.out}")
    return _EXIT_OK


def _default_grid():
    return make_grid(40.0, 4.0, 513, 65)


def _cmd_verify(args) -> int:
    if args.experiment == "thm11":
        if args.config:
            problem = _front_problem(_load_config(args.config))
        else:
            problem = FrontProblem(
                grid=_default_grid(),
                reaction=ReactionModel("quad_ignition", 0.25),
                rho=0.3,
                ehat=GravityDir.normalized(1.0, 1.0),
                continuation=Continuation(c_tol=1e-3),
            )
        report = verify_nonplanar_front(problem)
    elif args.experiment == "thm12":
        report = verify_burning_rate_perturbation(
            grid=_default_grid(),
            reaction=ReactionModel("quad_ignition", 0.25),
            sweep=SweepSpec("rho", [0.0, 0.05, 0.1, 0.2], window=(30.0, 60.0)),
            csv_dir=args.outdir,
        )
    elif args.experiment == "thm13":
        report = verify_narrow_planarity(
            lam=1.0, reaction=ReactionModel("quad_ignition", 0.25),
            csv_dir=args.outdir,
        )
    elif args.experiment == "limita":
        report = verify_domain_length_convergence(
            reaction=ReactionModel("quad_ignition", 0.25)
        )
    elif args.experiment == "nash":
        report = verify_nash_ratio()
    elif args.experiment == "decay":
        report = verify_flow_uniform_decay()
    else:  # envelopes of a laminar run
        report = envelope_report(
            SimConfig(
                grid=make_grid(30.0, 2.0, 385, 9),
                reaction=ReactionModel("step_linear", 0.25),
                dt=0.02,
                t_end=30.0,
                recenter=True,
            )
        )
    text = fio.render_report(report)
    print(text, end="")
    if args.outdir:
        with open(f"{args.outdir}/report_{args.experiment}.txt", "w", newline="\n") as fh:
            fh.write(text)
    return _EXIT_OK if report.passed else _EXIT_VERDICT


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        failures += 0 if ok else 1

    g = make_grid(2.0, 1.0, 65, 33)
    target = field_from_function(
        g,
        lambda X, Z: np.sin(np.pi * (X + g.a) / (2 * g.a)) * np.sin(np.pi * Z / g.lam),
        vorticity_bc(),
    )
    from .elliptic import poisson_dirichlet

    rhs = laplacian(target)
    psi = poisson_dirichlet(rhs)
    err = float(np.abs(psi.values - target.values).max())
    check("poisson_manufactured", err < 1e-11, f"max_err={err:.2e}")

    res = laplacian(psi).values[1:-1, 1:-1] - rhs.values[1:-1, 1:-1]
    rres = float(np.abs(res).max() / max(np.abs(rhs.values).max(), 1.0))
    check("poisson_residual", rres < 1e-11, f"rel={rres:.2e}")

    prof = laminar_speed(ReactionModel("step_linear", 0.25), tol=1e-5)
    check("laminar_closed_form", abs(prof.c0 - 1.5) < 1e-4, f"c0={prof.c0:.6f}")

    import math

    c_star = tau0_speed(0.25, 20.0)
    check(
        "tau0_closed_form",
        abs(c_star - math.log(3.0) / 20.0) < 1e-9,
        f"c={c_star:.10f}",
    )

    with tempfile.NamedTemporaryFile(suffix=".bfl") as tmp:
        gg = make_grid(3.0, 1.0, 17, 9)
        rng = np.random.default_rng(0)
        omega = ScalarField(gg, np.zeros(gg.shape), vorticity_bc())
        from .flow import velocity_from_vorticity

        state = SimState(
            t=1.25,
            T=ScalarField(gg, rng.random(gg.shape)),
            omega=omega,
            flow=velocity_from_vorticity(omega),
            shift_accum=4.5,
        )
        fio.write_checkpoint(tmp.name, state)
        back = fio.read_checkpoint(tmp.name)
        check(
            "checkpoint_roundtrip",
            np.array_equal(back.T.values, state.T.values) and back.t == state.t,
        )
    return _EXIT_OK if failures == 0 else _EXIT_VERDICT


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frontlab")
    sub = ap.add_subparsers(dest="command", required=True)

    lam = sub.add_parser("laminar", help="planar front speed and profile")
    lam.add_argument("--theta0", type=float, required=True)
    lam.add_argument("--kind", default="step_linear")
    lam.add_argument("--amplitude", type=float, default=1.0)
    lam.add_argument("--tol", type=float, default=1e-4)
    lam.add_argument("--out")
    lam.set_defaults(fn=_cmd_laminar)

    fr = sub.add_parser("front", help="steady traveling front")
    fr.add_argument("--config", required=True)
    fr.add_argument("--out")
    fr.set_defaults(fn=_cmd_front)

    ev = sub.add_parser("evolve", help="Cauchy run, writes diagnostics CSV")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(fn=_cmd_evolve)

    ve = sub.add_parser("verify", help="experiment harness")
    ve.add_argument(
        "experiment",
        choices=["thm11", "thm12", "thm13", "limita", "nash", "decay", "envelopes"],
    )
    ve.add_argument("--config")
    ve.add_argument("--outdir", help="also write the report and per-run CSVs here")
    ve.set_defaults(fn=_cmd_verify)

    st = sub.add_parser("selftest", help="manufactured-solution smoke suite")
    st.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_CONFIG if exc.code not in (0, None) else _EXIT_OK
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        _fail("config", str(exc))
        return _EXIT_CONFIG
    except NumericalError as exc:
        _fail("numerical", str(exc))
        return _EXIT_NUMERIC
    except FrontLabError as exc:
        _fail("io", str(exc))
        return _EXIT_CONFIG
    except OSError as exc:
        _fail("os", str(exc))
        return _EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
