"""The benchmark's workloads: inputs, one operation, and its correctness gate.

Each workload builds its inputs once (the part a user pays before any
solve starts) and then repeats one operation, the job a user waits on:

* ``front_convective``: ``find_front`` on the thm11 problem (513x65,
  quad_ignition, rho=0.3, diagonal gravity).  Sparse LU dominates.
* ``front_planar``: ``find_front`` on the criterion-3 problem (4097x9,
  step_linear, rho=0).  Same front layer, no flow solve, LU reuse.
* ``cauchy_thm12``: one thm12 sweep member (513x65, rho=0.2, dt=0.02,
  t_end=70, recentering) plus its diagnostics CSV.  The front layer idles.
* ``decay_uniform``: the ``verify decay`` set, four 256x33 flows plus the
  512x65 oracle.  The only workload that runs ``inequalities``.

Solver entry points are looked up on their modules at call time
(``fl_front.find_front``, ``fl_evolve.run``...) so that the traced pass can
wrap them.  Every gate threshold is the repository's own: ``c_tol`` and the
1e-2 steady identity of the acceptance criteria, the thm12 window and Winn
margins of ``verify_burning_rate_perturbation``, and the ``verify decay``
thresholds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "frontlab" / "__init__.py").is_file():
    raise ImportError(f"frontlab sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from frontlab import evolve as fl_evolve  # noqa: E402
from frontlab import front as fl_front  # noqa: E402
from frontlab import inequalities as fl_ineq  # noqa: E402
from frontlab import io as fl_io  # noqa: E402
from frontlab import laminar as fl_laminar  # noqa: E402
from frontlab.diagnostics import COLUMNS, check_steady_identity, check_winn_inequality  # noqa: E402
from frontlab.evolve import OmegaInit, SimConfig  # noqa: E402
from frontlab.flow import GravityDir  # noqa: E402
from frontlab.front import Continuation, FrontProblem  # noqa: E402
from frontlab.grid import make_grid  # noqa: E402
from frontlab.inequalities import DecayExperiment, FlowSpec, decay_constant_sup  # noqa: E402
from frontlab.laminar import ReactionModel  # noqa: E402

C_TOL = 1e-3  # Continuation(c_tol=1e-3), as in `verify thm11` and criterion 3
STEADY_IDENTITY_TOL = 1e-2  # acceptance criterion 4
WINDOW_SENSITIVITY_TOL = 0.02  # verify_burning_rate_perturbation
WINN_MARGIN_MIN = -0.05  # verify_burning_rate_perturbation
MASS_DRIFT_TOL = 1e-8  # verify decay
DECAY_BAND_TOL = 2.0  # verify decay
DECAY_ORACLE_TOL = 0.05  # verify decay

# Seeded initial vorticity of the Cauchy run.  Its energy keeps |omega| in
# the inflow decile far below the 1e-3 recentering monitor, so every seed
# runs the same steps.
OMEGA0_ENERGY = 1e-6


@dataclass
class Outcome:
    """One operation: timings, gate verdict, and observer statistics."""

    solve_s: float
    run_s: float
    ok: bool
    detail: str
    step_ms: list = field(default_factory=list)
    recenter_events: int = 0


@dataclass(frozen=True)
class FrontWorkload:
    """Repeated ``find_front`` on one problem, gated against a stored speed."""

    name: str
    shape: tuple
    kind: str
    rho: float
    c_ref: float  # converged speed of the seed code at this shape
    uses_seed = False

    def build(self, seed: int) -> FrontProblem:
        extra = {"ehat": GravityDir.normalized(1.0, 1.0)} if self.rho > 0.0 else {}
        return FrontProblem(
            grid=make_grid(40.0, 4.0, *self.shape),
            reaction=ReactionModel(self.kind, 0.25),
            rho=self.rho,
            sigma=1.0,
            continuation=Continuation(c_tol=C_TOL),
            **extra,
        )

    def operate(self, problem: FrontProblem, out_dir: Path) -> Outcome:
        t0 = time.perf_counter()
        sol = fl_front.find_front(problem)
        t1 = time.perf_counter()
        residual = check_steady_identity(sol, problem.reaction)
        t2 = time.perf_counter()
        dc = abs(sol.c - self.c_ref)
        ok = dc <= problem.continuation.c_tol and residual <= STEADY_IDENTITY_TOL
        return Outcome(t1 - t0, t2 - t0, ok, f"c={sol.c:.10f} |c-c_ref|={dc:.2e} identity={residual:.2e}")


@dataclass(frozen=True)
class CauchyWorkload:
    """One thm12 sweep member with seeded vorticity, then its CSV."""

    name: str
    shape: tuple
    t_end: float
    window: tuple  # thm12 averaging window; shifted by 10 for sensitivity
    uses_seed = True

    def build(self, seed: int) -> SimConfig:
        reaction = ReactionModel("quad_ignition", 0.25)
        # `verify thm12` computes c0 before its runs; a user pays it in set-up
        fl_laminar.laminar_speed(reaction, tol=1e-6)
        return SimConfig(
            grid=make_grid(40.0, 4.0, *self.shape),
            reaction=reaction,
            rho=0.2,
            sigma=1.0,
            ehat=GravityDir.normalized(1.0, 1.0),
            R=5.0,
            dt=0.02,
            t_end=self.t_end,
            recenter=True,
            omega0=OmegaInit(kind="random", seed=seed, energy=OMEGA0_ENERGY),
        )

    def operate(self, config: SimConfig, out_dir: Path) -> Outcome:
        stamps = []
        shifts = [0.0, 0]

        def observer(state):
            stamps.append(time.perf_counter())
            if state.shift_accum != shifts[0]:
                shifts[0] = state.shift_accum
                shifts[1] += 1

        t0 = time.perf_counter()
        series = fl_evolve.run(config, observer=observer)
        t1 = time.perf_counter()
        fl_io.write_timeseries_csv(out_dir / f"{self.name}.csv", series)
        t2 = time.perf_counter()

        rows_expected = int(round(config.t_end / config.dt)) + 1
        t_lo, t_hi = self.window
        vbar = series.window_average("V", t_lo, t_hi)
        shifted = series.window_average("V", t_lo + 10.0, t_hi + 10.0)
        sensitivity = abs(shifted - vbar) / max(vbar, 1e-300)
        nbar = COLUMNS.index("Nbar")
        margin = min(
            check_winn_inequality(series, t) / max(series.row_at(t)[nbar], 1e-300)
            for t in np.arange(10.0, t_hi + 1e-9, 10.0)
        )
        ok = (
            len(series) == rows_expected
            and sensitivity <= WINDOW_SENSITIVITY_TOL
            and margin >= WINN_MARGIN_MIN
        )
        detail = (
            f"rows={len(series)}/{rows_expected} window_sensitivity={sensitivity:.2e} "
            f"winn_margin={margin:.3e} Vbar={vbar:.6f}"
        )
        step_ms = list(np.diff(stamps) * 1e3)
        return Outcome(t1 - t0, t2 - t0, ok, detail, step_ms, shifts[1])


DECAY_FLOWS = {
    "zero": FlowSpec(),
    "shear5": FlowSpec("shear", 5.0),
    "cellular5": FlowSpec("cellular", 5.0, 4, 1),
    "cellular10": FlowSpec("cellular", 10.0, 4, 1),
}


@dataclass(frozen=True)
class DecayWorkload:
    """The `verify decay` set: four flows plus the refined zero-flow oracle."""

    name: str
    shape: tuple
    oracle_shape: tuple
    oracle_dt: float
    t_end: float
    uses_seed = False

    def build(self, seed: int) -> tuple:
        runs = {
            name: DecayExperiment(nx=self.shape[0], nz=self.shape[1], t_end=self.t_end, flow=spec)
            for name, spec in DECAY_FLOWS.items()
        }
        oracle = DecayExperiment(
            nx=self.oracle_shape[0], nz=self.oracle_shape[1], dt=self.oracle_dt, t_end=self.t_end
        )
        return runs, oracle

    def operate(self, inputs: tuple, out_dir: Path) -> Outcome:
        runs, oracle = inputs
        t0 = time.perf_counter()
        solve_s = 0.0
        series = {}
        for name, exp in runs.items():
            ts = time.perf_counter()
            series[name] = fl_ineq.decay_experiment(exp)
            solve_s += time.perf_counter() - ts
        ts = time.perf_counter()
        fine = fl_ineq.decay_experiment(oracle)
        solve_s += time.perf_counter() - ts

        drifts = {
            name: float(np.abs(s.l1 - s.l1[0]).max() / s.l1[0]) for name, s in series.items()
        }
        consts = [decay_constant_sup(s, 1.0, 1.0) for s in series.values()]
        band = max(consts) / min(consts)
        zero = series["zero"]
        keep = zero.t >= 1.0
        fine_at = np.interp(zero.t[keep], fine.t, fine.linf)
        rel = float(np.abs(zero.linf[keep] - fine_at).max() / fine_at.max())
        run_s = time.perf_counter() - t0
        ok = (
            max(drifts.values()) <= MASS_DRIFT_TOL
            and band <= DECAY_BAND_TOL
            and rel <= DECAY_ORACLE_TOL
        )
        detail = f"max_mass_drift={max(drifts.values()):.2e} band={band:.4f} oracle={rel:.3e}"
        return Outcome(solve_s, run_s, ok, detail)


# Full-size workloads, as the benchmark runs them.
WORKLOADS = {
    w.name: w
    for w in (
        FrontWorkload("front_convective", (513, 65), "quad_ignition", 0.3, 0.6667806784901582),
        FrontWorkload("front_planar", (4097, 9), "step_linear", 0.0, 1.4818012076709284),
        CauchyWorkload("cauchy_thm12", (513, 65), 70.0, (30.0, 60.0)),
        DecayWorkload("decay_uniform", (256, 33), (512, 65), 0.005, 20.0),
    )
}

# Shrunken copies for the self-check: same code paths and gates, seconds
# instead of minutes.  Their reference speeds are the seed code's at these
# shapes.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        FrontWorkload("front_convective", (129, 17), "quad_ignition", 0.3, 0.6608809764625333),
        FrontWorkload("front_planar", (513, 9), "step_linear", 0.0, 1.3606512101810873),
        CauchyWorkload("cauchy_thm12", (129, 17), 70.0, (30.0, 60.0)),
        DecayWorkload("decay_uniform", (64, 9), (128, 17), 0.005, 5.0),
    )
}
