"""Multi-run experiments that turn the qualitative claims into verdicts.

Each verifier runs the underlying solvers, embeds every raw number in
its report, and reduces them to named checks.  Constants that the
analysis leaves unnamed are handled as scaling-exponent checks plus
uniformity bands, with fitted values and fit residuals reported rather
than asserted against invented magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import COLUMNS, check_winn_inequality, front_position, nz_norm
from .errors import BlowUpError, ConfigurationError, NumericalError
from .evolve import SimConfig, run
from .flow import GravityDir
from .front import FrontProblem, FrontSolution, find_front
from .grid import ScalarField, edge_grad_sq, integrate, make_grid
from .inequalities import (
    DecayExperiment,
    FlowSpec,
    decay_constant_sup,
    decay_experiment,
    nash_fuzz_corpus,
    nash_ratio,
)
from .laminar import NARROW_COMPLIANT, ReactionModel, laminar_speed, profile_eval


@dataclass
class Check:
    name: str
    value: float
    threshold: float | None = None
    ok: bool | None = None
    gate: bool = True
    note: str = ""


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    verdict: str = "pass"

    def add(self, name, value, threshold=None, ok=None, gate=True, note=""):
        self.checks.append(Check(name, float(value), threshold, ok, gate, note))

    def finalize(self) -> "Report":
        if self.verdict in ("planar-as-expected", "warn", "unresolved"):
            return self
        gating = [c.ok for c in self.checks if c.gate and c.ok is not None]
        self.verdict = "pass" if all(gating) else "fail"
        return self

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "planar-as-expected", "warn")


@dataclass
class SweepSpec:
    varying: str
    values: list
    window: tuple[float, float] = (30.0, 60.0)
    seeds: tuple = (0,)

    def __post_init__(self):
        if len(self.values) < 2:
            raise ConfigurationError("sweeps need at least 2 values")
        if self.window[1] <= self.window[0]:
            raise ConfigurationError("empty averaging window")


def _front_observables(sol: FrontSolution, reaction: ReactionModel) -> dict:
    g = sol.T.grid
    return {
        "c": sol.c,
        "Tz2": nz_norm(sol.T),
        "u_sup": sol.flow.u_sup(),
        "f_int": integrate(ScalarField(g, reaction(sol.T.values))),
        "gradT2": edge_grad_sq(sol.T),
        "grad_omega2": edge_grad_sq(sol.omega),
    }


def _right_tail_rate(sol: FrontSolution) -> tuple[float, float]:
    """Fitted exponential decay rate of the column max ahead of the front."""
    g = sol.T.grid
    colmax = sol.T.values.max(axis=1)
    fp = front_position(sol.T, sol.T.values.max() * 0.5)
    keep = (g.x >= fp + 2.0) & (g.x <= g.a - 2.0) & (colmax > 1e-250)
    if keep.sum() < 8:
        return float("nan"), float("nan")
    y = np.log(colmax[keep])
    coef = np.polyfit(g.x[keep], y, 1)
    fit = np.polyval(coef, g.x[keep])
    r2 = 1.0 - np.sum((y - fit) ** 2) / max(np.sum((y - y.mean()) ** 2), 1e-300)
    return float(-coef[0]), float(r2)


def verify_nonplanar_front(problem: FrontProblem) -> Report:
    """Convective front existence checks: speed sign, non-planarity,
    active reaction, exponentially small right tail, left state."""
    rep = Report(title="nonplanar-front")
    sol = find_front(problem)
    obs = _front_observables(sol, problem.reaction)
    rep.data["front"] = obs
    rep.data["tau"] = sol.tau
    rep.data["monotone_violations"] = sol.monotone_violations
    rep.data["front_sol"] = sol  # full solution for downstream identity checks

    g = problem.grid
    if problem.rho == 0.0:
        rep.add("c_positive", obs["c"], 0.0, obs["c"] > 0.0)
        rep.add("Tz2_at_floor", obs["Tz2"], 1e-12, obs["Tz2"] <= 1e-12, gate=False)
        rep.verdict = "planar-as-expected"
        return rep

    floor_problem = replace(problem, rho=0.0)
    floor = _front_observables(find_front(floor_problem), problem.reaction)
    rep.data["floors"] = floor

    if problem.ehat.axis_aligned:
        rep.add("c_positive", obs["c"], 0.0, obs["c"] > 0.0)
        rep.add("Tz2", obs["Tz2"], None, None, gate=False,
                note="gravity parallel to the axis: planar fronts possible")
        rep.verdict = "warn"
        return rep

    tz_floor = max(10.0 * floor["Tz2"], 1e-12)
    u_floor = max(10.0 * floor["u_sup"], 1e-12)
    rep.add("c_positive", obs["c"], 0.0, obs["c"] > 0.0)
    rep.add("Tz2_above_floor", obs["Tz2"], tz_floor, obs["Tz2"] > tz_floor)
    rep.add("u_above_floor", obs["u_sup"], u_floor, obs["u_sup"] > u_floor)
    rep.add("reaction_active", obs["f_int"], 0.0, obs["f_int"] > 0.0)

    alpha, r2 = _right_tail_rate(sol)
    rep.add("tail_rate_alpha", alpha, 0.0, bool(alpha > 0.0))
    rep.add("tail_fit_r2", r2, 0.9, bool(r2 > 0.9), gate=False)

    left_strip = sol.T.values[g.x <= -g.a + 2.0, :]
    theta_minus = float(left_strip.mean())
    is_narrow = problem.reaction.kind == NARROW_COMPLIANT
    rep.add(
        "left_state",
        theta_minus,
        1e-3 if is_narrow else None,
        abs(theta_minus - 1.0) <= 1e-3 if is_narrow else None,
        gate=is_narrow,
        note="asserted only for the narrow-compliant reaction",
    )

    # a-priori vorticity bound at the converged front (sigma >= 1 assumed
    # by the sweep configurations; the bound tightens otherwise)
    lhs = math.sqrt(obs["grad_omega2"])
    rhs = 1.05 * (g.lam / math.pi) * problem.rho * math.sqrt(obs["gradT2"])
    rep.add("vorticity_gradient_bound", lhs, rhs, lhs <= rhs)
    return rep.finalize()


def _cauchy_config(grid, reaction, rho, ehat, dt, t_end, recenter=True) -> SimConfig:
    return SimConfig(
        grid=grid,
        reaction=reaction,
        rho=rho,
        sigma=1.0,
        ehat=ehat,
        R=5.0,
        dt=dt,
        t_end=t_end,
        recenter=recenter,
    )


def verify_burning_rate_perturbation(
    grid,
    reaction: ReactionModel,
    sweep: SweepSpec,
    ehat: GravityDir | None = None,
    dt: float = 0.02,
    c0: float | None = None,
    csv_dir=None,
) -> Report:
    """Burning-rate perturbation bounds over a Rayleigh-number sweep.

    The small-rho scaling is fitted on deviations from the measured
    rho = 0 run, which removes the rho-independent discretization offset;
    deviations from the ideal laminar speed are reported alongside.
    """
    if 0.0 not in sweep.values:
        raise ConfigurationError("sweep must include rho = 0")
    if sweep.window[1] < 30.0:
        raise ConfigurationError("window must extend to t >= 30")
    ehat = ehat or GravityDir.normalized(1.0, 1.0)
    if c0 is None:
        c0 = laminar_speed(reaction, tol=1e-6).c0
    t_lo, t_hi = sweep.window
    rep = Report(title="burning-rate-perturbation")
    rows = {}
    nbar = COLUMNS.index("Nbar")
    for rho in sweep.values:
        cfg = _cauchy_config(grid, reaction, rho, ehat, dt, t_hi + 10.0)
        try:
            series = run(cfg)
        except BlowUpError:
            rows[rho] = None
            continue
        if csv_dir is not None:
            from . import io as fio

            fio.write_timeseries_csv(f"{csv_dir}/run_rho_{rho:g}.csv", series)
        margins = [
            check_winn_inequality(series, t) / max(series.row_at(t)[nbar], 1e-300)
            for t in np.arange(10.0, t_hi + 1e-9, 10.0)
        ]
        rows[rho] = {
            "Vbar": series.window_average("V", t_lo, t_hi),
            "Vbar_shifted": series.window_average("V", t_lo + 10.0, t_hi + 10.0),
            "Ubar": series.window_average("U_sup", t_lo, t_hi),
            "Nbar": series.window_average("N", t_lo, t_hi),
            "Nzbar": series.window_average("Nz", t_lo, t_hi),
            "winn_margin_rel": float(min(margins)),
        }
    rep.data["runs"] = rows
    rep.data["c0"] = c0
    if any(v is None for v in rows.values()):
        rep.verdict = "unresolved"
        return rep

    v0 = rows[0.0]["Vbar"]
    rep.add("Vbar_rho0_vs_c0", abs(v0 - c0) / c0, 0.05, abs(v0 - c0) / c0 <= 0.05)
    rep.add("Ubar_rho0", rows[0.0]["Ubar"], 1e-6, rows[0.0]["Ubar"] <= 1e-6)

    pos = sorted(r for r in rows if r > 0.0)
    devs = np.array([abs(rows[r]["Vbar"] - v0) for r in pos])
    devs_c0 = np.array([abs(rows[r]["Vbar"] - c0) for r in pos])
    rep.data["deviations_vs_measured_rho0"] = dict(zip(pos, devs))
    rep.data["deviations_vs_c0"] = dict(zip(pos, devs_c0))
    slope = float(np.polyfit(np.log(pos), np.log(np.maximum(devs, 1e-300)), 1)[0])
    rep.add("loglog_slope", slope, None, 0.8 <= slope <= 2.2,
            note="fit of |Vbar(rho) - Vbar(0)| vs rho")

    form = np.array([r + r * r for r in pos])
    logC = np.log(np.maximum(devs, 1e-300)) - np.log(form)
    C_fit = float(np.exp(logC.mean()))
    rep.add("C_fit", C_fit, None, None, gate=False)
    rep.add("C_fit_residual", float(np.abs(logC - logC.mean()).max()), None,
            None, gate=False, note="max log-deviation from C*(rho+rho^2)")
    rep.add("C_envelope", float(np.max(devs / form)), None, None, gate=False)

    cprime = float(max(rows[r]["Ubar"] / (r * (1.0 + r)) for r in pos))
    rep.add("Cprime_Ubar", cprime, None, None, gate=False)

    nbars = {r: rows[r]["Nbar"] for r in rows}
    rep.add("Nbar_max", max(nbars.values()), None, math.isfinite(max(nbars.values())))
    dev_small = abs(nbars[pos[0]] - nbars[0.0])
    dev_large = abs(nbars[pos[-1]] - nbars[0.0])
    rep.add("Nbar_perturbation_shrinks", dev_small, dev_large + 1e-12,
            dev_small <= dev_large + 1e-12)

    for r in rows:
        shift = abs(rows[r]["Vbar_shifted"] - rows[r]["Vbar"]) / max(rows[r]["Vbar"], 1e-300)
        rep.add(f"window_sensitivity_rho={r:g}", shift, 0.02, shift <= 0.02)
        rep.add(f"winn_margin_rho={r:g}", rows[r]["winn_margin_rel"], -0.05,
                rows[r]["winn_margin_rel"] >= -0.05)

    ratios = [rows[r]["Ubar"] / (r * math.sqrt(rows[r]["Nbar"])) for r in pos]
    band = max(ratios) / max(min(ratios), 1e-300)
    rep.add("Ubar_vs_rho_sqrtN_band", band, 3.0, band <= 3.0, gate=False,
            note="monitored uniformity of Ubar/(rho*sqrt(Nbar))")
    return rep.finalize()


def verify_narrow_planarity(
    lam: float,
    reaction: ReactionModel,
    nx: int = 513,
    nz: int = 17,
    a: float = 40.0,
    window: tuple[float, float] = (30.0, 60.0),
    dt: float = 0.02,
    lam0: float = 1.0,
    rho0: float = 0.2,
    csv_dir=None,
) -> Report:
    """Near-planarity in a narrow strip: quadratic response to the
    cross-strip gravity component, insensitivity to the axial one."""
    if lam > lam0:
        raise ConfigurationError(
            f"strip width {lam} outside the narrow-domain hypothesis (<= {lam0})"
        )
    grid = make_grid(a, lam, nx, nz)
    c0 = laminar_speed(reaction, tol=1e-6).c0
    t_lo, t_hi = window

    pairs = [(0.05, 0.05), (0.05, 0.1), (0.1, 0.05), (0.2, 0.0)]
    rep = Report(title="narrow-strip-planarity")
    rows = {}
    for rho1, rho2 in pairs:
        rho = math.hypot(rho1, rho2)
        if rho > rho0:
            raise ConfigurationError(f"gravity strength {rho} exceeds rho0={rho0}")
        ehat = GravityDir(rho1 / rho, rho2 / rho)
        cfg = _cauchy_config(grid, reaction, rho, ehat, dt, t_hi)
        try:
            series = run(cfg)
        except BlowUpError:
            rows[(rho1, rho2)] = None
            continue
        if csv_dir is not None:
            from . import io as fio

            fio.write_timeseries_csv(
                f"{csv_dir}/run_rho1_{rho1:g}_rho2_{rho2:g}.csv", series
            )
        rows[(rho1, rho2)] = {
            "Nzbar": series.window_average("Nz", t_lo, t_hi),
            "Vbar": series.window_average("V", t_lo, t_hi),
            "Ubar": series.window_average("U_sup", t_lo, t_hi),
        }
    rep.data["runs"] = {str(k): v for k, v in rows.items()}
    rep.data["c0"] = c0
    if any(v is None for v in rows.values()):
        rep.verdict = "unresolved"
        return rep

    ratio = rows[(0.05, 0.1)]["Nzbar"] / max(rows[(0.05, 0.05)]["Nzbar"], 1e-300)
    rep.add("Nz_quadratic_ratio", ratio, None, 2.5 <= ratio <= 5.5,
            note="doubling rho2 should quadruple Nzbar")
    change = abs(rows[(0.1, 0.05)]["Nzbar"] - rows[(0.05, 0.05)]["Nzbar"]) / max(
        rows[(0.05, 0.05)]["Nzbar"], 1e-300
    )
    rep.add("rho1_insensitivity", change, 0.30, change <= 0.30)
    axial = rows[(0.2, 0.0)]["Nzbar"]
    others = min(rows[(0.05, 0.05)]["Nzbar"], rows[(0.05, 0.1)]["Nzbar"])
    rep.add("Nz_floor_at_zero_rho2", axial, 0.01 * others, axial <= 0.01 * others,
            note="axial gravity alone leaves the front planar")

    cpp = max(
        (rows[k]["Vbar"] - c0) / k[1] for k in rows if k[1] > 0.0
    )
    rep.add("Cpp_Vbar_excess", cpp, None, None, gate=False)
    cppp = max(rows[k]["Ubar"] / k[1] for k in rows if k[1] > 0.0)
    rep.add("Cppp_Ubar", cppp, None, None, gate=False)
    vmax = max(rows[k]["Vbar"] for k in rows)
    rep.add("Vbar_bounded", vmax, c0 * 2.0, vmax <= 2.0 * c0,
            note="coarse sanity bound on the burning rate")
    return rep.finalize()


def verify_domain_length_convergence(
    reaction: ReactionModel,
    a_values: tuple = (20.0, 40.0, 80.0),
    lam: float = 2.0,
    rho: float = 0.3,
    nodes_per_unit: float = 12.8,
    nz: int = 17,
    ehat: GravityDir | None = None,
) -> Report:
    """Front speed and diagnostics settle as the strip lengthens."""
    if len(a_values) < 3:
        raise ConfigurationError("need at least 3 strip half-lengths")
    ehat = ehat or GravityDir.normalized(1.0, 1.0)
    rep = Report(title="domain-length-convergence")
    rows = {}
    for a in a_values:
        nx = int(round(2 * a * nodes_per_unit)) + 1
        grid = make_grid(a, lam, nx, nz)
        problem = FrontProblem(grid=grid, reaction=reaction, rho=rho, ehat=ehat)
        try:
            sol = find_front(problem)
        except NumericalError:
            rows[a] = None
            continue
        rows[a] = _front_observables(sol, reaction)
    rep.data["runs"] = rows
    if any(v is None for v in rows.values()):
        rep.verdict = "unresolved"
        return rep

    a_sorted = sorted(rows)
    cs = [rows[a]["c"] for a in a_sorted]
    gaps = [abs(c2 - c1) for c1, c2 in zip(cs, cs[1:])]
    rep.data["speed_gaps"] = gaps
    rep.add("speed_gaps_decreasing", gaps[-1], gaps[0],
            all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:])))
    for key in ("gradT2", "u_sup", "f_int"):
        vals = [rows[a][key] for a in a_sorted]
        band = max(vals) / max(min(vals), 1e-300)
        rep.add(f"{key}_band", band, 1.2, band <= 1.2)
    return rep.finalize()


def verify_nash_ratio() -> Report:
    """Nash ratio over the fuzz corpus: homogeneous of degree zero,
    positive, and with a grid-converged infimum."""
    rep = Report(title="nash-ratio")
    fields = nash_fuzz_corpus(n_fields=1000, grid_shape=(129, 33))
    ratios = np.array([nash_ratio(f, f.grid.lam) for f in fields])
    refined = nash_fuzz_corpus(n_fields=1000, grid_shape=(257, 65))
    ratios_fine = np.array([nash_ratio(f, f.grid.lam) for f in refined])
    first = fields[0]
    base = nash_ratio(first, first.grid.lam)
    for alpha in (10.0, 0.1):
        scaled = nash_ratio(ScalarField(first.grid, alpha * first.values), first.grid.lam)
        dev = abs(scaled / base - 1.0)
        rep.add(f"scale_invariance_x{alpha:g}", dev, 1e-10, dev <= 1e-10)
    rep.add("min_ratio", ratios.min(), 0.0, ratios.min() > 0.0)
    drift = abs(ratios.min() - ratios_fine.min()) / ratios_fine.min()
    rep.add("refinement_drift", drift, 0.01, drift <= 0.01)
    rep.data["min_ratio_fine"] = float(ratios_fine.min())
    return rep.finalize()


def verify_flow_uniform_decay() -> Report:
    """L-infinity decay of a passive scalar at a rate independent of the
    divergence-free flow, with mass conserved and a refined oracle."""
    rep = Report(title="flow-uniform-decay")
    flows = {
        "zero": FlowSpec(),
        "shear5": FlowSpec("shear", 5.0),
        "cellular5": FlowSpec("cellular", 5.0, 4, 1),
        "cellular10": FlowSpec("cellular", 10.0, 4, 1),
    }
    runs = {name: decay_experiment(DecayExperiment(flow=spec)) for name, spec in flows.items()}
    consts = {}
    for name, series in runs.items():
        consts[name] = decay_constant_sup(series, 1.0, 1.0)
        drift = float(np.abs(series.l1 - series.l1[0]).max() / series.l1[0])
        rep.add(f"mass_drift_{name}", drift, 1e-8, drift <= 1e-8)
    band = max(consts.values()) / min(consts.values())
    rep.add("uniformity_band", band, 2.0, band <= 2.0)
    rep.data["decay_constants"] = consts

    zero = runs["zero"]
    fine = decay_experiment(DecayExperiment(nx=512, nz=65, dt=0.005))
    keep = zero.t >= 1.0
    fine_at = np.interp(zero.t[keep], fine.t, fine.linf)
    rel = float(np.abs(zero.linf[keep] - fine_at).max() / fine_at.max())
    rep.add("zero_flow_vs_refined_oracle", rel, 0.05, rel <= 0.05)
    return rep.finalize()


def fit_envelope_constant(snapshots, prof, series, grid, t_fit=5.0) -> float:
    """Smallest constant making both traveling-wave envelopes hold on the
    fit window; monotone in the constant, so bisection suffices."""

    def ok(c0_const):
        return _envelope_margin(snapshots, prof, series, grid, c0_const, 0.0, t_fit) >= 0.0

    lo, hi = 0.0, 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError("no envelope constant found")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _envelope_margin(snapshots, prof, series, grid, C0, t_lo, t_hi) -> float:
    ts = series.column("t")
    ubars = series.column("Ubar")
    worst = math.inf
    for (t, colmax, shift), ubar in zip(snapshots, ubars):
        if not (t_lo < t <= t_hi) or t <= 0.0:
            continue
        x_lab = grid.x + shift
        drift = ubar * t + C0 * (1.0 + math.sqrt(t))
        lower = profile_eval(prof, x_lab - prof.c0 * t + drift) - C0 / math.sqrt(t)
        upper = profile_eval(prof, x_lab - prof.c0 * t - drift) + C0 / math.sqrt(t)
        worst = min(worst, float((colmax - lower).min()), float((upper - colmax).min()))
    return worst


def envelope_report(config: SimConfig, t_fit: float = 5.0) -> Report:
    """Sandwich the evolving front between shifted laminar profiles."""
    prof = laminar_speed(config.reaction, tol=1e-6)
    snapshots = []

    def observer(state):
        snapshots.append(
            (state.t, state.T.values.max(axis=1).copy(), state.shift_accum)
        )

    series = run(config, observer=observer)
    rep = Report(title="front-envelopes")
    C0 = fit_envelope_constant(snapshots, prof, series, config.grid, t_fit)
    rep.data["C0"] = C0
    margin = _envelope_margin(
        snapshots, prof, series, config.grid, C0, t_fit, config.t_end
    )
    rep.add("late_time_margin", margin, 0.0, margin >= -1e-9,
            note="envelope constant fitted on the initial window only")
    return rep.finalize()
