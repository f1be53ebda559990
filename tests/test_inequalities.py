"""Nash ratio, implicit decay rate, and flow-uniform decay checks."""

import numpy as np
import pytest

from frontlab.elliptic import EllipticPlan
from frontlab.errors import BlowUpError, ConfigurationError
from frontlab.grid import field_from_function, make_grid
from frontlab.inequalities import (
    DecayExperiment,
    FlowSpec,
    decay_constant_sup,
    decay_experiment,
    fit_l2_decay_constant,
    max_divergence,
    nash_fuzz_corpus,
    nash_ratio,
    solve_n_of_t,
)


def test_n_of_t_pinned_root():
    # root of n^4/(1+n^3) = 1, from high-precision bisection
    assert solve_n_of_t(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        1.3802775690976141, rel=1e-11
    )


def test_n_of_t_large_time_asymptotics():
    lam, sigma, C = 2.0, 0.7, 2.5
    for t in (1e7, 1e9):
        n = solve_n_of_t(t, lam, sigma, C)
        assert n**2 * lam * np.sqrt(sigma * t) == pytest.approx(np.sqrt(C), rel=1e-4)


def test_n_of_t_monotone_decreasing():
    for t in (0.1, 1.0, 7.0, 50.0):
        assert solve_n_of_t(2 * t, 1.0, 1.0, 1.0) < solve_n_of_t(t, 1.0, 1.0, 1.0)


def test_n_of_t_validates_arguments():
    with pytest.raises(ConfigurationError):
        solve_n_of_t(0.0, 1.0, 1.0, 1.0)


def test_nash_ratio_scale_invariance():
    g = make_grid(4.0, 1.5, 65, 33)
    f = field_from_function(g, lambda X, Z: np.exp(-X**2) * (1 + 0.3 * np.cos(np.pi * Z / g.lam)))
    base = nash_ratio(f, g.lam)
    for alpha in (0.1, 10.0):
        scaled = field_from_function(
            g, lambda X, Z: alpha * np.exp(-X**2) * (1 + 0.3 * np.cos(np.pi * Z / g.lam))
        )
        assert nash_ratio(scaled, g.lam) == pytest.approx(base, rel=1e-10)


def test_nash_ratio_single_mode_pin():
    # regression pin, from direct evaluation on this exact grid
    g = make_grid(8.0, 2.0, 257, 65)
    f = field_from_function(g, lambda X, Z: np.cos(np.pi * Z / g.lam))
    assert nash_ratio(f, g.lam) == pytest.approx(439.4528817884, rel=1e-9)


def test_nash_ratio_rejects_zero_field():
    g = make_grid(4.0, 1.0, 33, 17)
    with pytest.raises(ConfigurationError):
        nash_ratio(field_from_function(g, lambda X, Z: 0.0 * X), g.lam)


def test_nash_fuzz_corpus_positive_and_refinement_stable():
    fields = nash_fuzz_corpus(n_fields=200, grid_shape=(129, 33))
    ratios = np.array([nash_ratio(f, f.grid.lam) for f in fields])
    assert ratios.min() > 0.0
    refined = nash_fuzz_corpus(n_fields=200, grid_shape=(257, 65))
    ratios_fine = np.array([nash_ratio(f, f.grid.lam) for f in refined])
    assert ratios_fine.min() > 0.0
    assert abs(ratios.min() - ratios_fine.min()) <= 0.01 * ratios_fine.min()


def test_flow_divergence_free():
    for spec in (FlowSpec("shear", 5.0), FlowSpec("cellular", 10.0, 4, 1)):
        assert max_divergence(DecayExperiment(flow=spec)) <= 1e-12


def _short_exp(spec, **kw):
    return DecayExperiment(flow=spec, t_end=kw.pop("t_end", 5.0),
                           nx=kw.pop("nx", 128), nz=kw.pop("nz", 17), **kw)


def test_decay_conserves_mass_and_l2_monotone():
    s = decay_experiment(_short_exp(FlowSpec("cellular", 5.0, 3, 1)))
    assert np.abs(s.l1 - s.l1[0]).max() <= 1e-8 * s.l1[0]
    rises = np.diff(s.l2) / s.l2[:-1]
    assert rises.max() <= 1e-10


def test_zero_flow_matches_refined_oracle():
    coarse = decay_experiment(DecayExperiment(t_end=8.0, nx=128, nz=17, dt=0.01))
    fine = decay_experiment(DecayExperiment(t_end=8.0, nx=256, nz=33, dt=0.005))
    keep = coarse.t >= 1.0
    fine_at = np.interp(coarse.t[keep], fine.t, fine.linf)
    rel = np.abs(coarse.linf[keep] - fine_at) / fine_at
    assert rel.max() <= 0.05


def test_flow_uniform_decay_constant_short():
    consts = []
    for spec in (FlowSpec(), FlowSpec("shear", 5.0), FlowSpec("cellular", 5.0, 3, 1)):
        s = decay_experiment(_short_exp(spec, t_end=6.0))
        consts.append(decay_constant_sup(s, 1.0, 1.0, 1.0, 6.0))
    assert max(consts) / min(consts) <= 2.0


def test_l2_bound_transfers_across_flows():
    zero = decay_experiment(_short_exp(FlowSpec(), t_end=6.0))
    C = fit_l2_decay_constant(zero, 1.0, 1.0)
    s = decay_experiment(_short_exp(FlowSpec("cellular", 5.0, 3, 1), t_end=6.0))
    keep = s.t >= 1.0
    z = s.l2[keep] / s.l1[0]
    bound = np.array([solve_n_of_t(t, 1.0, 1.0, C) for t in s.t[keep]])
    assert np.all(z <= bound * (1.0 + 1e-9))


def test_short_decay_regression_pin():
    # pinned from the hand-written rFFT x DCT-I decay solver that the
    # periodic EllipticPlan replaced: the swap must not move these numbers
    s = decay_experiment(_short_exp(FlowSpec("cellular", 5.0, 4, 1)))
    assert decay_constant_sup(s, 1.0, 1.0) == pytest.approx(0.23583789657316856, rel=1e-12)
    assert s.linf[-1] == pytest.approx(0.10546991368163389, rel=1e-12)
    assert s.l2[-1] == pytest.approx(0.27619077552440885, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_blow_up_names_the_time(monkeypatch, bad):
    solve = EllipticPlan.solve_helmholtz
    calls = []

    def poisoned(plan, rhs, s):
        out = solve(plan, rhs, s)
        calls.append(s)
        if len(calls) == 3:
            out.values[5, 3] = bad
        return out

    monkeypatch.setattr(EllipticPlan, "solve_helmholtz", poisoned)
    exp = DecayExperiment(t_end=1.0, nx=16, nz=8, dt=0.125)
    with pytest.raises(BlowUpError, match=r"t=0\.375\b") as info:
        decay_experiment(exp)
    assert len(calls) == 3
    # the rows up to the last finite step ride on the error
    partial = info.value.partial_series
    assert partial.t.tolist() == [0.0, 0.125, 0.25]
    assert np.isfinite(partial.linf).all() and partial.metadata["dt"] == 0.125


@pytest.mark.parametrize(
    "bad",
    [
        *(dict(dt=value) for value in (0.0, -0.1, np.nan, np.inf)),
        *(
            {name: value}
            for name in ("t_end", "lam", "box_length", "sigma", "psi0_width")
            for value in (0.0, -1.0, np.nan, np.inf)
        ),
    ],
)
def test_decay_experiment_rejects_bad_values(bad):
    # dt = 0 would never reach t_end, and NaN must fail every check
    with pytest.raises(ConfigurationError):
        DecayExperiment(**{**dict(t_end=1.0, nx=16, nz=8), **bad})


@pytest.mark.parametrize(
    "bad",
    [
        *(dict(amplitude=value) for value in (np.nan, np.inf, -np.inf)),
        *({name: value} for name in ("cells_x", "cells_z") for value in (0, -1, 2.5, np.nan)),
    ],
)
def test_flow_spec_rejects_bad_values(bad):
    # zero cells would divide by zero in the cellular velocity
    with pytest.raises(ConfigurationError):
        FlowSpec(**{**dict(kind="cellular", amplitude=5.0), **bad})
