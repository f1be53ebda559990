"""Transform-based elliptic solver checks: exactness vs the 3-point stencil."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, dst, idct, idst

from frontlab.elliptic import (
    _RECIPROCALS_KEPT,
    EllipticPlan,
    helmholtz_solve,
    linear_lift,
    plan_for,
    poincare_mode_constant,
    poisson_dirichlet,
)
from frontlab.errors import ConfigurationError
from frontlab.grid import (
    ScalarField,
    all_neumann_bc,
    constant_field,
    field_from_function,
    laplacian,
    make_grid,
    periodic_bc,
    temperature_bc,
    vorticity_bc,
)


def _product_mode(g, kx=1, kz=1):
    return field_from_function(
        g,
        lambda X, Z: np.sin(kx * np.pi * (X + g.a) / (2 * g.a))
        * np.sin(kz * np.pi * Z / g.lam),
        vorticity_bc(),
    )


def test_poisson_zero_rhs():
    g = make_grid(2.0, 1.0, 33, 17)
    psi = poisson_dirichlet(constant_field(g, 0.0))
    assert np.abs(psi.values).max() == 0.0


def test_poisson_discrete_manufactured_solution():
    g = make_grid(2.0, 1.0, 65, 33)
    target = _product_mode(g)
    rhs = laplacian(target)
    psi = poisson_dirichlet(rhs)
    assert np.abs(psi.values - target.values).max() < 1e-11


def test_poisson_residual_is_tiny():
    g = make_grid(2.0, 1.0, 65, 33)
    rng = np.random.default_rng(11)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    psi = poisson_dirichlet(rhs)
    res = laplacian(psi).values[1:-1, 1:-1] - rhs.values[1:-1, 1:-1]
    assert np.abs(res).max() <= 1e-11 * max(np.abs(rhs.values).max(), 1.0)
    assert psi.bc_violation() == 0.0


def _continuum_error(nx, nz):
    g = make_grid(2.0, 1.0, nx, nz)
    mu = np.pi**2 / (4 * g.a**2) + np.pi**2 / g.lam**2
    target = _product_mode(g)
    rhs = ScalarField(g, -mu * target.values)
    psi = poisson_dirichlet(rhs)
    return np.abs(psi.values - target.values).max()


def test_poisson_continuum_refinement_ratio():
    ratio = _continuum_error(33, 17) / _continuum_error(65, 33)
    assert 3.6 <= ratio <= 4.4


def test_helmholtz_s_zero_is_identity():
    g = make_grid(2.0, 1.0, 17, 17)
    rng = np.random.default_rng(0)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    u = helmholtz_solve(rhs, 0.0, vorticity_bc())
    assert np.array_equal(u.values, rhs.values)


def test_helmholtz_eigenmode_scaling():
    g = make_grid(2.0, 1.0, 33, 17)
    plan = plan_for(g, temperature_bc())
    phi = field_from_function(
        g,
        lambda X, Z: np.sin(np.pi * (X + g.a) / (2 * g.a)) * np.cos(np.pi * Z / g.lam),
    )
    mu = plan.eigenvalues[0, 1]
    s = 0.37
    rhs = ScalarField(g, (1.0 - s * mu) * phi.values)
    u = helmholtz_solve(rhs, s, temperature_bc())
    assert np.abs(u.values - phi.values).max() < 1e-12


def test_helmholtz_neumann_constant_fixed_point():
    g = make_grid(2.0, 1.0, 17, 17)
    rhs = constant_field(g, 3.25)
    for s in (0.1, 1.0, 10.0):
        u = helmholtz_solve(rhs, s, all_neumann_bc())
        assert np.abs(u.values - 3.25).max() < 1e-12


def test_helmholtz_rejects_negative_s():
    g = make_grid(2.0, 1.0, 17, 17)
    with pytest.raises(ConfigurationError):
        helmholtz_solve(constant_field(g, 1.0), -0.1, vorticity_bc())


def test_poisson_all_neumann_rejected():
    g = make_grid(2.0, 1.0, 17, 17)
    plan = plan_for(g, all_neumann_bc())
    with pytest.raises(ConfigurationError):
        plan.solve_poisson(constant_field(g, 1.0))


def test_poincare_constant_matches_strip_width():
    for lam, expect in ((np.pi, 1.0), (2 * np.pi, 2.0)):
        g = make_grid(60.0, lam, 257, 129)
        c = poincare_mode_constant(vorticity_bc(), g)
        assert c == pytest.approx(expect, rel=0.01)


def test_poincare_constant_grid_converged():
    lam = np.pi
    c1 = poincare_mode_constant(vorticity_bc(), make_grid(60.0, lam, 257, 129))
    c2 = poincare_mode_constant(vorticity_bc(), make_grid(60.0, lam, 257, 257))
    assert abs(c2 - c1) / c1 < 0.005


def test_poincare_all_neumann_rejected():
    g = make_grid(2.0, 1.0, 17, 17)
    with pytest.raises(ConfigurationError):
        poincare_mode_constant(all_neumann_bc(), g)


_PLAN_BCS = (temperature_bc(0.0, 0.0), vorticity_bc(), all_neumann_bc(), periodic_bc())


def test_transform_roundtrip():
    rng = np.random.default_rng(2)
    for shape in ((33, 17), (31, 8), (16, 9)):
        g = make_grid(2.0, 1.0, *shape)
        for bc in _PLAN_BCS:
            plan = EllipticPlan(g, bc)
            a = plan._unknowns(rng.standard_normal(g.shape)).copy()
            back = plan._inverse(plan._forward(a))
            assert back.shape == a.shape
            assert np.abs(back - a).max() < 1e-12 * np.abs(a).max()


@pytest.mark.parametrize("nz", [8, 17, 33, 65])
def test_z_matrices_reproduce_scipy_type1_transforms(nz):
    g = make_grid(2.0, 1.0, 21, nz)
    rng = np.random.default_rng(nz)
    for bc, forward, inverse in (
        (vorticity_bc(), dst, idst),
        (all_neumann_bc(), dct, idct),
    ):
        plan = EllipticPlan(g, bc)
        a = plan._unknowns(rng.standard_normal(g.shape))
        for matrix, transform in ((plan._z_forward, forward), (plan._z_inverse, inverse)):
            ref = transform(a, type=1, axis=1)
            assert np.abs(a @ matrix - ref).max() <= 1e-13 * np.abs(ref).max()


def test_reciprocal_memo_never_serves_a_stale_denominator():
    g = make_grid(2.0, 1.0, 24, 9)
    rhs = ScalarField(g, np.random.default_rng(5).standard_normal(g.shape))
    periodic = EllipticPlan(g, periodic_bc())
    walls = EllipticPlan(g, vorticity_bc())

    def same_as_fresh(plan, s):
        fresh = EllipticPlan(g, plan.bc)
        assert np.array_equal(
            plan.solve_helmholtz(rhs, s).values, fresh.solve_helmholtz(rhs, s).values
        )

    s1, s2, short = 0.02, 0.37, 0.02 * 0.25
    for s in (s1, s2, s1, short, s1):
        same_as_fresh(periodic, s)
        same_as_fresh(walls, s)
        omega, psi = walls.solve_helmholtz_streamfunction(rhs, s)
        fresh_omega, fresh_psi = EllipticPlan(g, walls.bc).solve_helmholtz_streamfunction(rhs, s)
        assert np.array_equal(omega.values, fresh_omega.values)
        assert np.array_equal(psi.values, fresh_psi.values)
        helmholtz = walls.solve_helmholtz(rhs, s).values
        assert np.abs(omega.values - helmholtz).max() <= 1e-12 * np.abs(helmholtz).max()
    for s in np.linspace(0.01, 1.0, 3 * _RECIPROCALS_KEPT):
        periodic.solve_helmholtz(rhs, s)
        assert len(periodic._reciprocals) <= _RECIPROCALS_KEPT
    same_as_fresh(periodic, s1)  # s1 was evicted and is rebuilt


def test_poisson_superposition():
    g = make_grid(2.0, 1.0, 33, 17)
    rng = np.random.default_rng(4)
    r1 = ScalarField(g, rng.standard_normal(g.shape))
    r2 = ScalarField(g, rng.standard_normal(g.shape))
    a, b = 1.7, -2.3
    combo = ScalarField(g, a * r1.values + b * r2.values)
    lhs = poisson_dirichlet(combo).values
    rhs = a * poisson_dirichlet(r1).values + b * poisson_dirichlet(r2).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_eigenvalue_signs_and_zero_modes():
    g = make_grid(2.0, 1.0, 17, 17)
    for bc in (vorticity_bc(), temperature_bc()):
        mu = plan_for(g, bc).eigenvalues
        assert mu.max() < 0.0  # no zero mode with a Dirichlet direction
    for bc in (all_neumann_bc(), periodic_bc()):
        mu_n = plan_for(g, bc).eigenvalues
        assert mu_n.max() == 0.0
        assert (mu_n == 0.0).sum() == 1  # only the constant mode
        assert mu_n.min() < 0.0
    with pytest.raises(ConfigurationError):
        plan_for(g, periodic_bc()).solve_poisson(constant_field(g, 1.0))
    for bc in (all_neumann_bc(), periodic_bc()):
        with pytest.raises(ConfigurationError):
            plan_for(g, bc).solve_helmholtz_streamfunction(constant_field(g, 1.0), 0.1)


@settings(max_examples=40, deadline=None)
@given(
    bc=st.sampled_from(_PLAN_BCS),
    nx=st.integers(8, 40),
    nz=st.integers(8, 24),
    s=st.floats(1e-4, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_helmholtz_inverts_the_ghost_stencil(bc, nx, nz, s, seed):
    # u - s*lap(u) = rhs on the plan's unknown nodes, lap from grid's ghosts
    g = make_grid(1.5, 1.0, nx, nz)
    plan = plan_for(g, bc)
    rhs = np.random.default_rng(seed).standard_normal(g.shape)
    u = plan.solve_helmholtz(ScalarField(g, rhs), s)
    res = (u.values - s * laplacian(u).values - rhs)[plan._xsl, plan._zsl]
    scale = 1.0 + s * (4.0 / g.hx**2 + 4.0 / g.hz**2)
    assert np.abs(res).max() <= 1e-13 * scale * np.abs(rhs).max()


def test_linear_lift_is_harmonic():
    g = make_grid(2.0, 1.0, 17, 17)
    lift = linear_lift(g, 1.0, 0.0)
    f = ScalarField(g, np.broadcast_to(lift, g.shape).copy(), temperature_bc())
    assert np.abs(laplacian(f).values).max() < 1e-13
    assert f.values[0, 0] == 1.0 and f.values[-1, 0] == 0.0
