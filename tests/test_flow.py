"""Velocity recovery and vorticity right-hand-side identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from frontlab.elliptic import plan_for, poisson_dirichlet
from frontlab.errors import ConfigurationError
from frontlab.flow import (
    FlowState,
    GravityDir,
    advect,
    buoyancy_torque,
    flow_from_streamfunction,
    velocity_from_vorticity,
    vorticity_rhs,
    weighted_inner,
)
from frontlab.grid import (
    DIRICHLET,
    ScalarField,
    _diff_ghost_axis,
    constant_field,
    dx_bc,
    dz_bc,
    edge_grad_sq,
    field_from_function,
    laplacian,
    make_grid,
    temperature_bc,
    vorticity_bc,
)


def _mode(g, kx=1, kz=1):
    return field_from_function(
        g,
        lambda X, Z: np.sin(kx * np.pi * (X + g.a) / (2 * g.a))
        * np.sin(kz * np.pi * Z / g.lam),
        vorticity_bc(),
    )


def _random_vorticity(g, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    w = np.zeros(g.shape)
    X, Z = g.mesh()
    for kx in range(1, 4):
        for kz in range(1, 4):
            w += rng.standard_normal() * np.sin(
                kx * np.pi * (X + g.a) / (2 * g.a)
            ) * np.sin(kz * np.pi * Z / g.lam)
    return ScalarField(g, scale * w, vorticity_bc())


def test_gravity_direction_validation():
    GravityDir(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        GravityDir(1.0, 1.0)
    e = GravityDir.normalized(3.0, 4.0)
    assert e.e1 == pytest.approx(0.6) and e.e2 == pytest.approx(0.8)
    assert GravityDir(1.0, 0.0).axis_aligned
    assert not GravityDir.normalized(1.0, 1.0).axis_aligned


@pytest.mark.parametrize(
    "make",
    [
        lambda: GravityDir(np.nan, 1.0),
        lambda: GravityDir(0.0, np.inf),
        lambda: GravityDir.normalized(0.0, 0.0),
        lambda: GravityDir.normalized(np.nan, 1.0),
        lambda: GravityDir.normalized(np.inf, 0.0),
    ],
    ids=["nan", "inf", "zero", "normalized-nan", "normalized-inf"],
)
def test_gravity_direction_rejects_non_finite(make):
    with pytest.raises(ConfigurationError):
        make()


def test_zero_vorticity_gives_zero_flow():
    g = make_grid(2.0, 1.0, 33, 17)
    st = velocity_from_vorticity(constant_field(g, 0.0, vorticity_bc()))
    assert not st.v.values.any() and not st.w.values.any()


def test_eigenmode_streamfunction_and_velocities():
    g = make_grid(2.0, 1.0, 129, 65)
    plan = plan_for(g, vorticity_bc())
    mu = abs(plan.eigenvalues[0, 0])
    omega = ScalarField(g, mu * _mode(g).values, vorticity_bc())
    st = velocity_from_vorticity(omega)
    # psi is the same mode with unit amplitude
    assert np.abs(st.psi.values - _mode(g).values).max() < 1e-10
    X, Z = g.mesh()
    v_exact = (np.pi / g.lam) * np.sin(np.pi * (X + g.a) / (2 * g.a)) * np.cos(np.pi * Z / g.lam)
    w_exact = -(np.pi / (2 * g.a)) * np.cos(np.pi * (X + g.a) / (2 * g.a)) * np.sin(np.pi * Z / g.lam)
    assert np.abs(st.v.values - v_exact).max() < 2e-3
    assert np.abs(st.w.values - w_exact).max() < 2e-3


def test_velocity_boundary_conditions():
    g = make_grid(2.0, 1.0, 65, 33)
    st = velocity_from_vorticity(_random_vorticity(g, seed=1))
    assert np.abs(st.w.values[:, 0]).max() == 0.0
    assert np.abs(st.w.values[:, -1]).max() == 0.0
    assert np.abs(st.v.values[0, :]).max() == 0.0
    assert np.abs(st.v.values[-1, :]).max() == 0.0


def test_divergence_free_and_column_means():
    g = make_grid(2.0, 1.0, 65, 33)
    st = velocity_from_vorticity(_random_vorticity(g, seed=2))
    assert st.max_interior_divergence() < 1e-11
    assert st.max_column_mean() <= 1e-10


@pytest.mark.parametrize("shape", [(65, 33), (129, 17)])
def test_shared_spectrum_streamfunction(shape):
    g = make_grid(2.0, 1.0, *shape)
    rhs = _random_vorticity(g, seed=9).values + 0.1 * np.random.default_rng(9).standard_normal(g.shape)
    plan = plan_for(g, vorticity_bc())
    s = 0.013
    omega, psi = plan.solve_helmholtz_streamfunction(ScalarField(g, rhs), s)
    # omega is -lap(psi): the Helmholtz solution up to transform round-off
    helmholtz = plan.solve_helmholtz(ScalarField(g, rhs), s).values
    assert np.abs(omega.values - helmholtz).max() <= 1e-12 * np.abs(helmholtz).max()
    assert np.array_equal(omega.values, -laplacian(psi).values)
    assert omega.bc_violation() == 0.0
    # a lent spectrum scratch changes nothing
    lent = plan.solve_helmholtz_streamfunction(ScalarField(g, rhs), s, np.empty(plan.unknowns_shape))
    assert np.array_equal(lent[1].values, psi.values)
    ref = poisson_dirichlet(ScalarField(g, -omega.values)).values
    assert np.abs(psi.values - ref).max() <= 1e-12 * np.abs(ref).max()
    st = flow_from_streamfunction(omega, psi)
    assert st.max_interior_divergence() < 1e-11
    assert st.max_column_mean() <= 1e-10


def _centered(f, h, axis):
    """The centered difference; its interior nodes do not depend on the ghost rule."""
    return _diff_ghost_axis(f, h, axis, (DIRICHLET, 0.0), (DIRICHLET, 0.0))


def _curl(st):
    g = st.omega.grid
    return _centered(st.w.values, g.hx, 0) - _centered(st.v.values, g.hz, 1)


def test_divergence_exact_on_dyadic_streamfunction():
    g = make_grid(1.0, 1.0, 9, 9)
    rng = np.random.default_rng(8)
    psi = rng.integers(-9, 9, size=g.shape).astype(float)
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    psi_f = ScalarField(g, psi, vorticity_bc())
    v = dz_bc(psi_f).values
    w = -dx_bc(psi_f).values
    gx = _centered(v, g.hx, 0)[1:-1, 1:-1]
    gz = _centered(w, g.hz, 1)[1:-1, 1:-1]
    assert np.array_equal(gx, -gz)


def test_vorticity_reconstruction():
    g = make_grid(2.0, 1.0, 129, 65)
    omega = _random_vorticity(g, seed=3)
    st = velocity_from_vorticity(omega)
    recon = _curl(st)
    err = np.abs(recon - omega.values)[2:-2, 2:-2].max()
    g2 = make_grid(2.0, 1.0, 257, 129)
    omega2 = _random_vorticity(g2, seed=3)
    st2 = velocity_from_vorticity(omega2)
    err2 = np.abs(_curl(st2) - omega2.values)[2:-2, 2:-2].max()
    assert err2 < err  # O(h^2) convergence toward omega
    assert err < 0.05 * np.abs(omega.values).max()


def test_rhs_zero_for_trivial_state():
    g = make_grid(2.0, 1.0, 33, 17)
    st = velocity_from_vorticity(constant_field(g, 0.0, vorticity_bc()))
    T = constant_field(g, 0.5, temperature_bc(0.5, 0.5))
    out = vorticity_rhs(st, T, rho=1.0, sigma=1.0, ehat=GravityDir(0.0, 1.0), c=0.3, tau=1.0)
    assert np.abs(out.values).max() < 1e-14


def test_rhs_eigenmode_with_frozen_flow():
    g = make_grid(2.0, 1.0, 65, 33)
    plan = plan_for(g, vorticity_bc())
    mu = plan.eigenvalues[0, 0]
    phi = _mode(g)
    zero = constant_field(g, 0.0)
    st = FlowState(omega=phi, psi=zero, v=zero, w=zero)
    T = constant_field(g, 0.0, temperature_bc())
    sigma = 0.7
    out = vorticity_rhs(st, T, rho=0.0, sigma=sigma, ehat=GravityDir(0.0, 1.0), c=0.0, tau=1.0)
    assert np.abs(out.values[1:-1, 1:-1] - sigma * mu * phi.values[1:-1, 1:-1]).max() < 1e-10


def test_rhs_tau_zero_kills_forcing():
    g = make_grid(2.0, 1.0, 33, 17)
    st = velocity_from_vorticity(constant_field(g, 0.0, vorticity_bc()))
    T = field_from_function(g, lambda X, Z: np.exp(-X**2) * (1 + Z), temperature_bc())
    out = vorticity_rhs(st, T, rho=2.0, sigma=1.0, ehat=GravityDir.normalized(1, 1), c=0.0, tau=0.0)
    assert np.abs(out.values).max() < 1e-14


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(9, 80), nz=hst.integers(9, 40), seed=hst.integers(0, 2**32 - 1))
def test_advection_antisymmetry(nx, nz, seed):
    g = make_grid(2.0, 1.0, nx, nz)
    omega = _random_vorticity(g, seed=seed)
    st = velocity_from_vorticity(omega)
    adv = ScalarField(g, advect(st.v.values, st.w.values, omega))
    inner = weighted_inner(omega, adv)
    scale = np.sqrt(weighted_inner(omega, omega)) * np.sqrt(weighted_inner(adv, adv))
    assert abs(inner) <= 1e-8 * max(scale, 1e-30)


def test_laplacian_pairing_with_edge_energy():
    g = make_grid(2.0, 1.0, 65, 33)
    omega = _random_vorticity(g, seed=5)
    lhs = weighted_inner(omega, laplacian(omega))
    assert lhs == pytest.approx(-edge_grad_sq(omega), rel=1e-12)


def test_energy_identity_of_rhs():
    g = make_grid(2.0, 1.0, 65, 33)
    omega = _random_vorticity(g, seed=6)
    st = velocity_from_vorticity(omega)
    T = field_from_function(
        g, lambda X, Z: 1.0 / (1.0 + np.exp(2.0 * X)) + 0.05 * np.cos(np.pi * Z / g.lam),
        temperature_bc(),
    )
    rho, sigma, tau = 0.8, 1.3, 0.6
    ehat = GravityDir.normalized(1.0, 2.0)
    rhs = vorticity_rhs(st, T, rho, sigma, ehat, c=0.0, tau=tau)
    lhs = weighted_inner(omega, rhs)
    forcing = ScalarField(g, buoyancy_torque(T, rho, ehat, tau))
    expect = -sigma * edge_grad_sq(omega) + weighted_inner(omega, forcing)
    assert lhs == pytest.approx(expect, rel=1e-8)
