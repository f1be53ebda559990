"""Grid, quadrature and stencil checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontlab.errors import ConfigurationError
from frontlab.grid import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    BCEnd,
    BoundaryKind,
    ScalarField,
    _diff_ghost_axis,
    all_neumann_bc,
    constant_field,
    dx_bc,
    dz_bc,
    edge_grad_sq,
    field_from_function,
    integrate,
    laplacian,
    make_grid,
    node_weights,
    temperature_bc,
    vorticity_bc,
)


def test_spacing_formula():
    g = make_grid(10.0, 2.0, 11, 9)
    assert g.hx == 2.0
    assert g.hz == 0.25


def test_spacing_formula_small():
    g = make_grid(1.0, 1.0, 8, 8)
    assert g.hx == pytest.approx(2.0 / 7.0, rel=1e-15)
    assert g.hz == pytest.approx(1.0 / 7.0, rel=1e-15)


@pytest.mark.parametrize(
    "args",
    [
        (-1.0, 1.0, 16, 16),
        (1.0, 0.0, 16, 16),
        (1.0, 1.0, 7, 16),
        (1.0, 1.0, 16, 5),
        (float("inf"), 1.0, 16, 16),
        (1.0, float("nan"), 16, 16),
        (1e200, 1.0, 16, 16),
        (1.0, 1e-200, 16, 16),
    ],
)
def test_bad_grid_params_rejected(args):
    with pytest.raises(ConfigurationError):
        make_grid(*args)


def test_field_shape_checked():
    g = make_grid(1.0, 1.0, 9, 9)
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.zeros((9, 8)))


def test_integrate_constant_is_area():
    g = make_grid(10.0, 2.0, 33, 17)
    assert integrate(constant_field(g, 1.0)) == pytest.approx(40.0, rel=1e-14)


def test_integrate_odd_symmetries_vanish():
    g = make_grid(10.0, 2.0, 65, 33)
    fz = field_from_function(g, lambda X, Z: np.cos(np.pi * Z / g.lam))
    fx = field_from_function(g, lambda X, Z: X)
    assert abs(integrate(fz)) < 1e-12
    assert abs(integrate(fx)) < 1e-12


def test_integrate_linearity():
    g = make_grid(3.0, 2.0, 17, 17)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    a, b = 2.25, -0.7
    combo = ScalarField(g, a * f.values + b * h.values)
    lhs = integrate(combo)
    rhs = a * integrate(f) + b * integrate(h)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grad_sq_norm_linear_ramp():
    a, lam = 5.0, 2.0
    g = make_grid(a, lam, 41, 21)
    f = field_from_function(g, lambda X, Z: X / (2 * a) + 0.5)
    assert edge_grad_sq(f) == pytest.approx(lam / (2 * a), rel=1e-12)


def test_grad_sq_norm_cosine_mode():
    # analytic integral of the squared z-gradient: 2a * (pi/lam)^2 * lam/2
    g = make_grid(1.0, 1.0, 33, 64)
    f = field_from_function(g, lambda X, Z: np.cos(np.pi * Z / g.lam))
    assert edge_grad_sq(f) == pytest.approx(np.pi**2, rel=0.02)


def test_grad_sq_norm_constant_zero():
    g = make_grid(1.0, 1.0, 16, 16)
    assert edge_grad_sq(constant_field(g, 3.7)) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    bc=st.sampled_from([temperature_bc(0.0, 0.0), vorticity_bc()]),
    nx=st.integers(8, 40),
    nz=st.integers(8, 40),
    a=st.floats(0.1, 20.0),
    lam=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_grad_sq_is_minus_f_dot_laplacian(bc, nx, nz, a, lam, seed):
    # discrete integration by parts: exact for zero ends and zero or
    # Neumann walls, which is what the energy identities rely on
    g = make_grid(a, lam, nx, nz)
    f = np.random.default_rng(seed).standard_normal(g.shape)
    f[0, :] = f[-1, :] = 0.0
    if bc.z_walls == "dirichlet_zero":
        f[:, 0] = f[:, -1] = 0.0
    field = ScalarField(g, f, bc)
    by_parts = -float(np.sum(node_weights(g) * f * laplacian(field).values))
    assert edge_grad_sq(field) == pytest.approx(by_parts, rel=1e-12)


def test_dx_of_x_exact():
    # the Dirichlet ghosts continue the ramp, so the ends are exact too
    g = make_grid(2.0, 1.0, 17, 9)
    bc = BoundaryKind(BCEnd(DIRICHLET, -g.a), BCEnd(DIRICHLET, g.a), "neumann_zero")
    d = dx_bc(field_from_function(g, lambda X, Z: X, bc)).values
    assert np.abs(d - 1.0).max() < 1e-13


def test_dx_of_constant_zero():
    g = make_grid(2.0, 1.0, 17, 9)
    d = dx_bc(constant_field(g, 4.0, all_neumann_bc())).values
    assert np.abs(d).max() == 0.0


def _max_err_dz_cos(nz):
    # cos(pi z / lam) is even about both walls, as the Neumann ghost assumes
    g = make_grid(1.0, 1.0, 17, nz)
    f = field_from_function(g, lambda X, Z: np.cos(np.pi * Z / g.lam), temperature_bc())
    exact = field_from_function(
        g, lambda X, Z: -(np.pi / g.lam) * np.sin(np.pi * Z / g.lam)
    )
    return np.abs(dz_bc(f).values - exact.values).max()


def test_dz_second_order_by_refinement():
    ratio = _max_err_dz_cos(33) / _max_err_dz_cos(65)
    assert 3.6 <= ratio <= 4.4


def _centered(f, h, axis):
    """The centered difference; its interior nodes do not depend on the ghost rule."""
    return _diff_ghost_axis(f, h, axis, (NEUMANN, 0.0), (NEUMANN, 0.0))


def _refinement_ratio(op_err, base=(33, 17)):
    nx, nz = base
    return op_err(nx, nz) / op_err(2 * nx - 1, 2 * nz - 1)


def test_refinement_ratios_for_all_operators():
    def fn(X, Z):
        return np.sin(np.pi * X / 4.0) * np.cos(2 * np.pi * Z / 3.0)

    def fx(X, Z):
        return (np.pi / 4.0) * np.cos(np.pi * X / 4.0) * np.cos(2 * np.pi * Z / 3.0)

    def fz(X, Z):
        return -(2 * np.pi / 3.0) * np.sin(np.pi * X / 4.0) * np.sin(2 * np.pi * Z / 3.0)

    def err_dx(nx, nz):
        g = make_grid(2.0, 3.0, nx, nz)
        d = _centered(field_from_function(g, fn).values, g.hx, 0)
        return np.abs(d - field_from_function(g, fx).values)[1:-1, 1:-1].max()

    def err_dz(nx, nz):
        g = make_grid(2.0, 3.0, nx, nz)
        d = _centered(field_from_function(g, fn).values, g.hz, 1)
        return np.abs(d - field_from_function(g, fz).values)[1:-1, 1:-1].max()

    def err_gsq(nx, nz):
        g = make_grid(2.0, 3.0, nx, nz)
        approx = edge_grad_sq(field_from_function(g, fn))
        gg = make_grid(2.0, 3.0, 513, 385)
        ref = edge_grad_sq(field_from_function(gg, fn))
        return abs(approx - ref)

    for err in (err_dx, err_dz, err_gsq):
        assert 3.6 <= _refinement_ratio(err) <= 4.4


def test_mixed_derivatives_commute_exactly_on_dyadic_grid():
    # power-of-two spacings and integer data make every operation exact,
    # so the two compositions must agree bitwise on interior nodes
    g = make_grid(1.0, 1.0, 9, 9)
    rng = np.random.default_rng(3)
    f = rng.integers(-50, 50, size=g.shape).astype(float)
    ab = _centered(_centered(f, g.hx, 0), g.hz, 1)[1:-1, 1:-1]
    ba = _centered(_centered(f, g.hz, 1), g.hx, 0)[1:-1, 1:-1]
    assert np.array_equal(ab, ba)


def test_mixed_derivatives_commute_generally():
    g = make_grid(1.5, 2.0, 33, 21)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.shape)
    ab = _centered(_centered(f, g.hx, 0), g.hz, 1)[1:-1, 1:-1]
    ba = _centered(_centered(f, g.hz, 1), g.hx, 0)[1:-1, 1:-1]
    scale = max(np.abs(ab).max(), 1.0)
    assert np.abs(ab - ba).max() <= 1e-12 * scale


def test_bc_violation_reporting():
    g = make_grid(1.0, 1.0, 9, 9)
    f = constant_field(g, 0.0, temperature_bc())
    # left end should be 1: violation is exactly 1
    assert f.bc_violation() == pytest.approx(1.0)
    f.values[0, :] = 1.0
    assert f.bc_violation() == 0.0


def test_weights_and_abscissae_are_shared_and_read_only():
    g = make_grid(2.0, 1.0, 17, 9)
    assert node_weights(g) is node_weights(make_grid(2.0, 1.0, 17, 9))
    assert g.x is g.x
    for a in (node_weights(g), g.x):
        with pytest.raises(ValueError):
            a[0] = 1.0


# The concatenate/moveaxis ghost stencils the slice kernels replaced; the
# kernels must reproduce them bit for bit.
def _ref_ghost_pad(values, axis, lo_spec, hi_spec):
    f = np.moveaxis(values, axis, 0)
    kind_lo, val_lo = lo_spec
    kind_hi, val_hi = hi_spec
    if kind_lo == PERIODIC:
        lo, hi = f[-1:], f[:1]
    else:
        lo = 2.0 * val_lo - f[1:2] if kind_lo == DIRICHLET else f[1:2]
        hi = 2.0 * val_hi - f[-2:-1] if kind_hi == DIRICHLET else f[-2:-1]
    return np.moveaxis(np.concatenate([lo, f, hi], axis=0), 0, axis)


def _ref_diff_ghost(values, h, axis, lo_spec, hi_spec):
    f = np.moveaxis(_ref_ghost_pad(values, axis, lo_spec, hi_spec), axis, 0)
    return np.moveaxis((f[2:] - f[:-2]) * (0.5 / h), 0, axis)


def _ref_laplacian(values, hx, hz, xlo, xhi, zspec):
    fx = _ref_ghost_pad(values, 0, xlo, xhi)
    fz = _ref_ghost_pad(values, 1, zspec, zspec)
    lap = (fx[2:, :] - 2.0 * values + fx[:-2, :]) / hx**2
    lap += (fz[:, 2:] - 2.0 * values + fz[:, :-2]) / hz**2
    return lap


_END_SPECS = [(DIRICHLET, 0.0), (DIRICHLET, 1.0), (NEUMANN, 0.0)]
_SPEC_PAIRS = [(lo, hi) for lo in _END_SPECS for hi in _END_SPECS] + [
    ((PERIODIC, 0.0), (PERIODIC, 0.0))
]
_KERNEL_CASE = dict(
    nx=st.integers(8, 40),
    nz=st.integers(8, 40),
    h=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(axis=st.sampled_from([0, 1]), specs=st.sampled_from(_SPEC_PAIRS), **_KERNEL_CASE)
def test_derivative_kernels_match_the_padded_stencils_bitwise(axis, specs, nx, nz, h, seed):
    f = np.random.default_rng(seed).standard_normal((nx, nz))
    lo, hi = specs
    assert np.array_equal(_diff_ghost_axis(f, h, axis, lo, hi), _ref_diff_ghost(f, h, axis, lo, hi))


@settings(max_examples=40, deadline=None)
@given(
    xspecs=st.sampled_from(_SPEC_PAIRS),
    z_walls=st.sampled_from(["dirichlet_zero", "neumann_zero"]),
    **_KERNEL_CASE,
)
def test_laplacian_matches_the_padded_stencil_bitwise(xspecs, z_walls, nx, nz, h, seed):
    g = make_grid(h * (nx - 1) / 2.0, 0.7 * h * (nz - 1), nx, nz)
    xlo, xhi = xspecs
    bc = BoundaryKind(BCEnd(*xlo), BCEnd(*xhi), z_walls)
    zspec = (DIRICHLET, 0.0) if z_walls == "dirichlet_zero" else (NEUMANN, 0.0)
    f = np.random.default_rng(seed).standard_normal((nx, nz))
    ref = _ref_laplacian(f, g.hx, g.hz, xlo, xhi, zspec)
    assert np.array_equal(laplacian(ScalarField(g, f, bc)).values, ref)
