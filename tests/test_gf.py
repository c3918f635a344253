import numpy as np
import pytest

from gfsem.gf import SourceArrays, compute_gf_vars, gf_divergence
from gfsem.grid import State, make_grid
from helpers import kron_apply, random_kernel_data, smooth_random


def make_state(grid, fu, fv, fp):
    X, Y = grid.meshgrid()
    return State(grid, np.stack([np.broadcast_to(f(X, Y), grid.shape) for f in (fu, fv, fp)]))


def zero_sources(grid):
    z = np.zeros(grid.shape)
    return SourceArrays(su=z, sv=z, sp=z)


def test_gf_vars_of_constant_velocity():
    grid, ox, oy = make_grid(3, 4, 2)
    st = make_state(grid, lambda X, Y: 1.0 + 0 * X, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    gfv = compute_gf_vars(st, zero_sources(grid), ox, oy)
    X, Y = grid.meshgrid()
    assert np.abs(gfv.U - Y).max() < 1e-14
    assert np.abs(gfv.V).max() == 0.0
    assert np.abs(gfv.U[:, 0]).max() == 0.0  # vanishes on the starting line


def test_kp_of_unit_source_is_tensor_of_coordinates():
    grid, ox, oy = make_grid(2, 3, 3, box=(1.0, 2.0, -1.0, 1.0))
    st = make_state(grid, lambda X, Y: 0 * X, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    src = SourceArrays(su=np.zeros(grid.shape), sv=np.zeros(grid.shape),
                       sp=np.ones(grid.shape))
    gfv = compute_gf_vars(st, src, ox, oy)
    X, Y = grid.meshgrid()
    assert np.abs(gfv.Kp - (X - 1.0) * (Y + 1.0)).max() < 1e-13
    assert np.abs(gfv.Kp[0, :]).max() == 0.0
    assert np.abs(gfv.Kp[:, 0]).max() == 0.0


@pytest.mark.parametrize("K", [1, 2, 3])
def test_u_linear_in_y_integrates_to_half_square(K):
    grid, ox, oy = make_grid(3, 3, K)
    st = make_state(grid, lambda X, Y: Y, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    gfv = compute_gf_vars(st, zero_sources(grid), ox, oy)
    X, Y = grid.meshgrid()
    assert np.abs(gfv.U - Y ** 2 / 2).max() < 1e-14  # exact antiderivative of interpolant


def test_gf_divergence_kernel_of_separable_fields():
    # u = f(x), v = g(y) with S_p = f' + g' sampled consistently; polynomial
    # degree <= K makes the discrete prefix integrals exact
    grid, ox, oy = make_grid(4, 3, 2)
    X, Y = grid.meshgrid()
    st = make_state(grid, lambda X, Y: X ** 2 - X + 1, lambda X, Y: 2 * Y ** 2 + Y,
                    lambda X, Y: 0 * X + 0.7)
    src = SourceArrays(su=np.zeros(grid.shape), sv=np.zeros(grid.shape),
                       sp=(2 * X - 1) + (4 * Y + 1))
    div = gf_divergence(st, src, ox, oy)
    assert np.abs(div).max() < 1e-13


def test_gf_divergence_zero_state():
    grid, ox, oy = make_grid(2, 2, 2)
    st = make_state(grid, lambda X, Y: 0 * X, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    div = gf_divergence(st, zero_sources(grid), ox, oy)
    assert np.abs(div).max() == 0.0


def test_gf_divergence_against_dense_oracle():
    grid, ox, oy = make_grid(3, 2, 2)
    rng = np.random.default_rng(23)
    st = State(grid, rng.standard_normal((3, *grid.shape)))
    src = SourceArrays(*(rng.standard_normal(grid.shape) for _ in range(3)))
    div = gf_divergence(st, src, ox, oy)
    Dx, Dy = ox.D.toarray(), oy.D.toarray()
    Ix, Iy = ox.I.toarray(), oy.I.toarray()
    eye = np.eye(grid.shape[0]), np.eye(grid.shape[1])
    W = (kron_apply(eye[0], Iy, st.u.values) + kron_apply(Ix, eye[1], st.v.values)
         - kron_apply(Ix, Iy, src.sp))
    want = kron_apply(Dx, Dy, W)
    assert np.abs(div - want).max() < 1e-12


def test_reversal_symmetry_of_gf_quadrature():
    # integrating V from the right cell edges changes it per cell only by a
    # per-row constant, so Dx (x) Dy of U+V is orientation independent
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(37)
    v = smooth_random(grid, rng)
    K, N = grid.K, grid.Nx
    iloc = ox.I.iloc
    iloc_rev = iloc - iloc[-1:, :]
    V_rev = np.zeros_like(v)
    carry = np.zeros(v.shape[1])
    for i in range(N - 1, -1, -1):
        seg = v[i * K:(i + 1) * K + 1]
        block = iloc_rev @ seg + carry
        V_rev[i * K:(i + 1) * K + 1] = block
        carry = block[0]
    V_fwd = ox.I.apply_x(v)
    from helpers import apply_xy
    lhs = apply_xy(ox.D, oy.D, V_fwd)
    rhs = apply_xy(ox.D, oy.D, V_rev)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gf_divergence_vanishes_on_random_kernel_data():
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(41)
    state, src = random_kernel_data(grid, ox, oy, rng)
    div = gf_divergence(state, src, ox, oy)
    assert np.abs(div[1:-1, 1:-1]).max() < 1e-12


def test_gf_vars_refuse_periodic():
    grid, ox, oy = make_grid(3, 3, 2, periodic=True)
    z = np.zeros(grid.shape)
    st = State(grid, np.zeros((3, *grid.shape)))
    with pytest.raises(ValueError, match="periodic"):
        compute_gf_vars(st, SourceArrays(z, z, z), ox, oy)
