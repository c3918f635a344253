import numpy as np
import pytest

from gfsem.gf import SourceArrays, compute_gf_vars, gf_divergence, subcell_residuals
from gfsem.grid import Field, State, make_grid
from helpers import eval_cell, kron_apply, random_kernel_data, smooth_random


def make_state(grid, fu, fv, fp):
    X, Y = grid.meshgrid()
    return State(Field(grid, np.broadcast_to(fu(X, Y), grid.shape).copy()),
                 Field(grid, np.broadcast_to(fv(X, Y), grid.shape).copy()),
                 Field(grid, np.broadcast_to(fp(X, Y), grid.shape).copy()))


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
    st = State(Field(grid, rng.standard_normal(grid.shape)),
               Field(grid, rng.standard_normal(grid.shape)),
               Field(grid, rng.standard_normal(grid.shape)))
    src = SourceArrays(*(rng.standard_normal(grid.shape) for _ in range(3)))
    div = gf_divergence(st, src, ox, oy)
    Dx, Dy = ox.D.toarray(), oy.D.toarray()
    Ix, Iy = ox.I.toarray(), oy.I.toarray()
    eye = np.eye(grid.shape[0]), np.eye(grid.shape[1])
    W = (kron_apply(eye[0], Iy, st.u.values) + kron_apply(Ix, eye[1], st.v.values)
         - kron_apply(Ix, Iy, src.sp))
    want = kron_apply(Dx, Dy, W)
    assert np.abs(div - want).max() < 1e-12


def test_subcell_residuals_zero_cases():
    grid, ox, oy = make_grid(3, 3, 2)
    st = make_state(grid, lambda X, Y: 0 * X, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    pu, pv, pp = subcell_residuals(st, zero_sources(grid), ox, oy, (1, 1))
    assert np.abs(pu).max() == 0.0 and np.abs(pv).max() == 0.0 and np.abs(pp).max() == 0.0
    # u = x, v = 0, S_p = 1 balances exactly
    st = make_state(grid, lambda X, Y: X, lambda X, Y: 0 * X, lambda X, Y: 0 * X)
    src = SourceArrays(su=np.zeros(grid.shape), sv=np.zeros(grid.shape),
                       sp=np.ones(grid.shape))
    for cell in ((0, 0), (2, 1)):
        _, _, pp = subcell_residuals(st, src, ox, oy, cell)
        assert np.abs(pp).max() < 1e-14


def test_subcell_residuals_against_quadrature_oracle():
    grid, ox, oy = make_grid(2, 2, 2)
    rng = np.random.default_rng(31)
    st = State(Field(grid, smooth_random(grid, rng)),
               Field(grid, smooth_random(grid, rng)),
               Field(grid, smooth_random(grid, rng)))
    src = SourceArrays(smooth_random(grid, rng), smooth_random(grid, rng),
                       smooth_random(grid, rng))
    gx, gw = np.polynomial.legendre.leggauss(8)
    cell = (1, 0)
    i, j = cell
    K = grid.K
    pu, pv, pp = subcell_residuals(st, src, ox, oy, cell)
    x0c, y0c = ox.nodes[i * K], oy.nodes[j * K]

    def gauss_pts(a, b):
        return 0.5 * (b - a) * gx + 0.5 * (a + b), 0.5 * (b - a) * gw

    for s in range(K + 1):
        for t in range(K + 1):
            xs_, y_t = ox.nodes[i * K + s], oy.nodes[j * K + t]
            # phi_u: int_x (dp/dx - Su) at fixed y_t
            xq, xw = gauss_pts(x0c, xs_)
            dpdx = eval_cell(st.p.values, ox, oy, cell, xq, np.array([y_t]), dx=1)[:, 0]
            su = eval_cell(src.su, ox, oy, cell, xq, np.array([y_t]))[:, 0]
            want_u = np.dot(xw, dpdx - su) if s > 0 else 0.0
            assert abs(pu[s, t] - want_u) < 1e-12
            # phi_p: double integral of div - sp
            yq, yw = gauss_pts(y0c, y_t)
            if s > 0 and t > 0:
                dudx = eval_cell(st.u.values, ox, oy, cell, xq, yq, dx=1)
                dvdy = eval_cell(st.v.values, ox, oy, cell, xq, yq, dy=1)
                sp = eval_cell(src.sp, ox, oy, cell, xq, yq)
                want_p = xw @ (dudx + dvdy - sp) @ yw
                assert abs(pp[s, t] - want_p) < 1e-12


def test_reversal_symmetry_of_gf_quadrature():
    # integrating V from the right cell edges changes it per cell only by a
    # per-row constant, so Dx (x) Dy of U+V is orientation independent
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(37)
    v = smooth_random(grid, rng)
    K, N = grid.K, grid.Nx
    iloc = ox.i_loc
    iloc_rev = iloc - iloc[-1:, :]
    V_rev = np.zeros_like(v)
    carry = np.zeros(v.shape[1])
    for i in range(N - 1, -1, -1):
        seg = v[i * K:(i + 1) * K + 1]
        block = iloc_rev @ seg + carry
        V_rev[i * K:(i + 1) * K + 1] = block
        carry = block[0]
    V_fwd = ox.I.apply_x(v)
    from gfsem.grid import apply_xy
    lhs = apply_xy(ox.D, oy.D, V_fwd)
    rhs = apply_xy(ox.D, oy.D, V_rev)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_kernel_equivalence_divergence_and_subcells():
    # randomized kernel members: global divergence rows vanish iff every
    # per-cell residual array vanishes
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(41)
    state, src = random_kernel_data(grid, ox, oy, rng)
    div = gf_divergence(state, src, ox, oy)
    assert np.abs(div[1:-1, 1:-1]).max() < 1e-12
    for i in range(grid.Nx):
        for j in range(grid.Ny):
            pu, pv, pp = subcell_residuals(state, src, ox, oy, (i, j))
            assert np.abs(pp).max() < 1e-12
            assert np.abs(pu).max() < 1e-12
            assert np.abs(pv).max() < 1e-12


def test_gf_vars_refuse_periodic():
    grid, ox, oy = make_grid(3, 3, 2, periodic=True)
    z = np.zeros(grid.shape)
    st = State(Field(grid, z.copy()), Field(grid, z.copy()), Field(grid, z.copy()))
    with pytest.raises(ValueError, match="periodic"):
        compute_gf_vars(st, SourceArrays(z, z, z), ox, oy)
