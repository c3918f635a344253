import numpy as np
import pytest

from gfsem.gf import SourceArrays
from gfsem.grid import State, make_grid
from gfsem.problems import mass_source_steady, mass_source_translating, stommel_gyre
from gfsem.schemes import (FORMULATIONS, STABILIZATIONS, SchemeConfig, default_alpha,
                           dirichlet_ring, energy, galerkin_gf, galerkin_standard,
                           pin_dirichlet, spatial_residual, stab_oss, stab_su_space,
                           stab_su_time)
from helpers import (cell_energy, kron_apply, pin_dirichlet_slices, random_kernel_data,
                     residual_max, smooth_random, zero_state)


def rand_state(grid, rng):
    return State(grid, rng.standard_normal((3, *grid.shape)))


def rand_sources(grid, rng):
    return SourceArrays(*(rng.standard_normal(grid.shape) for _ in range(3)))


def zero_sources(grid):
    z = np.zeros(grid.shape)
    return SourceArrays(z, z, z)


def test_constant_state_zero_sources_gives_zero_galerkin():
    grid, ox, oy = make_grid(3, 3, 2)
    st = zero_state(grid)
    st.u.values += 2.0
    st.v.values -= 1.0
    st.p.values += 0.5
    for fn in (galerkin_standard, galerkin_gf):
        assert residual_max(fn(st, zero_sources(grid), ox, oy), interior=False) < 1e-13


def test_galerkin_standard_linear_pressure():
    # p = x: the u-equation rows are the weighted unit derivative
    grid, ox, oy = make_grid(3, 3, 2)
    X, Y = grid.meshgrid()
    st = zero_state(grid)
    st.p.values[:] = X
    ru, rv, rp = galerkin_standard(st, zero_sources(grid), ox, oy)
    want = kron_apply(ox.D.toarray(), oy.M.toarray(), X)
    assert np.abs(ru - want).max() < 1e-13
    mass = np.outer(ox.mass_diag, oy.mass_diag)
    assert np.abs(ru / mass - 1.0).max() < 1e-12  # d(x)/dx = 1 after mass scaling
    assert np.abs(rv[1:-1, 1:-1]).max() < 1e-13
    assert np.abs(rp).max() < 1e-13


@pytest.mark.parametrize("fn_name", ["galerkin_standard", "galerkin_gf",
                                     "stab_su", "stab_oss"])
def test_operators_against_dense_kron_assembly(fn_name):
    grid, ox, oy = make_grid(3, 2, 2)
    rng = np.random.default_rng(len(fn_name))
    st = rand_state(grid, rng)
    src = rand_sources(grid, rng)
    cfgS = SchemeConfig("standard", "su", 0.05, grid.h)
    cfgG = SchemeConfig("gf", "su", 0.05, grid.h)
    Mx, My = ox.M.toarray(), oy.M.toarray()
    Dx, Dy = ox.D.toarray(), oy.D.toarray()
    Dtx, Dty = ox.Dt.toarray(), oy.Dt.toarray()
    DDx, DDy = ox.DD.toarray(), oy.DD.toarray()
    Zx, Zy = ox.Z.toarray(), oy.Z.toarray()
    Ix, Iy = ox.I.toarray(), oy.I.toarray()
    u, v, p = st.arrays()
    ah = 0.05 * grid.h
    eyex, eyey = np.eye(grid.shape[0]), np.eye(grid.shape[1])
    U = kron_apply(eyex, Iy, u)
    V = kron_apply(Ix, eyey, v)
    Ku = kron_apply(Ix, eyey, src.su)
    Kv = kron_apply(eyex, Iy, src.sv)
    Kp = kron_apply(Ix, Iy, src.sp)
    gp = U + V - Kp

    if fn_name == "galerkin_standard":
        got = galerkin_standard(st, src, ox, oy)
        want = (kron_apply(Dx, My, p) - kron_apply(Mx, My, src.su),
                kron_apply(Mx, Dy, p) - kron_apply(Mx, My, src.sv),
                kron_apply(Dx, My, u) + kron_apply(Mx, Dy, v)
                - kron_apply(Mx, My, src.sp))
    elif fn_name == "galerkin_gf":
        got = galerkin_gf(st, src, ox, oy)
        want = (kron_apply(Dx, My, p - Ku),
                kron_apply(Mx, Dy, p - Kv),
                kron_apply(Dx, Dy, gp))
    elif fn_name == "stab_su":
        got = stab_su_space(st, src, ox, oy, cfgG)
        want = (ah * kron_apply(DDx, Dy, gp),
                ah * kron_apply(Dx, DDy, gp),
                ah * (kron_apply(DDx, My, p - Ku) + kron_apply(Mx, DDy, p - Kv)))
        got_std = stab_su_space(st, src, ox, oy, cfgS)
        want_std = (
            ah * (kron_apply(DDx, My, u) + kron_apply(Dtx, Dy, v)
                  - kron_apply(Dtx, My, src.sp)),
            ah * (kron_apply(Dx, Dty, u) + kron_apply(Mx, DDy, v)
                  - kron_apply(Mx, Dty, src.sp)),
            ah * (kron_apply(DDx, My, p) - kron_apply(Dtx, My, src.su)
                  + kron_apply(Mx, DDy, p) - kron_apply(Mx, Dty, src.sv)))
        for g, w in zip(got_std, want_std):
            assert np.abs(g - w).max() < 1e-12
    else:
        got = stab_oss(st, src, ox, oy, cfgG)
        want = (ah * kron_apply(Zx, Dy, gp),
                ah * kron_apply(Dx, Zy, gp),
                ah * (kron_apply(Zx, My, p - Ku) + kron_apply(Mx, Zy, p - Kv)))
        got_std = stab_oss(st, src, ox, oy, SchemeConfig("standard", "oss", 0.05, grid.h))
        want_std = (ah * kron_apply(Zx, My, u),
                    ah * kron_apply(Mx, Zy, v),
                    ah * (kron_apply(Zx, My, p) + kron_apply(Mx, Zy, p)))
        for g, w in zip(got_std, want_std):
            assert np.abs(g - w).max() < 1e-12
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-12


def test_su_time_part_structure():
    grid, ox, oy = make_grid(2, 3, 2)
    rng = np.random.default_rng(5)
    du, dv, dp = (rng.standard_normal(grid.shape) for _ in range(3))
    cfg = SchemeConfig("gf", "su", 0.02, grid.h)
    tu, tv, tp = stab_su_time(du, dv, dp, ox, oy, cfg)
    ah = 0.02 * grid.h
    assert np.abs(tu - ah * kron_apply(ox.Dt.toarray(), oy.M.toarray(), dp)).max() < 1e-13
    assert np.abs(tv - ah * kron_apply(ox.M.toarray(), oy.Dt.toarray(), dp)).max() < 1e-13
    want_p = ah * (kron_apply(ox.Dt.toarray(), oy.M.toarray(), du)
                   + kron_apply(ox.M.toarray(), oy.Dt.toarray(), dv))
    assert np.abs(tp - want_p).max() < 1e-13


@pytest.mark.parametrize("stab", ["su", "oss"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_gf_kernel_inclusion_and_standard_contrast(stab, K):
    grid, ox, oy = make_grid(3, 3, K)
    rng = np.random.default_rng(100 * K + (stab == "oss"))
    state, src = random_kernel_data(grid, ox, oy, rng)
    cfg_gf = SchemeConfig("gf", stab, default_alpha(stab, K), grid.h)
    cfg_std = SchemeConfig("standard", stab, default_alpha(stab, K), grid.h)
    res_gf = spatial_residual(state, src, ox, oy, cfg_gf)
    assert residual_max(res_gf) < 1e-11
    res_std = spatial_residual(state, src, ox, oy, cfg_std)
    assert residual_max(res_std) > 1e-6


def test_standard_su_nonzero_on_vortex_projection():
    from gfsem.problems import coriolis_vortex, SourceEval
    from gfsem.wellprep import line_by_line_projection
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(6, 6, 2)
    state, _ = line_by_line_projection(prob, grid, ox, oy)
    src = SourceEval(prob, grid).arrays(state, 0.0)
    cfg = SchemeConfig("standard", "su", 0.05, grid.h)
    space = stab_su_space(state, src, ox, oy, cfg)
    assert residual_max(space) > 1e-6
    cfg_gf = SchemeConfig("gf", "su", 0.05, grid.h)
    assert residual_max(stab_su_space(state, src, ox, oy, cfg_gf)) < 1e-12


def test_oss_gf_matches_unsimplified_projection_oracle():
    # the Z-matrix forms equal the explicit L2-projection statement
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(71)
    st = rand_state(grid, rng)
    src = rand_sources(grid, rng)
    cfg = SchemeConfig("gf", "oss", 0.03, grid.h)
    got = stab_oss(st, src, ox, oy, cfg)

    Mx, My = ox.M.toarray(), oy.M.toarray()
    Dx, Dy = ox.D.toarray(), oy.D.toarray()
    DDx, DDy = ox.DD.toarray(), oy.DD.toarray()
    Ix, Iy = ox.I.toarray(), oy.I.toarray()
    eyex, eyey = np.eye(grid.shape[0]), np.eye(grid.shape[1])
    minvx, minvy = np.diag(1 / ox.mass_diag), np.diag(1 / oy.mass_diag)
    u, v, p = st.arrays()
    gp = (kron_apply(eyex, Iy, u) + kron_apply(Ix, eyey, v)
          - kron_apply(Ix, Iy, src.sp))
    pma = p - kron_apply(Ix, eyey, src.su)
    pmb = p - kron_apply(eyex, Iy, src.sv)
    ah = cfg.ah
    # L2 projections of the three residual quantities
    w_g = kron_apply(minvx, minvy, kron_apply(Dx, Dy, gp))
    w_px = kron_apply(minvx, minvy, kron_apply(Dx, My, pma))
    w_py = kron_apply(minvx, minvy, kron_apply(Mx, Dy, pmb))
    want = (ah * (kron_apply(DDx, Dy, gp) - kron_apply(Dx.T, My, w_g)),
            ah * (kron_apply(Dx, DDy, gp) - kron_apply(Mx, Dy.T, w_g)),
            ah * (kron_apply(DDx, My, pma) - kron_apply(Dx.T, My, w_px)
                  + kron_apply(Mx, DDy, pmb) - kron_apply(Mx, Dy.T, w_py)))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-11


def test_oss_standard_matches_unsimplified_projection_oracle():
    grid, ox, oy = make_grid(2, 3, 2)
    rng = np.random.default_rng(73)
    st = rand_state(grid, rng)
    src = rand_sources(grid, rng)
    cfg = SchemeConfig("standard", "oss", 0.04, grid.h)
    got = stab_oss(st, src, ox, oy, cfg)
    Mx, My = ox.M.toarray(), oy.M.toarray()
    Dx, Dy = ox.D.toarray(), oy.D.toarray()
    DDx, DDy = ox.DD.toarray(), oy.DD.toarray()
    minvx, minvy = np.diag(1 / ox.mass_diag), np.diag(1 / oy.mass_diag)
    u, v, p = st.arrays()
    ah = cfg.ah
    w_div = kron_apply(minvx, minvy,
                       kron_apply(Dx, My, u) + kron_apply(Mx, Dy, v)
                       - kron_apply(Mx, My, src.sp))
    w_px = kron_apply(minvx, minvy, kron_apply(Dx, My, p) - kron_apply(Mx, My, src.su))
    w_py = kron_apply(minvx, minvy, kron_apply(Mx, Dy, p) - kron_apply(Mx, My, src.sv))
    want = (
        ah * (kron_apply(DDx, My, u) + kron_apply(Dx.T, Dy, v)
              - kron_apply(Dx.T, My, src.sp) - kron_apply(Dx.T, My, w_div)),
        ah * (kron_apply(Dx, Dy.T, u) + kron_apply(Mx, DDy, v)
              - kron_apply(Mx, Dy.T, src.sp) - kron_apply(Mx, Dy.T, w_div)),
        ah * (kron_apply(DDx, My, p) - kron_apply(Dx.T, My, src.su)
              - kron_apply(Dx.T, My, w_px)
              + kron_apply(Mx, DDy, p) - kron_apply(Mx, Dy.T, src.sv)
              - kron_apply(Mx, Dy.T, w_py)))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-11


@pytest.mark.parametrize("formulation,stab", [("standard", "su"), ("gf", "su"),
                                              ("standard", "oss"), ("gf", "oss")])
def test_residual_linearity_with_frozen_coefficients(formulation, stab):
    grid, ox, oy = make_grid(2, 2, 2)
    rng = np.random.default_rng(7)
    cfg = SchemeConfig(formulation, stab, 0.05, grid.h)
    z = np.zeros(grid.shape)

    def freeze_sources(st):
        # Coriolis-type coefficients frozen: sources linear in the state
        c = 0.3
        return SourceArrays(su=c * st.v.values, sv=-c * st.u.values, sp=z)

    def apply(st):
        return spatial_residual(st, freeze_sources(st), ox, oy, cfg)

    s1, s2 = rand_state(grid, rng), rand_state(grid, rng)
    a, b = 0.6, -1.7
    comb = State(grid, a * s1.q + b * s2.q)
    r1, r2, rc = apply(s1), apply(s2), apply(comb)
    for x1, x2, xc in zip(r1, r2, rc):
        assert np.abs(a * x1 + b * x2 - xc).max() < 1e-12


@pytest.mark.parametrize("formulation,stab", [("standard", "su"), ("gf", "oss")])
def test_matrix_free_matches_explicit_dense_matrix(formulation, stab):
    # probe the stacked linear map column by column and compare on random states
    grid, ox, oy = make_grid(4, 4, 2)
    cfg = SchemeConfig(formulation, stab, 0.05, grid.h)
    n = grid.shape[0] * grid.shape[1]
    z = np.zeros(grid.shape)

    def freeze_sources(st):
        return SourceArrays(su=0.2 * st.v.values, sv=-0.2 * st.u.values, sp=z)

    def apply_vec(x):
        st = State(grid, x.reshape(3, *grid.shape))
        ru, rv, rp = spatial_residual(st, freeze_sources(st), ox, oy, cfg)
        return np.concatenate([ru.ravel(), rv.ravel(), rp.ravel()])

    A = np.zeros((3 * n, 3 * n))
    for j in range(3 * n):
        e = np.zeros(3 * n)
        e[j] = 1.0
        A[:, j] = apply_vec(e)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = rng.standard_normal(3 * n)
        assert np.abs(A @ x - apply_vec(x)).max() < 1e-12


def ring_values(ring_x, ring_y, exact, t):
    """The exact (u, v, p) at the ring nodes, concatenated, as a Stepper pins them."""
    return np.concatenate([np.broadcast_to(a, ring_x.shape) for a in exact(ring_x, ring_y, t)])


@pytest.mark.parametrize("shape", [(2, 2, 2), (8, 6, 4), (3, 5, 2), (1, 1, 1)])
def test_dirichlet_ring_is_the_boundary_once(shape):
    grid, _, _ = make_grid(*shape, box=(0.5, 2.0, -1.0, 0.25))
    nx, ny = grid.shape
    ring, rx, ry = dirichlet_ring(grid)
    assert ring.size == 3 * (2 * nx + 2 * ny - 4) and rx.shape == ry.shape == (ring.size // 3,)
    on = np.zeros((3, nx, ny), bool)
    on[:, [0, -1]] = on[:, :, [0, -1]] = True
    assert np.array_equal(ring, np.flatnonzero(on))  # sorted, so no node twice
    i, j = np.unravel_index(ring[:rx.size], grid.shape)
    assert np.array_equal(rx, grid.xline[i]) and np.array_equal(ry, grid.yline[j])


def test_pin_dirichlet_sets_boundary_values():
    grid, ox, oy = make_grid(2, 2, 2)
    st = zero_state(grid)
    exact = lambda X, Y, t: (X + t, Y, X * Y)
    ring, rx, ry = dirichlet_ring(grid)
    pin_dirichlet(st.q, ring, ring_values(rx, ry, exact, 2.0))
    X, Y = grid.meshgrid()
    assert np.abs(st.u.values[0, :] - (X[0, :] + 2.0)).max() == 0.0
    assert np.abs(st.p.values[:, -1] - X[:, -1] * Y[:, -1]).max() == 0.0
    assert np.abs(st.u.values[1:-1, 1:-1]).max() == 0.0


@pytest.mark.parametrize("factory", [mass_source_translating, mass_source_steady,
                                     stommel_gyre])
def test_ring_pinning_equals_full_grid_pinning(factory):
    prob = factory()
    grid, _, _ = make_grid(8, 6, 4, box=prob.box)
    X, Y = grid.meshgrid()
    ring, rx, ry = dirichlet_ring(grid)
    rng = np.random.default_rng(4)
    for t in (0.0, 0.37, 1.25):
        st = rand_state(grid, rng)
        want = st.copy()
        for q, qe in zip(want.arrays(), prob.exact(X, Y, t)):
            qe = np.broadcast_to(qe, grid.shape)
            q[0, :], q[-1, :], q[:, 0], q[:, -1] = qe[0, :], qe[-1, :], qe[:, 0], qe[:, -1]
        got = st.copy()
        pin_dirichlet(got.q, ring, ring_values(rx, ry, prob.exact, t))
        slices = st.copy()
        pin_dirichlet_slices(slices, prob.exact, t)
        assert np.array_equal(got.q, want.q) and np.array_equal(slices.q, want.q)


def test_energy_of_uniform_state_is_half_area_times_q2():
    grid, ox, oy = make_grid(4, 4, 2)
    st = zero_state(grid)
    st.u.values += 2.0
    cfg = SchemeConfig("standard", "oss", 0.01, grid.h)
    # 0.5 * integral of u^2 = 0.5 * 4 over the unit square; derivatives zero
    assert abs(energy(st, ox, oy, cfg) - 2.0) < 1e-13
    cfg_su = SchemeConfig("standard", "su", 0.05, grid.h)
    assert abs(energy(st, ox, oy, cfg_su) - 2.0) < 1e-13


def test_energy_su_includes_derivative_terms():
    grid, ox, oy = make_grid(5, 5, 2)
    X, Y = grid.meshgrid()
    st = zero_state(grid)
    st.p.values[:] = X  # grad p = (1, 0)
    cfg = SchemeConfig("standard", "su", 0.05, grid.h)
    tau2 = (0.05 * grid.h) ** 2
    want = 0.5 * (np.sum(np.outer(ox.mass_diag, oy.mass_diag) * X * X) + tau2 * 1.0)
    assert abs(energy(st, ox, oy, cfg) - want) < 1e-12


def _energy_case(periodic, K, stabilization):
    """A state of smooth random fields on a 5 x 4 mesh whose du/dx dv/dy does
    not vanish, with alpha large enough that the SU terms are not round-off."""
    grid, ox, oy = make_grid(5, 4, K, box=(0.0, 1.0, -0.5, 0.8), periodic=periodic)
    rng = np.random.default_rng(100 * K + periodic)
    st = State(grid, np.stack([smooth_random(grid, rng) for _ in range(3)]))
    return st, ox, oy, SchemeConfig("gf", stabilization, 0.5, grid.h)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("stabilization", STABILIZATIONS)
def test_energy_is_the_element_wise_quadrature(periodic, K, stabilization):
    st, ox, oy, cfg = _energy_case(periodic, K, stabilization)
    want = cell_energy(st, cfg)
    assert abs(energy(st, ox, oy, cfg) - want) <= 1e-13 * want
    cross = np.sum(ox.D.apply_x(st.q[0]) * oy.D.apply_y(st.q[1]))
    assert abs(cross) > 1e-3 * want  # the case reaches the cross term


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_energy_oracle_rejects_a_dropped_or_undoubled_cross_term(periodic, K):
    # the operator form of energy with its 2 sum (Dx u)(Dy v) taken 0 or 1 times
    st, ox, oy, cfg = _energy_case(periodic, K, "su")
    want = cell_energy(st, cfg)
    cross = 0.5 * cfg.ah ** 2 * np.sum(ox.D.apply_x(st.q[0]) * oy.D.apply_y(st.q[1]))
    for wrong in (energy(st, ox, oy, cfg) - 2.0 * cross, energy(st, ox, oy, cfg) - cross):
        assert abs(wrong - want) > 1e-13 * want


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("weird", "su", 0.05, 0.1)
    with pytest.raises(ValueError):
        SchemeConfig("gf", "weird", 0.05, 0.1)
    with pytest.raises(ValueError):
        SchemeConfig("gf", "su", -0.1, 0.1)


# --- banded term table against the prefix-integration reference -------------

def _closed(ops, closure):
    from gfsem.basis import neumann_closure
    return neumann_closure(ops) if closure == "neumann" else ops


@pytest.mark.parametrize("closure", ["dirichlet", "neumann", "periodic"])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_table_matches_prefix_reference(closure, K):
    from helpers import reference_residual
    rng = np.random.default_rng(10 * K + len(closure))
    for mesh in ((3, 3), (4, 2), (2, 5)):
        grid, ox, oy = make_grid(*mesh, K, periodic=closure == "periodic")
        ox, oy = _closed(ox, closure), _closed(oy, closure)
        st, src = rand_state(grid, rng), rand_sources(grid, rng)
        for form in ("standard",) if closure == "periodic" else FORMULATIONS:
            for stab in STABILIZATIONS:
                cfg = SchemeConfig(form, stab, default_alpha(stab, K), grid.h)
                got = spatial_residual(st, src, ox, oy, cfg)
                want = reference_residual(st, src, ox, oy, cfg)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_banded_operators_equal_dense_products(K):
    from gfsem.basis import build_operator_set, neumann_closure
    for N in (1, 2, 3, 5):
        plain = build_operator_set(K, N, 0.37)
        for ops in (plain, neumann_closure(plain)):
            I = ops.I.toarray()
            for name, dense, bw in (("E", ops.D.toarray() @ I, K),
                                    ("F", ops.DD.toarray() @ I, K),
                                    ("G", ops.Z.toarray() @ I, 2 * K)):
                A = getattr(ops, name).toarray()
                scale = np.abs(ops.F.toarray()).max()  # G vanishes on one plain cell
                assert np.abs(A - dense).max() <= 1e-14 * scale
                rows, cols = np.nonzero(A)
                assert rows.size == 0 or np.abs(rows - cols).max() <= bw
    assert build_operator_set(K, 3, 0.37, periodic=True).E is None


def test_table_views_sum_to_the_residual():
    grid, ox, oy = make_grid(3, 4, 3)
    rng = np.random.default_rng(31)
    st, src = rand_state(grid, rng), rand_sources(grid, rng)
    for form in FORMULATIONS:
        galerkin = galerkin_gf if form == "gf" else galerkin_standard
        for stab, space in (("su", stab_su_space), ("oss", stab_oss)):
            cfg = SchemeConfig(form, stab, 0.04, grid.h)
            whole = spatial_residual(st, src, ox, oy, cfg)
            parts = galerkin(st, src, ox, oy) + space(st, src, ox, oy, cfg)
            assert np.abs(whole - parts).max() <= 1e-13 * np.abs(whole).max()


def test_kron_terms_do_not_depend_on_the_tile_height(monkeypatch):
    import gfsem.schemes as schemes
    grid, ox, oy = make_grid(7, 5, 2)
    rng = np.random.default_rng(3)
    st, src = rand_state(grid, rng), rand_sources(grid, rng)
    cfg = SchemeConfig("gf", "su", 0.05, grid.h)
    one_tile = spatial_residual(st, src, ox, oy, cfg)
    monkeypatch.setattr(schemes, "_TILE_BYTES", 8 * 12 * grid.shape[1] * 2)
    table = schemes.ResidualTable(ox, oy, cfg)
    assert len(table.state.tiles) > 3
    assert np.array_equal(spatial_residual(st, src, ox, oy, cfg, table=table), one_tile)
    # under the inverse mass, with the transposed inputs of the identity x-factors
    scale, fields = (1 / ox.mass_diag, 1 / oy.mass_diag), (src.su, src.sv, src.sp)
    for form, stab in (("gf", "su"), ("standard", "oss")):
        cfg = SchemeConfig(form, stab, 0.05, grid.h)
        monkeypatch.setattr(schemes, "_TILE_BYTES", 8 * 2 * grid.shape[1] * 2)
        tiled = schemes.ResidualTable(ox, oy, cfg, scale=scale)
        monkeypatch.setattr(schemes, "_TILE_BYTES", 512 * 1024)
        whole = schemes.ResidualTable(ox, oy, cfg, scale=scale)
        assert len(tiled.state.tiles) > 3 and len(whole.state.tiles) == 1
        assert tiled.state.transposed
        for a, b in ((tiled.state, whole.state), (tiled.time, whole.time)):
            if a is not None:
                assert np.array_equal(a.apply(st.q, fields), b.apply(st.q, fields))


@pytest.mark.parametrize("scaled", [False, True])
def test_both_term_groupings_match_the_references(scaled):
    # unscaled, every term has two factors and joins its (input, Ax) group;
    # under the inverse mass the identity x-factors add groups of transposed
    # inputs, and terms with two identity factors go straight into `out`
    import gfsem.schemes as schemes
    from helpers import reference_residual
    rng = np.random.default_rng(43)
    for K, closure in ((2, "dirichlet"), (3, "neumann")):
        grid, ox, oy = make_grid(4, 3, K)
        ox, oy = _closed(ox, closure), _closed(oy, closure)
        st, src, d = rand_state(grid, rng), rand_sources(grid, rng), rand_state(grid, rng).q
        for form in FORMULATIONS:
            for stab in STABILIZATIONS:
                cfg = SchemeConfig(form, stab, default_alpha(stab, K), grid.h)
                scale = (1 / ox.mass_diag, 1 / oy.mass_diag) if scaled else None
                minv = np.outer(*scale) if scaled else 1.0
                table = schemes.ResidualTable(ox, oy, cfg, scale=scale)
                one = (lambda spec: spec == "M") if scaled else (lambda spec: False)
                keys = {(t[1], t[2]) for t in schemes.residual_terms(cfg) if not one(t[3])}
                assert table.state.G == sum(not one(ax) for _, ax in keys)
                assert set(table.state.transposed) == {s for s, ax in keys if one(ax)}
                assert set(table.state.routes) == ({"x", "xy"} if scaled else {"xy"})
                got = spatial_residual(st, src, ox, oy, cfg, table=table)
                for g, w in zip(got, minv * np.stack(reference_residual(st, src, ox, oy, cfg))):
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
                if table.time is not None:  # ah [(Dt My) dp, (Mx Dt) dp, (Dt My) du + (Mx Dt) dv]
                    Dtx, Dty = ox.Dt.toarray(), oy.Dt.toarray()
                    Mx, My = ox.M.toarray(), oy.M.toarray()
                    want = cfg.ah * np.stack([
                        kron_apply(Dtx, My, d[2]), kron_apply(Mx, Dty, d[2]),
                        kron_apply(Dtx, My, d[0]) + kron_apply(Mx, Dty, d[1])]) * minv
                    assert np.abs(table.time.apply(d) - want).max() <= 1e-12 * np.abs(want).max()


def test_kron_terms_reject_fields_of_another_grid():
    from gfsem.schemes import ResidualTable
    grid, ox, oy = make_grid(3, 2, 2)
    table = ResidualTable(ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    with pytest.raises(ValueError, match="7 x 5"):
        table.time.apply([np.zeros((7, 4))] * 3)
    # under the inverse mass the only source term of standard+OSS, -(I (x) I) S_p,
    # is an x-pass straight into `out`: no kernel runs unless every array fits
    oss = ResidualTable(ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h), absent=(3, 4),
                        scale=(1 / ox.mass_diag, 1 / oy.mass_diag)).state
    assert [s for s, _ in oss.direct] == [None, 5] and oss.inputs == (2, 0, 1, 5)
    q, sp = np.ones((3, 7, 5)), np.ones((7, 5))
    with pytest.raises(ValueError, match="7 x 5"):
        oss.apply(q, (None, None, np.zeros((7, 4))))
    for out in (np.zeros((3, 7, 5), dtype=np.float32), np.zeros((3, 5, 7)).transpose(0, 2, 1),
                np.zeros((3, 7, 4))):
        with pytest.raises(ValueError, match=r"shape \(3, 7, 5\)"):
            oss.apply(q, (None, None, sp), out)
        assert not out.any()
    out = np.full((3, 7, 5), np.nan)
    assert oss.apply(q, (None, None, sp), out) is out and np.array_equal(out, oss.apply(q, [0, 0, sp]))
