import tracemalloc

import numpy as np
import pytest

from gfsem.gf import gf_divergence
from gfsem.grid import make_grid, max_norm
from gfsem.problems import (SourceEval, coriolis_vortex, exact_state,
                            mass_source_steady, mass_source_translating, stommel_gyre)
from gfsem.wellprep import (line_by_line_projection, optimization_projection,
                            projection_residual)
from helpers import dense_kkt_projection


def test_line_by_line_constant_state_is_exact():
    # zero sources and constant exact data reproduce the constants
    prob = mass_source_steady(a=0.0, b=0.0, p0=2.5)
    grid, ox, oy = make_grid(4, 4, 2)
    st, rep = line_by_line_projection(prob, grid, ox, oy)
    assert np.abs(st.u.values).max() < 1e-14
    assert np.abs(st.v.values).max() < 1e-14
    assert np.abs(st.p.values - 2.5).max() < 1e-14
    assert rep.kernel_residual < 1e-14


@pytest.mark.parametrize("maker", [coriolis_vortex, mass_source_steady])
def test_line_by_line_lands_in_full_kernel(maker):
    prob = maker()
    grid, ox, oy = make_grid(13, 13, 3, box=prob.box)
    st, rep = line_by_line_projection(prob, grid, ox, oy)
    assert rep.kernel_residual < 1e-13
    for stab in ("su", "oss"):
        assert projection_residual(prob, grid, ox, oy, st, stab) < 1e-11


def test_line_by_line_stommel_has_pressure_path_error():
    # non-constant Coriolis: the blended pressure is O(h^M) off both kernels
    prob = stommel_gyre()
    grid, ox, oy = make_grid(8, 8, 3, box=prob.box)
    st, rep = line_by_line_projection(prob, grid, ox, oy)
    assert rep.kernel_residual < 1e-13  # divergence kernel is still exact
    res = projection_residual(prob, grid, ox, oy, st, "su")
    assert 1e-13 < res < 1e-6


def test_lambda_extremes_differ_at_superconvergent_order():
    # the two pressure integration paths differ at O(h^{K+2}); with a constant
    # Coriolis coefficient the path difference is identically constant (and the
    # anchor removes it), so the variable-coefficient gyre is the probe
    prob = stommel_gyre()
    diffs = []
    for N in (4, 8, 16):
        grid, ox, oy = make_grid(N, N, 2, box=prob.box)
        st0, _ = line_by_line_projection(prob, grid, ox, oy, lam=0.0)
        st1, _ = line_by_line_projection(prob, grid, ox, oy, lam=1.0)
        diffs.append(np.abs(st0.p.values - st1.p.values).max())
    slope = np.log(diffs[-2] / diffs[-1]) / np.log(2)
    assert slope > 3.3  # K + 2 = 4 in the limit

    prob_const = coriolis_vortex()
    grid, ox, oy = make_grid(8, 8, 2)
    st0, _ = line_by_line_projection(prob_const, grid, ox, oy, lam=0.0)
    st1, _ = line_by_line_projection(prob_const, grid, ox, oy, lam=1.0)
    assert np.abs(st0.p.values - st1.p.values).max() < 1e-14


def test_projection_requires_steady_problem():
    prob = mass_source_translating()
    grid, ox, oy = make_grid(4, 4, 2)
    with pytest.raises(ValueError, match="steady"):
        line_by_line_projection(prob, grid, ox, oy)
    with pytest.raises(ValueError, match="steady"):
        optimization_projection(prob, grid, ox, oy)


def test_optimization_keeps_constraint_satisfying_input():
    # a state already in the constraint set comes back unchanged
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(6, 6, 2)
    st_lbl, _ = line_by_line_projection(prob, grid, ox, oy)

    # feed the marched velocities through the KKT solve by monkey-patching the
    # nodal data: exact_state is the anchor, so compare against a projection
    # of the projection instead
    st1, rep1 = optimization_projection(prob, grid, ox, oy)
    st2, rep2 = optimization_projection(prob, grid, ox, oy)
    for a, b in zip(st1.arrays(), st2.arrays()):
        assert np.abs(a - b).max() == 0.0  # deterministic / idempotent inputs
    assert rep1.kernel_residual < 1e-13


def test_optimization_velocity_change_is_minimal_correction():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(8, 8, 2)
    st, rep = optimization_projection(prob, grid, ox, oy)
    st0 = exact_state(prob, grid)
    # the correction is small (truncation-scale), not a rewrite of the field
    du = np.abs(st.u.values - st0.u.values).max()
    assert 0 < du < 2e-2
    assert rep.deviation_l2 < 1e-2
    assert rep.rank_deficiency == 2 * grid.shape[0] - 1


@pytest.mark.parametrize("maker,nx,ny,K", [
    (coriolis_vortex, 8, 8, 2), (coriolis_vortex, 13, 13, 3),
    (mass_source_steady, 8, 8, 2), (stommel_gyre, 8, 8, 3),
    # non-square meshes catch a swapped Kronecker orientation
    (coriolis_vortex, 6, 9, 2), (stommel_gyre, 9, 5, 3)])
def test_optimization_matches_dense_kkt_reference(maker, nx, ny, K):
    prob = maker()
    grid, ox, oy = make_grid(nx, ny, K, box=prob.box)
    st, rep = optimization_projection(prob, grid, ox, oy)
    ref, ref_rep = dense_kkt_projection(prob, grid, ox, oy)
    scale = max(np.abs(a).max() for a in ref.arrays())
    for a, b in zip(st.arrays(), ref.arrays()):
        assert np.abs(a - b).max() <= 1e-12 * scale
    assert abs(rep.deviation_l2 - ref_rep.deviation_l2) <= 1e-12
    assert rep.rank_deficiency == ref_rep.rank_deficiency


@pytest.mark.parametrize("N,K", [(80, 2), (40, 4)])
def test_optimization_on_large_mesh_in_small_memory(N, K):
    # 25,921 nodes: the dense Kronecker Gram matrix alone would take ~5 GB
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(N, N, K, box=prob.box)
    tracemalloc.start()
    try:
        st, rep = optimization_projection(prob, grid, ox, oy)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert rep.kernel_residual <= 1e-10
    assert rep.rank_deficiency == grid.shape[0] + grid.shape[1] - 1
    assert peak_mb < 32.0


@pytest.mark.parametrize("maker,bound", [(coriolis_vortex, 1e-10),
                                         (mass_source_steady, 1e-10)])
def test_optimization_constraint_residual(maker, bound):
    prob = maker()
    grid, ox, oy = make_grid(8, 8, 2, box=prob.box)
    st, rep = optimization_projection(prob, grid, ox, oy)
    se = SourceEval(prob, grid)
    src = se.arrays(st, 0.0)
    div = gf_divergence(st, src, ox, oy)
    assert max_norm(div) < bound


def test_optimization_full_scheme_residual_on_vortex():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(8, 8, 3)
    st, _ = optimization_projection(prob, grid, ox, oy)
    assert projection_residual(prob, grid, ox, oy, st, "su") < 1e-9
    assert projection_residual(prob, grid, ox, oy, st, "oss") < 1e-9


def test_optimization_idempotence():
    # feeding the optimized velocities back as the anchor returns them
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(5, 5, 2)
    st, _ = optimization_projection(prob, grid, ox, oy)
    import gfsem.wellprep as wp
    orig = wp.exact_state
    try:
        wp.exact_state = lambda p, g, t=0.0: st.copy()
        st2, rep2 = optimization_projection(prob, grid, ox, oy)
    finally:
        wp.exact_state = orig
    for a, b in zip(st2.arrays()[:2], st.arrays()[:2]):
        assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("method", ["line_by_line", "optimize"])
def test_projection_error_superconverges(method):
    # K+2 superconvergence lives on the cell-corner lattice (LobattoIIIA
    # endpoint order 2s-2); interior stage nodes carry the uniform K+1 order
    prob = coriolis_vortex()
    errs, errs_all = [], []
    for N in (8, 16, 32):
        grid, ox, oy = make_grid(N, N, 2, box=prob.box)
        if method == "line_by_line":
            st, _ = line_by_line_projection(prob, grid, ox, oy)
        else:
            st, _ = optimization_projection(prob, grid, ox, oy)
        st0 = exact_state(prob, grid)
        corners = (slice(None, None, grid.K), slice(None, None, grid.K))
        errs.append(max(np.abs(a[corners] - b[corners]).max()
                        for a, b in zip(st.arrays(), st0.arrays())))
        errs_all.append(max(np.abs(a - b).max()
                            for a, b in zip(st.arrays(), st0.arrays())))
    slope = np.log(errs[-2] / errs[-1]) / np.log(2)
    assert slope > 3.4  # theory K+2 = 4 on corners
    slope_all = np.log(errs_all[-2] / errs_all[-1]) / np.log(2)
    assert slope_all > 2.6  # at least K+1 everywhere


def test_long_run_settles_gf_divergence():
    from gfsem.dec import Stepper
    from gfsem.schemes import SchemeConfig
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(8, 8, 2, box=prob.box)
    sch = SchemeConfig("gf", "su", 0.05, grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    st = exact_state(prob, grid)
    out, _ = stepper.run(st, 12.0)
    se = SourceEval(prob, grid)
    div = gf_divergence(out, se.arrays(out, 0.0), stepper.ops_x, stepper.ops_y)
    # kernel floor in the weak norm after settling
    assert np.abs(div[1:-1, 1:-1]).max() < 1e-10
    # T_settle = 0 must reduce to plain interpolation semantics (no evolution)
    st2 = exact_state(prob, grid)
    for a, b in zip(st2.arrays(), st.arrays()):
        assert np.abs(a - b).max() == 0.0
