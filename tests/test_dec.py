from dataclasses import replace

import numpy as np
import pytest

import gfsem.dec
import gfsem.schemes
from gfsem.dec import BlowUpError, DeCConfig, Stepper, dec_coefficients, default_cfl
from gfsem.grid import State, make_grid
from gfsem.problems import (Problem, SourceEval, coriolis_vortex, exact_state,
                            mass_source_steady, mass_source_translating, stommel_gyre)
from gfsem.schemes import (ResidualTable, SchemeConfig, default_alpha, spatial_residual,
                           stab_su_time)
from gfsem.wellprep import line_by_line_projection
from helpers import ode_step


def test_dec_coefficients_invariants():
    for M in (1, 2, 3, 4):
        beta, theta = dec_coefficients(M)
        assert beta[0] == 0.0 and abs(beta[-1] - 1.0) < 1e-15
        assert np.abs(theta[0]).max() == 0.0
        assert abs(theta[-1].sum() - 1.0) < 1e-14
        # each row integrates constants exactly: sum_r theta[m,r] = beta[m]
        assert np.abs(theta.sum(axis=1) - beta).max() < 1e-14


def test_for_degree_picks_minimal_subintervals():
    for K in range(1, 7):
        cfg = DeCConfig.for_degree(K)
        assert 2 * cfg.M >= K + 1
        assert 2 * (cfg.M - 1) < K + 1
        assert cfg.kappa == K + 1


def test_default_cfl_values():
    assert default_cfl(2) == 0.1
    assert default_cfl(5) == 0.1
    assert abs(default_cfl(6) - 1.0 / 26.0) < 1e-15
    assert abs(default_cfl(7) - 1.0 / 30.0) < 1e-15


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_scalar_ode_order_is_min_2m_kappa(K):
    cfg = DeCConfig.for_degree(K)
    expected = min(2 * cfg.M, cfg.kappa)
    errs = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        q = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            q = ode_step(lambda s, tt: s, q, t, dt, cfg)  # q' = -q
            t += dt
        errs.append(abs(q[0] - np.exp(-1.0)))
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(2) for i in range(len(errs) - 1)]
    assert abs(orders[-1] - expected) < 0.25


def test_truncated_iterations_reduce_order():
    cfg = DeCConfig(M=2, kappa=2, cfl=0.1)  # L2 is order 4, but only 2 sweeps
    errs = []
    for dt in (0.1, 0.05, 0.025):
        q = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            q = ode_step(lambda s, tt: s, q, t, dt, cfg)
            t += dt
        errs.append(abs(q[0] - np.exp(-1.0)))
    order = np.log(errs[-2] / errs[-1]) / np.log(2)
    assert abs(order - 2) < 0.25


def test_zero_rhs_is_identity():
    cfg = DeCConfig.for_degree(2)
    q = np.array([3.0, -1.0])
    out = ode_step(lambda s, t: 0.0 * s, q, 0.0, 0.3, cfg)
    assert np.abs(out - q).max() == 0.0


def test_kernel_state_is_fixed_point():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(6, 6, 3)
    st, _ = line_by_line_projection(prob, grid, ox, oy)
    for stab in ("su", "oss"):
        sch = SchemeConfig("gf", stab, default_alpha(stab, 3), grid.h)
        stepper = Stepper(prob, grid, ox, oy, sch)
        out = stepper.step(st, 0.0)
        drift = max(np.abs(a - b).max() for a, b in zip(out.arrays(), st.arrays()))
        assert drift < 1e-13


def test_run_partial_final_step():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(4, 4, 2)
    sch = SchemeConfig("gf", "su", 0.05, grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    st = exact_state(prob, grid)
    T = 0.4 * stepper.dt  # smaller than one step
    seen = []
    out, t = stepper.run(st, T, callback=lambda s, tt, q: seen.append((s, tt)))
    assert abs(t - T) < 1e-14
    assert seen[-1][0] == 1  # a single shortened step
    # non-divisible horizon lands exactly on T
    out, t = stepper.run(st, 2.5 * stepper.dt)
    assert abs(t - 2.5 * stepper.dt) < 1e-14


def test_run_rejects_nonpositive_horizon():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(3, 3, 1)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    # the last two are below the landing tolerance 1e-14 * max(1, |t0 + T|)
    for T, t0 in ((0.0, 0.0), (-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1e-15, 0.0),
                  (5e-15, 10.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            stepper.run(exact_state(prob, grid), T, t0=t0)
    assert stepper.steps == 0


def test_step_superposition_for_homogeneous_system():
    prob = Problem(name="homogeneous", box=(0.0, 1.0, 0.0, 1.0), bc="periodic",
                   steady=False)
    grid, ox, oy = make_grid(4, 4, 2, periodic=True)
    sch = SchemeConfig("standard", "su", 0.05, grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    rng = np.random.default_rng(12)

    s1, s2 = (State(grid, rng.standard_normal((3, *grid.shape))) for _ in range(2))
    a, b = 0.7, -1.3
    comb = State(grid, a * s1.q + b * s2.q)
    o1 = stepper.step(s1, 0.0)
    o2 = stepper.step(s2, 0.0)
    oc = stepper.step(comb, 0.0)
    for x1, x2, xc in zip(o1.arrays(), o2.arrays(), oc.arrays()):
        assert np.abs(a * x1 + b * x2 - xc).max() < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_raises_with_step_index():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(4, 4, 2)
    # unstable on purpose: CFL far beyond the explicit limit
    dec = DeCConfig.for_degree(2, cfl=5.0)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h), dec)
    with pytest.raises(BlowUpError) as err:
        stepper.run(exact_state(prob, grid), 500.0)
    assert err.value.step >= 1


def test_gf_on_periodic_grid_rejected():
    prob = Problem(name="homogeneous", box=(0.0, 1.0, 0.0, 1.0), bc="periodic",
                   steady=False)
    grid, ox, oy = make_grid(4, 4, 2, periodic=True)
    with pytest.raises(ValueError, match="periodic"):
        Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))


def test_dirichlet_requires_exact_solution():
    prob = Problem(name="nameless", box=(0.0, 1.0, 0.0, 1.0), bc="dirichlet",
                   steady=False)
    grid, ox, oy = make_grid(3, 3, 1)
    with pytest.raises(ValueError, match="exact"):
        Stepper(prob, grid, ox, oy, SchemeConfig("standard", "su", 0.05, grid.h))


def test_translating_short_convergence_order():
    from gfsem.problems import mass_source_translating
    from gfsem.grid import l2_norm, quad_weights
    prob = mass_source_translating()
    errs = []
    for N in (20, 40):
        grid, ox, oy = make_grid(N, N, 1, box=prob.box)
        sch = SchemeConfig("gf", "su", default_alpha("su", 1), grid.h)
        stepper = Stepper(prob, grid, ox, oy, sch)
        out, t = stepper.run(exact_state(prob, grid, 0.0), 0.05)
        X, Y = grid.meshgrid()
        ue = prob.exact(X, Y, t)[0]
        errs.append(l2_norm(out.u.values - ue, quad_weights(grid, ox, oy)))
    order = np.log(errs[0] / errs[1]) / np.log(2)
    assert order > 1.3  # K+1 = 2 asymptotically, preasymptotic slack


# --- cross-check against the plain per-stage sweep --------------------------

def reference_step(stepper: Stepper, state: State, t: float, dt: float) -> State:
    """One DeC step written out stage by stage: 1 + kappa*M residuals, the SU
    time term in every sweep, one State per stage, uncached sources and
    Dirichlet data from the full grid."""
    cfg, grid, prob, sch = stepper.dec, stepper.grid, stepper.problem, stepper.scheme
    ox, oy = stepper.ops_x, stepper.ops_y
    sources = SourceEval(prob, grid)
    minv = 1.0 / np.outer(ox.mass_diag, oy.mass_diag)
    sub_t = [t + b * dt for b in cfg.beta]
    q0 = state.arrays()
    stages = [state.copy() for _ in range(cfg.M + 1)]

    def residual(st, s):
        return spatial_residual(st, sources.arrays(st, s), ox, oy, sch)

    res0 = residual(stages[0], sub_t[0])
    for _ in range(cfg.kappa):
        res = [res0] + [residual(stages[r], sub_t[r]) for r in range(1, cfg.M + 1)]
        for m in range(1, cfg.M + 1):
            inc = []
            for c in range(3):
                acc = cfg.theta[m, 0] * res[0][c]
                for r in range(1, cfg.M + 1):
                    acc = acc + cfg.theta[m, r] * res[r][c]
                inc.append(dt * acc)
            if sch.stabilization == "su":
                d = [qm - q for qm, q in zip(stages[m].arrays(), q0)]
                inc = [a + b for a, b in zip(inc, stab_su_time(*d, ox, oy, sch))]
            new = State(grid, np.stack([q - minv * a for q, a in zip(q0, inc)]))
            if prob.bc == "dirichlet":
                X, Y = grid.meshgrid()
                for q, qe in zip(new.arrays(), prob.exact(X, Y, sub_t[m])):
                    qe = np.broadcast_to(qe, grid.shape)
                    q[0, :], q[-1, :] = qe[0, :], qe[-1, :]
                    q[:, 0], q[:, -1] = qe[:, 0], qe[:, -1]
            stages[m] = new
    return stages[cfg.M]


def _random_periodic_case():
    prob = Problem(name="homogeneous", box=(0.0, 1.0, 0.0, 1.0), bc="periodic",
                   steady=False)
    grid, ox, oy = make_grid(4, 4, 2, periodic=True)
    rng = np.random.default_rng(5)
    st = State(grid, rng.standard_normal((3, *grid.shape)))
    return prob, grid, ox, oy, "standard", "su", st


def _case(name):
    if name == "gf_su_neumann_vortex":
        prob = coriolis_vortex()
        grid, ox, oy = make_grid(5, 5, 2, box=prob.box)
        return prob, grid, ox, oy, "gf", "su", exact_state(prob, grid)
    if name == "gf_oss_dirichlet_stommel":
        prob = stommel_gyre()
        grid, ox, oy = make_grid(5, 4, 3, box=prob.box)
        return prob, grid, ox, oy, "gf", "oss", exact_state(prob, grid)
    if name == "gf_su_dirichlet_mass_source":  # static S_p, integrated once
        prob = mass_source_steady()
        grid, ox, oy = make_grid(4, 5, 3, box=prob.box)
        return prob, grid, ox, oy, "gf", "su", exact_state(prob, grid)
    if name == "standard_su_periodic":
        return _random_periodic_case()
    prob = mass_source_translating(b=0.01)
    grid, ox, oy = make_grid(4, 4, 4, box=prob.box)
    return prob, grid, ox, oy, "standard", "oss", exact_state(prob, grid, 0.3)


CASES = ["gf_su_neumann_vortex", "gf_oss_dirichlet_stommel", "gf_su_dirichlet_mass_source",
         "standard_su_periodic", "standard_oss_translating"]

# The step sums the theta-weighted residuals in another order than
# reference_step, so the two agree to round-off, not bitwise.
REFERENCE_TOL = 1e-13


def _reference_gaps(name, mutate=None):
    """Two steps of a Stepper, mutated by `mutate(stepper)` when given, and
    of reference_step on an unmutated one: max|a - b| / max|ref| per step."""
    prob, grid, ox, oy, form, stab, st = _case(name)
    sch = SchemeConfig(form, stab, default_alpha(stab, grid.K), grid.h)
    stepper, plain = Stepper(prob, grid, ox, oy, sch), Stepper(prob, grid, ox, oy, sch)
    if mutate is not None:
        mutate(stepper)
    t = 0.3 if name == "standard_oss_translating" else 0.0
    ref, gaps = st, []
    for k in range(2):  # the second step reuses the stepper's source cache
        st = stepper.step(st, t + k * stepper.dt)
        ref = reference_step(plain, ref, t + k * stepper.dt, stepper.dt)
        gaps.append(np.abs(st.q - ref.q).max() / np.abs(ref.q).max())
    drift = np.abs(st.q - _case(name)[-1].q).max()
    assert drift > 0.0  # the cases are not fixed points
    return gaps


@pytest.mark.parametrize("name", CASES)
def test_step_matches_per_stage_reference(name):
    assert max(_reference_gaps(name)) <= REFERENCE_TOL


def _scale_one_theta(stepper):
    theta = stepper.dec.theta.copy()
    theta[-1, 1] *= 1.0 + 1e-8
    stepper.dec = replace(stepper.dec, theta=theta)


def _skip_one_stage_residual(stepper):
    # in the second step, the first stage residual after r^0 is not evaluated:
    # its buffer keeps the first step's value
    calls, evaluate = [], stepper._residual

    def skipping(q, t, out):
        calls.append(stepper.steps)
        if calls.count(2) != 2:
            evaluate(q, t, out)

    stepper._residual = skipping


# The Stommel step moves the state by ~1e-5 of its size, so a 1e-8 change of
# theta moves it by ~1e-13: too close to the bound to show anything there.
@pytest.mark.parametrize("name,mutate",
                         [(n, _scale_one_theta) for n in CASES if "stommel" not in n]
                         + [(n, _skip_one_stage_residual) for n in CASES])
def test_reference_tolerance_rejects_a_wrong_step(name, mutate):
    assert max(_reference_gaps(name, mutate)) > REFERENCE_TOL


@pytest.mark.parametrize("name", ["standard_oss_translating", "standard_su_periodic"])
def test_step_and_run_leave_the_callers_state_unchanged(name):
    prob, grid, ox, oy, form, stab, st = _case(name)  # time-dependent Dirichlet; SU
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig(form, stab, default_alpha(stab, grid.K),
                                                       grid.h))
    t = 0.3 if name == "standard_oss_translating" else 0.0
    q = st.q.copy()
    out = stepper.step(st, t)
    assert np.array_equal(st.q, q) and not np.shares_memory(out.q, st.q)
    seen = []
    out, _ = stepper.run(st, 3 * stepper.dt, t0=t, callback=lambda k, tt, s: seen.append(s))
    assert np.array_equal(st.q, q)
    assert not any(np.shares_memory(a.q, b.q) for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("name,dropped", [
    ("gf_su_neumann_vortex", {3, 4, 5}), ("gf_oss_dirichlet_stommel", {4, 5}),
    ("gf_su_dirichlet_mass_source", {3, 4}), ("standard_su_periodic", {3, 4, 5}),
    ("standard_oss_translating", {3, 4})])
def test_stepper_table_drops_the_sources_the_problem_lacks(name, dropped):
    # inputs (u, v, p, tau_u, tau_v, S_p): the Coriolis and friction terms read
    # u and v, so the vortex keeps no source and Stommel only tau_u, its tau_v
    # being zero on every node
    prob, grid, ox, oy, form, stab, _ = _case(name)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig(form, stab, 0.04, grid.h))
    assert set(range(6)) - set(stepper.table.state.inputs) == dropped


# --- Coriolis and friction folded into the state table ----------------------

def _x_coriolis():
    # c of x alone and f of y alone: both right-scale a factor, in x and in y
    return Problem(name="x_coriolis", box=(0.0, 1.0, 0.0, 1.0), bc="neumann", steady=True,
                   coriolis=lambda X, Y: 0.2 + 0.3 * X, friction=lambda X, Y: 0.05 + 0.1 * Y,
                   tau=lambda X, Y: (np.sin(3.0 * X) * Y, np.cos(2.0 * Y)))


def _fold_gap(maker, form, stab, flip_c=False):
    """max|r - r_paper| / max|r_paper| of the Stepper's residual against the
    paper-form table fed SourceEval.arrays, scaled by the inverse lumped mass,
    on a state off the discrete kernel; with `flip_c` the Stepper folds -c in
    place of c."""
    prob = maker()
    grid, ox, oy = make_grid(5, 4, 3, box=prob.box)
    sources = SourceEval(prob, grid)
    if flip_c:
        c = prob.coriolis
        prob.coriolis = lambda X, Y: -c(X, Y)
    sch = SchemeConfig(form, stab, default_alpha(stab, grid.K), grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    rng = np.random.default_rng(11)
    q = State(grid, rng.standard_normal((3, *grid.shape)))
    got = np.empty_like(q.q)
    stepper._residual(q.q, 0.0, got)
    ref = stepper.minv * spatial_residual(q, sources.arrays(q, 0.0), stepper.ops_x,
                                          stepper.ops_y, sch)
    return np.abs(got - ref).max() / np.abs(ref).max()


FOLD_CASES = [(maker, form, stab) for maker in (coriolis_vortex, stommel_gyre, _x_coriolis)
              for form, stab in (("gf", "su"), ("gf", "oss"), ("standard", "su"))]


@pytest.mark.parametrize("by_y", [True, False])
@pytest.mark.parametrize("maker,form,stab", FOLD_CASES)
def test_folded_table_matches_the_paper_form(monkeypatch, maker, form, stab, by_y):
    # under each of the two term groupings of KronTerms
    monkeypatch.setattr(gfsem.schemes, "_group_by_output_and_y", lambda *args: by_y)
    assert _fold_gap(maker, form, stab) <= REFERENCE_TOL


@pytest.mark.parametrize("by_y", [True, False])
@pytest.mark.parametrize("maker", [coriolis_vortex, stommel_gyre])  # Neumann, Dirichlet
@pytest.mark.parametrize("form,stab", [("gf", "su"), ("gf", "oss"), ("standard", "su"),
                                       ("standard", "oss")])
def test_stepper_table_is_the_plain_table_scaled_by_the_inverse_mass(monkeypatch, maker, form,
                                                                     stab, by_y):
    monkeypatch.setattr(gfsem.schemes, "_group_by_output_and_y", lambda *args: by_y)
    prob = maker()
    grid, ox, oy = make_grid(5, 4, 3, box=prob.box)
    sch = SchemeConfig(form, stab, default_alpha(stab, grid.K), grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    src, table = stepper.sources, stepper.table
    plain = ResidualTable(stepper.ops_x, stepper.ops_y, sch, coriolis=src.c, friction=src.f,
                          absent=set(range(3, 6)) - set(table.state.inputs))
    rng = np.random.default_rng(17)
    q, fields = rng.standard_normal((3, *grid.shape)), rng.standard_normal((3, *grid.shape))
    assert (table.time is None) == (plain.time is None) == (stab == "oss")
    for scaled, unscaled in ((table.state, plain.state), (table.time, plain.time)):
        if scaled is not None:
            want = stepper.minv * unscaled.apply(q, fields)
            assert np.abs(scaled.apply(q, fields) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("maker,form,stab", FOLD_CASES)
def test_fold_tolerance_rejects_a_flipped_coriolis_sign(maker, form, stab):
    assert _fold_gap(maker, form, stab, flip_c=True) > REFERENCE_TOL


def test_stepper_rejects_a_coriolis_coefficient_of_x_and_y():
    prob = Problem(name="xy_coriolis", box=(0.0, 1.0, 0.0, 1.0), bc="neumann", steady=True,
                   coriolis=lambda X, Y: 0.2 + X * Y)
    grid, ox, oy = make_grid(4, 3, 2, box=prob.box)
    with pytest.raises(ValueError, match="coriolis coefficient varies along both x and y"):
        Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))


def test_step_makes_no_state_dependent_source_evaluation(monkeypatch):
    calls, arrays = [], SourceEval.arrays
    monkeypatch.setattr(SourceEval, "arrays", lambda *a, **k: calls.append(1) or arrays(*a, **k))
    for maker in (coriolis_vortex, stommel_gyre, _x_coriolis):
        prob = maker()
        grid, ox, oy = make_grid(4, 4, 2, box=prob.box)
        stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
        st = State(grid, np.random.default_rng(3).standard_normal((3, *grid.shape)))
        stepper.run(st, 3 * stepper.dt)
        assert stepper.steps == 3
    assert calls == []


def test_steady_dirichlet_ring_is_evaluated_once_per_stepper():
    prob = mass_source_steady()
    grid, ox, oy = make_grid(4, 4, 2, box=prob.box)
    st, calls, exact = exact_state(prob, grid), [], prob.exact
    prob.exact = lambda X, Y, t: calls.append(t) or exact(X, Y, t)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("standard", "oss", 0.01, grid.h))
    for k in range(4):
        st = stepper.step(st, k * stepper.dt)
    assert len(calls) == 1


@pytest.mark.parametrize("maker,form,stab", [(coriolis_vortex, "gf", "su"),
                                             (mass_source_steady, "standard", "oss")])
def test_step_allocates_little_beyond_the_state_it_returns(maker, form, stab):
    import tracemalloc
    prob = maker()
    grid, ox, oy = make_grid(20, 20, 2, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig(form, stab, default_alpha(stab, 2), grid.h))
    st = stepper.step(exact_state(prob, grid), 0.0)  # warm-up: the workspace is made
    copied = st.copy()  # a state the stepper did not make
    state_bytes = sum(a.nbytes for a in st.arrays())
    tracemalloc.start()
    try:
        for start in (st, copied):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = stepper.step(start, stepper.dt)
            assert tracemalloc.get_traced_memory()[1] - before < 1.5 * state_bytes
            del out
    finally:
        tracemalloc.stop()


def _count_residuals(monkeypatch, stepper, state, t, steps):
    calls = []
    orig = gfsem.dec.spatial_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(gfsem.dec, "spatial_residual", counted)
    for k in range(steps):
        state = stepper.step(state, t + k * stepper.dt)
    return len(calls) / steps


def test_residuals_per_step(monkeypatch):
    # autonomous: the first sweep reuses the start residual, 1 + (kappa-1)*M
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(4, 4, 2, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    assert _count_residuals(monkeypatch, stepper, exact_state(prob, grid), 0.0, 3) == 5
    # Stommel: friction, forcing and a Coriolis coefficient of y, Dirichlet data
    prob = stommel_gyre()
    grid, ox, oy = make_grid(4, 4, 2, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    assert _count_residuals(monkeypatch, stepper, exact_state(prob, grid), 0.0, 3) == 5
    # time-dependent S_p: every sweep evaluates its stages, 1 + kappa*M
    prob = mass_source_translating()
    grid, ox, oy = make_grid(3, 3, 4, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h))
    assert _count_residuals(monkeypatch, stepper, exact_state(prob, grid), 0.0, 3) == 16
    assert stepper.steps == 3 and stepper.residual_evals == 48


def test_time_dependent_source_evaluated_once_per_sub_time():
    prob = mass_source_translating(b=0.01)
    grid, ox, oy = make_grid(4, 4, 4, box=prob.box)
    calls = []
    s_p = prob.s_p

    def counted(X, Y, t):
        calls.append(t)
        return s_p(X, Y, t)

    prob.s_p = counted
    sch = SchemeConfig("gf", "su", default_alpha("su", 4), grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    st = ref = exact_state(prob, grid, 0.2)
    for k in range(3):
        t = 0.2 + k * stepper.dt
        del calls[:]
        st = stepper.step(st, t)
        assert len(calls) <= stepper.dec.M + 1
        ref = reference_step(stepper, ref, t, stepper.dt)
        assert np.abs(st.q - ref.q).max() <= REFERENCE_TOL * np.abs(ref.q).max()


def test_run_evaluates_a_time_dependent_source_once_per_distinct_sub_time():
    # a step ends bitwise where the next one starts, so the two share S_p
    prob = mass_source_translating()
    grid, ox, oy = make_grid(20, 20, 4, box=prob.box)
    calls, s_p = [], prob.s_p
    prob.s_p = lambda X, Y, t: calls.append(t) or s_p(X, Y, t)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h))
    stepper.run(exact_state(prob, grid), 30 * stepper.dt)
    assert stepper.steps == 30 and len(calls) == 1 + 30 * stepper.dec.M


@pytest.mark.parametrize("name", CASES)
def test_stepper_residual_matches_prefix_reference(name):
    from helpers import reference_residual
    prob, grid, ox, oy, form, stab, st = _case(name)
    sch = SchemeConfig(form, stab, default_alpha(stab, grid.K), grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    rng = np.random.default_rng(len(name))
    for t in (0.3, 0.3 + stepper.dt):
        # off the discrete kernel, so the residual is not a cancellation
        q = State(grid, st.q + 0.1 * np.abs(st.q).max() * rng.standard_normal(st.q.shape))
        # the stepper's table has c, f and M^-1 folded in and reads the forcing
        # only; the reference takes the paper-form sources S_u, S_v of q
        got = spatial_residual(q, stepper.sources.forcing(t), stepper.ops_x, stepper.ops_y, sch,
                               table=stepper.table)
        want = stepper.minv * np.stack(reference_residual(
            q, stepper.sources.arrays(q, t), stepper.ops_x, stepper.ops_y, sch))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_k5_su_defaults_stay_bounded():
    # alpha = 0.05 with CFL 0.1 at K=5 grows by a factor ~3.6 per step
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(3, 3, 5, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", default_alpha("su", 5),
                                                       grid.h))
    st = exact_state(prob, grid)
    out, _ = stepper.run(st, 150 * stepper.dt)
    assert stepper.steps == 150
    assert max(np.abs(a).max() for a in out.arrays()) < 2.0 * max(
        np.abs(a).max() for a in st.arrays())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_names_field_node_and_last_finite_magnitude():
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(3, 3, 5, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h),
                      DeCConfig.for_degree(5, cfl=0.1))
    with pytest.raises(BlowUpError) as err:
        stepper.run(exact_state(prob, grid), 1000.0)
    e = err.value
    assert e.field in ("u", "v", "p")
    assert e.node[0] in grid.xline and e.node[1] in grid.yline
    assert np.isfinite(e.last_max) and e.last_max > 1e100
    msg = str(e)
    assert f"non-finite {e.field} at step {e.step}" in msg
    assert f"(x, y) = ({e.node[0]:.6g}, {e.node[1]:.6g})" in msg
    assert f"{e.last_max:.6g}" in msg
