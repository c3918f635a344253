from dataclasses import replace

import numpy as np
import pytest

import gfsem.dec
import gfsem.schemes
from gfsem.dec import BlowUpError, DeCConfig, Stepper, dec_coefficients, default_cfl
from gfsem.grid import State, make_grid
from gfsem.problems import (Problem, SourceEval, coriolis_vortex, exact_state,
                            mass_source_steady, mass_source_translating, stommel_gyre)
from gfsem.schemes import (FORMULATIONS, STABILIZATIONS, ResidualTable, SchemeConfig,
                           default_alpha, residual_terms, spatial_residual, stab_su_time)
from gfsem.wellprep import line_by_line_projection
from helpers import kron_apply, ode_step, pin_dirichlet_slices


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


def test_run_samples_a_last_step_that_lands_just_short_of_the_final_time():
    # 7 steps of dt = 0.1 h on a 7x7 mesh end at 7 * dt = 0.09999999999999999, within
    # the landing tolerance below t_end = 0.1: the loop stops there, and samples it
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(7, 7, 2, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h),
                      DeCConfig.for_degree(2, cfl=0.1))
    seen = []
    out, t = stepper.run(exact_state(prob, grid), 0.1, callback_every=3,
                         callback=lambda s, tt, q: seen.append((s, tt, q)))
    assert t < 0.1 and stepper.steps == 7
    assert [s for s, _, _ in seen] == [0, 3, 6, 7]
    assert seen[-1][1] == t and seen[-1][2] is out


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


# mass_source_steady folds no coefficient: its cases check the groups of the terms on S_p
FOLD_CASES = [(maker, form, stab)
              for maker in (coriolis_vortex, stommel_gyre, _x_coriolis, mass_source_steady)
              for form, stab in (("gf", "su"), ("gf", "oss"), ("standard", "su"))]


def _tile(monkeypatch, tiled):
    """With `tiled`, KronTerms built from here on take one x-row per tile;
    else the default height, one tile on the small grids below."""
    if tiled:
        monkeypatch.setattr(gfsem.schemes, "_TILE_BYTES", 1)


@pytest.mark.parametrize("tiled", [True, False])
@pytest.mark.parametrize("maker,form,stab", FOLD_CASES)
def test_folded_table_matches_the_paper_form(monkeypatch, maker, form, stab, tiled):
    _tile(monkeypatch, tiled)
    assert _fold_gap(maker, form, stab) <= REFERENCE_TOL


@pytest.mark.parametrize("tiled", [True, False])
# Neumann, Dirichlet, Dirichlet with S_p
@pytest.mark.parametrize("maker", [coriolis_vortex, stommel_gyre, mass_source_steady])
@pytest.mark.parametrize("form,stab", [("gf", "su"), ("gf", "oss"), ("standard", "su"),
                                       ("standard", "oss")])
def test_stepper_table_is_the_plain_table_scaled_by_the_inverse_mass(monkeypatch, maker, form,
                                                                     stab, tiled):
    _tile(monkeypatch, tiled)
    prob = maker()
    grid, ox, oy = make_grid(5, 4, 3, box=prob.box)
    sch = SchemeConfig(form, stab, default_alpha(stab, grid.K), grid.h)
    stepper = Stepper(prob, grid, ox, oy, sch)
    src, table = stepper.sources, stepper.table
    assert len(table.state.tiles) == (grid.shape[0] if tiled else 1)
    plain = ResidualTable(stepper.ops_x, stepper.ops_y, sch, coriolis=src.c, friction=src.f,
                          absent=set(range(3, 6)) - set(table.state.inputs))
    rng = np.random.default_rng(17)
    q, fields = rng.standard_normal((3, *grid.shape)), rng.standard_normal((3, *grid.shape))
    assert (table.time is None) == (plain.time is None) == (stab == "oss")
    for scaled, unscaled in ((table.state, plain.state), (table.time, plain.time)):
        if scaled is not None:
            want = stepper.minv * unscaled.apply(q, fields)
            assert np.abs(scaled.apply(q, fields) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("maker,form,stab",
                         [case for case in FOLD_CASES if case[0] is not mass_source_steady])
def test_fold_tolerance_rejects_a_flipped_coriolis_sign(maker, form, stab):
    assert _fold_gap(maker, form, stab, flip_c=True) > REFERENCE_TOL


# --- terms with an identity factor: one pass each ---------------------------

SCHEMES = [(form, stab) for form in FORMULATIONS for stab in STABILIZATIONS]


def _inverse_mass(ops_x, ops_y):
    return 1 / ops_x.mass_diag, 1 / ops_y.mass_diag


def _record_terms(monkeypatch):
    """Make each KronTerms that ResidualTable builds keep its terms, weights and scale."""
    class Recording(gfsem.schemes.KronTerms):
        def __init__(self, terms, ops_x, ops_y, weights=None, scale=None):
            super().__init__(terms, ops_x, ops_y, weights, scale)
            self.terms, self.weights, self.scale = terms, weights, scale

    monkeypatch.setattr(gfsem.schemes, "KronTerms", Recording)


def _dense(kron, ops, spec, axis):
    """A recorded factor as a dense matrix, before any scale."""
    name, _, key = spec.partition("*")
    A = getattr(ops, name).toarray()
    return A * kron.weights[key][axis] if key else A


def _dense_gap(kron, ops_x, ops_y, minv, seed=5):
    """max|apply - want| / max|want| on random inputs, want = minv times the
    sum of c (Ax (x) Ay) x[s] over the recorded terms, every factor dense."""
    x = np.random.default_rng(seed).standard_normal((6, *kron.shape[1:]))
    want = np.zeros(kron.shape)
    for o, s, ax, ay, c in kron.terms:
        want[o] += c * kron_apply(_dense(kron, ops_x, ax, 0), _dense(kron, ops_y, ay, 1), x[s])
    want *= minv
    got = kron.apply(x[:3], x[3:], np.full(kron.shape, np.nan))  # every entry written
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh", ["plain", "neumann", "dirichlet", "mass_source"])
@pytest.mark.parametrize("form,stab", SCHEMES)
def test_stepper_tables_match_the_dense_kronecker_assembly(monkeypatch, form, stab, mesh, K):
    _record_terms(monkeypatch)
    if mesh == "plain":  # every source, no coefficient, the operators unclosed
        grid, ox, oy = make_grid(3, 4, K)
        table = ResidualTable(ox, oy, SchemeConfig(form, stab, default_alpha(stab, K), grid.h),
                              scale=_inverse_mass(ox, oy))
        minv = np.outer(*_inverse_mass(ox, oy))
    else:  # the Neumann closure and a constant c; Dirichlet, friction, c(y) and tau_u; S_p
        prob = {"neumann": coriolis_vortex, "dirichlet": stommel_gyre,
                "mass_source": mass_source_steady}[mesh]()
        grid, ox, oy = make_grid(3, 4, K, box=prob.box)
        stepper = Stepper(prob, grid, ox, oy,
                          SchemeConfig(form, stab, default_alpha(stab, K), grid.h))
        table, ox, oy, minv = stepper.table, stepper.ops_x, stepper.ops_y, stepper.minv
    assert "x" in table.state.routes and table.state.transposed  # identity factors on both axes
    for kron in (table.state, table.time):
        if kron is not None:
            assert _dense_gap(kron, ox, oy, minv) <= REFERENCE_TOL


@pytest.mark.parametrize("form,stab", SCHEMES)
def test_forcing_the_identity_on_the_paper_form_fails_the_dense_oracle(monkeypatch, form, stab):
    # unscaled, 'M' is the lumped mass: a factor like any other
    _record_terms(monkeypatch)
    grid, ox, oy = make_grid(3, 4, 3)
    cfg, one = SchemeConfig(form, stab, default_alpha(stab, 3), grid.h), np.ones(grid.shape)
    plain = ResidualTable(ox, oy, cfg)
    assert set(plain.state.routes) == {"xy"}
    assert _dense_gap(plain.state, ox, oy, one) <= REFERENCE_TOL
    factor = gfsem.schemes._factor
    monkeypatch.setattr(gfsem.schemes, "_factor", lambda ops, spec, *args: (
        None if spec == "M" else factor(ops, spec, *args)))
    assert _dense_gap(ResidualTable(ox, oy, cfg).state, ox, oy, one) > REFERENCE_TOL


def test_only_the_inverse_mass_makes_the_mass_an_identity(monkeypatch):
    _record_terms(monkeypatch)
    grid, ox, oy = make_grid(3, 4, 2)
    scale = (2 / ox.mass_diag, 1 / oy.mass_diag)
    table = ResidualTable(ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h), scale=scale)
    assert set(table.state.routes) == {"x", "xy"}  # M stays a factor in x alone
    assert _dense_gap(table.state, ox, oy, np.outer(*scale)) <= REFERENCE_TOL


@pytest.mark.parametrize("form,stab", SCHEMES)
def test_identity_routing_does_not_depend_on_the_rounding_of_the_mass(form, stab):
    routes = set()
    for K in range(1, 7):
        grid, ox, oy = make_grid(13, 13, K)
        table = ResidualTable(ox, oy, SchemeConfig(form, stab, default_alpha(stab, K), grid.h),
                              scale=_inverse_mass(ox, oy))
        routes.add((table.state.routes, table.time and table.time.routes))
        # (1/m) m is not 1.0 on 13 nodes at K = 4 and on 26 at K = 5
        assert ((1 / ox.mass_diag) * ox.mass_diag != 1.0).any() == (K in (4, 5))
    assert len(routes) == 1


def test_identity_terms_keep_no_grouped_intermediate():
    grid, ox, oy = make_grid(4, 3, 3)
    tables = {(form, stab): ResidualTable(ox, oy, SchemeConfig(form, stab, 0.04, grid.h),
                                          scale=_inverse_mass(ox, oy)) for form, stab in SCHEMES}
    for (form, stab), table in tables.items():
        if stab == "su":  # (Dt My) dp, (Mx Dt) dp, (Dt My) du + (Mx Dt) dv
            assert table.time.routes == ("x", "xy", "x", "xy") and table.time.G == 0
    assert tables["standard", "oss"].state.G == 0
    cfg = SchemeConfig("gf", "su", 0.04, grid.h)
    direct = [t for t, r in zip(residual_terms(cfg), tables["gf", "su"].state.routes) if r == "x"]
    assert direct == [(0, 2, "D", "M", 1.0), (0, 3, "E", "M", -1.0),
                      (2, 2, "DD", "M", cfg.ah), (2, 3, "F", "M", -cfg.ah)]


def test_an_identity_term_joins_the_group_that_makes_its_pass(monkeypatch):
    # on the vortex, GF+SU folds c v into (E (x) I) and (F (x) I) terms, whose
    # x-passes E v and F v grouped terms make anyway: only D p and DD p go direct
    _record_terms(monkeypatch)
    prob = coriolis_vortex()
    grid, ox, oy = make_grid(4, 4, 3, box=prob.box)
    kron = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h)).table.state
    paths = {r: [t[:4] for t, k in zip(kron.terms, kron.routes) if k == r] for r in ("x", "xy")}
    assert paths["x"] == [(0, 2, "D", "M"), (2, 2, "DD", "M")]
    assert [t for t in paths["xy"] if t[3] == "M"] == [(0, 1, "E", "M"), (2, 1, "F", "M")]


def _densify(A):
    out = np.zeros(A.shape)
    out[A.row, A.col] = A.data  # canonical: one entry per (row, col)
    return out


@pytest.mark.parametrize("maker", [coriolis_vortex, stommel_gyre, mass_source_steady, None])
@pytest.mark.parametrize("form,stab", SCHEMES)
def test_the_y_pass_blocks_are_the_input_and_x_factor_groups(monkeypatch, form, stab, maker):
    # one block per distinct (input, Ax) of the terms with a y-factor, in the
    # order the terms first name them, identity x-factors last (None: the
    # unscaled paper form, where 'M' is a factor like any other)
    _record_terms(monkeypatch)
    cfg = lambda grid: SchemeConfig(form, stab, default_alpha(stab, 3), grid.h)
    if maker is None:
        grid, ox, oy = make_grid(4, 3, 3)
        table = ResidualTable(ox, oy, cfg(grid))
    else:
        prob = maker()
        grid, ox, oy = make_grid(4, 3, 3, box=prob.box)
        stepper = Stepper(prob, grid, ox, oy, cfg(grid))
        table, ox, oy = stepper.table, stepper.ops_x, stepper.ops_y
    for kron in (table.state, table.time):
        if kron is None:
            continue
        one = lambda spec: kron.scale is not None and spec == "M"

        def dense(ops, spec, axis):  # the factor as KronTerms stores it
            if one(spec):
                return np.eye(ops.n_nodes)
            A = _dense(kron, ops, spec, axis)
            return A if kron.scale is None else kron.scale[axis][:, None] * A

        named = dict.fromkeys(t[1:3] for t in kron.terms if not one(t[3]))
        blocks = [g for g in named if not one(g[1])] + [g for g in named if one(g[1])]
        G, (nx, ny), lo = sum(not one(a) for _, a in blocks), kron.shape[1:], kron.rows.start
        assert (kron.G, kron.B) == (G, len(blocks))
        assert kron.transposed == tuple(s for s, _ in blocks[G:])
        # x-pass: rows (x-row, group) of one matrix per input, the state's over (u, v, p)
        assert {k for k, _ in kron.X} == {None if s < 3 else s for s, _ in blocks[:G]}
        for k, X in kron.X:
            want = np.zeros((nx, G, 3 if k is None else 1, nx))
            for g, (s, ax) in enumerate(blocks[:G]):
                if k == (None if s < 3 else s):
                    want[:, g, s if k is None else 0] = dense(ox, ax, 0)
            assert np.allclose(_densify(X).reshape(want.shape), want, rtol=1e-14, atol=0)
        # y-pass: block b of output o sums c Ay over the terms of group b on o
        want = np.zeros((kron.rows.stop - lo, ny, len(blocks), ny))
        for o, s, ax, ay, c in kron.terms:
            if (s, ax) in blocks:
                want[o - lo, :, blocks.index((s, ax))] += c * dense(oy, ay, 1)
        assert np.allclose(_densify(kron.Y).reshape(want.shape), want, rtol=1e-14, atol=0)


def test_kernel_passes_per_apply(monkeypatch):
    # a deterministic guard: kernel calls, and multiply-adds as nonzeros times
    # vectors, with no pass for an identity factor; S_p's term is -I (x) I
    calls, kernel = [], gfsem.schemes.csr_matvecs

    def counted(n_row, n_col, n_vecs, Ap, Aj, Ax, x, y):
        calls.append(int(Ap[-1] - Ap[0]) * n_vecs)
        kernel(n_row, n_col, n_vecs, Ap, Aj, Ax, x, y)

    monkeypatch.setattr(gfsem.schemes, "csr_matvecs", counted)
    nnz = lambda op: np.count_nonzero(op.toarray())
    prob = mass_source_translating()
    grid, ox, oy = make_grid(4, 4, 4, box=prob.box)
    (nx, ny), q = grid.shape, exact_state(prob, grid, 0.3).q
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h))
    stepper.table.state.apply(q, (None, None, q[2]))  # reads S_p alone
    assert len(calls) == 3  # the y-pass, the x-pass of the state and of S_p
    assert sum(calls) == ((2 * nnz(ox.D) + 2 * nnz(ox.Z) + nx) * ny
                          + (2 * nnz(oy.D) + 2 * nnz(oy.Z)) * nx)
    prob, calls[:] = coriolis_vortex(), []
    grid, ox, oy = make_grid(4, 4, 4, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    stepper.table.time.apply(exact_state(prob, grid).q)
    nx, ny = grid.shape
    assert len(calls) == 2  # the y-pass and the x-pass
    assert sum(calls) == 2 * nnz(stepper.ops_x.Dt) * ny + 2 * nnz(stepper.ops_y.Dt) * nx
    # the state table that the stationary and perturbation benchmarks step, at 80^2 K=2:
    # groups (0, D), (1, E), (0, DD), (1, F) and the transposed v and u; D p and DD p direct
    grid, ox, oy = make_grid(80, 80, 2, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    ox, oy, (nx, ny), calls[:] = stepper.ops_x, stepper.ops_y, grid.shape, []
    stepper.table.state.apply(exact_state(prob, grid).q)
    assert len(stepper.table.state.tiles) == 3
    assert len(calls) == 2 * 3 + 1  # the x-pass and the y-pass of each tile, then the direct
    assert sum(calls) == ((2 * nnz(ox.D) + nnz(ox.E) + 2 * nnz(ox.DD) + nnz(ox.F)) * ny
                          + (2 * ny + 3 * nnz(oy.E) + 3 * nnz(oy.D) + 2 * nnz(oy.DD)
                             + 2 * nnz(oy.F)) * nx)


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


def test_unsteady_dirichlet_ring_is_evaluated_once_per_new_sub_time(monkeypatch):
    prob = mass_source_translating()
    grid, ox, oy = make_grid(4, 4, 4, box=prob.box)
    st, calls, exact = exact_state(prob, grid), [], prob.exact
    prob.exact = lambda X, Y, t: calls.append(t) or exact(X, Y, t)
    pins, pin = [], gfsem.dec.pin_dirichlet
    monkeypatch.setattr(gfsem.dec, "pin_dirichlet", lambda *a: pins.append(1) or pin(*a))
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("standard", "oss", 0.04, grid.h))
    new = []
    for k in range(3):
        t = k * stepper.dt
        new += [t + b * stepper.dt for b in stepper.dec.beta[1:]]  # M = 3 per step
        st = stepper.step(st, t)
    assert calls == new
    assert len(pins) == 3 * 13  # once per formed stage: 4 sweeps of 3 stages, then stage M


def _pins_match_slice_oracle(monkeypatch, prob, cells, K, steps=2) -> bool:
    """Whether every stage the Stepper pins equals, bitwise, the slice-write
    oracle applied at its sub-time to the same stage before pinning."""
    grid, ox, oy = make_grid(*cells, K, box=prob.box)
    stepper = Stepper(prob, grid, ox, oy, SchemeConfig("gf", "su", 0.05, grid.h))
    seen, pin = [], gfsem.dec.pin_dirichlet

    def recorded(q, ring, values):
        before = q.copy()
        pin(q, ring, values)
        seen.append((before, q.copy()))
    monkeypatch.setattr(gfsem.dec, "pin_dirichlet", recorded)
    st = State(grid, np.random.default_rng(5).standard_normal((3, *grid.shape)))
    dec, times = stepper.dec, []
    for k in range(steps):
        t = 0.3 + k * stepper.dt
        sub_t = [t + b * stepper.dt for b in dec.beta]
        times += sub_t[1:] * (dec.kappa - 1) + sub_t[-1:]  # the stages each sweep forms
        st = stepper.step(st, t)
    assert len(seen) == len(times)
    match = True
    for (before, after), t in zip(seen, times):
        want = State(grid, before)
        pin_dirichlet_slices(want, prob.exact, t)
        match &= np.array_equal(after, want.q)
    return match


@pytest.mark.parametrize("maker", [mass_source_steady, stommel_gyre, mass_source_translating])
@pytest.mark.parametrize("cells,K", [((8, 6), 4), ((3, 5), 2), ((1, 1), 1)])  # 1x1: all ring
def test_stepper_pins_stages_as_the_slice_writes_do(monkeypatch, maker, cells, K):
    assert _pins_match_slice_oracle(monkeypatch, maker(), cells, K)


def test_a_ring_that_misses_a_corner_fails_the_slice_oracle(monkeypatch):
    ring = gfsem.dec.dirichlet_ring

    def without_last_corner(grid):  # node (nx-1, ny-1), last in row-major order
        flat, x, y = ring(grid)
        return flat.reshape(3, -1)[:, :-1].ravel(), x[:-1], y[:-1]
    monkeypatch.setattr(gfsem.dec, "dirichlet_ring", without_last_corner)
    assert not _pins_match_slice_oracle(monkeypatch, mass_source_translating(), (3, 5), 2)


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
