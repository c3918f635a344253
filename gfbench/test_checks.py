"""Each correctness check rejects a wrong answer; the tracer's arithmetic holds.

    python3 -m pytest gfbench/test_checks.py
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_drift_rejects_a_nudged_state():
    rng = np.random.default_rng(0)
    q0 = tuple(rng.uniform(-1, 1, (9, 9)) for _ in range(3))
    assert checks.at_most("d", checks.drift(q0, q0), 1e-10)["ok"]
    nudged = (q0[0], q0[1] + 1e-6, q0[2])
    assert not checks.at_most("d", checks.drift(q0, nudged), 1e-10)["ok"]


def test_rank_check_rejects_off_by_one():
    nx = ny = 40
    assert checks.equal("rank", 79, nx + ny - 1)["ok"]
    for wrong in (78, 80):
        assert not checks.equal("rank", wrong, nx + ny - 1)["ok"]


@pytest.mark.parametrize("calls, ok", [(16 * 10, True), (15 * 10, False), (17 * 10, False)])
def test_residual_count_time_dependent_is_exact(calls, ok):
    assert checks.residuals_per_step(calls, 10, M=3, kappa=5, time_dependent=True)["ok"] is ok


@pytest.mark.parametrize("per_step, ok", [(7, True), (5, True), (4, False), (8, False)])
def test_residual_count_autonomous_allows_first_sweep_reuse(per_step, ok):
    res = checks.residuals_per_step(per_step * 10, 10, M=2, kappa=3, time_dependent=False)
    assert res["ok"] is ok


def test_dec_parameters_reject_a_dropped_sweep():
    assert checks.dec_parameters(5, 3, K=4)["ok"]
    assert not checks.dec_parameters(4, 3, K=4)["ok"]
    assert not checks.dec_parameters(5, 2, K=4)["ok"]


def test_order_window_rejects_a_low_order():
    K = 4
    good = checks.observed_order(1.0, 2.0 ** -4.8, 20, 40)
    bad = checks.observed_order(1.0, 2.0 ** -3.9, 20, 40)
    assert math.isclose(good, 4.8) and math.isclose(bad, 3.9)
    assert checks.within("order", good, K + 0.4, K + 1.2)["ok"]
    assert not checks.within("order", bad, K + 0.4, K + 1.2)["ok"]


def _fake_run(K, N, t, u, p):
    nodes, _ = checks.gl_line(K, N)
    grid = SimpleNamespace(xline=nodes)
    out = SimpleNamespace(grid=grid, u=SimpleNamespace(values=u), p=SimpleNamespace(values=p))
    return {"out": (out, t)}


def test_translating_errors_see_a_wrong_state():
    K, N, t, b, p0 = 4, 5, 0.1, 1e-3, 1.2
    nodes, _ = checks.gl_line(K, N)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    ue, _, pe = checks.translating_solution(X, Y, t, b, p0)
    assert checks.translating_errors(_fake_run(K, N, t, ue, pe), K, N, b, p0) == (0.0, 0.0)
    eu, ep = checks.translating_errors(_fake_run(K, N, t, ue + 1e-6, pe), K, N, b, p0)
    assert math.isclose(eu, 1e-6, rel_tol=1e-6) and ep == 0.0
    bound = checks.TRANSLATING_ERR_PER_B[40][0] * b
    assert not checks.at_most("err_u", eu + bound, bound)["ok"]


def test_translating_errors_refuse_a_wrong_grid():
    K, N = 4, 5
    run_ = _fake_run(K, N, 0.0, np.zeros((21, 21)), np.zeros((21, 21)))
    run_["out"][0].grid.xline = np.linspace(0.0, 1.0, 21)
    with pytest.raises(ValueError):
        checks.translating_errors(run_, K, N, 1e-3, 1.0)


def test_independent_operators_match_the_program():
    from gfsem.basis import build_operator_set
    for K, N in ((2, 5), (3, 13), (4, 3)):
        ops = build_operator_set(K, N, 1.0 / N)
        nodes, mass = checks.gl_line(K, N)
        assert np.abs(ops.nodes - nodes).max() < 1e-14
        assert np.abs(ops.mass_diag - mass).max() < 1e-15
        assert np.abs(ops.D.toarray() - checks.weak_derivative(K, N)).max() < 1e-13
        assert np.abs(ops.I.toarray() - checks.prefix_integral(K, N, 1.0 / N)).max() < 1e-14


def test_kernel_and_optimality_checks_reject_wrong_data():
    from gfsem import coriolis_vortex, make_grid
    from gfsem.wellprep import line_by_line_projection, optimization_projection
    K, N = 2, 5
    problem = coriolis_vortex()
    grid, ox, oy = make_grid(N, N, K, box=problem.box)
    kkt, report = optimization_projection(problem, grid, ox, oy)
    lbl, _ = line_by_line_projection(problem, grid, ox, oy)
    assert checks.kernel_residual(kkt.u.values, kkt.v.values, K, N) <= 1e-10
    nodes, _ = checks.gl_line(K, N)
    ui, vi = checks.vortex_velocity(*np.meshgrid(nodes, nodes, indexing="ij"))
    assert checks.kernel_residual(ui, vi, K, N) > 1e-10        # interpolant: not in kernel
    assert report.rank_deficiency == grid.shape[0] + grid.shape[1] - 1
    d_kkt = checks.velocity_deviation(kkt.u.values, kkt.v.values, K, N)
    d_lbl = checks.velocity_deviation(lbl.u.values, lbl.v.values, K, N)
    assert checks.at_most("opt", d_kkt - d_lbl, 0.0)["ok"]
    assert not checks.at_most("opt", d_lbl - d_kkt, 0.0)["ok"]  # roles swapped


def test_sample_counts_and_step_zero():
    assert checks.expected_samples(46, 20) == 4          # 0, 20, 40, 46
    assert checks.expected_samples(80, 5) == 17
    assert not checks.equal("step0", float(np.abs(np.full(3, 1e-300)).max()), 0.0)["ok"]


def test_tracer_self_time_and_folding():
    ticks = iter(range(1000))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def inner(n):
        return traced_inner(n - 1) if n else traced_leaf()   # nests in its own layer

    traced_leaf = tr.wrap("leaf", lambda: 1)
    traced_inner = tr.wrap("inner", inner)
    step = tr.wrap("dec.step", lambda: traced_inner(2) + traced_leaf())
    step()
    step()
    assert [s[0] for s in tr.spans] == ["dec.step", "inner", "leaf", "leaf"] * 2
    st, inn, lf1, lf2 = tr.spans[:4]
    assert (inn[3], lf1[3], lf2[3]) == (0, 1, 0)
    self_ms = 1e3 * ((st[2] - st[1]) - (inn[2] - inn[1]) - (lf2[2] - lf2[1]))
    summary = tr.summary()
    assert summary["dec.step_self_ms"] == self_ms
    assert summary["dec.step_ms_p50"] == 1e3 * (st[2] - st[1])


def test_benchmark_file_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.METRICS


def test_seed_fixes_the_inputs():
    for wl in WORKLOADS.values():
        assert wl.inputs(7) == wl.inputs(7)
        assert wl.inputs(7) != wl.inputs(8)
