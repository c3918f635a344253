import os

import numpy as np
import pytest

from gfsem.cli import main
from gfsem.config import (ConfigError, get_float, get_meshes, get_pair, get_str,
                          load_config, parse_config_text)
from gfsem.experiments import (ExperimentConfig, convergence_csv, read_csv,
                               run_convergence, run_single, write_csv)
from gfsem.grid import load_field

BASE = """
problem.name = coriolis_vortex
scheme.formulation = gf
scheme.stabilization = su
grid.k = 2
grid.meshes = 4x4 8x8
time.t_end = 0.1
init.method = interpolate
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_text():
    cfg = parse_config_text("a.b = 1  # comment\n\n# whole line\n c.d =  x y \n")
    assert cfg == {"a.b": "1", "c.d": "x y"}
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text(" = 3\n")


def test_typed_getters():
    cfg = {"s": "su", "f": "2.5", "pair": "0.4, 0.43", "m": "4x4 8"}
    assert get_str(cfg, "s", choices=("su", "oss")) == "su"
    with pytest.raises(ConfigError):
        get_str(cfg, "s", choices=("a",))
    assert get_float(cfg, "f") == 2.5
    with pytest.raises(ConfigError):
        get_float(cfg, "s")
    assert get_pair(cfg, "pair") == (0.4, 0.43)
    assert get_meshes(cfg, "m") == [(4, 4), (8, 8)]
    with pytest.raises(ConfigError, match="missing"):
        get_str(cfg, "absent")


def test_experiment_config_from_mapping():
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE))
    assert cfg.problem_name == "coriolis_vortex"
    assert cfg.meshes == [(4, 4), (8, 8)]
    assert cfg.alpha == 0.05  # SU default for K=2
    assert cfg.cfl == 0.1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(parse_config_text(
            BASE.replace("su", "weird")))


def test_run_convergence_rows_and_orders(tmp_path):
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE))
    rows = run_convergence(cfg)
    assert len(rows) == 2 and rows[0].N == 4 and rows[1].N == 8
    assert np.isnan(rows[0].ord_u) and np.isfinite(rows[1].ord_u)
    # order formula: log(e_prev/e_cur)/log(N_cur/N_prev)
    want = np.log(rows[0].err_u / rows[1].err_u) / np.log(2)
    assert abs(rows[1].ord_u - want) < 1e-12
    path = tmp_path / "conv.csv"
    convergence_csv(rows, path)
    header, data = read_csv(path)
    assert header[0] == "N" and len(data) == 2


def test_single_mesh_table_has_empty_order_column(tmp_path):
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE))
    cfg.meshes = [(4, 4)]
    rows = run_convergence(cfg)
    assert len(rows) == 1 and np.isnan(rows[0].ord_u)


def test_parallel_meshes_match_serial():
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE))
    serial = run_convergence(cfg, threads=1)
    parallel = run_convergence(cfg, threads=2)
    for a, b in zip(serial, parallel):
        assert a.err_u == b.err_u and a.err_p == b.err_p


def test_csv_determinism_and_parse_back(tmp_path):
    rows = [(1, 0.5, float("nan")), (2, 1.0 / 3.0, 4.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["n", "x", "y"], rows)
    write_csv(p2, ["n", "x", "y"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    header, data = read_csv(p1)
    assert header == ["n", "x", "y"]
    assert data[1][1] == 1.0 / 3.0  # 17 significant digits round-trip
    write_csv(p1, ["only", "header"], [])
    assert p1.read_text() == "only,header\n"


def test_cli_convergence_and_outputs(tmp_path):
    path = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
    assert main(["convergence", path]) == 0
    header, data = read_csv(tmp_path / "out" / "convergence.csv")
    assert len(data) == 2
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "problem.name = coriolis_vortex" in manifest
    assert "git = " in manifest and "wall_seconds = " in manifest
    # 4 + 8 steps of 1 + (kappa-1)*M = 5 residuals (K=2, autonomous problem)
    assert "\nsteps = 12\n" in manifest and "\nresidual_evals = 60\n" in manifest


def test_cli_solve_dumps_state_and_series(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4"))
    out = str(tmp_path / "solve_out")
    assert main(["solve", path, "--out", out]) == 0
    f = load_field(os.path.join(out, "final_p.txt"))
    assert f.grid.shape == (9, 9)
    header, series = read_csv(os.path.join(out, "divergence.csv"))
    assert header == ["t", "div_norm"]
    assert series[0][0] == 0.0 and abs(series[-1][0] - 0.1) < 1e-12


def test_cli_project_roundtrip(tmp_path):
    text = BASE.replace("4x4 8x8", "6x6").replace("init.method = interpolate",
                                                  "init.method = line_by_line")
    path = write_cfg(tmp_path, text)
    out = str(tmp_path / "proj")
    assert main(["project", path, "--out", out]) == 0
    manifest = (tmp_path / "proj" / "manifest.txt").read_text()
    assert "kernel_residual" in manifest
    # the dumped state feeds back through the from_file initializer
    text2 = text.replace("init.method = line_by_line",
                         f"init.method = from_file\ninit.path = {out}/state")
    path2 = write_cfg(tmp_path, text2, name="run2.cfg")
    assert main(["solve", path2, "--out", str(tmp_path / "solve2")]) == 0


def test_cli_perturb_writes_snapshots(tmp_path):
    text = """
problem.name = coriolis_vortex
scheme.formulation = gf
scheme.stabilization = su
grid.k = 2
grid.meshes = 6x6
time.t_end = 0.05
init.method = line_by_line
perturb.eps = 1e-3
output.sample_every = 2
"""
    path = write_cfg(tmp_path, text)
    out = str(tmp_path / "pert")
    assert main(["perturb", path, "--out", out]) == 0
    snaps = sorted(p for p in os.listdir(out) if p.startswith("vel_diff"))
    assert len(snaps) >= 2
    f = load_field(os.path.join(out, snaps[-1]))
    assert np.all(f.values >= 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_codes(tmp_path):
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 3
    bad = write_cfg(tmp_path, BASE.replace("gf", "nonsense"))
    assert main(["convergence", bad]) == 3
    # perturbation without an equilibrium initializer is a config error
    pert = write_cfg(tmp_path, BASE + "perturb.eps = 1e-3\n", name="p.cfg")
    assert main(["perturb", pert]) == 3
    # blow-up exit: unstable time step
    blow = write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4")
                     + "time.cfl = 5.0\ntime.t_end = 500.0\n", name="b.cfg")
    assert main(["solve", blow, "--out", str(tmp_path / "b_out")]) == 2


@pytest.mark.parametrize("line", [
    "output.sample_every = 0", "time.cfl = -1", "time.t_end = -1", "problem.bogus = 1",
    "grid.k = 0", "grid.meshes = 0x0", "scheme.alpha = -1", "scheme.alpha = nan",
    "problem.c = -1",
    # the velocity is a pair; a config value reaches the factory as one float
    "problem.a_vec = 0.5\nproblem.name = mass_source_translating"])
def test_cli_rejects_bad_value_and_names_key(tmp_path, capsys, line):
    path = write_cfg(tmp_path, BASE + line + "\n")
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 3
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line,key", [("time.cf1 = 0.05", "time.cf1"),
                                      ("scheme.stabilisation = oss", "scheme.stabilisation"),
                                      ("output = out", "output")])
def test_cli_rejects_unknown_key_and_names_it(tmp_path, capsys, line, key):
    path = write_cfg(tmp_path, BASE + line + "\n")
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err
    if key == "time.cf1":
        assert "did you mean 'time.cfl'?" in err
    assert not (tmp_path / "out").exists()


def test_shipped_and_benchmark_configs_load(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg_dir = os.path.join(root, "configs")
    for name in sorted(os.listdir(cfg_dir)):
        ExperimentConfig.from_mapping(load_config(os.path.join(cfg_dir, name)))
    monkeypatch.syspath_prepend(os.path.join(root, "gfbench"))
    from workloads import WORKLOADS
    for w in WORKLOADS.values():
        ExperimentConfig.from_mapping(parse_config_text(w.config_text(root, w.inputs(1))))


def test_cli_project_optimize_on_large_mesh(tmp_path):
    text = BASE.replace("4x4 8x8", "40x40").replace("init.method = interpolate",
                                                    "init.method = optimize")
    out = tmp_path / "proj"
    assert main(["project", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert "\nrank_deficiency = 161\n" in (out / "manifest.txt").read_text()


def test_long_run_initializer_settles_divergence(tmp_path):
    text = BASE.replace("4x4 8x8", "8x8").replace(
        "init.method = interpolate",
        "init.method = long_run\ninit.t_settle = 12.0")
    cfg = ExperimentConfig.from_mapping(parse_config_text(text))
    _, _, series, _ = run_single(cfg)
    assert series[0][1] < 1e-9  # initial state already settled near the kernel


def test_run_single_series_is_deterministic(tmp_path):
    cfg = ExperimentConfig.from_mapping(parse_config_text(
        BASE.replace("4x4 8x8", "4x4")))
    _, _, s1, _ = run_single(cfg)
    _, _, s2, _ = run_single(cfg)
    assert s1 == s2


def test_reference_configs_parse():
    import glob
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert len(paths) >= 6
    for p in paths:
        cfg = ExperimentConfig.from_mapping(load_config(p))
        assert cfg.meshes
        assert cfg.t_end > 0
