import os
import subprocess
import sys

import numpy as np
import pytest

from gfsem.cli import main
from gfsem.config import ConfigError, load_config, pair, parse, parse_config_text
from gfsem.experiments import (SCHEMA, ExperimentConfig, convergence_csv, run_convergence,
                               run_single, write_csv, write_manifest)
from gfsem.grid import l2_norm, load_field
from gfsem.problems import SourceEval, mass_source_translating
from helpers import read_csv

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
    # parse with each kind of parser and range the schema declares
    cfg = {"s": "su", "f": "2.5", "pair": "0.4, 0.43", "m": "4x4 8", "neg": "-1e-3 0.5"}
    kind = {key: parser for key, (_, parser, _, _) in SCHEMA.items()}
    assert parse(cfg, "s", kind["scheme.stabilization"]) == "su"
    with pytest.raises(ConfigError, match=r"s = 'su' not in \['gf', 'standard'\]"):
        parse(cfg, "s", kind["scheme.formulation"])
    assert parse(cfg, "f", kind["time.cfl"]) == 2.5
    with pytest.raises(ConfigError, match="s = 'su' is not a number"):
        parse(cfg, "s", kind["time.cfl"])
    with pytest.raises(ConfigError, match="f = '2.5' is not an integer"):
        parse(cfg, "f", kind["grid.k"])
    assert parse(cfg, "pair", kind["perturb.center"]) == (0.4, 0.43)
    with pytest.raises(ConfigError, match="f = '2.5' is not a pair of numbers"):
        parse(cfg, "f", kind["perturb.center"])
    assert parse(cfg, "m", kind["grid.meshes"]) == [(4, 4), (8, 8)]
    with pytest.raises(ConfigError, match="missing required key 'absent'"):
        parse(cfg, "absent", kind["grid.k"])
    # the range holds for each number of a pair
    assert parse(cfg, "neg", pair, SCHEMA["perturb.center"][3]) == (-1e-3, 0.5)
    with pytest.raises(ConfigError, match="neg = '-1e-3 0.5' must be positive and finite"):
        parse(cfg, "neg", pair, SCHEMA["perturb.r0"][3])
    # a required key of the schema: default None
    required = [key for key, (_, _, default, _) in SCHEMA.items() if default is None]
    assert "time.t_end" in required and "time.cfl" not in required
    with pytest.raises(ConfigError, match="missing required key 'time.t_end'"):
        ExperimentConfig.from_mapping({k: v for k, v in parse_config_text(BASE).items()
                                       if k != "time.t_end"})


def test_experiment_config_from_mapping():
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE))
    assert cfg.problem.name == "coriolis_vortex"
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


def test_a_convergence_run_builds_its_problem_once(monkeypatch):
    # from_mapping builds and self-checks the steady vortex; no mesh rebuilds it
    import gfsem.experiments
    calls, make = [], gfsem.experiments.make_problem
    monkeypatch.setattr(gfsem.experiments, "make_problem",
                        lambda *a, **k: calls.append(a) or make(*a, **k))
    cfg = ExperimentConfig.from_mapping(parse_config_text(BASE.replace("4x4 8x8", "2 3 4")))
    assert len(run_convergence(cfg)) == 3
    assert calls == [("coriolis_vortex",)]


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


def _record_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a serial stand-in that records its
    max_workers, so that no test forks worker processes."""
    import concurrent.futures

    import gfsem.experiments
    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(gfsem.experiments, "ProcessPoolExecutor", Pool, raising=False)
    return workers


def test_cli_threads_are_capped_at_the_mesh_count(tmp_path, monkeypatch):
    workers = _record_pool(monkeypatch)
    path = write_cfg(tmp_path, BASE.replace("4x4 8x8", "2x2 3x3 4x4"))
    assert main(["convergence", path, "--threads", "8", "--out", str(tmp_path / "out")]) == 0
    assert workers == [3]
    _, rows = read_csv(tmp_path / "out" / "convergence.csv")
    assert [r[0] for r in rows] == [2, 3, 4]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, monkeypatch, threads):
    workers = _record_pool(monkeypatch)
    path = write_cfg(tmp_path, BASE)
    assert main(["convergence", path, f"--threads={threads}", "--out",
                 str(tmp_path / "out")]) == 3
    assert f"--threads = {threads}" in capsys.readouterr().err
    assert workers == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "perturb", "project"])
def test_cli_rejects_threads_on_single_mesh_commands(tmp_path, capsys, command):
    text = BASE.replace("4x4 8x8", "4x4")
    if command == "perturb":
        text = text.replace("interpolate", "optimize") + "perturb.eps = 1e-3\n"
    path = write_cfg(tmp_path, text)
    assert main([command, path, "--threads", "2", "--out", str(tmp_path / "out")]) == 3
    assert "--threads = 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def fresh_python(*args) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports gfsem from src/, so
    that no other test's imports count."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


# of scipy, only the compiled CSR kernel module may load; scipy.sparse would
# bring numpy.f2py and numpy.testing with it. No run draws random numbers, and
# difflib loads only to suggest a key on a config error.
COLD_START = """
import sys
from gfsem.cli import main
code = main(sys.argv[1:])
absent = ("scipy.linalg", "multiprocessing", "scipy.sparse", "numpy.f2py", "numpy.testing",
          "numpy.random", "difflib")
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(code, *(m for m in absent if m in sys.modules), *scipy)
"""


@pytest.mark.parametrize("command,init", [("perturb", "optimize"), ("solve", "line_by_line"),
                                          ("convergence", "interpolate")])
def test_cold_start_imports_neither_dense_linalg_nor_a_process_pool(tmp_path, command, init):
    text = BASE.replace("4x4 8x8", "6x6").replace("interpolate", init) + "perturb.eps = 1e-3\n"
    proc = fresh_python("-c", COLD_START, command, write_cfg(tmp_path, text),
                        "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    # exit code, then no module but the kernel's
    assert proc.stdout.splitlines()[-1].split() == ["0", "scipy.sparse._sparsetools"]


def test_importing_the_cli_loads_no_process_diff_or_random_module():
    # subprocess loads when a manifest is written, difflib on a config error
    proc = fresh_python("-c", "import sys, gfsem.cli; print(*(m for m in ('subprocess', "
                        "'difflib', 'numpy.random') if m in sys.modules), 'done')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["done"]


def test_manifest_outside_a_git_checkout_says_git_unknown(tmp_path, monkeypatch):
    import gfsem.experiments
    pkg = tmp_path / "pkg"  # git describe runs in the package's directory
    pkg.mkdir()
    monkeypatch.setattr(gfsem.experiments, "__file__", str(pkg / "experiments.py"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    write_manifest(tmp_path / "manifest.txt", ExperimentConfig.from_mapping(
        parse_config_text(BASE)), 1.0)
    assert "\ngit = unknown\nwall_seconds = 1.000\n" in (tmp_path / "manifest.txt").read_text()


def _git_describe_times_out(monkeypatch):
    def run(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
    monkeypatch.setattr(subprocess, "run", run)


def test_manifest_says_git_unknown_when_git_describe_times_out(tmp_path, monkeypatch):
    _git_describe_times_out(monkeypatch)
    write_manifest(tmp_path / "manifest.txt", ExperimentConfig.from_mapping(
        parse_config_text(BASE)), 1.0, extra={"command": "solve", "steps": 3})
    text = (tmp_path / "manifest.txt").read_text()
    assert text.endswith("\ngit = unknown\nwall_seconds = 1.000\ncommand = solve\nsteps = 3\n")


@pytest.mark.parametrize("command", ["solve", "convergence", "perturb", "project"])
def test_cli_exits_0_when_git_describe_times_out(tmp_path, monkeypatch, command):
    _git_describe_times_out(monkeypatch)
    text = BASE.replace("4x4 8x8", "4x4")
    if command in ("perturb", "project"):
        text = text.replace("interpolate", "line_by_line") + "perturb.eps = 1e-3\n"
    out = tmp_path / "out"
    assert main([command, write_cfg(tmp_path, text), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "\ngit = unknown\nwall_seconds = " in manifest
    assert f"\ncommand = {command}\n" in manifest


def _count_manifests(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr("gfsem.cli.write_manifest",
                        lambda *a, **k: calls.append(a) or write_manifest(*a, **k))
    return calls


# each command's manifest keys after the config's, `git` and `wall_seconds`
MANIFEST_KEYS = {
    "solve": ["command", "final_time", "steps", "residual_evals"],
    "convergence": ["command", "steps", "residual_evals"],
    "perturb": ["command", "snapshots", "final_time", "steps", "residual_evals"],
    "project": ["command", "kernel_residual", "scheme_residual", "deviation_l2",
                "rank_deficiency"]}


@pytest.mark.parametrize("command", sorted(MANIFEST_KEYS))
def test_cli_writes_one_manifest_with_the_command_first(tmp_path, monkeypatch, command):
    calls = _count_manifests(monkeypatch)
    text = (BASE.replace("4x4 8x8", "4x4").replace("interpolate", "line_by_line")
            + "perturb.eps = 1e-3\n")
    out = tmp_path / "out"
    assert main([command, write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert len(calls) == 1
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[0] == "# run manifest"
    assert [line.split(" = ")[0] for line in lines[1:]] == (
        sorted(parse_config_text(text)) + ["git", "wall_seconds"] + MANIFEST_KEYS[command])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,manifests", [("solve", 0), ("convergence", 1)])
def test_cli_blow_up_exits_2_and_only_convergence_writes_a_manifest(tmp_path, monkeypatch,
                                                                    command, manifests):
    calls = _count_manifests(monkeypatch)
    blow = write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4")
                     + "time.cfl = 5.0\ntime.t_end = 500.0\n")
    out = tmp_path / "out"
    assert main([command, blow, "--out", str(out)]) == 2
    assert len(calls) == manifests == (out / "manifest.txt").exists()
    if command == "convergence":  # the blown mesh is a row of the study
        assert read_csv(out / "convergence.csv")[1][0][-1] == 1


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


@pytest.mark.parametrize("command", ["solve", "project"])
@pytest.mark.parametrize("init", ["line_by_line", "optimize"])
def test_cli_projects_onto_a_mesh_without_interior_nodes(tmp_path, command, init):
    # one K=1 cell: every node is on the boundary, the interior kernel residual is 0
    path = write_cfg(tmp_path, BASE.replace("grid.k = 2", "grid.k = 1").replace(
        "4x4 8x8", "1x1").replace("interpolate", init))
    assert main([command, path, "--out", str(tmp_path / "out")]) == 0
    if command == "project":
        assert "kernel_residual = 0.000000e+00" in (tmp_path / "out" / "manifest.txt").read_text()


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


@pytest.mark.parametrize("argv,message", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["solve"], "the following arguments are required: config"),
    (["convergence", "run.cfg", "--threads", "x"], "argument --threads: invalid int value")])
def test_cli_usage_error_exits_with_the_config_code(capsys, argv, message):
    assert main(argv) == 3  # not argparse's 2, the blow-up code
    err = capsys.readouterr().err
    assert message in err and "usage: gfsem" in err and "Traceback" not in err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "Exit codes" in capsys.readouterr().out


def test_process_exit_codes_are_the_documented_ones(tmp_path):
    # what a script sees, through sys.exit(main()) and argparse's SystemExit
    usage = fresh_python("-m", "gfsem.cli", "solve")
    assert usage.returncode == 3 and "required: config" in usage.stderr
    assert fresh_python("-m", "gfsem.cli", "--help").returncode == 0
    key = fresh_python("-m", "gfsem.cli", "solve", write_cfg(tmp_path, BASE + "time.cf1 = 1\n"),
                       "--out", str(tmp_path / "out"))
    assert key.returncode == 3 and "unknown key 'time.cf1'" in key.stderr
    for proc in (usage, key):
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["solve", "convergence", "perturb", "project"])
@pytest.mark.parametrize("init", ["line_by_line", "optimize", "long_run"])
def test_cli_rejects_a_projection_of_an_unsteady_problem(tmp_path, capsys, command, init):
    # long_run settles an equilibrium too, and the run then restarts at t = 0
    text = BASE.replace("coriolis_vortex", "mass_source_translating").replace(
        "interpolate", init) + "perturb.eps = 1e-3\n"
    assert main([command, write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"init.method = {init}" in err and "mass_source_translating" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "output.sample_every = 0", "time.cfl = -1", "time.t_end = -1", "problem.bogus = 1",
    "grid.k = 0", "grid.meshes = 0x0", "scheme.alpha = -1", "scheme.alpha = nan",
    "problem.c = -1",
    # a Stommel box of zero or negative extent
    "problem.b = 0\nproblem.name = stommel_gyre", "problem.b = -1\nproblem.name = stommel_gyre",
    "problem.lam = -1\nproblem.name = stommel_gyre",
    # the velocity is a pair: one number is rejected
    "problem.a_vec = 0.5\nproblem.name = mass_source_translating",
    "perturb.center = a b", "perturb.center = 0.4",
    "init.lambda = nan", "init.t_settle = inf", "init.t_settle = nan", "init.t_settle = -1",
    "perturb.r0 = 0", "perturb.r0 = -0.1",
    "problem.c = nan", "problem.c = inf", "problem.p0 = nan",
    "perturb.eps = inf", "perturb.eps = nan", "perturb.center = nan nan",
    # horizons that Stepper.run would refuse after the output directory is made
    "time.t_end = 1e-300", "init.t_settle = 1e-300\ninit.method = long_run"])
def test_cli_rejects_bad_value_and_names_key(tmp_path, capsys, line):
    path = write_cfg(tmp_path, BASE + line + "\n")
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 3
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,line,key", [
    ("perturb", "init.method = optimize", "perturb.eps"),
    ("perturb", "perturb.eps = 1e-3", "init.method"),
    ("solve", "init.method = from_file", "init.path"),
    ("project", "init.method = from_file", "init.path")])
def test_cli_rejects_a_missing_companion_key_before_making_the_output_directory(
        tmp_path, capsys, command, line, key):
    path = write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4").replace(
        "init.method = interpolate\n", "") + line + "\n")
    assert main([command, path, "--out", str(tmp_path / "out")]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


PERTURB = BASE.replace("4x4 8x8", "4x4").replace("interpolate", "line_by_line") + """
time.t_end = 0.02
perturb.eps = 1e-3
perturb.r0 = 0.1
"""


@pytest.mark.parametrize("center", ["5.0 5.0", "1.1 0.5", "-0.08 -0.08"])
def test_cli_rejects_a_perturbation_that_misses_the_box(tmp_path, capsys, center):
    path = write_cfg(tmp_path, PERTURB + f"perturb.center = {center}\n")
    assert main(["perturb", path, "--out", str(tmp_path / "out")]) == 3
    assert "perturb.center" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("center", ["1.09 0.5", "-0.07 -0.07"])
def test_cli_runs_a_perturbation_centred_just_outside_the_box(tmp_path, center):
    path = write_cfg(tmp_path, PERTURB + f"perturb.center = {center}\n")
    assert main(["perturb", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("case", ["missing", "malformed", "other_grid", "zero_cells"])
def test_cli_from_file_rejects_an_unusable_dump_and_names_init_path(tmp_path, capsys, case):
    dump = tmp_path / "dump"
    if case != "missing":  # a 4x4 K=2 state: its 9x9 nodes are also a 2x2 K=4 grid's
        assert main(["project", write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4")),
                     "--out", str(dump)]) == 0
    if case == "malformed":
        (dump / "state_v.txt").write_text("4 4 0.0 1.0 0.0 1.0 2\nnot a number\n")
    if case == "zero_cells":
        (dump / "state_u.txt").write_text("0 4 0.0 1.0 0.0 1.0 2\n" + "0 " * 9 + "\n")
    mesh, k = ("2x2", 4) if case == "other_grid" else ("4x4", 2)
    text = (BASE.replace("4x4 8x8", mesh).replace("grid.k = 2", f"grid.k = {k}")
            .replace("init.method = interpolate",
                     f"init.method = from_file\ninit.path = {dump}/state"))
    assert main(["solve", write_cfg(tmp_path, text, name="ff.cfg"),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"init.path = {dump}/state" in err
    if case == "other_grid":
        assert "4x4 K=2" in err and "2x2 K=4" in err
    if case == "zero_cells":
        assert "got 0 x 4 cells" in err


@pytest.mark.parametrize("command", ["solve", "convergence", "project"])
def test_cli_from_file_rejects_a_non_finite_dump(tmp_path, capsys, command):
    dump = tmp_path / "dump"
    assert main(["project", write_cfg(tmp_path, BASE.replace("4x4 8x8", "4x4")),
                 "--out", str(dump)]) == 0
    lines = (dump / "state_p.txt").read_text().splitlines()
    lines[3] = " ".join(["nan"] + lines[3].split()[1:])
    (dump / "state_p.txt").write_text("\n".join(lines) + "\n")
    text = BASE.replace("4x4 8x8", "4x4").replace(
        "init.method = interpolate", f"init.method = from_file\ninit.path = {dump}/state")
    assert main([command, write_cfg(tmp_path, text, name="ff.cfg"),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"init.path = {dump}/state" in err and "state_p.txt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("formulation", ["gf", "standard"])
def test_divergence_series_is_the_written_out_operator(monkeypatch, formulation):
    # (Dx Py) u + (Px Dy) v - (Px Py) S_p, P = E (GF) or M (standard), as the
    # standard formulation once spelled it out
    import gfsem.experiments as experiments
    seen, norm = [], experiments.divergence_norm
    monkeypatch.setattr(experiments, "divergence_norm", lambda st, *args: (
        seen.append((st.copy(), args)) or norm(st, *args)))
    text = (BASE.replace("coriolis_vortex", "mass_source_translating").replace("4x4 8x8", "4x4")
            .replace("formulation = gf", f"formulation = {formulation}"))
    _, _, series, _ = run_single(ExperimentConfig.from_mapping(parse_config_text(text)))
    assert len(series) == len(seen) > 2
    for (_, got), (st, (src_eval, ox, oy, _, weights, minv, t)) in zip(series, seen):
        px, py = (ox.E, oy.E) if formulation == "gf" else (ox.M, oy.M)
        sp = src_eval.forcing(t).sp
        r = (py.apply_y(ox.D.apply_x(st.u.values)) + oy.D.apply_y(px.apply_x(st.v.values))
             - py.apply_y(px.apply_x(sp)))
        assert got == l2_norm(minv * r, weights)


def test_cli_pair_valued_problem_parameter_reaches_the_factory(tmp_path):
    text = (BASE.replace("coriolis_vortex", "mass_source_translating").replace("4x4 8x8", "4x4")
            + "problem.a_vec = -0.2 0.05\n")
    cfg = ExperimentConfig.from_mapping(parse_config_text(text))
    # the source has moved by t * a_vec: the pair is the factory's velocity
    got = cfg.problem.exact(0.6, 0.4, 0.3)
    assert got == mass_source_translating(a_vec=(-0.2, 0.05)).exact(0.6, 0.4, 0.3)
    assert got != mass_source_translating().exact(0.6, 0.4, 0.3)
    out = tmp_path / "out"
    assert main(["solve", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert "problem.a_vec = -0.2 0.05" in (out / "manifest.txt").read_text()


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
        cfg = ExperimentConfig.from_mapping(load_config(os.path.join(cfg_dir, name)))
        if name == "stommel_perturbation.cfg":  # long_run on a steady problem
            assert cfg.init_method == "long_run" and cfg.problem.steady
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


def test_run_single_reads_only_the_state_independent_sources(monkeypatch):
    # the divergence norm reads S_p alone: no S_u, S_v built per sample
    calls, arrays = [], SourceEval.arrays
    monkeypatch.setattr(SourceEval, "arrays", lambda *a, **k: calls.append(1) or arrays(*a, **k))
    _, _, series, _ = run_single(ExperimentConfig.from_mapping(parse_config_text(
        BASE.replace("4x4 8x8", "4x4"))))
    assert len(series) > 1 and calls == []


def test_readme_config_keys_are_declared():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = parse_config_text(block)
    assert "grid.meshes" in keys
    assert [k for k in keys if k not in SCHEMA and not k.startswith("problem.")] == []


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
