"""Experiment orchestration: convergence studies, divergence tracking,
perturbation runs, and deterministic CSV / structured-grid emission."""

from __future__ import annotations

import difflib
import inspect
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from .basis import OperatorSet1D
from .config import ConfigError
from .dec import DeCConfig, Stepper, default_cfl
from .gf import gf_divergence
from .grid import (Field, Grid2D, State, apply_xy, dump_field, l2_norm, load_field,
                   make_grid, quad_weights)
from .problems import (CATALOG, Problem, SourceEval, exact_state, make_problem,
                       pressure_perturbation)
from .schemes import SchemeConfig, default_alpha
from .wellprep import ProjectionReport, line_by_line_projection, optimization_projection

INIT_METHODS = ("interpolate", "line_by_line", "optimize", "long_run", "from_file")
# every config key a run reads, apart from the problem.* factory parameters
KEYS = ("problem.name", "scheme.formulation", "scheme.stabilization", "scheme.alpha", "grid.k",
        "grid.meshes", "time.cfl", "time.t_end", "init.method", "init.lambda", "init.t_settle",
        "init.path", "perturb.eps", "perturb.center", "perturb.r0", "output.dir",
        "output.sample_every")


@dataclass
class ExperimentConfig:
    problem_name: str
    problem_params: dict
    formulation: str
    stabilization: str
    K: int
    meshes: list[tuple[int, int]]
    cfl: float
    alpha: float
    t_end: float
    init_method: str
    init_lambda: float
    init_t_settle: float
    init_path: str
    perturb_eps: float | None
    perturb_center: tuple[float, float]
    perturb_r0: float
    out_dir: str
    sample_every: int
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, cfg: dict) -> "ExperimentConfig":
        for key in cfg:
            if key not in KEYS and not key.startswith("problem."):
                near = difflib.get_close_matches(key, KEYS, n=1)
                hint = f" (did you mean {near[0]!r}?)" if near else ""
                raise ConfigError(f"unknown key {key!r}{hint}; accepted keys are "
                                  f"{', '.join(KEYS)} and problem.*")
        name = cfgmod.get_str(cfg, "problem.name", choices=CATALOG)
        accepted = inspect.signature(CATALOG[name]).parameters
        params = {}
        for key, val in cfg.items():
            if key.startswith("problem.") and key != "problem.name":
                field_name = key.split(".", 1)[1]
                if field_name not in accepted:
                    raise ConfigError(f"{key}: problem {name!r} has no parameter "
                                      f"{field_name!r}; have {sorted(accepted)}")
                try:
                    params[field_name] = float(val)
                except ValueError:
                    raise ConfigError(f"{key} = {val!r} is not a number") from None
        try:
            make_problem(name, **params)
        except (ValueError, TypeError) as exc:
            given = ", ".join(f"problem.{k} = {cfg['problem.' + k]}" for k in params)
            raise ConfigError(f"{given}: rejected by problem {name!r}: {exc}") from None
        K = cfgmod.get_int(cfg, "grid.k")
        if K < 1:
            raise ConfigError(f"grid.k = {cfg['grid.k']!r} must be >= 1")
        stab = cfgmod.get_str(cfg, "scheme.stabilization", choices=("su", "oss"))
        eps = cfgmod.get_float(cfg, "perturb.eps", default=np.nan)
        out = cls(
            problem_name=name,
            problem_params=params,
            formulation=cfgmod.get_str(cfg, "scheme.formulation",
                                       choices=("standard", "gf")),
            stabilization=stab,
            K=K,
            meshes=cfgmod.get_meshes(cfg),
            cfl=cfgmod.get_float(cfg, "time.cfl", default=default_cfl(K)),
            alpha=cfgmod.get_float(cfg, "scheme.alpha", default=default_alpha(stab, K)),
            t_end=cfgmod.get_float(cfg, "time.t_end"),
            init_method=cfgmod.get_str(cfg, "init.method", default="interpolate",
                                       choices=INIT_METHODS),
            init_lambda=cfgmod.get_float(cfg, "init.lambda", default=0.5),
            init_t_settle=cfgmod.get_float(cfg, "init.t_settle", default=10.0),
            init_path=cfgmod.get_str(cfg, "init.path", default=""),
            perturb_eps=None if np.isnan(eps) else eps,
            perturb_center=cfgmod.get_pair(cfg, "perturb.center", default=(0.4, 0.43)),
            perturb_r0=cfgmod.get_float(cfg, "perturb.r0", default=0.1),
            out_dir=cfgmod.get_str(cfg, "output.dir", default="out"),
            sample_every=cfgmod.get_int(cfg, "output.sample_every", default=1),
            raw=dict(cfg),
        )
        for key, val in (("time.cfl", out.cfl), ("time.t_end", out.t_end),
                         ("output.sample_every", out.sample_every)):
            if not (0 < val < np.inf):
                raise ConfigError(f"{key} = {cfg.get(key, val)!r} must be positive and finite")
        if not (0 <= out.alpha < np.inf):
            raise ConfigError(f"scheme.alpha = {cfg['scheme.alpha']!r} must be >= 0 and finite")
        return out

    def problem(self) -> Problem:
        return make_problem(self.problem_name, **self.problem_params)

    def scheme(self, grid: Grid2D) -> SchemeConfig:
        return SchemeConfig(self.formulation, self.stabilization, self.alpha, grid.h)


def build_case(cfg: ExperimentConfig, mesh: tuple[int, int]):
    problem = cfg.problem()
    grid, ops_x, ops_y = make_grid(mesh[0], mesh[1], cfg.K, box=problem.box,
                                   periodic=problem.bc == "periodic")
    scheme = cfg.scheme(grid)
    stepper = Stepper(problem, grid, ops_x, ops_y, scheme,
                      DeCConfig.for_degree(cfg.K, cfl=cfg.cfl))
    return problem, grid, ops_x, ops_y, stepper


def initial_state(cfg: ExperimentConfig, problem: Problem, grid: Grid2D,
                  ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                  stepper: Stepper) -> tuple[State, ProjectionReport | None]:
    """The initial state and, for the two projections, their report (else None)."""
    method = cfg.init_method
    if method == "line_by_line":
        return line_by_line_projection(problem, grid, ops_x, ops_y, lam=cfg.init_lambda)
    if method == "optimize":
        return optimization_projection(problem, grid, ops_x, ops_y, lam=cfg.init_lambda)
    if method == "interpolate":
        return exact_state(problem, grid, 0.0), None
    if method == "long_run":
        st = exact_state(problem, grid, 0.0)
        return (stepper.run(st, cfg.init_t_settle)[0] if cfg.init_t_settle > 0 else st), None
    if method == "from_file":
        if not cfg.init_path:
            raise ConfigError("init.method = from_file needs init.path")
        fields = {}
        for comp in ("u", "v", "p"):
            f = load_field(f"{cfg.init_path}_{comp}.txt")
            if f.grid.shape != grid.shape:
                raise ConfigError(
                    f"from_file state {f.grid.shape} does not match grid {grid.shape}")
            fields[comp] = Field(grid, f.values)
        return State(fields["u"], fields["v"], fields["p"]), None
    raise ConfigError(f"unknown init method {method!r}")


def divergence_norm(state: State, src_eval: SourceEval, ops_x, ops_y,
                    formulation: str, weights: np.ndarray, minv: np.ndarray,
                    t: float = 0.0) -> float:
    """Consistent (mass-scaled) divergence-minus-source residual, L2 with the
    domain boundary ring excluded."""
    src = src_eval.arrays(state, t)
    if formulation == "gf":
        r = gf_divergence(state, src, ops_x, ops_y)
    else:
        r = (apply_xy(ops_x.D, ops_y.M, state.u.values)
             + apply_xy(ops_x.M, ops_y.D, state.v.values)
             - apply_xy(ops_x.M, ops_y.M, src.sp))
    return l2_norm(minv * r, weights)


# --- convergence -------------------------------------------------------------

@dataclass
class ConvergenceRow:
    N: int
    err_u: float
    err_v: float
    err_p: float
    max_u: float
    max_v: float
    max_p: float
    ord_u: float = np.nan
    ord_v: float = np.nan
    ord_p: float = np.nan
    blown: bool = False
    steps: int = 0
    residual_evals: int = 0


def _converge_one(cfg: ExperimentConfig, mesh: tuple[int, int]) -> ConvergenceRow:
    from .dec import BlowUpError
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, mesh)
    state, _ = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    try:
        out, t = stepper.run(state, cfg.t_end)
    except BlowUpError:
        nan = float("nan")
        return ConvergenceRow(N=mesh[0], err_u=nan, err_v=nan, err_p=nan,
                              max_u=nan, max_v=nan, max_p=nan, blown=True,
                              steps=stepper.steps, residual_evals=stepper.residual_evals)
    w = quad_weights(grid, ops_x, ops_y)
    X, Y = grid.meshgrid()
    ue, ve, pe = problem.exact(X, Y, t)
    return ConvergenceRow(
        N=mesh[0],
        err_u=l2_norm(out.u.values - ue, w),
        err_v=l2_norm(out.v.values - ve, w),
        err_p=l2_norm(out.p.values - pe, w),
        max_u=float(np.abs(out.u.values - ue).max()),
        max_v=float(np.abs(out.v.values - ve).max()),
        max_p=float(np.abs(out.p.values - pe).max()),
        steps=stepper.steps, residual_evals=stepper.residual_evals,
    )


def _converge_one_dict(args) -> ConvergenceRow:
    cfg_map, mesh = args
    cfg = ExperimentConfig.from_mapping(cfg_map)
    return _converge_one(cfg, mesh)


def run_convergence(cfg: ExperimentConfig, threads: int = 1) -> list[ConvergenceRow]:
    if cfg.problem().exact is None:
        raise ConfigError("convergence study needs a problem with an exact solution")
    rows: list[ConvergenceRow] = []
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_converge_one_dict,
                                 [(cfg.raw, m) for m in cfg.meshes]))
    else:
        rows = [_converge_one(cfg, mesh) for mesh in cfg.meshes]
    with np.errstate(invalid="ignore", divide="ignore"):
        for prev, cur in zip(rows, rows[1:]):
            ratio = np.log(cur.N / prev.N)
            cur.ord_u = float(np.log(prev.err_u / cur.err_u) / ratio)
            cur.ord_v = float(np.log(prev.err_v / cur.err_v) / ratio)
            cur.ord_p = float(np.log(prev.err_p / cur.err_p) / ratio)
    return rows


# --- single run with divergence tracking -------------------------------------

def run_single(cfg: ExperimentConfig):
    """Evolve the first mesh to t_end, tracking the divergence norm per step."""
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, cfg.meshes[0])
    state, _ = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    w_ex = quad_weights(grid, ops_x, ops_y, exclude_boundary=True)
    series: list[tuple[float, float]] = []

    def track(step, t, st):
        series.append((t, divergence_norm(st, stepper.sources, stepper.ops_x, stepper.ops_y,
                                          cfg.formulation, w_ex, stepper.minv, t)))

    out, t = stepper.run(state, cfg.t_end, callback=track,
                         callback_every=cfg.sample_every)
    return out, t, series, stepper


# --- perturbation ------------------------------------------------------------

def run_perturbation(cfg: ExperimentConfig, out_dir: str):
    """Perturb a prepared equilibrium and dump velocity-difference snapshots."""
    if cfg.init_method not in ("optimize", "line_by_line", "long_run"):
        raise ConfigError("perturbation runs need a discrete-equilibrium initializer "
                          "(optimize | line_by_line | long_run)")
    if cfg.perturb_eps is None:
        raise ConfigError("perturbation run needs perturb.eps")
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, cfg.meshes[0])
    eq, _ = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    ueq, veq = eq.u.values.copy(), eq.v.values.copy()

    delta = pressure_perturbation(cfg.perturb_eps, cfg.perturb_center, cfg.perturb_r0)
    X, Y = grid.meshgrid()
    state = eq.copy()
    state.p.values += delta(X, Y)

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def snap(step, t, st):
        diff = np.hypot(st.u.values - ueq, st.v.values - veq)
        path = os.path.join(out_dir, f"vel_diff_{step:06d}.txt")
        dump_field(Field(grid, diff), path)
        written.append((step, t, path))

    out, t = stepper.run(state, cfg.t_end, callback=snap,
                         callback_every=cfg.sample_every)
    return out, t, written, stepper


# --- output emission ----------------------------------------------------------

def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "nan"
    return f"{float(v):.17g}"


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, rows


def convergence_csv(rows: list[ConvergenceRow], path) -> None:
    write_csv(path,
              ["N", "err_u", "err_v", "err_p", "ord_u", "ord_v", "ord_p",
               "max_u", "max_v", "max_p", "blown"],
              [(r.N, r.err_u, r.err_v, r.err_p, r.ord_u, r.ord_v, r.ord_p,
                r.max_u, r.max_v, r.max_p, int(r.blown)) for r in rows])


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_manifest(path, cfg: ExperimentConfig, wall_seconds: float,
                   extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write("# run manifest\n")
        for key in sorted(cfg.raw):
            fh.write(f"{key} = {cfg.raw[key]}\n")
        fh.write(f"git = {_git_describe()}\n")
        fh.write(f"wall_seconds = {wall_seconds:.3f}\n")
        for key, val in (extra or {}).items():
            fh.write(f"{key} = {val}\n")


def ensure_out_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {path!r} is not writable: {exc}") from exc
    return path
