"""Experiment orchestration: convergence studies, divergence tracking,
perturbation runs, and deterministic CSV / structured-grid emission."""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorSet1D
from .config import ConfigError, meshes, pair, parse
from .dec import LANDING_TOL, BlowUpError, DeCConfig, Stepper, default_cfl
from .gf import gf_divergence
from .grid import (Field, Grid2D, State, dump_field, l2_norm, load_field, make_grid,
                   quad_weights)
from .problems import (CATALOG, Problem, SourceEval, exact_state, make_problem,
                       pressure_perturbation)
from .schemes import SchemeConfig, default_alpha
from .wellprep import ProjectionReport, line_by_line_projection, optimization_projection

# Ranges (description, test). A run steps from t = 0, where Stepper.run takes
# a horizon only above LANDING_TOL.
FINITE = ("finite", np.isfinite)
POSITIVE = ("positive and finite", lambda v: 0 < v < np.inf)
NONNEGATIVE = (">= 0 and finite", lambda v: 0 <= v < np.inf)
HORIZON = (f"above {LANDING_TOL:g} and finite", lambda v: LANDING_TOL < v < np.inf)

# Every config key but the problem.* factory parameters (each FINITE): key ->
# (ExperimentConfig field, parser or tuple of choices, default, range). A default
# of None marks a required key; a callable one is worked out from earlier fields.
SCHEMA = {
    "problem.name": ("problem_name", tuple(CATALOG), None, None),
    "scheme.formulation": ("formulation", ("standard", "gf"), None, None),
    "scheme.stabilization": ("stabilization", ("su", "oss"), None, None),
    "grid.k": ("K", int, None, POSITIVE),
    "grid.meshes": ("meshes", meshes, None, ("positive cell counts", lambda m: min(m) > 0)),
    "scheme.alpha": ("alpha", float, lambda f: default_alpha(f["stabilization"], f["K"]),
                     NONNEGATIVE),
    "time.cfl": ("cfl", float, lambda f: default_cfl(f["K"]), POSITIVE),
    "time.t_end": ("t_end", float, None, HORIZON),
    "init.method": ("init_method", ("interpolate", "line_by_line", "optimize", "long_run",
                                    "from_file"), "interpolate", None),
    "init.lambda": ("init_lambda", float, 0.5, FINITE),
    "init.t_settle": ("init_t_settle", float, 10.0,  # 0: no settle
                      ("0 or " + HORIZON[0], lambda v: v == 0 or HORIZON[1](v))),
    "init.path": ("init_path", str, "", None),
    "perturb.eps": ("perturb_eps", float, lambda f: None, FINITE),
    "perturb.center": ("perturb_center", pair, (0.4, 0.43), FINITE),
    "perturb.r0": ("perturb_r0", float, 0.1, POSITIVE),
    "output.dir": ("out_dir", str, "out", None),
    "output.sample_every": ("sample_every", int, 1, POSITIVE),
}


@dataclass
class ExperimentConfig:
    problem: Problem  # built and self-checked once, from problem.name and problem.*
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
            if key not in SCHEMA and not key.startswith("problem."):
                import difflib  # loaded on a config error only
                near = difflib.get_close_matches(key, SCHEMA, n=1)
                hint = f" (did you mean {near[0]!r}?)" if near else ""
                raise ConfigError(f"unknown key {key!r}{hint}; accepted keys are "
                                  f"{', '.join(SCHEMA)} and problem.*")
        fields = {}
        for key, (attr, parser, default, within) in SCHEMA.items():
            fields[attr] = (parse(cfg, key, parser, within) if key in cfg or default is None
                            else default(fields) if callable(default) else default)
        if fields["init_method"] == "from_file" and not fields["init_path"]:
            raise ConfigError("init.method = from_file needs init.path")
        name = fields.pop("problem_name")
        accepted = inspect.signature(CATALOG[name]).parameters
        params = {}
        for key in cfg:
            if key.startswith("problem.") and key != "problem.name":
                field_name = key.split(".", 1)[1]
                if field_name not in accepted:
                    raise ConfigError(f"{key}: problem {name!r} has no parameter "
                                      f"{field_name!r}; have {sorted(accepted)}")
                # a parameter whose factory default is a tuple takes a pair
                paired = isinstance(accepted[field_name].default, tuple)
                params[field_name] = parse(cfg, key, pair if paired else float, FINITE)
        try:
            problem = make_problem(name, **params)
        except (ValueError, TypeError) as exc:
            given = ", ".join(f"problem.{k} = {cfg['problem.' + k]}" for k in params)
            raise ConfigError(f"{given}: rejected by problem {name!r}: {exc}") from None
        method = fields["init_method"]
        if method in ("line_by_line", "optimize", "long_run") and not problem.steady:
            raise ConfigError(f"init.method = {method} prepares an equilibrium, from which "
                              f"the run starts at t = 0; problem {name!r} is not steady")
        return cls(problem=problem, raw=dict(cfg), **fields)

    def scheme(self, grid: Grid2D) -> SchemeConfig:
        return SchemeConfig(self.formulation, self.stabilization, self.alpha, grid.h)


def build_case(cfg: ExperimentConfig, mesh: tuple[int, int]):
    problem = cfg.problem
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
        rows = []
        for comp in ("u", "v", "p"):
            path = f"{cfg.init_path}_{comp}.txt"
            try:
                f = load_field(path)
            except (OSError, ValueError, IndexError, ArithmeticError) as exc:
                raise ConfigError(f"init.path = {cfg.init_path}: cannot read {path}: "
                                  f"{exc}") from None
            g = f.grid
            if (g.Nx, g.Ny, g.K, g.box) != (grid.Nx, grid.Ny, grid.K, grid.box):
                raise ConfigError(
                    f"init.path = {cfg.init_path}: {path} holds a {g.Nx}x{g.Ny} K={g.K} "
                    f"dump on box {g.box}; the run has {grid.Nx}x{grid.Ny} K={grid.K} "
                    f"on box {grid.box}")
            if not np.isfinite(f.values).all():
                raise ConfigError(f"init.path = {cfg.init_path}: {path} holds a non-finite "
                                  "value")
            rows.append(f.values)
        return State(grid, np.stack(rows)), None
    raise ConfigError(f"unknown init method {method!r}")


def divergence_norm(state: State, src_eval: SourceEval, ops_x, ops_y,
                    formulation: str, weights: np.ndarray, minv: np.ndarray,
                    t: float = 0.0) -> float:
    """Consistent (mass-scaled) divergence-minus-source residual, L2 with the
    domain boundary ring excluded."""
    r = gf_divergence(state, src_eval.forcing(t), ops_x, ops_y,  # reads S_p alone
                      "E" if formulation == "gf" else "M")
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
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, mesh)
    state, _ = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    try:
        out, t = stepper.run(state, cfg.t_end)
    except BlowUpError:
        nan = float("nan")
        return ConvergenceRow(N=mesh[0], err_u=nan, err_v=nan, err_p=nan,
                              max_u=nan, max_v=nan, max_p=nan, blown=True,
                              steps=stepper.steps, residual_evals=stepper.residual_evals)
    del stepper.work  # free the DeC workspace before the error arrays are made
    w, diff, errs = quad_weights(grid, ops_x, ops_y), np.empty(grid.shape), {}
    # the exact solution on the open grid, each component's error in one buffer
    for c, q, qe in zip("uvp", out.arrays(),
                        problem.exact(grid.xline[:, None], grid.yline[None, :], t)):
        errs[f"err_{c}"] = l2_norm(np.subtract(q, qe, out=diff), w)
        errs[f"max_{c}"] = float(np.abs(diff, out=diff).max())
    return ConvergenceRow(N=mesh[0], **errs, steps=stepper.steps,
                          residual_evals=stepper.residual_evals)


def _converge_one_dict(args) -> ConvergenceRow:
    cfg_map, mesh = args
    cfg = ExperimentConfig.from_mapping(cfg_map)
    return _converge_one(cfg, mesh)


def run_convergence(cfg: ExperimentConfig, threads: int = 1) -> list[ConvergenceRow]:
    if cfg.problem.exact is None:
        raise ConfigError("convergence study needs a problem with an exact solution")
    rows: list[ConvergenceRow] = []
    if threads > 1:  # the pool forks all its workers at the first submit: one per mesh
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, len(cfg.meshes))) as pool:
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
    """Perturb a prepared equilibrium and dump velocity-difference snapshots into
    out_dir, which exists; cfg has an equilibrium initializer and perturb.eps
    (the CLI checks all three)."""
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, cfg.meshes[0])
    eq, _ = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    ueq, veq = eq.u.values.copy(), eq.v.values.copy()

    delta = pressure_perturbation(cfg.perturb_eps, cfg.perturb_center, cfg.perturb_r0)
    X, Y = grid.meshgrid()
    state = eq.copy()
    state.p.values += delta(X, Y)
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


def convergence_csv(rows: list[ConvergenceRow], path) -> None:
    write_csv(path,
              ["N", "err_u", "err_v", "err_p", "ord_u", "ord_v", "ord_p",
               "max_u", "max_v", "max_p", "blown"],
              [(r.N, r.err_u, r.err_v, r.err_p, r.ord_u, r.ord_v, r.ord_p,
                r.max_u, r.max_v, r.max_p, int(r.blown)) for r in rows])


def _git_describe() -> str:
    import subprocess  # loaded when a manifest is written only
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
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
