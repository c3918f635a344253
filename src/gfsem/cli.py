"""Command-line benchmark driver.

    gfsem solve CONFIG        one run on the first mesh; state dumps + series
    gfsem convergence CONFIG  mesh-refinement study; convergence CSV
    gfsem perturb CONFIG      perturbed-equilibrium run; snapshot dumps
    gfsem project CONFIG      initializer only; dumps the projected state

`main` loads the config, times the command and then writes `manifest.txt` once,
with `command` and the command's own fields; a command that raises writes none.

Exit codes: 0 success, 2 blow-up, 3 configuration error or malformed command line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .config import ConfigError, load_config
from .dec import BlowUpError
from .experiments import (EQUILIBRIA, ExperimentConfig, build_case, convergence_csv,
                          ensure_out_dir, initial_state, run_convergence,
                          run_perturbation, run_single, write_csv, write_manifest)
from .grid import dump_field
from .wellprep import projection_residual

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3


def _load(args) -> tuple[ExperimentConfig, str]:
    cfg = ExperimentConfig.from_mapping(load_config(args.config))
    if args.command == "perturb":  # checked before the output directory is made
        if cfg.init_method not in EQUILIBRIA:
            raise ConfigError(f"init.method = {cfg.init_method}: perturbation runs need an "
                              f"equilibrium initializer ({' | '.join(EQUILIBRIA)})")
        if cfg.perturb_eps is None:
            raise ConfigError("perturbation run needs perturb.eps")
        (cx, cy), (x0, xe, y0, ye) = cfg.perturb_center, cfg.problem.box
        if max(x0 - cx, 0, cx - xe) ** 2 + max(y0 - cy, 0, cy - ye) ** 2 >= cfg.perturb_r0 ** 2:
            raise ConfigError(f"perturb.center = {cx:g} {cy:g}: the bump of radius perturb.r0 = "
                              f"{cfg.perturb_r0:g} misses the box {(x0, xe, y0, ye)}")
    if args.command == "convergence":  # an order compares meshes of one shape
        for (nx, ny), (mx, my) in zip(cfg.meshes, cfg.meshes[1:]):
            if nx * my != mx * ny or nx == mx:
                raise ConfigError(f"grid.meshes = {cfg.raw['grid.meshes']}: {mx}x{my} does "
                                  f"not scale {nx}x{ny} by one ratio != 1 in x and y")
        if cfg.init_method == "from_file" and len(cfg.meshes) > 1:
            raise ConfigError(f"init.path = {cfg.init_path}: a dump holds one grid; "
                              f"grid.meshes = {cfg.raw['grid.meshes']} has several")
    out_dir = ensure_out_dir(args.out or cfg.out_dir)
    return cfg, out_dir


def _dump_state(state, out_dir: str, prefix: str) -> None:
    for comp, f in (("u", state.u), ("v", state.v), ("p", state.p)):
        dump_field(f, os.path.join(out_dir, f"{prefix}_{comp}.txt"))


def cmd_solve(cfg, out_dir) -> tuple[int, dict]:
    state, t, series, stepper = run_single(cfg)
    write_csv(os.path.join(out_dir, "divergence.csv"), ["t", "div_norm"], series)
    _dump_state(state, out_dir, "final")
    print(f"solve: t = {t:g}, final divergence norm = {series[-1][1]:.6e}")
    return EXIT_OK, {"final_time": t, "steps": stepper.steps,
                     "residual_evals": stepper.residual_evals}


def cmd_convergence(cfg, out_dir) -> tuple[int, dict]:
    rows = run_convergence(cfg)
    convergence_csv(rows, os.path.join(out_dir, "convergence.csv"))
    for r in rows:
        flag = "  BLOWN UP" if r.blown else ""
        print(f"N={r.N:4d}  err_u={r.err_u:.6e}  err_p={r.err_p:.6e}  "
              f"ord_u={r.ord_u:5.2f}  ord_p={r.ord_p:5.2f}{flag}")
    return (EXIT_BLOWUP if any(r.blown for r in rows) else EXIT_OK,
            {"steps": sum(r.steps for r in rows),
             "residual_evals": sum(r.residual_evals for r in rows)})


def cmd_perturb(cfg, out_dir) -> tuple[int, dict]:
    state, t, snaps, stepper = run_perturbation(cfg, out_dir)
    print(f"perturb: {len(snaps)} snapshots to {out_dir}")
    return EXIT_OK, {"snapshots": len(snaps), "final_time": t, "steps": stepper.steps,
                     "residual_evals": stepper.residual_evals}


def cmd_project(cfg, out_dir) -> tuple[int, dict]:
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, cfg.meshes[0])
    state, report = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    _dump_state(state, out_dir, "state")
    if report is None:
        return EXIT_OK, {}
    res = projection_residual(problem, grid, ops_x, ops_y, state,
                              stabilization=cfg.stabilization, alpha=cfg.alpha)
    print(f"project[{report.method}]: kernel residual {report.kernel_residual:.3e}, "
          f"scheme residual {res:.3e}, deviation {report.deviation_l2:.3e}")
    return EXIT_OK, {"kernel_residual": f"{report.kernel_residual:.6e}",
                     "scheme_residual": f"{res:.6e}",
                     "deviation_l2": f"{report.deviation_l2:.6e}",
                     "rank_deficiency": report.rank_deficiency}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's code 2 is EXIT_BLOWUP here
        self.exit(EXIT_CONFIG, f"{self.format_usage()}{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="gfsem", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("convergence", cmd_convergence),
                     ("perturb", cmd_perturb), ("project", cmd_project)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory override")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a malformed command line (EXIT_CONFIG)
        return exc.code
    try:
        cfg, out_dir = _load(args)
        tic = time.time()
        code, fields = args.fn(cfg, out_dir)
        write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, time.time() - tic,
                       extra={"command": args.command, **fields})
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
