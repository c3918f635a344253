"""Command-line benchmark driver.

    gfsem solve CONFIG        one run on the first mesh; state dumps + series
    gfsem convergence CONFIG  mesh-refinement study; convergence CSV
    gfsem perturb CONFIG      perturbed-equilibrium run; snapshot dumps
    gfsem project CONFIG      initializer only; dumps the projected state

Exit codes: 0 success, 2 blow-up, 3 configuration error or malformed command line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .config import ConfigError, load_config
from .dec import BlowUpError
from .experiments import (ExperimentConfig, build_case, convergence_csv,
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
        if cfg.init_method not in ("optimize", "line_by_line", "long_run"):
            raise ConfigError(f"init.method = {cfg.init_method}: perturbation runs need an "
                              "equilibrium initializer (optimize | line_by_line | long_run)")
        if cfg.perturb_eps is None:
            raise ConfigError("perturbation run needs perturb.eps")
        (cx, cy), (x0, xe, y0, ye) = cfg.perturb_center, cfg.problem.box
        if max(x0 - cx, 0, cx - xe) ** 2 + max(y0 - cy, 0, cy - ye) ** 2 >= cfg.perturb_r0 ** 2:
            raise ConfigError(f"perturb.center = {cx:g} {cy:g}: the bump of radius perturb.r0 = "
                              f"{cfg.perturb_r0:g} misses the box {(x0, xe, y0, ye)}")
    out_dir = ensure_out_dir(args.out or cfg.out_dir)
    return cfg, out_dir


def cmd_solve(args) -> int:
    cfg, out_dir = _load(args)
    tic = time.time()
    state, t, series, stepper = run_single(cfg)
    write_csv(os.path.join(out_dir, "divergence.csv"), ["t", "div_norm"], series)
    for comp, f in (("u", state.u), ("v", state.v), ("p", state.p)):
        dump_field(f, os.path.join(out_dir, f"final_{comp}.txt"))
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, time.time() - tic,
                   extra={"final_time": t, "command": "solve",
                          "steps": stepper.steps,
                          "residual_evals": stepper.residual_evals})
    print(f"solve: t = {t:g}, final divergence norm = {series[-1][1]:.6e}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg, out_dir = _load(args)
    tic = time.time()
    rows = run_convergence(cfg, threads=args.threads)
    convergence_csv(rows, os.path.join(out_dir, "convergence.csv"))
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, time.time() - tic,
                   extra={"command": "convergence",
                          "steps": sum(r.steps for r in rows),
                          "residual_evals": sum(r.residual_evals for r in rows)})
    for r in rows:
        flag = "  BLOWN UP" if r.blown else ""
        print(f"N={r.N:4d}  err_u={r.err_u:.6e}  err_p={r.err_p:.6e}  "
              f"ord_u={r.ord_u:5.2f}  ord_p={r.ord_p:5.2f}{flag}")
    if any(r.blown for r in rows):
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_perturb(args) -> int:
    cfg, out_dir = _load(args)
    tic = time.time()
    state, t, snaps, stepper = run_perturbation(cfg, out_dir)
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, time.time() - tic,
                   extra={"command": "perturb", "snapshots": len(snaps),
                          "final_time": t,
                          "steps": stepper.steps,
                          "residual_evals": stepper.residual_evals})
    print(f"perturb: {len(snaps)} snapshots to {out_dir}")
    return EXIT_OK


def cmd_project(args) -> int:
    cfg, out_dir = _load(args)
    tic = time.time()
    problem, grid, ops_x, ops_y, stepper = build_case(cfg, cfg.meshes[0])
    state, report = initial_state(cfg, problem, grid, ops_x, ops_y, stepper)
    for comp, f in (("u", state.u), ("v", state.v), ("p", state.p)):
        dump_field(f, os.path.join(out_dir, f"state_{comp}.txt"))
    extra = {"command": "project"}
    if report is not None:
        res = projection_residual(problem, grid, ops_x, ops_y, state,
                                  stabilization=cfg.stabilization, alpha=cfg.alpha)
        extra.update({"kernel_residual": f"{report.kernel_residual:.6e}",
                      "scheme_residual": f"{res:.6e}",
                      "deviation_l2": f"{report.deviation_l2:.6e}",
                      "rank_deficiency": report.rank_deficiency})
        print(f"project[{report.method}]: kernel residual {report.kernel_residual:.3e}, "
              f"scheme residual {res:.3e}, deviation {report.deviation_l2:.3e}")
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, time.time() - tic,
                   extra=extra)
    return EXIT_OK


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
        p.add_argument("--threads", type=int, default=1,
                       help="convergence: worker processes, at most one per mesh")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a malformed command line (EXIT_CONFIG)
        return exc.code
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads = {args.threads} must be >= 1")
        if args.threads > 1 and args.command != "convergence":
            raise ConfigError(f"--threads = {args.threads}: only convergence runs its "
                              f"meshes in parallel; {args.command} runs one mesh")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
