"""The benchmark's workloads: which CLI command each one runs, and the config
it runs on, drawn from the seed.

This module uses the standard library only. `run.py` builds the config here
and hands the program nothing but the written config file, so the program
never sees the seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

PERTURB_CONFIG = os.path.join("configs", "vortex_perturbation.cfg")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # gfsem solve | convergence | perturb
    fixed: dict                       # config keys that do not depend on the seed
    draw: Callable[[random.Random], dict]
    base_file: str = ""               # shipped config the keys are appended to

    def inputs(self, seed: int) -> dict:
        """The physical inputs drawn from `seed`; the same seed, the same inputs."""
        return self.draw(random.Random(f"{self.name}:{seed}"))

    def config_text(self, root: str, drawn: dict) -> str:
        """Config file contents: the shipped file (if any) verbatim, then the
        fixed keys, then the drawn keys. A later key overrides an earlier one."""
        parts = []
        if self.base_file:
            with open(os.path.join(root, self.base_file)) as fh:
                parts.append(fh.read().rstrip("\n"))
        lines = [f"{k} = {_fmt(v)}" for k, v in {**self.fixed, **drawn}.items()]
        parts.append("# set by the benchmark\n" + "\n".join(lines))
        return "\n".join(parts) + "\n"


def _fmt(v) -> str:
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _draw_stationary(rng: random.Random) -> dict:
    return {"problem.c": rng.uniform(0.15, 0.25),
            "problem.p0": rng.uniform(0.5, 1.5)}


def _draw_translating(rng: random.Random) -> dict:
    return {"problem.b": rng.uniform(5e-4, 2e-3),
            "problem.p0": rng.uniform(0.5, 1.5)}


def _draw_perturb(rng: random.Random) -> dict:
    return {"perturb.eps": rng.uniform(5e-3, 2e-2),
            "perturb.center": (rng.uniform(0.35, 0.45), rng.uniform(0.38, 0.48))}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="stationary_vortex_gf_su_k2",
        why="GF+SU vortex at K=2 on 80x80 from line-by-line data: prefix "
            "integration, SU space/time terms and DeC sweeps on an autonomous problem",
        command="solve",
        fixed={"problem.name": "coriolis_vortex",
               "scheme.formulation": "gf", "scheme.stabilization": "su",
               "grid.k": 2, "grid.meshes": "80x80",
               "time.t_end": 0.1, "time.cfl": 0.1,
               "init.method": "line_by_line", "output.sample_every": 5},
        draw=_draw_stationary,
    ),
    Workload(
        name="translating_std_oss_k4",
        why="standard+OSS translating mass source at K=4 on 20x20 then 40x40: "
            "time-dependent S_p, Dirichlet pinning, Z operator, 16 residuals per step",
        command="convergence",
        fixed={"problem.name": "mass_source_translating",
               "scheme.formulation": "standard", "scheme.stabilization": "oss",
               "grid.k": 4, "grid.meshes": "20x20 40x40",
               "time.t_end": 0.1, "init.method": "interpolate"},
        draw=_draw_translating,
    ),
    Workload(
        name="perturb_optimize_k3",
        why="shipped vortex_perturbation.cfg (13x13, K=3): dense KKT projection "
            "dominates set-up and memory; small-mesh steps and snapshot dumps",
        command="perturb",
        fixed={},
        draw=_draw_perturb,
        base_file=PERTURB_CONFIG,
    ),
)}
