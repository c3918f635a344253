"""The gfsem benchmark: run one workload for a fixed time and report metrics.

    python3 gfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from `src/`.
Each operation is one execution of the workload in a fresh Python process
(`child.py`), one at a time, with OpenBLAS/OpenMP pinned to one thread.
Operations start until `--seconds` have passed; every run therefore attempts
whole workload executions.

`--trace 0` reports the end-to-end metrics, medians over the run's
operations. `--trace 1` alternates untraced and traced operations and
reports the per-layer metrics of the traced ones, plus `trace.overhead_s`.
The last line of standard output is one JSON object; progress goes to
standard error. Outputs and traces are kept under `.gfbench-runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import METRICS as PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS_DIR = ".gfbench-runs"
CHILD_TIMEOUT_S = 120
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "node_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(root: str, inputs_path: str, out_dir: str, trace_out: str = "") -> dict:
    """One workload execution in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--inputs", inputs_path,
           "--out", out_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t_spawn = clock()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up(root: str) -> None:
    """Import gfsem once, untimed, so bytecode and the page cache are warm."""
    proc = subprocess.run([sys.executable, "-c", "import gfsem.cli"], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"cannot import gfsem from {root}/src")


def failed(res: dict) -> bool:
    return res["status"] != "ok" or not all(c["ok"] for c in res.get("checks", []))


def end_to_end(results: list[dict]) -> dict:
    ok = [r for r in results if r["status"] == "ok"]
    values = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
        "node_steps_per_s": [r["node_steps"] / r["run_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    return {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
            for name, v in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    ok = [r for r in traced if r["status"] == "ok"]
    values = {name: statistics.median(r["layers"][name] for r in ok)
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in ok)
                                  - end_to_end(untraced)["wall_s"]["value"])
    return {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}


def log_op(i: int, res: dict, traced: bool) -> None:
    bad = [c for c in res.get("checks", []) if not c["ok"]]
    msg = (f"op {i}{' traced' if traced else ''}: {res['status']}, "
           f"wall {res['wall_s']:.3f} s, setup {res['setup_s'] or float('nan'):.3f} s, "
           f"{res['steps']} steps, peak {res['peak_rss_mb']:.1f} MB")
    if bad:
        msg += "; FAILED " + ", ".join(f"{c['name']}={c['value']} ({c['limit']})"
                                       for c in bad)
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gfsem", "__init__.py")):
        print(f"no gfsem sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(root, RUNS_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}"
                                           f"-{os.getpid()}")
    os.makedirs(run_dir)
    drawn = wl.inputs(args.seed)
    config = os.path.join(run_dir, "workload.cfg")
    with open(config, "w") as fh:
        fh.write(wl.config_text(root, drawn))
    inputs = os.path.join(run_dir, "inputs.json")
    with open(inputs, "w") as fh:
        json.dump({"workload": wl.name, "command": wl.command, "config": config,
                   "fixed": wl.fixed, "drawn": drawn, "seed": args.seed}, fh, indent=1)

    try:
        warm_up(root)
        untraced, traced = [], []
        start = clock()
        i = 0
        while not untraced or clock() - start < args.seconds:
            for trace in ((False, True) if args.trace else (False,)):
                out_dir = os.path.join(run_dir, f"op{i}")
                spans = os.path.join(run_dir, f"spans-op{i}.json") if trace else ""
                res = run_child(root, inputs, out_dir, spans)
                log_op(i, res, trace)
                (traced if trace else untraced).append(res)
                if i > 0:   # keep the newest outputs only
                    shutil.rmtree(os.path.join(run_dir, f"op{i - 1}"), ignore_errors=True)
                i += 1
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    results = untraced + traced
    n_failed = sum(failed(r) for r in results)
    if not any(r["status"] == "ok" for r in untraced) or (
            args.trace and not any(r["status"] == "ok" for r in traced)):
        print("benchmark aborted: no operation completed", file=sys.stderr)
        return 1
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    summary = {"correct": not any(
                   not c["ok"] for r in results for c in r.get("checks", [])),
               "attempted": len(results), "failed": n_failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"summary": summary, "operations": results}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
