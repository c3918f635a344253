"""One workload execution in a fresh interpreter.

    python3 gfbench/child.py --inputs INPUTS.json --out DIR --t-spawn T
                             [--trace-out SPANS.json]

INPUTS.json names the workload, the gfsem command and the config file that
`run.py` wrote for it.

`--t-spawn` is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so every time reported here counts interpreter start.
The workload runs through `gfsem.cli.main`, exactly as `gfsem solve|
convergence|perturb` would. The last line of standard output is one JSON
object; the correctness checks run after the wall clock has stopped.

Exit codes: 0 a result was printed; 10 `gfsem` could not be imported from
the checkout, so no workload ran.
"""

import argparse
import json
import os
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """The few facts the end-to-end metrics and the checks need, taken from
    wrappers around `Stepper.run`, `Stepper.step` and the residual call."""

    def __init__(self):
        self.t_ready = None
        self.steps = 0
        self.residual_calls = 0
        self.runs = []          # one dict per Stepper.run call
        self.projections = []   # (state, report) per optimization_projection

    def install(self, replace_everywhere) -> None:
        rec = self

        def wrap_run(orig):
            def run(stepper, state, T, *args, **kwargs):
                if rec.t_ready is None:
                    rec.t_ready = clock()
                steps0 = rec.steps
                t0 = clock()
                out = orig(stepper, state, T, *args, **kwargs)
                rec.runs.append({"seconds": clock() - t0, "steps": rec.steps - steps0,
                                 "nodes": state.u.values.size, "q0": state, "out": out})
                return out
            return run

        def wrap_step(orig):
            def step(*args, **kwargs):
                rec.steps += 1
                return orig(*args, **kwargs)
            return step

        def wrap_residual(orig):
            def residual(*args, **kwargs):
                rec.residual_calls += 1
                return orig(*args, **kwargs)
            return residual

        def wrap_projection(orig):
            def projection(*args, **kwargs):
                out = orig(*args, **kwargs)
                rec.projections.append(out)
                return out
            return projection

        replace_everywhere("gfsem.dec", "Stepper.run", wrap_run)
        replace_everywhere("gfsem.dec", "Stepper.step", wrap_step)
        # only the stepper reaches the residual through the dec module's name
        import gfsem.dec
        gfsem.dec.spatial_residual = wrap_residual(gfsem.dec.spatial_residual)
        replace_everywhere("gfsem.wellprep", "optimization_projection", wrap_projection)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args()
    t_spawn = args.t_spawn

    root = os.getcwd()
    t0 = clock()
    try:
        import gfsem.cli
    except ImportError as exc:
        print(f"cannot import gfsem from {root}/src: {exc}", file=sys.stderr)
        return 10
    import_s = clock() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(gfsem.cli.__file__).startswith(src + os.sep):
        print(f"gfsem was imported from {gfsem.cli.__file__}, not {src}", file=sys.stderr)
        return 10

    from tracer import Tracer, replace_everywhere

    tracer = None
    if args.trace_out:
        tracer = Tracer(clock)
        tracer.install()
    rec = Recorder()
    rec.install(replace_everywhere)

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    status = "ok"
    try:
        code = gfsem.cli.main([inputs["command"], inputs["config"], "--out", args.out])
        if code != 0:
            status = f"exit code {code}"
    except Exception as exc:  # a crash of the program is a failed operation
        import traceback
        traceback.print_exc()
        status = f"{type(exc).__name__}: {exc}"
    t_done = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "status": status,
        "wall_s": t_done - t_spawn,
        "setup_s": (rec.t_ready - t_spawn) if rec.t_ready is not None else None,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "run_s": sum(r["seconds"] for r in rec.runs),
        "node_steps": sum(r["nodes"] * r["steps"] for r in rec.runs),
        "steps": rec.steps,
        "residual_calls": rec.residual_calls,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["layers"]["setup.import_ms"] = 1e3 * import_s
        tracer.dump(args.trace_out)
    if status == "ok":
        import checks
        result["checks"] = checks.run(inputs, args.out, rec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
