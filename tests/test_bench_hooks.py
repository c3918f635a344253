"""Every program name that the benchmark in gfbench/ wraps must resolve, so
that a rename fails here instead of in a traced benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_layers():
    spec = importlib.util.spec_from_file_location(
        "gfbench_tracer", os.path.join(ROOT, "gfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.LAYERS]


def _resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_benchmark_hook_resolves():
    # the tracer's layers, and the names gfbench/child.py wraps on every run
    hooks = _tracer_layers() + [("gfsem.dec", "spatial_residual"), ("gfsem.dec", "Stepper.run"),
                                ("gfsem.dec", "Stepper.step"),
                                ("gfsem.wellprep", "optimization_projection")]
    assert len(hooks) > 4
    missing = [f"{module}:{attr}" for module, attr in hooks if not _resolves(module, attr)]
    assert not missing, f"benchmark hooks that no longer resolve: {missing}"
