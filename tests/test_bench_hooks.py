"""Every program name that the benchmark in gfbench/ wraps or imports must
resolve, so that a rename fails here instead of in a benchmark run."""

import importlib

from helpers import tracer_layers


def _resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_benchmark_hook_resolves():
    # the tracer's layers, the names gfbench/child.py wraps on every run and
    # the names gfbench/checks.py imports when it checks a run's outputs
    hooks = tracer_layers() + [("gfsem.dec", "spatial_residual"), ("gfsem.dec", "Stepper.run"),
                               ("gfsem.dec", "Stepper.step"),
                               ("gfsem.wellprep", "optimization_projection"),
                               ("gfsem.config", "load_config"),
                               ("gfsem.experiments", "ExperimentConfig.from_mapping"),
                               ("gfsem.experiments", "build_case"),
                               ("gfsem.wellprep", "line_by_line_projection"),
                               ("gfsem.dec", "DeCConfig.for_degree")]
    assert len(hooks) > 4
    missing = [f"{module}:{attr}" for module, attr in hooks if not _resolves(module, attr)]
    assert not missing, f"benchmark hooks that no longer resolve: {missing}"
