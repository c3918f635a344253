"""Every name that `gfsem` exports is used: by the package's own code, by the
acceptance suite, or by the benchmark's tracer. A helper that nothing calls
is deleted rather than exported."""

import ast
import glob
import os

import gfsem
from helpers import ROOT, tracer_layers


def references(source: str) -> set[str]:
    """The names that `source` reads, as ast Name and Attribute nodes; a
    top-level function or class's uses of its own name are not counted, nor
    are strings, imports or definitions."""
    refs = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                refs.add(name)
    return refs


def test_references_count_names_and_attributes_but_not_strings_or_definitions():
    refs = references('from m import imported\n'
                      'def defined(n):\n    return defined(n - 1)\n'
                      'def caller():\n    return called(x.attribute, "in_a_string")\n'
                      'class Klass:\n    def method(self):\n        return Klass\n')
    assert {"called", "x", "attribute", "n"} <= refs
    assert not refs & {"imported", "defined", "in_a_string", "caller", "Klass", "method"}


def test_every_exported_name_is_referenced():
    refs = set()
    for path in glob.glob(os.path.join(ROOT, "src", "gfsem", "*.py")):
        if os.path.basename(path) != "__init__.py":
            with open(path) as fh:
                refs |= references(fh.read())
    with open(os.path.join(ROOT, "tests", "test_acceptance.py")) as fh:
        refs |= references(fh.read())
    refs |= {attr.split(".")[0] for _, attr in tracer_layers()}
    unused = [name for name in gfsem.__all__ if name not in refs]
    assert not unused, f"exported but used by no module, acceptance test or benchmark: {unused}"
