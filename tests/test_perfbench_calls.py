"""The benchmark's workloads call the library directly. A call that no
longer binds to its function's signature (a renamed keyword, a dropped
argument) would only fail when the benchmark runs, so every
`module.func(...)` call in perfbench/workloads.py is bound here to the
signature of the library function it names."""

import ast
import importlib
import inspect
import pathlib

import pytest

WORKLOADS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _call_shapes():
    """(module, function, positional count, keyword names) of every call
    through a module named on the workloads' `from aoisched import` line."""
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "aoisched"
        for alias in node.names
    }
    shapes = set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            # a starred or ** argument hides its count, so it cannot be bound
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            shapes.add((func.value.id, func.attr, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(shapes)


SHAPES = _call_shapes()


def test_call_shapes_were_found():
    assert ("sim", "simulate", 2, ("horizon", "runs", "seed", "workers")) in SHAPES
    assert ("runner", "run_experiment", 1, ("out_dir", "workers")) in SHAPES
    assert ("decoupled", "discounted_tail", 3, ("tol",)) in SHAPES
    assert ("structure", "best_two_source_cycle", 2, ("k_max",)) in SHAPES
    assert not any(module == "dp" for module, *_ in SHAPES)  # a local dict, not the module


@pytest.mark.parametrize("module,func,n_args,keywords", SHAPES, ids=[
    f"{m}.{f}({n}, {', '.join(k)})" for m, f, n, k in SHAPES
])
def test_workload_call_binds_to_the_library_signature(module, func, n_args, keywords):
    obj = getattr(importlib.import_module(f"aoisched.{module}"), func)
    inspect.signature(obj).bind(*[None] * n_args, **dict.fromkeys(keywords))
