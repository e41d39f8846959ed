"""The benchmark's tracer names library functions as strings. A function
that is renamed, made private or inlined would leave its per-layer metric
reading zero without any error, so every name the tracer depends on is
checked here against the library."""

import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
# span names layer_metrics looks up through its total, calls and ids helpers
METRIC_NAMES = sorted(
    set(re.findall(r'\b(?:total|calls|ids)\("([^"]+)"\)', inspect.getsource(tracer.Tracer.layer_metrics)))
)


def test_metric_names_were_found():
    assert "sim.detect_cycle" in METRIC_NAMES
    assert "dp.finite_horizon_dp" in METRIC_NAMES


@pytest.mark.parametrize("name", sorted(set(tracer._HOOKS) | set(METRIC_NAMES)))
def test_traced_name_is_a_public_function_of_its_layer(name):
    layer, func = name.split(".", 1)
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"aoisched.{layer}")
    obj = getattr(module, func, None)
    # the same test install() applies when it picks the functions to wrap
    assert not func.startswith("_")
    assert inspect.isfunction(obj), f"{name} is not a function"
    assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"


def test_cycle_steps_count_the_decisions_of_detect_cycle():
    from aoisched.policies import Whittle

    from conftest import system_for

    sim = importlib.import_module("aoisched.sim")
    tr = tracer.Tracer()
    tr.install()
    try:
        cyc = sim.detect_cycle(system_for("A1"), Whittle())  # the traced binding
    finally:
        tr.uninstall()
    # one decision per state up to and including the recurring one
    assert tr.layer_metrics(0.0, 0.0)["sim.cycle_steps"] > cyc.length
