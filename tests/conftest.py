import math
import warnings

import numpy as np
import pytest

from aoisched import (
    Source,
    SystemSpec,
    exponential,
    indicator,
    linear,
    logarithmic,
    power,
    table,
)
from aoisched import dp as dpmod
from aoisched.config import bundled_config
from aoisched.dp import finite_horizon_dp
from aoisched.runner import solve_dp

# the twelve benchmark settings: sources, per-source p, reference (dp, whittle)
TABLE_SETTINGS = {
    "A1": (((linear(13), 1.0), (power(1, 2), 1.0)), (21.95, 21.95)),
    "A2": (((linear(13), 0.9), (power(1, 2), 0.5)), (36.12, 36.28)),
    "B1": (((power(1, 2), 1.0), (exponential(3), 1.0)), (8.48, 8.48)),
    "B2": (((power(1, 2), 0.65), (exponential(3), 0.8)), (23.16, 23.37)),
    "C1": (((power(0.5, 3), 1.0), (logarithmic(10), 1.0)), (5.69, 5.69)),
    "C2": (((power(0.5, 3), 0.55), (logarithmic(10), 0.75)), (21.54, 21.54)),
    "D1": (((power(1, 2), 1.0), (exponential(3), 1.0), (power(1, 4), 1.0)), (44.23, 44.23)),
    "D2": (((power(1, 2), 0.66), (exponential(3), 0.8), (power(1, 4), 0.75)), (161.19, 161.39)),
    "E1": (
        ((power(1, 3), 1.0), (exponential(2), 1.0), (linear(15), 1.0), (power(1, 2), 1.0)),
        (73.36, 73.36),
    ),
    "E2": (
        ((power(1, 3), 0.7), (exponential(2), 0.9), (linear(15), 0.67), (power(1, 2), 0.8)),
        (129.02, 130.94),
    ),
    "F1": (
        (
            (power(1, 3), 1.0),
            (exponential(math.e), 1.0),
            (linear(15), 1.0),
            (power(1, 2), 1.0),
        ),
        (87.66, 87.66),
    ),
    "F2": (
        (
            (power(1, 3), 0.8),
            (exponential(math.e), 0.85),
            (linear(15), 0.75),
            (power(1, 2), 0.66),
        ),
        (158.35, 159.81),
    ),
}
# F1's whittle reference differs from its dp reference
TABLE_SETTINGS["F1"] = (TABLE_SETTINGS["F1"][0], (87.66, 88.27))


def system_for(name: str) -> SystemSpec:
    sources, _ = TABLE_SETTINGS[name]
    return SystemSpec(tuple(Source(f, p) for f, p in sources))


def references_for(name: str):
    return TABLE_SETTINGS[name][1]


# DP solutions shared by the whole session, keyed by (setting, a_max, horizon)
_DP_SOLVES = {}
# setting -> the key of the box its bundled config's solve settled on
_BUNDLED_KEYS = {}


def dp_box(name, a_max, horizon=500):
    """finite_horizon_dp of setting `name` on an a_max box, solved once per
    session. A truncation note stays on the solution's `warnings` instead of
    warning, so a test that asserts the warning solves for itself."""
    key = (name, a_max, horizon)
    if key not in _DP_SOLVES:
        spec = system_for(name)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "truncation report", RuntimeWarning)
            _DP_SOLVES[key] = finite_horizon_dp(spec, horizon, a_max)
    return _DP_SOLVES[key]


def dp_bundled(name):
    """runner.solve_dp on setting `name`'s bundled config, solved once per
    session. Every box its doubling solves is filed where dp_box finds it,
    and the setting's bundled key names the box the doubling settles on."""
    if name not in _BUNDLED_KEYS:
        config = bundled_config(f"table{1 if name[0] in 'ABC' else 2}_{name}")
        assert config.system == system_for(name)
        solve = dpmod.finite_horizon_dp

        def filed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            _DP_SOLVES.setdefault((name, sol.box.a_max, sol.horizon), sol)
            return sol

        dpmod.finite_horizon_dp = filed  # only for this one solve_dp call
        try:
            sol = solve_dp(config)
        finally:
            dpmod.finite_horizon_dp = solve
        _BUNDLED_KEYS[name] = (name, sol.box.a_max, sol.horizon)
    return _DP_SOLVES[_BUNDLED_KEYS[name]]


@pytest.fixture
def rng():
    return np.random.default_rng(20250117)


ALL_KINDS = ("linear", "power", "exponential", "logarithmic", "indicator", "table")


def random_cost(rng, kinds=ALL_KINDS, p_for_exponential=None):
    """One random cost function; exponential bases respect bounded cost for
    the given p when provided."""
    kind = kinds[rng.integers(len(kinds))]
    w = float(rng.uniform(0.5, 10.0))
    if kind == "linear":
        return linear(w)
    if kind == "power":
        return power(w, float(rng.uniform(1.0, 3.0)))
    if kind == "exponential":
        hi = 3.0
        if p_for_exponential is not None and p_for_exponential < 1.0:
            hi = min(hi, 0.95 / (1.0 - p_for_exponential))
        if hi <= 1.05:
            return linear(w)  # no admissible base; fall back
        return exponential(float(rng.uniform(1.05, hi)), float(rng.uniform(0.5, 3.0)))
    if kind == "logarithmic":
        return logarithmic(float(rng.uniform(1.0, 20.0)))
    if kind == "indicator":
        return indicator(int(rng.integers(1, 30)), w)
    vals = np.cumsum(rng.uniform(0.0, 2.0, size=int(rng.integers(1, 12))))
    return table(tuple(float(v) for v in vals))


def random_cost_and_p(rng, kinds=ALL_KINDS):
    p = float(rng.uniform(0.15, 1.0))
    if rng.random() < 0.25:
        p = 1.0
    return random_cost(rng, kinds=kinds, p_for_exponential=p), p


def overflow_at_four():
    """A power cost whose closed-form overflow cap rounds to age 4 although
    f(4) exceeds the overflow limit; f(1..3) stay finite."""
    return power(float(np.nextafter(1e300 / 4.0**100, np.inf)), 100.0)
