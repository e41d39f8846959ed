"""Counts, ages and probabilities are checked by one function each in `cost`.

Every input below was once accepted silently, truncated, or refused with a
bare TypeError; each must now raise DomainError from the library, a
ConfigError when a config is parsed, or exit code 1 at the command line.
"""

import json

import numpy as np
import pytest
import yaml

from aoisched import cost
from aoisched.cli import main
from aoisched.config import parse_config
from aoisched.cost import positive_ages, validate_count, validate_probability
from aoisched.decoupled import (
    DecoupledProblem,
    ThresholdPolicy,
    decoupled_value_iteration,
    discounted_tail,
    threshold_policy_average_cost,
    whittle_index,
    whittle_unreliable,
)
from aoisched.errors import ConfigError, DomainError
from aoisched.policies import (
    FixedCycle,
    MaxAge,
    RoundRobin,
    Source,
    StationaryRandomized,
    SystemSpec,
    decide,
    whittle_index_table,
)
from aoisched.sim import detect_cycle, divergence_probe
from aoisched.structure import (
    best_two_source_cycle,
    certify_theorem3,
    check_strong_switch,
    two_source_cycle_cost,
)

F = cost.linear(1)
SPEC = SystemSpec((Source(cost.linear(1)), Source(cost.power(1, 2))))
LOSSY = SystemSpec((Source(cost.linear(1), 0.5), Source(cost.linear(2), 0.5)))
COIN = StationaryRandomized((0.5, 0.5))
PROB = DecoupledProblem(F, 0.5, 3.0)
BAD_PAIRS = [((2.5, 1), 0), ((0, -3), 1)]

BAD_INPUTS = {
    "index table width 2.5": lambda: whittle_index_table(SPEC, 2.5),
    "index table width True": lambda: whittle_index_table(SPEC, True),
    "prefix_array to 2.5": lambda: cost.prefix_array(F, 2.5),
    "prefix_sum to True": lambda: cost.prefix_sum(F, True),
    "growth bound at 2.5": lambda: F.growth_ratio_bound(2.5),
    "probe horizon 10.7": lambda: divergence_probe(LOSSY, COIN, [10.7, 20], n_seeds=2),
    "probe horizon 0": lambda: divergence_probe(LOSSY, COIN, [0, 20], n_seeds=2),
    "probe n_seeds 2.5": lambda: divergence_probe(LOSSY, COIN, [10, 20], n_seeds=2.5),
    "detect_cycle max_steps 2.5": lambda: detect_cycle(SPEC, RoundRobin(), max_steps=2.5),
    "best cycle k_max 2.5": lambda: best_two_source_cycle(F, F, k_max=2.5),
    "best cycle k_max 1": lambda: best_two_source_cycle(F, F, k_max=1),
    "cycle cost k True": lambda: two_source_cycle_cost(F, F, k=True),
    "threshold cost H True": lambda: threshold_policy_average_cost(F, 0.5, True, 1.0),
    "threshold cost H 2.5": lambda: threshold_policy_average_cost(F, 0.5, 2.5, 1.0),
    "ThresholdPolicy(True)": lambda: ThresholdPolicy(True),
    "ThresholdPolicy(2.0)": lambda: ThresholdPolicy(2.0),
    "rvi a_max 20.5": lambda: decoupled_value_iteration(PROB, a_max=20.5),
    "rvi a_max 1": lambda: decoupled_value_iteration(PROB, a_max=1),
    "rvi max_iters 2.5": lambda: decoupled_value_iteration(PROB, a_max=20, max_iters=2.5),
    "whittle_unreliable of two ages": lambda: whittle_unreliable(F, 0.5, [3, 4]),
    "discounted_tail at age 0": lambda: discounted_tail(F, 0.5, 0),
    "discounted_tail at age 0, p 1": lambda: discounted_tail(F, 1.0, 0),
    "indicator(2.5)": lambda: cost.indicator(2.5),
    "indicator(True)": lambda: cost.indicator(True),
    "Source p True": lambda: Source(F, True),
    "Source p '0.5'": lambda: Source(F, "0.5"),
    "Source p nan": lambda: Source(F, float("nan")),
    "DecoupledProblem p '0.5'": lambda: DecoupledProblem(F, "0.5"),
    "is_bounded_cost p True": lambda: cost.is_bounded_cost(F, True),
    "whittle_index p True": lambda: whittle_index(F, True, 3),
    "strong switch, bad states": lambda: check_strong_switch(BAD_PAIRS),
    "strong switch, action 0.5": lambda: check_strong_switch([((1, 2), 0.5)]),
    "strong switch, ragged states": lambda: check_strong_switch([((1, 2), 0), ((1,), 0)]),
    "fixed cycle action 0.5": lambda: FixedCycle((0.5, 1)),
    "theorem3 a_max 0": lambda: certify_theorem3(F, cost.power(1, 2), horizon=50, a_max=0),
    "evaluate a bool age": lambda: cost.evaluate(F, True),
    "evaluate a string age": lambda: cost.evaluate(F, "3"),
    "evaluate at age inf": lambda: cost.evaluate(cost.table([1, 2, 3]), np.inf),
    "evaluate at age nan": lambda: cost.evaluate(F, np.nan),
    "whittle_index at age inf": lambda: whittle_index(F, 1.0, np.inf),
    "decide at ages (inf, 1)": lambda: decide(MaxAge(), SPEC, (np.inf, 1)),
    "linear weight nan": lambda: cost.linear(np.nan),
    "linear weight inf": lambda: cost.linear(np.inf),
    "power exponent nan": lambda: cost.power(1, np.nan),
    "power exponent inf": lambda: cost.power(1, np.inf),
    "exponential weight nan": lambda: cost.exponential(2, weight=np.nan),
    "exponential base nan": lambda: cost.exponential(np.nan),
    "indicator weight inf": lambda: cost.indicator(3, np.inf),
    "logarithmic base inf": lambda: cost.logarithmic(1, base=np.inf),
    "table with a nan": lambda: cost.table([0, np.nan]),
    "table with an inf": lambda: cost.table([0, np.inf]),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def _config(**dp):
    return {
        "name": "checks",
        "sources": [{"cost": {"kind": "linear", "weight": 1}, "p": 1.0}] * 2,
        "policies": ["dp", "whittle"],
        "horizon": 20,
        "dp": dp,
    }


@pytest.mark.parametrize("field,value", [
    ("a_max", 1), ("a_max", 2.5), ("auto_double", True), ("auto_double", -1),
    ("auto_double", 1.5), ("memory_budget", 0),
])
def test_bad_dp_option_is_a_config_error_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=rf"dp\.{field}"):
        parse_config(_config(**{field: value}))


@pytest.mark.parametrize("p", [True, "0.5", 0, 1.5])
def test_bad_probability_is_a_config_error_naming_the_field(p):
    data = _config()
    data["sources"] = [{"cost": {"kind": "linear", "weight": 1}, "p": p}]
    with pytest.raises(ConfigError, match=r"sources\[0\]\.p"):
        parse_config(data)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "checks.yaml"
    path.write_text(yaml.safe_dump(_config(a_max=6)))
    return path


@pytest.mark.parametrize("flags", [
    ["--horizon", "0"], ["--a-max", "0"], ["--a-max", "1"], ["--memory-budget", "0"],
])
def test_cli_dp_passes_zero_sizes_to_the_library(config_path, flags, capsys):
    # each flag overrides a config field and is refused as that field
    field = {"--horizon": "horizon", "--a-max": "dp.a_max", "--memory-budget": "dp.memory_budget"}
    assert main(["dp", "--config", str(config_path), *flags]) == 1
    assert f"config error: {field[flags[0]]}: " in capsys.readouterr().err


def test_cli_dp_still_reads_sizes_from_the_config(config_path, capsys):
    assert main(["dp", "--config", str(config_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a_max"] == 6


@pytest.mark.parametrize("data", [
    {"states": [[2.5, 1], [0, -3]], "actions": [1, 2]},
    {"states": [[1, 2], [2, 1]], "actions": [1.5, 2]},
    {"states": [[1, 2], [2, 1]], "actions": [0, 1]},
    {"states": [[1, 2], [2, 1]], "actions": [True, 2]},
    {"states": [[1, 2], [2, 1], [3, 1]], "actions": [1, 2]},
    {"states": [[1, 2]], "actions": [1, 2]},
])
def test_cli_strong_switch_refuses_bad_pairs(tmp_path, data, capsys):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "strong-switch", "--pairs", str(path)]) == 1
    assert '"ok": true' not in capsys.readouterr().out


def test_cli_theorem3_refuses_a_box_below_two(capsys):
    rc = main([
        "verify", "theorem3", "--cost1", "{kind: linear, weight: 13}",
        "--cost2", "{kind: power, weight: 1, exponent: 2}", "--horizon", "50", "--a-max", "0",
    ])
    assert rc == 1


# -- valid inputs keep working, with their old bits ---------------------------


def test_integral_float_ages_give_the_integer_bits():
    f = cost.power(1.5, 2.3)
    assert whittle_index(f, 0.5, 3.0) == whittle_index(f, 0.5, 3)
    assert whittle_index(f, 1.0, 3.0) == whittle_index(f, 1.0, 3)
    assert np.array_equal(cost.evaluate(f, np.array([1.0, 2.0])), cost.evaluate(f, np.array([1, 2])))
    assert discounted_tail(f, 0.5, 4.0) == discounted_tail(f, 0.5, 4)


def test_numpy_integer_counts_are_accepted():
    n = np.int64(5)
    assert np.array_equal(whittle_index_table(SPEC, n), whittle_index_table(SPEC, 5))
    assert cost.prefix_sum(F, n) == cost.prefix_sum(F, 5)
    assert two_source_cycle_cost(F, F, np.int32(2)) == two_source_cycle_cost(F, F, 2)
    assert ThresholdPolicy(np.int64(3)).threshold == 3
    assert type(cost.indicator(np.int64(4)).threshold) is int
    assert detect_cycle(SPEC, RoundRobin(), max_steps=np.int64(10)).length == 2


def test_probability_one_as_an_int():
    assert Source(F, 1).p == 1
    assert SystemSpec((Source(F, 1), Source(F, 1))).reliable
    assert DecoupledProblem(F, 1, 2.0).p == 1
    assert whittle_index(F, 1, 3) == whittle_index(F, 1.0, 3)
    assert validate_probability(np.float64(0.25)) == 0.25


def test_the_checkers_name_their_argument():
    with pytest.raises(DomainError, match="runs must be an integer >= 1"):
        validate_count("runs", 0)
    with pytest.raises(DomainError, match="state must be a positive integer"):
        positive_ages([1, 0], "state")
    with pytest.raises(DomainError, match=r"q must be a real number in \(0, 1\]"):
        validate_probability(0.0, "q")
    assert positive_ages([[1, 2], [3.0, 4]]).shape == (2, 2)
