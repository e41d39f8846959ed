"""Counts, ages, probabilities, tolerances, charges, seeds and the
bounded-cost condition are checked by one function each in `cost`; a randomized
policy's probability vector by `StationaryRandomized`.

Nearly every input below was once accepted silently, truncated, refused
with a bare TypeError, or left a solver spinning; each must now raise
DomainError from the library, a ConfigError when a config is parsed, or
exit code 1 at the command line.
"""

import functools
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
    indexability_sweep,
    threshold_policy_average_cost,
    whittle_index,
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
from aoisched.sim import detect_cycle, divergence_probe, simulate
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
    "threshold cost p True": lambda: threshold_policy_average_cost(F, True, 3, 1.0),
    "threshold cost charge nan": lambda: threshold_policy_average_cost(F, 1.0, 3, float("nan")),
    "sweep charges ['1']": lambda: indexability_sweep(F, 0.5, ["1"]),
    "ThresholdPolicy(True)": lambda: ThresholdPolicy(True),
    "ThresholdPolicy(2.0)": lambda: ThresholdPolicy(2.0),
    "rvi a_max 20.5": lambda: decoupled_value_iteration(PROB, a_max=20.5),
    "rvi a_max 1": lambda: decoupled_value_iteration(PROB, a_max=1),
    "discounted_tail of two ages": lambda: discounted_tail(F, 0.5, [3, 4]),
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
    "linear weight 'x'": lambda: cost.linear("x"),
    "linear weight [1]": lambda: cost.linear([1]),
    "linear weight True": lambda: cost.linear(True),
    "linear weight 10**400": lambda: cost.linear(10**400),
    "power exponent '2'": lambda: cost.power(1, "2"),
    "logarithmic base None": lambda: cost.logarithmic(1, base=None),
    "table values 5": lambda: cost.table(5),
    "table values (True, 2)": lambda: cost.table([True, 2]),
    "randomized probs (nan, 1)": lambda: StationaryRandomized((np.nan, 1.0)),
    "randomized probs (inf, -inf)": lambda: StationaryRandomized((np.inf, -np.inf)),
    "randomized probs (True, False)": lambda: StationaryRandomized((True, False)),
    "randomized probs ('0.5', '0.5')": lambda: StationaryRandomized(("0.5", "0.5")),
    "randomized probs ('x', 'y')": lambda: StationaryRandomized(("x", "y")),
}
# every entry point that takes a stopping tolerance, at each bad tolerance
TOL_ENTRY_POINTS = {
    "whittle_index": lambda tol: whittle_index(F, 0.5, 3, tol=tol),
    "discounted_tail": lambda tol: discounted_tail(F, 0.5, 3, tol=tol),
    "threshold cost p 1": lambda tol: threshold_policy_average_cost(F, 1.0, 3, 1.0, tol=tol),
    "threshold cost p 0.5": lambda tol: threshold_policy_average_cost(F, 0.5, 3, 1.0, tol=tol),
    "rvi": lambda tol: decoupled_value_iteration(PROB, a_max=20, tol=tol),
}
# every entry point that takes a seed, at each bad seed
SEED_ENTRY_POINTS = {
    "simulate": lambda seed: simulate(LOSSY, COIN, 10, runs=2, seed=seed),
    "probe": lambda seed: divergence_probe(LOSSY, COIN, [10, 20], n_seeds=2, seed=seed),
}
BAD_SEEDS = {"1.5": 1.5, "True": True, "'3'": "3", "2**64": 2**64, "-2**64": -(2**64)}
# every entry point that takes an activation charge, at each bad charge
CHARGE_ENTRY_POINTS = {
    "DecoupledProblem": lambda charge: DecoupledProblem(F, 0.5, charge),
    "sweep": lambda charge: indexability_sweep(F, 0.5, [charge]),
    "threshold cost": lambda charge: threshold_policy_average_cost(F, 1.0, 3, charge),
}
for _name, _call in TOL_ENTRY_POINTS.items():
    for _tol in ("nan", "inf", "0", "-1"):
        BAD_INPUTS[f"{_name} tol {_tol}"] = functools.partial(_call, float(_tol))
for _name, _call in SEED_ENTRY_POINTS.items():
    for _label, _seed in BAD_SEEDS.items():
        BAD_INPUTS[f"{_name} seed {_label}"] = functools.partial(_call, _seed)
for _name, _call in CHARGE_ENTRY_POINTS.items():
    for _label, _charge in {"'3'": "3", "True": True}.items():
        BAD_INPUTS[f"{_name} charge {_label}"] = functools.partial(_call, _charge)


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


BAD_COST_RECORDS = [
    "{kind: linear, weight: x}", "{kind: linear, weight: [1]}", "{kind: linear, weight: true}",
    "{kind: power, weight: 1, exponent: '2'}", "{kind: logarithmic, weight: 1, base: null}",
    "{kind: table, values: 5}", "{kind: table, values: [true, 2]}",
]


@pytest.mark.parametrize("record", BAD_COST_RECORDS)
def test_bad_cost_parameter_is_a_config_error_naming_the_source(record):
    data = _config()
    data["sources"] = [{"cost": yaml.safe_load(record)}]
    with pytest.raises(ConfigError, match=r"^sources\[0\]\.cost: .* must be a"):
        parse_config(data)


@pytest.mark.parametrize("record", BAD_COST_RECORDS)
def test_cli_index_refuses_a_bad_cost_parameter_in_one_line(record, capsys):
    assert main(["index", "--cost", record, "--h-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("spec", ["cycle(inf)", "cycle(nan)", "cycle(1e400)", "cycle(1, -inf)"])
def test_non_finite_cycle_index_is_a_config_error(spec):
    data = _config()
    data["policies"] = [spec]
    with pytest.raises(ConfigError, match=r"policies\[0\]: cycle index"):
        parse_config(data)


def test_every_head_without_arguments_refuses_empty_parentheses():
    for head in ("whittle", "round_robin", "max_age", "dp"):
        data = _config()
        data["policies"] = [f"{head}()"]
        with pytest.raises(ConfigError, match=rf"policies\[0\]: {head} takes no arguments"):
            parse_config(data)


def test_cli_run_refuses_an_infinite_cycle_index(tmp_path, capsys):
    data = _config()
    data["policies"] = ["cycle(inf)"]
    path = tmp_path / "inf.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "checks.yaml"
    path.write_text(yaml.safe_dump(_config(a_max=6)))
    return path


@pytest.mark.parametrize("flags", [
    ["--horizon", "0"], ["--a-max", "0"], ["--a-max", "1"], ["--memory-budget", "0"],
])
def test_cli_dp_passes_zero_sizes_to_the_library(config_path, flags, capsys):
    # each flag overrides a config field and is refused naming that field once
    field, least = {
        "--horizon": ("horizon", 1), "--a-max": ("dp.a_max", 2), "--memory-budget": ("dp.memory_budget", 1),
    }[flags[0]]
    assert main(["dp", "--config", str(config_path), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {field} must be an integer >= {least}, got {flags[1]}\n"


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
    assert simulate(LOSSY, COIN, 10, seed=np.int64(7)) == simulate(LOSSY, COIN, 10, seed=7)
    assert parse_config({**_config(), "seed": np.int64(7)}).seed == 7
    for seed in (2**64 - 1, -(2**64 - 1)):
        assert parse_config({**_config(), "seed": seed}).seed == seed
        assert simulate(LOSSY, COIN, 10, seed=seed).seed == seed
        assert divergence_probe(LOSSY, COIN, [10, 20], n_seeds=2, seed=seed).shape == (2,)


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
