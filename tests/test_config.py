import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from aoisched.config import (
    _PLAIN,
    bundled_config,
    bundled_config_names,
    parse_config,
    parse_policy_spec,
    policy_label,
)
from aoisched.errors import ConfigError
from aoisched.policies import FixedCycle, StationaryRandomized, Whittle


def minimal_config(**overrides):
    data = {
        "name": "demo",
        "sources": [
            {"cost": {"kind": "linear", "weight": 2.0}, "p": 1.0},
            {"cost": {"kind": "power", "weight": 1.0, "exponent": 2.0}, "p": 0.7},
        ],
        "policies": ["whittle", "round_robin"],
        "seed": 42,
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_config(minimal_config())
        assert cfg.horizon == 500
        assert cfg.runs == 500  # one source is unreliable
        assert cfg.seed == 42
        assert not cfg.dp.enabled

    def test_reliable_default_runs_is_one(self):
        data = minimal_config()
        data["sources"][1]["p"] = 1.0
        assert parse_config(data).runs == 1

    def test_dp_in_policies_enables_dp(self):
        cfg = parse_config(minimal_config(policies=["dp", "whittle"]))
        assert cfg.dp.enabled

    def test_zero_policies_rejected(self):
        with pytest.raises(ConfigError, match="policies"):
            parse_config(minimal_config(policies=[]))

    def test_field_paths_in_errors(self):
        data = minimal_config()
        data["sources"][1]["p"] = 1.7
        with pytest.raises(ConfigError, match=r"sources\[1\].p"):
            parse_config(data)
        data = minimal_config()
        data["sources"][0]["cost"] = {"kind": "banana"}
        with pytest.raises(ConfigError, match=r"sources\[0\].cost"):
            parse_config(data)
        with pytest.raises(ConfigError, match=r"^policies\[0\]: .*finite non-negative probs"):
            parse_config(minimal_config(policies=["randomized(nan, 1)"]))

    def test_nan_cost_parameter_is_a_config_error_naming_the_cost(self):
        # nan passed every `<=` check and died later converting a cost cap
        data = minimal_config()
        data["sources"][1]["cost"] = yaml.safe_load("{kind: linear, weight: .nan}")
        with pytest.raises(ConfigError, match=r"sources\[1\]\.cost: weight must be positive"):
            parse_config(data)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(minimal_config(extra=1))

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_config(seed=2**70))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_config(seed="abc"))


@st.composite
def _grammar_strings(draw):
    """(spec, n_sources) for each form parse_policy_spec turns into a policy."""
    n = draw(st.integers(1, 5))
    form = draw(st.sampled_from((*_PLAIN, "randomized", "cycle")))
    if form == "randomized":
        weights = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
        args = [repr(w / sum(weights)) for w in weights]
    elif form == "cycle":
        args = [str(i) for i in draw(st.lists(st.integers(1, n), min_size=1, max_size=6))]
    else:
        return form, n
    return f"{form}({', '.join(args)})", n


class TestPolicyGrammar:
    def test_simple_names(self):
        assert isinstance(parse_policy_spec("whittle", 2), Whittle)
        assert parse_policy_spec("dp", 2) == "dp"

    def test_randomized(self):
        pol = parse_policy_spec("randomized(0.25, 0.75)", 2)
        assert isinstance(pol, StationaryRandomized)
        assert pol.probs == (0.25, 0.75)

    def test_cycle_is_one_based(self):
        pol = parse_policy_spec("cycle(1,1,2)", 2)
        assert isinstance(pol, FixedCycle)
        assert pol.actions == (0, 0, 1)

    def test_cycle_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_policy_spec("cycle(3)", 2)

    def test_randomized_needs_matching_arity(self):
        with pytest.raises(ConfigError):
            parse_policy_spec("randomized(1.0)", 2)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            parse_policy_spec("greedy", 2)

    @given(_grammar_strings())
    @example(("randomized(0.5,0.5)", 2))
    @example(("cycle(1,2)", 2))
    def test_labels_round_trip(self, case):
        spec, n = case
        pol = parse_policy_spec(spec, n)
        label = policy_label(pol)
        assert parse_policy_spec(label, n) == pol
        assert policy_label(parse_policy_spec(label, n)) == label
        if spec in _PLAIN:
            assert type(pol) is _PLAIN[spec] and label == spec


class TestRoundTrip:
    def test_serialize_parse_hash_identical(self):
        cfg = parse_config(minimal_config(policies=["dp", "whittle", "cycle(1,2)"]))
        again = parse_config(cfg.to_dict())
        assert again == cfg
        assert again.config_hash == cfg.config_hash

    def test_dp_memory_budget_round_trips_hash_identically(self):
        dp = {"enabled": True, "a_max": 20, "memory_budget": 1 << 28}
        cfg = parse_config(minimal_config(dp=dp))
        assert cfg.to_dict()["dp"] == {**dp, "auto_double": 2}
        again = parse_config(cfg.to_dict())
        assert again == cfg and again.config_hash == cfg.config_hash
        unbudgeted = parse_config(minimal_config(dp={"enabled": True, "a_max": 20}))
        assert unbudgeted.config_hash != cfg.config_hash

    def test_hash_changes_with_content(self):
        a = parse_config(minimal_config())
        b = parse_config(minimal_config(seed=43))
        assert a.config_hash != b.config_hash


class TestBundledConfigs:
    def test_twelve_settings_ship(self):
        names = bundled_config_names()
        assert len(names) == 12
        for table, letters in (("table1", "ABC"), ("table2", "DEF")):
            for letter in letters:
                assert f"{table}_{letter}1" in names
                assert f"{table}_{letter}2" in names

    def test_parameters_match_published_settings(self):
        from conftest import TABLE_SETTINGS

        prefix = {"A": "table1", "B": "table1", "C": "table1",
                  "D": "table2", "E": "table2", "F": "table2"}
        for key, (sources, _) in TABLE_SETTINGS.items():
            cfg = bundled_config(f"{prefix[key[0]]}_{key}")
            assert len(cfg.sources) == len(sources)
            for src, (f, p) in zip(cfg.sources, sources):
                assert src.cost == f
                assert src.p == p

    def test_e2_probabilities_follow_the_stated_parameters(self):
        cfg = bundled_config("table2_E2")
        assert [s.p for s in cfg.sources] == [0.7, 0.9, 0.67, 0.8]

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            bundled_config("table9_Z9")

    def test_bundled_round_trip(self):
        for name in bundled_config_names():
            cfg = bundled_config(name)
            assert parse_config(cfg.to_dict()).config_hash == cfg.config_hash
