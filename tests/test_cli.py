import argparse
import json
import os
import pathlib
import re

import pytest
import yaml

from aoisched import decoupled, runner
from aoisched import dp as dpmod
from aoisched.cli import build_parser, main
from aoisched.runner import run_experiment
from aoisched.config import load_config
from aoisched.errors import DomainError


@pytest.fixture
def small_config(tmp_path):
    data = {
        "name": "smoke",
        "sources": [
            {"cost": {"kind": "linear", "weight": 2.0}, "p": 1.0},
            {"cost": {"kind": "power", "weight": 1.0, "exponent": 2.0}, "p": 0.8},
        ],
        "policies": ["dp", "whittle", "round_robin"],
        "horizon": 60,
        "runs": 8,
        "seed": 7,
        "dp": {"enabled": True, "a_max": 12},
    }
    path = tmp_path / "smoke.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestRun:
    def test_writes_csv_and_json(self, small_config, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        csv_text = (out / "smoke.csv").read_text()
        header, *rows = csv_text.strip().split("\n")
        assert header == "setting,policy,mean_cost,stderr,runs,horizon,seed"
        assert [r.split(",")[1] for r in rows] == ["dp", "whittle", "round_robin"]
        sidecar = json.loads((out / "smoke.json").read_text())
        assert sidecar["provenance"]["config_hash"]
        dp = sidecar["dp"]
        assert dp["optimal_average_cost"] <= dp["upper_bound"]

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(small_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(out2)]) == 0
        assert (out1 / "smoke.csv").read_bytes() == (out2 / "smoke.csv").read_bytes()
        assert (out1 / "smoke.json").read_bytes() == (out2 / "smoke.json").read_bytes()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dp": {"enabled": False}}, "dp.enabled: false, but policies[0] lists dp"),
            ({"policies": ["dp", "whittle", "whittle"]}, "policies[2]: 'whittle' repeats policies[1]"),
        ],
        ids=["dp_disabled", "repeated"],
    )
    def test_refused_policies_write_nothing(self, small_config, tmp_path, capsys, change, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**yaml.safe_load(small_config.read_text()), **change}))
        out = tmp_path / "refused"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {bad}: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_workers_flag_is_gone(self, small_config, tmp_path, capsys):
        out = tmp_path / "w2"
        _assert_unrecognized_workers(
            ["run", "--config", str(small_config), "--out", str(out), "--workers", "2"], capsys
        )
        assert not out.exists()

    def test_seed_override_changes_results(self, small_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", str(small_config), "--out", str(out1)])
        main(["run", "--config", str(small_config), "--out", str(out2), "--seed", "8"])
        assert (out1 / "smoke.csv").read_bytes() != (out2 / "smoke.csv").read_bytes()

    def test_seed_override_writes_the_bytes_of_a_config_with_that_seed(self, small_config, tmp_path):
        data = yaml.safe_load(small_config.read_text())
        data["seed"] = 5
        seeded = tmp_path / "seeded.yaml"
        seeded.write_text(yaml.safe_dump(data))
        out1, out2 = tmp_path / "flag", tmp_path / "file"
        assert main(["run", "--config", str(small_config), "--out", str(out1), "--seed", "5"]) == 0
        assert main(["run", "--config", str(seeded), "--out", str(out2)]) == 0
        assert (out1 / "smoke.csv").read_bytes() == (out2 / "smoke.csv").read_bytes()
        assert (out1 / "smoke.json").read_bytes() == (out2 / "smoke.json").read_bytes()

    @pytest.mark.parametrize("seed", [str(2**64), str(-(2**64))])
    def test_seed_override_outside_64_bits_is_usage_error(self, small_config, tmp_path, capsys, seed):
        out = tmp_path / "big"
        assert main(["run", "--config", str(small_config), "--out", str(out), "--seed", seed]) == 1
        assert "seed must be an integer with |seed| < 2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_output_dir(self, small_config, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("AOISCHED_OUT", str(target))
        assert main(["run", "--config", str(small_config)]) == 0
        assert (target / "smoke.csv").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 1

    def test_divergent_setting_refused_without_override(self, tmp_path, capsys):
        data = {
            "name": "divergent",
            "sources": [{"cost": {"kind": "exponential", "base": 3.0}, "p": 0.5}],
            "policies": ["round_robin"],
            "horizon": 20,
            "runs": 2,
            "seed": 0,
        }
        path = tmp_path / "div.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "source 1" in err
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(path),
                    "--out",
                    str(tmp_path / "o"),
                    "--allow-divergent",
                ]
            )
            == 0
        )


class TestIndexAndThreshold:
    def test_index_csv(self, capsys):
        rc = main(["index", "--cost", "{kind: linear, weight: 1}", "--p", "0.5", "--h-max", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "h,W_reliable,W_unreliable"
        assert lines[1].startswith("1,1.0,1.0")
        assert lines[2] == "2,3.0,2.5"

    def test_threshold(self, capsys):
        rc = main(["threshold", "--cost", "{kind: linear, weight: 1}", "--charge", "5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_threshold_never(self, capsys):
        rc = main(["threshold", "--cost", "{kind: table, values: [2.0]}", "--charge", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "NEVER"

    def test_bad_cost_spec_is_usage_error(self, capsys):
        assert main(["threshold", "--cost", "{kind: banana}", "--charge", "1"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["threshold", "--cost", "{kind: [", "--charge", "1"], "unparseable cost spec"),
            (["threshold", "--cost", "[linear, 1]", "--charge", "1"], "cost spec must be a mapping"),
            (
                ["index", "--cost", "{kind: linear, weight: 1}", "--h-min", "5", "--h-max", "3"],
                "need h-min <= h-max",
            ),
        ],
        ids=["unparseable", "not_a_mapping", "h_min_above_h_max"],
    )
    def test_refusals_are_config_errors(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_nan_charge_is_usage_error(self, capsys):
        assert main(["threshold", "--cost", "{kind: linear, weight: 1}", "--charge", "nan"]) == 1
        assert "charge must be non-negative" in capsys.readouterr().err

    def test_charge_past_the_row_limit_is_capacity_error(self, capsys, monkeypatch):
        monkeypatch.setattr(decoupled, "MAX_INDEX_ROW", 1 << 12)
        assert main(["threshold", "--cost", "{kind: linear, weight: 1}", "--charge", "1e20"]) == 3
        assert "MAX_INDEX_ROW" in capsys.readouterr().err

    def test_large_charge_within_the_row_limit(self, capsys):
        # the threshold lies at age 1414214, in a row of 2**21 ages
        assert main(["threshold", "--cost", "{kind: linear, weight: 1}", "--charge", "1e12"]) == 0
        assert capsys.readouterr().out.strip() == "1414214"


class TestDpCommand:
    def test_dp_json_with_cycle(self, small_config, tmp_path, capsys):
        # reliable variant of the smoke config
        data = yaml.safe_load(small_config.read_text())
        data["sources"][1]["p"] = 1.0
        path = tmp_path / "rel.yaml"
        path.write_text(yaml.safe_dump(data))
        rc = main(["dp", "--config", str(path), "--horizon", "200", "--a-max", "12", "--cycle"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a_max"] == 12
        assert out["optimal_average_cost"] <= out["upper_bound"]
        assert out["cycle"]["average_cost"] > 0
        assert set(out["cycle"]["actions"]) <= {1, 2}
        # the same summary as the sidecar's dp block, plus the setting
        assert out["setting"] == "smoke"
        assert out["initial_state"] == [1, 1]
        assert out["cycle"]["length"] == len(out["cycle"]["states"])

    def test_prints_the_run_sidecar_dp_block(self, small_config, tmp_path, capsys):
        # the a_max 4 box leaks, so the config's doublings decide the box
        data = yaml.safe_load(small_config.read_text())
        data["dp"]["a_max"] = 4
        path = tmp_path / "leaky.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "smoke.json").read_text())["dp"]
        capsys.readouterr()
        assert main(["dp", "--config", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("setting") == "smoke"
        assert printed == sidecar
        assert sidecar["a_max"] == 16

    def test_cycle_on_a_lossy_config_is_refused_before_solving(self, small_config, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before refusing --cycle")

        monkeypatch.setattr(dpmod, "finite_horizon_dp", solve)
        assert main(["dp", "--config", str(small_config), "--cycle"]) == 1
        assert "--cycle needs reliable channels" in capsys.readouterr().err

    def test_capacity_exit_code(self, small_config, capsys):
        rc = main(
            ["dp", "--config", str(small_config), "--a-max", "4000", "--memory-budget", "1000000"]
        )
        assert rc == 3


class TestVerify:
    def test_strong_switch_violation_exits_two(self, tmp_path, capsys):
        pairs = {"states": [[1, 4], [2, 3]], "actions": [1, 2]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        rc = main(["verify", "strong-switch", "--pairs", str(path)])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        assert report["violations"][0]["action"] == 1
        assert "implied_action" not in report["violations"][0]

    def test_strong_switch_pairs_without_states_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"actions": [1, 2]}))
        assert main(["verify", "strong-switch", "--pairs", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: pairs file needs 'states' and 'actions' arrays\n"

    def test_strong_switch_clean_exits_zero(self, tmp_path, capsys):
        pairs = {"states": [[1, 4], [2, 3]], "actions": [2, 1]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        assert main(["verify", "strong-switch", "--pairs", str(path)]) == 0

    def test_theorem3(self, capsys):
        rc = main(
            [
                "verify",
                "theorem3",
                "--cost1",
                "{kind: linear, weight: 13}",
                "--cost2",
                "{kind: power, weight: 1, exponent: 2}",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["best_cycle"]["cost"] == pytest.approx(22.0)
        # the check details name sources 1-based, as the best_cycle fields do
        best = report["best_cycle"]
        (detail,) = [c["detail"] for c in report["checks"] if c["name"] == "whittle_equals_best_cycle"]
        assert detail.endswith(f"(leader {best['leader']}, k={best['k']})")

    def test_indexability(self, capsys):
        rc = main(
            [
                "verify",
                "indexability",
                "--cost",
                "{kind: power, weight: 1, exponent: 2}",
                "--p",
                "0.7",
                "--charges",
                "0.5,2,8,32",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["thresholds"] == sorted(report["thresholds"])

    def test_indexability_non_numeric_charge_is_usage_error(self, capsys):
        args = ["verify", "indexability", "--cost", "{kind: linear, weight: 1}"]
        assert main([*args, "--charges", "1,abc"]) == 1
        assert "charges arguments must be numbers, got '1,abc'" in capsys.readouterr().err

    def test_strong_switch_missing_pairs_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "strong-switch", "--pairs", str(tmp_path / "nope.json")]) == 1
        assert "cannot read pairs file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{states: [[1, 2]]", "", "\xff"])
    def test_strong_switch_malformed_pairs_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "pairs.json"
        path.write_bytes(text.encode("latin-1"))
        assert main(["verify", "strong-switch", "--pairs", str(path)]) == 1
        assert "unparseable JSON" in capsys.readouterr().err


class TestTables:
    def test_subset_runs_and_renders(self, tmp_path, capsys):
        rc = main(["tables", "--only", "table1_A1", "--out", str(tmp_path / "t")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1_A1" in out
        assert "21.97" in out
        assert (tmp_path / "t" / "table1_A1.csv").exists()

    def test_unknown_subset_is_usage_error(self, capsys):
        assert main(["tables", "--only", "table9_Z1"]) == 1

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "t"
        _assert_unrecognized_workers(
            ["tables", "--only", "table1_A1", "--out", str(out), "--workers", "2"], capsys
        )
        assert not out.exists()

    def test_repeated_subset_name_is_usage_error(self, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("ran a config before refusing --only")

        monkeypatch.setattr("aoisched.cli.run_experiment", run)
        assert main(["tables", "--only", "table1_A1,table1_B1,table1_A1"]) == 1
        captured = capsys.readouterr()
        assert "config error: bundled configs named more than once in --only: ['table1_A1']" in captured.err
        assert captured.out == ""


def _assert_unrecognized_workers(argv, capsys):
    """`argv` exits 1 with argparse's refusal of `--workers`, and its
    command's --help no longer lists the flag."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "error: unrecognized arguments: --workers 2" in captured.err
    assert "finished" not in captured.err and captured.out == ""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    assert "--workers" not in capsys.readouterr().out


def _subcommands(parser):
    """name -> parser of each subcommand of `parser` (empty if it has none)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: p for a in subs for name, p in a.choices.items()}


def test_every_command_and_verify_mode_has_a_handler():
    commands = _subcommands(build_parser())
    assert set(commands) == {"run", "index", "threshold", "dp", "verify", "tables"}
    modes = _subcommands(commands.pop("verify"))
    assert set(modes) == {"strong-switch", "theorem3", "indexability"}
    assert all(_subcommands(p) == {} for p in (*commands.values(), *modes.values()))
    for name, p in {**commands, **modes}.items():
        assert callable(p.get_default("handler")), name


def _readme_synopsis():
    """command (or `verify MODE`) -> the flags its lines name in the
    README's `## Command line` block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    flags = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["aoisched"]:
            command = " ".join(words[1:3] if words[1] == "verify" else words[1:2])
        if words:
            flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z0-9-]*", line))
    return flags


def test_readme_synopsis_names_every_flag_of_the_parser():
    commands = _subcommands(build_parser())
    modes = _subcommands(commands.pop("verify"))
    parsers = {**commands, **{f"verify {mode}": p for mode, p in modes.items()}}
    want = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in parsers.items()
    }
    assert _readme_synopsis() == want


def test_run_experiment_checks_and_ignores_workers(small_config):
    cfg = load_config(small_config)
    one = run_experiment(cfg)
    three = run_experiment(cfg, workers=3)
    assert three.csv_rows() == one.csv_rows()
    assert three.to_json_dict() == one.to_json_dict()
    with pytest.raises(DomainError, match="workers"):
        run_experiment(cfg, workers=0)


def test_atomic_write_cleans_up_and_reraises_when_replace_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        runner._atomic_write(str(tmp_path / "out" / "x.csv"), "a,b\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_run_experiment_library_roundtrip(small_config):
    cfg = load_config(small_config)
    bundle = run_experiment(cfg)
    rematerialized = bundle.provenance["config"]
    from aoisched.config import parse_config

    again = run_experiment(parse_config(rematerialized))
    assert again.csv_rows() == bundle.csv_rows()
    assert again.to_json_dict() == bundle.to_json_dict()
