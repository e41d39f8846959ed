"""Experiment orchestration: solve, simulate, verify, and serialize.

One experiment = one config. The runner solves the DP when enabled, then
simulates every listed policy; deterministic policies on reliable channels
additionally get their exact recurrent cycle attached. Output is one CSV row
per (setting, policy) plus a JSON sidecar whose provenance block (canonical
config, hash, seed, tool version) suffices to re-run bit-identically.

Source indices are 1-based in CSV/JSON output; the Python API is 0-based.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from . import dp as dpmod
from .config import ExperimentConfig, policy_label
from .errors import AdmissibilityError, ConfigError
from .policies import is_deterministic
from .sim import Cycle, SimulationResult, detect_cycle, simulate

CSV_COLUMNS = ("setting", "policy", "mean_cost", "stderr", "runs", "horizon", "seed")


@dataclass(frozen=True)
class PolicyResult:
    label: str
    result: SimulationResult
    cycle: Optional[Cycle] = None


@dataclass(frozen=True)
class ResultBundle:
    config: ExperimentConfig
    policy_results: tuple
    dp_solution: Optional[dpmod.DpSolution] = None
    dp_cycle: Optional[Cycle] = None
    certificates: tuple = field(default=())

    @property
    def provenance(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash,
            "seed": self.config.seed,
            "tool_version": __version__,
        }

    def csv_rows(self) -> list:
        rows = []
        if self.dp_solution is not None:
            sol = self.dp_solution
            rows.append(("dp", sol.optimal_average_cost, 0.0, 1, sol.horizon, self.config.seed))
        for pr in self.policy_results:
            r = pr.result
            rows.append((pr.label, r.mean_cost, r.stderr, r.runs, r.horizon, r.seed))
        return [dict(zip(CSV_COLUMNS, (self.config.name, *row))) for row in rows]

    def to_json_dict(self) -> dict:
        out = {"name": self.config.name, "provenance": self.provenance, "policies": {}}
        for pr in self.policy_results:
            entry = {
                "mean_cost": pr.result.mean_cost,
                "stderr": pr.result.stderr,
                "runs": pr.result.runs,
                "horizon": pr.result.horizon,
                "per_source_costs": list(pr.result.per_source_costs),
            }
            if pr.cycle is not None:
                entry["cycle"] = _cycle_dict(pr.cycle)
            out["policies"][pr.label] = entry
        if self.dp_solution is not None:
            out["dp"] = _dp_dict(self.dp_solution, self.dp_cycle)
        if self.certificates:
            out["certificates"] = list(self.certificates)
        return out


def _dp_dict(sol: dpmod.DpSolution, cycle: Optional[Cycle]) -> dict:
    """The DP summary of the JSON outputs, with its cycle when given."""
    out = {
        "optimal_average_cost": sol.optimal_average_cost,
        "upper_bound": sol.upper_bound,
        "horizon": sol.horizon,
        "a_max": sol.box.a_max,
        "initial_state": list(sol.initial_state),
        "truncation_report": sol.truncation_report,
        "warnings": list(sol.warnings),
    }
    if cycle is not None:
        out["cycle"] = _cycle_dict(cycle)
    return out


def _cycle_dict(cycle: Cycle) -> dict:
    return {
        "states": [list(s) for s in cycle.states],
        "actions": [a + 1 for a in cycle.actions],  # 1-based for humans
        "length": cycle.length,
        "average_cost": cycle.average_cost,
    }


def solve_dp(config: ExperimentConfig) -> dpmod.DpSolution:
    """The config's DP solution, as `run_experiment` and `aoisched dp` solve it."""
    budget = config.dp.memory_budget
    return dpmod.finite_horizon_dp_auto(
        config.system,
        config.horizon,
        a_max=config.dp.a_max,
        max_doublings=config.dp.auto_double,
        memory_budget=dpmod.DEFAULT_MEMORY_BUDGET if budget is None else budget,
    )


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    allow_divergent: bool = False,
    workers: int = 1,
) -> ResultBundle:
    """Execute one experiment config end to end.

    A source that provably diverges (unbounded cost series for its channel)
    aborts the run unless allow_divergent is set; the override exists for the
    divergence demonstration, which needs randomized policies on settings no
    sensible schedule should simulate.
    """
    spec = config.system
    if not allow_divergent:
        try:
            spec.require_bounded()
        except AdmissibilityError as e:
            raise ConfigError(
                f"{config.name}: {e}; pass allow_divergent to simulate regardless"
            ) from None

    dp_solution = solve_dp(config) if config.dp.enabled else None
    dp_cycle = None
    if dp_solution is not None and spec.reliable:
        dp_cycle = dpmod.extract_cycle_policy(dp_solution)

    results = []
    for label, policy in config.policies:
        if policy == "dp":
            continue
        res = simulate(
            spec,
            policy,
            horizon=config.horizon,
            runs=config.runs,
            seed=config.seed,
            workers=workers,
        )
        cyc = None
        if spec.reliable and is_deterministic(policy):
            cyc = detect_cycle(spec, policy)
        results.append(PolicyResult(label=policy_label(policy), result=res, cycle=cyc))

    bundle = ResultBundle(
        config=config,
        policy_results=tuple(results),
        dp_solution=dp_solution,
        dp_cycle=dp_cycle,
    )
    if out_dir is not None:
        write_bundle(bundle, out_dir)
    return bundle


# -- serialization --------------------------------------------------------------


def render_csv(rows) -> str:
    """Deterministic CSV text; floats use their shortest round-trip form."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bundle(bundle: ResultBundle, out_dir) -> tuple:
    """Write <name>.csv and <name>.json atomically; returns the two paths."""
    name = bundle.config.name
    csv_path = os.path.join(str(out_dir), f"{name}.csv")
    json_path = os.path.join(str(out_dir), f"{name}.json")
    _atomic_write(csv_path, render_csv(bundle.csv_rows()))
    _atomic_write(
        json_path,
        json.dumps(bundle.to_json_dict(), sort_keys=True, indent=2) + "\n",
    )
    return csv_path, json_path


def render_cost_table(bundles, reference: Optional[dict] = None) -> str:
    """Human table of DP and whittle costs, two decimals per the usual
    presentation; optional reference values are shown alongside."""
    lines = []
    header = f"{'setting':<12}{'dp':>10}{'whittle':>10}"
    if reference:
        header += f"{'dp_ref':>10}{'whittle_ref':>13}"
    lines.append(header)
    lines.append("-" * len(header))
    for b in bundles:
        dp_cost = b.dp_solution.optimal_average_cost if b.dp_solution else float("nan")
        whittle = next(
            (pr.result.mean_cost for pr in b.policy_results if pr.label == "whittle"),
            float("nan"),
        )
        line = f"{b.config.name:<12}{dp_cost:>10.2f}{whittle:>10.2f}"
        if reference and b.config.name in reference:
            rd, rw = reference[b.config.name]
            line += f"{rd:>10.2f}{rw:>13.2f}"
        lines.append(line)
    return "\n".join(lines)
