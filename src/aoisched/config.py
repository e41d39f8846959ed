"""Experiment configuration: parsing, validation, canonical serialization.

Configs are YAML mappings. Policies are written in a compact grammar:

    whittle | round_robin | max_age | dp
    randomized(p1, ..., pN)
    cycle(i1, i2, ...)          # 1-based source indices

``dp`` is not a simulatable policy; listing it asks the runner to solve the
finite-horizon DP and report its exact optimal cost as a result row.

Every config hashes to a stable sha256 over its canonical JSON form, and any
valid config round-trips through serialize/parse hash-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import yaml

from . import cost as costmod
from .errors import ConfigError, DomainError
from .policies import (
    FixedCycle,
    MaxAge,
    RoundRobin,
    StationaryRandomized,
    Source,
    SystemSpec,
    Whittle,
)

DEFAULT_HORIZON = 500
DEFAULT_RUNS_UNRELIABLE = 500


@dataclass(frozen=True)
class DpOptions:
    enabled: bool = False
    a_max: Optional[int] = None
    memory_budget: Optional[int] = None
    auto_double: int = 2

    def to_dict(self) -> dict:
        out = {"enabled": self.enabled, "auto_double": self.auto_double}
        if self.a_max is not None:
            out["a_max"] = self.a_max
        if self.memory_budget is not None:
            out["memory_budget"] = self.memory_budget
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    sources: tuple
    policy_specs: tuple
    horizon: int
    runs: int
    seed: int
    dp: DpOptions = field(default_factory=DpOptions)

    @property
    def system(self) -> SystemSpec:
        return SystemSpec(self.sources)

    @property
    def policies(self) -> list:
        """(label, Policy-or-'dp') pairs in config order."""
        return [(s, parse_policy_spec(s, len(self.sources))) for s in self.policy_specs]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sources": [
                {"cost": s.cost.to_config(), "p": s.p} for s in self.sources
            ],
            "policies": list(self.policy_specs),
            "horizon": self.horizon,
            "runs": self.runs,
            "seed": self.seed,
            "dp": self.dp.to_dict(),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_POLICY_RE = re.compile(r"^\s*(\w+)\s*(?:\((.*)\))?\s*$")

# the policy heads that take no arguments, each with its class
_PLAIN = {"whittle": Whittle, "round_robin": RoundRobin, "max_age": MaxAge}


def parse_policy_spec(spec: str, n_sources: int):
    """Parse one policy grammar string; 'dp' returns the string itself."""
    m = _POLICY_RE.match(spec)
    if not m:
        raise ConfigError(f"unparseable policy spec {spec!r}")
    head, args = m.group(1), m.group(2)
    if head == "dp" or head in _PLAIN:
        if args is not None:  # an empty "()" counts as arguments
            raise ConfigError(f"{head} takes no arguments")
        return "dp" if head == "dp" else _PLAIN[head]()
    try:
        if head == "randomized":
            probs = _float_args(head, args)
            if len(probs) != n_sources:
                raise ConfigError(
                    f"randomized needs {n_sources} probabilities, got {len(probs)}"
                )
            return StationaryRandomized(tuple(probs))
        if head == "cycle":
            idx = _float_args(head, args)
            acts = []
            for v in idx:
                if not v.is_integer() or not 1 <= v <= n_sources:
                    raise ConfigError(f"cycle index {v} out of range 1..{n_sources}")
                acts.append(int(v) - 1)
            return FixedCycle(tuple(acts))
    except DomainError as e:
        raise ConfigError(f"policy {spec!r}: {e}") from None
    raise ConfigError(f"unknown policy {head!r}")


def _float_args(head, args):
    if not args:
        raise ConfigError(f"{head} needs arguments")
    try:
        return [float(tok) for tok in args.split(",")]
    except ValueError:
        raise ConfigError(f"{head} arguments must be numbers, got {args!r}") from None


def policy_label(policy) -> str:
    """Canonical grammar string for a policy object (CSV row label)."""
    for head, kind in _PLAIN.items():
        if isinstance(policy, kind):
            return head
    if isinstance(policy, StationaryRandomized):
        return "randomized(" + ",".join(repr(q) for q in policy.probs) + ")"
    if isinstance(policy, FixedCycle):
        return "cycle(" + ",".join(str(a + 1) for a in policy.actions) + ")"
    raise ConfigError(f"no grammar label for {policy!r}")


def parse_config(data, name_hint: str = "") -> ExperimentConfig:
    """Validate a config mapping into an ExperimentConfig; error messages
    carry the offending field path."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    known = {"name", "sources", "policies", "horizon", "runs", "seed", "dp"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}")

    name = data.get("name", name_hint)
    if not isinstance(name, str) or not name:
        raise ConfigError("name: must be a non-empty string")

    raw_sources = data.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise ConfigError("sources: must be a non-empty list")
    sources = []
    for i, rec in enumerate(raw_sources):
        path = f"sources[{i}]"
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}: must be a mapping with 'cost' and 'p'")
        extra = sorted(set(rec) - {"cost", "p"})
        if extra:
            raise ConfigError(f"{path}: unknown fields {extra}")
        if "cost" not in rec:
            raise ConfigError(f"{path}.cost: missing")
        try:
            f = costmod.from_config(rec["cost"])
        except DomainError as e:
            raise ConfigError(f"{path}.cost: {e}") from None
        p = _checked(costmod.validate_probability, rec.get("p", 1.0), f"{path}.p")
        sources.append(Source(f, float(p)))

    raw_policies = data.get("policies")
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError("policies: must be a non-empty list")
    # canonical label -> index of the spec that first gave it
    labels = {}
    for j, s in enumerate(raw_policies):
        if not isinstance(s, str):
            raise ConfigError(f"policies[{j}]: must be a grammar string")
        try:
            pol = parse_policy_spec(s, len(sources))
        except ConfigError as e:
            raise ConfigError(f"policies[{j}]: {e}") from None
        # one CSV row and one JSON entry per label
        label = "dp" if pol == "dp" else policy_label(pol)
        if label in labels:
            raise ConfigError(f"policies[{j}]: {label!r} repeats policies[{labels[label]}]")
        labels[label] = j

    horizon = _checked(costmod.validate_count, "horizon", data.get("horizon", DEFAULT_HORIZON))
    any_unreliable = any(s.p < 1 for s in sources)
    default_runs = DEFAULT_RUNS_UNRELIABLE if any_unreliable else 1
    runs = _checked(costmod.validate_count, "runs", data.get("runs", default_runs))
    seed = _checked(costmod.validate_seed, data.get("seed", 0))

    dp_raw = data.get("dp", {})
    if not isinstance(dp_raw, dict):
        raise ConfigError("dp: must be a mapping")
    extra = sorted(set(dp_raw) - {"enabled", "a_max", "memory_budget", "auto_double"})
    if extra:
        raise ConfigError(f"dp: unknown fields {extra}")
    dp_enabled = dp_raw.get("enabled", "dp" in labels)
    if not isinstance(dp_enabled, bool):
        raise ConfigError("dp.enabled: must be a boolean")
    if "dp" in labels and not dp_enabled:
        raise ConfigError(f"dp.enabled: false, but policies[{labels['dp']}] lists dp")
    a_max = dp_raw.get("a_max")
    if a_max is not None:
        a_max = _checked(costmod.validate_count, "dp.a_max", a_max, 2)
    budget = dp_raw.get("memory_budget")
    if budget is not None:
        budget = _checked(costmod.validate_count, "dp.memory_budget", budget)
    auto_double = dp_raw.get("auto_double", 2)
    auto_double = _checked(costmod.validate_count, "dp.auto_double", auto_double, 0)

    return ExperimentConfig(
        name=name,
        sources=tuple(sources),
        policy_specs=tuple(raw_policies),
        horizon=horizon,
        runs=runs,
        seed=seed,
        dp=DpOptions(dp_enabled, a_max, budget, auto_double),
    )


def _checked(check, *args):
    """check(*args), refusing with a ConfigError of the check's own message;
    callers pass the field path as the check's name, so it names the field."""
    try:
        return check(*args)
    except DomainError as e:
        raise ConfigError(str(e)) from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"unparseable YAML in {path}: {e}") from None
    hint = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return parse_config(data, name_hint=hint)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


# -- bundled experiment configs -----------------------------------------------


def bundled_config_names() -> list:
    """Names of the experiment configs shipped inside the package."""
    pkg = resources.files("aoisched") / "configs"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def bundled_config(name: str) -> ExperimentConfig:
    pkg = resources.files("aoisched") / "configs" / f"{name}.yaml"
    if not pkg.is_file():
        raise ConfigError(f"no bundled config named {name!r}; see bundled_config_names()")
    data = yaml.safe_load(pkg.read_text(encoding="utf-8"))
    return parse_config(data, name_hint=name)
