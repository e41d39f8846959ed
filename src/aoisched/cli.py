"""Command-line interface.

Subcommands: run, index, threshold, dp, verify, tables. Exit codes: 0 on
success, 1 for usage or configuration errors, 2 when a verification fails,
3 for capacity or convergence problems. The AOISCHED_OUT environment
variable overrides the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from . import cost as costmod
from . import dp as dpmod
from .config import _float_args, bundled_config, bundled_config_names, load_config, parse_config
from .decoupled import (
    DecoupledProblem,
    indexability_sweep,
    optimal_threshold,
    whittle_index,
)
from .errors import AoiSchedError, CapacityError, ConfigError, ConvergenceError
from .runner import _dp_dict, render_cost_table, run_experiment, solve_dp, write_bundle
from .structure import certify_theorem3, check_strong_switch

USAGE_EXIT, VERIFY_EXIT, CAPACITY_EXIT = 1, 2, 3

TABLE_REFERENCE = {
    "table1_A1": (21.95, 21.95),
    "table1_A2": (36.12, 36.28),
    "table1_B1": (8.48, 8.48),
    "table1_B2": (23.16, 23.37),
    "table1_C1": (5.69, 5.69),
    "table1_C2": (21.54, 21.54),
    "table2_D1": (44.23, 44.23),
    "table2_D2": (161.19, 161.39),
    "table2_E1": (73.36, 73.36),
    "table2_E2": (129.02, 130.94),
    "table2_F1": (87.66, 88.27),
    "table2_F2": (158.35, 159.81),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _cost_arg(text: str):
    try:
        rec = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"unparseable cost spec {text!r}: {e}") from None
    if not isinstance(rec, dict):
        raise ConfigError(f"cost spec must be a mapping, got {text!r}")
    return costmod.from_config(rec)


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("AOISCHED_OUT", "results")


_WORKERS_HELP = (
    "split the Monte Carlo runs into K blocks, simulated in sequence without threads; "
    "results are identical at any K"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoisched", description=__doc__)
    parser.add_argument("--version", action="version", version=f"aoisched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config, write CSV + JSON")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--out", help="output directory (default: AOISCHED_OUT or ./results)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--workers", type=int, default=1, metavar="K", help=_WORKERS_HELP)
    p_run.add_argument(
        "--allow-divergent",
        action="store_true",
        help="simulate even when a source provably diverges",
    )
    p_run.set_defaults(handler=_cmd_run)

    p_idx = sub.add_parser("index", help="print whittle index values as CSV")
    p_idx.add_argument("--cost", required=True, help="cost spec, e.g. '{kind: linear, weight: 13}'")
    p_idx.add_argument("--p", type=float, default=1.0)
    p_idx.add_argument("--h-min", type=int, default=1)
    p_idx.add_argument("--h-max", type=int, required=True)
    p_idx.set_defaults(handler=_cmd_index)

    p_thr = sub.add_parser("threshold", help="optimal activation threshold for a charge")
    p_thr.add_argument("--cost", required=True)
    p_thr.add_argument("--p", type=float, default=1.0)
    p_thr.add_argument("--charge", type=float, required=True)
    p_thr.set_defaults(handler=_cmd_threshold)

    p_dp = sub.add_parser("dp", help="solve the finite-horizon DP for a config's sources")
    p_dp.add_argument("--config", required=True)
    p_dp.add_argument("--horizon", type=int, help="override the config's horizon")
    p_dp.add_argument("--a-max", type=int, help="override the config's dp.a_max")
    p_dp.add_argument("--memory-budget", type=int, help="override the config's dp.memory_budget (bytes)")
    p_dp.add_argument("--cycle", action="store_true", help="also emit the recurrent cycle")
    p_dp.set_defaults(handler=_cmd_dp)

    p_ver = sub.add_parser("verify", help="verification modes; exit 2 on violation")
    ver_sub = p_ver.add_subparsers(dest="mode", required=True)
    v_ss = ver_sub.add_parser("strong-switch", help="check a state-action set from JSON")
    v_ss.add_argument("--pairs", required=True, help="JSON file with {states: [...], actions: [...]} (1-based actions)")
    v_ss.set_defaults(handler=_verify_strong_switch)
    v_t3 = ver_sub.add_parser("theorem3", help="two-source optimality certificate")
    v_t3.add_argument("--cost1", required=True)
    v_t3.add_argument("--cost2", required=True)
    v_t3.add_argument("--horizon", type=int, default=500)
    v_t3.add_argument("--a-max", type=int)
    v_t3.set_defaults(handler=_verify_theorem3)
    v_ix = ver_sub.add_parser("indexability", help="threshold monotonicity over a charge sweep")
    v_ix.add_argument("--cost", required=True)
    v_ix.add_argument("--p", type=float, default=1.0)
    v_ix.add_argument("--charges", required=True, help="comma-separated increasing charges")
    v_ix.set_defaults(handler=_verify_indexability)

    p_tab = sub.add_parser("tables", help="regenerate the benchmark tables from bundled configs")
    p_tab.add_argument("--out", help="also write per-setting CSV/JSON here")
    p_tab.add_argument("--only", help="comma-separated subset of bundled config names")
    p_tab.add_argument("--workers", type=int, default=1, metavar="K", help=_WORKERS_HELP)
    p_tab.set_defaults(handler=_cmd_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "workers"):
            costmod.validate_count("--workers", args.workers)
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (CapacityError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CAPACITY_EXIT
    except AoiSchedError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = parse_config({**config.to_dict(), "seed": args.seed})
    bundle = run_experiment(
        config,
        out_dir=_out_dir(args),
        allow_divergent=args.allow_divergent,
        workers=args.workers,
    )
    for row in bundle.csv_rows():
        print(f"{row['setting']},{row['policy']},{row['mean_cost']!r},{row['stderr']!r}")
    return 0


def _cmd_index(args) -> int:
    f = _cost_arg(args.cost)
    if args.h_max < args.h_min:
        raise ConfigError("need h-min <= h-max")
    hs = np.arange(args.h_min, args.h_max + 1)
    rows = zip(hs, whittle_index(f, 1.0, hs), whittle_index(f, args.p, hs))
    print("h,W_reliable,W_unreliable")
    for h, wr, wu in rows:
        print(f"{h},{float(wr)!r},{float(wu)!r}")
    return 0


def _cmd_threshold(args) -> int:
    f = _cost_arg(args.cost)
    policy = optimal_threshold(DecoupledProblem(f, args.p, args.charge))
    print("NEVER" if policy.is_never else policy.threshold)
    return 0


def _cmd_dp(args) -> int:
    data = load_config(args.config).to_dict()
    if args.horizon is not None:
        data["horizon"] = args.horizon
    for name in ("a_max", "memory_budget"):
        if getattr(args, name) is not None:
            data["dp"][name] = getattr(args, name)
    config = parse_config(data)
    if args.cycle and not config.system.reliable:
        raise ConfigError("--cycle needs reliable channels")
    sol = solve_dp(config)
    cyc = dpmod.extract_cycle_policy(sol) if args.cycle else None
    out = {"setting": config.name, **_dp_dict(sol, cyc)}
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _verify_strong_switch(args) -> int:
    try:
        with open(args.pairs, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read pairs file {args.pairs}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"unparseable JSON in {args.pairs}: {e}") from None
    try:
        states, actions = data["states"], data["actions"]
        uneven = len(states) != len(actions)
    except (TypeError, KeyError):
        raise ConfigError("pairs file needs 'states' and 'actions' arrays") from None
    if uneven:
        raise ConfigError(f"pairs file has {len(states)} states but {len(actions)} actions")
    pairs = [(s, costmod.validate_count("action", a) - 1) for s, a in zip(states, actions)]
    violations = check_strong_switch(pairs)
    report = {
        "ok": not violations,
        "violations": [
            {
                "state": list(v.state_a),
                "action": v.action_a + 1,
                "dominating_state": list(v.state_b),
                "its_action": v.action_b + 1,
                "implied_action": v.action_a + 1,
            }
            for v in violations
        ],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if not violations else VERIFY_EXIT


def _verify_theorem3(args) -> int:
    cert = certify_theorem3(
        _cost_arg(args.cost1),
        _cost_arg(args.cost2),
        horizon=args.horizon,
        a_max=args.a_max,
    )
    report = {
        "ok": cert.ok,
        "whittle_cycle_cost": cert.whittle_cycle.average_cost,
        "best_cycle": {
            "leader": cert.best_cycle.leader + 1,
            "k": cert.best_cycle.k,
            "cost": cert.best_cycle.cost,
        },
        "dp_cost": cert.dp_cost,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in cert.checks],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if cert.ok else VERIFY_EXIT


def _verify_indexability(args) -> int:
    f = _cost_arg(args.cost)
    charges = _float_args("charges", args.charges)
    thresholds = indexability_sweep(f, args.p, charges)
    seq = [None if t.is_never else t.threshold for t in thresholds]
    numeric = [float("inf") if v is None else v for v in seq]
    ok = all(b >= a for a, b in zip(numeric, numeric[1:]))
    report = {
        "ok": ok,
        "charges": charges,
        "thresholds": ["NEVER" if v is None else v for v in seq],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if ok else VERIFY_EXIT


def _cmd_tables(args) -> int:
    names = bundled_config_names()
    if args.only:
        wanted = [tok.strip() for tok in args.only.split(",")]
        missing = sorted(set(wanted) - set(names))
        if missing:
            raise ConfigError(f"unknown bundled configs {missing}")
        names = wanted
    bundles = []
    for name in names:
        config = bundled_config(name)
        bundle = run_experiment(config, workers=args.workers)
        if args.out:
            write_bundle(bundle, args.out)
        bundles.append(bundle)
        print(f"finished {name}", file=sys.stderr)
    table1 = [b for b in bundles if b.config.name.startswith("table1")]
    table2 = [b for b in bundles if b.config.name.startswith("table2")]
    if table1:
        print("\nTwo-source settings:")
        print(render_cost_table(table1, TABLE_REFERENCE))
    if table2:
        print("\nThree- and four-source settings:")
        print(render_cost_table(table2, TABLE_REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
