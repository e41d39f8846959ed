"""The benchmark's four workloads: seeded inputs, library calls and checks.

A workload is built from a seed into a list of items. Each item calls into
the library once (``run``), checks its own output against the library's
invariants (``check``, returning a list of problems) and reduces the output
to a JSON-able digest (``digest``). Digests are compared bit for bit between
passes of one run and, at the default seed, against ``pins.json``.

Every workload is a closed loop: one caller runs the items in sequence,
single-threaded, with ``workers=1``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from aoisched import config, cost, decoupled, policies, runner, sim, structure

LOSSY = ("table1_A2", "table1_B2", "table1_C2", "table2_D2", "table2_E2", "table2_F2")
RELIABLE = ("table1_A1", "table1_B1", "table1_C1", "table2_D1", "table2_E1", "table2_F1")
COST_KINDS = ("linear", "power", "exponential", "logarithmic", "indicator", "table")

SWEEP_CHARGES = 50
SCALE_AGE = 25  # sweep charges run up to 1.3x the index here (or at the plateau)
INDEX_TABLE_AGES = 2000
RVI_CHARGES = 3
RVI_AGES = 40  # past the plateau of every bounded cost drawn (indicator < 30, table < 12)
CERT_REPEATS = 3  # certificates per ordered pair of cost kinds


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object]


def build(name: str, seed: int, work_dir: str) -> list:
    """Load configs and generate the inputs of one workload; items that
    write files write them into `work_dir`."""
    return BUILDERS[name](seed, work_dir)


# -- dp_lossy_e2 ----------------------------------------------------------------


def _dp_lossy_e2(seed, work_dir):
    cfg = dataclasses.replace(config.bundled_config("table2_E2"), seed=seed)
    return [
        Item(
            "table2_E2",
            lambda: runner.run_experiment(cfg, out_dir=work_dir, workers=1),
            lambda b: _check_experiment(b, work_dir),
            _experiment_digest,
        )
    ]


def _check_experiment(bundle, out_dir=None) -> list:
    problems = []
    sol = bundle.dp_solution
    if sol is None:
        return ["no DP solution"]
    if not (math.isfinite(sol.optimal_average_cost) and sol.optimal_average_cost > 0):
        problems.append(f"DP cost {sol.optimal_average_cost!r} is not a positive number")
    rep = sol.truncation_report
    if not (isinstance(rep, float) and 0.0 <= rep <= 1.0 + 1e-9):
        problems.append(f"truncation report {rep!r} not recorded as a probability")
    spec = bundle.config.system
    for pr in bundle.policy_results:
        problems += _check_sim(spec, pr.result, f"{pr.label}: ")
        if spec.reliable:
            problems += _check_cycle(spec, pr.cycle, f"{pr.label} cycle: ")
    if spec.reliable:
        problems += _check_cycle(spec, bundle.dp_cycle, "dp cycle: ")
    if out_dir is not None:
        problems += _check_written(bundle, out_dir)
    return problems


def _check_written(bundle, out_dir) -> list:
    name = bundle.config.name
    with open(os.path.join(out_dir, f"{name}.json"), encoding="utf-8") as fh:
        side = json.load(fh)
    with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    sol = bundle.dp_solution
    dp = side.get("dp", {})
    if dp.get("truncation_report") != sol.truncation_report:
        problems.append("JSON sidecar does not record the truncation report")
    if dp.get("optimal_average_cost") != sol.optimal_average_cost or dp.get("a_max") != sol.box.a_max:
        problems.append("JSON sidecar disagrees with the DP solution")
    want = [r["policy"] for r in bundle.csv_rows()]
    if [r["policy"] for r in rows] != want:
        problems.append(f"CSV rows {[r['policy'] for r in rows]} != {want}")
    elif float(rows[0]["mean_cost"]) != sol.optimal_average_cost:
        problems.append("CSV dp row disagrees with the DP solution")
    return problems


def _experiment_digest(bundle):
    sol = bundle.dp_solution
    out = {
        "dp_cost": sol.optimal_average_cost,
        "a_max": sol.box.a_max,
        "truncation_report": sol.truncation_report,
        "policies": {pr.label: _sim_digest(pr.result) for pr in bundle.policy_results},
    }
    for pr in bundle.policy_results:
        if pr.cycle is not None:
            out["policies"][pr.label]["cycle_actions"] = list(pr.cycle.actions)
    if bundle.dp_cycle is not None:
        out["dp_cycle_actions"] = list(bundle.dp_cycle.actions)
    return out


# -- mc_lossy -------------------------------------------------------------------


def _mc_lossy(seed, work_dir):
    items = []
    for name in LOSSY:
        cfg = config.bundled_config(name)
        spec = cfg.system
        n = spec.n_sources
        pols = (
            policies.Whittle(),
            policies.MaxAge(),
            policies.RoundRobin(),
            policies.StationaryRandomized((1.0 / n,) * n),
        )
        for pol in pols:
            label = f"{name}/{config.policy_label(pol)}"
            items.append(
                Item(
                    label,
                    _simulate_call(spec, pol, cfg.horizon, cfg.runs, seed),
                    lambda r, spec=spec, cfg=cfg: _check_sim(spec, r, "", cfg.runs, cfg.horizon),
                    _sim_digest,
                )
            )
    return items


def _simulate_call(spec, pol, horizon, runs, seed):
    return lambda: sim.simulate(spec, pol, horizon=horizon, runs=runs, seed=seed, workers=1)


def _check_sim(spec, res, where, runs=None, horizon=None) -> list:
    problems = []
    floor = math.fsum(s.cost(1) for s in spec.sources)  # every age is at least 1
    if not (math.isfinite(res.mean_cost) and res.mean_cost >= floor * (1 - 1e-12)):
        problems.append(f"{where}mean {res.mean_cost!r} below the all-ones cost {floor!r}")
    if not (math.isfinite(res.stderr) and res.stderr >= 0.0):
        problems.append(f"{where}stderr {res.stderr!r} is not a non-negative number")
    if res.runs > 1 and not spec.reliable and res.stderr == 0.0:
        problems.append(f"{where}zero stderr over {res.runs} lossy runs")
    parts = math.fsum(res.per_source_costs)
    if abs(parts - res.mean_cost) > 1e-9 * max(1.0, abs(res.mean_cost)):
        problems.append(f"{where}per-source costs sum to {parts!r}, not {res.mean_cost!r}")
    if runs is not None and (res.runs, res.horizon) != (runs, horizon):
        problems.append(f"{where}ran {res.runs}x{res.horizon}, asked {runs}x{horizon}")
    return problems


def _sim_digest(res):
    return {"mean": res.mean_cost, "stderr": res.stderr}


# -- index_sweep ----------------------------------------------------------------


def _random_cost(rng, kind, p, base_u=None):
    """One cost function of `kind`, parameters drawn as in the test suite's
    random_cost; exponential bases keep the cost bounded at p. `base_u`, a
    uniform on [0, 1), sets the exponential base's quantile when given.

    Constant costs (an indicator from age 1, a one-value table) are left
    out: their index is 0 at every age, so every positive charge gives
    NEVER and none of the three items has work to do."""
    w = float(rng.uniform(0.5, 10.0))
    if kind == "linear":
        return cost.linear(w)
    if kind == "power":
        return cost.power(w, float(rng.uniform(1.0, 3.0)))
    if kind == "exponential":
        hi = 3.0 if p == 1.0 else min(3.0, 0.95 / (1.0 - p))
        if hi <= 1.05:
            return cost.linear(w)
        u = float(rng.random()) if base_u is None else base_u
        return cost.exponential(1.05 + u * (hi - 1.05), float(rng.uniform(0.5, 3.0)))
    if kind == "logarithmic":
        return cost.logarithmic(float(rng.uniform(1.0, 20.0)))
    if kind == "indicator":
        return cost.indicator(int(rng.integers(2, 30)), w)
    vals = np.cumsum(rng.uniform(0.0, 2.0, size=int(rng.integers(2, 12))))
    return cost.table(tuple(float(v) for v in vals))


def _index_sweep(seed, work_dir):
    """24 (f, p) pairs, a stratified sample of the test suite's
    random_cost_and_p distribution (kind uniform; p = 1 with probability
    1/4, else uniform on [0.15, 1)).

    Each kind gets one reliable pair and three lossy ones. The 18 lossy p
    values fill 18 equal strata of [0.15, 1), one each, so every kind gets
    one p in each third of the range; the lossy exponential bases likewise
    take one stratum of their range each. p and the exponential base set
    the length of the index series, so stratifying them keeps a pass's
    work nearly the same at every seed; the other parameters are drawn
    plainly.

    Each pair gives three items: an indexability sweep over 50 charges, an
    index table out to age 2000 and RVI solves at 3 index charges. The
    RVI ages are tried in seeded order: one from each of 1-8, 9-16 and
    17-25 first (the age sets the threshold, and with it the RVI's work),
    then the rest of 1-25, then 26-40 for the bounded costs whose index is
    still 0 there."""
    rng = np.random.default_rng(seed)
    n_kinds = len(COST_KINDS)
    width = 0.85 / (3 * n_kinds)
    items = []
    for k, kind in enumerate(COST_KINDS):
        pairs = [(1.0, None)]
        for j in range(3):
            stratum = n_kinds * j + (k + 2 * j) % n_kinds
            p = 0.15 + (stratum + float(rng.random())) * width
            pairs.append((p, ((j + 1) % 3 + float(rng.random())) / 3))
        for p, base_u in pairs:
            f = _random_cost(rng, kind, p, base_u)
            u = rng.uniform(0.0, 1.3, size=60)
            thirds = [rng.permutation(np.arange(lo, hi)) for lo, hi in ((1, 9), (9, 17), (17, 26))]
            ages = [int(t[0]) for t in thirds] + [int(h) for t in thirds for h in t[1:]]
            ages += [int(h) for h in rng.permutation(np.arange(26, RVI_AGES + 1))]
            label = f"{kind}/p={p:.3f}"
            items += [
                Item(
                    f"{label}/sweep",
                    lambda f=f, p=p, u=u: _sweep(f, p, u),
                    lambda out, f=f, p=p: _check_sweep(f, p, *out),
                    lambda out: [None if t.is_never else t.threshold for t in out[1]],
                ),
                Item(
                    f"{label}/index_table",
                    lambda f=f, p=p: _index_row(f, p),
                    _check_row,
                    lambda row: [math.fsum(row), float(row[-1]), len(row)],
                ),
                Item(
                    f"{label}/rvi",
                    lambda f=f, p=p, ages=ages: _rvi_at_index_charges(f, p, ages),
                    lambda rvi, f=f, p=p: _check_rvi(f, p, rvi),
                    lambda rvi: [[h, thr] for h, _, _, thr in rvi],
                ),
            ]
    return items


def _sweep(f, p, u):
    """Thresholds at 50 charges spread over [0, 1.3 W(h)], h = SCALE_AGE or,
    for a bounded cost, its plateau start, where W reaches its supremum: a
    sweep meets finite thresholds and, on bounded costs, NEVER too."""
    h = max(SCALE_AGE, f.plateau_start) if f.is_bounded_function else SCALE_AGE
    charges = np.unique(u * float(decoupled.whittle_index(f, p, h)))[:SWEEP_CHARGES]
    return charges, decoupled.indexability_sweep(f, p, charges)


def _index_row(f, p):
    cap = cost.max_representable_age(f)
    width = INDEX_TABLE_AGES if cap is None else min(INDEX_TABLE_AGES, cap - 1)
    spec = policies.SystemSpec((policies.Source(f, p),))
    return policies.whittle_index_table(spec, width)[0]


def _rvi_at_index_charges(f, p, ages):
    """RVI at C = W(h) for the first RVI_CHARGES ages h (in seeded order)
    with a positive index. `strict` marks the ages where the index strictly
    increases on both sides of h, so the optimal thresholds are exactly h
    and h + 1; elsewhere a flat index leaves more of them optimal."""
    out = []
    for h in ages:
        if len(out) == RVI_CHARGES:
            break
        w_h = float(decoupled.whittle_index(f, p, h))
        if not w_h > 0.0:
            continue  # a zero charge trivially means always activate
        w_prev = 0.0 if h == 1 else float(decoupled.whittle_index(f, p, h - 1))
        w_next = float(decoupled.whittle_index(f, p, h + 1))
        gap = 1e-9 * max(1.0, abs(w_h))
        strict = w_prev + gap < w_h < w_next - gap
        sol = decoupled.decoupled_value_iteration(decoupled.DecoupledProblem(f, p, w_h))
        out.append((h, w_h, strict, None if sol.policy.is_never else sol.policy.threshold))
    return out


def _sandwich_holds(f, p, H, C, slack=1e-9) -> bool:
    """The two-sided optimality condition at threshold H, charge C, written
    out from the cost series (independent of the library's own re-check)."""
    if p == 1.0:
        lam = (cost.prefix_sum(f, H) + C) / H
        lo, hi = cost.evaluate(f, H), cost.evaluate(f, H + 1)
        tol = slack * max(1.0, abs(lam))
        return lo <= lam + tol and lam <= hi + tol
    q = 1.0 - p
    tail_h = decoupled.discounted_tail(f, p, H, tol=1e-12)
    lower = p * p * (H - 1) * (cost.evaluate(f, H) + q * tail_h) - p * (
        cost.prefix_sum(f, H - 1) if H > 1 else 0.0
    )
    upper = p * p * H * tail_h - p * cost.prefix_sum(f, H)
    tol = slack * max(1.0, abs(C))
    return lower <= C + tol and C <= upper + tol


def _never_holds(f, p, C, slack=1e-9) -> bool:
    """NEVER is optimal at charge C when no threshold policy H costs less
    than never activating, whose average cost tends to f's plateau value.
    From the plateau start P on, every threshold costs the same, so
    H = 1..P cover them all; an unbounded cost never allows NEVER."""
    if not f.is_bounded_function:
        return False
    top = f.plateau_start
    f_max = cost.evaluate(f, top)
    tol = slack * max(1.0, abs(C))
    for H in range(1, top + 1):
        # threshold_policy_average_cost(f, p, H, C) >= f_max, solved for C
        tail_h = decoupled.discounted_tail(f, p, H, tol=1e-12)
        need = (1 + p * (H - 1)) * f_max - p * cost.prefix_sum(f, H) - p * (1 - p) * tail_h
        if C + tol < need:
            return False
    return True


def _check_sweep(f, p, charges, sweep) -> list:
    problems = []
    values = [math.inf if t.is_never else t.threshold for t in sweep]
    if len(sweep) != len(charges):
        problems.append(f"{len(sweep)} thresholds for {len(charges)} charges")
    if values != sorted(values):
        problems.append("thresholds not monotone in the charge")
    for c, pol in zip(charges, sweep):
        if pol.is_never:
            if not _never_holds(f, p, float(c)):
                problems.append(f"NEVER is not optimal at C={c!r}")
        elif not _sandwich_holds(f, p, pol.threshold, float(c)):
            problems.append(f"threshold {pol.threshold} fails its two-sided condition at C={c!r}")
    return problems


def _check_row(row) -> list:
    drop = float(np.min(np.diff(row))) if row.size > 1 else 0.0
    if not np.all(np.isfinite(row)) or drop < -1e-9 * max(1.0, float(np.max(np.abs(row)))):
        return ["index row is not finite and non-decreasing"]
    return []


def _check_rvi(f, p, rvi) -> list:
    problems = []
    if len(rvi) != RVI_CHARGES:
        problems.append(f"RVI solved at {len(rvi)} index charges, not {RVI_CHARGES}")
    for h, c, strict, thr in rvi:
        ok = _never_holds(f, p, c) if thr is None else _sandwich_holds(f, p, thr, c)
        if not ok or (strict and thr not in (h, h + 1)):
            problems.append(f"RVI threshold {thr} at the index charge of h={h} (C={c!r})")
    return problems


# -- reliable_cert --------------------------------------------------------------


def _random_reliable_cost(rng, kind):
    if kind == 0:
        return cost.linear(float(rng.uniform(0.5, 15)))
    if kind == 1:
        return cost.power(float(rng.uniform(0.5, 5)), float(rng.uniform(1.2, 3)))
    if kind == 2:
        return cost.exponential(float(rng.uniform(1.5, 3)), float(rng.uniform(0.5, 3)))
    return cost.logarithmic(float(rng.uniform(5, 25)))


def _reliable_cert(seed, work_dir):
    items = []
    for name in RELIABLE:
        cfg = dataclasses.replace(config.bundled_config(name), seed=seed)
        items.append(
            Item(
                name,
                lambda cfg=cfg: runner.run_experiment(cfg, workers=1),
                _check_experiment,
                _experiment_digest,
            )
        )
    # The acceptance suite's theorem-3 distribution, stratified: every
    # ordered pair of its four cost kinds CERT_REPEATS times (certificates
    # led by a logarithmic cost take longer, so their share stays fixed).
    # Pairs whose best cycle has k > 12 are redrawn, which keeps the optimal
    # cycle well inside the DP box.
    rng = np.random.default_rng(seed)
    for _ in range(CERT_REPEATS):
        for k1 in range(4):
            for k2 in range(4):
                for _ in range(1000):
                    f1, f2 = _random_reliable_cost(rng, k1), _random_reliable_cost(rng, k2)
                    if structure.best_two_source_cycle(f1, f2, k_max=1000).k <= 12:
                        break
                else:
                    raise RuntimeError(f"no pair of kinds {k1}, {k2} with best cycle k <= 12")
                items.append(
                    Item(
                        f"cert[{len(items) - len(RELIABLE)}]",
                        lambda f1=f1, f2=f2: structure.certify_theorem3(f1, f2),
                        _check_cert,
                        _cert_digest,
                    )
                )
    return items


def _check_cycle(spec, cyc, where) -> list:
    """A recurrent cycle must close under the reliable dynamics and carry the
    exact average of its states' costs."""
    if cyc is None:
        return [f"{where}missing"]
    n = spec.n_sources
    problems = []
    if not all(0 <= a < n for a in cyc.actions):
        problems.append(f"{where}action out of range")
        return problems
    for i, (s, a) in enumerate(zip(cyc.states, cyc.actions)):
        nxt = [x + 1 for x in s]
        nxt[a] = 1
        if tuple(nxt) != tuple(cyc.states[(i + 1) % cyc.length]):
            problems.append(f"{where}state {s} does not lead to the next cycle state")
            break
    avg = math.fsum(spec.state_cost(s) for s in cyc.states) / cyc.length
    if avg != cyc.average_cost:
        problems.append(f"{where}average {cyc.average_cost!r} != {avg!r}")
    return problems


def _check_cert(cert) -> list:
    if cert.ok:
        return []
    return [f"certificate check {c.name} failed: {c.detail}" for c in cert.failures]


def _cert_digest(cert):
    return {
        "ok": cert.ok,
        "dp_cost": cert.dp_cost,
        "whittle_cycle_actions": list(cert.whittle_cycle.actions),
        "whittle_cycle_cost": cert.whittle_cycle.average_cost,
        "best_cycle": [cert.best_cycle.leader, cert.best_cycle.k],
    }


BUILDERS = {
    "dp_lossy_e2": _dp_lossy_e2,
    "mc_lossy": _mc_lossy,
    "index_sweep": _index_sweep,
    "reliable_cert": _reliable_cert,
}
