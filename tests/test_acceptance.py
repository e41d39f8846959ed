"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line. Two checks
rest on exact computations rather than on a printed number:

- C3's E2 row. Its printed pair (129.02 optimal, 130.94 whittle) lies below
  the box value for the stated E2 parameters (133.64 at a_max 10, 135.21 at
  15, 135.30 at 30), which is a rigorous lower bound L on the optimum, so no
  policy can reach it. The row asserts the certificate instead: L <= U,
  U - L <= 2% of L, box values non-decreasing across the doubling, whittle's
  Monte Carlo mean >= L - 3 stderr, and both printed costs below L.
- C9's median bar. For two reliable 3^x sources under a coin flip, the
  exact P(running average <= 120) is 0.577 at horizon 60 (exact median
  98.9), 0.463 at 90, 0.385 at 120, 0.306 at 180 and 0.241 at 240. A 100-run
  median stays <= 120 with chance at most 0.26, 1.3e-2, 4.1e-5 and 1.9e-8 at
  those horizons, so the bar is asserted at 240, the first horizon where
  that chance is <= 1e-6, computed by the exact recursion kept in the test.
"""

import math

import numpy as np

from aoisched import cost
from aoisched.config import bundled_config
from aoisched.decoupled import (
    DecoupledProblem,
    decoupled_value_iteration,
    discounted_tail,
    indexability_sweep,
    threshold_policy_average_cost,
    whittle_index,
)
from aoisched.dp import extract_cycle_policy
from aoisched.policies import Source, StationaryRandomized, SystemSpec, Whittle
from aoisched.runner import run_experiment
from aoisched.sim import detect_cycle, divergence_probe, per_slot_costs, simulate
from aoisched.structure import best_two_source_cycle, certify_theorem3, check_strong_switch

from conftest import TABLE_SETTINGS, dp_bundled, dp_box, references_for, system_for

SEED = 20250117
_sim_cache = {}


def sim_for(name):
    if name not in _sim_cache:
        spec = system_for(name)
        runs = 1 if spec.reliable else 500
        _sim_cache[name] = simulate(spec, Whittle(), horizon=500, runs=runs, seed=SEED)
    return _sim_cache[name]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def within(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


def test_c01_table1_reliable_dp_and_whittle_cycles():
    parts = []
    for name in ("A1", "B1", "C1"):
        ref_dp, _ = references_for(name)
        dp_cost = dp_bundled(name).optimal_average_cost
        cyc = detect_cycle(system_for(name), Whittle())
        ok = within(dp_cost, ref_dp, 0.01) and within(cyc.average_cost, ref_dp, 0.01)
        parts.append((name, ok, f"dp={dp_cost:.4f} cycle={cyc.average_cost:.4f} ref={ref_dp}"))
    # the 10*log(x) setting: natural log matches, base-10 does not
    natural = detect_cycle(system_for("C1"), Whittle()).average_cost
    base10 = detect_cycle(
        SystemSpec((Source(cost.power(0.5, 3)), Source(cost.logarithmic(10, base=10)))),
        Whittle(),
    ).average_cost
    log_ok = within(natural, 5.69, 0.01) and not within(base10, 5.69, 0.01)
    parts.append(("C1-log-base", log_ok, f"natural={natural:.4f} base10={base10:.4f}: natural log matches"))
    ok = all(p[1] for p in parts)
    report("C1", ok, "; ".join(f"{n} {'ok' if o else 'FAIL'} ({d})" for n, o, d in parts))
    assert ok, parts


def test_c02_table1_unreliable_monte_carlo():
    parts = []
    for name in ("A2", "B2", "C2"):
        ref_dp, ref_w = references_for(name)
        dp_cost = dp_bundled(name).optimal_average_cost
        res = sim_for(name)
        w_tol = max(0.02 * ref_w, 3 * res.stderr)
        dp_ok = within(dp_cost, ref_dp, 0.02)
        w_ok = abs(res.mean_cost - ref_w) <= w_tol
        parts.append(
            (
                name,
                dp_ok and w_ok,
                f"dp={dp_cost:.3f}/{ref_dp} whittle={res.mean_cost:.3f}±{res.stderr:.3f}/{ref_w}",
            )
        )
    ok = all(p[1] for p in parts)
    report("C2", ok, "; ".join(f"{n} {'ok' if o else 'FAIL'} ({d})" for n, o, d in parts))
    assert ok, parts


def _e2_certificate():
    """E2 row: the printed pair against the certified interval [L, U] of the
    optimum for the stated E2 parameters.

    The box value L is a rigorous lower bound on the 500-slot optimum and U
    is the exact cost of a policy on the unclamped problem. No policy, the
    whittle policy included, costs less than the optimum, so a printed cost
    below L cannot be reproduced from these parameters.
    """
    ref_dp, ref_w = references_for("E2")
    sol = dp_bundled("E2")
    lower, upper = sol.optimal_average_cost, sol.upper_bound
    half = dp_box("E2", sol.box.a_max // 2)  # touches its cap, noted on half.warnings
    res = sim_for("E2")
    checks = {
        "L <= U": lower <= upper,
        "U - L <= 2% of L": upper - lower <= 0.02 * lower,
        "box value non-decreasing across the doubling": half.optimal_average_cost <= lower,
        "whittle >= L - 3 stderr": res.mean_cost >= lower - 3 * res.stderr,
        "printed pair below L": ref_dp < lower and ref_w < lower,
    }
    failed = [k for k, ok in checks.items() if not ok]
    detail = (
        f"optimum in [{lower:.3f}, {upper:.3f}] (a_max {sol.box.a_max}, "
        f"{half.optimal_average_cost:.3f} at a_max {half.box.a_max}); "
        f"whittle={res.mean_cost:.3f}±{res.stderr:.3f}; printed pair {ref_dp}/{ref_w}"
        + (f"; failed: {', '.join(failed)}" if failed else " below L, unattainable")
    )
    return ("E2", not failed, detail)


def test_c03_table2_all_settings_and_f1_gap():
    parts = []
    for name in ("D1", "E1", "F1"):
        ref_dp, ref_w = references_for(name)
        dp_cost = dp_bundled(name).optimal_average_cost
        res = sim_for(name)
        ok = within(dp_cost, ref_dp, 0.01) and within(res.mean_cost, ref_w, 0.01)
        parts.append((name, ok, f"dp={dp_cost:.3f}/{ref_dp} whittle={res.mean_cost:.3f}/{ref_w}"))
    for name in ("D2", "F2"):
        ref_dp, ref_w = references_for(name)
        dp_cost = dp_bundled(name).optimal_average_cost
        res = sim_for(name)
        dp_ok = within(dp_cost, ref_dp, 0.02)
        w_ok = abs(res.mean_cost - ref_w) <= max(0.02 * ref_w, 3 * res.stderr)
        parts.append(
            (
                name,
                dp_ok and w_ok,
                f"dp={dp_cost:.3f}/{ref_dp} whittle={res.mean_cost:.3f}±{res.stderr:.3f}/{ref_w}",
            )
        )
    parts.append(_e2_certificate())
    gap = sim_for("F1").mean_cost - dp_bundled("F1").optimal_average_cost
    parts.append(("F1-gap", gap > 0, f"whittle-dp gap {gap:+.4f} strictly positive"))
    ok = all(p[1] for p in parts)
    report("C3", ok, "; ".join(f"{n} {'ok' if o else 'FAIL'} ({d})" for n, o, d in parts))
    assert ok, (
        "E2's printed pair (129.02 optimal, 130.94 whittle) is unattainable for the "
        "stated E2 parameters p = (0.7, 0.9, 0.67, 0.8): both lie below the certified "
        "lower bound L on the optimum, so the row is checked on the certificate "
        "[L, U] instead of against the pair; D1-F2 keep their references. "
        f"Details: {parts}"
    )


def _random_reliable_pair(rng):
    def one():
        kind = rng.integers(4)
        if kind == 0:
            return cost.linear(float(rng.uniform(0.5, 15)))
        if kind == 1:
            return cost.power(float(rng.uniform(0.5, 5)), float(rng.uniform(1.2, 3)))
        if kind == 2:
            return cost.exponential(float(rng.uniform(1.5, 3)), float(rng.uniform(0.5, 3)))
        return cost.logarithmic(float(rng.uniform(5, 25)))

    while True:
        f1, f2 = one(), one()
        best = best_two_source_cycle(f1, f2, k_max=1000)
        if best.k <= 12:  # keeps the optimal cycle well inside the DP box
            return f1, f2


def test_c04_theorem3_certification():
    rng = np.random.default_rng(SEED)
    failures = []
    named = []
    for name in ("A1", "B1", "C1"):
        sources, _ = TABLE_SETTINGS[name]
        cert = certify_theorem3(sources[0][0], sources[1][0])
        named.append(f"{name}:{'ok' if cert.ok else 'FAIL'}")
        if not cert.ok:
            failures.append((name, cert.failures))
    n_random = 50
    for i in range(n_random):
        f1, f2 = _random_reliable_pair(rng)
        cert = certify_theorem3(f1, f2)
        if not cert.ok:
            failures.append((f"random[{i}] {f1} vs {f2}", cert.failures))
    ok = not failures
    report("C4", ok, f"{', '.join(named)}; {n_random} random reliable pairs certified, {len(failures)} failures")
    assert ok, failures


def _sandwich_holds(f, p, H, C, slack=1e-9):
    if p == 1.0:
        lam = (cost.prefix_sum(f, H) + C) / H
        lo, hi = cost.evaluate(f, H), cost.evaluate(f, H + 1)
        tol = slack * max(1.0, abs(lam))
        return lo <= lam + tol and lam <= hi + tol
    q = 1.0 - p
    tail_h = discounted_tail(f, p, H, tol=1e-12)
    lower = p * p * (H - 1) * (cost.evaluate(f, H) + q * tail_h) - p * (
        cost.prefix_sum(f, H - 1) if H > 1 else 0.0
    )
    upper = p * p * H * tail_h - p * cost.prefix_sum(f, H)
    tol = slack * max(1.0, abs(C))
    return lower <= C + tol and C <= upper + tol


def test_c05_indexability_sweeps():
    rng = np.random.default_rng(SEED + 1)
    from conftest import random_cost_and_p

    checked, sandwiches = 0, 0
    for _ in range(100):
        f, p = random_cost_and_p(rng)
        scale = max(1.0, abs(float(whittle_index(f, p, 25))))
        charges = np.unique(rng.uniform(0.0, 1.3 * scale, size=60))[:50]
        pols = indexability_sweep(f, p, charges)
        numeric = [math.inf if t.is_never else t.threshold for t in pols]
        assert numeric == sorted(numeric), (f, p)
        checked += 1
        for c, pol in zip(charges, pols):
            if not pol.is_never:
                assert _sandwich_holds(f, p, pol.threshold, float(c)), (f, p, c, pol)
                sandwiches += 1
    ok = checked == 100
    report("C5", ok, f"{checked} random (f, p) sweeps monotone; {sandwiches} finite thresholds satisfy the two-sided condition")
    assert ok


def _criterion6_cost(rng):
    kind = rng.integers(4)
    if kind == 0:
        return cost.linear(float(rng.uniform(0.5, 8)))
    if kind == 1:
        return cost.power(float(rng.uniform(0.5, 4)), float(rng.uniform(1.1, 2.8)))
    if kind == 2:
        # scale kept moderate so the absolute 1e-6 bar is meaningful in floats
        return cost.exponential(float(rng.uniform(1.1, 2.0)), float(rng.uniform(0.5, 3)))
    return cost.logarithmic(float(rng.uniform(2, 20)))


def test_c06_index_oracle_equivalence():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    solves = 0
    for _ in range(20):
        f = _criterion6_cost(rng)
        p = 1.0 if rng.random() < 0.4 else float(rng.uniform(0.3, 0.95))
        if f.kind == "exponential" and f.base * (1 - p) >= 0.95:
            p = 1.0 - 0.9 / f.base
        for h in range(1, 26):
            C = float(whittle_index(f, p, h, tol=1e-13))
            if C <= 0:
                continue  # infimum charge 0 means the threshold is 1 already
            sol = decoupled_value_iteration(DecoupledProblem(f, p, C))
            assert sol.policy.threshold in (h, h + 1), (f, p, h, sol.policy)
            lam_h = threshold_policy_average_cost(f, p, h, C, tol=1e-14)
            lam_h1 = threshold_policy_average_cost(f, p, h + 1, C, tol=1e-14)
            worst = max(worst, abs(lam_h - lam_h1))
            solves += 1
            assert abs(lam_h - lam_h1) < 1e-6, (f, p, h, lam_h, lam_h1)
    ok = True
    report("C6", ok, f"{solves} indifference solves; worst closed-form lambda gap {worst:.2e} < 1e-6")
    assert ok


def test_c07_closed_form_linear_indices():
    hs = np.arange(1, 1001)
    worst_rel = 0.0
    for w in (0.5, 1.0, 13.0):
        got = whittle_index(cost.linear(w), 1.0, hs)
        want = w * (hs.astype(float) ** 2 + hs) / 2
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / np.abs(want))))
    for p in np.arange(0.1, 0.95, 0.1):
        w = 2.0
        got = np.array([whittle_index(cost.linear(w), p, int(h)) for h in hs])
        want = w * p * hs * (hs + (2 - p) / p) / 2
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / np.abs(want))))
    limit_worst = 0.0
    for h in range(1, 101):
        w1 = whittle_index(cost.linear(2), 1 - 1e-9, h)
        w0 = whittle_index(cost.linear(2), 1.0, h)
        limit_worst = max(limit_worst, abs(w1 - w0) / (1 + abs(w0)))
    ok = worst_rel <= 1e-9 and limit_worst <= 1e-5
    report("C7", ok, f"worst closed-form rel err {worst_rel:.2e} <= 1e-9; p->1 limit err {limit_worst:.2e} <= 1e-5")
    assert ok


def test_c08_strong_switch_suite():
    checked = []
    for name in ("A1", "B1", "C1", "D1", "E1", "F1"):
        cyc = detect_cycle(system_for(name), Whittle())
        violations = check_strong_switch(list(zip(cyc.states, cyc.actions)))
        checked.append((f"whittle-{name}", violations))
    for name in ("D1", "E1", "F1"):
        cyc = extract_cycle_policy(dp_bundled(name))
        violations = check_strong_switch(list(zip(cyc.states, cyc.actions)))
        checked.append((f"dp-{name}", violations))
    clean = all(not v for _, v in checked)
    witness = check_strong_switch([((1, 4), 0), ((2, 3), 1)])
    witness_ok = len(witness) == 1 and witness[0].action_a == 0
    ok = clean and witness_ok
    report(
        "C8",
        ok,
        f"{len(checked)} cycles clean ({', '.join(n for n, _ in checked)}); adversarial witness caught",
    )
    assert ok, (checked, witness)


def _coin_flip_below(horizons, bar):
    """Exact P(running average <= bar) at each horizon for C9's system: two
    reliable 3^x sources under a fair coin flip.

    Slot 1 costs 6 from ages (1, 1). After it the pre-action ages are (1, k)
    or (k, 1), costing 3 + 3^k; serving the fresh source grows k to k + 1,
    serving the other resets it to 2, with probability 1/2 each. Costs are
    integers, so the joint law of k and the running sum is tracked exactly;
    a sum past bar * horizons[-1] exceeds every bar and is dropped.
    """
    top = bar * horizons[-1]
    ks = [k for k in range(2, horizons[-1] + 2) if 3 + 3**k <= top]
    dist = np.zeros((len(ks), top + 1))  # row: k; column: running sum
    dist[0, 6] = 1.0
    below = []
    for t in range(2, horizons[-1] + 1):
        charged = np.zeros_like(dist)
        for j, k in enumerate(ks):
            c = 3 + 3**k
            charged[j, c:] = dist[j, : top + 1 - c]
        if t in horizons:
            below.append(float(charged[:, : bar * t + 1].sum()))
        dist = np.zeros_like(dist)
        dist[0] = 0.5 * charged.sum(axis=0)
        dist[1:] = 0.5 * charged[:-1]  # the top k grows past top and drops
    return np.array(below)


def _median_at_most_bar_chance(q, n_runs):
    """Upper bound on P(median of n_runs runs <= bar) when one run is <= bar
    with probability q: the median is at least the ceil(n/2)-th smallest
    run, so at least ceil(n/2) runs must be <= bar."""
    need = (n_runs + 1) // 2
    return math.fsum(
        math.comb(n_runs, j) * q**j * (1.0 - q) ** (n_runs - j) for j in range(need, n_runs + 1)
    )


def test_c09_divergence_demo():
    spec = SystemSpec((Source(cost.exponential(3)), Source(cost.exponential(3))))
    policy = StationaryRandomized((0.5, 0.5))
    horizons = [10, 20, 40, 60, 120, 240]
    n_seeds = 100
    medians = divergence_probe(spec, policy, horizons, n_seeds=n_seeds, seed=SEED)
    increasing = bool(np.all(np.diff(medians) > 0))
    rr_slots = per_slot_costs(spec, __import__("aoisched").RoundRobin(), 60)
    rr_ok = bool(np.allclose(rr_slots[1:], 12.0)) and rr_slots[0] == 6.0
    expectation = divergence_probe(spec, policy, horizons, aggregate="expectation")
    expect_ok = bool(expectation[0] > 120.0 and np.all(np.diff(expectation) > 0))
    # The bar's horizon comes from the exact distribution, not from the seed:
    # the first horizon at which a 100-run median stays <= 120 with chance at
    # most 1e-6. P(one run <= 120) is 0.577 at horizon 60 and 0.241 at 240.
    below = _coin_flip_below(horizons, 120)
    chances = [_median_at_most_bar_chance(q, n_seeds) for q in below]
    bar_at = next((i for i, c in enumerate(chances) if c <= 1e-6), None)
    median_bar = bar_at is not None and bool(medians[bar_at] > 120.0)
    ok = increasing and rr_ok and expect_ok and median_bar
    where = "no listed horizon" if bar_at is None else f"horizon {horizons[bar_at]}"
    report(
        "C9",
        ok,
        f"medians {np.round(medians, 1).tolist()} (strictly increasing: {increasing}); "
        f"exact P(run <= 120) {np.round(below, 3).tolist()}, bar at {where} "
        f"(chance the median stays <= 120: {min(chances):.1e}); median there "
        f"{'above' if median_bar else 'NOT above'} 120; "
        f"round robin exactly 12 from slot 2: {rr_ok}; "
        f"expected running average above 120 from horizon {horizons[0]} and increasing: {expect_ok}",
    )
    assert ok, (
        "divergence demo: the median running average must rise strictly and exceed "
        f"120 at {where}, the first horizon where the exact law leaves a 100-run "
        f"median at or below 120 with chance <= 1e-6; got medians {medians.tolist()}, "
        f"chances {chances}, round robin ok {rr_ok}, expectation ok {expect_ok}"
    )


def test_c10_reproducibility(tmp_path):
    import dataclasses

    config = bundled_config("table1_B2")
    config = dataclasses.replace(config, horizon=120, runs=40, name="repro")
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        run_experiment(config, out_dir=out, workers=workers)
        outs.append(((out / "repro.csv").read_bytes(), (out / "repro.json").read_bytes()))
    ok = outs[0] == outs[1] == outs[2]
    report("C10", ok, "repeat runs and 1-vs-4-worker runs byte-identical (CSV and JSON)")
    assert ok
