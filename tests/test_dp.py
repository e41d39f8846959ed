import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy._core._multiarray_umath import __cpu_features__

from aoisched import cost
from aoisched import dp as dpmod
from aoisched.dp import (
    TruncatedBox,
    _backward_pass,
    _estimate_bytes,
    _fallback_totals,
    _forward_truncation_pass,
    _reliable_audit,
    _stage_cost,
    _weighted_round_robins,
    default_a_max,
    extract_cycle_policy,
    finite_horizon_dp,
    finite_horizon_dp_auto,
)
from aoisched.errors import CapacityError, CostRangeError, DomainError, NonCyclicError
from aoisched.policies import MaxAge, RoundRobin, Source, SystemSpec, Whittle
from aoisched.sim import _first_cycle, simulate

from conftest import dp_box, overflow_at_four, references_for, system_for

TESTS = os.path.dirname(os.path.abspath(__file__))


def _stage_tables(spec, horizon, box):
    """The stage action tables of a solve, from the backward pass it runs."""
    return _backward_pass(box, spec.probabilities, _stage_cost(spec, box), horizon)[1]


class TestBasics:
    def test_single_source_always_scheduled(self):
        spec = SystemSpec((Source(cost.linear(1)),))
        sol = finite_horizon_dp(spec, 10, a_max=10)
        assert sol.optimal_average_cost == pytest.approx(1.0)
        assert sol.truncation_report == 0.0

    def test_identical_sources_alternate(self):
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.linear(1))))
        sol = finite_horizon_dp(spec, 200, a_max=10)
        cyc = extract_cycle_policy(sol)
        assert cyc.length == 2
        assert cyc.average_cost == pytest.approx(3.0)
        assert sorted(cyc.actions) == [0, 1]

    def test_initial_state_must_be_inside_box(self):
        spec = SystemSpec((Source(cost.linear(1)),))
        with pytest.raises(DomainError):
            finite_horizon_dp(spec, 5, a_max=4, initial=(9,))

    def test_capacity_error_before_allocation(self):
        spec = system_for("E1")
        with pytest.raises(CapacityError):
            finite_horizon_dp(spec, 500, a_max=40, memory_budget=10**6)

    @pytest.mark.parametrize("sources,horizon,a_max,budget", [
        ((Source(cost.linear(1), 0.5), Source(cost.linear(2), 0.7)), 20, 2, 10),
        (system_for("E1").sources, 500, 40, 10**6),
    ])
    def test_capacity_error_names_the_box_and_both_sizes(self, sources, horizon, a_max, budget):
        # below 1 MiB a figure in whole MiB reads "0 MiB exceeds budget 0 MiB"
        need = _estimate_bytes(TruncatedBox(a_max, len(sources)), horizon)
        with pytest.raises(CapacityError) as err:
            finite_horizon_dp_auto(SystemSpec(sources), horizon, a_max=a_max, memory_budget=budget)
        assert str(err.value) == (
            f"DP estimate {need:,} bytes exceeds the memory budget of {budget:,} bytes "
            f"for a_max {a_max} and {len(sources)} sources"
        )

    def test_cost_overflow_in_the_box_names_its_source(self):
        # 2^x passes the overflow limit at age 997, inside a box of a_max 1000
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.exponential(2))))
        with pytest.raises(CostRangeError, match=r"^source 2: exponential cost exceeds 1e\+300 from age 997$"):
            finite_horizon_dp(spec, 10, 1000)

    def test_box_membership_needs_one_integer_age_per_source(self):
        box = TruncatedBox(5, 2)
        assert box.contains((1, 5)) and box.state_index((1, 5)) == 4
        assert box.state_index(np.array([5, 1], dtype=np.uint8)) == 20
        for ages in [(1, 2, 3), (1,), 3, [[1, 2]], (0, 1), (6, 1), (1.5, 2), (2.0, 3.0), ("1", 2)]:
            assert not box.contains(ages)
            with pytest.raises(DomainError, match=r"not 2 integer ages in \[1, 5\]"):
                box.state_index(ages)

    def test_default_a_max_by_source_count(self):
        assert default_a_max(1) == 30
        assert default_a_max(2) == 30
        assert default_a_max(3) == 20
        assert default_a_max(4) == 15


class TestTableSettings:
    def test_a1_value(self):
        sol = dp_box("A1", 30)
        ref, _ = references_for("A1")
        assert sol.optimal_average_cost == pytest.approx(ref, rel=0.01)
        assert sol.truncation_report == 0.0

    def test_b1_value(self):
        sol = dp_box("B1", 30)
        assert sol.optimal_average_cost == pytest.approx(8.48, rel=0.01)

    def test_a1_extracted_cycle_consistent(self):
        sol = dp_box("A1", 30)
        cyc = extract_cycle_policy(sol)
        # the steady cycle average and the transient-bearing horizon average
        # agree to the horizon tolerance
        assert cyc.average_cost == pytest.approx(sol.optimal_average_cost, rel=0.01)
        assert cyc.average_cost == pytest.approx(22.0, abs=1e-9)

    def test_a1_cycle_is_costed_on_the_solved_spec(self):
        sol = dp_box("A1", 30)
        cyc = extract_cycle_policy(sol)
        assert cyc.average_cost == 22.0
        assert cyc.average_cost == math.fsum(sol.spec.state_cost(s) for s in cyc.states) / cyc.length

    def test_horizon_stability_last_hundred_slots(self):
        for name in ("A1", "B1", "C1"):
            sol = dp_box(name, 30)
            tail = float(np.mean(sol.stage_costs[-100:]))
            assert tail == pytest.approx(sol.optimal_average_cost, rel=0.01)


class TestDpOptimality:
    def test_reliable_dp_beats_heuristics(self):
        for name in ("A1", "B1", "C1"):
            spec = system_for(name)
            sol = dp_box(name, 30)
            for policy in (Whittle(), RoundRobin(), MaxAge()):
                res = simulate(spec, policy, horizon=500, runs=1, seed=0)
                assert sol.optimal_average_cost <= res.mean_cost + 1e-9

    def test_unreliable_dp_beats_heuristics_within_noise(self):
        spec = system_for("A2")
        sol = dp_box("A2", 30)
        for policy in (Whittle(), RoundRobin(), MaxAge()):
            res = simulate(spec, policy, horizon=500, runs=200, seed=11)
            assert sol.optimal_average_cost <= res.mean_cost + 3 * res.stderr


class TestTruncationInertness:
    # boxes start from the first size whose truncation report is clean (the
    # size auto-doubling settles on); D2 needs 40 where the other settings
    # are clean at their defaults
    @pytest.mark.parametrize("name,a_max", [("A1", 30), ("B1", 30), ("C1", 30),
                                            ("A2", 30), ("B2", 30), ("C2", 30),
                                            ("D1", 20), ("D2", 40)])
    def test_doubling_changes_nothing_small_systems(self, name, a_max):
        base = dp_box(name, a_max)
        doubled = dp_box(name, 2 * a_max)
        rel = abs(doubled.optimal_average_cost - base.optimal_average_cost) / abs(
            base.optimal_average_cost
        )
        assert rel < 1e-4

    @pytest.mark.parametrize("name", ["E1", "F1"])
    def test_doubling_changes_nothing_reliable_four_sources(self, name):
        base = dp_box(name, 15)
        doubled = dp_box(name, 30)
        rel = abs(doubled.optimal_average_cost - base.optimal_average_cost) / abs(
            base.optimal_average_cost
        )
        assert rel < 1e-4

    @pytest.mark.parametrize("name", ["E2", "F2"])
    def test_unreliable_four_sources_cost_plateaus(self, name):
        # the literal 30 -> 60 doubling exceeds the default memory budget, so
        # the plateau is checked between the two largest feasible boxes
        near = dp_box(name, 22)
        big = dp_box(name, 30)
        rel = abs(big.optimal_average_cost - near.optimal_average_cost) / abs(
            big.optimal_average_cost
        )
        assert rel < 1e-4


def _switched_policy_cost(spec, sol, tables, cycle):
    """Oracle for the upper bound: exact average cost, on unclamped ages, of
    following the solution's stage tables until some age reaches a_max and
    then serving cycle[t % len(cycle)] at every slot t, by enumerating the
    reachable (ages, switched) states one at a time."""
    costs = {}
    dist = {(sol.initial_state, False): 1.0}
    total = 0.0
    for t in range(sol.horizon):
        nxt = defaultdict(float)
        for (ages, switched), w in dist.items():
            switched = switched or max(ages) >= sol.box.a_max
            if ages not in costs:
                costs[ages] = spec.state_cost(ages)
            total += w * costs[ages]
            if switched:
                a = cycle[t % len(cycle)]
            else:
                a = int(tables[t][sol.box.state_index(ages)])
            grown = tuple(x + 1 for x in ages)
            p = spec.sources[a].p
            nxt[(grown[:a] + (1,) + grown[a + 1 :], switched)] += p * w
            if p < 1.0:
                nxt[(grown, switched)] += (1.0 - p) * w
        dist = nxt
    return total / sol.horizon


@pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
class TestCertifiedInterval:
    # the reliable two-source settings never touch a box of 6, so D1 at 4
    # is the reliable case whose upper bound does real work
    @pytest.mark.parametrize("name,small,big", [("A2", 6, 30), ("B2", 6, 30),
                                                ("C2", 6, 30), ("D1", 4, 20)])
    def test_small_box_brackets_a_large_box(self, name, small, big):
        lo = dp_box(name, small)
        hi = dp_box(name, big)
        assert lo.truncation_report > 0.5
        assert lo.optimal_average_cost <= hi.optimal_average_cost <= lo.upper_bound
        assert hi.optimal_average_cost <= hi.upper_bound <= lo.upper_bound

    @pytest.mark.parametrize("name", ["A1", "B1", "C1", "D1"])
    def test_clean_report_gives_a_point(self, name):
        spec = system_for(name)
        sol = finite_horizon_dp(spec, 500, a_max=6)
        assert sol.truncation_report == 0.0
        assert sol.upper_bound == sol.optimal_average_cost

    @pytest.mark.parametrize("sources,a_max,horizon", [
        (system_for("A2").sources, 5, 40),
        (system_for("B2").sources, 5, 40),
        (system_for("C2").sources, 5, 40),
        (system_for("D2").sources, 4, 15),
        ((Source(cost.linear(2), 0.5),), 3, 30),
    ])
    def test_upper_bound_is_the_cheapest_switched_policy(self, sources, a_max, horizon):
        spec = SystemSpec(sources)
        box = TruncatedBox(a_max, spec.n_sources)
        sol = finite_horizon_dp(spec, horizon, a_max)
        tables = _stage_tables(spec, horizon, box)
        assert sol.truncation_report > 0.5
        exact = min(
            _switched_policy_cost(spec, sol, tables, c)
            for c in _weighted_round_robins(spec.n_sources)
        )
        assert sol.upper_bound == pytest.approx(exact, rel=1e-12)
        assert sol.optimal_average_cost < sol.upper_bound

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_fallback_stops_below_an_age_that_overflows(self):
        # the fallback's cost rows end at the largest representable age, 3;
        # mass that grows past it costs inf, which keeps U an upper bound
        f = overflow_at_four()
        spec = SystemSpec((Source(f, 0.5), Source(f, 0.5)))
        sol = finite_horizon_dp(spec, 10, a_max=3)
        assert sol.truncation_report > 0.5
        assert sol.upper_bound == math.inf


class TestAutoDoubling:
    def test_small_box_warns_and_attaches_note(self):
        spec = system_for("D2")
        with pytest.warns(RuntimeWarning, match="truncation report"):
            sol = finite_horizon_dp(spec, 500, a_max=20)
        assert sol.warnings and "truncation report" in sol.warnings[0]

    def test_warns_and_grows_when_mass_touches_cap(self):
        spec = system_for("D2")
        sol = finite_horizon_dp_auto(spec, 500, a_max=20, max_doublings=2)
        assert sol.box.a_max in (20, 40, 80)
        assert sol.truncation_report <= 1e-6

    def test_budget_fallback_returns_best_feasible(self):
        spec = system_for("F2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = finite_horizon_dp_auto(
                spec, 120, a_max=15, max_doublings=3, memory_budget=200 * 2**20
            )
        assert sol.box.a_max <= 30
        # the memory budget stopped the doubling: the note is warned once
        assert sol.warnings
        assert [str(w.message) for w in caught] == list(sol.warnings)

    def test_spent_budget_returns_the_last_box_and_warns_once(self):
        # D2 at a_max 20 leaves mass at the cap, and no doubling is allowed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = finite_horizon_dp_auto(system_for("D2"), 500, a_max=20, max_doublings=0)
        assert sol.box.a_max == 20
        assert sol.truncation_report > 1e-6
        assert [str(w.message) for w in caught] == list(sol.warnings)
        assert len(sol.warnings) == 1

    def test_capacity_error_on_the_first_box_is_raised(self):
        with pytest.raises(CapacityError):
            finite_horizon_dp_auto(system_for("A1"), 50, a_max=40, memory_budget=10**5)

    def test_default_box_size(self):
        spec = system_for("A1")
        sol = finite_horizon_dp_auto(spec, 50)
        assert sol.box.a_max == default_a_max(spec.n_sources)


class TestExtractCycleRefusals:
    def test_solution_without_a_trajectory(self):
        sol = finite_horizon_dp(system_for("A2"), 50, a_max=10)
        assert sol.trajectory is None
        with pytest.raises(DomainError, match="requires all channels reliable"):
            extract_cycle_policy(sol)

    def test_horizon_too_short_for_a_window(self):
        sol = finite_horizon_dp(system_for("A1"), 4, a_max=10)
        with pytest.raises(NonCyclicError, match="no mid-horizon window"):
            extract_cycle_policy(sol)


def _traced_peak(spec, horizon, a_max):
    """Peak bytes traced during one solve, above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        finite_horizon_dp(spec, horizon, a_max)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryEstimate:
    # boxes where each phase leads: the forward audit (large boxes), the
    # backward buffers, and the fallback schedules (long horizons on small
    # boxes, where the realized trajectory of a reliable spec also counts)
    @pytest.mark.parametrize("sources,a_max,horizon", [
        (system_for("A1").sources, 30, 500),
        (system_for("A2").sources, 30, 500),
        (system_for("D1").sources, 20, 200),
        (system_for("D2").sources, 20, 500),
        (system_for("E1").sources, 12, 100),
        (system_for("E2").sources, 12, 100),
        (system_for("F2").sources, 10, 500),
        (system_for("E1").sources, 2, 1000),
        (system_for("E2").sources, 2, 1000),
        ((Source(cost.linear(2), 0.5),), 2, 2000),
        ((Source(cost.linear(2), 1.0),), 200, 5),
        (system_for("E2").sources, 17, 60),  # two backward slabs
    ])
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_traced_peak_within_estimate(self, sources, a_max, horizon):
        spec = SystemSpec(sources)
        box = TruncatedBox(a_max, spec.n_sources)
        assert _traced_peak(spec, horizon, a_max) <= _estimate_bytes(box, horizon)

    # the backward pass in slab groups: each has its own slab buffers and
    # success-term temporary; tracemalloc sees the worker threads' arrays
    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("a_max,slab_states", [(17, dpmod.SLAB_STATES), (12, 1)])
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_traced_peak_within_estimate_in_groups(self, a_max, slab_states, groups, monkeypatch):
        monkeypatch.setattr(dpmod, "SLAB_STATES", slab_states)
        monkeypatch.setattr(dpmod, "_groups", lambda box: groups)
        spec = system_for("E2")
        box = TruncatedBox(a_max, spec.n_sources)
        assert _traced_peak(spec, 60, a_max) <= _estimate_bytes(box, 60)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_default_budget_admits_e2_at_30_and_refuses_it_at_60(self, cpus, monkeypatch):
        # so finite_horizon_dp_auto stops E2's doubling at a_max 30 on any host
        monkeypatch.setattr(dpmod.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        budget = dpmod.DEFAULT_MEMORY_BUDGET
        assert _estimate_bytes(TruncatedBox(30, 4), 500) <= budget < _estimate_bytes(TruncatedBox(60, 4), 500)

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_few_runs_peak_far_below_a_dense_table(self):
        # E2's sources at a_max 12 settle into about 50 runs of 500 stages,
        # so the solve holds far less than the m * horizon bytes a dense
        # action table alone would take
        spec = system_for("E2")
        box = TruncatedBox(12, 4)
        peak = _traced_peak(spec, 500, box.a_max)
        assert len({id(a) for a in _stage_tables(spec, 500, box)}) < 100
        assert peak < box.state_count * 500 / 3


def _fallback_totals_reference(sources, entering):
    """The fallback builder that read slot t's schedule column from
    (cycles, horizon) arrays of the schedules and survival factors, kept
    as the oracle for the per-slot columns."""
    horizon, n, a_max = entering.shape
    cycles = _weighted_round_robins(n)
    slots = np.arange(horizon)
    schedule = np.array([np.asarray(c)[slots % len(c)] for c in cycles])
    top = a_max + horizon
    totals = np.zeros(len(cycles))
    for i, s in enumerate(sources):
        limit = cost.max_representable_age(s.cost)
        finite = top if limit is None else min(top, limit)
        row = s.cost(np.arange(1, finite + 1))
        stay = np.where(schedule == i, 1.0 - s.p, 1.0)
        dist = np.zeros((len(cycles), top))
        for t in range(horizon):
            dist[:, :a_max] += entering[t, i]
            width = a_max + t
            upto = min(width, finite)
            totals += dist[:, :upto] @ row[:upto]
            if width > finite:
                totals[dist[:, finite:width].sum(axis=1) > 0] = np.inf
            delivered = s.p * dist[:, :width].sum(axis=1)
            dist[:, 1 : width + 1] = dist[:, :width] * stay[:, t, None]
            dist[:, 0] = np.where(schedule[:, t] == i, delivered, 0.0)
    return totals


def _reference_kernel(spec, horizon, box, initial):
    """The gather/argmin kernel that the slice views replaced, kept as the
    oracle: flat successor index arrays, the (N, m) table of action values,
    argmin plus take_along_axis, and np.add.at for every forward move.
    Returns the box total, the action tables, the stage costs and the
    forward audit (report, per-slot costs, cap-entry marginals)."""
    n, m, shape = box.n_sources, box.state_count, box.shape
    coords = np.stack(np.unravel_index(np.arange(m), shape))
    stage_cost = np.zeros(m)
    for i, s in enumerate(spec.sources):
        stage_cost += s.cost(coords[i] + 1)
    aged = np.minimum(coords + 1, box.a_max - 1)
    fail_idx = np.ravel_multi_index(tuple(aged), shape)
    succ_idx = np.empty((n, m), dtype=np.intp)
    for i in range(n):
        c = aged.copy()
        c[i] = 0
        succ_idx[i] = np.ravel_multi_index(tuple(c), shape)

    probs = spec.probabilities
    actions = np.empty((horizon, m), dtype=np.int8)
    V = np.zeros(m)
    q = np.empty((n, m))
    for t in range(horizon - 1, -1, -1):
        v_fail = V[fail_idx]
        for i in range(n):
            if probs[i] == 1.0:
                q[i] = V[succ_idx[i]]
            else:
                q[i] = probs[i] * V[succ_idx[i]] + (1.0 - probs[i]) * v_fail
        a = np.argmin(q, axis=0)
        actions[t] = a
        V = stage_cost + np.take_along_axis(q, a[None, :], axis=0)[0]

    s0 = box.state_index(initial)
    at_cap = np.zeros(m, dtype=bool)
    for i in range(n):
        at_cap |= coords[i] == box.a_max - 1
    cap_idx = np.flatnonzero(at_cap)
    runs = []
    for i in range(n):
        ages = coords[i, cap_idx]
        order = np.argsort(ages, kind="stable")
        starts = np.searchsorted(ages[order], np.arange(box.a_max))
        empty = np.diff(starts, append=cap_idx.size) == 0
        runs.append((order, starts, empty))
    entering = np.zeros((horizon, n, box.a_max))

    def siphon(vec, t):
        w = vec[cap_idx]
        mass = float(w.sum())
        vec[cap_idx] = 0.0
        if mass and t < horizon:
            for i, (order, starts, empty) in enumerate(runs):
                entering[t, i] = np.add.reduceat(w[order], starts)
                entering[t, i, empty] = 0.0
        return mass

    d = np.zeros(m)
    d[s0] = 1.0
    touched = siphon(d, 0)
    cost_lines = stage_cost.reshape(box.a_max, min(m // box.a_max, box.a_max), -1)
    row_costs = np.empty((horizon, box.a_max))
    for t in range(horizon):
        lines = np.einsum("ijk,ijk->ij", d.reshape(cost_lines.shape), cost_lines)
        row_costs[t] = np.add.reduce(lines, axis=1)
        nxt = np.zeros(m)
        a = actions[t]
        for i in range(n):
            sel = np.nonzero(a == i)[0]
            if not sel.size:
                continue
            w = d[sel]
            if probs[i] == 1.0:
                np.add.at(nxt, succ_idx[i][sel], w)
            else:
                np.add.at(nxt, succ_idx[i][sel], probs[i] * w)
                np.add.at(nxt, fail_idx[sel], (1.0 - probs[i]) * w)
        touched += siphon(nxt, t + 1)
        d = nxt
    return float(V[s0]), actions, stage_cost, touched, row_costs.sum(axis=1), entering


def _assert_maximal_runs(tables):
    """Equal consecutive stages share one table object, and consecutive
    stored tables differ, so every run of identical stages is maximal."""
    assert not any(table.flags.writeable for table in tables)
    for later, earlier in zip(tables[1:], tables):
        assert (earlier is later) == np.array_equal(earlier, later)


def _assert_shared_by_content(tables):
    """Equal tables anywhere in the horizon share one object."""
    by_content = {}
    for table in tables:
        assert by_content.setdefault(table.tobytes(), table) is table
    return len(by_content)


def _assert_matches_reference(spec, horizon, box, initial):
    total, actions, stage_cost, touched, per_stage, entering = _reference_kernel(
        spec, horizon, box, initial
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = finite_horizon_dp(spec, horizon, box.a_max, initial)
    tables = _stage_tables(spec, horizon, box)
    lower = total / horizon
    upper = lower
    if touched != 0.0:
        fallback = float(_fallback_totals(spec.sources, entering).min())
        upper = max(lower, (float(per_stage.sum()) + fallback) / horizon)
    assert sol.optimal_average_cost.hex() == lower.hex()
    assert sol.upper_bound.hex() == upper.hex()
    assert sol.truncation_report.hex() == touched.hex()
    assert sol.stage_costs.tobytes() == per_stage.tobytes()
    assert np.stack(tables).tobytes() == actions.tobytes()
    _assert_maximal_runs(tables)
    _assert_shared_by_content(tables)
    assert sol.stage1_actions.tobytes() == tables[0].tobytes()
    assert _stage_cost(spec, box).tobytes() == stage_cost.tobytes()
    _, _, got = _forward_truncation_pass(
        box, actions, spec.probabilities, _stage_cost(spec, box), box.state_index(initial)
    )
    assert got.tobytes() == entering.tobytes()
    if spec.reliable:  # the solve walked its path; the dense pass above is the oracle
        trajectory, _, _, walked = _reliable_audit(box, tables, stage_cost, initial)
        assert trajectory == sol.trajectory
        assert walked.tobytes() == entering.tobytes()


# ties: indicator and table costs make many action values exactly equal
_COSTS = st.one_of(
    st.builds(cost.indicator, st.integers(1, 5), st.sampled_from([1.0, 2.5])),
    st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=1, max_size=5).map(
        lambda v: cost.table(sorted(v))
    ),
    st.builds(cost.linear, st.sampled_from([1.0, 2.0, 13.0])),
    st.builds(cost.power, st.sampled_from([0.5, 1.0]), st.sampled_from([2.0, 3.0])),
    st.builds(cost.exponential, st.sampled_from([2.0, np.e, 3.0])),
    st.builds(cost.logarithmic, st.sampled_from([1.0, 10.0])),
)
_PROBS = st.one_of(
    st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
)


@st.composite
def _dp_case(draw, probs=_PROBS):
    n = draw(st.integers(1, 4))
    sources = tuple(Source(draw(_COSTS), draw(probs)) for _ in range(n))
    a_max = draw(st.integers(2, 8))
    initial = tuple(draw(st.integers(1, a_max)) for _ in range(n))
    return SystemSpec(sources), draw(st.integers(1, 40)), TruncatedBox(a_max, n), initial


@st.composite
def _fallback_case(draw):
    n = draw(st.integers(1, 4))
    costs = st.one_of(_COSTS, st.just(overflow_at_four()))
    sources = tuple(Source(draw(costs), draw(_PROBS)) for _ in range(n))
    shape = (draw(st.integers(1, 40)), n, draw(st.integers(2, 8)))
    mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return sources, draw(hnp.arrays(np.float64, shape, elements=mass))


class TestFallbackMatchesReference:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_fallback_case())
    def test_random_entering_bit_identical(self, case):
        sources, entering = case
        got = _fallback_totals(sources, entering)
        assert got.tobytes() == _fallback_totals_reference(sources, entering).tobytes()


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_dp_case())
    def test_random_specs_bit_identical(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_dp_case(probs=st.just(1.0)))
    def test_random_reliable_specs_bit_identical(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_dp_case())
    def test_one_row_slabs_bit_identical(self, case):
        # every box above fits one slab; one axis-0 row per slab runs many
        # slabs, each with its failure copy and source 0's success row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dpmod, "SLAB_STATES", 1)
            assert dpmod._slab_rows(case[2]) == 1
            _assert_matches_reference(*case)

    @pytest.mark.parametrize("sources,a_max,horizon,initial", [
        ((Source(cost.linear(2), 0.5),), 2, 30, (1,)),
        ((Source(cost.linear(2), 1.0),), 2, 10, (2,)),
        ((Source(cost.indicator(2), 0.3),), 8, 40, (8,)),
        (system_for("A2").sources, 2, 25, (1, 2)),
        (system_for("D1").sources, 2, 12, (1, 1, 1)),
        (system_for("E2").sources, 2, 40, (2, 1, 2, 1)),
        (system_for("F1").sources, 5, 40, (1, 1, 1, 1)),
        (system_for("E2").sources, 8, 40, (1, 8, 3, 1)),
        ((Source(cost.table([0.0]), 0.4), Source(cost.table([0.0]), 1.0)), 4, 20, (4, 1)),
        # the forward audit's cached index: cap contact empties indexed
        # states under an unchanged table (stages 57 to 59 scatter zeros
        # without a rebuild); 1 - p = 1e-12 underflows failure chains to
        # exact zeros; A2's table changes near the horizon over a settled
        # support; a lossy N = 1 box of a_max 2 and a three-source one
        # start at the cap, so the support is empty from the first stage
        ((Source(cost.linear(1), 1 - 1e-6), Source(cost.linear(3), 1e-3)), 30, 60, (1, 5)),
        ((Source(cost.linear(1), 1 - 1e-12),), 64, 60, (20,)),
        ((Source(cost.linear(1), 1 - 1e-12), Source(cost.linear(2), 0.5)), 40, 60, (1, 1)),
        (system_for("A2").sources, 10, 60, (1, 1)),
        ((Source(cost.linear(2), 0.5),), 2, 30, (2,)),
        (system_for("D2").sources, 6, 30, (6, 1, 2)),
        # the reliable walk (see TestReliableWalk for a path that reaches
        # the cap only at the arrival slot): a start on the cap; N = 1 off
        # the cap; horizon 1 inside the box
        (system_for("E1").sources, 5, 30, (1, 5, 2, 1)),
        ((Source(cost.linear(2)),), 3, 20, (2,)),
        (system_for("B1").sources, 30, 1, (4, 7)),
        # the backward pass in two slabs of axis-0 rows, 13 and 4
        (system_for("E2").sources, 17, 30, (1, 1, 1, 1)),
    ])
    def test_edge_cases_bit_identical(self, sources, a_max, horizon, initial):
        _assert_matches_reference(SystemSpec(sources), horizon, TruncatedBox(a_max, len(sources)), initial)


def _started_threads(mp):
    """Patch threading.Thread to record each thread started; returns the record."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    mp.setattr(threading, "Thread", Recorded)
    return started


class TestSlabGroups:
    # one-row slabs put a group boundary between any two rows, so a group's
    # last row reads, from the other buffer, the row that the next group
    # writes; more groups than slabs runs one group per slab; a reliable
    # spec's p = 1 terms read the success faces as views, with no failure
    # copy
    @pytest.mark.parametrize("groups", [1, 2, 3, 9])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.one_of(_dp_case(), _dp_case(probs=st.just(1.0))))
    def test_random_specs_bit_identical_in_groups(self, groups, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dpmod, "SLAB_STATES", 1)
            mp.setattr(dpmod, "_groups", lambda box: groups)
            started = _started_threads(mp)
            _assert_matches_reference(*case)
        # the solve and _stage_tables each run one backward pass; the check
        # runs one forward audit, and the solve another on a lossy spec
        passes = 3 + (not case[0].reliable)
        assert len(started) == passes * (min(groups, case[2].a_max) - 1)

    def test_uneven_last_slab_in_two_groups(self, monkeypatch):
        # slabs of 13 and 4 rows, one group each: the first group's last row
        # reads row 13 of the stage after, which the second group writes into
        # the other buffer; the forward audit splits source rows the same
        # way, 0 to 12 and 13 to 16
        monkeypatch.setattr(dpmod, "_groups", lambda box: 2)
        started = _started_threads(monkeypatch)
        box = TruncatedBox(17, 4)
        assert dpmod._slab_rows(box) == 13
        _assert_matches_reference(system_for("E2"), 30, box, (1, 1, 1, 1))
        assert len(started) == 4

    @pytest.mark.parametrize("groups", [1, 2])
    def test_slabs_in_reverse_order_keep_the_bits(self, groups, monkeypatch):
        # each group runs its one-row slabs from its top row down: no slab
        # reads a row that another slab writes in the same stage, row 0
        # included, so the order of the slabs does not change the bits
        run = dpmod._run_slabs
        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: groups)
        monkeypatch.setattr(dpmod, "_run_slabs", lambda slabs, *args: run(slabs[::-1], *args))
        _assert_matches_reference(system_for("E2"), 30, TruncatedBox(6, 4), (1, 1, 1, 1))

    @pytest.mark.parametrize("groups", [2, 3])
    def test_row_zero_takes_success_mass_from_every_group(self, groups, monkeypatch):
        # source 0's cost grows and source 1's is zero, so every stage serves
        # source 0 everywhere (ties at the last stage go to it too); it fails
        # with chance 0.7, so by slot 7 every row below the cap carries mass
        # and row 0 receives success mass from each group's source rows
        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: groups)
        spec = SystemSpec((Source(cost.exponential(3.0), 0.3), Source(cost.table([0.0]), 0.4)))
        box = TruncatedBox(8, 2)
        assert not any(table.any() for table in _stage_tables(spec, 30, box))
        _assert_matches_reference(spec, 30, box, (1, 1))

    def test_many_groups_under_fast_switching(self, monkeypatch):
        # more groups than cores, with the interpreter switching threads as
        # often as it can: a row read after another group wrote it, or a
        # buffer two groups share, changes the bits; both passes of the solve
        # and of the check run in six groups
        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: 6)
        started = _started_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _assert_matches_reference(system_for("E2"), 40, TruncatedBox(12, 4), (1, 2, 1, 3))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 4 * 5

    @pytest.mark.parametrize("a_max,slab_states,groups,bounds", [
        (10, 1, 1, (0, 10)),
        (10, 1, 2, (0, 5, 10)),
        (10, 1, 3, (0, 3, 6, 10)),
        (10, 1, 9, (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)),
        (17, dpmod.SLAB_STATES, 2, (0, 13, 17)),  # slabs of 13 and 4 rows
    ])
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_both_passes_split_the_same_rows(self, a_max, slab_states, groups, bounds, monkeypatch):
        # each pass hands _run_in_groups one task per row range of its box
        run_in_groups = dpmod._run_in_groups
        seen = []

        def spy(tasks, stages, between):
            caller = sys._getframe(1)
            ranges = caller.f_locals["ranges"]
            assert len(tasks) == len(ranges)
            seen.append((caller.f_code.co_name, ranges))
            run_in_groups(tasks, stages, between)

        monkeypatch.setattr(dpmod, "SLAB_STATES", slab_states)
        monkeypatch.setattr(dpmod, "_groups", lambda box: groups)
        monkeypatch.setattr(dpmod, "_run_in_groups", spy)
        finite_horizon_dp(system_for("E2"), 20, a_max)
        ranges = list(zip(bounds, bounds[1:]))
        assert seen == [("_backward_pass", ranges), ("_forward_truncation_pass", ranges)]

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_a_lone_long_row_keeps_the_bits(self, monkeypatch):
        # rows of 21^3 = 9261 states, and mass at their far end by slot 20:
        # einsum sums one such row alone in chunks but the rows of a block
        # whole, so a group sums its rows' slot costs by line, 21 a row
        spec = SystemSpec((
            Source(cost.power(1, 2), 0.6),
            Source(cost.logarithmic(10), 0.3),
            Source(cost.linear(1), 0.5),
            Source(cost.power(1, 2), 0.7),
        ))
        solves = []
        for ranges in ([(0, 21)], [(0, 1), (1, 21)]):
            monkeypatch.setattr(dpmod, "_row_groups", lambda box, ranges=ranges: ranges)
            solves.append(finite_horizon_dp(spec, 20, 21))
        whole, split = solves
        assert split.stage_costs.tobytes() == whole.stage_costs.tobytes()
        assert split.upper_bound.hex() == whole.upper_bound.hex()

    @pytest.mark.parametrize("a_max,cpus", [(15, None), (17, {0})])
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_one_group_starts_no_thread(self, a_max, cpus, monkeypatch):
        # E2 at a_max 15 is one slab; at 17 it is two, on one usable CPU
        if cpus is not None:
            monkeypatch.setattr(dpmod.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        box = TruncatedBox(a_max, 4)
        assert dpmod._groups(box) == 1
        want = finite_horizon_dp(system_for("E2"), 30, a_max)

        def refuse(*args, **kwargs):
            raise AssertionError("a one-group pass started a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        got = finite_horizon_dp(system_for("E2"), 30, a_max)  # both passes, as E2 is lossy
        assert got.optimal_average_cost.hex() == want.optimal_average_cost.hex()
        assert got.stage1_actions.tobytes() == want.stage1_actions.tobytes()
        assert got.truncation_report.hex() == want.truncation_report.hex()
        assert got.stage_costs.tobytes() == want.stage_costs.tobytes()

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_any_group_reaches_the_caller(self, where, monkeypatch):
        class Boom(Exception):
            pass

        run = dpmod._run_slabs
        calls = []

        def failing(slabs, *args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (where == "caller"):
                calls.append(1)
                if len(calls) == 3:  # the third stage, with the other groups running
                    raise Boom(where)
            run(slabs, *args)

        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: 3)
        monkeypatch.setattr(dpmod, "_run_slabs", failing)
        before = set(threading.enumerate())
        with pytest.raises(Boom, match=where):
            finite_horizon_dp(system_for("E2"), 20, a_max=6)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_any_forward_group_reaches_the_caller(self, where, monkeypatch):
        class Boom(Exception):
            pass

        run_in_groups = dpmod._run_in_groups
        calls = []

        def failing(task):
            def run(t):
                on_caller = threading.current_thread() is threading.main_thread()
                if on_caller == (where == "caller"):
                    calls.append(1)
                    if len(calls) == 3:  # the third stage, with the other groups running
                        raise Boom(where)
                task(t)
            return run

        def forward_fails(tasks, stages, between):
            if sys._getframe(1).f_code.co_name == "_forward_truncation_pass":
                tasks = [failing(task) for task in tasks]
            run_in_groups(tasks, stages, between)

        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: 3)
        monkeypatch.setattr(dpmod, "_run_in_groups", forward_fails)
        before = set(threading.enumerate())
        with pytest.raises(Boom, match=where):
            finite_horizon_dp(system_for("E2"), 20, a_max=6)
        assert set(threading.enumerate()) == before


_BLAS_PROBE = """
import warnings
from conftest import system_for
from aoisched.dp import finite_horizon_dp
warnings.simplefilter("ignore", RuntimeWarning)
sol = finite_horizon_dp(system_for("E2"), 20, 20)
print(sol.upper_bound.hex(), sol.stage_costs.tobytes().hex())
"""


def _run_probe(script, **env):
    """The stdout of `script` run in a fresh interpreter with `env` added to
    this one's, importing the library and conftest from this checkout."""
    src = os.path.join(os.path.dirname(TESTS), "src")
    path = os.pathsep.join(filter(None, [src, TESTS, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_bits_do_not_depend_on_blas_threads():
    # E2 at a_max 20 is three slabs with mass at the cap; each BLAS thread
    # count runs in a process of its own, as OpenBLAS reads it at start
    assert dpmod._slab_rows(TruncatedBox(20, 4)) < 20
    outs = [_run_probe(_BLAS_PROBE, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert outs[0] == outs[1]


_SIMD_PROBE = """
import hashlib, warnings
from conftest import system_for
from aoisched.dp import finite_horizon_dp
warnings.simplefilter("ignore", RuntimeWarning)
for name, a_max in (("E2", 20), ("F2", 15), ("D2", 20), ("A2", 30)):
    sol = finite_horizon_dp(system_for(name), 60, a_max)
    digest = hashlib.sha256(sol.stage_costs.tobytes() + sol.stage1_actions.tobytes()).hexdigest()
    print(name, sol.optimal_average_cost.hex(), sol.upper_bound.hex(), digest)
"""
# the AVX-512 kernel sets numpy may dispatch to on this host; with them
# disabled it dispatches to its AVX2 kernels
_AVX512 = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)]


@pytest.mark.skipif(not _AVX512, reason="numpy runs its AVX2 kernels here already")
def test_bits_do_not_depend_on_avx512_kernels():
    # each run in a process of its own, as numpy picks its kernels at import
    default = _run_probe(_SIMD_PROBE)
    assert default == _run_probe(_SIMD_PROBE, NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512))


class TestReliableWalk:
    @pytest.mark.parametrize("sources,a_max,horizon", [
        ((Source(cost.linear(1)), Source(cost.linear(1))), 3, 4),
        ((Source(cost.linear(1)), Source(cost.linear(2)), Source(cost.linear(4))), 3, 2),
        ((Source(cost.linear(1)), Source(cost.linear(1))), 2, 1),
    ])
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_cap_reached_at_the_arrival_slot(self, sources, a_max, horizon):
        # every slot of the path lies below the cap, and the arrival state
        # at slot `horizon` touches it: all the mass escapes, but after the
        # last marginal row, so U goes through a fallback that costs nothing
        spec = SystemSpec(sources)
        box = TruncatedBox(a_max, len(sources))
        sol = finite_horizon_dp(spec, horizon, a_max)
        assert all(max(ages) < a_max for ages, _ in sol.trajectory)
        _, touched, per_stage, entering = _reliable_audit(
            box, _stage_tables(spec, horizon, box), _stage_cost(spec, box), sol.initial_state
        )
        assert touched == sol.truncation_report == 1.0
        assert not entering.any()
        assert not _fallback_totals(spec.sources, entering).any()
        upper = max(sol.optimal_average_cost, (float(per_stage.sum()) + 0.0) / horizon)
        assert sol.upper_bound.hex() == upper.hex()
        _assert_matches_reference(spec, horizon, box, sol.initial_state)

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_only_lossy_or_mixed_solves_run_the_dense_audit(self, monkeypatch):
        calls = []
        dense = dpmod._forward_truncation_pass
        monkeypatch.setattr(
            dpmod, "_forward_truncation_pass", lambda *args: calls.append(1) or dense(*args)
        )
        for name in ("A1", "D1", "E1"):
            spec = system_for(name)
            finite_horizon_dp(spec, 100, a_max=6)
        finite_horizon_dp(system_for("A1"), 40, a_max=3)  # touches the cap
        assert calls == []
        finite_horizon_dp(system_for("A2"), 100, a_max=6)
        assert len(calls) == 1
        mixed = SystemSpec((Source(cost.linear(1)), Source(cost.linear(2), 0.5)))
        finite_horizon_dp(mixed, 100, a_max=6)
        assert len(calls) == 2


class TestForwardIndex:
    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_settled_box_rebuilds_the_index_rarely(self, monkeypatch):
        # E2's sources at a_max 12 rebuild the index 78 times in 500 stages;
        # the audit calls flatnonzero once for the cap and twice per rebuild,
        # once for each part of the index
        spec = system_for("E2")
        box = TruncatedBox(12, 4)
        tables = _stage_tables(spec, 500, box)
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
        _forward_truncation_pass(box, tables, spec.probabilities, _stage_cost(spec, box), 0)
        rebuilds, odd = divmod(len(calls) - 1, 2)
        assert not odd
        assert 0 < rebuilds <= 100

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_each_of_two_groups_rebuilds_its_index_rarely(self, monkeypatch):
        # source rows 0 to 5 rebuild 77 times and rows 6 to 11 71 times; each
        # group's index comes in two parts, one flatnonzero call each. The
        # box is one slab of the default size, so one-row slabs make two groups
        spec = system_for("E2")
        box = TruncatedBox(12, 4)
        tables = _stage_tables(spec, 500, box)
        monkeypatch.setattr(dpmod, "SLAB_STATES", 1)
        monkeypatch.setattr(dpmod, "_groups", lambda box: 2)
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(
            np, "flatnonzero",
            lambda a: calls.append(threading.current_thread() is threading.main_thread()) or flatnonzero(a),
        )
        _forward_truncation_pass(box, tables, spec.probabilities, _stage_cost(spec, box), 0)
        first, odd = divmod(calls.count(True) - 1, 2)  # the calling thread also finds the cap
        assert not odd
        second, odd = divmod(calls.count(False), 2)
        assert not odd
        assert 0 < first <= 100 and 0 < second <= 100


class TestStoredTables:
    @pytest.mark.parametrize("name,a_max,stored", [
        ("B1", 30, 3), ("D1", 20, 13), ("E1", 15, 39), ("F1", 15, 64),
    ])
    def test_reliable_tables_stored_once_per_content(self, name, a_max, stored):
        # tie states make these tables change at every stage, among a few
        # contents that recur with the reset cycle
        spec = system_for(name)
        tables = _stage_tables(spec, 500, TruncatedBox(a_max, spec.n_sources))
        _assert_maximal_runs(tables)
        assert _assert_shared_by_content(tables) == stored
        assert len({id(a) for a in tables}) == stored


class TestInputChecks:
    def test_negative_doubling_budget_is_refused(self):
        with pytest.raises(DomainError, match="max_doublings"):
            finite_horizon_dp_auto(system_for("A1"), 10, a_max=6, max_doublings=-1)

    @pytest.mark.parametrize("max_doublings", [1.5, 2.0, True, "2", None])
    def test_doubling_budget_must_be_an_integer(self, max_doublings):
        with pytest.raises(DomainError, match="max_doublings"):
            finite_horizon_dp_auto(system_for("A1"), 10, a_max=6, max_doublings=max_doublings)

    @pytest.mark.parametrize("a_max,n_sources,name", [
        (2.5, 2, "a_max"), (3.0, 2, "a_max"), (True, 2, "a_max"), ("3", 2, "a_max"), (1, 2, "a_max"),
        (3, 2.0, "n_sources"), (3, True, "n_sources"), (3, 0, "n_sources"), (3, None, "n_sources"),
    ])
    def test_box_sizes_must_be_integers(self, a_max, n_sources, name):
        with pytest.raises(DomainError, match=name):
            TruncatedBox(a_max, n_sources)

    @pytest.mark.parametrize("horizon", [0, -1, 2.5, 3.0, True, "3", None])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            finite_horizon_dp(system_for("A1"), horizon, a_max=4)

    @pytest.mark.parametrize("a_max", [1, 2.5, True, "3"])
    def test_a_max_must_be_an_integer_of_at_least_two(self, a_max):
        with pytest.raises(DomainError, match="a_max"):
            finite_horizon_dp(system_for("A1"), 10, a_max=a_max)

    def test_numpy_integer_sizes_are_accepted(self):
        sol = finite_horizon_dp(system_for("A1"), np.int64(10), a_max=np.int64(6))
        assert type(sol.horizon) is int
        assert sol.optimal_average_cost == finite_horizon_dp(
            system_for("A1"), 10, a_max=6
        ).optimal_average_cost

    @pytest.mark.parametrize("ages", [(1.5, 2), (1, 2, 3), (1,), (0, 1), (7, 1)])
    def test_action_rejects_bad_age_vectors(self, ages):
        sol = finite_horizon_dp(system_for("A1"), 10, a_max=6)
        with pytest.raises(DomainError):
            sol.action(ages)

    def test_action_accepts_integral_floats(self):
        sol = finite_horizon_dp(system_for("A1"), 10, a_max=6)
        assert sol.action((2.0, 3.0)) == sol.action((2, 3))


# recorded with the gather/argmin kernel before the slice-view rewrite, at
# horizon 500: a_max, L, U and the truncation report as float.hex, and the
# first 16 hex digits of the SHA-256 of the stage-1 action table; A2's U
# moved in its last bit when the per-slot cost became a sum of row sums
_TABLE_PINS = {
    "A1": (30, "0x1.5f95810624dd3p+4", "0x1.5f95810624dd3p+4", "0x0.0p+0", "d3ec02d5410876aa"),
    "A2": (30, "0x1.20f6982a5ae75p+5", "0x1.20f69d469bc80p+5", "0x1.242f338af890fp-19", "5866a73efd9809d5"),
    "B1": (30, "0x1.0f9db22d0e560p+3", "0x1.0f9db22d0e560p+3", "0x0.0p+0", "b31d0e0d50d9895c"),
    "B2": (30, "0x1.6efbadd683f54p+4", "0x1.6efc1e154144cp+4", "0x1.f3d6a5044770ap-22", "3e6adf4d169a6a11"),
    "C1": (30, "0x1.6ceb7c8f6a538p+2", "0x1.6ceb7c8f6a538p+2", "0x0.0p+0", "f13cadb680ae591f"),
    "C2": (30, "0x1.57c60a15d65f1p+4", "0x1.57c68bb1d0b85p+4", "0x1.b02147b27f807p-16", "26e9e7f8f64dcc4f"),
    "D1": (20, "0x1.5fef9db22d0e5p+5", "0x1.5fef9db22d0e5p+5", "0x0.0p+0", "f1ba3793637c8272"),
    "D2": (20, "0x1.420c58f404464p+7", "0x1.b4acac8174ea2p+17", "0x1.55976786d2a14p-2", "665735dabf66c94f"),
    "E1": (10, "0x1.244189374bc6ap+6", "0x1.244189374bc6ap+6", "0x0.0p+0", "9f946541f1d51bfe"),
    "E2": (10, "0x1.0b45dfdf84287p+7", "0x1.150bff738c03ep+8", "0x1.ffff5c993b110p-1", "c8d32210787650c5"),
    "F1": (10, "0x1.5d6a2a6c76253p+6", "0x1.5d6a2a6c76253p+6", "0x0.0p+0", "7b85e39e3e6ac770"),
    "F2": (10, "0x1.2ffe1d6a252e2p+7", "0x1.ab2b4ea4b108dp+9", "0x1.fffffffe88574p-1", "4ef323bb807809a1"),
}


@pytest.mark.parametrize("name", sorted(_TABLE_PINS))
def test_table_setting_dp_pinned(name):
    a_max, lower, upper, report, digest = _TABLE_PINS[name]
    spec = system_for(name)
    # default_a_max for N <= 3; 10 for N = 4 keeps Tier-1 fast
    assert a_max == (default_a_max(spec.n_sources) if spec.n_sources <= 3 else 10)
    sol = dp_box(name, a_max)
    assert sol.optimal_average_cost.hex() == lower
    assert sol.upper_bound.hex() == upper
    assert sol.truncation_report.hex() == report
    assert hashlib.sha256(sol.stage1_actions.tobytes()).hexdigest()[:16] == digest


# recorded with the longest-clean-run period scan of extract_cycle_policy,
# on the boxes of _TABLE_PINS at horizon 500: the cycle's actions and its
# average cost as float.hex
_CYCLE_PINS = {
    "A1": ((1, 0, 0), "0x1.6000000000000p+4"),
    "B1": ((1, 0), "0x1.1000000000000p+3"),
    "C1": ((1, 0), "0x1.6dce9df5c6436p+2"),
    "D1": ((1, 2, 1, 2, 0), "0x1.619999999999ap+5"),
    "E1": ((2, 3, 0, 1, 2, 0, 3, 1, 0), "0x1.2555555555555p+6"),
    "F1": ((2, 0, 3, 1, 0, 2, 1, 3, 0, 1), "0x1.5edee6d6f51f8p+6"),
}


@pytest.mark.parametrize("name", sorted(_CYCLE_PINS))
def test_table_setting_dp_cycle_pinned(name):
    actions, average = _CYCLE_PINS[name]
    sol = dp_box(name, _TABLE_PINS[name][0])
    cyc = extract_cycle_policy(sol)
    assert cyc.actions == actions
    assert cyc.average_cost.hex() == average


def test_extracted_cycle_is_a_loop_the_trajectory_repeats():
    # the first repeated (state, action) pair of this horizon-60 window
    # closes a 3-loop (2, 0, 1) costing 22.04 that the trajectory passes once
    # before it settles into the 8-cycle, which the period scan also found
    spec = SystemSpec(
        (Source(cost.exponential(math.e)), Source(cost.logarithmic(10)), Source(cost.power(0.5, 3)))
    )
    sol = finite_horizon_dp(spec, 60, a_max=10)
    window = sol.trajectory[15:58]  # extract_cycle_policy's window at horizon 60
    assert _first_cycle(spec, window, lambda step, pair: pair).actions == (2, 0, 1)
    cyc = extract_cycle_policy(sol)
    assert cyc.actions == (2, 0, 2, 1, 0, 2, 0, 1)
    assert cyc.average_cost.hex() == (21.819270529437915).hex()


def _clamped_trajectory(box, actions, initial):
    """The DP's own trajectory stepper that the shared reliable path
    replaced, kept as the oracle: ages grow clamped at a_max, so it agrees
    with the true path until an age passes the box."""
    ages = initial
    out = []
    for t in range(len(actions)):
        a = int(actions[t][box.state_index(ages)])
        out.append((ages, a))
        grown = [min(x + 1, box.a_max) for x in ages]
        grown[a] = 1
        ages = tuple(grown)
    return tuple(out)


class TestTrajectory:
    @pytest.mark.parametrize("name", ["A1", "B1", "C1", "D1", "E1", "F1"])
    def test_reliable_settings_match_the_clamped_stepper(self, name):
        spec = system_for(name)
        sol = dp_box(name, _TABLE_PINS[name][0])
        assert sol.truncation_report == 0.0
        tables = _stage_tables(spec, 500, sol.box)
        assert sol.trajectory == _clamped_trajectory(sol.box, tables, sol.initial_state)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_dp_case())
    def test_random_reliable_specs_match_the_clamped_stepper(self, case):
        spec, horizon, box, initial = case
        spec = SystemSpec(tuple(Source(s.cost) for s in spec.sources))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = finite_horizon_dp(spec, horizon, box.a_max, initial)
        oracle = _clamped_trajectory(box, _stage_tables(spec, horizon, box), initial)
        if sol.truncation_report == 0.0:
            assert sol.trajectory == oracle
        # the two agree until the true path first leaves the box
        out = [t for t, (ages, _) in enumerate(sol.trajectory) if max(ages) > box.a_max]
        inside = out[0] if out else horizon
        assert sol.trajectory[:inside] == oracle[:inside]

    @pytest.mark.filterwarnings("ignore:truncation report:RuntimeWarning")
    def test_a_path_past_the_box_is_not_a_cycle(self):
        # serving the costly source forever starves the free one; clamped at
        # a_max 4 its age would stall at 4 and fake a one-state cycle
        spec = SystemSpec((Source(cost.table([0.0])), Source(cost.linear(1))))
        box = TruncatedBox(4, 2)
        sol = finite_horizon_dp(spec, 200, a_max=box.a_max)
        assert _clamped_trajectory(box, _stage_tables(spec, 200, box), (1, 1))[100] == ((4, 1), 1)
        assert sol.trajectory[100] == ((101, 1), 1)
        with pytest.raises(NonCyclicError):
            extract_cycle_policy(sol)


class TestPolicyTable:
    def test_action_lookup_and_tabular_export(self):
        spec = system_for("A1")
        sol = finite_horizon_dp(spec, 500, a_max=12)
        a = sol.action((1, 1))
        assert a in (0, 1)

    def test_stage_one_table_matches_whittle_on_cycle_states(self):
        spec = system_for("B1")
        sol = finite_horizon_dp(spec, 500, a_max=30)
        cyc = extract_cycle_policy(sol)
        from aoisched.policies import decide

        for s, a in zip(cyc.states, cyc.actions):
            assert decide(Whittle(), spec, s) == a
