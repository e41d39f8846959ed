import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import cost, decoupled
from aoisched.decoupled import (
    NEVER,
    DecoupledProblem,
    ThresholdPolicy,
    _index_supremum,
    _verify_thresholds,
    decoupled_value_iteration,
    discounted_tail,
    indexability_sweep,
    optimal_threshold,
    threshold_policy_average_cost,
    whittle_index,
)
from aoisched.errors import (
    AdmissibilityError,
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    CostRangeError,
    DomainError,
)

from conftest import random_cost, random_cost_and_p


class TestReliableIndex:
    def test_linear_closed_form_value(self):
        # w (h^2 + h) / 2 at h = 3
        assert whittle_index(cost.linear(1), 1.0, 3) == 6.0

    def test_constant_cost_index_is_zero(self):
        f = cost.table([4.0])
        for h in (1, 2, 10, 500):
            assert whittle_index(f, 1.0, h) == 0.0

    def test_square_cost_at_two(self):
        assert whittle_index(cost.power(1, 2), 1.0, 2) == 13.0

    def test_square_indifference_oracle(self):
        # charging exactly W(2) makes thresholds 2 and 3 equally good
        f = cost.power(1, 2)
        C = whittle_index(f, 1.0, 2)
        sol = decoupled_value_iteration(DecoupledProblem(f, 1.0, C), a_max=128)
        assert sol.policy.threshold in (2, 3)
        lam2 = threshold_policy_average_cost(f, 1.0, 2, C)
        lam3 = threshold_policy_average_cost(f, 1.0, 3, C)
        assert lam2 == pytest.approx(lam3, abs=1e-12)
        assert sol.average_cost == pytest.approx(lam2, abs=1e-7)

    @pytest.mark.parametrize("h", [1, 5, 17, 33, 50])
    def test_indifference_holds_up_to_fifty(self, h):
        for f, p in ((cost.linear(2), 1.0), (cost.power(1, 2), 0.8), (cost.logarithmic(9), 0.6)):
            C = float(whittle_index(f, p, h, tol=1e-13))
            if C == 0.0:
                continue
            sol = decoupled_value_iteration(DecoupledProblem(f, p, C))
            assert sol.policy.threshold in (h, h + 1)
            lam_a = threshold_policy_average_cost(f, p, h, C, tol=1e-14)
            lam_b = threshold_policy_average_cost(f, p, h + 1, C, tol=1e-14)
            assert abs(lam_a - lam_b) < 1e-6

    def test_monotone_in_h(self, rng):
        for _ in range(25):
            f, _ = random_cost_and_p(rng)
            cap = cost.max_representable_age(f)
            top = 1001 if cap is None else min(1001, cap - 1)
            w = whittle_index(f, 1.0, np.arange(1, top))
            assert np.all(np.diff(w) >= -1e-9 * np.maximum(1, np.abs(w[:-1])))


class TestUnreliableIndex:
    def test_linear_closed_form_value(self):
        # w p h (h + (2-p)/p) / 2 at w=1, p=0.5, h=2
        assert whittle_index(cost.linear(1), 0.5, 2) == pytest.approx(2.5, abs=1e-12)

    def test_p_one_collapses_exactly(self, rng):
        for _ in range(20):
            f, _ = random_cost_and_p(rng)
            h = int(rng.integers(1, 60))
            # the series collapses to f(h+1): h f(h+1) - sum f(1..h)
            assert whittle_index(f, 1.0, h) == h * discounted_tail(f, 1.0, h) - cost.prefix_array(f, h)[-1]

    def test_series_against_independent_oracle(self):
        f, p, h = cost.power(1, 2), 0.8, 3
        ks = np.arange(1, 400)
        oracle = math.fsum(cost.evaluate(f, ks + h) * (1 - p) ** (ks - 1.0))
        got = discounted_tail(f, p, h, tol=1e-12)
        assert got == pytest.approx(oracle, rel=1e-10)
        w = whittle_index(f, p, h)
        assert w == pytest.approx(p * p * h * oracle - p * 14.0, rel=1e-10)

    def test_bounded_cost_enforced(self):
        with pytest.raises(AdmissibilityError):
            whittle_index(cost.exponential(3), 0.5, 1)

    def test_limit_consistency_near_one(self, rng):
        p = 1 - 1e-9
        for _ in range(10):
            f, _ = random_cost_and_p(rng)
            for h in (1, 7, 40, 100):
                w1 = whittle_index(f, p, h)
                w0 = whittle_index(f, 1.0, h)
                assert abs(w1 - w0) <= 1e-5 * (1 + abs(w0))

    def test_monotone_in_h(self, rng):
        hs = np.arange(1, 200)
        for _ in range(10):
            f, p = random_cost_and_p(rng)
            w = whittle_index(f, p, hs)
            assert np.all(np.diff(w) >= -1e-8 * np.maximum(1, np.abs(w[:-1])))

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            whittle_index(cost.linear(1), 0.5, 2, tol=0.0)


class TestOptimalThreshold:
    def test_linear_reliable_charge_five(self):
        pol = optimal_threshold(DecoupledProblem(cost.linear(1), 1.0, 5.0))
        assert pol.threshold == 3
        # two-sided condition holds: f(3) <= (6+5)/3 <= f(4)
        lam = (cost.prefix_sum(cost.linear(1), 3) + 5.0) / 3
        assert 3.0 <= lam <= 4.0

    def test_zero_charge_always_activates(self, rng):
        for _ in range(10):
            f, p = random_cost_and_p(rng)
            pol = optimal_threshold(DecoupledProblem(f, p, 0.0))
            assert pol.threshold == 1

    def test_constant_cost_never_activates(self):
        pol = optimal_threshold(DecoupledProblem(cost.table([1.0]), 1.0, 1.0))
        assert pol.is_never
        assert pol.threshold is NEVER

    def test_indicator_bounded_index(self):
        # sup W = w (thr - 1): charges beyond it mean never activating
        f = cost.indicator(5, weight=2.0)
        assert optimal_threshold(DecoupledProblem(f, 1.0, 8.1)).is_never
        assert not optimal_threshold(DecoupledProblem(f, 1.0, 7.9)).is_never

    def test_threshold_is_smallest_h_with_index_above_charge(self, rng):
        for _ in range(40):
            f, p = random_cost_and_p(rng)
            C = float(rng.uniform(0, 50))
            pol = optimal_threshold(DecoupledProblem(f, p, C))
            if pol.is_never or C == 0:
                continue
            H = pol.threshold
            assert whittle_index(f, p, H) > C
            if H > 1:
                assert whittle_index(f, p, H - 1) <= C + 1e-9 * max(1, C)

    def test_activates_helper(self):
        pol = ThresholdPolicy(4)
        assert not pol.activates(3)
        assert pol.activates(4)
        assert not ThresholdPolicy(NEVER).activates(10**9)


class TestValueIteration:
    def test_linear_reliable_matches_closed_form(self):
        sol = decoupled_value_iteration(DecoupledProblem(cost.linear(1), 1.0, 5.0), a_max=100)
        assert sol.policy.threshold == 3
        assert sol.average_cost == pytest.approx(11 / 3, abs=1e-7)

    def test_zero_charge(self):
        sol = decoupled_value_iteration(DecoupledProblem(cost.linear(1), 1.0, 0.0), a_max=64)
        assert sol.policy.threshold == 1
        assert sol.average_cost == pytest.approx(1.0, abs=1e-7)

    def test_unreliable_matches_closed_form_at_returned_threshold(self):
        prob = DecoupledProblem(cost.linear(1), 0.5, 2.0)
        sol = decoupled_value_iteration(prob, a_max=200)
        lam = threshold_policy_average_cost(cost.linear(1), 0.5, sol.policy.threshold, 2.0)
        assert sol.average_cost == pytest.approx(lam, abs=1e-6)

    def test_differential_costs_normalized_and_monotone(self, rng):
        for _ in range(10):
            f, p = random_cost_and_p(rng)
            C = float(rng.uniform(0.1, 20))
            sol = decoupled_value_iteration(DecoupledProblem(f, p, C))
            S = sol.differential_costs
            assert S[0] == 0.0
            assert np.all(np.diff(S) >= -1e-7 * max(1.0, float(np.abs(S).max())))

    def test_agrees_with_index_inversion(self, rng):
        for _ in range(15):
            f, p = random_cost_and_p(rng)
            C = float(rng.uniform(0.1, 30))
            prob = DecoupledProblem(f, p, C)
            inv = optimal_threshold(prob)
            sol = decoupled_value_iteration(prob)
            if inv.is_never:
                assert sol.policy.is_never
            else:
                assert sol.policy.threshold in (inv.threshold, inv.threshold + 1)

    @pytest.mark.parametrize(
        "f, p, C, a_max, threshold",
        [
            (cost.linear(1), 1.0, 50.0, 16, 10),
            (cost.power(1, 2), 0.6, 200.0, 16, 7),
            (cost.indicator(20, 5.0), 0.7, 1.0, 32, 16),
        ],
    )
    def test_a_box_too_small_to_see_the_growth_doubles(self, f, p, C, a_max, threshold):
        # at a_max 4 each cost looks flat, so the box gives NEVER
        prob = DecoupledProblem(f, p, C)
        sol = decoupled_value_iteration(prob, a_max=4)
        assert (sol.policy.threshold, sol.a_max) == (threshold, a_max)
        assert optimal_threshold(prob).threshold == threshold

    def test_never_stands_on_a_box_past_the_plateau_or_at_an_infinite_charge(self):
        plateau = DecoupledProblem(cost.indicator(3, 1.0), 1.0, 5.0)
        sol = decoupled_value_iteration(plateau, a_max=3)
        assert sol.policy.is_never and sol.a_max == 3
        sol = decoupled_value_iteration(DecoupledProblem(cost.linear(1), 0.5, math.inf), a_max=20)
        assert sol.policy.is_never and sol.a_max == 20

    def test_never_case_converges_to_cost_ceiling(self):
        sol = decoupled_value_iteration(DecoupledProblem(cost.table([2.0]), 1.0, 3.0), a_max=64)
        assert sol.policy.is_never
        assert sol.average_cost == pytest.approx(2.0, abs=1e-7)


class TestIndexabilitySweep:
    def test_thresholds_non_decreasing_linear(self):
        pols = indexability_sweep(cost.linear(1), 1.0, [0.0, 1.0, 5.0, 20.0])
        thresholds = [p.threshold for p in pols]
        assert thresholds[0] == 1
        assert thresholds == sorted(thresholds)

    def test_constant_cost_all_never(self):
        pols = indexability_sweep(cost.table([3.0]), 1.0, [0.5, 1.0, 2.0])
        assert all(p.is_never for p in pols)

    def test_log_spaced_sweep_monotone_with_vi_crosscheck(self, rng):
        f, p = cost.power(1, 2), 0.7
        charges = np.geomspace(1e-2, 1e4, 50)
        pols = indexability_sweep(f, p, charges)
        numeric = [math.inf if t.is_never else t.threshold for t in pols]
        assert numeric == sorted(numeric)
        for i in sorted(rng.choice(len(charges), size=5, replace=False)):
            if pols[i].is_never:
                continue
            sol = decoupled_value_iteration(DecoupledProblem(f, p, float(charges[i])), a_max=512)
            assert sol.policy.threshold in (pols[i].threshold, pols[i].threshold + 1)

    def test_rejects_non_increasing_charges(self):
        with pytest.raises(DomainError):
            indexability_sweep(cost.linear(1), 1.0, [1.0, 1.0, 2.0])

    def test_no_charges_still_checks_p_and_the_bounded_cost_condition(self):
        with pytest.raises(DomainError, match="p must be"):
            indexability_sweep(cost.linear(1), 2.0, [])
        with pytest.raises(AdmissibilityError, match="bounded-cost"):
            indexability_sweep(cost.exponential(3), 0.1, [])
        assert indexability_sweep(cost.linear(1), 0.5, []) == []


@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_index_increments_match_cost_increments(seed, h):
    # W(h+1) - W(h) = (h+1) (f(h+2) - f(h+1)) >= 0 for reliable channels
    rng = np.random.default_rng(seed)
    f, _ = random_cost_and_p(rng)
    lhs = whittle_index(f, 1.0, h + 1) - whittle_index(f, 1.0, h)
    rhs = (h + 1) * (cost.evaluate(f, h + 2) - cost.evaluate(f, h + 1))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- the index row against the scalar series ----------------------------------


def _scalar_discounted_tail(f, p, h, tol=1e-12):
    """The per-age scalar loop that the vectorised series replaced, kept as
    its oracle: sum_{k>=1} f(k+h) (1-p)^{k-1} (p < 1), summed in blocks of
    terms with one fsum each until the geometric tail bound on the
    remainder drops below tol * max(1, partial sum); exponential terms by
    the exact recursion term *= base * (1-p)."""
    q = 1.0 - p
    if f.kind == "exponential":
        r = f.base * q
        term = cost.evaluate(f, h + 1)
        total = 0.0
        while True:
            total += term
            term *= r
            if term / (1.0 - r) <= tol * max(1.0, abs(total)):
                return total
    start_bound = f.plateau_start if f.is_bounded_function else (2 if f.kind == "logarithmic" else 1)
    total = 0.0
    k = 1
    block = 64
    while True:
        ks = np.arange(k, k + block)
        terms = cost.evaluate(f, ks + h) * q ** (ks - 1.0)
        total += math.fsum(terms)
        k += block
        x_next = h + k  # age of the first un-summed term
        if x_next - 1 >= start_bound:
            r = f.growth_ratio_bound(x_next - 1) * q
            if r < 1:
                tail = float(terms[-1]) * r / (1.0 - r)
                if tail <= tol * max(1.0, abs(total)):
                    return total
        block = min(2 * block, 4096)


def _scalar_whittle_unreliable(f, p, h, tol=1e-10):
    tail = _scalar_discounted_tail(f, p, h, tol=tol)
    return p * p * h * tail - p * float(cost.prefix_array(f, h)[-1])


def _lossy_cost(seed, p, near_edge):
    """A random cost that is bounded at p: one of the test suite's six
    families as random_cost_and_p draws them, or an exponential whose ratio
    base*(1-p) lies within 1% below 1 (p >= 0.02 keeps its base above 1)."""
    rng = np.random.default_rng(seed)
    if near_edge:
        ratio = float(rng.uniform(0.99, 1.0))
        return cost.exponential(ratio / (1.0 - p), float(rng.uniform(0.5, 3.0)))
    return random_cost(rng, p_for_exponential=p)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.02, 0.995),
    near_edge=st.booleans(),
    ages=st.lists(st.integers(1, 2100), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
# numpy rounds the power of this exponential at age 2 differently for a 0-d
# operand than for an array (about one age in 6000 differs)
@example(seed=102, p=0.75, near_edge=False, ages=[1])
def test_index_row_is_bit_identical_to_the_scalar_series(seed, p, near_edge, ages):
    f = _lossy_cost(seed, p, near_edge)
    cap = cost.max_representable_age(f)
    top = 2050 if cap is None else min(2050, cap - 1)
    # unsorted, with a repeat, age 1 and (where f allows) an age past 2000
    hs = np.array([min(h, top) for h in ages] + [1, top, min(ages[0], top)])
    row = whittle_index(f, p, hs)
    assert np.array_equal(row, [_scalar_whittle_unreliable(f, p, int(h)) for h in hs])
    for h in set(hs.tolist()):
        assert discounted_tail(f, p, h) == _scalar_discounted_tail(f, p, h)


@pytest.mark.parametrize(
    "f",
    [cost.linear(1), cost.logarithmic(3), cost.exponential(1.1)],
    ids=["linear", "logarithmic", "exponential"],
)
def test_index_row_memory_stays_bounded(f):
    # the terms are gathered a few thousand at a time; a 2000-wide row at a
    # small p peaks at about 0.2 MiB (0.25 for the exponential's geometric
    # blocks), and 64k-term chunks would take 2.7
    hs = np.arange(1, 2001)
    whittle_index(f, 0.15, hs[:50])
    tracemalloc.start()
    try:
        whittle_index(f, 0.15, hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("h", [1.5, 0, -1])
def test_index_rejects_non_integer_and_non_positive_ages(p, h):
    with pytest.raises(DomainError, match="positive integer"):
        whittle_index(cost.linear(1), p, np.array([2, h]))
    with pytest.raises(DomainError, match="positive integer"):
        whittle_index(cost.linear(1), p, h)


def test_empty_age_array_gives_an_empty_row():
    assert whittle_index(cost.linear(1), 0.5, np.array([], dtype=int)).shape == (0,)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_index_keeps_the_shape_of_its_ages(p):
    f = cost.linear(1)
    row = whittle_index(f, p, np.arange(1, 6))
    # a 0-d age gives a float, as cost.evaluate does
    for h in (5, np.int64(5), np.array(5)):
        got = whittle_index(f, p, h)
        assert type(got) is float and got == row[4]
    grid = whittle_index(f, p, [[1, 2], [3, 4]])
    assert grid.shape == (2, 2) and np.array_equal(grid.reshape(-1), row[:4])
    assert whittle_index(f, p, np.array([[3], [5]])).tolist() == [[row[2]], [row[4]]]


# -- threshold search against the old linear scan ------------------------------


def _old_scan_for_threshold(f, p, C, h_stop, memo, block=256):
    """The scan that threshold search replaced: W in geometric blocks of ages
    from 1, each lossy block through the scalar series (remembered in `memo`
    across charges, to keep the test quick), the reliable case with a
    running prefix-sum carry across blocks."""
    lo = 1
    carry = 0.0
    while True:
        hi = lo + block - 1
        if h_stop is not None:
            hi = min(hi, h_stop)
        hs = np.arange(lo, hi + 1)
        if p == 1.0:
            pref = carry + np.cumsum(cost.evaluate(f, hs))
            w = hs * cost.evaluate(f, hs + 1) - pref
            carry = float(pref[-1])
        else:
            for h in hs.tolist():
                if h not in memo:
                    memo[h] = _scalar_whittle_unreliable(f, p, h)
            w = np.array([memo[h] for h in hs.tolist()])
        above = np.nonzero(w > C)[0]
        if above.size:
            return int(hs[above[0]])
        if h_stop is not None and hi >= h_stop:
            return None
        lo = hi + 1
        block = min(2 * block, 1 << 16)


def _old_optimal_threshold(f, p, C, memo=None):
    if C == 0.0:
        return 1
    if C >= _index_supremum(f, p):
        return NEVER
    h_stop = f.plateau_start + 1 if f.is_bounded_function else None
    h = _old_scan_for_threshold(f, p, C, h_stop, {} if memo is None else memo)
    if h is None:
        return NEVER
    _verify_thresholds(f, p, [C], [h])
    return h


def _charges(rng, f, p):
    """Strictly increasing charges: 0, index entries exactly, midpoints
    between them, and the supremum and beyond for bounded costs."""
    cap = cost.max_representable_age(f)
    top = 120 if cap is None else min(120, cap - 2)
    row = whittle_index(f, p, np.arange(1, top + 1))
    picks = row[np.sort(rng.choice(top, size=8, replace=False))]
    mids = (row[:-1] + row[1:])[rng.choice(top - 1, size=4, replace=False)] / 2
    charges = [0.0, *picks, *mids, *rng.uniform(0, max(row[-1], 0.0), size=4)]
    sup = _index_supremum(f, p)
    if math.isfinite(sup):
        charges += [sup, sup * 1.5, float(np.nextafter(sup, 0))]
    return sorted({float(c) for c in charges if c >= 0})


def test_threshold_search_matches_the_old_scan(rng):
    for _ in range(40):
        f, p = random_cost_and_p(rng)
        charges = _charges(rng, f, p)
        memo = {}
        old = [_old_optimal_threshold(f, p, C, memo) for C in charges]
        assert [optimal_threshold(DecoupledProblem(f, p, C)).threshold for C in charges] == old
        assert [t.threshold for t in indexability_sweep(f, p, charges)] == old


def test_charge_equal_to_an_index_entry_gives_the_next_age_above_it():
    # linear(1) at p = 1: W(h) = h (h + 1) / 2, strictly increasing
    f = cost.linear(1)
    for h in (1, 3, 40):
        C = whittle_index(f, 1.0, h)
        assert optimal_threshold(DecoupledProblem(f, 1.0, C)).threshold == h + 1
    # near its plateau this row dips by an ulp (W(8) < W(7) = sup): C = W(h)
    # still gives the first age above it, and C at the supremum gives NEVER
    f = cost.table([0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    row = whittle_index(f, 0.6, np.arange(1, 10))
    for C in row[:8]:
        got = optimal_threshold(DecoupledProblem(f, 0.6, float(C))).threshold
        assert got == _old_optimal_threshold(f, 0.6, float(C))
        if got is not NEVER:
            assert row[got - 1] > C and np.all(row[: got - 1] <= C)


def test_reliable_thresholds_above_256_match_the_old_scan():
    # The old scan summed prefixes per block with a carry, so past age 256 its
    # row could differ from one cumsum in the last bit; a charge within an ulp
    # of an entry could then invert one age apart. Midway charges and
    # integer-valued costs (whose sums are exact) cannot tell them apart.
    for f in (cost.linear(1), cost.power(1, 2), cost.logarithmic(7.5), cost.power(0.3, 1.5)):
        row = whittle_index(f, 1.0, np.arange(1, 3001))
        for h in (257, 300, 511, 700, 2999):
            C = float((row[h - 2] + row[h - 1]) / 2)
            assert optimal_threshold(DecoupledProblem(f, 1.0, C)).threshold == h
            assert _old_optimal_threshold(f, 1.0, C) == h
    f = cost.linear(3)
    row = whittle_index(f, 1.0, np.arange(1, 1001))
    charges = row[[300, 301, 640, 998]]
    assert [t.threshold for t in indexability_sweep(f, 1.0, charges)] == [302, 303, 642, 1000]


@pytest.mark.parametrize("base, p", [(1000.0, 1.0), (900.0, 0.999)])
def test_threshold_below_a_cap_that_the_old_first_block_passed(base, p):
    # f(h) = base^h overflows 1e300 from age ~100, inside the old scan's
    # first block of 256 ages, so that scan raised at any charge; the row
    # stops at the last age whose index is representable instead
    f = cost.exponential(base)
    cap = cost.max_representable_age(f)
    assert cap < 256
    row = whittle_index(f, p, np.arange(1, cap))
    wanted = (2, 70, cap - 1)
    charges = [float((row[h - 2] + row[h - 1]) / 2) for h in wanted]
    with pytest.raises(CostRangeError):
        _old_optimal_threshold(f, p, charges[0])
    assert [optimal_threshold(DecoupledProblem(f, p, C)).threshold for C in charges] == list(wanted)
    assert [t.threshold for t in indexability_sweep(f, p, charges)] == list(wanted)


def test_a_charge_past_the_last_representable_index_raises():
    f = cost.exponential(1000.0)
    cap = cost.max_representable_age(f)
    C = float(whittle_index(f, 1.0, cap - 1)) * 2
    with pytest.raises(CostRangeError):
        optimal_threshold(DecoupledProblem(f, 1.0, C))


@pytest.mark.parametrize("p", [1.0, 0.6])
def test_a_row_stopped_by_the_cost_raises_cost_range_error(monkeypatch, p):
    # exponential(2) overflows past age 996, so its row stops at age 995,
    # inside a MAX_INDEX_ROW of 1024: the cost stopped it, not the row limit
    monkeypatch.setattr(decoupled, "MAX_INDEX_ROW", 1024)
    f = cost.exponential(2.0)
    cap = cost.max_representable_age(f)
    assert cap == 996
    C = float(whittle_index(f, p, cap - 1)) * 2
    with pytest.raises(CostRangeError, match="no index up to age 995 exceeds the charge"):
        optimal_threshold(DecoupledProblem(f, p, C))


@pytest.mark.parametrize("p", [0.4, 1.0])
def test_the_batched_guard_rejects_one_threshold_off_by_one(p):
    # charges midway between index entries: thresholds 2..9, each with a
    # clear margin on both sides of its two-sided condition
    f = cost.power(1, 2)
    row = whittle_index(f, p, np.arange(1, 10))
    charges = (row[:-1] + row[1:]) / 2
    thresholds = [t.threshold for t in indexability_sweep(f, p, charges)]
    assert thresholds == list(range(2, 10))
    _verify_thresholds(f, p, charges, thresholds)
    for j, step in ((0, -1), (3, 1), (7, -1), (7, 1)):
        bad = list(thresholds)
        bad[j] += step
        with pytest.raises(ConsistencyError, match=f"threshold {bad[j]} fails"):
            _verify_thresholds(f, p, charges, bad)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_a_nan_charge_is_refused_before_any_search(p):
    # nan exceeds no index entry, so a search would grow its row without end
    with pytest.raises(DomainError, match="non-negative"):
        DecoupledProblem(cost.linear(1), p, math.nan)
    with pytest.raises(DomainError, match="non-negative"):
        indexability_sweep(cost.linear(1), p, [1.0, math.nan])
    with pytest.raises(DomainError, match="non-negative"):
        indexability_sweep(cost.linear(1), p, [math.nan])


def test_a_charge_past_the_row_limit_raises_capacity_error(monkeypatch):
    # W(h) = h (h + 1) / 2 for linear(1): charge 1e20 puts the threshold near
    # age 1.4e10, charge 1e6 at 1414
    monkeypatch.setattr(decoupled, "MAX_INDEX_ROW", 1 << 12)
    f = cost.linear(1)
    assert optimal_threshold(DecoupledProblem(f, 1.0, 1e6)).threshold == 1414
    with pytest.raises(CapacityError, match=r"age 4096 exceeds the charge 1e\+20"):
        optimal_threshold(DecoupledProblem(f, 1.0, 1e20))
    with pytest.raises(CapacityError, match="age 4096"):
        indexability_sweep(f, 0.5, [1.0, 1e20])


@pytest.mark.parametrize(
    "f, p, charge",
    [(cost.linear(1), 0.5, 1e20), (cost.linear(1), 1.0, 1e20), (cost.power(1, 2), 0.3, 1e30),
     (cost.logarithmic(1), 0.5, 1e20)],
)
def test_an_unreachable_charge_is_refused_in_seconds(f, p, charge):
    # the lossy linear row up to MAX_INDEX_ROW once took 87 s and 630 MB to build
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"age {decoupled.MAX_INDEX_ROW} exceeds"):
        optimal_threshold(DecoupledProblem(f, p, charge))
    assert time.perf_counter() - start < 10


def test_the_reach_bound_refuses_only_charges_past_it(monkeypatch):
    # linear(1) at p = 1: W(h) = h (h + 1) / 2, bounded by h f(h + 1) = h (h + 1),
    # so W(4096) is about 8.4e6 and its bound about 1.7e7
    monkeypatch.setattr(decoupled, "MAX_INDEX_ROW", 1 << 12)
    monkeypatch.setattr(decoupled, "_REACH_CHECK_ROW", 1 << 6)
    built, real = [], decoupled.whittle_index

    def recorded(f, p, h, tol=1e-10):
        built.append(np.max(h))  # the last age of each row built
        return real(f, p, h, tol=tol)

    monkeypatch.setattr(decoupled, "whittle_index", recorded)
    f = cost.linear(1)
    assert optimal_threshold(DecoupledProblem(f, 1.0, 1e6)).threshold == 1414
    for charge, row in ((1e7, 1 << 12), (2e7, 1 << 6)):
        built.clear()
        with pytest.raises(CapacityError, match=r"age 4096 exceeds"):
            optimal_threshold(DecoupledProblem(f, 1.0, charge))
        assert max(built) == row


def test_rvi_past_its_iteration_budget_names_the_span(monkeypatch):
    monkeypatch.setattr(decoupled, "RVI_MAX_ITERS", 2)
    with pytest.raises(ConvergenceError, match=r"within 2 iterations \(span \d"):
        decoupled_value_iteration(DecoupledProblem(cost.linear(1), 0.5, 3.0), a_max=20)


@pytest.mark.parametrize("f", [cost.linear(1), cost.table([1.0, 2.0])], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_an_infinite_charge_never_activates(f, p):
    assert optimal_threshold(DecoupledProblem(f, p, math.inf)).is_never
    assert indexability_sweep(f, p, [1.0, math.inf])[-1].is_never
