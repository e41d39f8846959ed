import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import Source, SystemSpec, cost
from aoisched.decoupled import DecoupledProblem, optimal_threshold
from aoisched.dp import finite_horizon_dp
from aoisched.errors import CostRangeError, DomainError
from aoisched.policies import RoundRobin
from aoisched.sim import simulate
from aoisched.structure import certify_theorem3

from conftest import ALL_KINDS, random_cost, random_cost_and_p


class TestEvaluate:
    def test_linear_weighted(self):
        assert cost.evaluate(cost.linear(13), 1) == 13.0

    def test_exponential(self):
        assert cost.evaluate(cost.exponential(3), 2) == 9.0

    def test_indicator_boundary(self):
        f = cost.indicator(10)
        assert cost.evaluate(f, 9) == 0.0
        assert cost.evaluate(f, 10) == 1.0

    def test_power(self):
        assert cost.evaluate(cost.power(0.5, 3), 4) == 32.0

    def test_log_default_base_is_natural(self):
        f = cost.logarithmic(10)
        assert cost.evaluate(f, 1) == 0.0
        assert cost.evaluate(f, 2) > 0
        assert cost.evaluate(f, 5) == pytest.approx(10 * math.log(5))

    def test_log_configurable_base(self):
        f = cost.logarithmic(10, base=10)
        assert cost.evaluate(f, 100) == pytest.approx(20.0)

    def test_table_constant_tail(self):
        f = cost.table([1, 2, 7, 7])
        assert cost.evaluate(f, 4) == 7.0
        assert cost.evaluate(f, 400) == 7.0

    def test_vectorized(self):
        out = cost.evaluate(cost.linear(2), np.arange(1, 5))
        assert np.array_equal(out, [2, 4, 6, 8])

    @pytest.mark.parametrize("bad", [0, -1, 0.5])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            cost.evaluate(cost.linear(1), bad)

    def test_overflow_guard_reports_age(self):
        f = cost.exponential(3)
        with pytest.raises(CostRangeError, match="age"):
            cost.evaluate(f, 1000)
        # the largest representable age evaluates cleanly
        cap = cost.max_representable_age(f)
        assert cost.evaluate(f, cap) <= cost.OVERFLOW_LIMIT
        with pytest.raises(CostRangeError):
            cost.evaluate(f, cap + 1)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ALL_KINDS),
    x=st.integers(1, 600),
    offset=st.integers(0, 40),
)
@settings(max_examples=300, deadline=None)
# numpy rounds the power of this exponential at age 2 differently for a 0-d
# operand than for an array
@example(seed=0, kind="exponential-2.656", x=2, offset=1)
def test_scalar_one_element_and_row_entry_give_the_same_bits(seed, kind, x, offset):
    if kind == "exponential-2.656":
        f = cost.exponential(2.656, 1.243)
    else:
        f = random_cost(np.random.default_rng(seed), kinds=(kind,))
    cap = cost.max_representable_age(f)
    top = x + 40 if cap is None else min(x + 40, cap)
    x = min(x, top)
    offset = min(offset, x - 1)
    row = cost.evaluate(f, np.arange(x - offset, top + 1))
    one = cost.evaluate(f, np.array([x]))
    scalar = cost.evaluate(f, x)
    assert isinstance(scalar, float) and one.shape == (1,)
    assert scalar == one[0] == row[offset]
    assert cost.evaluate(f, np.int64(x)) == cost.evaluate(f, np.array(x)) == scalar


class TestValidation:
    def test_bad_weight(self):
        with pytest.raises(DomainError):
            cost.linear(0)

    def test_bad_base(self):
        with pytest.raises(DomainError):
            cost.exponential(1.0)

    def test_table_must_be_monotone(self):
        with pytest.raises(DomainError):
            cost.table([3, 1])

    def test_table_non_negative(self):
        with pytest.raises(DomainError):
            cost.table([-1, 2])


class TestPrefixSum:
    def test_linear(self):
        assert cost.prefix_sum(cost.linear(1), 4) == 10.0

    def test_exponential(self):
        assert cost.prefix_sum(cost.exponential(3), 3) == 39.0

    def test_power_against_direct_summation(self):
        f = cost.power(1, 2)
        direct = sum(float(cost.evaluate(f, j)) for j in range(1, 6))
        assert cost.prefix_sum(f, 5) == pytest.approx(direct, rel=0, abs=0)
        assert cost.prefix_sum(f, 5) == 55.0

    def test_h_zero_rejected(self):
        with pytest.raises(DomainError):
            cost.prefix_sum(cost.linear(1), 0)

    def test_telescoping_random(self, rng):
        for _ in range(50):
            f, _ = random_cost_and_p(rng)
            h = int(rng.integers(2, 200))
            lhs = cost.prefix_sum(f, h)
            rhs = cost.prefix_sum(f, h - 1) + cost.evaluate(f, h)
            assert lhs == pytest.approx(rhs, rel=1e-10)


@given(
    kind_seed=st.integers(0, 2**32 - 1),
    x=st.integers(min_value=1, max_value=9_999),
)
@settings(max_examples=150, deadline=None)
def test_monotone_in_age(kind_seed, x):
    rng = np.random.default_rng(kind_seed)
    f, _ = random_cost_and_p(rng)
    cap = cost.max_representable_age(f)
    if cap is not None:
        x = min(x, cap - 1)
    assert cost.evaluate(f, x + 1) >= cost.evaluate(f, x)


def test_monotone_full_scan_per_variant():
    xs = np.arange(1, 10_001)
    for f in (
        cost.linear(3),
        cost.power(2, 1.7),
        cost.logarithmic(5),
        cost.indicator(17, 4),
        cost.table([0, 0, 1, 5, 5, 9]),
    ):
        vals = cost.evaluate(f, xs)
        assert np.all(np.diff(vals) >= 0)
    # exponential scanned up to its representable cap
    f = cost.exponential(2.5)
    xs = np.arange(1, cost.max_representable_age(f) + 1)
    assert np.all(np.diff(cost.evaluate(f, xs)) >= 0)


class TestBoundedCost:
    def test_divergent_example(self):
        chk = cost.is_bounded_cost(cost.exponential(3), 0.5)
        assert not chk
        assert chk.ratio == pytest.approx(1.5)

    def test_linear_converges(self):
        assert cost.is_bounded_cost(cost.linear(1), 0.1)

    def test_base2_p09_converges_and_partial_sums_stabilize(self):
        f = cost.exponential(2)
        p = 0.9
        chk = cost.is_bounded_cost(f, p)
        assert chk and chk.ratio == pytest.approx(0.2)
        # numeric probe: partial sums stabilize below 1e-12 relative change
        total, prev = 0.0, -1.0
        for h in range(1, 200):
            total += float(cost.evaluate(f, h)) * (1 - p) ** h
            if prev >= 0 and total - prev < 1e-12 * total:
                break
            prev = total
        assert total - prev < 1e-12 * total

    def test_p_one_always_bounded(self):
        assert cost.is_bounded_cost(cost.exponential(3), 1.0)

    def test_p_zero_domain_error(self):
        with pytest.raises(DomainError):
            cost.is_bounded_cost(cost.linear(1), 0.0)

    def test_closed_form_agrees_with_numeric_probe(self, rng):
        checked = 0
        while checked < 100:
            f, p = random_cost_and_p(rng)
            if p == 1.0:
                p = 0.9
            checked += 1
            q = 1.0 - p
            if cost.is_bounded_cost(f, p):
                first = max(float(cost.evaluate(f, 1)), 1e-12)
                total, h = 0.0, 1
                while q**h >= 1e-15 * first and h < 5000:
                    total += float(cost.evaluate(f, h)) * q**h
                    h += 1
                assert math.isfinite(total)
            else:
                # divergent closed form: terms do not decay, partial sums climb
                terms = [float(cost.evaluate(f, h)) * q**h for h in range(1, 60)]
                assert terms[-1] >= terms[0] > 0

    def test_divergent_probe_on_the_boundary_example(self):
        f, p = cost.exponential(3), 0.5
        assert not cost.is_bounded_cost(f, p)
        terms = [float(cost.evaluate(f, h)) * 0.5**h for h in range(1, 40)]
        assert all(b > a for a, b in zip(terms, terms[1:]))


def test_growth_ratio_bound_answers_at_every_age(rng):
    # inf where f can be 0 at or past x: log at age 1, a bounded cost below its plateau
    assert cost.logarithmic(1).growth_ratio_bound(1) == math.inf
    assert cost.indicator(5).growth_ratio_bound(4) == math.inf
    assert cost.indicator(5).growth_ratio_bound(5) == 1.0
    assert cost.table([0.0, 0.0, 2.0]).growth_ratio_bound(2) == math.inf
    for _ in range(60):
        f = random_cost(rng)
        vals = cost.row(f, 300)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = vals[1:] / vals[:-1]  # f(y+1)/f(y) at y = 1, 2, ...
        for x in range(1, len(ratios) + 1, 7):
            # 0/0 on a zero stretch is no ratio at all
            seen = np.nanmax(ratios[x - 1 :], initial=0.0)
            assert f.growth_ratio_bound(x) >= seen * (1 - 1e-12), (f, x)


class TestConfigRecords:
    def test_round_trip_all_kinds(self, rng):
        for _ in range(40):
            f, _ = random_cost_and_p(rng)
            assert cost.from_config(f.to_config()) == f

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            cost.from_config({"kind": "cubic"})

    def test_rejects_extra_fields(self):
        with pytest.raises(DomainError, match="unknown fields"):
            cost.from_config({"kind": "linear", "weight": 1, "slope": 2})

    def test_log_base_e_token(self):
        f = cost.from_config({"kind": "logarithmic", "weight": 2, "base": "e"})
        assert f.base == math.e


class TestMaxRepresentableAge:
    def test_fractional_power_has_no_limit(self):
        # (1e300 / w) ** (1 / e) overflows a float for e < 1; the limit is
        # computed in logs and reads MAX_AGE past 2^62
        assert cost.max_representable_age(cost.power(1, 0.5)) == cost.MAX_AGE
        assert cost.max_representable_age(cost.power(1e-5, 0.01)) == cost.MAX_AGE
        f = cost.power(1e299, 0.5)
        cap = cost.max_representable_age(f)
        assert cap == 100
        cost.evaluate(f, cap)
        with pytest.raises(CostRangeError):
            cost.evaluate(f, cap + 1)

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-5.0, 305.0))
    @settings(max_examples=200, deadline=None)
    def test_an_integer_up_to_max_age_for_every_kind(self, seed, scale):
        # the weight (or the table) scaled by 10^scale, so every kind meets
        # both an overflow inside the first ages and no overflow at all
        rng = np.random.default_rng(seed)
        f = random_cost(rng).to_config()
        if f["kind"] == "table":
            f["values"] = [v * 10.0**scale for v in f["values"]]
        else:
            f["weight"] = min(f["weight"] * 10.0**scale, 1e305)
        f = cost.from_config(f)
        cap = cost.max_representable_age(f)
        assert type(cap) is int and 0 <= cap <= cost.MAX_AGE
        if cap >= 1:
            cost.evaluate(f, cap)
        if cap < cost.MAX_AGE:
            with pytest.raises(CostRangeError):
                cost.evaluate(f, cap + 1)

    @pytest.mark.parametrize(
        "f, cap",
        [(cost.logarithmic(1e301), 1), (cost.indicator(3, 1e301), 2), (cost.table([0, 5, 1e301]), 2),
         (cost.table([1e301]), 0), (cost.indicator(3, 1e300), cost.MAX_AGE)],
    )
    def test_logarithmic_and_bounded_kinds_that_overflow(self, f, cap):
        # each kind once reported no limit, so cost.row(f, 5) raised
        assert cost.max_representable_age(f) == cap
        assert np.array_equal(cost.row(f, 5), cost.evaluate(f, np.arange(1, min(cap, 5) + 1)))

    @pytest.mark.parametrize(
        "f, cap",
        [(cost.power(1, 16.10), 4300712118415420159), (cost.logarithmic(2.33e298), 4357607907491885823)],
    )
    def test_a_cap_near_max_age_is_found_in_milliseconds(self, monkeypatch, f, cap):
        # near 2^62 consecutive ages round to one float cost, so the closed
        # form misses the cap by thousands of ages
        checks, real = [], cost._accepts
        monkeypatch.setattr(cost, "_accepts", lambda f, age: checks.append(age) or real(f, age))
        start = time.perf_counter()
        assert cost.max_representable_age(f) == cap
        assert time.perf_counter() - start < 0.02
        assert len(checks) <= 2 * 62

    @pytest.mark.parametrize("f, cap", [(cost.exponential(2), 996), (cost.exponential(3, 2.5), 627)])
    def test_an_exact_seed_costs_two_checks(self, monkeypatch, f, cap):
        checks, real = [], cost._accepts
        monkeypatch.setattr(cost, "_accepts", lambda f, age: checks.append(age) or real(f, age))
        assert cost.max_representable_age(f) == cap
        assert checks == [cap, cap + 1]

    @given(kind=st.sampled_from(ALL_KINDS), digits=st.floats(0.0, 18.7), exponent=st.floats(0.05, 15.0))
    @settings(max_examples=200, deadline=None)
    def test_the_cap_is_the_last_accepted_age(self, kind, digits, exponent):
        # weights that put the overflow near age x = 10^digits, up to past
        # 2^62, where the closed form rounds to either side of the cap
        x = 10.0**digits
        log_limit = math.log(cost.OVERFLOW_LIMIT)
        if kind == "linear":
            f = cost.linear(cost.OVERFLOW_LIMIT / x)
        elif kind == "power":
            f = cost.power(math.exp(log_limit - exponent * math.log(x)), exponent)
        elif kind == "exponential":
            base = 1.0 + exponent
            age = min(x, 690.0 / math.log(base))
            f = cost.exponential(base, math.exp(log_limit - age * math.log(base)))
        elif kind == "logarithmic":
            f = cost.logarithmic(cost.OVERFLOW_LIMIT / max(math.log(x), 1e-3))
        else:  # a plateau that overflows once digits passes 9
            w = 10.0 ** (299 + digits / 9)
            f = cost.indicator(3, w) if kind == "indicator" else cost.table([0.0, w])
        cap = cost.max_representable_age(f)
        assert cap == 0 or cost._accepts(f, cap)
        assert cap == cost.MAX_AGE or not cost._accepts(f, cap + 1)

    def test_callers_run_on_a_fractional_power(self):
        f = cost.power(1, 0.5)
        spec = SystemSpec((Source(f, 0.8), Source(cost.linear(1), 0.9)))
        assert simulate(spec, RoundRobin(), horizon=20, runs=2).mean_cost > 0
        sol = finite_horizon_dp(spec, 10, 6)
        assert 0 < sol.optimal_average_cost <= sol.upper_bound
        assert not optimal_threshold(DecoupledProblem(f, 0.5, 1.0)).is_never
        assert certify_theorem3(f, cost.linear(1), horizon=40, a_max=8, k_max=50).dp_cost > 0


class TestRow:
    def test_row_stops_at_the_largest_representable_age(self):
        f = cost.exponential(3)
        cap = cost.max_representable_age(f)
        assert np.array_equal(cost.row(f, 10), cost.evaluate(f, np.arange(1, 11)))
        assert np.array_equal(cost.row(f, 10**4), cost.evaluate(f, np.arange(1, cap + 1)))
        assert cost.row(cost.linear(2), 0).shape == (0,)
