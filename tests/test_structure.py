import numpy as np
import pytest

from aoisched import cost
from aoisched.dp import TruncatedBox, extract_cycle_policy, finite_horizon_dp
from aoisched.errors import DomainError, InconclusiveError
from aoisched.policies import Source, SystemSpec, Whittle
from aoisched.sim import detect_cycle
from aoisched.structure import (
    best_two_source_cycle,
    certify_theorem3,
    check_strong_switch,
    parse_two_source_cycle,
    two_source_cycle_cost,
)

from conftest import overflow_at_four, system_for


class TestStrongSwitch:
    def test_constructed_violation_witness(self):
        violations = check_strong_switch([((1, 4), 0), ((2, 3), 1)])
        assert len(violations) == 1
        v = violations[0]
        assert v.state_a == (1, 4) and v.action_a == 0
        assert v.state_b == (2, 3) and v.action_b == 1
        assert v.implied_action == 0

    def test_consistent_pairs_pass(self):
        pairs = [((1, 4), 1), ((2, 3), 0), ((5, 1), 0)]
        assert check_strong_switch(pairs) == []

    def test_whittle_cycles_clean_for_every_setting(self):
        for name in ("A1", "B1", "C1", "D1", "E1", "F1"):
            cyc = detect_cycle(system_for(name), Whittle())
            assert check_strong_switch(list(zip(cyc.states, cyc.actions))) == []

    def test_duplicate_states_rejected(self):
        with pytest.raises(DomainError):
            check_strong_switch([((1, 2), 0), ((1, 2), 1)])

    def test_empty_set_passes(self):
        assert check_strong_switch([]) == []

    def test_random_index_policies_always_pass(self, rng):
        # dominance holds for any argmax of per-source non-decreasing tables;
        # checked over a thousand random tables and a thousand state pairs
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            tables = np.cumsum(rng.uniform(0, 1, size=(n, 30)), axis=1)

            def act(state):
                return int(np.argmax(tables[np.arange(n), np.asarray(state) - 1]))

            s = rng.integers(1, 31, size=n)
            t = s.copy()
            i = act(s)
            t[i] = rng.integers(s[i], 31)
            for j in range(n):
                if j != i:
                    t[j] = rng.integers(1, s[j] + 1)
            if act(t) != i and not (
                tables[act(t), t[act(t)] - 1] == tables[i, t[i] - 1] and act(t) < i
            ):
                violations += 1
        assert violations == 0


class TestTwoSourceCycleCost:
    def test_identical_linear_alternation(self):
        assert two_source_cycle_cost(cost.linear(1), cost.linear(1), 1) == 3.0

    def test_a1_alternation(self):
        assert two_source_cycle_cost(cost.linear(13), cost.power(1, 2), 1) == 22.0

    def test_matches_simulator_exactly(self, rng):
        fs = [cost.linear(2), cost.power(1, 2), cost.logarithmic(7), cost.exponential(2)]
        for f1 in fs:
            for f2 in fs:
                for k in (1, 2, 5, 17, 50):
                    spec = SystemSpec((Source(f1), Source(f2)))
                    from aoisched.policies import FixedCycle

                    cyc = detect_cycle(spec, FixedCycle((0,) * k + (1,)))
                    formula = two_source_cycle_cost(f1, f2, k)
                    assert formula == pytest.approx(cyc.average_cost, rel=1e-10)

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            two_source_cycle_cost(cost.linear(1), cost.linear(1), 0)


class TestBestCycle:
    def test_identical_sources_alternate(self):
        best = best_two_source_cycle(cost.linear(1), cost.linear(1))
        assert best.k == 1
        assert best.leader == 0
        assert best.cost == 3.0

    def test_a1_cost(self):
        best = best_two_source_cycle(cost.linear(13), cost.power(1, 2))
        assert best.cost == pytest.approx(22.0, abs=1e-12)
        assert best.cost == pytest.approx(21.95, rel=0.01)

    def test_c1_cost(self):
        best = best_two_source_cycle(cost.power(0.5, 3), cost.logarithmic(10))
        assert best.cost == pytest.approx(5.69, rel=0.01)

    def test_sweep_stops_below_an_age_that_overflows(self):
        # the sweep evaluates the follower up to its cap; f(3) dwarfs the
        # k = 1 cycle, so alternation wins
        f = overflow_at_four()
        best = best_two_source_cycle(f, f)
        assert (best.leader, best.k) == (0, 1)
        assert best.cost == two_source_cycle_cost(f, f, 1)

    def test_boundary_minimizer_raises(self):
        # a very cheap follower pushes the optimal k past a tiny sweep bound
        with pytest.raises(InconclusiveError):
            best_two_source_cycle(cost.linear(100), cost.logarithmic(0.01 + 0.99), k_max=3)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            f1 = cost.power(float(rng.uniform(0.5, 5)), float(rng.uniform(1, 2.5)))
            f2 = cost.linear(float(rng.uniform(0.5, 5)))
            best = best_two_source_cycle(f1, f2, k_max=100)
            brute = min(
                (two_source_cycle_cost(a, b, k), k, lead)
                for lead, (a, b) in enumerate([(f1, f2), (f2, f1)])
                for k in range(1, 100)
            )
            assert best.cost == pytest.approx(brute[0], rel=1e-12)


class TestCycleFormParsing:
    def test_whittle_a1(self):
        form = parse_two_source_cycle(detect_cycle(system_for("A1"), Whittle()))
        assert (form.leader, form.follower) == (0, 1)
        assert form.k == 2

    def test_alternation_parses(self):
        form = parse_two_source_cycle(
            detect_cycle(SystemSpec((Source(cost.linear(1)), Source(cost.linear(1)))), Whittle())
        )
        assert form.k == 1

    def test_rejects_other_shapes(self):
        from aoisched.sim import Cycle

        bad = Cycle(states=((1, 2), (2, 1)), actions=(0, 0), average_cost=1.0)
        with pytest.raises(DomainError):
            parse_two_source_cycle(bad)


class TestTheorem3:
    @pytest.mark.parametrize("name", ["A1", "B1", "C1"])
    def test_table_settings_certify(self, name):
        sources, _ = __import__("conftest").TABLE_SETTINGS[name]
        cert = certify_theorem3(sources[0][0], sources[1][0])
        assert cert.ok, [c for c in cert.checks if not c.ok]

    def test_identical_linear_certifies(self):
        cert = certify_theorem3(cost.linear(1), cost.linear(1))
        assert cert.ok
        assert cert.best_cycle.cost == 3.0
        assert cert.best_cycle.k == 1

    def test_certificate_reports_checks(self):
        cert = certify_theorem3(cost.linear(13), cost.power(1, 2))
        names = {c.name for c in cert.checks}
        assert {"cycle_form", "whittle_equals_best_cycle", "whittle_matches_dp",
                "realized_index_inequalities", "strong_switch"} <= names


class TestF1Counterexample:
    def test_whittle_strictly_worse_than_dp_on_f1(self):
        spec = system_for("F1")
        sol = finite_horizon_dp(spec, 500, box=TruncatedBox(15, 4))
        dp_cycle = extract_cycle_policy(sol, spec)
        whittle_cycle = detect_cycle(spec, Whittle())
        assert whittle_cycle.average_cost > dp_cycle.average_cost
        # both cycles are still strong-switch clean
        assert check_strong_switch(list(zip(dp_cycle.states, dp_cycle.actions))) == []
        assert check_strong_switch(list(zip(whittle_cycle.states, whittle_cycle.actions))) == []
