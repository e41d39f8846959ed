import math

import numpy as np
import pytest

from aoisched import cost, decoupled, sim
from aoisched.cost import OVERFLOW_LIMIT
from aoisched.decoupled import whittle_index
from aoisched.errors import CostRangeError, DomainError, MissingStateError, NonCyclicError
from aoisched.policies import (
    FixedCycle,
    MaxAge,
    RoundRobin,
    Source,
    StationaryRandomized,
    SystemSpec,
    Tabular,
    Whittle,
    decide,
)
from aoisched.sim import detect_cycle, divergence_probe, per_slot_costs, simulate

from conftest import overflow_at_four, references_for, system_for


def two_exponential():
    return SystemSpec((Source(cost.exponential(3)), Source(cost.exponential(3))))


class TestSimulate:
    def test_round_robin_exponential_pair(self):
        # slot 1 costs 6 at ages (1,1); every later slot costs exactly 12
        res = simulate(two_exponential(), RoundRobin(), horizon=500, runs=1, seed=0)
        assert res.mean_cost == pytest.approx((6 + 499 * 12) / 500, abs=1e-12)
        assert res.stderr == 0.0
        assert res.per_source_costs[0] + res.per_source_costs[1] == pytest.approx(
            res.mean_cost
        )

    def test_reliable_deterministic_runs_have_zero_stderr(self):
        res = simulate(system_for("A1"), Whittle(), horizon=200, runs=5, seed=3)
        assert res.stderr == 0.0

    def test_stochastic_runs_have_positive_stderr(self):
        res = simulate(system_for("A2"), Whittle(), horizon=200, runs=20, seed=3)
        assert res.stderr > 0.0

    def test_reproducible_bit_identical(self):
        a = simulate(system_for("B2"), Whittle(), horizon=300, runs=40, seed=9)
        b = simulate(system_for("B2"), Whittle(), horizon=300, runs=40, seed=9)
        assert a == b

    def test_blocks_do_not_change_results(self, monkeypatch):
        # whittle and a uniform coin on lossy channels, a coin on reliable
        # ones and the probe's saturating checkpoints, at one run a block
        # and at blocks of 4 runs, the last shorter
        coin = StationaryRandomized((0.5, 0.5))
        calls = [
            (30, 200, lambda: simulate(system_for("C2"), Whittle(), horizon=200, runs=30, seed=5)),
            (11, 90, lambda: simulate(system_for("A2"), coin, horizon=90, runs=11, seed=4)),
            (7, 100, lambda: simulate(system_for("B1"), coin, horizon=100, runs=7, seed=2)),
            (11, 60, lambda: divergence_probe(two_exponential(), coin, [10, 40, 60], 11, seed=3)),
        ]
        one = [call() for _, _, call in calls]
        for per_block in (1, 4):
            split = []
            with monkeypatch.context() as m:
                for runs, slots, call in calls:
                    m.setattr(sim, "BLOCK_UNIFORMS", per_block * slots)
                    assert len(sim._run_blocks(runs, slots)) == -(-runs // per_block)
                    split.append(call())
            assert split[:3] == one[:3]
            assert np.array_equal(split[3], one[3])

    def test_seed_changes_stochastic_results(self):
        a = simulate(system_for("A2"), Whittle(), horizon=200, runs=10, seed=1)
        b = simulate(system_for("A2"), Whittle(), horizon=200, runs=10, seed=2)
        assert a.mean_cost != b.mean_cost

    def test_quadrupling_runs_roughly_halves_stderr(self):
        spec = system_for("A2")
        ratios = []
        for rep in range(10):
            small = simulate(spec, Whittle(), horizon=300, runs=60, seed=100 + rep)
            big = simulate(spec, Whittle(), horizon=300, runs=240, seed=2000 + rep)
            ratios.append(big.stderr / small.stderr)
        assert 0.5 * 0.8 <= float(np.median(ratios)) <= 0.5 * 1.2

    def test_overflow_identifies_slot_and_source(self):
        # a single exponential source scheduled never (cycle on the other)
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.exponential(3))))
        with pytest.raises(CostRangeError, match=r"slot \d+, source 2"):
            simulate(spec, FixedCycle((0,)), horizon=1000, runs=1, seed=0)

    def test_cost_row_stops_below_an_age_that_overflows(self):
        # the closed-form cap of this cost rounds to 4, but f(4) exceeds
        # 1e300, so the largest representable age is 3
        f = overflow_at_four()
        assert cost.max_representable_age(f) == 3
        with pytest.raises(CostRangeError):
            cost.evaluate(f, 4)
        # round robin on two sources keeps ages at 1 and 2: no run reaches 4
        res = simulate(SystemSpec((Source(f), Source(f))), RoundRobin(), horizon=50, runs=2)
        assert res.mean_cost == pytest.approx((2 * f(1) + 49 * (f(1) + f(2))) / 50, rel=1e-15)
        # on four sources the last one reaches age 4 at slot 4
        with pytest.raises(CostRangeError, match=r"slot 4, source 4: .* at age 4"):
            simulate(SystemSpec((Source(f),) * 4), RoundRobin(), horizon=50, runs=2)

    def test_ages_below_a_cap_shorter_than_the_horizon(self):
        # 3^x overflows from age 629, but round robin keeps both ages at 1 and 2
        res = simulate(two_exponential(), RoundRobin(), horizon=1000, runs=1)
        assert res.mean_cost == pytest.approx((6 + 999 * 12) / 1000, abs=1e-12)

    def test_randomized_policy_simulates(self):
        res = simulate(
            two_exponential(),
            StationaryRandomized((0.5, 0.5)),
            horizon=30,
            runs=8,
            seed=7,
        )
        assert res.mean_cost > 12.0  # randomized is worse than round robin here


class TestDetectCycle:
    def test_identical_linear_sources_alternate(self):
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.linear(1))))
        cyc = detect_cycle(spec, Whittle())
        assert cyc.length == 2
        assert cyc.average_cost == pytest.approx(3.0)

    def test_b1_whittle_cycle_cost(self):
        cyc = detect_cycle(system_for("B1"), Whittle())
        ref, _ = references_for("B1")
        assert cyc.average_cost == pytest.approx(ref, rel=0.01)
        assert cyc.average_cost == pytest.approx(8.5, abs=1e-12)

    def test_a1_whittle_cycle_has_leader_then_follower_form(self):
        from aoisched.structure import parse_two_source_cycle

        cyc = detect_cycle(system_for("A1"), Whittle())
        form = parse_two_source_cycle(cyc)
        assert form.leader == 0
        assert form.k == cyc.length - 1

    def test_index_table_stops_below_an_age_that_overflows(self):
        # the index table is one age narrower than the cap: W(h) needs f(h + 1)
        f = overflow_at_four()
        cyc = detect_cycle(SystemSpec((Source(f), Source(f))), Whittle())
        assert cyc.states == ((1, 2), (2, 1))
        assert cyc.average_cost == f(1) + f(2)

    def test_cycle_transitions_close(self):
        cyc = detect_cycle(system_for("C1"), Whittle())
        n = cyc.length
        for i in range(n):
            s, a = cyc.states[i], cyc.actions[i]
            expect = [x + 1 for x in s]
            expect[a] = 1
            assert tuple(expect) == cyc.states[(i + 1) % n]

    def test_cycle_actions_are_the_policy_decisions(self):
        for name in ("A1", "B1", "C1", "D1", "E1", "F1"):
            spec = system_for(name)
            cyc = detect_cycle(spec, Whittle())
            assert cyc.actions == tuple(decide(Whittle(), spec, s) for s in cyc.states)

    def test_fixed_cycle_policy_detected_with_phase(self):
        spec = system_for("A1")
        cyc = detect_cycle(spec, FixedCycle((0, 0, 1)))
        assert cyc.length == 3
        from aoisched.structure import two_source_cycle_cost

        assert cyc.average_cost == pytest.approx(
            two_source_cycle_cost(cost.linear(13), cost.power(1, 2), 2), abs=1e-12
        )

    def test_unreliable_rejected(self):
        with pytest.raises(DomainError):
            detect_cycle(system_for("A2"), Whittle())

    def test_randomized_rejected(self):
        with pytest.raises(DomainError):
            detect_cycle(two_exponential(), StationaryRandomized((0.5, 0.5)))

    def test_max_steps_guard(self):
        with pytest.raises(NonCyclicError):
            detect_cycle(system_for("A1"), Whittle(), max_steps=2)

    def test_simulation_converges_to_cycle_cost(self):
        for name in ("A1", "B1", "C1"):
            spec = system_for(name)
            cyc = detect_cycle(spec, Whittle())
            res = simulate(spec, Whittle(), horizon=500, runs=1, seed=0)
            assert res.mean_cost == pytest.approx(cyc.average_cost, rel=0.01)

    def test_max_age_policy_cycles(self):
        cyc = detect_cycle(system_for("A1"), MaxAge())
        assert cyc.length == 2  # max-age ignores costs: plain alternation

    def test_starved_source_gives_up_in_seconds(self, monkeypatch):
        # the constant cost's index is 0, so whittle serves only the linear
        # source and the other age grows without bound; the index table
        # doubles with it, so the default 100,000 steps stay table lookups
        def rows_only(f, p, h, tol=1e-10):
            # a table row is ages 1..n; a decision past the table asks for its ages
            assert np.array_equal(h, np.arange(1, np.size(h) + 1)), f"age {h} is past the index table"
            return whittle_index(f, p, h, tol=tol)

        monkeypatch.setattr(decoupled, "whittle_index", rows_only)
        spec = SystemSpec((Source(cost.table([5.0])), Source(cost.linear(1))))
        with pytest.raises(NonCyclicError, match="100000 steps"):
            detect_cycle(spec, Whittle(), max_steps=100_000)

    def test_whittle_cycles_match_a_table_free_stepper(self):
        # the oracle decides every state from the per-age index series
        for name in ("A1", "B1", "C1", "D1", "E1", "F1"):
            spec = system_for(name)
            ages, seen, states = (1,) * spec.n_sources, {}, []
            while ages not in seen:
                seen[ages] = len(states)
                states.append(ages)
                a = decide(Whittle(), spec, ages)
                ages = tuple(1 if i == a else x + 1 for i, x in enumerate(ages))
            cyc = detect_cycle(spec, Whittle())
            assert cyc.states == tuple(states[seen[ages]:])
            assert cyc.average_cost == math.fsum(map(spec.state_cost, cyc.states)) / cyc.length


class TestPerSlotCosts:
    def test_round_robin_holds_at_twelve_from_slot_two(self):
        costs = per_slot_costs(two_exponential(), RoundRobin(), 50)
        assert costs[0] == pytest.approx(6.0)
        assert np.allclose(costs[1:], 12.0)


class TestDivergenceProbe:
    def test_median_running_average_strictly_increases(self):
        probe = divergence_probe(
            two_exponential(),
            StationaryRandomized((0.5, 0.5)),
            [10, 20, 40],
            n_seeds=100,
            seed=1,
        )
        assert probe[0] < probe[1] < probe[2]

    def test_linear_costs_stay_bounded(self):
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.linear(1))))
        probe = divergence_probe(
            spec, StationaryRandomized((0.5, 0.5)), [50, 100, 200], n_seeds=50, seed=2
        )
        # linear costs under a positive-probability randomized policy settle
        assert probe[-1] < 20.0
        assert abs(probe[-1] - probe[-2]) < 2.0

    def test_expectation_mode_matches_geometric_closed_form(self):
        probe = divergence_probe(
            two_exponential(), StationaryRandomized((0.5, 0.5)), [5, 10], aggregate="expectation"
        )
        # per source, E[3^A(t)] = 4 * 1.5^t - 3 when scheduled w.p. 1/2
        t = np.arange(1, 11)
        per_slot = 2 * (4 * 1.5**t - 3)
        expect = np.cumsum(per_slot) / t
        assert probe[0] == pytest.approx(expect[4], rel=1e-12)
        assert probe[1] == pytest.approx(expect[9], rel=1e-12)

    def test_expectation_saturates_instead_of_overflowing(self):
        probe = divergence_probe(
            two_exponential(),
            StationaryRandomized((0.5, 0.5)),
            [2000],
            aggregate="expectation",
        )
        assert math.isfinite(probe[0])
        assert probe[0] > 1e100

    def test_requires_randomized_policy(self):
        with pytest.raises(DomainError):
            divergence_probe(two_exponential(), RoundRobin(), [10])

    def test_randomized_probs_must_match_source_count(self):
        three = StationaryRandomized((0.2, 0.3, 0.5))
        for aggregate in ("median", "expectation"):
            with pytest.raises(DomainError, match="probs length"):
                divergence_probe(two_exponential(), three, [10, 20], aggregate=aggregate)

    def test_seed_count_must_be_positive(self):
        for aggregate in ("median", "expectation"):
            with pytest.raises(DomainError, match="n_seeds"):
                divergence_probe(
                    two_exponential(),
                    StationaryRandomized((0.5, 0.5)),
                    [10],
                    n_seeds=0,
                    aggregate=aggregate,
                )

    def test_matches_the_slot_loop_it_replaced_on_c9_inputs(self):
        spec = two_exponential()
        policy = StationaryRandomized((0.5, 0.5))
        horizons = [10, 20, 40, 60, 120, 240]
        got = divergence_probe(spec, policy, horizons, n_seeds=100, seed=20250117)
        want = _probe_oracle(spec, policy, horizons, 100, 20250117)
        assert np.array_equal(got, want)

    def test_matches_the_slot_loop_it_replaced_on_non_integer_costs(self):
        spec = SystemSpec(
            (
                Source(cost.power(1.3, 1.7)),
                Source(cost.logarithmic(2.5), 0.8),
                Source(cost.exponential(1.7, 0.3), 0.9),
            )
        )
        policy = StationaryRandomized((0.3, 0.3, 0.4))
        horizons = [5, 50, 120, 300]
        got = divergence_probe(spec, policy, horizons, n_seeds=60, seed=11)
        want = _probe_oracle(spec, policy, horizons, 60, 11)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_saturates_like_the_slot_loop_it_replaced(self):
        # 30^x passes 1e300 from age 204; the rarely served source gets there
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.exponential(30))))
        policy = StationaryRandomized((0.995, 0.005))
        horizons = [100, 250, 400]
        got = divergence_probe(spec, policy, horizons, n_seeds=30, seed=3)
        want = _probe_oracle(spec, policy, horizons, 30, 3)
        assert got[-1] == OVERFLOW_LIMIT / 400
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_an_age_past_the_cost_row_costs_the_saturation_limit(self):
        # 10^(7x) overflows from age 43; source 2 is never served, so its age
        # is t + 1 at slot t
        spec = SystemSpec((Source(cost.linear(1)), Source(cost.exponential(1e7))))
        policy = StationaryRandomized((1.0, 0.0))
        got = divergence_probe(spec, policy, [42, 43], n_seeds=3, seed=0)
        assert got[0] < 1e295
        assert got[1] == OVERFLOW_LIMIT / 43
        assert np.array_equal(got, _probe_oracle(spec, policy, [42, 43], 3, 0))


class TestTabularChains:
    """What a tabular policy reads follows its fallback chain, not its class."""

    def diverging(self):
        # whittle's series diverges here (3 * (1 - 0.5) >= 1); max age does not need it
        return SystemSpec((Source(cost.linear(1), 0.5), Source(cost.exponential(3), 0.5)))

    def test_no_index_table_without_a_whittle_fallback(self):
        spec = self.diverging()
        res = simulate(spec, Tabular({}, fallback=MaxAge()), horizon=60, runs=4, seed=2)
        assert res == simulate(spec, MaxAge(), horizon=60, runs=4, seed=2)

    def test_disabled_fallback_reports_the_missing_state(self):
        with pytest.raises(MissingStateError):
            simulate(self.diverging(), Tabular({}, fallback=None), horizon=5)

    def test_randomized_fallback_gets_policy_uniforms(self, monkeypatch):
        spec = SystemSpec((Source(cost.linear(1), 0.5), Source(cost.linear(1), 0.5)))
        policy = Tabular({(1, 1): 0}, fallback=StationaryRandomized((0.5, 0.5)))
        res = simulate(spec, policy, horizon=80, runs=6, seed=5)
        assert math.isfinite(res.mean_cost) and res.stderr > 0
        monkeypatch.setattr(sim, "BLOCK_UNIFORMS", 2 * 80)  # three blocks of two runs
        assert res == simulate(spec, policy, horizon=80, runs=6, seed=5)

    def test_time_cyclic_fallback_sets_the_cycle_period(self):
        # an empty table defers every state to the 5-slot cycle, whose
        # states alone recur after 3 slots
        spec = SystemSpec(tuple(Source(cost.linear(w)) for w in (1, 2, 3)))
        bare = FixedCycle((0, 1, 2, 0, 1))
        wrapped = detect_cycle(spec, Tabular({}, fallback=bare))
        expected = detect_cycle(spec, bare)
        assert (wrapped.states, wrapped.actions) == (expected.states, expected.actions)
        assert wrapped.average_cost == expected.average_cost == pytest.approx(14.4)


class TestOverflowMessages:
    def test_whittle_decision_overflow_names_the_slot(self):
        # the table drives source 1 to age 3; the whittle fallback then
        # needs f(4), past the index table and past the overflow limit
        f = overflow_at_four()
        policy = Tabular({(1, 1): 0, (1, 2): 0}, fallback=Whittle())
        with pytest.raises(CostRangeError, match=r"^slot 3: .* at age 4"):
            simulate(SystemSpec((Source(f), Source(f))), policy, horizon=10)

    def test_no_index_table_when_costs_overflow_at_age_two(self):
        spec = SystemSpec((Source(cost.linear(1e300)), Source(cost.linear(1))))
        with pytest.raises(CostRangeError, match="below age 2"):
            simulate(spec, Whittle(), horizon=5)


class TestCountsValidated:
    def test_per_slot_costs_horizon_must_be_positive(self):
        with pytest.raises(DomainError, match="horizon"):
            per_slot_costs(two_exponential(), RoundRobin(), 0)

    def test_simulate_counts_must_be_positive(self):
        with pytest.raises(DomainError):
            simulate(two_exponential(), RoundRobin(), horizon=0)
        with pytest.raises(DomainError):
            simulate(two_exponential(), RoundRobin(), horizon=5, runs=0)

    @pytest.mark.parametrize("bad", [0, -2, 2.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("name", ["horizon", "runs"])
    def test_simulate_counts_must_be_integers(self, name, bad):
        counts = {"horizon": 5, "runs": 3, name: bad}
        with pytest.raises(DomainError, match=name):
            simulate(two_exponential(), RoundRobin(), **counts)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_per_slot_costs_horizon_must_be_an_integer(self, bad):
        with pytest.raises(DomainError, match="horizon"):
            per_slot_costs(two_exponential(), RoundRobin(), bad)


def _probe_oracle(spec, policy, horizons, n_seeds, seed):
    """Oracle: the divergence probe's own slot loop, as it was before the
    probe shared the simulation's loop. Costs saturate per slot and the
    running total is accumulated over sources slot by slot."""

    def stream(run, kind):
        key = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(run, kind))
        return np.random.Generator(np.random.Philox(key))

    def saturating(f, ages):
        if f.kind == "exponential":
            cap = (math.log(OVERFLOW_LIMIT) - math.log(f.weight)) / math.log(f.base)
            return np.where(ages > cap, OVERFLOW_LIMIT, f.weight * f.base ** np.minimum(ages, cap))
        return np.minimum(cost.evaluate(f, ages), OVERFLOW_LIMIT)

    n = spec.n_sources
    tmax = horizons[-1]
    probs = spec.probabilities
    cum = np.cumsum(policy.probs)
    u_chan = np.stack([stream(run, 0).random(tmax) for run in range(n_seeds)])
    u_pol = np.stack([stream(run, 1).random(tmax) for run in range(n_seeds)])
    ages = np.ones((n_seeds, n), dtype=np.int64)
    acc = np.zeros(n_seeds)
    rows = np.arange(n_seeds)
    marks = {}
    for t in range(tmax):
        for i, s in enumerate(spec.sources):
            acc += saturating(s.cost, ages[:, i])
        np.minimum(acc, OVERFLOW_LIMIT, out=acc)
        acts = np.minimum(np.searchsorted(cum, u_pol[:, t], side="right"), n - 1)
        success = u_chan[:, t] < probs[acts]
        ages += 1
        ages[rows[success], acts[success]] = 1
        if (t + 1) in horizons:
            marks[t + 1] = np.median(acc / (t + 1))
    return np.array([marks[h] for h in horizons])
