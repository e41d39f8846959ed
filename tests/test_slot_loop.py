"""The Monte Carlo slot loop's fast paths against the paths they replaced.

The oracles below are the slot loop, the uniform draws and the whittle
lookup as they were before the Philox keys were derived in one vectorised
pass and the costs, indices and ages went through flat tables: one
SeedSequence and one Philox per run, a per-source cost loop, 2-D fancy
indexing for the indices and a boolean age reset.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import cost, decoupled, policies, sim
from aoisched.config import bundled_config, bundled_config_names
from aoisched.cost import OVERFLOW_LIMIT
from aoisched.errors import CostRangeError, DomainError
from aoisched.policies import (
    FixedCycle,
    MaxAge,
    RoundRobin,
    Source,
    StationaryRandomized,
    SystemSpec,
    Whittle,
)

from conftest import overflow_at_four, system_for

SeedSequence = np.random.SeedSequence
Philox = np.random.Philox


def _reference_key(seed, run, kind):
    return SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(run, kind)).generate_state(
        2, np.uint64
    )


def _reference_uniforms(seed, lo, hi, kind, slots):
    """One SeedSequence, Philox and Generator per run; row r is run lo + r."""
    out = np.empty((hi - lo, slots))
    for row, run in zip(out, range(lo, hi)):
        key = SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(run, kind))
        np.random.Generator(Philox(key)).random(out=row)
    return out


def _reference_whittle_values(spec, ages, index_table):
    width = 0 if index_table is None else index_table.shape[1]
    cols = np.arange(spec.n_sources)
    if ages.max() <= width:
        return index_table[cols, ages - 1]
    vals = np.empty(ages.shape)
    for j, row in enumerate(ages):
        if row.max() <= width:
            vals[j] = index_table[cols, row - 1]
        else:
            vals[j] = [decoupled.whittle_index(s.cost, s.p, int(a)) for s, a in zip(spec.sources, row)]
    return vals


def _reference_run_slots(spec, policy, runs, seed, checkpoints, saturate=False):
    """All runs in one block. The slot loop's errors, like its results, do
    not depend on how it splits the runs, so every split must match it."""
    n = spec.n_sources
    tmax = checkpoints[-1]
    probs = spec.probabilities
    caps = [cost.max_representable_age(s.cost) for s in spec.sources]
    table = sim._index_table(spec, policy, tmax + 1, caps)
    rows = [np.append(cost.row(s.cost, tmax), OVERFLOW_LIMIT) for s in spec.sources]
    randomized = isinstance(policy, StationaryRandomized)
    out = np.empty((len(checkpoints), runs, n))
    u_chan = _reference_uniforms(seed, 0, runs, 0, tmax)
    u_pol = _reference_uniforms(seed, 0, runs, 1, tmax) if randomized else None
    ages = np.ones((runs, n), dtype=np.int64)
    acc = np.zeros((runs, n))
    run_idx = np.arange(runs)
    k = 0
    for t in range(tmax):
        for i, row in enumerate(rows):
            col = ages[:, i]
            if t + 1 < len(row) or col.max() < len(row):
                acc[:, i] += row[col - 1]
            elif saturate:
                acc[:, i] += row[np.minimum(col, len(row)) - 1]
            else:
                try:
                    acc[:, i] += spec.sources[i].cost(col)
                except CostRangeError as e:
                    raise CostRangeError(f"slot {t + 1}, source {i + 1}: {e}") from None
        u = u_pol[:, t] if randomized else None
        try:
            acts = policies._decide_rows(policy, spec, ages, t, u, table)
        except CostRangeError as e:
            raise CostRangeError(f"slot {t + 1}: {e}") from None
        success = u_chan[:, t] < probs[acts]
        ages += 1
        ages[run_idx[success], acts[success]] = 1
        if t + 1 == checkpoints[k]:
            out[k] = acc
            k += 1
    return out


def _reference(monkeypatch, *args, **kwargs):
    """The reference loop, deciding whittle through the reference lookup."""
    with monkeypatch.context() as m:
        m.setattr(policies, "_whittle_values", _reference_whittle_values)
        return _reference_run_slots(*args, **kwargs)


def _runs_per_block(monkeypatch, runs, slots):
    """Make the slot loop simulate `slots` slots in blocks of `runs` runs."""
    monkeypatch.setattr(sim, "BLOCK_UNIFORMS", runs * slots)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except CostRangeError as e:
        return type(e), str(e)


# -- keys and uniforms -----------------------------------------------------------

SEEDS = [0, 1, 4242, 20250117, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1, 2**64, -1, -(2**70) + 3]


@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(-(2**80), 2**80)),
    lo=st.one_of(st.integers(0, 600), st.integers(0, 2**32 - 1)),
    count=st.integers(1, 6),
    kind=st.sampled_from([0, 1]),
)
@example(seed=20250117, lo=0, count=6, kind=0)
@example(seed=2**64 - 1, lo=2**32 - 1, count=1, kind=1)
@example(seed=-5, lo=2**32 - 3, count=3, kind=0)
@settings(max_examples=200, deadline=None)
def test_keys_match_seed_sequence(seed, lo, count, kind):
    runs = np.arange(lo, min(lo + count, 2**32))
    want = np.array([_reference_key(seed, int(r), kind) for r in runs])
    got = sim._philox_keys(seed, runs, kind)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(-(2**70), 2**70)),
    lo=st.one_of(st.integers(0, 100), st.integers(2**32 - 8, 2**32 - 1)),
    count=st.integers(0, 7),
    kind=st.sampled_from([0, 1]),
    slots=st.integers(1, 40),
)
@example(seed=20250117, lo=0, count=7, kind=1, slots=3)
@settings(max_examples=100, deadline=None)
def test_uniforms_match_per_run_streams(seed, lo, count, kind, slots):
    hi = min(lo + count, 2**32)
    got = sim._uniforms(seed, lo, hi, kind, slots)
    assert got.shape == (slots, hi - lo)
    assert np.array_equal(got, _reference_uniforms(seed, lo, hi, kind, slots).T)


def test_uniforms_reject_run_indices_past_32_bits():
    sim._uniforms(7, 2**32 - 1, 2**32, 0, 2)
    for lo, hi in ((2**32 - 1, 2**32 + 1), (2**32, 2**32 + 1), (-1, 2)):
        with pytest.raises(DomainError, match="2\\*\\*32"):
            sim._uniforms(7, lo, hi, 0, 2)


# -- the slot loop -----------------------------------------------------------------


def _starved_spec():
    # the indicator's index is 0 below age 229, so whittle serves it only at
    # 229, past the index table (202 ages wide: 30^x overflows from age 204)
    return SystemSpec((Source(cost.indicator(230, 50.0)), Source(cost.exponential(30), 0.99)))


CASES = {
    "whittle": (lambda: system_for("E2"), Whittle, 120),
    "max_age": (lambda: system_for("D2"), MaxAge, 120),
    "round_robin": (lambda: system_for("B2"), RoundRobin, 120),
    "fixed_cycle": (lambda: system_for("D2"), lambda: FixedCycle((0, 2, 1, 2)), 90),
    "randomized": (
        lambda: system_for("D2"),
        lambda: StationaryRandomized((0.5, 0.0, 0.5)),
        90,
    ),
    "whittle_past_table": (_starved_spec, Whittle, 260),
    "reliable_whittle": (lambda: system_for("E1"), Whittle, 100),
    "reliable_randomized": (
        lambda: system_for("A1"),
        lambda: StationaryRandomized((0.3, 0.7)),
        60,
    ),
}


# 11 runs in blocks of 1, 3 (the last of 2) and 7 (then 4)
@pytest.mark.parametrize("per_block", [1, 3, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_slot_loop_matches_reference(monkeypatch, case, per_block):
    make_spec, make_policy, horizon = CASES[case]
    spec, policy = make_spec(), make_policy()
    checkpoints = [1, horizon // 3, horizon]
    want = _reference(monkeypatch, spec, policy, 11, 20250117, checkpoints)
    _runs_per_block(monkeypatch, per_block, horizon)
    got = sim._run_slots(spec, policy, 11, 20250117, checkpoints)
    assert np.array_equal(got, want)


def test_whittle_past_table_serves_the_starved_source_in_time():
    spec = _starved_spec()
    caps = [cost.max_representable_age(s.cost) for s in spec.sources]
    assert sim._index_table(spec, Whittle(), 261, caps).shape == (2, 202)
    # served at age 229, the indicator never costs anything
    assert sim._run_slots(spec, Whittle(), 3, 0, [260])[0, :, 0].tolist() == [0.0] * 3


@pytest.mark.parametrize("per_block", [1, 3, 7])
def test_saturating_checkpoints_match_reference(monkeypatch, per_block):
    # 10^(7x) passes the cost row from age 43 and 30^x from age 204
    spec = SystemSpec(
        (
            Source(cost.linear(1)),
            Source(cost.exponential(1e7), 0.6),
            Source(cost.exponential(30), 0.8),
        )
    )
    policy = StationaryRandomized((0.9, 0.0, 0.1))
    checkpoints = [10, 42, 43, 100, 250]
    want = _reference(monkeypatch, spec, policy, 9, 3, checkpoints, saturate=True)
    _runs_per_block(monkeypatch, per_block, checkpoints[-1])
    got = sim._run_slots(spec, policy, 9, 3, checkpoints, saturate=True)
    assert np.array_equal(got, want)
    assert got[-1, :, 1].max() >= OVERFLOW_LIMIT


@pytest.mark.parametrize("per_block", [1, 2, 3, 5])
def test_errors_match_reference(monkeypatch, per_block):
    f = overflow_at_four()
    # an age past its cost row: run 1 meets it first on source 4, but a
    # later run meets it at the same slot on source 2
    spec = SystemSpec((Source(f, 0.9),) * 4)
    want = _outcome(_reference, monkeypatch, spec, RoundRobin(), 5, 1, [50])
    assert want == (CostRangeError, "slot 4, source 2: power cost exceeds 1e+300 at age 4")
    _runs_per_block(monkeypatch, per_block, 50)
    assert _outcome(sim._run_slots, spec, RoundRobin(), 5, 1, [50]) == want
    first_run = _outcome(sim._run_slots, spec, RoundRobin(), 1, 1, [50])
    assert first_run[1].startswith("slot 4, source 4: ")
    reliable = SystemSpec((Source(f),) * 4)
    msg = _outcome(sim._run_slots, reliable, RoundRobin(), 5, 1, [50])[1]
    assert msg.startswith("slot 4, source 4: ") and msg.endswith("at age 4")


def _capped_exponential(cap):
    """3^x scaled so that its last representable age is `cap`."""
    f = cost.exponential(3, 1e300 / 3 ** (cap + 0.5))
    assert cost.max_representable_age(f) == cap
    return f


@pytest.mark.parametrize("per_block", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decision_errors_do_not_depend_on_the_split(monkeypatch, seed, per_block):
    # the whittle rule needs f(h + 1) at age h, so an age at its source's
    # cap fails the decision one slot before its cost would
    spec = SystemSpec((Source(_capped_exponential(3), 0.7), Source(_capped_exponential(5), 0.8)))
    want = _outcome(sim._run_slots, spec, Whittle(), 6, seed, [30])
    assert want[0] is CostRangeError and want[1].startswith("slot ")
    _runs_per_block(monkeypatch, per_block, 30)
    assert _outcome(sim._run_slots, spec, Whittle(), 6, seed, [30]) == want


# -- constructions and draws -------------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts of SeedSequence and Philox objects built through numpy.random."""
    counts = {"SeedSequence": 0, "Philox": 0}

    def counting(name, cls):
        def build(*args, **kwargs):
            counts[name] += 1
            return cls(*args, **kwargs)

        return build

    monkeypatch.setattr(np.random, "SeedSequence", counting("SeedSequence", SeedSequence))
    monkeypatch.setattr(np.random, "Philox", counting("Philox", Philox))
    return counts


# 40 runs of 20 slots in one block, or in blocks of 14, 14 and 12
@pytest.mark.parametrize("blocks", [1, 3])
def test_one_philox_per_block_and_no_seed_sequences(constructions, monkeypatch, blocks):
    _runs_per_block(monkeypatch, -(-40 // blocks), 20)
    assert len(sim._run_blocks(40, 20)) == blocks
    sim.simulate(system_for("A2"), Whittle(), horizon=20, runs=40, seed=1)
    assert constructions == {"SeedSequence": 0, "Philox": blocks}


def test_randomized_policy_adds_one_philox_per_block(constructions, monkeypatch):
    _runs_per_block(monkeypatch, 14, 20)
    sim.simulate(system_for("A2"), StationaryRandomized((0.5, 0.5)), 20, runs=40)
    assert constructions == {"SeedSequence": 0, "Philox": 6}


def test_reliable_runs_draw_no_channel_uniforms(constructions, monkeypatch):
    kinds = []
    uniforms = sim._uniforms

    def recording(seed, lo, hi, kind, slots):
        kinds.append(kind)
        return uniforms(seed, lo, hi, kind, slots)

    monkeypatch.setattr(sim, "_uniforms", recording)
    _runs_per_block(monkeypatch, 5, 30)
    sim.simulate(system_for("B1"), Whittle(), horizon=30, runs=10)
    assert kinds == [] and constructions["Philox"] == 0
    sim.simulate(system_for("B1"), StationaryRandomized((0.5, 0.5)), 30, runs=10)
    assert kinds == [1, 1]


def test_bundled_configs_run_as_one_block(constructions):
    # perfbench's simulations run these configs' runs and horizons as well
    for name in bundled_config_names():
        config = bundled_config(name)
        assert sim._run_blocks(config.runs, config.horizon) == [(0, config.runs)], name
    # the largest, 500 runs x 500 slots: one channel and one policy stream
    sim.simulate(system_for("A2"), StationaryRandomized((0.5, 0.5)), 500, runs=500)
    assert constructions == {"SeedSequence": 0, "Philox": 2}


# -- workers: checked, then ignored ---------------------------------------------------


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True, None])
def test_simulate_rejects_bad_workers(workers):
    with pytest.raises(DomainError, match="workers"):
        sim.simulate(system_for("A2"), Whittle(), horizon=10, runs=4, workers=workers)


def test_simulate_accepts_numpy_integer_workers_and_more_workers_than_runs():
    one = sim.simulate(system_for("A2"), Whittle(), horizon=10, runs=4, workers=1)
    assert sim.simulate(system_for("A2"), Whittle(), horizon=10, runs=4, workers=np.int64(2)) == one
    assert sim.simulate(system_for("A2"), Whittle(), horizon=10, runs=4, workers=9) == one
