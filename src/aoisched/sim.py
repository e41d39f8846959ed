"""Slotted-time simulation of scheduling policies.

Each run starts from the all-ones age vector. Every slot accrues the cost of
the pre-action ages, the policy picks one source, and that source's age
resets to 1 on a Bernoulli(p) success while every other age grows by one.
Ages are never truncated here (only the DP box truncates); in a run of T
slots no age passes T + 1, so the horizon bounds every age. Every slot's
costs are one gather from one table of the sources' cost rows (`_cost_rows`).

Randomness is fully reproducible: run r of a simulation seeded with s draws
its channel uniforms from a counter-based Philox stream keyed by (s, r, 0)
and its policy uniforms, when the policy is randomized, from (s, r, 1).
Runs therefore commute. The slot loop simulates them in consecutive blocks
of lockstep runs, one after another without threads, each as many runs as
keep runs x horizon within `BLOCK_UNIFORMS` uniforms of each kind; the
split only bounds the memory of the uniform arrays and never changes a bit.

The key of stream (s, r, kind) is the one numpy's
`SeedSequence(entropy=s mod 2**64, spawn_key=(r, kind))` generates, so the
stream is Philox(key) as numpy builds it. The keys of a block of runs are
derived in one vectorised pass of that hash, and one reused Philox draws
every run's uniforms. Reliable runs draw no channel uniforms at all: a
uniform in [0, 1) is always below p = 1. A cycle, here or in the DP, is
the run between the first two equal keys of a trajectory (`_first_cycle`);
the DP's stage-varying trajectory must also go on to repeat that run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cost as costmod
from .cost import OVERFLOW_LIMIT, validate_count, validate_seed
from .errors import CostRangeError, DomainError, NonCyclicError
from .policies import (
    StationaryRandomized,
    SystemSpec,
    Whittle,
    _decide_rows,
    decide,
    is_deterministic,
    time_period,
    whittle_index_table,
)

# uniforms of one kind (channel or policy) per slot-loop block, 8 MiB of
# floats: every bundled config, at most 500 runs x 500 slots, is one block
BLOCK_UNIFORMS = 1 << 20


def _index_table(spec: SystemSpec, policy, wanted: int, caps):
    """Whittle index table for a whittle policy (None for the others),
    `wanted` ages wide, or one age short of the smallest of `caps`, the
    sources' max_representable_age (W(h) needs f(h+1)), if less."""
    if not isinstance(policy, Whittle):
        return None
    width = min([wanted] + [cap - 1 for cap in caps])
    if width < 1:
        raise CostRangeError("cost functions overflow below age 2; no index table possible")
    return whittle_index_table(spec, width)


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimate of the time-average cost of a policy."""

    mean_cost: float
    stderr: float
    runs: int
    horizon: int
    seed: int
    per_source_costs: tuple

    def __post_init__(self):
        object.__setattr__(self, "per_source_costs", tuple(float(c) for c in self.per_source_costs))


@dataclass(frozen=True)
class Cycle:
    """A repeating block of (age vector, action) pairs with its exact cost."""

    states: tuple
    actions: tuple
    average_cost: float

    def __post_init__(self):
        if len(self.states) != len(self.actions) or not self.states:
            raise DomainError("cycle needs equally many states and actions, at least one")
        object.__setattr__(self, "states", tuple(tuple(int(x) for x in s) for s in self.states))
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))

    @property
    def length(self) -> int:
        return len(self.states)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): hashmix runs
# a multiplier from INIT_A by MULT_A, generate_state one from INIT_B by MULT_B
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _multipliers(init, mult, n):
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# 4 pool words, 12 pool cross-mixes and 2 spawn words into 4 pool words
_HASH_A = _multipliers(_INIT_A, _MULT_A, 24)
_HASH_B = _multipliers(_INIT_B, _MULT_B, 4)


def _xorshift(v):
    return v ^ (v >> np.uint32(16))


def _philox_keys(seed: int, runs: np.ndarray, kind: int) -> np.ndarray:
    """Philox key of the stream (seed, run, kind) for every run in `runs`,
    shape (len(runs), 2) uint64. It equals
    SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(run, kind))
    .generate_state(2, np.uint64), computed for all runs at once in uint32
    arithmetic: the entropy is the seed's two words padded to the 4-word
    pool, then the run and the kind, one word each, and no hash constant
    depends on the data."""
    s = seed & (2**64 - 1)
    words = [np.full(len(runs), w, dtype=np.uint32) for w in (s & _M32, s >> 32, 0, 0)]
    words += [np.asarray(runs, dtype=np.uint32), np.full(len(runs), kind, dtype=np.uint32)]
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(v):
        x, m = next(consts)
        return _xorshift((v ^ np.uint32(x)) * np.uint32(m))

    def mix(x, y):
        return _xorshift(np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = [
        _xorshift((v ^ np.uint32(x)) * np.uint32(m)).astype(np.uint64)
        for v, x, m in zip(pool, _HASH_B, _HASH_B[1:])
    ]
    high = np.uint64(32)
    return np.stack([state[0] | state[1] << high, state[2] | state[3] << high], axis=1)


def _uniforms(seed: int, lo: int, hi: int, kind: int, slots: int) -> np.ndarray:
    """`slots` uniforms for each of runs lo..hi-1 from the Philox stream keyed
    by (seed, run, kind), as a (slots, hi - lo) array whose row t holds
    slot t of every run; kind 0 is the channel, kind 1 the policy. One
    Philox is reset to each run's key, counter 0 and an empty buffer, which
    is the state numpy builds from the run's SeedSequence."""
    if not 0 <= lo <= hi <= 2**32:
        raise DomainError(f"run indices must lie in [0, 2**32), got {lo}..{hi - 1}")
    out = np.empty((slots, hi - lo))
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": None},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for j, key in enumerate(_philox_keys(seed, np.arange(lo, hi), kind)):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        out[:, j] = gen.random(slots)
    return out


def simulate(
    spec: SystemSpec,
    policy,
    horizon: int,
    runs: int = 1,
    seed: int = 0,
    workers: int = 1,
) -> SimulationResult:
    """Simulate `runs` independent episodes of `horizon` slots.

    Returns the mean and standard error (over runs) of the per-slot average
    cost, plus the per-source breakdown of the mean. `horizon` and `runs`
    must be integers >= 1, `seed` one with |seed| < 2**64 (no bools), else
    DomainError. Identical (seed, config) inputs give bit-identical results;
    the slot loop splits the runs into blocks itself (`BLOCK_UNIFORMS`).
    `workers` is checked as `runs` is and otherwise ignored: it stays only
    so that callers that still pass it, perfbench's workloads among them,
    keep binding.
    """
    horizon = validate_count("horizon", horizon)
    runs = validate_count("runs", runs)
    validate_count("workers", workers)
    seed = validate_seed(seed)
    (acc,) = _run_slots(spec, policy, runs, seed, [horizon])
    totals = acc.sum(axis=1) / horizon
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return SimulationResult(
        mean_cost=mean,
        stderr=stderr,
        runs=runs,
        horizon=horizon,
        seed=seed,
        per_source_costs=tuple((acc / horizon).mean(axis=0)),
    )


def _run_blocks(runs, slots):
    """Consecutive blocks (lo, hi) of runs 0..runs-1, each as many runs as
    keep runs x slots within BLOCK_UNIFORMS, at least one; the last block
    takes what is left."""
    per = max(1, BLOCK_UNIFORMS // slots)
    return [(lo, min(lo + per, runs)) for lo in range(0, runs, per)]


def _cost_rows(spec, width):
    """f_i(1..width) of every source i as one (N, width) table, padded with
    OVERFLOW_LIMIT past the last representable age, and each source's
    max_representable_age."""
    caps = [costmod.max_representable_age(s.cost) for s in spec.sources]
    table = np.full((len(caps), width), OVERFLOW_LIMIT)
    for out, s, cap in zip(table, spec.sources, caps):
        m = min(width, cap)
        out[:m] = costmod.evaluate(s.cost, np.arange(1, m + 1))
    return table, caps


def _run_slots(spec, policy, runs, seed, checkpoints, saturate=False):
    """The slot loop: simulate runs 0..runs-1 in the consecutive blocks of
    lockstep runs that `_run_blocks` sizes for the last checkpoint, and
    return the per-source cost each run accumulated up to each checkpoint
    horizon, shape (len(checkpoints), runs, N).

    Every slot's costs are one gather from `_cost_rows` laid end to end. An
    age past its source's last representable age reads OVERFLOW_LIMIT: with
    `saturate` that is its cost (callers cap the sums there), and otherwise,
    checked once some age can pass the smallest cap, it is an error. A slot
    checks its sources' costs in order, then decides. Once a block meets an
    error, later blocks run only up to its slot, and the earliest error of
    the run set is raised: the first slot, a cost error before a decision
    error, the lowest source. It is replayed on the ages of every block
    that met it, so it is the CostRangeError one block raises, naming the
    slot and, for a cost, the source; neither errors nor results depend on
    the split. A served age is reset through its flat cell index: run r's
    source i is cell r * N + i.
    """
    n = spec.n_sources
    tmax = checkpoints[-1]
    probs = spec.probabilities
    rows, caps = _cost_rows(spec, tmax)
    table = _index_table(spec, policy, tmax + 1, caps)
    flat_cost = rows.reshape(-1)
    # ages at slot t are at most t + 1 <= tmax, so only caps below tmax bind
    bound = [] if saturate else [(i, c) for i, c in enumerate(caps) if c < tmax]
    smallest_cap = min((c for _, c in bound), default=tmax)
    randomized = not is_deterministic(policy)
    out = np.empty((len(checkpoints), runs, n))
    # the earliest error so far: its (slot, 0 for a cost or 1 for a decision,
    # source) and the ages of each block that met it there
    failed, stop = None, tmax
    for lo, hi in _run_blocks(runs, tmax):
        u_chan = None if spec.reliable else _uniforms(seed, lo, hi, 0, tmax)
        u_pol = _uniforms(seed, lo, hi, 1, tmax) if randomized else None
        ages = np.ones((hi - lo, n), dtype=np.int64)
        cells = np.arange(0, ages.size, n)
        # age a of source i costs flat_cost[a + i * tmax - 1]; one offset per
        # cell, since a broadcast (runs, N) + (N,) add is slow at small N
        cost_cells = np.tile(np.arange(n) * tmax - 1, (hi - lo, 1))
        acc = np.zeros((hi - lo, n))
        k = 0
        for t in range(stop):
            acc += flat_cost.take(ages + cost_cells)
            if t + 1 > smallest_cap:  # ages are at most t + 1
                over = [i for i, cap in bound if ages[:, i].max() > cap]
                if over:
                    key = (t, 0, over[0])
                    break
            try:
                acts = _decide_rows(policy, spec, ages, t, u_pol[t] if randomized else None, table)
            except CostRangeError:
                key = (t, 1, 0)
                break
            served = cells + acts
            if u_chan is not None:
                served = served[u_chan[t] < probs.take(acts)]
            ages += 1
            ages.put(served, 1)
            if t + 1 == checkpoints[k]:
                out[k, lo:hi] = acc
                k += 1
        else:  # the block met no error
            continue
        if failed is None or key < failed[0]:
            failed, stop = (key, [ages]), t + 1
        elif key == failed[0]:
            failed[1].append(ages)
    if failed is not None:
        (t, kind, i), blocks = failed
        ages = np.concatenate(blocks)
        try:
            if kind == 0:
                spec.sources[i].cost(ages[:, i])  # evaluate raises, naming the age
            _decide_rows(policy, spec, ages, t, None, table)
        except CostRangeError as e:
            where = f"slot {t + 1}, source {i + 1}" if kind == 0 else f"slot {t + 1}"
            raise CostRangeError(f"{where}: {e}") from None
    return out


# -- exact evaluation of deterministic policies -------------------------------


def _reliable_path(start, choose):
    """(ages, action) pairs of a deterministic trajectory on reliable
    channels from `start`, slot by slot, where `choose(ages, t)` is the
    source served at slot t: it resets to 1 and every other age grows by one.
    Ages are never clamped."""
    ages = tuple(start)
    for t in itertools.count():
        a = choose(ages, t)
        yield ages, a
        ages = tuple(1 if i == a else x + 1 for i, x in enumerate(ages))


def _policy_chooser(spec, policy):
    """`choose` for _reliable_path that asks `decide`. The index table starts
    32 ages wide and doubles, up to the cap of _index_table, whenever an age
    passes it, so a starved source's growing age stays a table lookup. The
    sources' caps are computed once, for a whittle policy only."""
    whittle = isinstance(policy, Whittle)
    caps = [costmod.max_representable_age(s.cost) for s in spec.sources] if whittle else None
    width = 32
    table = _index_table(spec, policy, width, caps)

    def choose(ages, t):
        nonlocal table, width
        if table is not None and max(ages) > width and table.shape[1] == width:
            width *= 2
            table = _index_table(spec, policy, width, caps)
        return decide(policy, spec, ages, t=t, index_table=table)

    return choose


def _first_cycle(spec, pairs, key, repeats=None):
    """The Cycle between the first two of `pairs`, an iterable of (ages,
    action) pairs, whose keys `key(step, pair)` are equal, with its exact
    average cost (the pairs before the first of them do not contribute);
    None when the pairs run out first.

    With `repeats`, a recurrence from step j to step s only closes the cycle
    if `repeats(j, s)` holds; otherwise the scan goes on from step s."""
    seen = {}
    run = []
    for step, pair in enumerate(pairs):
        k = key(step, pair)
        if k in seen and (repeats is None or repeats(seen[k], step)):
            states, actions = zip(*run[seen[k]:])
            avg = math.fsum(spec.state_cost(s) for s in states) / len(states)
            return Cycle(states=states, actions=actions, average_cost=avg)
        seen[k] = step
        run.append(pair)
    return None


def _check_exact(spec, policy, what):
    if not spec.reliable:
        raise DomainError(f"{what} requires all channels reliable")
    if not is_deterministic(policy):
        raise DomainError(f"{what} requires a deterministic policy")


def detect_cycle(spec: SystemSpec, policy, max_steps: int = 100_000) -> Cycle:
    """Iterate a deterministic policy on reliable channels from all-ones until
    a state recurs; returns the recurrent cycle and its exact average cost
    (the transient prefix does not contribute).

    Time-cyclic policies (round robin, fixed cycles) recur on (state, phase)
    pairs so their period is respected.
    """
    _check_exact(spec, policy, "cycle detection")
    max_steps = validate_count("max_steps", max_steps)
    period = time_period(policy, spec.n_sources)
    path = _reliable_path((1,) * spec.n_sources, _policy_chooser(spec, policy))
    cycle = _first_cycle(
        spec, itertools.islice(path, max_steps), lambda step, pair: (pair[0], step % period)
    )
    if cycle is None:
        raise NonCyclicError(f"no state recurrence within {max_steps} steps")
    return cycle


def per_slot_costs(spec: SystemSpec, policy, horizon: int) -> np.ndarray:
    """Exact pre-action cost of each slot for a deterministic policy on
    reliable channels (a single noiseless trajectory)."""
    _check_exact(spec, policy, "exact slot cost")
    horizon = validate_count("horizon", horizon)
    path = _reliable_path((1,) * spec.n_sources, _policy_chooser(spec, policy))
    return np.array([spec.state_cost(ages) for ages, _ in itertools.islice(path, horizon)])


# -- divergence probe ----------------------------------------------------------


def divergence_probe(
    spec: SystemSpec,
    policy: StationaryRandomized,
    horizons,
    n_seeds: int = 100,
    seed: int = 0,
    aggregate: str = "median",
) -> np.ndarray:
    """Running-average cost of a stationary randomized policy at a sequence of
    increasing horizons, used to exhibit unbounded growth.

    aggregate="median" simulates n_seeds independent episodes and reports the
    per-horizon median of the running averages (costs saturate at 1e300, so
    growth past any finite bar is still visible). aggregate="expectation"
    returns the exact expected running averages in closed form from the
    geometric age distribution each source has under the policy.
    """
    if not isinstance(policy, StationaryRandomized):
        raise DomainError("the divergence probe takes a stationary randomized policy")
    horizons = [validate_count("horizon", h) for h in horizons]
    if not horizons or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise DomainError("horizons must be a non-empty, strictly increasing sequence")
    n_seeds = validate_count("n_seeds", n_seeds)
    seed = validate_seed(seed)
    # the decision rule checks the policy against the system
    _decide_rows(policy, spec, np.ones((1, spec.n_sources), dtype=np.int64), 0, np.zeros(1))
    if aggregate == "expectation":
        return _probe_expectation(spec, policy, horizons)
    if aggregate != "median":
        raise DomainError(f"unknown aggregate {aggregate!r}")
    acc = _run_slots(spec, policy, n_seeds, seed, horizons, saturate=True)
    totals = np.minimum(acc.sum(axis=2), OVERFLOW_LIMIT)
    return np.array([np.median(tot / h) for tot, h in zip(totals, horizons)])


def _probe_expectation(spec, policy, horizons):
    """Exact expected running averages: under an i.i.d. randomized policy each
    source is renewed independently each slot with probability q = prob * p,
    so its age at slot t is truncated-geometric."""
    tmax = horizons[-1]
    t = np.arange(1, tmax + 1)
    per_slot = np.zeros(tmax)
    rows, _ = _cost_rows(spec, tmax)
    for i, s in enumerate(spec.sources):
        q = policy.probs[i] * s.p
        if q >= 1.0:
            per_slot += s.cost(1)
            continue
        if q <= 0.0:
            raise DomainError(f"source {i + 1} is never scheduled; expectation diverges")
        geo = q * (1.0 - q) ** (t - 1.0)  # at age t
        interior = np.concatenate(([0.0], np.cumsum(rows[i] * geo)[:-1]))
        boundary = rows[i] * (1.0 - q) ** (t - 1.0)
        per_slot += interior + boundary
    np.minimum(per_slot, OVERFLOW_LIMIT, out=per_slot)
    running = np.minimum(np.cumsum(per_slot), OVERFLOW_LIMIT) / t
    return running[[h - 1 for h in horizons]]
