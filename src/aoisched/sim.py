"""Slotted-time simulation of scheduling policies.

Each run starts from the all-ones age vector. Every slot accrues the cost of
the pre-action ages, the policy picks one source, and that source's age
resets to 1 on a Bernoulli(p) success while every other age grows by one.
Ages are never truncated here (only the DP box truncates); an overflow guard
trips if any age passes 10^6.

Randomness is fully reproducible: run r of a simulation seeded with s draws
its channel uniforms from a counter-based Philox stream keyed by (s, r, 0)
and its policy uniforms, when the policy is randomized, from (s, r, 1).
Runs therefore commute: splitting the runs into K blocks, simulated one
after another without threads, gives identical results at any K.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cost as costmod
from .cost import OVERFLOW_LIMIT
from .errors import CostRangeError, DomainError, NonCyclicError
from .policies import (
    StationaryRandomized,
    SystemSpec,
    Tabular,
    Whittle,
    _decide_rows,
    decide,
    is_deterministic,
    time_period,
    whittle_index_table,
)

AGE_GUARD = 10**6


def _index_table(spec: SystemSpec, policy, wanted: int):
    """Whittle index table for the policies that look indices up (None for
    the others), as wide as the cost functions can represent, capped at
    `wanted`. The index at age h needs f(h+1), hence the -1."""
    if not isinstance(policy, (Whittle, Tabular)):
        return None
    width = wanted
    for s in spec.sources:
        cap = costmod.max_representable_age(s.cost)
        if cap is not None:
            width = min(width, cap - 1)
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


def _uniforms(seed: int, lo: int, hi: int, kind: int, slots: int) -> np.ndarray:
    """`slots` uniforms for each of runs lo..hi-1 from the Philox stream keyed
    by (seed, run, kind); kind 0 is the channel, kind 1 the policy."""
    out = np.empty((hi - lo, slots))
    for row, run in zip(out, range(lo, hi)):
        key = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(run, kind))
        np.random.Generator(np.random.Philox(key)).random(out=row)
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
    cost, plus the per-source breakdown of the mean. The runs are split into
    `workers` blocks simulated one after another (no threads), which bounds
    the memory of the uniform arrays; identical (seed, config) inputs give
    bit-identical results at any block count.
    """
    if horizon < 1 or runs < 1:
        raise DomainError("horizon and runs must be positive")
    (acc,) = _run_slots(spec, policy, runs, seed, [horizon], blocks=workers)
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


def _run_blocks(runs, blocks):
    blocks = max(1, min(int(blocks), runs))
    bounds = np.linspace(0, runs, blocks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]


def _cost_row(f, horizon):
    """f(1..T), T the smaller of `horizon` and the largest age f represents."""
    cap = costmod.max_representable_age(f)
    top = horizon if cap is None else min(horizon, cap)
    return costmod.evaluate(f, np.arange(1, top + 1))


def _run_slots(spec, policy, runs, seed, checkpoints, blocks=1, saturate=False):
    """The slot loop: simulate runs 0..runs-1 in `blocks` consecutive blocks
    of lockstep runs, and return the per-source cost each run accumulated up
    to each checkpoint horizon, shape (len(checkpoints), runs, N).

    Costs are looked up in one row per source, built once. An age past its
    row raises CostRangeError naming the slot and source, or, with
    `saturate`, costs OVERFLOW_LIMIT (callers cap the sums there).
    """
    n = spec.n_sources
    tmax = checkpoints[-1]
    probs = spec.probabilities
    table = _index_table(spec, policy, tmax + 1)
    # each row ends in an OVERFLOW_LIMIT entry that stands for every later age
    rows = [np.append(_cost_row(s.cost, tmax), OVERFLOW_LIMIT) for s in spec.sources]
    randomized = isinstance(policy, StationaryRandomized)
    out = np.empty((len(checkpoints), runs, n))
    for lo, hi in _run_blocks(runs, blocks):
        u_chan = _uniforms(seed, lo, hi, 0, tmax)
        u_pol = _uniforms(seed, lo, hi, 1, tmax) if randomized else None
        ages = np.ones((hi - lo, n), dtype=np.int64)
        acc = np.zeros((hi - lo, n))
        run_idx = np.arange(hi - lo)
        k = 0
        for t in range(tmax):
            for i, row in enumerate(rows):
                col = ages[:, i]
                if t + 1 < len(row) or col.max() < len(row):  # ages are at most t + 1
                    acc[:, i] += row[col - 1]
                elif saturate:
                    acc[:, i] += row[np.minimum(col, len(row)) - 1]
                else:  # past the row: evaluate raises, naming the age
                    try:
                        acc[:, i] += spec.sources[i].cost(col)
                    except CostRangeError as e:
                        raise CostRangeError(f"slot {t + 1}, source {i + 1}: {e}") from None
            try:
                acts = _decide_rows(policy, spec, ages, t, u_pol[:, t] if randomized else None, table)
            except CostRangeError as e:
                raise CostRangeError(f"slot {t + 1}: {e}") from None
            success = u_chan[:, t] < probs[acts]
            ages += 1
            ages[run_idx[success], acts[success]] = 1
            # ages after slot t are at most t + 2; saturated costs need no guard
            if t + 2 > AGE_GUARD and not saturate and ages.max() > AGE_GUARD:
                raise CostRangeError(f"age exceeded {AGE_GUARD} at slot {t + 1}")
            if t + 1 == checkpoints[k]:
                out[k, lo:hi] = acc
                k += 1
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


def _policy_chooser(spec, policy, width):
    """`choose` for _reliable_path that asks `decide`. The index table starts
    `width` ages wide and doubles, up to the cap of _index_table, whenever an
    age passes it, so a starved source's growing age stays a table lookup."""
    table = _index_table(spec, policy, width)

    def choose(ages, t):
        nonlocal table, width
        if table is not None and max(ages) > width and table.shape[1] == width:
            width *= 2
            table = _index_table(spec, policy, width)
        return decide(policy, spec, ages, t=t, index_table=table)

    return choose


def _closed_cycle(spec, pairs) -> Cycle:
    """The Cycle of a run of (ages, action) pairs that closes on itself, with
    its exact average cost."""
    states = tuple(s for s, _ in pairs)
    avg = math.fsum(spec.state_cost(s) for s in states) / len(states)
    return Cycle(states=states, actions=tuple(a for _, a in pairs), average_cost=avg)


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
    period = time_period(policy, spec.n_sources)
    path = _reliable_path((1,) * spec.n_sources, _policy_chooser(spec, policy, 4096))
    seen = {}
    pairs = []
    for step, (ages, a) in zip(range(max_steps), path):
        key = (ages, step % period)
        if key in seen:
            return _closed_cycle(spec, pairs[seen[key]:])
        seen[key] = step
        pairs.append((ages, a))
    raise NonCyclicError(f"no state recurrence within {max_steps} steps")


def per_slot_costs(spec: SystemSpec, policy, horizon: int) -> np.ndarray:
    """Exact pre-action cost of each slot for a deterministic policy on
    reliable channels (a single noiseless trajectory)."""
    _check_exact(spec, policy, "exact slot cost")
    if horizon < 1:
        raise DomainError("horizon must be positive")
    path = _reliable_path((1,) * spec.n_sources, _policy_chooser(spec, policy, horizon + 1))
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
    horizons = [int(h) for h in horizons]
    if not horizons or any(b <= a for a, b in zip(horizons, horizons[1:])) or horizons[0] < 1:
        raise DomainError("horizons must be a strictly increasing positive sequence")
    if n_seeds < 1:
        raise DomainError("n_seeds must be positive")
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
    for i, s in enumerate(spec.sources):
        q = policy.probs[i] * s.p
        if q >= 1.0:
            per_slot += s.cost(1)
            continue
        if q <= 0.0:
            raise DomainError(f"source {i + 1} is never scheduled; expectation diverges")
        ages = np.arange(1, tmax + 1)
        f_vals = _cost_row(s.cost, tmax)
        f_vals = np.append(f_vals, np.full(tmax - len(f_vals), OVERFLOW_LIMIT))
        geo = q * (1.0 - q) ** (ages - 1.0)
        interior = np.concatenate(([0.0], np.cumsum(f_vals * geo)[:-1]))
        boundary = f_vals * (1.0 - q) ** (t - 1.0)
        per_slot += interior + boundary
    np.minimum(per_slot, OVERFLOW_LIMIT, out=per_slot)
    running = np.minimum(np.cumsum(per_slot), OVERFLOW_LIMIT) / t
    return running[[h - 1 for h in horizons]]
