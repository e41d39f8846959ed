"""Multi-source scheduling policies over the shared broadcast slot.

A system is N sources, each with its own age-cost function and channel
success probability. Exactly one source may transmit per slot. Policies map
(age vector, slot index) to the source to schedule; source indices are
0-based throughout the Python API (configs and reports label them 1-based).

The whittle policy schedules the source maximizing its single-arm index at
its current age, with ties broken toward the lowest source index. Because the
per-source index functions are non-decreasing, any such policy is
strong-switch-type by construction (see the structure module's checker).

Every kind of argument is checked in `cost`; :func:`validate_ages` adds
only the length check of an age vector against its system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import decoupled
from .cost import (
    CostFunction,
    positive_ages,
    require_bounded,
    validate_count,
    validate_probability,
    validate_real,
)
from .errors import DomainError


@dataclass(frozen=True)
class Source:
    """One source: its age-cost function and channel success probability."""

    cost: CostFunction
    p: float = 1.0

    def __post_init__(self):
        validate_probability(self.p)


@dataclass(frozen=True)
class SystemSpec:
    """The N-source system sharing one transmission slot per step."""

    sources: tuple

    def __post_init__(self):
        srcs = tuple(self.sources)
        if not srcs:
            raise DomainError("a system needs at least one source")
        if not all(isinstance(s, Source) for s in srcs):
            raise DomainError("sources must be Source instances")
        object.__setattr__(self, "sources", srcs)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.p for s in self.sources])

    @property
    def reliable(self) -> bool:
        return all(s.p == 1.0 for s in self.sources)

    def state_cost(self, ages) -> float:
        """Total cost of an age vector, sum of per-source costs."""
        ages = np.asarray(ages)
        return float(sum(float(s.cost(int(a))) for s, a in zip(self.sources, ages)))

    def require_bounded(self):
        """Raise AdmissibilityError naming the first offending source."""
        for i, s in enumerate(self.sources):
            require_bounded(s.cost, s.p, f"source {i + 1}")


def validate_ages(spec: SystemSpec, ages) -> np.ndarray:
    """The ages as an int64 vector, or DomainError unless they are positive
    integers, one per source."""
    arr = np.asarray(ages)
    if arr.shape != (spec.n_sources,):
        raise DomainError(f"age vector must have length {spec.n_sources}, got shape {arr.shape}")
    return positive_ages(arr, "ages").astype(np.int64)


# -- policy variants ----------------------------------------------------------


@dataclass(frozen=True)
class Whittle:
    """Schedule argmax of the per-source whittle index at the current ages."""


@dataclass(frozen=True)
class RoundRobin:
    """Serve source t % N at slot t; FixedCycle serves any other order."""


@dataclass(frozen=True)
class StationaryRandomized:
    """Draw the scheduled source i.i.d. from a fixed distribution each slot."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(validate_real(q, "randomized probability") for q in self.probs)
        if not all(0 <= q < np.inf for q in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise DomainError("randomized policy needs finite non-negative probs summing to 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class MaxAge:
    """Schedule the source with the largest raw age (lowest index on ties)."""


@dataclass(frozen=True)
class FixedCycle:
    """Repeat a fixed finite sequence of source indices forever."""

    actions: tuple

    def __post_init__(self):
        acts = tuple(validate_count("cycle action", a, 0) for a in self.actions)
        if not acts:
            raise DomainError("fixed cycle needs at least one action")
        object.__setattr__(self, "actions", acts)


DETERMINISTIC_KINDS = (Whittle, RoundRobin, MaxAge, FixedCycle)


def is_deterministic(policy) -> bool:
    return isinstance(policy, DETERMINISTIC_KINDS)


def time_period(policy, n_sources: int) -> int:
    """Period of the policy's explicit time dependence (1 when stationary)."""
    if isinstance(policy, RoundRobin):
        return n_sources
    if isinstance(policy, FixedCycle):
        return len(policy.actions)
    return 1


# -- whittle index tables ------------------------------------------------------


def whittle_index_table(spec: SystemSpec, a_max: int) -> np.ndarray:
    """Per-source index values W_i(1..a_max) as an (N, a_max) array.

    Each row is non-decreasing; whittle decisions over ages <= a_max become
    pure table lookups.
    """
    hs = np.arange(1, validate_count("a_max", a_max) + 1)
    spec.require_bounded()
    return np.stack([decoupled.whittle_index(s.cost, s.p, hs) for s in spec.sources])


# -- the decision rule ---------------------------------------------------------


def decide(
    policy,
    spec: SystemSpec,
    ages,
    t: int = 0,
    rng: Optional[np.random.Generator] = None,
    index_table: Optional[np.ndarray] = None,
) -> int:
    """Source (0-based) scheduled by `policy` at age vector `ages`, slot `t`.

    Deterministic variants ignore `rng`; the randomized variant requires it
    and draws one uniform from it per call. An `index_table` from
    :func:`whittle_index_table` avoids recomputing whittle indices on every
    call.
    """
    arr = validate_ages(spec, ages)
    u = None if rng is None or is_deterministic(policy) else rng.random(1)
    return int(_decide_rows(policy, spec, arr[None, :], t, u, index_table)[0])


def _decide_rows(policy, spec, ages, t, u=None, index_table=None) -> np.ndarray:
    """Decisions for a (runs x N) block of ages at slot t, one per row.

    `u` holds one policy uniform per row; only the randomized variant reads
    it. Ties go to the lowest source index.
    """
    n = spec.n_sources
    r = len(ages)
    if isinstance(policy, Whittle):
        return np.argmax(_whittle_values(spec, ages, index_table), axis=1)
    if isinstance(policy, RoundRobin):
        return np.full(r, t % n)
    if isinstance(policy, FixedCycle):
        a = policy.actions[t % len(policy.actions)]
        if not 0 <= a < n:
            raise DomainError(f"cycle action {a} out of range for {n} sources")
        return np.full(r, a)
    if isinstance(policy, MaxAge):
        return np.argmax(ages, axis=1)
    if isinstance(policy, StationaryRandomized):
        if len(policy.probs) != n:
            raise DomainError("randomized probs length must match source count")
        if u is None:
            raise DomainError("the randomized policy needs an rng")
        return np.minimum(np.searchsorted(np.cumsum(policy.probs), u, side="right"), n - 1)
    raise DomainError(f"unknown policy {policy!r}")


def _whittle_values(spec, ages, index_table):
    """Index values at a block of ages: table lookups while every age is in
    the table, else one `decoupled.whittle_index` call per source over its
    column of ages. Each age gets the same bits whatever else is in its
    row, so the columns equal the table's values."""
    width = 0 if index_table is None else index_table.shape[1]
    if ages.max() <= width:
        # W_i(a) is entry a + i * width - 1 of the table read in C order
        return index_table.take(ages + (np.arange(spec.n_sources) * width - 1))
    cols = [decoupled.whittle_index(s.cost, s.p, col) for s, col in zip(spec.sources, ages.T)]
    return np.column_stack(cols)
