"""Multi-source scheduling policies over the shared broadcast slot.

A system is N sources, each with its own age-cost function and channel
success probability. Exactly one source may transmit per slot. Policies map
(age vector, slot index) to the source to schedule; source indices are
0-based throughout the Python API (configs and reports label them 1-based).

The whittle policy schedules the source maximizing its single-arm index at
its current age, with ties broken toward the lowest source index. Because the
per-source index functions are non-decreasing, any such policy is
strong-switch-type by construction (see the structure module's checker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from . import decoupled
from .cost import CostFunction, is_bounded_cost
from .errors import AdmissibilityError, DomainError, MissingStateError


@dataclass(frozen=True)
class Source:
    """One source: its age-cost function and channel success probability."""

    cost: CostFunction
    p: float = 1.0

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise DomainError(f"p must be in (0, 1], got {self.p}")


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

    def check_bounded(self) -> list:
        """Bounded-cost diagnostics, one per source."""
        return [is_bounded_cost(s.cost, s.p) for s in self.sources]

    def require_bounded(self):
        """Raise AdmissibilityError naming the first offending source."""
        for i, chk in enumerate(self.check_bounded()):
            if not chk:
                raise AdmissibilityError(f"source {i + 1} fails bounded cost: {chk.reason}")


def validate_ages(spec: SystemSpec, ages) -> np.ndarray:
    """The ages as an int64 vector, or DomainError unless they are positive
    integers, one per source. Only `spec.n_sources` is read, so a DP box
    serves as well."""
    arr = np.asarray(ages)
    if arr.shape != (spec.n_sources,):
        raise DomainError(f"age vector must have length {spec.n_sources}, got shape {arr.shape}")
    if np.any(arr < 1) or np.any(arr != np.floor(arr)):
        raise DomainError("ages must be positive integers")
    return arr.astype(np.int64)


def validate_count(name: str, value, least: int = 1) -> int:
    """`value` as an int, or DomainError naming `name` unless it is an
    integer (a bool is refused) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


# -- policy variants ----------------------------------------------------------


@dataclass(frozen=True)
class Whittle:
    """Schedule argmax of the per-source whittle index at the current ages."""


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through the sources in a fixed order, one per slot."""

    order: Optional[tuple] = None

    def resolved_order(self, n: int) -> tuple:
        if self.order is None:
            return tuple(range(n))
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(n)):
            raise DomainError(f"round-robin order must be a permutation of 0..{n - 1}")
        return order


@dataclass(frozen=True)
class StationaryRandomized:
    """Draw the scheduled source i.i.d. from a fixed distribution each slot."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(q) for q in self.probs)
        if any(q < 0 for q in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise DomainError("randomized policy needs non-negative probs summing to 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class MaxAge:
    """Schedule the source with the largest raw age (lowest index on ties)."""


@dataclass(frozen=True)
class FixedCycle:
    """Repeat a fixed finite sequence of source indices forever."""

    actions: tuple

    def __post_init__(self):
        acts = tuple(int(a) for a in self.actions)
        if not acts:
            raise DomainError("fixed cycle needs at least one action")
        object.__setattr__(self, "actions", acts)


@dataclass(frozen=True)
class Tabular:
    """Explicit state -> action lookup with an optional fallback policy.

    States absent from the table defer to the fallback (the whittle decision
    by default), keeping truncated tables total. Disable the fallback to get
    a MissingStateError on unlisted states instead.
    """

    table: Mapping
    fallback: object = field(default_factory=Whittle)


Policy = Union[Whittle, RoundRobin, StationaryRandomized, MaxAge, FixedCycle, Tabular]

DETERMINISTIC_KINDS = (Whittle, RoundRobin, MaxAge, FixedCycle, Tabular)
STATIONARY_KINDS = (Whittle, MaxAge, Tabular)


def is_deterministic(policy) -> bool:
    if isinstance(policy, Tabular):
        return policy.fallback is None or is_deterministic(policy.fallback)
    return isinstance(policy, DETERMINISTIC_KINDS)


def time_period(policy, n_sources: int) -> int:
    """Period of the policy's explicit time dependence (1 when stationary)."""
    if isinstance(policy, RoundRobin):
        return n_sources
    if isinstance(policy, FixedCycle):
        return len(policy.actions)
    return 1


# -- whittle index tables ------------------------------------------------------


def whittle_index_table(spec: SystemSpec, a_max: int, tol: float = 1e-10) -> np.ndarray:
    """Per-source index values W_i(1..a_max) as an (N, a_max) array.

    Each row is non-decreasing; whittle decisions over ages <= a_max become
    pure table lookups.
    """
    if a_max < 1:
        raise DomainError("a_max must be positive")
    hs = np.arange(1, a_max + 1)
    rows = []
    for i, s in enumerate(spec.sources):
        try:
            rows.append(np.asarray(decoupled.whittle_index(s.cost, s.p, hs, tol=tol), dtype=float))
        except AdmissibilityError as e:
            raise AdmissibilityError(f"source {i + 1}: {e}") from None
    return np.stack(rows)


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
    and draws one uniform from it per call (also as a tabular fallback). An
    `index_table` from :func:`whittle_index_table` avoids recomputing
    whittle indices on every call.
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
        return np.full(r, policy.resolved_order(n)[t % n])
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
    if isinstance(policy, Tabular):
        acts = np.empty(r, dtype=np.int64)
        miss = np.zeros(r, dtype=bool)
        for j, key in enumerate(map(tuple, ages.tolist())):
            if key in policy.table:
                a = int(policy.table[key])
                if not 0 <= a < n:
                    raise DomainError(f"tabular action {a} out of range for {n} sources")
                acts[j] = a
            elif policy.fallback is None:
                raise MissingStateError(f"state {key} not in table and fallback disabled")
            else:
                miss[j] = True
        if miss.any():
            sub_u = None if u is None else u[miss]
            acts[miss] = _decide_rows(policy.fallback, spec, ages[miss], t, sub_u, index_table)
        return acts
    raise DomainError(f"unknown policy {policy!r}")


def _whittle_values(spec, ages, index_table):
    """Index values at a block of ages: table lookups, except that a row
    with any age past the table computes its whole row from the series."""
    width = 0 if index_table is None else index_table.shape[1]
    # W_i(a) is entry a + offsets[i] of the table read in C order
    offsets = np.arange(spec.n_sources) * width - 1
    if ages.max() <= width:
        return index_table.take(ages + offsets)
    vals = np.empty(ages.shape)
    for j, row in enumerate(ages):
        if row.max() <= width:
            vals[j] = index_table.take(row + offsets)
        else:
            vals[j] = [decoupled.whittle_index(s.cost, s.p, int(a)) for s, a in zip(spec.sources, row)]
    return vals
