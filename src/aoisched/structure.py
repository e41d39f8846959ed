"""Verifiers for structural properties of scheduling policies.

Three tools live here. The strong-switch checker tests a finite set of
(state, action) pairs for the dominance property: if action i is taken at x,
then any state with a larger i-th age and smaller other ages must also take
action i. The two-source cycle enumerator scores every policy of the shape
"schedule one source k times, then the other once" on reliable channels,
which is the shape every index policy settles into for N = 2. The theorem-3
certifier ties the two together with the simulator and the DP solver: for two
sources on reliable channels the whittle cycle, the best enumerated cycle,
and the DP optimum must all agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cost as costmod
from . import dp as dpmod
from .cost import CostFunction, positive_ages, validate_count
from .decoupled import whittle_reliable
from .errors import DomainError, InconclusiveError
from .policies import Source, SystemSpec, Whittle
from .sim import Cycle, detect_cycle


@dataclass(frozen=True)
class SwitchViolation:
    """Witness pair breaking the strong-switch property.

    state_b dominates state_a in the action_a coordinate (larger there, no
    larger elsewhere), so action_a is implied at state_b, yet action_b differs.
    """

    state_a: tuple
    action_a: int
    state_b: tuple
    action_b: int
    implied_action: int


def check_strong_switch(pairs) -> list:
    """Exhaustively check a finite (state, action) set; empty list certifies.

    pairs: iterable of (age vector, 0-based action). States must be distinct.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    states = positive_ages([s for s, _ in pairs], "state").astype(np.int64)
    if states.ndim != 2:
        raise DomainError("states must be age vectors of one length")
    actions = np.array([validate_count("action", a, 0) for _, a in pairs])
    if len(set(map(tuple, states.tolist()))) != len(pairs):
        raise DomainError("states in a state-action set must be distinct")
    n = states.shape[1]
    if actions.max() >= n:
        raise DomainError("actions must be valid 0-based source indices")

    violations = []
    flagged = set()  # each conflicting unordered pair is reported once
    for j in range(len(pairs)):
        i = actions[j]
        x = states[j]
        bigger_i = states[:, i] >= x[i]
        others = np.ones(len(pairs), dtype=bool)
        for c in range(n):
            if c != i:
                others &= states[:, c] <= x[c]
        dominated = bigger_i & others & (actions != i)
        for k in np.nonzero(dominated)[0]:
            key = (min(j, int(k)), max(j, int(k)))
            if key in flagged:
                continue
            flagged.add(key)
            violations.append(
                SwitchViolation(
                    state_a=tuple(int(v) for v in x),
                    action_a=int(i),
                    state_b=tuple(int(v) for v in states[k]),
                    action_b=int(actions[k]),
                    implied_action=int(i),
                )
            )
    return violations


# -- two-source cycle enumeration ---------------------------------------------


def two_source_cycle_cost(f1: CostFunction, f2: CostFunction, k: int) -> float:
    """Average cost of the reliable-channel cycle that schedules source 1 for
    k consecutive slots and then source 2 once:

        [ sum_{j=1}^{k+1} f2(j) + k f1(1) + f1(2) ] / (k + 1)
    """
    k = validate_count("k", k)
    parts = [f2(j) for j in range(1, k + 2)]
    parts.append(k * f1(1))
    parts.append(f1(2))
    return math.fsum(parts) / (k + 1)


@dataclass(frozen=True)
class BestCycle:
    """Minimizer over both leader orientations and k in [1, k_max]."""

    leader: int  # 0-based index of the repeatedly scheduled source
    k: int
    cost: float


def best_two_source_cycle(f1: CostFunction, f2: CostFunction, k_max: int = 1000) -> BestCycle:
    """Minimize the two-source cycle cost over leader and k; ties prefer the
    smaller k, then leader 0. Errors out if the minimizer sits on the k_max
    boundary, since then a longer sweep might still improve it."""
    k_max = validate_count("k_max", k_max, 2)

    def sweep(lead: CostFunction, follow: CostFunction):
        pref = np.cumsum(costmod.row(follow, k_max + 1))  # sums f(1..k+1)
        top = len(pref) - 1  # the sweep evaluates follow(k+1)
        ks = np.arange(1, top + 1)
        costs = (pref[1:] + ks * lead(1) + lead(2)) / (ks + 1)
        k_best = int(np.argmin(costs))
        return float(costs[k_best]), int(ks[k_best]), top

    cands = []
    for leader, (lead, follow) in enumerate(((f1, f2), (f2, f1))):
        c, k, top = sweep(lead, follow)
        cands.append((c, k, leader, top))
    cost, k, leader, top = min(cands)  # ties: smaller k wins, then leader 0
    if k >= top:
        raise InconclusiveError(
            f"cycle-cost minimizer sits at the sweep boundary k={top}; raise k_max"
        )
    return BestCycle(leader=leader, k=k, cost=cost)


# -- theorem-3 certification ----------------------------------------------------


@dataclass(frozen=True)
class CycleForm:
    """Canonical shape of a two-source cycle: leader scheduled k times,
    follower once."""

    leader: int
    follower: int
    k: int


def parse_two_source_cycle(cycle: Cycle) -> CycleForm:
    """Recognize the leader-k-then-follower shape, or raise DomainError."""
    acts = cycle.actions
    T = cycle.length
    if sorted(set(acts)) not in ([0, 1],):
        raise DomainError("cycle must schedule exactly the two sources 0 and 1")
    for follower in (1, 0):
        slots = [i for i, a in enumerate(acts) if a == follower]
        if len(slots) != 1:
            continue
        leader = 1 - follower
        k = T - 1
        # rotate so the follower slot comes last, then verify the trajectory
        rot = (slots[0] + 1) % T
        states = cycle.states[rot:] + cycle.states[:rot]
        expect = [(2, 1)] + [(1, j) for j in range(2, k + 2)]
        got = [(s[leader], s[follower]) for s in states]
        if got == expect:
            return CycleForm(leader=leader, follower=follower, k=k)
    raise DomainError(f"cycle {acts} does not have the leader-then-follower shape")


@dataclass(frozen=True)
class CertCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Theorem3Certificate:
    """Joint certificate that the whittle cycle, the best enumerated cycle,
    and the DP optimum coincide for a reliable two-source system."""

    whittle_cycle: Cycle
    best_cycle: BestCycle
    dp_cost: float
    form: Optional[CycleForm]
    checks: tuple = field(default=())

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def _decision_certified(w_chosen, w_other, chosen, other) -> bool:
    """argmax with lowest-index tie-break picks `chosen` over `other`."""
    if w_chosen > w_other:
        return True
    return w_chosen == w_other and chosen < other


def certify_theorem3(
    f1: CostFunction,
    f2: CostFunction,
    horizon: int = 500,
    a_max: Optional[int] = None,
    k_max: int = 1000,
    cycle_tol: float = 1e-6,
    dp_rel_tol: float = 0.01,
) -> Theorem3Certificate:
    """Certify whittle-cycle = best-cycle = DP-cost for two reliable sources.

    Cycle-versus-cycle equality is held to `cycle_tol` (both are exact
    arithmetic); the DP comparison gets `dp_rel_tol` because the finite
    horizon average retains a transient. The whittle cycle must additionally
    have the leader-then-follower shape and satisfy the realized index
    inequalities: at every cycle state, the scheduled source's index beats
    the other source's (with the lowest-index tie rule).
    """
    spec = SystemSpec((Source(f1, 1.0), Source(f2, 1.0)))
    box = None if a_max is None else dpmod.TruncatedBox(a_max, 2)
    wc = detect_cycle(spec, Whittle())
    best = best_two_source_cycle(f1, f2, k_max=k_max)
    sol = dpmod.finite_horizon_dp(spec, horizon, box=box)

    checks = []
    try:
        form = parse_two_source_cycle(wc)
        checks.append(CertCheck("cycle_form", True, f"leader {form.leader}, k={form.k}"))
    except DomainError as e:
        form = None
        checks.append(CertCheck("cycle_form", False, str(e)))

    gap = abs(wc.average_cost - best.cost)
    checks.append(
        CertCheck(
            "whittle_equals_best_cycle",
            gap <= cycle_tol * max(1.0, abs(best.cost)),
            f"whittle {wc.average_cost!r} vs best {best.cost!r} (leader {best.leader}, k={best.k})",
        )
    )
    rel = abs(wc.average_cost - sol.optimal_average_cost) / abs(sol.optimal_average_cost)
    checks.append(
        CertCheck(
            "whittle_matches_dp",
            rel <= dp_rel_tol,
            f"whittle cycle {wc.average_cost:.6f} vs dp {sol.optimal_average_cost:.6f} ({100 * rel:.3f}%)",
        )
    )

    fs = (f1, f2)
    bad = []
    for s, a in zip(wc.states, wc.actions):
        other = 1 - a
        wa = whittle_reliable(fs[a], int(s[a]))
        wo = whittle_reliable(fs[other], int(s[other]))
        if not _decision_certified(wa, wo, a, other):
            bad.append(f"state {s}: W_{a}({s[a]})={wa!r} does not beat W_{other}({s[other]})={wo!r}")
    checks.append(
        CertCheck(
            "realized_index_inequalities",
            not bad,
            "; ".join(bad) if bad else f"{wc.length} decisions certified",
        )
    )
    if form is not None and form.k >= 2:
        lead_f, fol_f = fs[form.leader], fs[form.follower]
        w_l1 = whittle_reliable(lead_f, 1)
        w_fk = whittle_reliable(fol_f, form.k)
        w_fk1 = whittle_reliable(fol_f, form.k + 1)
        ok = w_l1 >= w_fk and w_fk1 >= w_l1
        checks.append(
            CertCheck(
                "leader_index_interval",
                ok,
                f"W_F(k)={w_fk!r} <= W_L(1)={w_l1!r} <= W_F(k+1)={w_fk1!r}",
            )
        )

    violations = check_strong_switch(list(zip(wc.states, wc.actions)))
    checks.append(
        CertCheck(
            "strong_switch",
            not violations,
            f"{len(violations)} violations" if violations else "cycle is strong-switch clean",
        )
    )

    return Theorem3Certificate(
        whittle_cycle=wc,
        best_cycle=best,
        dp_cost=sol.optimal_average_cost,
        form=form,
        checks=tuple(checks),
    )
