"""Single-arm decoupled problem: one source, an activation charge C per pull.

The arm's state is its age h >= 1. Resting lets the age grow by one; pulling
resets it to 1 with the channel success probability p (and costs C either
way). The optimal policy is a threshold policy "activate iff h >= H", and the
index of state h is the infimum charge at which activating and resting are
equally desirable there:

    reliable (p = 1):    W(h) = h f(h+1) - sum_{j<=h} f(j)
    unreliable:          W(h) = p^2 h sum_{k>=1} f(k+h)(1-p)^{k-1}
                                - p sum_{j<=h} f(j)

Both are non-decreasing in h, which is exactly the indexability property: the
set of ages where pulling is optimal shrinks monotonically as C grows. This
module computes the indices, inverts them into optimal thresholds, and checks
everything against an independent relative-value-iteration solver.

A lossy index row W(h_1..h_n) is built in one vectorised pass that gives
every age the same float operations as the scalar series
(`whittle_unreliable`, which stays the reference); its prefix sums come from
one cumsum. A threshold is the first age of such a row, built once and
doubled as needed, whose index exceeds the charge.

Only the Definition-form index above is used anywhere. The shifted auxiliary
form W~(h) = W(h-1) that appears in threshold interval arguments is never
materialized; mixing the two is a classic off-by-one trap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cost as costmod
from .cost import CostFunction, is_bounded_cost, prefix_array, prefix_sum
from .errors import (
    AdmissibilityError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
)


class Never(enum.Enum):
    """Distinguished 'never activate' policy value (not a sentinel integer)."""

    NEVER = "never"

    def __repr__(self):
        return "NEVER"


NEVER = Never.NEVER


@dataclass(frozen=True)
class ThresholdPolicy:
    """Activate the arm at age h iff h >= threshold."""

    threshold: "int | Never"

    def __post_init__(self):
        t = self.threshold
        if t is not NEVER and (not isinstance(t, (int, np.integer)) or t < 1):
            raise DomainError(f"threshold must be a positive integer or NEVER, got {t!r}")
        if isinstance(t, np.integer):
            object.__setattr__(self, "threshold", int(t))

    @property
    def is_never(self) -> bool:
        return self.threshold is NEVER

    def activates(self, h: int) -> bool:
        return not self.is_never and h >= self.threshold


@dataclass(frozen=True)
class DecoupledProblem:
    """One arm: cost function, channel success probability, activation charge."""

    cost: CostFunction
    p: float = 1.0
    charge: float = 0.0

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise DomainError(f"p must be in (0, 1], got {self.p}")
        if self.charge < 0:
            raise DomainError(f"charge must be non-negative, got {self.charge}")
        if self.p < 1:
            check = is_bounded_cost(self.cost, self.p)
            if not check:
                raise AdmissibilityError(
                    f"cost function fails the bounded-cost condition at p={self.p}: {check.reason}"
                )


@dataclass(frozen=True)
class DecoupledSolution:
    """Output of the value-iteration solver on the truncated chain."""

    policy: ThresholdPolicy
    average_cost: float
    differential_costs: np.ndarray  # S(1..a_max), normalized S(1) = 0
    a_max: int
    iterations: int


# -- whittle indices ---------------------------------------------------------


def _positive_ages(h) -> np.ndarray:
    """h as an int64 array of at least one dimension, checked to hold
    positive integers only."""
    hs = np.atleast_1d(np.asarray(h))
    if hs.size and (np.any(hs < 1) or np.any(hs != np.floor(hs))):
        raise DomainError("h must be a positive integer")
    return hs.astype(np.int64)


def whittle_reliable(f: CostFunction, h):
    """Definition-form index h*f(h+1) - sum f(1..h); scalar or array in h."""
    scalar = np.isscalar(h)
    hs = _positive_ages(h)
    hmax = int(hs.max()) if hs.size else 1
    pref = prefix_array(f, hmax)
    out = hs * costmod.evaluate(f, hs + 1) - pref[hs - 1]
    return float(out[0]) if scalar else out


def _check_series(f: CostFunction, p: float, tol: float) -> None:
    """Reject a p outside (0, 1], a non-positive tol and a divergent series."""
    if not 0 < p <= 1:
        raise DomainError(f"p must be in (0, 1], got {p}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    check = is_bounded_cost(f, p)
    if not check:
        raise AdmissibilityError(f"series diverges: {check.reason}")


def _start_bound(f: CostFunction) -> int:
    """First age from which f.growth_ratio_bound holds (past any zero-valued
    or pre-plateau prefix); ages below it must simply be summed over."""
    if f.is_bounded_function:
        return f.plateau_start
    return 2 if f.kind == "logarithmic" else 1


def discounted_tail(f: CostFunction, p: float, h: int, tol: float = 1e-12) -> float:
    """sum_{k>=1} f(k+h) (1-p)^{k-1}, summed until the geometric tail bound on
    the remainder drops below tol * max(1, partial sum).

    The bound needs an upper bound r < 1 on the term ratio
    f(x+1)(1-p)/f(x); the per-variant growth bound supplies it once x is past
    any zero-valued or pre-plateau prefix.
    """
    _check_series(f, p, tol)
    if p == 1.0:
        return costmod.evaluate(f, h + 1)
    q = 1.0 - p
    if f.kind == "exponential":
        # terms are exactly geometric with ratio base*q < 1; generating them
        # recursively keeps every intermediate bounded even when b**(h+k)
        # itself would not be representable
        r = f.base * q
        term = costmod.evaluate(f, h + 1)
        if r == 0.0:
            return term
        total = 0.0
        while True:
            total += term
            term *= r
            if term / (1.0 - r) <= tol * max(1.0, abs(total)):
                return total
    start_bound = _start_bound(f)
    total = 0.0
    k = 1
    block = 64
    while True:
        ks = np.arange(k, k + block)
        terms = costmod.evaluate(f, ks + h) * q ** (ks - 1.0)
        total += math.fsum(terms)
        k += block
        x_next = h + k  # age of the first un-summed term
        if x_next - 1 >= start_bound:
            r = f.growth_ratio_bound(x_next - 1) * q
            if r < 1:
                last = float(terms[-1])
                tail = last * r / (1.0 - r)
                if tail <= tol * max(1.0, abs(total)):
                    return total
        block = min(2 * block, 4096)


# terms gathered at once per chunk of ages; more makes tolist() cost memory
_CHUNK_TERMS = 4096


def _discounted_tails(f: CostFunction, p: float, ages: np.ndarray, tol: float) -> np.ndarray:
    """discounted_tail at each age of a 1-d array (p < 1), bit for bit, in
    one pass.

    Every age takes the same float operations as the scalar series: the
    same blocks of terms evaluate(f, k+h) * q**(k-1), one fsum per block
    (exact, so the order of the terms does not matter) and the same
    stopping test. Only the evaluations are gathered across ages, at most
    _CHUNK_TERMS terms at a time.
    """
    _check_series(f, p, tol)
    q = 1.0 - p
    if f.kind == "exponential":
        r = f.base * q
        # numpy's power can round a 0-d operand differently from an array
        # one, so the first terms come from scalar evaluations, as there
        term = np.array([costmod.evaluate(f, h + 1) for h in ages.tolist()])
        out = np.empty(len(ages))
        live = np.arange(len(ages))
        total = np.zeros(len(ages))
        while live.size:
            total += term
            term *= r
            done = term / (1.0 - r) <= tol * np.maximum(1.0, np.abs(total))
            out[live[done]] = total[done]
            live, total, term = live[~done], total[~done], term[~done]
        return out
    start_bound = _start_bound(f)
    # running totals and live ages stay in arrays: per-age Python floats
    # that outlive each chunk would pin its terms' memory
    totals = np.zeros(len(ages))
    live = np.arange(len(ages))
    k = 1
    block = 64
    while live.size:
        ks = np.arange(k, k + block)
        qpow = q ** (ks - 1.0)
        k += block
        rows = max(1, _CHUNK_TERMS // block)
        done = np.zeros(live.size, dtype=bool)
        for c in range(0, live.size, rows):
            idx = live[c : c + rows]
            terms = costmod.evaluate(f, ages[idx, None] + ks) * qpow
            totals[idx] += [math.fsum(row) for row in terms.tolist()]
            # x is the age of the last summed term
            for j, x in enumerate((ages[idx] + (k - 1)).tolist()):
                if x >= start_bound:
                    r = f.growth_ratio_bound(x) * q
                    if r < 1:
                        tail = terms[j, -1] * r / (1.0 - r)
                        done[c + j] = tail <= tol * max(1.0, abs(totals[idx[j]]))
        live = live[~done]
        block = min(2 * block, 4096)
    return totals


def whittle_unreliable(f: CostFunction, p: float, h: int, tol: float = 1e-10) -> float:
    """Unreliable-channel index p^2 h sum f(k+h)(1-p)^{k-1} - p sum f(1..h).

    At p = 1 the series collapses to f(h+1) and the value equals
    whittle_reliable(f, h) exactly.
    """
    h = int(_positive_ages(h)[0])
    tail = discounted_tail(f, p, h, tol=tol)
    # same cumulative-prefix arithmetic as whittle_reliable so the p = 1
    # collapse is bit-exact
    pref = float(prefix_array(f, h)[-1])
    return p * p * h * tail - p * pref


def whittle_index(f: CostFunction, p: float, h, tol: float = 1e-10):
    """Index for either channel kind; dispatches on p == 1.

    An array of ages on a lossy channel is one row: each age's tail comes
    from one vectorised pass with the same bits as whittle_unreliable, and
    the prefix sums from one cumsum.
    """
    if p == 1.0:
        return whittle_reliable(f, h)
    if np.isscalar(h):
        return whittle_unreliable(f, p, h, tol=tol)
    hs = _positive_ages(h)
    if not hs.size:
        return np.array([])
    tails = _discounted_tails(f, p, hs, tol)
    # cumsum runs left to right, so each entry equals prefix_array(f, h)[-1]
    pref = prefix_array(f, int(hs.max()))[hs - 1]
    return p * p * hs * tails - p * pref


# -- threshold inversion -----------------------------------------------------


def _index_supremum(f: CostFunction, p: float) -> float:
    """sup_h W(h) for bounded cost functions (finite); inf for unbounded."""
    if not f.is_bounded_function:
        return math.inf
    plateau = f.plateau_start
    f_max = costmod.evaluate(f, plateau)
    gap = math.fsum(f_max - costmod.evaluate(f, np.arange(1, plateau + 1)))
    return p * gap  # reliable value times p; p = 1 gives the reliable sup


def optimal_threshold(prob: DecoupledProblem) -> ThresholdPolicy:
    """Invert the index: the optimal threshold is the smallest h with
    W(h) > C, or NEVER when the whole index sequence stays at or below C.

    A zero charge trivially means always activate. Before returning, the
    two-sided optimality condition on the threshold is re-checked directly
    (a failure would be an internal bug, not bad input).
    """
    return _invert(prob.cost, prob.p, [prob.charge])[0]


def _invert(f: CostFunction, p: float, charges) -> list:
    """Optimal thresholds at each charge, searched in one index row W(1..n)
    that is built once and doubled from n = 32 while no entry exceeds the
    charge. Bounded costs stop at their plateau start + 1, past which W is
    flat. Other rows stop first one age below max_representable_age (W(h)
    needs f(h+1)); only a charge that row cannot reach extends it further,
    and so raises CostRangeError."""
    sup = _index_supremum(f, p)
    h_stop = f.plateau_start + 1 if f.is_bounded_function else None
    cap = costmod.max_representable_age(f)
    row = np.empty(0)
    out = []
    for C in charges:
        if C == 0.0:
            out.append(ThresholdPolicy(1))
            continue
        if C >= sup:
            out.append(ThresholdPolicy(NEVER))
            continue
        # the first entry above C, not a bisection: a row that dips by an ulp
        # still inverts as a scan from age 1 would
        above = np.flatnonzero(row > C)
        while not above.size and (h_stop is None or len(row) < h_stop):
            n = 2 * len(row) or 32
            if h_stop is not None:
                n = min(n, h_stop)
            elif cap is not None and len(row) < cap - 1:
                n = min(n, cap - 1)
            row = np.concatenate((row, whittle_index(f, p, np.arange(len(row) + 1, n + 1))))
            above = np.flatnonzero(row > C)
        if not above.size:
            out.append(ThresholdPolicy(NEVER))
            continue
        h = int(above[0]) + 1
        _verify_threshold_condition(f, p, C, h)
        out.append(ThresholdPolicy(h))
    return out


def _verify_threshold_condition(f, p, C, H, slack=1e-9):
    """Re-check the two-sided optimality condition at the returned H."""
    if p == 1.0:
        lam = (prefix_sum(f, H) + C) / H
        lo, hi = costmod.evaluate(f, H), costmod.evaluate(f, H + 1)
        tol = slack * max(1.0, abs(lam))
        ok = lo <= lam + tol and lam <= hi + tol
    else:
        # lower arm of the interval is W(H-1), upper is W(H), both in
        # Definition form; W(0) = 0
        lower = whittle_unreliable(f, p, H - 1) if H > 1 else 0.0
        upper = whittle_unreliable(f, p, H)
        tol = slack * max(1.0, abs(C))
        ok = lower <= C + tol and C <= upper + tol
    if not ok:
        raise ConsistencyError(
            f"threshold {H} fails its two-sided optimality condition at C={C} (internal bug)"
        )


def indexability_sweep(f: CostFunction, p: float, charges) -> list:
    """Optimal thresholds for a strictly increasing sequence of charges,
    searched in one index row that grows with the charges.

    Indexability makes the result non-decreasing, with NEVER ordered above
    every finite threshold; that property is the caller's to assert.
    """
    charges = list(charges)
    if any(c < 0 for c in charges):
        raise DomainError("charges must be non-negative")
    if any(b <= a for a, b in zip(charges, charges[1:])):
        raise DomainError("charges must be strictly increasing")
    if charges:
        DecoupledProblem(f, p)  # validates p and the bounded-cost condition
    return _invert(f, p, charges)


# -- closed-form average cost of a threshold policy --------------------------


def threshold_policy_average_cost(
    f: CostFunction, p: float, H: int, charge: float, tol: float = 1e-12
) -> float:
    """Exact long-run average cost (age cost plus charges) of the policy
    "activate iff h >= H" on the decoupled problem.

        p = 1:  (sum f(1..H) + C) / H
        p < 1:  (p (sum f(1..H) + sum_{k>=1} f(k+H)(1-p)^k) + C) / (1 + p(H-1))
    """
    if H < 1 or int(H) != H:
        raise DomainError("H must be a positive integer")
    H = int(H)
    if p == 1.0:
        return (prefix_sum(f, H) + charge) / H
    tail = (1.0 - p) * discounted_tail(f, p, H, tol=tol)
    return (p * (prefix_sum(f, H) + tail) + charge) / (1.0 + p * (H - 1))


# -- value-iteration oracle --------------------------------------------------


def default_a_max(prob: DecoupledProblem, minimum: int = 256, factor: int = 64) -> int:
    """Truncation large enough that clamping is inert: a comfortable multiple
    of the index-inversion threshold estimate.

    Exponential costs get a much tighter box instead. Their differential
    costs blow up geometrically with age, and once they pass the resolution
    of float64 the span iteration cannot settle (a 256-state box for a
    base-2.5 cost holds values near 1e99, where whole-number charges vanish
    below the rounding quantum). Ages beyond the threshold are reached only
    by failure streaks, so a margin of ~36/|ln(1-p)| slots keeps the clamp
    distortion below the float floor anyway.
    """
    guess = optimal_threshold(prob)
    if guess.is_never:
        return minimum
    H = guess.threshold
    if prob.cost.kind != "exponential":
        # iteration count grows with the box, so the 64x headroom tapers to
        # 4x + constant once thresholds get large; the solver re-runs with a
        # doubled box anyway whenever the greedy threshold crowds the cap
        return max(minimum, min(factor * H, 4 * H + 256))
    if prob.p < 1.0:
        margin = int(math.ceil(36.0 / abs(math.log(1.0 - prob.p))))
    else:
        margin = 16
    scale_age = int(
        (math.log(1e9) - math.log(prob.cost.weight)) / math.log(prob.cost.base)
    )
    return max(H + 16, min(H + margin, max(scale_age, H + 16)))


def decoupled_value_iteration(
    prob: DecoupledProblem,
    a_max: int | None = None,
    tol: float = 1e-9,
    max_iters: int = 10**6,
    damping: float = 0.5,
) -> DecoupledSolution:
    """Relative value iteration on the age chain truncated at a_max.

    Ages clamp at a_max (state a_max transitions to itself when not reset).
    Iterates the damped Bellman operator until the span of successive
    differential-cost updates falls below tol; the damping makes the
    underlying periodic reset cycle aperiodic so the span converges. The
    greedy policy is checked to be a threshold policy before returning, and
    the whole solve is re-run with a doubled a_max whenever the greedy
    threshold lands within 10% of the truncation.
    """
    if tol <= 0 or max_iters < 1:
        raise DomainError("tol and max_iters must be positive")
    if not 0 < damping < 1:
        raise DomainError("damping must be in (0, 1)")
    if a_max is None:
        a_max = default_a_max(prob)
    if a_max < 2:
        raise DomainError("a_max must be at least 2")

    f, p, C = prob.cost, prob.p, prob.charge
    for _attempt in range(12):
        sol = _rvi_once(f, p, C, int(a_max), tol, max_iters, damping)
        thr = sol.policy.threshold
        if thr is NEVER or thr < 0.9 * a_max:
            return sol
        a_max = 2 * a_max
    raise ConvergenceError(
        f"greedy threshold kept chasing the truncation up to a_max={a_max}"
    )


def _rvi_once(f, p, C, a_max, tol, max_iters, tau):
    ages = np.arange(1, a_max + 1)
    stage = costmod.evaluate(f, ages)
    # the span cannot settle below the float64 quantum of the largest values
    # on the box; widen the target to that floor when it exceeds tol
    float_floor = 32 * np.finfo(float).eps * float(np.max(stage))
    tol = max(tol, float_floor)
    nxt = np.minimum(np.arange(1, a_max + 1), a_max - 1)  # 0-based successor
    V = np.zeros(a_max)
    span = math.inf
    for it in range(1, max_iters + 1):
        Vn = V[nxt]
        q_pass = stage + Vn
        q_act = stage + C + (1.0 - p) * Vn + p * V[0]
        T = np.minimum(q_pass, q_act)
        damped = (1.0 - tau) * V + tau * T
        delta = damped - V
        span = float(delta.max() - delta.min())
        V = damped - damped[0]
        if span < tol * tau:
            lam = float((delta.max() + delta.min()) / (2.0 * tau))
            slack = max(1e-8, 16.0 * tol)
            policy = _greedy_threshold(q_pass, q_act, lam, slack=slack)
            _check_monotone(V, slack=slack)
            return DecoupledSolution(policy, lam, V, a_max, it)
    raise ConvergenceError(
        f"value iteration did not converge within {max_iters} iterations", span=span
    )


def _greedy_threshold(q_pass, q_act, lam, slack=1e-8):
    """Greedy actions from converged Q values, checked for threshold shape."""
    activate = q_act < q_pass
    if not activate.any():
        return ThresholdPolicy(NEVER)
    first = int(np.argmax(activate)) + 1
    rest = ~activate[first - 1 :]
    if rest.any():
        # passive states above the threshold are only acceptable at numeric
        # indifference
        gaps = (q_act - q_pass)[first - 1 :][rest]
        if float(np.max(np.abs(gaps))) > slack * max(1.0, abs(lam)):
            raise ConsistencyError(
                f"greedy policy is not of threshold type above h={first} (internal bug)"
            )
    return ThresholdPolicy(first)


def _check_monotone(S, slack=1e-8):
    drops = np.diff(S)
    if drops.size and float(drops.min()) < -max(slack, 1e-7) * max(1.0, float(np.abs(S).max())):
        raise ConsistencyError("differential costs are not non-decreasing (internal bug)")
