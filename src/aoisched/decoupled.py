"""Single-arm decoupled problem: one source, an activation charge C per pull.

The arm's state is its age h >= 1. Resting lets the age grow by one; pulling
resets it to 1 with the channel success probability p (and costs C either
way). The optimal policy is a threshold policy "activate iff h >= H", and the
index of state h is the infimum charge at which activating and resting are
equally desirable there:

    W(h) = p^2 h sum_{k>=1} f(k+h)(1-p)^{k-1} - p sum_{j<=h} f(j)

On a reliable channel (p = 1) the series keeps only its first term f(h+1),
so W(h) = h f(h+1) - sum_{j<=h} f(j). W is non-decreasing in h, which is
exactly the indexability property: the set of ages where pulling is optimal
shrinks monotonically as C grows. This module computes the indices, inverts
them into optimal thresholds, and checks everything against an independent
relative-value-iteration solver.

`whittle_index(f, p, h)` is the one entry point for both channel kinds,
at one age or any array of ages: one cumsum of prefix sums and one
vectorised pass of the series (`_discounted_tails`, whose p = 1 case is its
first term). Each age gets the same bits whatever the other ages are, so a
single index is a row of one age. A threshold is the first age of such a
row, built once and doubled as needed, whose index exceeds the charge, so
W(H-1) <= C < W(H) holds for the indices `whittle_index` gives one at a time.

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
from .cost import CostFunction, prefix_array, prefix_sum
from .errors import (
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    CostRangeError,
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
        if self.threshold is not NEVER:
            object.__setattr__(self, "threshold", costmod.validate_count("threshold", self.threshold))

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
        costmod.require_bounded(self.cost, self.p)
        costmod.validate_charge(self.charge)


@dataclass(frozen=True)
class DecoupledSolution:
    """Output of the value-iteration solver on the truncated chain."""

    policy: ThresholdPolicy
    average_cost: float
    differential_costs: np.ndarray  # S(1..a_max), normalized S(1) = 0
    a_max: int
    iterations: int


# -- whittle indices ---------------------------------------------------------


def _one_age(h) -> int:
    """h as an int, or DomainError unless it is a single positive integer."""
    if np.ndim(h) != 0:
        raise DomainError(f"h must be a single age, got {h!r}")
    return int(costmod.positive_ages(h, "h"))


def discounted_tail(f: CostFunction, p: float, h: int, tol: float = 1e-12) -> float:
    """sum_{k>=1} f(k+h) (1-p)^{k-1}, summed until the geometric tail bound on
    the remainder drops below tol * max(1, partial sum); one age of
    _discounted_tails.
    """
    costmod.validate_tolerance(tol)
    costmod.require_bounded(f, p)
    return float(_discounted_tails(f, p, np.array([_one_age(h)]), tol)[0])


# terms gathered at once per chunk of ages; more makes tolist() cost memory
_CHUNK_TERMS = 4096


def _discounted_tails(f: CostFunction, p: float, ages: np.ndarray, tol: float) -> np.ndarray:
    """discounted_tail at each age of a 1-d array, in one pass; at p = 1
    the series is its first term f(h+1).

    The bound needs an upper bound r < 1 on the term ratio f(x+1)(1-p)/f(x);
    the per-variant growth bound supplies it, and is inf (no stop yet) below
    a logarithmic cost's age 2 and a bounded cost's plateau. Each age gets
    the same float operations whatever the other ages are: blocks of terms
    evaluate(f, k+h) * q**(k-1), one fsum per block (exact, so the order of
    the terms does not matter) and the stopping test after each block. Only
    the evaluations are gathered across ages, at most _CHUNK_TERMS terms at
    a time.
    """
    if p == 1.0:
        return costmod.evaluate(f, ages + 1)
    q = 1.0 - p
    if f.kind == "exponential":
        return _geometric_tails(costmod.evaluate(f, ages + 1), f.base * q, tol)
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
                r = f.growth_ratio_bound(x) * q
                if r < 1:
                    tail = terms[j, -1] * r / (1.0 - r)
                    done[c + j] = tail <= tol * max(1.0, abs(totals[idx[j]]))
        live = live[~done]
        block = min(2 * block, 4096)
    return totals


def _geometric_tails(term: np.ndarray, r: float, tol: float) -> np.ndarray:
    """Exponential tails from each age's first term (updated in place): the
    terms are exactly geometric with ratio r < 1.

    Generating them recursively keeps every intermediate bounded even when
    b**(h+k) itself would not be representable. Each age runs
    `total += term; term *= r` until term / (1 - r) <= tol * max(1, total),
    a block of steps at a time: cumprod and cumsum accumulate in sequence,
    so they give the same bits as the loop. Almost every age stops within
    log(tol) / log(r) steps, which sizes the block.
    """
    block = min(_CHUNK_TERMS, max(1, int(math.log(tol) / math.log(r)) + 2))
    rows = max(1, _CHUNK_TERMS // block)
    total = np.zeros(len(term))
    out = np.empty(len(term))
    live = np.arange(len(term))
    while live.size:
        done = np.zeros(live.size, dtype=bool)
        for c in range(0, live.size, rows):
            idx = live[c : c + rows]
            # terms[:, j] is the term added at step j, terms[:, -1] the next
            terms = np.cumprod(np.column_stack((term[idx], np.full((len(idx), block), r))), axis=1)
            sums = np.cumsum(np.column_stack((total[idx], terms[:, :-1])), axis=1)[:, 1:]
            stop = terms[:, 1:] / (1.0 - r) <= tol * np.maximum(1.0, np.abs(sums))
            hit = stop.any(axis=1)
            j = stop.argmax(axis=1)
            out[idx[hit]] = sums[hit, j[hit]]
            total[idx], term[idx] = sums[:, -1], terms[:, -1]
            done[c : c + len(idx)] = hit
        live = live[~done]
    return out


def whittle_index(f: CostFunction, p: float, h, tol: float = 1e-10):
    """Index for either channel kind: a float for a 0-d age, else an array
    of the ages' indices in the ages' shape.

    The ages are computed as one flat row: the tails from one vectorised
    pass of the series (at p = 1 its first term f(h+1)), each with the bits
    it has alone, and the prefix sums from one cumsum.
    """
    costmod.validate_tolerance(tol)
    costmod.require_bounded(f, p)
    ages = costmod.positive_ages(h, "h")
    hs = ages.reshape(-1).astype(np.int64)
    if not hs.size:
        return np.empty(ages.shape)
    # cumsum runs left to right, so each entry equals prefix_array(f, h)[-1]
    pref = prefix_array(f, int(hs.max()))[hs - 1]
    out = p * p * hs * _discounted_tails(f, p, hs, tol) - p * pref
    return float(out[0]) if ages.ndim == 0 else out.reshape(ages.shape)


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

    A zero charge trivially means always activate.
    """
    return _invert(prob.cost, prob.p, [prob.charge])[0]


# ages the threshold search's index row may hold: 128 MiB of floats, though
# building its last doubling peaks near 630 MB (linear cost, p = 1)
MAX_INDEX_ROW = 1 << 24
# a row about to pass this many ages first bounds W(MAX_INDEX_ROW), a cost
# of under a millisecond that rows this short never pay
_REACH_CHECK_ROW = 1 << 16


def _invert(f: CostFunction, p: float, charges) -> list:
    """Optimal thresholds at each charge, searched in one index row W(1..n)
    that is built once and doubled from n = 32 while no entry exceeds the
    charge, up to its last age: the plateau start + 1 for a bounded cost (W
    is flat past it), else one age below max_representable_age (W(h) needs
    f(h+1)), and at most MAX_INDEX_ROW. A charge no entry exceeds gives
    NEVER on a bounded cost whose row is whole. Otherwise it raises
    CapacityError when MAX_INDEX_ROW stopped the row, or at once when the
    charge passes an upper bound on W(MAX_INDEX_ROW), and CostRangeError
    when the cost stopped it."""
    sup = _index_supremum(f, p)
    bounded = f.is_bounded_function
    last = f.plateau_start + 1 if bounded else costmod.max_representable_age(f) - 1
    stop = min(last, MAX_INDEX_ROW)
    # a whole row of a bounded cost holds every index up to W's plateau
    whole = bounded and stop == last
    # bound on W(MAX_INDEX_ROW), None until computed; inf for rows that stop short
    reach = None if stop == MAX_INDEX_ROW and not bounded else math.inf
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
        while not above.size and len(row) < stop:
            n = min(2 * len(row) or 32, stop)
            if reach is None and n > _REACH_CHECK_ROW:
                # W is non-decreasing, and W(h) <= p^2 h tail(h) (h f(h+1) at p = 1)
                # since its prefix term is non-negative; an overflowing tail bounds nothing
                try:
                    reach = p * p * MAX_INDEX_ROW * discounted_tail(f, p, MAX_INDEX_ROW)
                except CostRangeError:
                    reach = math.inf
            if reach is not None and reach <= C:
                break
            row = np.concatenate((row, whittle_index(f, p, np.arange(len(row) + 1, n + 1))))
            above = np.flatnonzero(row > C)
        if not above.size and not whole:
            if stop == MAX_INDEX_ROW:
                raise CapacityError(
                    f"no index up to age {MAX_INDEX_ROW} exceeds the charge {C};"
                    f" the threshold search stops at MAX_INDEX_ROW = {MAX_INDEX_ROW} ages"
                )
            raise CostRangeError(
                f"no index up to age {last} exceeds the charge {C}; the index at"
                f" age {last + 1} needs the {f.kind} cost past its last representable age"
            )
        out.append(ThresholdPolicy(int(above[0]) + 1 if above.size else NEVER))
    return out


def indexability_sweep(f: CostFunction, p: float, charges) -> list:
    """Optimal thresholds for a strictly increasing sequence of charges,
    searched in one index row that grows with the charges.

    Indexability makes the result non-decreasing, with NEVER ordered above
    every finite threshold; that property is the caller's to assert.
    """
    charges = [costmod.validate_charge(c, "charges") for c in charges]
    if any(b <= a for a, b in zip(charges, charges[1:])):
        raise DomainError("charges must be strictly increasing")
    DecoupledProblem(f, p)  # validates p and the bounded-cost condition
    return _invert(f, p, charges) if charges else []


# -- closed-form average cost of a threshold policy --------------------------


def threshold_policy_average_cost(
    f: CostFunction, p: float, H: int, charge: float, tol: float = 1e-12
) -> float:
    """Exact long-run average cost (age cost plus charges) of the policy
    "activate iff h >= H" on the decoupled problem:

        (p (sum f(1..H) + sum_{k>=1} f(k+H)(1-p)^k) + C) / (1 + p(H-1)),

    which at p = 1 is (sum f(1..H) + C) / H.
    """
    costmod.validate_probability(p)
    H = costmod.validate_count("H", H)
    costmod.validate_charge(charge)
    costmod.validate_tolerance(tol)
    # the p = 1 tail is (1 - p) f(H+1) = 0, so f(H+1) is never evaluated
    tail = 0.0 if p == 1.0 else (1.0 - p) * discounted_tail(f, p, H, tol=tol)
    return (p * (prefix_sum(f, H) + tail) + charge) / (1.0 + p * (H - 1))


# -- value-iteration oracle --------------------------------------------------


RVI_MIN_A_MAX = 256  # the smallest RVI box
RVI_A_MAX_FACTOR = 64  # RVI box per unit of the threshold estimate
RVI_DAMPING = 0.5  # weight of the new Bellman iterate in each RVI step
RVI_MAX_ITERS = 10**6  # RVI steps on one box before ConvergenceError


def default_a_max(prob: DecoupledProblem) -> int:
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
        return RVI_MIN_A_MAX
    H = guess.threshold
    if prob.cost.kind != "exponential":
        # iteration count grows with the box, so the 64x headroom tapers to
        # 4x + constant once thresholds get large; the solver re-runs with a
        # doubled box anyway whenever the greedy threshold crowds the cap
        return max(RVI_MIN_A_MAX, min(RVI_A_MAX_FACTOR * H, 4 * H + 256))
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
) -> DecoupledSolution:
    """Relative value iteration on the age chain truncated at a_max.

    Ages clamp at a_max (state a_max transitions to itself when not reset).
    Iterates the Bellman operator damped by RVI_DAMPING until the span of
    successive differential-cost updates falls below tol, within
    RVI_MAX_ITERS steps or ConvergenceError; the damping makes the
    underlying periodic reset cycle aperiodic so the span converges. The
    greedy policy is checked to be a threshold policy before returning, and
    the whole solve is re-run with a doubled a_max whenever the greedy
    threshold lands within 10% of the truncation, or is NEVER on a box that
    may hide the cost's growth: a NEVER stands only for an infinite charge
    or a bounded cost whose box reaches its plateau start.
    """
    costmod.validate_tolerance(tol)
    a_max = costmod.validate_count("a_max", default_a_max(prob) if a_max is None else a_max, 2)

    f, p, C = prob.cost, prob.p, prob.charge
    for _attempt in range(12):
        sol = _rvi_once(f, p, C, a_max, tol, RVI_DAMPING)
        thr = sol.policy.threshold
        if thr is NEVER:
            if C == math.inf or (f.is_bounded_function and a_max >= f.plateau_start):
                return sol
        elif thr < 0.9 * a_max:
            return sol
        a_max = 2 * a_max
    raise ConvergenceError(
        f"greedy threshold kept chasing the truncation up to a_max={a_max}"
    )


def _rvi_once(f, p, C, a_max, tol, tau):
    """Damped relative value iteration on ages 1..a_max, clamped at a_max.

    Each step forms, at every age h (h + 1 read as a_max at the cap),

        q_pass = f(h) + V(h+1)
        q_act  = f(h) + C + (1 - p) V(h+1) + p V(1)
        V'     = (1 - tau) V + tau min(q_pass, q_act)

    renormalises V' - V'(1), and stops once the span of V' - V is below
    tol * tau, with the span's midpoint over tau as the average cost. These
    float operations and their order, left to right as written, are the
    contract: `_reference_rvi` in the tests is the loop that allocated every
    term, and this one must give its policy, average cost, differential
    costs, iteration count and error bit for bit. Each solve allocates its
    buffers once: V lives in one entry more than the box, whose last entry
    repeats V(a_max), so V(h+1) is the view `ext[1:]`, and every term is
    written into its own buffer.
    """
    ages = np.arange(1, a_max + 1)
    stage = costmod.evaluate(f, ages)
    # the span cannot settle below the float64 quantum of the largest values
    # on the box; widen the target to that floor when it exceeds tol
    float_floor = 32 * np.finfo(float).eps * float(np.max(stage))
    tol = max(tol, float_floor)
    stage_c = stage + C
    ext = np.zeros(a_max + 1)  # V, then V(a_max) again
    V, Vn = ext[:-1], ext[1:]
    q_pass, q_act, T, damped, delta = (np.empty(a_max) for _ in range(5))
    fail, keep, target = 1.0 - p, 1.0 - tau, tol * tau
    # a step is about ten calls on short arrays, so their dispatch is its
    # cost: the ufuncs are local names and each output is the positional `out`
    add, subtract, multiply, minimum = np.add, np.subtract, np.multiply, np.minimum
    top, bottom = np.maximum.reduce, np.minimum.reduce
    for it in range(1, RVI_MAX_ITERS + 1):
        add(stage, Vn, q_pass)
        multiply(fail, Vn, q_act)
        add(stage_c, q_act, q_act)
        add(q_act, p * V[0], q_act)
        minimum(q_pass, q_act, out=T)  # a third positional operand is deprecated here
        multiply(keep, V, damped)
        multiply(tau, T, T)
        add(damped, T, damped)
        subtract(damped, V, delta)
        subtract(damped, damped[0], V)
        ext[-1] = V[-1]
        # the span is at least the gap between any two entries of delta (the
        # rounded difference is monotone), so a gap that reaches the target
        # settles the stop test without the span's two reductions
        if abs(delta[0] - delta[-1]) >= target:
            continue
        hi, lo = top(delta), bottom(delta)
        if float(hi - lo) < target:
            lam = float((hi + lo) / (2.0 * tau))
            slack = max(1e-8, 16.0 * tol)
            policy = _greedy_threshold(q_pass, q_act, lam, slack=slack)
            _check_monotone(V, slack=slack)
            return DecoupledSolution(policy, lam, V, a_max, it)
    span = float(top(delta) - bottom(delta)) if RVI_MAX_ITERS > 0 else math.inf
    raise ConvergenceError(
        f"value iteration did not converge within {RVI_MAX_ITERS} iterations (span {span!r})"
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
