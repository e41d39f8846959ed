"""Finite-horizon dynamic programming over a truncated age box, with a
certified interval for the unclamped optimum.

States are age vectors with every coordinate clamped to [1, a_max]; a clamped
coordinate self-absorbs on non-service (min(A+1, a_max)). Backward induction
charges the stage cost on the pre-action state of each slot, so the solution
value is the exact expected total cost of the first `horizon` slots for the
clamped box, and the reported optimal average is that total divided by the
horizon.

The box value L is a lower bound on the optimum of the unclamped problem:
clamping only lowers ages, and by pathwise coupling (same actions, same
channel draws) the unclamped value is non-decreasing in every age. The upper
bound U is the exact expected cost, on the unclamped problem, of a policy
that follows the box's greedy actions until a path first touches the cap and
then switches to a fixed schedule (the cheapest of a few weighted round
robins). Up to that moment box and true ages coincide; after it each
source's age evolves on its own, so the fallback cost is a sum of
one-dimensional age chains. When no mass touches the cap, U = L exactly.

A forward pass under the computed policy measures how much probability mass
ever touches a clamped coordinate; that truncation report is the audit trail
for the box size and carries the mass the upper bound follows.

Both passes read successors as slices of the age box, not through gathered
index arrays, and both read one buffer and write the other: the backward
pass reads the values of the stage after from one and writes the stage's
own into the other, the forward audit likewise with the distributions of
two slots. The backward pass keeps its values in buffers one entry longer
on every axis, the extra entry repeating the cap, and picks actions by a
running compare-select that keeps ties at the lowest source index. It
walks each stage in slabs of axis-0 rows of about `SLAB_STATES` states,
each with its own cache-sized buffers. A box of up to `SLAB_STATES`
states (each bundled reliable box, E2's at a_max 15, and A2's to C2's at
30 and 60) is one slab and runs the same sequence. The forward pass moves
all failure mass with one shifted slice and zeroes the cap face by face.

Both passes split each stage into the same contiguous groups of axis-0
rows, one per CPU the process may use, that run at once on threads (see
`_row_groups`). Since no group reads what another writes in the same
stage, the backward pass runs each group's slabs in any order. The forward
audit runs each group's source rows: a group writes the target rows one
above its own and keeps apart the success mass its states send to row 0,
which source-0 successes reach from every row; the calling thread adds
those parts group by group, in ascending order. A box of one slab runs one
group in each pass and starts no thread. The thread count follows the
usable CPUs, has no setting, and does not change the bits.

The greedy actions are stored by content: a stage refers to the stage
after it when their tables are equal, and otherwise to an earlier stored
table of equal content if there is one, so `actions[t]` reads every stage
and equal tables anywhere in the horizon share one array object. Lossy
policies settle far from the horizon (E2 at a_max 30 has 56 runs in 500
stages and 50 distinct tables). Reliable tables can oscillate with the
reset cycle at tie states, changing at every stage among a few contents:
B1 and C1 (a_max 30) store 3 tables, D1 (a_max 20) 13, and E1 and F1
(a_max 15) 39 and 64. Either way a solve holds a few dozen tables, not one
per stage.

On lossy or mixed channels the forward audit scatters success mass
through a cached index of the carrying states that it rebuilds only when
the stage table or the support outgrows it (see `_forward_truncation_pass`).
On reliable channels the state distribution is a single point, so the
audit walks the one path that point takes, the realized trajectory, with
the dense pass's bits (see `_reliable_audit`). The solution keeps stage
1's table and that trajectory, whose first repeated (state, action) pair
that the trajectory goes on to repeat closes the extracted cycle.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cost as costmod
from .errors import CapacityError, CostRangeError, DomainError, NonCyclicError
from .policies import SystemSpec, validate_ages
from .sim import _first_cycle, _reliable_path

TRUNCATION_WARN_LEVEL = 1e-6
DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes
SLAB_STATES = 1 << 16  # states per backward-pass slab: two axis-0 rows at E2's a_max 30


def default_a_max(n_sources: int) -> int:
    """Box size defaults: generous for small N, tighter as the state count
    explodes; the truncation report audits the choice either way."""
    if n_sources <= 2:
        return 30
    if n_sources == 3:
        return 20
    return 15


@dataclass(frozen=True)
class TruncatedBox:
    """Per-source age cap and source count; state count is a_max ** N."""

    a_max: int
    n_sources: int

    def __post_init__(self):
        costmod.validate_count("a_max", self.a_max, 2)
        costmod.validate_count("n_sources", self.n_sources)

    @property
    def shape(self) -> tuple:
        return (self.a_max,) * self.n_sources

    @property
    def state_count(self) -> int:
        return self.a_max**self.n_sources

    def contains(self, ages) -> bool:
        """Whether `ages` is a vector of `n_sources` integer ages in [1, a_max]."""
        arr = np.asarray(ages)
        if arr.shape != (self.n_sources,) or arr.dtype.kind not in "iu":
            return False
        return bool(np.all(arr >= 1) and np.all(arr <= self.a_max))

    @property
    def strides(self) -> tuple:
        """Flat-index step of each source's age, in C order."""
        return tuple(self.a_max ** (self.n_sources - 1 - i) for i in range(self.n_sources))

    def state_index(self, ages) -> int:
        """Flat C-order index of an age vector in the box; DomainError for
        any other vector."""
        if not self.contains(ages):
            raise DomainError(
                f"ages {np.asarray(ages).tolist()} are not {self.n_sources} integer ages "
                f"in [1, {self.a_max}]"
            )
        return int(np.ravel_multi_index(tuple(np.asarray(ages) - 1), self.shape))


@dataclass
class DpSolution:
    """Optimal cost plus the stage-1 greedy policy and the truncation audit.

    `optimal_average_cost` is the box value L, a lower bound on the
    unclamped optimum; `upper_bound` is U (see the module docstring), so the
    optimum lies in [L, U].

    For reliable specs the solution also records the realized trajectory of
    the time-varying optimal policy, which is what cycle extraction uses: at
    exact-tie states the per-stage greedy tables can oscillate with the
    period of the underlying reset cycle, so freezing any single stage table
    into a stationary policy may realize a strictly worse cycle. Its
    (ages, action) pairs hold the true, unclamped ages; a state past the box
    reads its action at the state with every age clamped to a_max. The same
    path gives the truncation report and `stage_costs`: the report is 1.0 if
    the path reaches an age of a_max by slot `horizon`, else 0.0, and each
    slot from that one on costs 0.0.
    """

    optimal_average_cost: float
    horizon: int
    initial_state: tuple
    spec: SystemSpec  # the system solved, which `action` and cycle extraction read
    box: TruncatedBox
    stage1_actions: np.ndarray  # int8 greedy action per state at stage 1, read-only
    truncation_report: float
    stage_costs: np.ndarray  # expected pre-action cost per slot under the policy
    upper_bound: float  # exact average cost of the box policy with a fixed-schedule fallback
    warnings: tuple = ()
    trajectory: Optional[tuple] = field(default=None, repr=False)

    def action(self, ages) -> int:
        """Stage-1 greedy action at an in-box age vector."""
        return int(self.stage1_actions[self.box.state_index(validate_ages(self.spec, ages))])


def _estimate_bytes(box: TruncatedBox, horizon: int) -> int:
    """Upper estimate of the peak bytes one solve allocates: what is held
    across the solve plus the largest working set of its three phases.

    It charges one stored table per stage, the true worst case: tables are
    shared only when their contents repeat, and a policy can take a new
    content at every stage. The bundled settings store 3 to 64 tables in
    500 stages, but that count is known only after the backward pass, so a
    smaller charge could admit a box whose policy keeps changing and then
    overrun the budget mid-solve. The full charge is also what stops
    `finite_horizon_dp_auto` at E2's a_max 30: a_max 60 exceeds the
    default budget.

    The backward pass's second value buffer is charged in full. Its other
    working buffers span one slab of axis-0 rows, not the box (see
    `_backward_pass`), so they are charged per slab for each of the
    `_groups` slab groups, with each group's success-term temporary and the
    box-sized compare of a stage with the stored table. The forward audit's
    cached indexes are charged at every below-cap state, since the support
    they cover can be any set of them: its groups index disjoint source
    rows, so their indexes, each group's row-0 part included, together
    cover each state at most once whatever the group count (see
    `_forward_truncation_pass`). That phase leads on every box large enough
    to be refused.
    """
    m, n, a_max = box.state_count, box.n_sources, box.a_max
    below = (a_max - 1) ** n  # states that can carry mass in the forward pass
    cap = m - below
    held = m * (horizon + 1)  # int8 action per state and stage; the spare stage buffer
    held += 8 * (m + (a_max + 1) ** n)  # stage cost; values with a repeated top face
    held += 8 * horizon * (n * a_max + 1)  # cap-entry marginals, per-slot costs
    held += 200 * horizon + (1 << 18)  # realized trajectory; ufunc buffers, objects
    # the buffer the stages alternate with; each group's best, q, failure
    # copy and compare mask over one slab, and its success term of at most
    # one row; the stage compare
    row = m // a_max
    groups = _groups(box)
    backward = 8 * (a_max + 1) ** n + groups * (25 * _slab_rows(box) * row + 8 * row) + m
    # distributions, failure factors, the cap mask and the two support
    # masks; cap indices and ages, per-source orders, the siphoned mass of
    # two slots and one in a source's age order; the cached indexes over at
    # most every below-cap state (state, action, success target and
    # probability, gathered mass, or a rebuild's ages)
    forward = 27 * m + 8 * (2 * n + 4) * cap + 33 * below
    cycles = len(_weighted_round_robins(n))
    # age chains, two sources' worth at a swap, and a slot's product and
    # contiguous copy; one cost row
    fallback = 8 * (4 * cycles + 1) * (horizon + a_max)
    return held + max(backward, forward, fallback)


def finite_horizon_dp(
    spec: SystemSpec,
    horizon: int,
    a_max: Optional[int] = None,
    initial=None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> DpSolution:
    """Backward induction over `horizon` slots from `initial` (all ones by
    default) in the box of per-source age cap `a_max` (`default_a_max` of
    the source count by default); `horizon` and `memory_budget` must be
    integers >= 1 and `a_max` one >= 2, else DomainError. The value is exact
    for the clamped box and a lower bound L on the unclamped optimum;
    `upper_bound` is the exact cost U of the box policy with its
    fixed-schedule fallback at the cap, so the unclamped optimum lies in
    [L, U] (U = L when the truncation report is 0). Raises
    CapacityError before allocating anything if the memory estimate exceeds
    `memory_budget`; attaches a warning to the solution when the truncation
    report exceeds 1e-6.
    """
    horizon = costmod.validate_count("horizon", horizon)
    costmod.validate_count("memory_budget", memory_budget)
    n = spec.n_sources
    box = TruncatedBox(default_a_max(n) if a_max is None else a_max, n)
    if initial is None:
        initial = (1,) * n
    initial = tuple(int(a) for a in validate_ages(spec, initial))
    if not box.contains(initial):
        raise DomainError(f"initial state {initial} outside the box")

    need = _estimate_bytes(box, horizon)
    if need > memory_budget:
        raise CapacityError(
            f"DP estimate {need:,} bytes exceeds the memory budget of {memory_budget:,} "
            f"bytes for a_max {box.a_max} and {n} sources"
        )

    stage_cost = _stage_cost(spec, box)
    probs = spec.probabilities
    V, actions = _backward_pass(box, probs, stage_cost, horizon)
    total = float(V[tuple(a - 1 for a in initial)])

    trajectory = None
    if spec.reliable:
        trajectory, touched, per_stage, entering = _reliable_audit(
            box, actions, stage_cost, initial
        )
    else:
        touched, per_stage, entering = _forward_truncation_pass(
            box, actions, probs, stage_cost, box.state_index(initial)
        )
    lower = total / horizon
    if touched == 0.0:
        upper = lower  # the box policy never clamps: the box value is exact
    else:
        fallback = float(_fallback_totals(spec.sources, entering).min())
        # the max only absorbs rounding when the cap mass is tiny
        upper = max(lower, (float(per_stage.sum()) + fallback) / horizon)

    notes = ()
    if touched > TRUNCATION_WARN_LEVEL:
        msg = (
            f"truncation report {touched:.3g} exceeds {TRUNCATION_WARN_LEVEL:g}; "
            f"consider a larger a_max than {box.a_max}"
        )
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        notes = (msg,)

    return DpSolution(
        optimal_average_cost=lower,
        horizon=horizon,
        initial_state=initial,
        spec=spec,
        box=box,
        stage1_actions=actions[0],
        truncation_report=touched,
        stage_costs=per_stage,
        upper_bound=upper,
        warnings=notes,
        trajectory=trajectory,
    )


def _stage_cost(spec, box) -> np.ndarray:
    """Pre-action cost of every box state, shape box.shape: the sources'
    cost rows broadcast along their axes and summed in source order. A cost
    that overflows inside the box raises CostRangeError naming its source."""
    n = box.n_sources
    total = np.zeros(box.shape)
    for i, s in enumerate(spec.sources):
        along = [1] * n
        along[i] = box.a_max
        try:
            costs = s.cost(np.arange(1, box.a_max + 1))
        except CostRangeError as e:
            raise CostRangeError(f"source {i + 1}: {e}") from None
        total += costs.reshape(along)
    return total


def _axis_slices(n, axis, own, rest) -> tuple:
    """Index of an n-axis array: `own` on `axis`, `rest` on every other."""
    return tuple(own if j == axis else rest for j in range(n))


def _slab_rows(box) -> int:
    """Axis-0 rows per backward-pass slab: as many as fit in SLAB_STATES
    states, at least one and at most the whole box."""
    return min(box.a_max, max(1, SLAB_STATES * box.a_max // box.state_count))


def _groups(box) -> int:
    """How many groups, one thread each, the passes over `box` run: one per
    CPU this process may use, at most one per backward slab, so a box of
    one slab (at most `SLAB_STATES` states) runs one group and starts no
    thread."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, -(-box.a_max // _slab_rows(box)))


def _row_groups(box) -> list:
    """The axis-0 rows [lo, hi) of each group that both passes over `box`
    run, in ascending order: the backward slabs split into `_groups`
    contiguous runs, so every group starts on a slab boundary (more groups
    than slabs leaves one slab a group). The backward pass writes a group's
    rows from values of the stage after, which no group writes; the forward
    audit reads them as source rows, and row 0, which success mass reaches
    from every group, is added group by group after the others finish (see
    `_forward_truncation_pass`)."""
    starts = range(0, box.a_max, _slab_rows(box))
    groups = _groups(box)
    firsts = sorted({starts[len(starts) * g // groups] for g in range(groups)})
    return list(zip(firsts, firsts[1:] + [box.a_max]))


def _faces(n, lo, hi, a_max, at) -> list:
    """Indexes of the faces at entry `at` of an n-axis array's axis-0 rows
    [lo, hi): `at` on each of axes 1 to N - 1 of those rows, then, when
    they end at a_max, `at` on axis 0."""
    faces = [(slice(lo, hi),) + _axis_slices(n - 1, i, at, slice(None)) for i in range(n - 1)]
    if lo < hi == a_max:
        faces.append((at,))
    return faces


def _run_in_groups(tasks, stages, between):
    """Run every stage t of `stages` in groups: each group's task `tasks[g](t)`
    at once, the first on the calling thread and each other on a worker
    thread of its own, with a barrier before and after them; then
    `between(t)` on the calling thread while the workers wait. numpy releases
    the GIL inside the tasks' array operations, so the groups run at once.
    One task starts no thread. Workers live for one call; an exception in
    any group reaches the caller, and no worker outlives the call."""
    barrier = threading.Barrier(len(tasks))
    failed = []

    def serve(task):  # a worker thread: its group once a stage, until the pass ends
        try:
            for t in stages:
                barrier.wait()
                task(t)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the pass ended early, or another group raised
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)
            barrier.abort()

    workers = [threading.Thread(target=serve, args=(task,)) for task in tasks[1:]]
    try:
        for worker in workers:
            worker.start()
        for t in stages:
            if workers:
                barrier.wait()
            tasks[0](t)
            if workers:
                barrier.wait()
            between(t)
    except threading.BrokenBarrierError:
        raise failed[0] from None  # a worker's group raised
    finally:
        barrier.abort()
        for worker in workers:
            if worker.ident is not None:  # started
                worker.join()


def _backward_pass(box, probs, stage_cost, horizon):
    """Stage values and the greedy action table of every stage.

    V lives in the first a_max entries of each axis of an extended buffer
    whose last entry repeats entry a_max - 1 (age a_max + 1 reads as a_max),
    so every successor value is a view: all ages + 1 is the buffer shifted
    by one on every axis, and serving source i reads entry 0 on axis i,
    broadcast along it. q_i = p_i S_i + (1 - p_i) V_fail; the action is
    picked by a running compare-select in which a source replaces the best
    only where strictly cheaper, so ties go to the lowest source index.

    There are two extended buffers: stage t reads the values of stage t + 1
    from one and writes its own into the other, so no part of a stage reads
    what another part writes. A stage walks the box in slabs of
    `_slab_rows` axis-0 rows and runs that sequence on each slab with
    slab-sized buffers, so a slab's working set stays in cache. Slab
    [r0, r1) reads the failure rows r0 + 1 to r1, copied once into a
    contiguous buffer when some source is lossy, and row 0 for source 0's
    success, and writes the values of rows r0 to r1 - 1. Every entry gets
    the same operations as in one whole-box pass, so the bits depend
    neither on the slab size nor on the slab order, and a box of one slab
    runs the same sequence as any other.

    The slabs are split into the `_row_groups` contiguous groups, one per
    usable CPU, run by `_run_in_groups`: the calling thread runs the first
    group and one worker thread each of the others, all within a stage.
    Each group has its own slab buffers and its slab views for either
    direction, and picks the direction by the stage's parity. After its
    slabs it copies the top faces on axes 1 to N - 1 of the rows it wrote;
    the last group then copies the axis-0 face from its finished row
    a_max - 1. Copied axis by axis, each entry ends holding the value of
    its clamped state, as after one whole-box copy. The table store below
    runs on the calling thread with the workers waiting. The thread count
    follows the CPUs the process may use and has no setting, and the bits
    do not depend on it. A box of one slab, or a host with one usable CPU,
    runs one group and starts no thread.

    Each stage's actions are built in one reused buffer. A stage equal to
    the stage after it refers to that stage's table. Otherwise it looks up
    an earlier stored table by the buffer's bytes and refers to that one;
    only a table unseen so far is stored, as a read-only array over the
    bytes of its key, since several stages share it. The lookup runs only
    when a stage differs from the stage after it. Returns the stage-0
    values and a tuple of `horizon` flat tables.
    """
    n, a_max = box.n_sources, box.a_max
    every = slice(1, None)
    top, face = slice(a_max, a_max + 1), slice(a_max - 1, a_max)  # the repeated entry and its source
    exts = (np.zeros((a_max + 1,) * n), np.zeros((a_max + 1,) * n))  # stage t writes exts[t % 2]
    lossy = any(p != 1.0 for p in probs)  # only a lossy source reads the failure values
    buf = np.empty(box.state_count, dtype=np.int8)
    act = buf.reshape(box.shape)
    rows = _slab_rows(box)
    ranges = _row_groups(box)
    work = []  # each group's slabs and top faces for even and for odd stages
    for lo, hi in ranges:
        best = np.empty((rows,) + box.shape[1:])
        q = np.empty_like(best)
        cheaper = np.empty(best.shape, dtype=bool)
        fail_rows = np.empty_like(best) if lossy else None
        sides = []
        for ext, after in (exts, exts[::-1]):  # the buffer written, and the stage after's
            slabs = []
            for r0 in range(lo, hi, rows):
                r1 = min(r0 + rows, hi)
                k, own, nxt = r1 - r0, slice(r0, r1), after[r0 + 1 : r1 + 1]
                succ = [after[_axis_slices(n, 0, slice(0, 1), every)]]
                succ += [nxt[(slice(None),) + _axis_slices(n - 1, i, slice(0, 1), every)] for i in range(n - 1)]
                slabs.append((
                    ext[(own,) + (slice(0, a_max),) * (n - 1)],  # the slab's values
                    nxt[(slice(None),) + (every,) * (n - 1)],  # the slab's failure values,
                    fail_rows[:k] if lossy else None,  # copied here once a stage
                    succ, stage_cost[own], act[own], best[:k], q[:k], cheaper[:k],
                ))
            # the top faces of the group's rows on axes 1 to N - 1; the last
            # group then copies the axis-0 face from the finished row a_max - 1
            pairs = zip(_faces(n, lo, hi, a_max, top), _faces(n, lo, hi, a_max, face))
            sides.append((slabs, [(ext[dst], ext[src]) for dst, src in pairs]))
        work.append(sides)

    def run(sides):  # one group's stage: its slabs, then its rows' top faces
        def task(t):
            slabs, faces = sides[t % 2]
            _run_slabs(slabs, probs, lossy)
            for dst, src in faces:
                dst[...] = src
        return task

    actions = [None] * horizon
    stored = None
    by_content = {}  # a stored table's bytes -> that table, which shares their memory

    def store(t):
        nonlocal stored
        if stored is None or not (buf == stored).all():
            key = buf.tobytes()
            stored = by_content.get(key)
            if stored is None:
                stored = by_content[key] = np.frombuffer(key, np.int8)
        actions[t] = stored

    _run_in_groups([run(sides) for sides in work], range(horizon - 1, -1, -1), store)
    return exts[0][(slice(0, a_max),) * n], tuple(actions)


def _run_slabs(slabs, probs, lossy):
    """One stage over one group's slabs, in any order (see `_backward_pass`)."""
    for value, fail_src, fail, succ, cost_rows, act_s, best_s, q_s, cheaper_s in slabs:
        if lossy:
            np.copyto(fail, fail_src)
        act_s.fill(0)
        for i, p in enumerate(probs):
            if p == 1.0:
                qi = succ[i]  # broadcast view, compared without a copy
            else:
                qi = best_s if i == 0 else q_s
                np.multiply(fail, 1.0 - p, out=qi)
                # source 0's success term spans a row; q_s is free until source 1
                qi += np.multiply(succ[i], p, out=q_s[:1] if i == 0 else None)
            if i == 0:
                if qi is not best_s:
                    best_s[...] = qi
            else:
                np.less(qi, best_s, out=cheaper_s)
                np.copyto(act_s, i, where=cheaper_s)
                np.copyto(best_s, qi, where=cheaper_s)
        np.add(cost_rows, best_s, out=value)


def _forward_truncation_pass(box, actions, probs, stage_cost, s0):
    """Propagate the state distribution under the per-stage greedy actions,
    `actions[t]` for slot t.

    Mass entering a state with any clamped coordinate is siphoned off and
    counted, so the report is the probability of ever touching the cap.
    Also records the expected pre-action stage cost per slot, and the
    per-source age marginals of the siphoned mass by slot, shape
    (horizon, N, a_max): up to that moment box and true ages coincide.

    Only states below the cap carry mass, since the cap is siphoned. On
    failure each moves to its every-age-plus-one state, a fixed flat offset
    (the sum of the strides) away, and no other carrying state lands there,
    so one shifted slice assignment places all failure mass. The slice also
    writes each state with an age of 1: its shifted source has an age a_max
    (the borrow), carries nothing, and leaves the zero that success mass is
    added to. Success targets collect the states that differ only in the
    served age, added by np.add.at in ascending state order.

    The failure factors are gathered once per run of stages: a stage that
    shares the previous stage's table object reuses them.

    Success mass is scattered through a cached index: the indexed states in
    ascending order, each one's success target and success probability,
    moved by one np.add.at. The index is rebuilt when the stage's table is
    a different object or when a carrying state lies outside it; otherwise
    it is a superset of the carrying states, and the result keeps its bits:
    a target has an age of 1 on exactly one axis, so all its mass comes
    from states serving that one source and still arrives in ascending
    state order, and an indexed state whose mass has since become 0 adds
    an exact 0.0. A settled lossy box rebuilds it about twice per run of
    equal stages (E2 at a_max 30 in one group: 117 times in 500 stages).

    Each stage runs in the `_row_groups` groups of contiguous axis-0 source
    rows, through `_run_in_groups`. A carrying state in row r fails into
    row r + 1 and succeeds into row r + 1 too, unless it serves source 0,
    whose success lands in row 0. So every target outside row 0 gets all
    its mass from the one row below it, and group [lo, hi) writes only the
    target rows lo + 1 to hi, the first group the zeros of row 0 as well:
    its own part of the failure-factor gather and of the shifted slice, and
    a cached index of its own source rows, rebuilt by the same rule. Row 0
    gets only source-0 successes, from every row, and np.add.at must still
    add them in ascending state order. So every group keeps the states
    whose success lands in row 0 apart, in a second part of its index, and
    gathers their mass; after the barrier the calling thread adds those
    parts group by group, in ascending group order, and then siphons row 0.
    Every other row is siphoned by the group that writes it, into the
    slot's cap buffer. The cap sum and the per-source `reduceat` of a slot
    read the whole buffer, so they run in the last group during the next
    stage, while that stage fills the other slot's buffer; the report adds
    the per-slot masses in slot order. `d @ cost` stays one whole-vector
    call, on the calling thread, since its bits depend on how BLAS splits
    it. The bits do not depend on the group count, and one group runs the
    same sequence as several, with no thread.

    `finite_horizon_dp` runs this pass for lossy and mixed specs only; a
    reliable spec's audit walks its one path instead (`_reliable_audit`),
    and this pass stays its oracle in the tests.
    """
    n, a_max, m = box.n_sources, box.a_max, box.state_count
    shape = box.shape
    horizon = len(actions)
    row = m // a_max  # states per axis-0 row
    at_cap = np.ones(shape, dtype=bool)
    at_cap[(slice(0, a_max - 1),) * n] = False
    cap_idx = np.flatnonzero(at_cap)
    cap_ages = np.unravel_index(cap_idx, shape)
    # per source: the cap states sorted by that source's age, and where each
    # age's run starts (an age with no cap state, possible only for N = 1,
    # gets an empty run, which reduceat would fill with a stray element)
    runs = []
    for i in range(n):
        ages = cap_ages[i]
        order = np.argsort(ages, kind="stable")
        starts = np.searchsorted(ages[order], np.arange(a_max))
        empty = np.diff(starts, append=cap_idx.size) == 0
        runs.append((order, starts, empty))
    entering = np.zeros((horizon, n, a_max))

    strides = np.array(box.strides)
    shift = int(strides.sum())
    fail_p = 1.0 - probs
    fail_at = np.empty(m - shift)  # 1 - p of the action at each state that can fail
    carrying = np.empty(m - shift, dtype=bool)
    indexed = np.zeros(m - shift, dtype=bool)  # the states the indexes were built from
    cost = stage_cost.reshape(m)
    vecs = (np.zeros(m), np.empty(m))  # the distribution at even and at odd slots
    caps = (np.empty(cap_idx.size), np.empty(cap_idx.size))  # its cap states, likewise
    ordered = np.empty(cap_idx.size)  # a slot's cap states in one source's age order
    masses = [0.0] * (horizon + 1)  # the mass siphoned at each slot
    per_stage = np.empty(horizon)

    def siphon(r0, r1):  # slot s's siphon of axis-0 rows [r0, r1)
        k = slice(*np.searchsorted(cap_idx, (r0 * row, r1 * row)))
        faces = _faces(n, r0, r1, a_max, slice(a_max - 1, a_max))
        idx, outs = cap_idx[k], [w[k] for w in caps]
        views = [[vec.reshape(shape)[face] for face in faces] for vec in vecs]

        def cut(s):  # gather the rows' cap states into the slot's buffer, then zero the cap face by face
            np.take(vecs[s % 2], idx, out=outs[s % 2], mode="clip")  # unbuffered
            for face in views[s % 2]:
                face.fill(0.0)
        return cut

    def reduce(s):  # slot s's cap mass, and its marginals below the horizon
        w = caps[s % 2]
        masses[s] = float(w.sum())
        if masses[s] and s < horizon:
            for i, (order, starts, empty) in enumerate(runs):
                np.take(w, order, out=ordered, mode="clip")
                entering[s, i] = np.add.reduceat(ordered, starts)
                entering[s, i, empty] = 0.0

    def index(marked, base, a):  # the cached index of the marked states, `base` on
        live = np.flatnonzero(marked)
        live += base
        own = a[live]
        succ = probs[own]
        # served: the served source's age c + 1 drops to 1, every other
        # age grows by one, so the target is live + shift - (c + 1) * stride
        served = strides[own]
        c = live // served
        c %= a_max
        c += 1
        served *= c
        del c
        np.subtract(live, served, out=served)
        served += shift
        return live, succ, served, np.empty(live.size)

    ranges = _row_groups(box)
    apart = [None] * len(ranges)  # each group's index of the states whose success lands in row 0

    def group(g, lo, hi):  # the stage task of the group of source rows [lo, hi)
        fails = slice(max((lo + 1) * row - shift, 0), min(hi + 1, a_max) * row - shift)
        lands = slice(fails.start + shift, fails.stop + shift)  # rows lo + 1 to hi, and below for the first
        own = slice(min(lo * row, m - shift), min(hi * row, m - shift))
        cut = siphon(lo + 1, min(hi + 1, a_max))  # row 0 waits for every group
        gathered = part = None

        def task(t):
            nonlocal gathered, part
            d, nxt = vecs[t % 2], vecs[1 - t % 2]
            if g == 0:
                per_stage[t] = float(d @ cost)
            if hi == a_max:
                reduce(t)
            a = actions[t]
            stale = a is not gathered
            if stale:
                np.take(fail_p, a[fails], out=fail_at[fails], mode="clip")  # unbuffered; a < n
                gathered = a
            head, marked, seen = d[own], carrying[own], indexed[own]
            np.not_equal(head, 0.0, out=marked)
            np.greater(marked, seen, out=marked)  # carrying but not indexed
            if stale or marked.any():
                part = apart[g] = None  # release the old index first
                np.not_equal(head, 0.0, out=seen)
                np.equal(a[own], 0, out=marked)  # success into row 0, which every group reaches
                marked &= seen
                apart[g] = index(marked, own.start, a)
                np.greater(seen, marked, out=marked)
                part = index(marked, own.start, a)
            np.multiply(fail_at[fails], d[fails], out=nxt[lands])
            if g == 0:
                nxt[:shift] = 0.0
            for live, succ, _, w in (part, apart[g]):
                np.take(d, live, out=w, mode="clip")  # unbuffered; live < m
                w *= succ
            np.add.at(nxt, part[2], part[3])
            cut(t + 1)
        return task

    row0 = siphon(0, 1)

    def finish_row0(t):  # every group's success mass into row 0, in group order; then its cap
        nxt = vecs[1 - t % 2]
        for _, _, served, w in apart:
            np.add.at(nxt, served, w)
        row0(t + 1)

    vecs[0][s0] = 1.0
    siphon(0, a_max)(0)
    _run_in_groups([group(g, lo, hi) for g, (lo, hi) in enumerate(ranges)], range(horizon), finish_row0)
    reduce(horizon)
    touched = masses[0]
    for mass in masses[1:]:  # in slot order
        touched += mass
    return touched, per_stage, entering


def _reliable_audit(box, actions, stage_cost, initial):
    """The realized trajectory of a reliable solve, and the forward audit
    of `_forward_truncation_pass` read off it.

    On reliable channels the state distribution is a point mass on the one
    path `_reliable_path` walks under the stage tables, reading each action
    at the ages clamped into the box. The walk goes one slot past the
    horizon, to the arrival state, whose action is never read. Until the
    path first has an age equal to a_max (at slots 0 to `horizon`), each
    slot costs its state's stage cost. At that slot the whole mass touches
    the cap: the report is 1.0, the cap-entry marginals (below the horizon)
    hold a 1.0 at each source's age, and every later slot costs 0.0.

    These are the dense pass's bits. With p = 1 its failure slice writes
    exact zeros and the success scatter moves the single 1.0 to its target;
    `d @ cost` of a one-hot vector is that state's cost, since every stage
    cost is finite and +0.0 or positive; and the siphon's sum and reduceat
    each see one 1.0.

    Returns the `horizon` (ages, action) pairs of the path on true ages,
    then the report, the per-slot costs and the marginals.
    """
    horizon, n, a_max = len(actions), box.n_sources, box.a_max
    strides = box.strides

    def choose(ages, t):  # the stage-t action at the ages clamped into the box
        if t == horizon:
            return None  # the arrival state: the walk ends here
        return int(actions[t][sum((min(x, a_max) - 1) * k for x, k in zip(ages, strides))])

    path = tuple(itertools.islice(_reliable_path(initial, choose), horizon + 1))
    ages = np.array([state for state, _ in path])
    hits = np.flatnonzero((ages == a_max).any(axis=1))
    stop = int(hits[0]) if hits.size else horizon
    per_stage = np.zeros(horizon)
    per_stage[:stop] = stage_cost.reshape(-1)[(ages[:stop] - 1) @ np.array(strides)]  # below the cap
    entering = np.zeros((horizon, n, a_max))
    if stop < horizon:
        entering[stop, np.arange(n), ages[stop] - 1] = 1.0
    return path[:horizon], float(hits.size > 0), per_stage, entering


def _weighted_round_robins(n: int) -> list:
    """Smooth weighted round-robin cycles, one per weight vector k >= 1 with
    sum(k) <= 2n and no common factor (a multiple repeats a shorter cycle);
    k = (1, ..., 1) is plain round robin. Source i is served k_i times per
    cycle, spread as evenly as the weights allow."""
    cycles = []
    for k in itertools.product(range(1, n + 2), repeat=n):
        period = sum(k)
        if period > 2 * n or math.gcd(*k) > 1:
            continue
        credit = [0] * n
        cycle = []
        for _ in range(period):
            credit = [c + w for c, w in zip(credit, k)]
            j = credit.index(max(credit))  # ties to the lowest index
            credit[j] -= period
            cycle.append(j)
        cycles.append(cycle)
    return cycles


def _fallback_totals(sources, entering) -> np.ndarray:
    """Expected cost, from the slot each path touches the cap to the horizon,
    of switching to a fixed schedule, one entry per cycle of
    `_weighted_round_robins` played on the global clock (slot t serves
    cycle[t % period]); the bound uses the cheapest.

    Under a fixed schedule each source's age evolves on its own, so the
    siphoned mass is followed one source at a time as an exact age
    distribution with no cap (ages reach a_max + horizon at most). Plain
    round robin alone can leave an exponential cost unbounded in
    expectation (E2's 2^x source at p = 0.9 renews with probability 0.9
    only every 4 slots: 2^4 * 0.1 > 1); denser cycles for that source avoid
    this. Costs past the overflow limit count as inf, which keeps the bound
    valid. Slot t's schedule column is read from each cycle at t modulo its
    period.
    """
    horizon, n, a_max = entering.shape
    cycles = _weighted_round_robins(n)
    periods = np.array([len(c) for c in cycles])
    padded = np.array([c + [-1] * (periods.max() - len(c)) for c in cycles])  # (K, longest period)
    picks = np.arange(len(cycles))
    top = a_max + horizon
    totals = np.zeros(len(cycles))
    for i, s in enumerate(sources):
        row = costmod.row(s.cost, top)
        finite = len(row)
        dist = np.zeros((len(cycles), top))
        for t in range(horizon):
            served = padded[picks, t % periods] == i  # the cycles serving source i at slot t
            dist[:, :a_max] += entering[t, i]
            width = a_max + t  # ages reachable by slot t
            upto = min(width, finite)
            totals += dist[:, :upto] @ row[:upto]
            if width > finite:
                totals[dist[:, finite:width].sum(axis=1) > 0] = np.inf
            delivered = s.p * dist[:, :width].sum(axis=1)
            dist[:, 1 : width + 1] = dist[:, :width] * np.where(served, 1.0 - s.p, 1.0)[:, None]
            dist[:, 0] = np.where(served, delivered, 0.0)
    return totals


def finite_horizon_dp_auto(
    spec: SystemSpec,
    horizon: int,
    a_max: Optional[int] = None,
    max_doublings: int = 2,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> DpSolution:
    """finite_horizon_dp with the box doubled until the truncation report is
    clean, the doubling budget runs out, or the next doubling would blow the
    memory budget; the best solution obtained is returned, and its note, if
    it has one, is the one truncation warning raised."""
    costmod.validate_count("max_doublings", max_doublings, 0)
    best = None
    for _ in range(max_doublings + 1):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "truncation report", RuntimeWarning)
                best = finite_horizon_dp(spec, horizon, a_max, memory_budget=memory_budget)
        except CapacityError:
            if best is None:
                raise
            break
        if best.truncation_report <= TRUNCATION_WARN_LEVEL:
            break
        a_max = 2 * best.box.a_max
    for note in best.warnings:
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return best


def extract_cycle_policy(sol: DpSolution):
    """The recurrent cycle realized by the optimal policy; reliable only.

    Takes the (state, action) pairs between the first two equal pairs of the
    solution's realized trajectory, searched over a mid-horizon window away
    from the initial transient and from end-of-horizon effects (the same
    first recurrence `sim.detect_cycle` finds, keyed on the action instead
    of a phase). The policy varies with the stage, so a pair can recur on
    a loop the trajectory passes once: in an n-pair window a loop of
    d <= n // 3 pairs closes the cycle only if the trajectory repeats it for
    a clean run of min(max(2d, 8), n - d) pairs. The exact cycle average
    cost is independent of the discarded transient.
    """
    if sol.trajectory is None:  # only a reliable solve records one
        raise DomainError("cycle extraction requires all channels reliable")

    horizon = len(sol.trajectory)
    lo = min(horizon // 4, 50)
    hi = horizon - max(2, horizon // 50)
    window = sol.trajectory[lo:hi]
    n = len(window)
    if n < 4:
        raise NonCyclicError(f"horizon {horizon} leaves no mid-horizon window")

    def repeats(j, s):
        d = s - j
        clean = min(max(2 * d, 8), n - d)
        return d <= n // 3 and window[j : j + clean] == window[s : s + clean]

    cycle = _first_cycle(sol.spec, window, lambda step, pair: pair, repeats)
    if cycle is None:
        raise NonCyclicError(
            f"optimal trajectory shows no period within the {n}-slot window; "
            "box too small or horizon too short"
        )
    return cycle
