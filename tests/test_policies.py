import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aoisched import cost, decoupled
from aoisched.errors import AdmissibilityError, DomainError
from aoisched.policies import (
    FixedCycle,
    MaxAge,
    RoundRobin,
    Source,
    StationaryRandomized,
    SystemSpec,
    Whittle,
    _decide_rows,
    _whittle_values,
    decide,
    validate_ages,
    whittle_index_table,
)


def two_linear():
    return SystemSpec((Source(cost.linear(1)), Source(cost.linear(1))))


def setting_a1():
    return SystemSpec((Source(cost.linear(13)), Source(cost.power(1, 2))))


class TestSystemSpec:
    def test_needs_a_source(self):
        with pytest.raises(DomainError):
            SystemSpec(())

    def test_probability_range(self):
        with pytest.raises(DomainError):
            Source(cost.linear(1), 0.0)

    def test_bounded_check_names_source(self):
        spec = SystemSpec((Source(cost.linear(1), 0.5), Source(cost.exponential(3), 0.5)))
        with pytest.raises(AdmissibilityError, match="source 2"):
            spec.require_bounded()

    def test_state_cost(self):
        assert setting_a1().state_cost((2, 3)) == 26 + 9


class TestWhittleDecisions:
    def test_larger_age_wins(self):
        assert decide(Whittle(), two_linear(), (1, 4)) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert decide(Whittle(), two_linear(), (3, 3)) == 0

    def test_equal_index_values_prefer_first_source(self):
        # both indices equal 13 at ages (1, 2) for the 13x / x^2 pair
        spec = setting_a1()
        from aoisched.decoupled import whittle_index

        assert whittle_index(cost.linear(13), 1.0, 1) == 13.0
        assert whittle_index(cost.power(1, 2), 1.0, 2) == 13.0
        assert decide(Whittle(), spec, (1, 2)) == 0

    def test_unreliable_uses_channel_probability(self):
        spec = SystemSpec((Source(cost.linear(1), 0.5), Source(cost.linear(1), 1.0)))
        # same ages: reliable source has the higher index (p scales it down)
        assert decide(Whittle(), spec, (3, 3)) == 1


class TestIndexTable:
    def test_linear_reliable_values(self):
        spec = SystemSpec((Source(cost.linear(1)),))
        assert np.array_equal(whittle_index_table(spec, 4), [[1, 3, 6, 10]])

    def test_constant_cost_all_zero(self):
        spec = SystemSpec((Source(cost.table([5.0])),))
        assert np.array_equal(whittle_index_table(spec, 3), [[0, 0, 0]])

    def test_linear_half_probability(self):
        spec = SystemSpec((Source(cost.linear(1), 0.5),))
        assert np.allclose(whittle_index_table(spec, 3), [[1.0, 2.5, 4.5]], rtol=1e-12)

    def test_rows_non_decreasing(self):
        table = whittle_index_table(setting_a1(), 200)
        assert np.all(np.diff(table, axis=1) >= 0)

    def test_divergent_source_rejected(self):
        spec = SystemSpec((Source(cost.exponential(3), 0.5),))
        with pytest.raises(AdmissibilityError, match="source 1"):
            whittle_index_table(spec, 5)

    def test_table_matches_scalar_decisions(self, rng):
        spec = setting_a1()
        table = whittle_index_table(spec, 64)
        for _ in range(50):
            ages = tuple(int(a) for a in rng.integers(1, 64, size=2))
            assert decide(Whittle(), spec, ages, index_table=table) == decide(
                Whittle(), spec, ages
            )


class TestOtherPolicies:
    def test_round_robin_visits_each_source_once_per_lap(self):
        spec = SystemSpec(tuple(Source(cost.linear(1)) for _ in range(4)))
        seen = [decide(RoundRobin(), spec, (1, 1, 1, 1), t=t) for t in range(8)]
        assert seen == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_custom_order(self):
        # round robin serves t % N; any other order is a FixedCycle
        spec = two_linear()
        assert [decide(FixedCycle((1, 0)), spec, (1, 1), t=t) for t in range(4)] == [1, 0, 1, 0]

    def test_fixed_cycle(self):
        spec = two_linear()
        pol = FixedCycle((0, 0, 1))
        assert [decide(pol, spec, (1, 1), t=t) for t in range(6)] == [0, 0, 1, 0, 0, 1]

    def test_max_age(self):
        assert decide(MaxAge(), two_linear(), (2, 5)) == 1
        assert decide(MaxAge(), two_linear(), (5, 5)) == 0

    def test_randomized_needs_rng(self):
        pol = StationaryRandomized((0.5, 0.5))
        with pytest.raises(DomainError):
            decide(pol, two_linear(), (1, 1))
        rng = np.random.default_rng(0)
        assert decide(pol, two_linear(), (1, 1), rng=rng) in (0, 1)

    def test_randomized_probs_validated(self):
        with pytest.raises(DomainError):
            StationaryRandomized((0.6, 0.6))

    def test_age_vector_validated(self):
        with pytest.raises(DomainError):
            decide(Whittle(), two_linear(), (0, 1))
        with pytest.raises(DomainError):
            decide(Whittle(), two_linear(), (1, 1, 1))


class TestArgmaxInvariance:
    def test_common_monotone_shift_preserves_decisions(self, rng):
        # adding the same strictly increasing transform of the index value to
        # every source changes nothing: decisions see only comparisons
        spec = setting_a1()
        table = whittle_index_table(spec, 50)
        shifted = np.arcsinh(table) * 3.0 + 1.0  # strictly increasing map
        for _ in range(200):
            ages = rng.integers(1, 51, size=2)
            base = int(np.argmax(table[[0, 1], ages - 1]))
            moved = int(np.argmax(shifted[[0, 1], ages - 1]))
            assert base == moved

    def test_scaling_one_source_changes_only_argmax(self, rng):
        spec = two_linear()
        table = whittle_index_table(spec, 50)
        boosted = table.copy()
        boosted[0] *= 3.0
        for _ in range(100):
            ages = rng.integers(1, 51, size=2)
            vals = boosted[[0, 1], ages - 1]
            assert int(np.argmax(vals)) == (0 if vals[0] >= vals[1] else 1)


def test_whittle_is_strong_switch_by_construction(rng):
    # any index policy built from non-decreasing tables satisfies dominance
    from aoisched.structure import check_strong_switch

    for _ in range(25):
        n = int(rng.integers(2, 5))
        tables = np.cumsum(rng.uniform(0, 2, size=(n, 40)), axis=1)
        states = rng.integers(1, 40, size=(200, n))
        actions = np.argmax(tables[np.arange(n)[None, :], states - 1], axis=1)
        pairs = {tuple(int(x) for x in s): int(a) for s, a in zip(states, actions)}
        assert check_strong_switch(list(pairs.items())) == []


# -- the block decision rule against the per-policy scalar rule ----------------


def _scalar_decide(policy, spec, ages, t=0, rng=None, index_table=None):
    """Oracle: the per-policy scalar decision rule the block rule replaced."""
    arr = validate_ages(spec, ages)
    n = spec.n_sources
    if isinstance(policy, Whittle):
        if index_table is not None and arr.max() <= index_table.shape[1]:
            vals = index_table[np.arange(n), arr - 1]
        else:
            vals = np.array(
                [decoupled.whittle_index(s.cost, s.p, int(a)) for s, a in zip(spec.sources, arr)]
            )
        return int(np.argmax(vals))
    if isinstance(policy, RoundRobin):
        return t % n
    if isinstance(policy, FixedCycle):
        a = policy.actions[t % len(policy.actions)]
        if not 0 <= a < n:
            raise DomainError(f"cycle action {a} out of range for {n} sources")
        return a
    if isinstance(policy, MaxAge):
        return int(np.argmax(arr))
    if isinstance(policy, StationaryRandomized):
        if len(policy.probs) != n:
            raise DomainError("randomized probs length must match source count")
        if rng is None:
            raise DomainError("the randomized policy needs an rng")
        return int(rng.choice(n, p=policy.probs))
    raise DomainError(f"unknown policy {policy!r}")


_SPECS = (
    two_linear(),
    setting_a1(),
    SystemSpec((Source(cost.linear(13), 0.9), Source(cost.power(1, 2), 0.5))),
    SystemSpec(
        (
            Source(cost.power(1, 2), 0.66),
            Source(cost.exponential(3), 0.8),
            Source(cost.power(1, 4), 0.75),
        )
    ),
    SystemSpec(
        (
            Source(cost.power(0.5, 3)),
            Source(cost.logarithmic(10)),
            Source(cost.indicator(4, 2.0)),
            Source(cost.table([0.0, 1.0, 1.0, 5.0])),
        )
    ),
)
# the index tables stop at age 8 while ages reach 12, so some blocks fall
# back to one whittle_index call per source
_TABLES = {id(spec): whittle_index_table(spec, 8) for spec in _SPECS}
_KINDS = ("whittle", "round_robin", "fixed_cycle", "max_age", "randomized")


@st.composite
def _policy_for(draw, n, kind):
    if kind == "whittle":
        return Whittle()
    if kind == "round_robin":  # other orders are fixed cycles of a permutation
        order = draw(st.none() | st.permutations(range(n)).map(tuple))
        return RoundRobin() if order is None else FixedCycle(order)
    if kind == "fixed_cycle":  # n is one past the range
        return FixedCycle(tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=5))))
    if kind == "max_age":
        return MaxAge()
    # randomized: one extra source half the time
    m = n + draw(st.integers(0, 1))
    weights = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    if sum(weights) == 0:
        weights[0] = 1
    return StationaryRandomized(tuple(w / sum(weights) for w in weights))


@st.composite
def _decision_case(draw):
    spec = draw(st.sampled_from(_SPECS))
    n = spec.n_sources
    runs = draw(st.integers(1, 6))
    ages = np.array(
        draw(st.lists(st.lists(st.integers(1, 12), min_size=n, max_size=n), min_size=runs, max_size=runs)),
        dtype=np.int64,
    )
    kind = draw(st.sampled_from(_KINDS))
    policy = draw(_policy_for(n, kind))
    t = draw(st.integers(0, 50))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=runs, max_size=runs))
    table = draw(st.sampled_from((None, _TABLES[id(spec)])))
    return spec, policy, ages, t, seeds, table


def _outcome(fn):
    try:
        return fn()
    except DomainError as e:
        return type(e)


def _check_agreement(spec, policy, ages, t, seeds, table):
    want = [
        _outcome(lambda: _scalar_decide(policy, spec, row, t, np.random.default_rng(s), table))
        for row, s in zip(ages, seeds)
    ]
    # the scalar rule draws one uniform per randomized decision; hand the
    # block rule the same draw for each row
    u = np.array([np.random.default_rng(s).random() for s in seeds])
    got = _outcome(lambda: _decide_rows(policy, spec, ages, t, u, table).tolist())
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        assert got in errors
    else:
        assert got == want
    for row, s, w in zip(ages, seeds, want):
        assert _outcome(lambda: decide(policy, spec, row, t, np.random.default_rng(s), table)) == w


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_decision_case())
def test_block_rule_matches_scalar_oracle_row_for_row(case):
    _check_agreement(*case)


@pytest.mark.parametrize(
    "policy, ages, t",
    # each row names itself, so deleting a row renames no other; the names
    # are the positional ids these rows have always run under
    [
        # ages at the table's last column and one past
        pytest.param(Whittle(), [[1, 8], [8, 8], [8, 9]], 0, id="policy0-ages0-0"),
        # ties go to the first source
        pytest.param(MaxAge(), [[4, 4], [2, 5], [30, 30]], 0, id="policy1-ages1-0"),
        # all weight on one source
        pytest.param(StationaryRandomized((0.0, 1.0)), [[1, 1], [20, 2]], 0, id="policy2-ages2-0"),
        # one prob too few
        pytest.param(StationaryRandomized((1.0,)), [[1, 1]], 0, id="policy3-ages3-0"),
        # one prob too many
        pytest.param(StationaryRandomized((0.2, 0.3, 0.5)), [[1, 1]], 0, id="policy4-ages4-0"),
        # cycle action past the last source
        pytest.param(FixedCycle((0, 2)), [[1, 1]], 1, id="policy5-ages5-1"),
        # in range at this slot
        pytest.param(FixedCycle((0, 2)), [[1, 1]], 2, id="policy6-ages6-2"),
        # rows past the 8-wide table
        pytest.param(Whittle(), [[3, 9], [9, 30], [2, 2]], 0, id="policy7-ages7-0"),
    ],
)
def test_edge_cases_match_scalar_oracle(policy, ages, t):
    spec = _SPECS[2]
    ages = np.array(ages, dtype=np.int64)
    _check_agreement(spec, policy, ages, t, list(range(len(ages))), _TABLES[id(spec)])


@pytest.mark.parametrize("spec", _SPECS, ids=[f"{s.n_sources} sources #{i}" for i, s in enumerate(_SPECS)])
def test_block_past_a_narrow_table_matches_a_full_table_bit_for_bit(spec, monkeypatch):
    # the first rows lie inside the 4-wide table, the others pass it
    n = spec.n_sources
    rng = np.random.default_rng(n)
    ages = np.vstack((rng.integers(1, 5, (3, n)), rng.integers(1, 31, (5, n))))
    ages[-1, -1] = 30
    narrow, full = whittle_index_table(spec, 4), whittle_index_table(spec, 30)
    want = full[np.arange(n), ages - 1]
    calls, real = [], decoupled.whittle_index

    def counted(f, p, h, tol=1e-10):
        calls.append(np.ndim(h))
        return real(f, p, h, tol=tol)

    monkeypatch.setattr(decoupled, "whittle_index", counted)
    got = _whittle_values(spec, ages, narrow)
    assert got.tobytes() == want.tobytes()
    assert calls == [1] * n  # one call per source, over its column of ages
    assert _decide_rows(Whittle(), spec, ages, 0, None, narrow).tolist() == np.argmax(want, axis=1).tolist()


def test_randomized_rule_draws_right_of_each_cumulative_step():
    # as Generator.choice does: a zero-probability source is never drawn,
    # even at u = 0, and u on a step goes to the next source
    spec = SystemSpec(tuple(Source(cost.linear(1)) for _ in range(3)))
    u = np.array([0.0, 0.5, 0.999])
    acts = _decide_rows(StationaryRandomized((0.0, 0.5, 0.5)), spec, np.ones((3, 3), dtype=np.int64), 0, u)
    assert acts.tolist() == [1, 2, 2]


def test_block_rule_without_uniforms_rejects_randomized():
    with pytest.raises(DomainError, match="needs an rng"):
        _decide_rows(StationaryRandomized((0.5, 0.5)), two_linear(), np.ones((3, 2), dtype=np.int64), 0)
