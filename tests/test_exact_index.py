"""The series tail and the Whittle index against exact rational arithmetic.

For f(x) = w x^n with integer n, sum_{k>=1} k^j q^{k-1} = A_j(q) / p^{j+1}
(A_j the j-th Eulerian polynomial, q = 1 - p), so the tail
sum_{k>=1} f(k+h) q^{k-1} is w sum_j C(n, j) h^{n-j} A_j(q) / p^{j+1}. For
f(x) = w b^x it is w b^{h+1} / (1 - b q). `fractions` computes both, and the
prefix sums, exactly from the float parameters.

The bounds come from the series' stated tolerance, which applies to the
tail: it stops once a bound on its remainder is at most tol * max(1, sum).
The index multiplies the tail by p^2 h, and with it that error. On top of
both comes float rounding, bounded as ROUNDING times the size of the terms.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import cost
from aoisched.decoupled import discounted_tail, whittle_index

TAIL_TOL = 1e-12  # discounted_tail's default
INDEX_TOL = 1e-10  # whittle_index's default
# relative float rounding: a sum of at most 2000 non-negative terms (the
# prefix cumsum up to age 2000; an exponential tail's cumsum, under 600 steps
# at b (1 - p) <= 0.95), a few roundings per term, and 1 - p and b (1 - p)
# rounded once each, which the tail magnifies at most 1 / (1 - 0.95) times
ROUNDING = 4096 * 2.0**-53


def _eulerian(j):
    """Coefficients of A_j(x) in rising powers of x; A_0 = 1."""
    if j == 0:
        return [1]
    return [
        sum((-1) ** i * math.comb(j + 1, i) * (m + 1 - i) ** j for i in range(m + 1))
        for m in range(j)
    ]


def _exact_power(w, n, p, h):
    """(tail, prefix sum) of w x^n at age h, exactly."""
    p = Fraction(p)
    q = 1 - p
    # sum_{k>=1} k^j q^(k-1) for j = 0..n
    moments = [
        sum(c * q**m for m, c in enumerate(_eulerian(j))) / p ** (j + 1) for j in range(n + 1)
    ]
    tail = Fraction(w) * sum(math.comb(n, j) * h ** (n - j) * moments[j] for j in range(n + 1))
    return tail, Fraction(w) * sum(x**n for x in range(1, h + 1))


def _exact_exponential(w, b, p, h):
    """(tail, prefix sum) of w b^x at age h, exactly."""
    b = Fraction(b)
    tail = Fraction(w) * b ** (h + 1) / (1 - b * (1 - Fraction(p)))
    return tail, Fraction(w) * b * (b**h - 1) / (b - 1)


def _assert_within_bounds(f, p, hs, exact):
    """discounted_tail and whittle_index at each age of hs against exact(h)."""
    row = whittle_index(f, p, np.array(hs), tol=INDEX_TOL)
    for h, w_h in zip(hs, row.tolist()):
        tail, prefix = exact(h)
        t = discounted_tail(f, p, h, tol=TAIL_TOL)
        assert abs(Fraction(t) - tail) <= TAIL_TOL * max(1, tail) + ROUNDING * tail, (f, p, h)
        lead, drop = Fraction(p) ** 2 * h, Fraction(p) * prefix
        bound = lead * (INDEX_TOL * max(1, tail) + ROUNDING * tail) + ROUNDING * (lead * tail + drop)
        assert abs(Fraction(w_h) - (lead * tail - drop)) <= bound, (f, p, h)


_P = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@given(
    p=_P,
    n=st.integers(1, 6),
    w=st.floats(0.5, 10.0),
    ages=st.lists(st.integers(1, 2000), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
@example(p=0.05, n=6, w=1.0, ages=[1, 2000])
@example(p=1.0, n=1, w=13.0, ages=[1, 2000])
def test_power_tail_and_index_match_the_exact_sums(p, n, w, ages):
    f = cost.linear(w) if n == 1 else cost.power(w, float(n))
    _assert_within_bounds(f, p, sorted(set(ages)), lambda h: _exact_power(w, n, p, h))


@st.composite
def _exponential_case(draw):
    """(base, weight, p) with base (1 - p) <= 0.95, so the tail converges."""
    b = draw(st.floats(1.05, 3.0))
    p = draw(st.one_of(st.just(1.0), st.floats(1.0 - 0.95 / b, 1.0)))
    return b, draw(st.floats(0.5, 3.0)), p


@given(case=_exponential_case(), ages=st.lists(st.integers(1, 299), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
@example(case=(3.0, 3.0, 1.0 - 0.95 / 3.0), ages=[1, 299])
@example(case=(3.0, 1.0, 1.0), ages=[1, 299])
def test_exponential_tail_and_index_match_the_exact_sums(case, ages):
    b, w, p = case
    f = cost.exponential(b, w)
    _assert_within_bounds(f, p, sorted(set(ages)), lambda h: _exact_exponential(w, b, p, h))
