"""Age-cost functions: non-negative, non-decreasing maps from integer age to cost.

Six parametric variants are supported. All of them are immutable after
construction and evaluate elementwise over numpy arrays, so callers may share
them freely across threads.

    linear(w)            f(x) = w * x
    power(w, e)          f(x) = w * x**e
    exponential(b, w)    f(x) = w * b**x          (b > 1)
    logarithmic(w, b)    f(x) = w * log_b(x)      (natural log by default)
    indicator(thr, w)    f(x) = w * 1{x >= thr}
    table(values)        tabulated, constant extension past the last entry

A scalar age is evaluated as a one-element array through the same kernel as
a row of ages, so f(h) has the same bits alone and inside any row (numpy can
round a 0-d power differently from an array one). :func:`row` gives f(1..n)
as one evaluation. Evaluations that would exceed ``OVERFLOW_LIMIT`` raise
:class:`CostRangeError` instead of returning infinity.

Every module imports this one, so the package's argument checks live here:
:func:`validate_count` for sizes, :func:`positive_ages` for ages and
:func:`validate_probability` for channel success probabilities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CostRangeError, DomainError

OVERFLOW_LIMIT = 1e300

KINDS = ("linear", "power", "exponential", "logarithmic", "indicator", "table")


# -- argument checks ----------------------------------------------------------


def validate_count(name: str, value, least: int = 1) -> int:
    """`value` as an int, or DomainError naming `name` unless it is an
    integer (a bool is refused) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def positive_ages(age, name: str = "age") -> np.ndarray:
    """`age` as an array of its own shape, or DomainError naming `name` unless
    every entry is a positive integer (integral floats count; bools, inf
    and nan do not)."""
    try:
        ages = np.asarray(age)
    except ValueError:  # ragged nested sequences
        raise DomainError(f"{name} must be numeric, not ragged") from None
    if ages.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be numeric, got {ages.dtype}")
    # only a float can be fractional, inf or nan
    bad = ages.dtype.kind == "f" and not np.all(np.isfinite(ages) & (ages == np.floor(ages)))
    if bad or np.any(ages < 1):
        raise DomainError(f"{name} must be a positive integer (>= 1)")
    return ages


def validate_probability(p, name: str = "p"):
    """`p` unchanged, or DomainError naming `name` unless it is a real
    number (bools and strings refused) in (0, 1]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 < p <= 1:
        raise DomainError(f"{name} must be a real number in (0, 1], got {p!r}")
    return p


@dataclass(frozen=True)
class CostFunction:
    """One age-cost function, tagged by variant kind.

    Use the module-level factories (:func:`linear`, :func:`power`, ...) rather
    than constructing instances directly.
    """

    kind: str
    weight: float = 1.0
    exponent: float = 1.0
    base: float = math.e
    threshold: int = 1
    values: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown cost-function kind {self.kind!r}")
        if self.kind != "table" and not 0 < self.weight < math.inf:
            raise DomainError(f"weight must be positive and finite, got {self.weight!r}")
        if self.kind == "power" and not 0 < self.exponent < math.inf:
            raise DomainError(f"exponent must be positive and finite, got {self.exponent!r}")
        if self.kind in ("exponential", "logarithmic") and not 1 < self.base < math.inf:
            raise DomainError(f"base must exceed 1 and be finite, got {self.base!r}")
        if self.kind == "indicator":
            object.__setattr__(self, "threshold", validate_count("threshold", self.threshold))
        if self.kind == "table":
            vals = tuple(float(v) for v in self.values)
            if not vals:
                raise DomainError("table needs at least one value")
            if not all(0 <= v < math.inf for v in vals):
                raise DomainError("table values must be non-negative and finite")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise DomainError("table values must be non-decreasing")
            object.__setattr__(self, "values", vals)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, age):
        return evaluate(self, age)

    @property
    def is_bounded_function(self) -> bool:
        """True when f has a finite supremum (indicator and table variants)."""
        return self.kind in ("indicator", "table")

    @property
    def plateau_start(self) -> int:
        """Smallest age from which f is constant; only for bounded variants."""
        if self.kind == "indicator":
            return int(self.threshold)
        if self.kind == "table":
            vals = self.values
            k = len(vals)
            while k > 1 and vals[k - 2] == vals[-1]:
                k -= 1
            return k
        raise DomainError(f"{self.kind} cost has no plateau")

    def growth_ratio_bound(self, x: int) -> float:
        """Upper bound on f(y+1)/f(y) over all y >= x (used for series tails).

        Only meaningful where f(x) > 0; callers must start tail bounds past
        any zero-valued prefix (log at age 1, indicator below threshold,
        leading zeros of a table).
        """
        validate_count("x", x)
        k = self.kind
        if k == "linear":
            return (x + 1) / x
        if k == "power":
            return ((x + 1) / x) ** self.exponent
        if k == "exponential":
            return self.base
        if k == "logarithmic":
            if x < 2:
                raise DomainError("log growth bound needs x >= 2")
            return math.log(x + 1) / math.log(x)
        # indicator / table: constant once on the plateau
        if x >= self.plateau_start:
            return 1.0
        raise DomainError(f"growth bound of {k} undefined before its plateau")

    # -- config records -----------------------------------------------------

    def to_config(self) -> dict:
        """Tagged record of the kind's required then optional fields, e.g.
        {"kind": "linear", "weight": 13}; a natural-log base reads "e"."""
        required, optional = _FIELDS[self.kind]
        rec = {"kind": self.kind}
        for name in required + optional:
            rec[name] = getattr(self, name)
        if self.kind == "logarithmic" and self.base == math.e:
            rec["base"] = "e"
        if self.kind == "table":
            rec["values"] = list(self.values)
        return rec


def linear(weight: float) -> CostFunction:
    return CostFunction("linear", weight=float(weight))


def power(weight: float, exponent: float) -> CostFunction:
    return CostFunction("power", weight=float(weight), exponent=float(exponent))


def exponential(base: float, weight: float = 1.0) -> CostFunction:
    return CostFunction("exponential", base=float(base), weight=float(weight))


def logarithmic(weight: float, base: float = math.e) -> CostFunction:
    return CostFunction("logarithmic", weight=float(weight), base=float(base))


def indicator(threshold: int, weight: float = 1.0) -> CostFunction:
    return CostFunction("indicator", threshold=threshold, weight=float(weight))


def table(values) -> CostFunction:
    return CostFunction("table", values=tuple(values))


# each kind's factory, whose keyword arguments are the kind's fields
_FACTORIES = {f.__name__: f for f in (linear, power, exponential, logarithmic, indicator, table)}

# each kind's (required, optional) config fields
_FIELDS = {
    "linear": (("weight",), ()),
    "power": (("weight", "exponent"), ()),
    "exponential": (("base",), ("weight",)),
    "logarithmic": (("weight",), ("base",)),
    "indicator": (("threshold",), ("weight",)),
    "table": (("values",), ()),
}


def from_config(record: dict) -> CostFunction:
    """Build a cost function from its tagged config record."""
    rec = dict(record)
    kind = rec.pop("kind", None)
    if kind not in KINDS:
        raise DomainError(f"cost record needs a valid 'kind', got {kind!r}")
    required, optional = _FIELDS[kind]
    missing = [name for name in required if name not in rec]
    if missing:
        raise DomainError(f"cost record for {kind!r} is missing fields {missing}")
    unknown = sorted(set(rec) - set(required) - set(optional))
    if unknown:
        raise DomainError(f"cost record for {kind!r} has unknown fields {unknown}")
    if kind == "logarithmic" and rec.get("base") in ("e", "E"):
        rec["base"] = math.e
    return _FACTORIES[kind](**rec)


# -- operations -------------------------------------------------------------


def evaluate(f: CostFunction, age):
    """f(age); elementwise over arrays, and a scalar as a one-element array.
    Raises DomainError for age < 1 and CostRangeError when the result would
    exceed OVERFLOW_LIMIT."""
    scalar = np.ndim(age) == 0
    x = positive_ages(np.atleast_1d(age)).astype(float)
    k = f.kind
    if k == "linear":
        out = f.weight * x
    elif k == "power":
        out = f.weight * x ** f.exponent
    elif k == "exponential":
        # cap the age argument before exponentiating so no inf is produced
        cap = (math.log(OVERFLOW_LIMIT) - math.log(f.weight)) / math.log(f.base)
        if np.any(x > cap):
            bad = int(np.min(x[x > cap]))
            raise CostRangeError(
                f"exponential cost exceeds {OVERFLOW_LIMIT:g} from age {bad}"
            )
        out = f.weight * f.base ** x
    elif k == "logarithmic":
        out = f.weight * np.log(x) / math.log(f.base)
    elif k == "indicator":
        out = f.weight * (x >= f.threshold)
    else:  # table
        vals = np.asarray(f.values)
        idx = np.minimum(x.astype(np.int64) - 1, len(vals) - 1)
        out = vals[idx]
    out = np.asarray(out, dtype=float)
    if np.any(out > OVERFLOW_LIMIT):
        bad = int(np.min(x[out > OVERFLOW_LIMIT]))
        raise CostRangeError(f"{k} cost exceeds {OVERFLOW_LIMIT:g} at age {bad}")
    return float(out[0]) if scalar else out


def prefix_sum(f: CostFunction, h: int) -> float:
    """Sum of f(1..h), accumulated with a compensated (exact fsum) sum."""
    return math.fsum(evaluate(f, np.arange(1, validate_count("h", h) + 1)))


def prefix_array(f: CostFunction, h: int) -> np.ndarray:
    """Cumulative sums [f(1), f(1)+f(2), ..., sum f(1..h)]."""
    return np.cumsum(evaluate(f, np.arange(1, validate_count("h", h) + 1)))


def max_representable_age(f: CostFunction) -> Optional[int]:
    """Largest age that `evaluate` accepts, 0 if none (None: no limit below
    astronomically large ages)."""
    if f.kind == "exponential":
        limit = (math.log(OVERFLOW_LIMIT) - math.log(f.weight)) / math.log(f.base)
    elif f.kind in ("power", "linear"):
        # in logs: (OVERFLOW_LIMIT / w) ** (1 / e) itself overflows for e < 1
        log_limit = (math.log(OVERFLOW_LIMIT) - math.log(f.weight)) / f.exponent
        if log_limit >= 62 * math.log(2):
            return None
        limit = math.exp(log_limit)
    else:
        return None
    # the closed form can round to either side of the last accepted age, so
    # it only seeds a walk on evaluate itself; acceptance is monotone in age
    age = max(int(limit), 0)
    while age >= 1 and not _accepts(f, age):
        age -= 1
    while _accepts(f, age + 1):
        age += 1
    return age


def row(f: CostFunction, n: int) -> np.ndarray:
    """f(1..m) in one evaluation, m = min(n, max_representable_age(f))."""
    cap = max_representable_age(f)
    m = n if cap is None else min(n, cap)
    return evaluate(f, np.arange(1, m + 1))


def _accepts(f: CostFunction, age: int) -> bool:
    with np.errstate(over="ignore"):
        try:
            evaluate(f, age)
        except CostRangeError:
            return False
    return True


@dataclass(frozen=True)
class BoundedCost:
    """Outcome of the bounded-cost admissibility test with its diagnostic."""

    bounded: bool
    ratio: float
    reason: str

    def __bool__(self):
        return self.bounded


def is_bounded_cost(f: CostFunction, p: float) -> BoundedCost:
    """Decide whether sum_h f(h) (1-p)^h is finite, in closed form.

    Every sub-exponential variant converges for any p > 0. The exponential
    variant converges iff base * (1-p) < 1. The governing geometric ratio is
    reported as the diagnostic.
    """
    validate_probability(p)
    q = 1.0 - p
    if f.kind == "exponential":
        ratio = f.base * q
        if ratio < 1:
            return BoundedCost(True, ratio, f"geometric ratio base*(1-p) = {ratio:.6g} < 1")
        return BoundedCost(False, ratio, f"geometric ratio base*(1-p) = {ratio:.6g} >= 1")
    return BoundedCost(True, q, f"sub-exponential cost, geometric factor (1-p) = {q:.6g} < 1")
