"""Catalog of strictly convex/concave functions with exact rational evaluation.

The catalog is a closed list: square, power(k), reciprocal, exp2, log.
square/power/reciprocal map rationals to rationals.  exp2 (x -> 2**x) is
exact only on integer arguments; at non-integer rationals its value is
irrational, so it can never hit a rational grid point.  log is never
evaluated numerically: every statement about |log(A) + log(A)| is computed
as |A*A| through the product set.

For incidence counting each function exposes a graph branch on which it is
both strictly convex/concave and injective (square and power use [0, oo),
reciprocal (0, oo), exp2 all rationals).  Translates of such a branch
pairwise intersect at most once, which is what the incidence bound needs;
the full cubic or hyperbola graphs would not satisfy that.  The audits,
incidence instances and search objectives share one domain rule,
`require_audit_domain`: A >= 0 for square and power, A > 0 for reciprocal and
log (|A*A| reads as |log(A) + log(A)| only there), any A for exp2.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, EmptyInputError, over_budget
from .sets import NumberSet, _from_ints

POWER_BUDGET = 64  # largest k in power:k
EXP2_BUDGET = 1 << 14  # largest |x| in exp2(x): 2**x has at most 16 Ki bits


def _exp2_exponent(e: int) -> int:
    """e, or the EXP2_BUDGET error when 2**e is beyond desk scale."""
    if not -EXP2_BUDGET <= e <= EXP2_BUDGET:
        raise over_budget("exp2 argument", e, "EXP2_BUDGET", EXP2_BUDGET)
    return e


@dataclass(frozen=True)
class ConvexFn:
    kind: str               # "square" | "power" | "reciprocal" | "exp2" | "log"
    k: int = 2              # exponent, only meaningful for kind == "power"

    def __post_init__(self):
        if self.k > POWER_BUDGET:
            raise over_budget("power:k exponent", self.k, "POWER_BUDGET", POWER_BUDGET)

    @property
    def name(self) -> str:
        return f"power:{self.k}" if self.kind == "power" else self.kind

    def apply(self, q: Fraction) -> Fraction:
        """Exact value f(q); DomainError outside the exact domain."""
        if self.kind == "square":
            return q * q
        if self.kind == "power":
            return q ** self.k
        if self.kind == "reciprocal":
            if q == 0:
                raise DomainError("reciprocal is undefined at 0")
            return 1 / q
        if self.kind == "exp2":
            if q.denominator != 1:
                raise DomainError(f"exp2 is exact only on integers, got {q}")
            e = _exp2_exponent(q.numerator)
            return Fraction(2 ** e) if e >= 0 else Fraction(1, 2 ** (-e))
        raise DomainError("log is never evaluated numerically; route through product_set")

    def on_lattice(self, d: int) -> Callable[[Iterable[int]], dict[int, int]]:
        """The graph branch on the lattice Z/d, a batch at a time: ts -> {d * f(t / d): t}.

        Only the t on the branch whose value lies on the lattice are kept.  The branch
        is t >= 0 for square and power, t > 0 for reciprocal, and every t for exp2,
        whose value is rational only at integers.  f is injective on its branch, so
        each value names one t.  exp2 keeps the budget of `apply`: a batch raises if
        any of its integer arguments is beyond it.
        """
        if self.kind in ("square", "power"):
            k = self.k if self.kind == "power" else 2
            dk = d ** (k - 1)

            def f(ts: Iterable[int]) -> dict[int, int]:
                return {p // dk: t for t in ts if t >= 0 and not (p := t ** k) % dk}
        elif self.kind == "reciprocal":
            d2 = d * d

            def f(ts: Iterable[int]) -> dict[int, int]:
                return {d2 // t: t for t in ts if t > 0 and not d2 % t}
        elif self.kind == "exp2":
            def f(ts: Iterable[int]) -> dict[int, int]:
                ts = [t for t in ts if not t % d]  # off the integers the value is irrational
                for e in (min(ts, default=0) // d, max(ts, default=0) // d):
                    _exp2_exponent(e)
                return {d << e if e >= 0 else d >> -e: t for t in ts
                        if (e := t // d) >= 0 or not d % (1 << -e)}
        else:
            raise DomainError("log is never evaluated numerically; route through product_set")
        return f

    def require_audit_domain(self, a: NumberSet) -> None:
        """DomainError unless `a` lies in the audit, incidence and search domain of this function."""
        if self.kind in ("reciprocal", "log") and not a.is_strictly_positive():
            raise DomainError(f"{self.name} pipelines require strictly positive elements")
        if self.kind in ("square", "power") and not a.is_nonnegative():
            raise DomainError(f"{self.name} pipelines require nonnegative elements")


SQUARE = ConvexFn("square")
RECIPROCAL = ConvexFn("reciprocal")
EXP2 = ConvexFn("exp2")
LOG = ConvexFn("log")


def power_fn(k: int) -> ConvexFn:
    if k < 2:
        raise ValueError("power functions need k >= 2")
    return ConvexFn("power", k=k)


def fn_by_name(name: str) -> ConvexFn:
    """Resolve CLI spellings: square, power:k, reciprocal, exp2, log-as-product."""
    if name == "square":
        return SQUARE
    if name == "reciprocal":
        return RECIPROCAL
    if name == "exp2":
        return EXP2
    if name in ("log", "log-as-product"):
        return LOG
    if name.startswith("power:"):
        try:
            return power_fn(int(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad power spec {name!r}") from exc
    raise ValueError(f"unknown function {name!r}")


def apply_fn(fn: ConvexFn, a: NumberSet) -> NumberSet:
    """Image set f(A), computed exactly, once per function while A lives.

    On the injective domains of the catalog |f(A)| == |A|.  square/power
    accept mixed-sign inputs too, in which case collisions may shrink the
    image (callers in audit pipelines enforce nonnegativity instead).
    The image of ints / d is computed in ints, on its own lattice: v^k / d^k for
    power:k, d / v over lcm(v) for reciprocal, 2^v over 2^-min(v, 0) for exp2.
    """
    if len(a) == 0:
        raise EmptyInputError("apply_fn requires a nonempty set")
    if fn.kind == "log":
        raise DomainError("log is never evaluated; use product_set for |log(A)+log(A)|")
    return a.memo(fn, lambda: _image(fn, a))


def _image(fn: ConvexFn, a: NumberSet) -> NumberSet:
    t, d = a.ints, a.denom
    if fn.kind in ("square", "power"):
        k = fn.k if fn.kind == "power" else 2
        image = [v ** k for v in t]
        # an odd power, or an even one of nonnegative values, keeps the order and distinctness
        return _from_ints(sorted(set(image)) if k % 2 == 0 and t[0] < 0 else image, d ** k)
    if fn.kind == "reciprocal" and 0 not in t:
        m = lcm(*t)
        return _from_ints(sorted(d * (m // v) for v in t), m)
    if fn.kind == "exp2" and d == 1 and -EXP2_BUDGET <= t[0] and t[-1] <= EXP2_BUDGET:
        lo = min(t[0], 0)
        return _from_ints([1 << (v - lo) for v in t], 1 << -lo)
    return NumberSet(fn.apply(q) for q in a)  # raises the error of the first element f refuses
