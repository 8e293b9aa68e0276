"""Inequality audits: constant-free checks and theorem-chain replays, with every step a monomial.

Each inequality form is one line of data, "LHS <= RHS" or "LHS << RHS", whose
sides are products of rational powers of named quantities: set sizes |X|,
the energy moments E(X), E3(X) and E15(X) (E, E_3, E_1.5), the cross energy
E(X,Y) and log (log2|A|).  A table row, `Step`, fills a form's roles X, Y, S,
F with sets of the call and carries its exponent in the chain identity.  One
evaluator, `_value`, reads the quantities from a per-call `Quantities` memo,
so every set, moment and cross energy is computed once per audit, and
multiplies integer powers out exactly; fractional ones make a power_product.

"<=" rows are DECIDED: exact PASS/FAIL verdicts via compare_radical on the
very LHS and RHS the report renders (for the E_1.5 bridge, a radical sum
against a power product with cube roots).  "<<" rows are REPORT_ONLY bounds
with an implied constant: never pass/fail, they carry the exact ratio
LHS/RHS, regression-pinned against committed fixtures.

  T1  Holder, the E_1.5 bridge with B = -A, then the third-moment and
      cross-energy caps against |f(A)+C|.
  T2  Cauchy-Schwarz on |A+A|, the self-energy cap, the bridge with B = A,
      then the same two caps.
  T3  Cauchy-Schwarz twice, both self-energy caps, both bridges and four
      caps, every shifted-image size pinned to |A+f(A)|.

A chain's final ratio is derived, never written: `Chain.final` is minus the
exponent-weighted sum of its rows' LHS - RHS exponents.  The energies cancel,
so it is a monomial in set sizes and log|A|, and final * prod(ratio^e) = 1.
Decided ratios are at most 1, so final * prod(REPORT_ONLY ratio^e) >= 1;
`chain_consistency_bounds` re-derives this from intervals.  The search
objectives read their exponents from the same finals.

With the log-as-product function the image sumset size |f(A)+f(A)| is
computed as |A*A|; the T1/T2 chains then audit the difference-product and
sum-product corollaries (labels C_diffprod / C_sumprod).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .comparison import (
    LADDER,
    compare_radical,
    decimal_of,
    fraction_to_decimal,
    log2_upper,
    power_product,
    value_bounds,
)
from .energy import energy, energy_report
from .errors import AuditFailure, DomainError, EmptyInputError
from .functions import LOG, ConvexFn, apply_fn
from .sets import NumberSet, PairCounts, pair_counts

PASS, FAIL, REPORT_ONLY = "PASS", "FAIL", "REPORT_ONLY"
DECIDED = "PASS/FAIL"

# Step forms.  A row fills in the roles X, Y, S (a combination set) and F.
HOLDER_FORM = "|X|^6 <= E15(X)^2 |X-X|"
BRIDGE_FORM = "E15(X)^2 |Y|^2 <= E3(X)^2/3 E3(Y)^1/3 E(X,S)"  # S = X+Y
CS_FORM = "|X|^2 |Y|^2 <= E(X,Y) |S|"  # S = X+Y or X-Y
CS_SPLIT_FORM = "E(X,Y)^2 <= E(X) E(Y)"
ENERGY_CAP_FORM = "E(X) << E15(X)^2/3 |S|^2/3 |X|^1/3"  # S a shifted image of X
CROSS_CAP_FORM = "E(X,F) << |S| |F|^3/2"
THIRD_CAP_FORM = "E3(X) << |S|^2 |X| log"


@dataclass(frozen=True)
class AuditReport:
    """One inequality comparison: exact operands, verdict, and LHS/RHS ratio."""

    name: str
    verdict: str
    lhs: str
    rhs: str
    ratio: str
    hypothesis_flags: tuple[str, ...] = ()
    lhs_value: object = field(default=None, repr=False, compare=False)
    rhs_value: object = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "type": "step",
            "name": self.name,
            "verdict": self.verdict,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "flags": list(self.hypothesis_flags),
        }

    def ratio_bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        return value_bounds(power_product((self.lhs_value, 1), (self.rhs_value, -1)), prec)


class Quantities:
    """The sets and numbers one audit call reads, each computed at most once.

    Sets are named by role ("A", "B", "C", "F", the image "f(A)") or as
    "X+Y" / "X-Y" of two roles.  A combination's size is read from the pair
    histogram its set comes from, which the left operand keeps, so |A-A| and
    the moments of A share one delta_A.  Sets, moments and cross energies
    (integers and radical sums) are kept by name for the call.
    """

    def __init__(self, roles: dict, fn: ConvexFn | None = None, log: Fraction | None = None):
        self.fn, self.log, self._memo = fn, log, dict(roles)

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def set(self, name: str) -> NumberSet:
        return self._once(name, lambda: self._build(name))

    def _build(self, name: str) -> NumberSet:
        if name == "f(A)":
            return apply_fn(self.fn, self.set("A"))
        if name == "C":
            return self.set("f(A)")
        return self._pairs(name).to_set()

    def _pairs(self, name: str) -> PairCounts | None:
        """The histogram whose support is the combination set `name`; None for a role."""
        if name == "f(A)+C" and self.fn.kind == "log":  # |log(A)+log(A)| is |A*A|
            return pair_counts(self.set("A"), self.set("A"), "*")
        for op in "+-":
            x, found, y = name.partition(op)
            if found:
                return pair_counts(self.set(x), self.set(y), op)
        return None

    def value(self, quantity: tuple):
        """One quantity: ("size", X), ("E" | "E3" | "E15", X), ("E", X, Y) or ("log",)."""
        kind, *names = quantity
        if kind == "log":
            return self.log
        if kind == "size":
            pairs = self._pairs(names[0])
            return len(self.set(names[0]) if pairs is None else pairs)
        if len(names) == 2:
            return self._once(quantity, lambda: energy(self.set(names[0]), self.set(names[1])))
        return getattr(self._once(("moments", *names), lambda: energy_report(self.set(names[0]))), kind)


def _factors(text: str, roles: dict[str, str]) -> tuple[tuple[tuple, Fraction], ...]:
    """One side of a form, e.g. "E15(X)^2 |Y|^2", as (quantity, exponent) factors with the roles filled in.

    |X| is the quantity ("size", X) and E(X,X) is E(X).  |-A| and |f(A)| are
    |A| (f is injective on the audit domain), and -A has the moments of A, as
    delta_{-A}(s) = delta_A(-s).  Factors are kept apart, not merged by
    quantity, so a side evaluates to the same value, in the same form, as
    written.
    """
    factors = []
    for token in text.split():
        quantity, _, exponent = token.partition("^")
        kind, _, sets = re.sub(r"^\|(.*)\|$", r"size(\1)", quantity).rstrip(")").partition("(")
        same_as_a = ("-A", "f(A)") if kind == "size" else ("-A",)
        names = (re.sub("[XYSF]", lambda m: roles[m[0]], s) for s in sets.split(",") if s)
        names = ("A" if name in same_as_a else name for name in names)
        factors.append(((kind, *dict.fromkeys(names)), Fraction(exponent or 1)))
    return tuple(factors)


def _value(q: Quantities, factors: tuple):
    """prod(quantity ** e) over a side's factors.

    Integer powers multiply out exactly; the fractional ones, with that exact
    product as one more factor, make a power_product.
    """
    exact, rest = 1, []
    for quantity, e in factors:
        base = q.value(quantity)
        if e.denominator == 1:
            exact = base ** e.numerator * exact if e > 0 else exact / Fraction(base) ** -e.numerator
        else:
            rest.append((base, e))
    return power_product(*rest, (exact, 1)) if rest else exact


@dataclass(frozen=True)
class Step:
    """One table row: a form with its roles filled in."""

    name: str
    kind: str  # DECIDED, or REPORT_ONLY: an implied-constant bound, reported as a ratio
    lhs: tuple[tuple[tuple, Fraction], ...]
    rhs: tuple[tuple[tuple, Fraction], ...]
    exponent: int  # power of the step's ratio LHS/RHS in the chain identity


def step(name: str, form: str, exponent: int = 0, **roles: str) -> Step:
    """The row applying `form` to `roles`, e.g. step("cs_sum", CS_FORM, 6, X="A", Y="A", S="A+A")."""
    lhs, relation, rhs = re.split(" (<=|<<) ", form)
    kind = DECIDED if relation == "<=" else REPORT_ONLY
    return Step(name, kind, _factors(lhs, roles), _factors(rhs, roles), exponent)


@dataclass(frozen=True)
class Chain:
    """One proof route: its steps in order, each with its exponent in the chain identity."""

    steps: tuple[Step, ...]
    log_label: str | None = None  # the corollary the chain audits when f = log

    @cached_property
    def final(self) -> dict[tuple, Fraction]:
        """The final ratio's exponents: minus the exponent-weighted sum of every row's LHS - RHS."""
        final: dict[tuple, Fraction] = {}
        for s in self.steps:
            for factors, sign in ((s.lhs, -s.exponent), (s.rhs, s.exponent)):
                for quantity, e in factors:
                    final[quantity] = final.get(quantity, 0) + sign * e
        return {quantity: e for quantity, e in final.items() if e}


HOLDER = step("holder_lower", HOLDER_FORM, 2, X="A")
CS_SUM = step("cs_sum", CS_FORM, 6, X="A", Y="A", S="A+A")
CHAINS = {
    "T1": Chain(
        (
            HOLDER,
            step("e15_bridge", BRIDGE_FORM, 2, X="A", Y="-A", S="A-A"),
            step("third_energy_cap", THIRD_CAP_FORM, 2, X="A", S="f(A)+C"),
            step("cross_energy_cap", CROSS_CAP_FORM, 2, X="A", S="f(A)+C", F="A-A"),
        ),
        log_label="C_diffprod",
    ),
    "T2": Chain(
        (
            CS_SUM,
            step("energy_cap", ENERGY_CAP_FORM, 6, X="A", S="f(A)+C"),
            step("e15_bridge", BRIDGE_FORM, 2, X="A", Y="A", S="A+A"),
            step("third_energy_cap", THIRD_CAP_FORM, 2, X="A", S="f(A)+C"),
            step("cross_energy_cap", CROSS_CAP_FORM, 2, X="A", S="f(A)+C", F="A+A"),
        ),
        log_label="C_sumprod",
    ),
    "T3": Chain(
        (
            step("cs_cross_sumset", CS_FORM, 6, X="A", Y="f(A)", S="A+f(A)"),
            step("cs_cross_split", CS_SPLIT_FORM, 3, X="A", Y="f(A)"),
            step("energy_cap", ENERGY_CAP_FORM, 3, X="A", S="A+f(A)"),
            step("energy_cap_image", ENERGY_CAP_FORM, 3, X="f(A)", S="A+f(A)"),
            step("e15_bridge", BRIDGE_FORM, 1, X="A", Y="f(A)", S="A+f(A)"),
            step("e15_bridge_image", BRIDGE_FORM, 1, X="f(A)", Y="A", S="A+f(A)"),
            step("third_energy_cap", THIRD_CAP_FORM, 1, X="A", S="A+f(A)"),
            step("third_energy_cap_image", THIRD_CAP_FORM, 1, X="f(A)", S="A+f(A)"),
            step("cross_energy_cap", CROSS_CAP_FORM, 1, X="A", S="A+f(A)", F="A+f(A)"),
            step("cross_energy_cap_image", CROSS_CAP_FORM, 1, X="f(A)", S="A+f(A)", F="A+f(A)"),
        ),
    ),
}
# A corollary label runs its chain with f = log.
COROLLARIES = {chain.log_label: name for name, chain in CHAINS.items() if chain.log_label}
THEOREMS = (*CHAINS, *COROLLARIES)

LEMMA_E15 = step("e15_bridge", BRIDGE_FORM, X="A", Y="B", S="A+B")
CAUCHY_SCHWARZ = {
    "sum": (CS_SUM,),
    "diff": (step("cs_diff", CS_FORM, X="A", Y="A", S="A-A"),),
    "cross": (
        step("cs_cross_sumset", CS_FORM, X="A", Y="F", S="A+F"),
        step("cs_cross_split", CS_SPLIT_FORM, X="A", Y="F"),
    ),
}
# The caps of A against |f(A)+C|, then of f(A) against |A+C|.
COROLLARY_CAPS = (
    step("energy_cap", ENERGY_CAP_FORM, X="A", S="f(A)+C"),
    step("cross_energy_cap", CROSS_CAP_FORM, X="A", S="f(A)+C", F="F"),
    step("third_energy_cap", THIRD_CAP_FORM, X="A", S="f(A)+C"),
    step("energy_cap_image", ENERGY_CAP_FORM, X="f(A)", S="A+C"),
    step("cross_energy_cap_image", CROSS_CAP_FORM, X="f(A)", S="A+C", F="F"),
    step("third_energy_cap_image", THIRD_CAP_FORM, X="f(A)", S="A+C"),
)


def _evaluate(row: Step, q: Quantities, flags: tuple[str, ...] = (), digits: int = 30) -> AuditReport:
    """Run one table row; REPORT_ONLY rows carry `flags`, decided ones none."""
    lhs, rhs = _value(q, row.lhs), _value(q, row.rhs)
    if row.kind == REPORT_ONLY:
        verdict = REPORT_ONLY
    else:
        verdict = PASS if compare_radical(lhs, rhs) <= 0 else FAIL
        flags = ()
    return AuditReport(
        name=row.name,
        verdict=verdict,
        lhs=decimal_of(lhs, digits),
        rhs=decimal_of(rhs, digits),
        ratio=decimal_of(power_product((lhs, 1), (rhs, -1)), digits),
        hypothesis_flags=tuple(flags),
        lhs_value=lhs,
        rhs_value=rhs,
    )


def check_lemma_e15(a: NumberSet, b: NumberSet) -> AuditReport:
    """E_1.5(A)^2 |B|^2 <= E_3(A)^(2/3) E_3(B)^(1/3) E(A, A+B), decided exactly."""
    return _evaluate(LEMMA_E15, Quantities({"A": a, "B": b}))


def check_holder(a: NumberSet) -> AuditReport:
    """|A|^6 <= E_1.5(A)^2 |A-A|, decided exactly on radical sums."""
    return _evaluate(HOLDER, Quantities({"A": a}))


def check_cauchy_schwarz(a: NumberSet, mode: str, f: NumberSet | None = None) -> tuple[AuditReport, ...]:
    """Cauchy-Schwarz energy bounds, all pure-integer verdicts.

    mode "sum":   |A|^4 <= E(A,A) |A+A|
    mode "diff":  |A|^4 <= E(A,A) |A-A|
    mode "cross": |A|^2|F|^2 <= E(A,F) |A+F|  and  E(A,F)^2 <= E(A,A) E(F,F)
    """
    if len(a) == 0:
        raise EmptyInputError("cauchy-schwarz checks need a nonempty set")
    if mode not in CAUCHY_SCHWARZ:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cross" and (f is None or len(f) == 0):
        raise EmptyInputError("cross mode needs the second set")
    q = Quantities({"A": a, "F": f})
    return tuple(_evaluate(s, q) for s in CAUCHY_SCHWARZ[mode])


def clamped_log2(n: int) -> tuple[Fraction, bool]:
    """Dyadic upper bound of log2(n) at log2_upper's precision, clamped to 1 so it never vanishes."""
    value = log2_upper(n)
    return max(value, Fraction(1)), value < 1


def _approx_flags(a: NumberSet, c: NumberSet, f: NumberSet | None = None) -> list[str]:
    if len(c) == 0:
        raise EmptyInputError("C must be nonempty")
    flags = []
    if not Fraction(1, 2) <= Fraction(len(a), len(c)) <= 2:
        flags.append("|A| !~ |C| (factor-2)")
    if f is not None and len(c) > len(f):
        flags.append("|C| > |F|")
    return flags


def corollary_e3a_ratios(fn: ConvexFn, a: NumberSet, c: NumberSet, f: NumberSet) -> list[AuditReport]:
    """Six REPORT_ONLY entries: self/cross/third energy caps for A and for f(A).

    The ground caps compare against |f(A)+C|, the image caps against |A+C|.
    Logs are base 2, evaluated as exact dyadic upper bounds, clamped to 1 for
    singletons (flagged).
    """
    if fn.kind == "log":
        raise DomainError("the cap ratios need an exact-on-rationals function")
    fn.require_audit_domain(a)
    log_factor, clamped = clamped_log2(len(a))
    flags = tuple(_approx_flags(a, c, f) + (["log|A| clamped to 1"] if clamped else []))
    q = Quantities({"A": a, "C": c, "F": f}, fn, log_factor)
    return [_evaluate(s, q, flags) for s in COROLLARY_CAPS]


@dataclass(frozen=True)
class ChainReport:
    theorem: str
    steps: tuple[AuditReport, ...]
    final_ratio_exact: Fraction = field(repr=False)
    final_ratio: str = ""
    flags: tuple[str, ...] = ()

    def report_only_steps(self) -> list[AuditReport]:
        return [s for s in self.steps if s.verdict == REPORT_ONLY]

    def to_json_lines(self) -> list[dict]:
        lines = [s.to_json_dict() for s in self.steps]
        lines.append(
            {
                "type": "chain",
                "theorem": self.theorem,
                "finalRatio": self.final_ratio,
                "flags": list(self.flags),
            }
        )
        return lines


def chain_consistency_bounds(chain: ChainReport) -> tuple[Fraction, Fraction]:
    """Interval enclosure at 128 bits of final_ratio * prod(step_ratio^e); always >= 1 exactly."""
    rows = CHAINS[COROLLARIES.get(chain.theorem, chain.theorem)].steps
    lo = hi = chain.final_ratio_exact
    for report, row in zip(chain.steps, rows):
        if row.kind == REPORT_ONLY:
            slo, shi = report.ratio_bounds(LADDER[0])
            lo, hi = lo * slo ** row.exponent, hi * shi ** row.exponent
    return lo, hi


def _raise_on_fail(report: AuditReport, inputs: dict) -> AuditReport:
    if report.verdict == FAIL:
        raise AuditFailure(report, {k: [str(q) for q in v] for k, v in inputs.items()})
    return report


def theorem_fn(which: str, fn: ConvexFn) -> ConvexFn:
    """The function a theorem runs with: a corollary label fixes f = log."""
    return LOG if which in COROLLARIES else fn


def audit_theorem(
    which: str,
    fn: ConvexFn,
    a: NumberSet,
    c: NumberSet | None = None,
    digits: int = 30,
) -> ChainReport:
    """Replay one theorem's proof chain on concrete sets.

    `which` is one of THEOREMS; a corollary label runs its chain with f = log.
    C defaults to f(A); a chain whose bound reads no C (T3) refuses one with
    DomainError.  Constant-free steps are PASS/FAIL (FAIL raises AuditFailure
    with the inputs); implied-constant steps are REPORT_ONLY ratios.  Returns the
    ordered steps plus the final exponent ratio.
    """
    if which not in THEOREMS:
        raise ValueError(f"which must be one of {', '.join(THEOREMS)}")
    fn, name = theorem_fn(which, fn), COROLLARIES.get(which, which)
    chain = CHAINS[name]
    if len(a) == 0:
        raise EmptyInputError("chains need a nonempty set")
    fn.require_audit_domain(a)
    if fn.kind == "log" and c is not None:
        raise DomainError("log-as-product chains only support the default C = f(A)")
    reads_c = any("C" in quantity[-1] for quantity in chain.final)  # the bound reads C
    if c is not None and not reads_c:
        raise DomainError(f"{name} takes no C set: its chain reads only A and f(A)")
    log_factor, clamped = clamped_log2(len(a))
    inputs = {"A": a} if c is None else {"A": a, "C": c}
    q = Quantities(inputs, fn, log_factor)
    flags = ["log|A| clamped to 1"] if clamped else []
    if fn.kind != "log" and reads_c:
        flags += _approx_flags(a, q.set("C"))
    steps = tuple(_raise_on_fail(_evaluate(s, q, tuple(flags), digits), inputs) for s in chain.steps)
    final = _value(q, tuple(chain.final.items()))
    return ChainReport(
        theorem=(fn.kind == "log" and chain.log_label) or name,
        steps=steps,
        final_ratio_exact=final,
        final_ratio=fraction_to_decimal(final, digits),
        flags=tuple(flags),
    )
