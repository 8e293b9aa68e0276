"""Inequality audits: constant-free checks and theorem-chain replays, run from step tables.

Each inequality is written once, as a step form that builds its LHS and RHS
from a per-call `Quantities` memo, so every set, energy moment and cross
energy is computed once per audit.  A table row, `Step`, applies a form to
named roles and gives the step's name, its kind and its exponent in the chain
identity.  DECIDED steps (Holder, Cauchy-Schwarz, the E_1.5 bridge) get exact
PASS/FAIL verdicts via compare_radical, on other sides than the reported ones
where the form returns them (the bridge is decided on both sides cubed).
REPORT_ONLY steps are bounds with an implied constant: never pass/fail, they
carry the exact ratio LHS/RHS of the constant-free parts, regression-pinned
against committed fixtures.

A chain is a table of steps plus its final exponent ratio, run by one interpreter:

  T1  Holder, E_1.5 bridge with B = -A, then the third-moment and
      cross-energy caps; final ratio |f(A)+C|^6 |A-A|^5 (log|A|)^2 / |A|^14.
  T2  Cauchy-Schwarz on |A+A|, the self-energy cap, the bridge with B = A,
      then the same two caps; final |f(A)+C|^10 |A+A|^9 (log|A|)^2 / |A|^24.
  T3  Cauchy-Schwarz twice, both self-energy caps, both bridges, and four
      caps, every shifted-image size pinned to |A+f(A)|;
      final |A+f(A)|^19 (log|A|)^2 / |A|^24.

With the log-as-product function the image sumset size |f(A)+f(A)| is
computed as |A*A|; the T1/T2 chains then audit the difference-product and
sum-product corollaries (labels C_diffprod / C_sumprod).

Each REPORT_ONLY ratio is an equality by definition, so a chain satisfies the
identity  final_ratio * prod(step_ratio^e) >= 1  with e the exponent in each
step's row; `chain_consistency_bounds` reads the exponents from the table and
re-derives the identity from intervals; tests assert it.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .comparison import (
    LADDER,
    compare_radical,
    decimal_of,
    fraction_to_decimal,
    log2_upper,
    power_product,
    ratio_bounds,
)
from .energy import EnergyReport, energy, energy_report
from .errors import AuditFailure, DomainError, EmptyInputError
from .functions import LOG, ConvexFn, apply_fn
from .sets import NumberSet, PairCounts, pair_counts

PASS, FAIL, REPORT_ONLY = "PASS", "FAIL", "REPORT_ONLY"
DECIDED = "PASS/FAIL"

LOG_PREC_BITS = 100  # ~30 digits; log sizes enter as exact dyadic upper bounds

ONE_THIRD, TWO_THIRDS, THREE_HALVES = Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)


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
        return ratio_bounds(self.lhs_value, self.rhs_value, prec)


class Quantities:
    """The sets and numbers one audit call reads, each computed at most once.

    Sets are named by role ("A", "B", "C", "F", the image "f(A)", "-A") or as
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
        if name == "-A":
            return self.set("A").negate()
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
            if found and x:
                return pair_counts(self.set(x), self.set(y), op)
        return None

    def size(self, name: str) -> int:
        pairs = self._pairs(name)
        return len(self.set(name) if pairs is None else pairs)

    def moments(self, name: str) -> EnergyReport:
        name = "A" if name == "-A" else name  # delta_{-A}(s) = delta_A(-s): the same moments
        return self._once(("moments", name), lambda: energy_report(self.set(name)))

    def cross(self, x: str, y: str) -> int:
        """E(X, Y); the diagonal E(X) is read from `moments`."""
        if x == y:
            return self.moments(x).E
        return self._once(("cross", x, y), lambda: energy(self.set(x), self.set(y)))


# Step forms map a call's Quantities and a row's roles to (lhs, rhs), or to
# (lhs, rhs, decided) when the verdict compares other sides than it reports.


def holder_lower(q: Quantities, x: str) -> tuple:
    """|X|^6 <= E_1.5(X)^2 |X-X|."""
    return q.size(x) ** 6, q.moments(x).E15 ** 2 * q.size(f"{x}-{x}")


def e15_bridge(q: Quantities, x: str, y: str, x_plus_y: str) -> tuple:
    """E_1.5(X)^2 |Y|^2 <= E_3(X)^(2/3) E_3(Y)^(1/3) E(X, X+Y), decided on both sides cubed.

    Cubed, the left is an integer-coefficient radical sum and the right an integer.
    """
    mx, my, exy, ny = q.moments(x), q.moments(y), q.cross(x, x_plus_y), q.size(y)
    lhs = mx.E15 ** 2 * ny ** 2
    rhs = power_product((mx.E3, TWO_THIRDS), (my.E3, ONE_THIRD), (exy, 1))
    return lhs, rhs, (power_product((mx.E15, 6), (ny, 6)), mx.E3 ** 2 * my.E3 * exy ** 3)


def cauchy_schwarz(q: Quantities, x: str, y: str, x_op_y: str) -> tuple:
    """|X|^2 |Y|^2 <= E(X, Y) |X op Y|, op + or -."""
    return q.size(x) ** 2 * q.size(y) ** 2, q.cross(x, y) * q.size(x_op_y)


def cauchy_schwarz_split(q: Quantities, x: str, y: str) -> tuple:
    """E(X, Y)^2 <= E(X) E(Y)."""
    return q.cross(x, y) ** 2, q.moments(x).E * q.moments(y).E


def energy_cap(q: Quantities, x: str, shifted: str) -> tuple:
    """E(X) << E_1.5(X)^(2/3) |shifted|^(2/3) |X|^(1/3)."""
    m = q.moments(x)
    return m.E, power_product((m.E15, TWO_THIRDS), (q.size(shifted), TWO_THIRDS), (q.size(x), ONE_THIRD))


def cross_energy_cap(q: Quantities, x: str, shifted: str, f: str) -> tuple:
    """E(X, F) << |shifted| |F|^(3/2)."""
    return q.cross(x, f), power_product((q.size(shifted), 1), (q.size(f), THREE_HALVES))


def third_energy_cap(q: Quantities, x: str, shifted: str) -> tuple:
    """E_3(X) << |shifted|^2 |X| log|A|."""
    return q.moments(x).E3, Fraction(q.size(shifted) ** 2 * q.size(x)) * q.log


@dataclass(frozen=True)
class Step:
    """One table entry: a named step form applied to roles of the call."""

    name: str
    form: Callable[..., tuple]
    roles: tuple[str, ...]
    kind: str = DECIDED  # or REPORT_ONLY: an implied-constant bound, reported as a ratio
    exponent: int = 0  # power of the step's ratio in the chain identity


@dataclass(frozen=True)
class Chain:
    """One proof route: its steps in order and its final exponent ratio."""

    steps: tuple[Step, ...]
    final: Callable[[Quantities], Fraction]
    log_label: str | None = None  # the corollary the chain audits when f = log

    @property
    def reads_c(self) -> bool:
        """Whether a step reads C; only then do the |A| ~ |C| flags apply."""
        return any("C" in role for step in self.steps for role in step.roles)


HOLDER = Step("holder_lower", holder_lower, ("A",))
CS_SUM = Step("cs_sum", cauchy_schwarz, ("A", "A", "A+A"))
CHAINS = {
    "T1": Chain(
        (
            HOLDER,
            Step("e15_bridge", e15_bridge, ("A", "-A", "A-A")),
            Step("third_energy_cap", third_energy_cap, ("A", "f(A)+C"), REPORT_ONLY, 2),
            Step("cross_energy_cap", cross_energy_cap, ("A", "f(A)+C", "A-A"), REPORT_ONLY, 2),
        ),
        lambda q: Fraction(q.size("f(A)+C") ** 6 * q.size("A-A") ** 5) * q.log ** 2 / q.size("A") ** 14,
        log_label="C_diffprod",
    ),
    "T2": Chain(
        (
            CS_SUM,
            Step("energy_cap", energy_cap, ("A", "f(A)+C"), REPORT_ONLY, 6),
            Step("e15_bridge", e15_bridge, ("A", "A", "A+A")),
            Step("third_energy_cap", third_energy_cap, ("A", "f(A)+C"), REPORT_ONLY, 2),
            Step("cross_energy_cap", cross_energy_cap, ("A", "f(A)+C", "A+A"), REPORT_ONLY, 2),
        ),
        lambda q: Fraction(q.size("f(A)+C") ** 10 * q.size("A+A") ** 9) * q.log ** 2 / q.size("A") ** 24,
        log_label="C_sumprod",
    ),
    "T3": Chain(
        (
            Step("cs_cross_sumset", cauchy_schwarz, ("A", "f(A)", "A+f(A)")),
            Step("cs_cross_split", cauchy_schwarz_split, ("A", "f(A)")),
            Step("energy_cap", energy_cap, ("A", "A+f(A)"), REPORT_ONLY, 3),
            Step("energy_cap_image", energy_cap, ("f(A)", "A+f(A)"), REPORT_ONLY, 3),
            Step("e15_bridge", e15_bridge, ("A", "f(A)", "A+f(A)")),
            Step("e15_bridge_image", e15_bridge, ("f(A)", "A", "A+f(A)")),
            Step("third_energy_cap", third_energy_cap, ("A", "A+f(A)"), REPORT_ONLY, 1),
            Step("third_energy_cap_image", third_energy_cap, ("f(A)", "A+f(A)"), REPORT_ONLY, 1),
            Step("cross_energy_cap", cross_energy_cap, ("A", "A+f(A)", "A+f(A)"), REPORT_ONLY, 1),
            Step("cross_energy_cap_image", cross_energy_cap, ("f(A)", "A+f(A)", "A+f(A)"), REPORT_ONLY, 1),
        ),
        lambda q: Fraction(q.size("A+f(A)") ** 19) * q.log ** 2 / q.size("A") ** 24,
    ),
}
# A corollary label runs its chain with f = log.
COROLLARIES = {chain.log_label: name for name, chain in CHAINS.items() if chain.log_label}
THEOREMS = (*CHAINS, *COROLLARIES)

LEMMA_E15 = Step("e15_bridge", e15_bridge, ("A", "B", "A+B"))
CAUCHY_SCHWARZ = {
    "sum": (CS_SUM,),
    "diff": (Step("cs_diff", cauchy_schwarz, ("A", "A", "A-A")),),
    "cross": (
        Step("cs_cross_sumset", cauchy_schwarz, ("A", "F", "A+F")),
        Step("cs_cross_split", cauchy_schwarz_split, ("A", "F")),
    ),
}
# The caps of A against |f(A)+C|, then of f(A) against |A+C|.
COROLLARY_CAPS = (
    Step("energy_cap", energy_cap, ("A", "f(A)+C"), REPORT_ONLY),
    Step("cross_energy_cap", cross_energy_cap, ("A", "f(A)+C", "F"), REPORT_ONLY),
    Step("third_energy_cap", third_energy_cap, ("A", "f(A)+C"), REPORT_ONLY),
    Step("energy_cap_image", energy_cap, ("f(A)", "A+C"), REPORT_ONLY),
    Step("cross_energy_cap_image", cross_energy_cap, ("f(A)", "A+C", "F"), REPORT_ONLY),
    Step("third_energy_cap_image", third_energy_cap, ("f(A)", "A+C"), REPORT_ONLY),
)


def _evaluate(step: Step, q: Quantities, flags: tuple[str, ...] = (), digits: int = 30) -> AuditReport:
    """Run one table entry; REPORT_ONLY steps carry `flags`, decided ones none."""
    lhs, rhs, *decided = step.form(q, *step.roles)
    if step.kind == REPORT_ONLY:
        verdict = REPORT_ONLY
    else:
        verdict = PASS if compare_radical(*(decided[0] if decided else (lhs, rhs))) <= 0 else FAIL
        flags = ()
    return AuditReport(
        name=step.name,
        verdict=verdict,
        lhs=decimal_of(lhs, digits),
        rhs=decimal_of(rhs, digits),
        ratio=decimal_of(lhs, digits, den=rhs),
        hypothesis_flags=tuple(flags),
        lhs_value=lhs,
        rhs_value=rhs,
    )


def check_lemma_e15(a: NumberSet, b: NumberSet, digits: int = 30) -> AuditReport:
    """E_1.5(A)^2 |B|^2 <= E_3(A)^(2/3) E_3(B)^(1/3) E(A, A+B), decided exactly."""
    return _evaluate(LEMMA_E15, Quantities({"A": a, "B": b}), digits=digits)


def check_holder(a: NumberSet, digits: int = 30) -> AuditReport:
    """|A|^6 <= E_1.5(A)^2 |A-A|, decided exactly on radical sums."""
    return _evaluate(HOLDER, Quantities({"A": a}), digits=digits)


def check_cauchy_schwarz(
    a: NumberSet, mode: str, f: NumberSet | None = None, digits: int = 30
) -> tuple[AuditReport, ...]:
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
    return tuple(_evaluate(step, q, digits=digits) for step in CAUCHY_SCHWARZ[mode])


def clamped_log2(n: int) -> tuple[Fraction, bool]:
    """Dyadic upper bound of log2(n), clamped to 1 so it never vanishes."""
    value = log2_upper(n, LOG_PREC_BITS)
    if value < 1:
        return Fraction(1), True
    return value, False


def _approx_flags(a: NumberSet, c: NumberSet, f: NumberSet | None = None) -> list[str]:
    if len(c) == 0:
        raise EmptyInputError("C must be nonempty")
    flags = []
    if not Fraction(1, 2) <= Fraction(len(a), len(c)) <= 2:
        flags.append("|A| !~ |C| (factor-2)")
    if f is not None and len(c) > len(f):
        flags.append("|C| > |F|")
    return flags


def corollary_e3a_ratios(
    fn: ConvexFn, a: NumberSet, c: NumberSet, f: NumberSet, digits: int = 30
) -> list[AuditReport]:
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
    return [_evaluate(step, q, flags, digits) for step in COROLLARY_CAPS]


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


def chain_consistency_bounds(chain: ChainReport, prec: int = LADDER[0]) -> tuple[Fraction, Fraction]:
    """Interval enclosure of final_ratio * prod(step_ratio^e); always >= 1 exactly."""
    table = CHAINS[COROLLARIES.get(chain.theorem, chain.theorem)]
    exps = {step.name: step.exponent for step in table.steps}
    lo = hi = chain.final_ratio_exact
    for step in chain.report_only_steps():
        e = exps[step.name]
        slo, shi = step.ratio_bounds(prec)
        lo *= slo ** e
        hi *= shi ** e
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
    Constant-free steps are PASS/FAIL (FAIL raises AuditFailure with the
    inputs); implied-constant steps are REPORT_ONLY ratios.  Returns the
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
    log_factor, clamped = clamped_log2(len(a))
    inputs = {"A": a} if c is None else {"A": a, "C": c}
    q = Quantities(inputs, fn, log_factor)
    flags = ["log|A| clamped to 1"] if clamped else []
    if chain.reads_c and fn.kind != "log":
        flags += _approx_flags(a, q.set("C"))
    steps = tuple(_raise_on_fail(_evaluate(step, q, tuple(flags), digits), inputs) for step in chain.steps)
    final = chain.final(q)
    return ChainReport(
        theorem=(fn.kind == "log" and chain.log_label) or name,
        steps=steps,
        final_ratio_exact=final,
        final_ratio=fraction_to_decimal(final, digits),
        flags=tuple(flags),
    )
