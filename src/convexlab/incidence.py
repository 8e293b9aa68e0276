"""Exact point-curve incidence counting for translates of a convex graph.

An instance is a grid P = (A+B) x (f(A)+C) and the curve family
L = { graph(f) + (b, c) : (b, c) in B x C }.  Each curve is the injective
convex branch of a catalog function, so any two curves intersect at most
once and the incidence count obeys  I <= 4(PL)^(2/3) + 4P + L,  checked
exactly (cube the rearranged inequality).  Counting is a hash join over
curves: per curve iterate x in A+B and test y-membership; the hot kernels
for square/power/reciprocal run on the scaled-integer lattice.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_CEILING
from fractions import Fraction
from math import lcm

from .comparison import compare_radical, decimal_of, fraction_to_decimal, power_product, root_bounds
from .errors import EmptyInputError
from .functions import ConvexFn, apply_fn
from .sets import NumberSet, pair_counts, sumset

Counters = dict[tuple[int, int], int]


@dataclass(frozen=True)
class PointGrid:
    xs: NumberSet
    ys: NumberSet

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)


@dataclass(frozen=True)
class CurveFamily:
    fn: ConvexFn
    shifts: tuple[tuple[Fraction, Fraction], ...]  # curve y = f(x - b) + c

    def __len__(self) -> int:
        return len(self.shifts)


@dataclass(frozen=True)
class IncidenceReport:
    incidences: int
    points: int
    curves: int
    rich_points: dict[int, int]
    max_point_curves: int
    st_bound_holds: bool

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "incidences": self.incidences,
            "points": self.points,
            "curves": self.curves,
            "stBoundDecimal": st_bound_decimal(self.points, self.curves, digits),
            "richPoints": {str(t): c for t, c in sorted(self.rich_points.items())},
            "maxPointCurves": self.max_point_curves,
            "stBoundHolds": self.st_bound_holds,
        }


def build_instance(fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet) -> tuple[PointGrid, CurveFamily]:
    """P = (A+B) x (f(A)+C) and one curve per (b, c) in B x C."""
    if len(a) == 0 or len(b) == 0 or len(c) == 0:
        raise EmptyInputError("instances need nonempty A, B, C")
    fn.require_audit_domain(a)
    fa = apply_fn(fn, a)
    grid = PointGrid(xs=sumset(a, b), ys=sumset(fa, c))
    shifts = tuple((bb, cc) for bb in b.elements for cc in c.elements)
    return grid, CurveFamily(fn=fn, shifts=shifts)


def _count_generic(grid: PointGrid, curves, fn: ConvexFn) -> Counters:
    """Fraction-arithmetic membership path (exp2 and any odd cases)."""
    y_index = {y: i for i, y in enumerate(grid.ys.elements)}
    hits: Counters = {}
    for b, c in curves:
        for xi, x in enumerate(grid.xs.elements):
            v = fn.evaluate_on_graph(x - b)
            if v is None:
                continue
            yi = y_index.get(v + c)
            if yi is not None:
                key = (xi, yi)
                hits[key] = hits.get(key, 0) + 1
    return hits


def _count_scaled(grid: PointGrid, curves, fn: ConvexFn) -> Counters:
    """Integer-lattice membership kernels for square/power/reciprocal."""
    xs_i, lx = grid.xs.scaled()
    ys_i, ly = grid.ys.scaled()
    bs = sorted({b for b, _ in curves} | {c for _, c in curves})
    lb = lcm(*(q.denominator for q in bs)) if bs else 1
    denom = lcm(lx, ly, lb)
    xs = [v * (denom // lx) for v in xs_i]
    ys = [v * (denom // ly) for v in ys_i]
    y_index = {v: i for i, v in enumerate(ys)}
    k = fn.k if fn.kind == "power" else (2 if fn.kind == "square" else 1)
    hits: Counters = {}
    if fn.kind in ("square", "power"):
        dpow = denom ** (k - 1)
        y_scaled = {v * dpow: i for v, i in y_index.items()}
        for b, c in curves:
            bi = b.numerator * (denom // b.denominator)
            ci = c.numerator * (denom // c.denominator)
            cd = ci * dpow
            for xi, x in enumerate(xs):
                t = x - bi
                if t < 0:
                    continue
                yi = y_scaled.get(t ** k + cd)
                if yi is not None:
                    key = (xi, yi)
                    hits[key] = hits.get(key, 0) + 1
    elif fn.kind == "reciprocal":
        d2 = denom * denom
        for b, c in curves:
            bi = b.numerator * (denom // b.denominator)
            ci = c.numerator * (denom // c.denominator)
            for xi, x in enumerate(xs):
                t = x - bi
                if t <= 0 or d2 % t:
                    continue
                yi = y_index.get(d2 // t + ci)
                if yi is not None:
                    key = (xi, yi)
                    hits[key] = hits.get(key, 0) + 1
    else:
        raise ValueError(f"no scaled kernel for {fn.kind}")
    return hits


def count_incidences(
    grid: PointGrid,
    family: CurveFamily,
    taus: tuple[int, ...] = (1, 2, 4, 8),
    workers: int = 1,
) -> IncidenceReport:
    """Exact incidence count, rich-point histogram, and the incidence-bound verdict.

    Parallel mode chunks the curve list; per-chunk counters merge additively
    in submission order, so the report is identical to the serial one.
    """
    fn = family.fn
    counter_fn = _count_generic if fn.kind == "exp2" else _count_scaled
    if len(family) == 0:
        hits: Counters = {}
    elif workers <= 1:
        hits = counter_fn(grid, family.shifts, fn)
    else:
        chunk = -(-len(family.shifts) // workers)
        parts = [family.shifts[i:i + chunk] for i in range(0, len(family.shifts), chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda cs: counter_fn(grid, cs, fn), parts))
        hits = {}
        for part in partials:
            for key, n in part.items():
                hits[key] = hits.get(key, 0) + n
    incidences = sum(hits.values())
    max_point = max(hits.values(), default=0)
    rich = {t: sum(1 for v in hits.values() if v >= t) for t in taus}
    p, l = len(grid), len(family)
    return IncidenceReport(
        incidences=incidences,
        points=p,
        curves=l,
        rich_points=rich,
        max_point_curves=max_point,
        st_bound_holds=st_bound_check(incidences, p, l),
    )


def st_bound_check(incidences: int, points: int, curves: int) -> bool:
    """Exact verdict of  I <= 4(PL)^(2/3) + 4P + L.

    Rearranged so the only irrational term stands alone, then cubed:
    I - 4P - L <= 0, or (I - 4P - L)^3 <= 64 (PL)^2, decided by compare_radical.
    """
    excess = incidences - 4 * points - curves
    if excess <= 0:
        return True
    lhs = power_product((excess, 3))
    rhs = power_product((64, 1), (points * curves, 2))
    return compare_radical(lhs, rhs) <= 0


def st_bound_decimal(points: int, curves: int, digits: int = 30) -> str:
    """Decimal (round-up) rendering of 4(PL)^(2/3) + 4P + L."""
    pl = points * curves
    _, cbrt_hi = root_bounds(Fraction(pl * pl), 3, 192)
    return decimal_of(4 * cbrt_hi + 4 * points + curves, digits, ROUND_CEILING)


@dataclass(frozen=True)
class LevelSetReport:
    """One tau level-set comparison against the constant-free incidence bound."""

    name: str
    tau: int
    lhs: int
    rhs: Fraction
    ratio: Fraction
    hypothesis_ok: bool
    flags: tuple[str, ...] = ()

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "name": self.name,
            "tau": self.tau,
            "lhs": self.lhs,
            "rhs": fraction_to_decimal(self.rhs, digits),
            "ratio": fraction_to_decimal(self.ratio, digits),
            "hypothesisOk": self.hypothesis_ok,
            "flags": list(self.flags),
        }


def _hypothesis_flags(a: NumberSet, b: NumberSet, c: NumberSet) -> tuple[bool, tuple[str, ...]]:
    ok = len(b) * len(c) >= len(a) ** 2
    flags = () if ok else ("|B||C| < |A|^2",)
    return ok, flags


def _level_ratio(
    name: str, fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int, sigma_of_image: bool
) -> LevelSetReport:
    """Level sets of one sigma against the other side's sumset: the body of both lemmas."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    fn.require_audit_domain(a)
    fa = apply_fn(fn, a)
    # st1 counts sigma(f(A), C) against |A+B|, st2 counts sigma(A, B) against |f(A)+C|;
    # both sigmas are the sumset histograms, kept on A and f(A) across taus and lemmas
    (x, y), (u, v) = ((fa, c), (a, b)) if sigma_of_image else ((a, b), (fa, c))
    lhs = sum(t for m, t in pair_counts(x, y, "+").spectrum.items() if m >= tau)
    rhs = Fraction(len(pair_counts(u, v, "+")) ** 2 * len(y) ** 2, len(v) * tau ** 3)
    ok, flags = _hypothesis_flags(a, b, c)
    return LevelSetReport(name, tau, lhs, rhs, Fraction(lhs) / rhs, ok, flags)


def lemma_st1_ratio(fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int) -> LevelSetReport:
    """Level sets of sigma(f(A), C) against |A+B|^2 |C|^2 / (|B| tau^3)."""
    return _level_ratio("sum_level_image", fn, a, b, c, tau, sigma_of_image=True)


def lemma_st2_ratio(fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int) -> LevelSetReport:
    """Level sets of sigma(A, B) against |f(A)+C|^2 |B|^2 / (|C| tau^3)."""
    return _level_ratio("sum_level_ground", fn, a, b, c, tau, sigma_of_image=False)
