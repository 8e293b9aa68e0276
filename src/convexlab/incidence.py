"""Exact point-curve incidence counting for translates of a convex graph.

An instance is a grid P = (A+B) x (f(A)+C) and the curve family
L = { graph(f) + (b, c) : (b, c) in B x C }.  Each curve is the injective
convex branch of a catalog function, so any two curves intersect at most
once and the incidence count obeys  I <= 4(PL)^(2/3) + 4P + L,  decided
exactly on integers (cube the rearranged inequality).  Counting runs on the
integer lattice Z/D of x, y, b and c: curve (b, c) passes through (x, y) iff
f(x - b) = y - c, so the work is |X||B| evaluations of f, indexed by value, and
|Y||C| lookups of y - c.  The counts read spectra (multiplicity -> how many
points or sums carry it); rich points and the level-set lemmas share the rule
`energy.level_set_count`.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import ROUND_CEILING
from fractions import Fraction
from itertools import chain
from math import lcm

from .comparison import fraction_to_decimal, root_bounds
from .energy import level_set_count
from .errors import EmptyInputError
from .functions import ConvexFn, apply_fn
from .sets import NumberSet, pair_counts, sumset

TAUS = (1, 2, 4, 8)  # the default richness thresholds


@dataclass(frozen=True)
class PointGrid:
    xs: NumberSet
    ys: NumberSet

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)


@dataclass(frozen=True)
class CurveFamily:
    """The curves y = f(x - b) + c for (b, c) in B x C."""

    fn: ConvexFn
    b: NumberSet
    c: NumberSet

    @property
    def shifts(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((bb, cc) for bb in self.b for cc in self.c)

    def __len__(self) -> int:
        return len(self.b) * len(self.c)


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
    return grid, CurveFamily(fn=fn, b=b, c=c)


def incidence_hits(grid: PointGrid, family: CurveFamily) -> Iterator[tuple[int, Counter]]:
    """(y index, Counter of x index -> curves through (x, y)) for each y, counted on one integer lattice Z/D.

    Curve (b, c) passes through (x, y) iff f(x - b) = y - c: w = D*f((x - b)/D) is computed
    once per (x, b) by `ConvexFn.on_lattice` and indexed w -> [x index], and each (y, c) is one lookup.
    """
    d = lcm(grid.xs.denom, grid.ys.denom, family.b.denom, family.c.denom)
    xs, ys, bs, cs = (s.scaled(d) for s in (grid.xs, grid.ys, family.b, family.c))
    f, at = family.fn.on_lattice(d), {}
    for b in bs:
        for xi, x in enumerate(xs):
            if (w := f(x - b)) is not None:
                at.setdefault(w, []).append(xi)
    for yi, y in enumerate(ys):
        yield yi, Counter(chain.from_iterable(at.get(y - c, ()) for c in cs))


def count_incidences(grid: PointGrid, family: CurveFamily, taus: tuple[int, ...] = TAUS) -> IncidenceReport:
    """Exact incidence count, rich-point histogram and the incidence-bound verdict, from one spectrum of the hits."""
    times = Counter(chain.from_iterable(through.values() for _, through in incidence_hits(grid, family)))
    incidences = sum(m * t for m, t in times.items())
    p, l = len(grid), len(family)
    return IncidenceReport(
        incidences=incidences,
        points=p,
        curves=l,
        rich_points={tau: level_set_count(times, tau) for tau in taus},
        max_point_curves=max(times, default=0),
        st_bound_holds=st_bound_check(incidences, p, l),
    )


def st_bound_check(incidences: int, points: int, curves: int) -> bool:
    """Exact verdict of  I <= 4(PL)^(2/3) + 4P + L  on integers.

    Rearranged so the only irrational term stands alone, then cubed:
    I - 4P - L <= 0, or (I - 4P - L)^3 <= 64 (PL)^2.
    """
    excess = incidences - 4 * points - curves
    return excess <= 0 or excess ** 3 <= 64 * (points * curves) ** 2


def st_bound_decimal(points: int, curves: int, digits: int = 30) -> str:
    """Decimal (round-up) rendering of 4(PL)^(2/3) + 4P + L."""
    pl = points * curves
    _, cbrt_hi = root_bounds(Fraction(pl * pl), 3, 192)
    return fraction_to_decimal(4 * cbrt_hi + 4 * points + curves, digits, ROUND_CEILING)


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


def _level_ratio(
    name: str, fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int, sigma_of_image: bool
) -> LevelSetReport:
    """Level sets of one sigma against the other side's sumset: the body of both lemmas."""
    fn.require_audit_domain(a)
    fa = apply_fn(fn, a)
    # st1 counts sigma(f(A), C) against |A+B|, st2 counts sigma(A, B) against |f(A)+C|;
    # both sigmas are the sumset histograms, kept on A and f(A) across taus and lemmas
    (x, y), (u, v) = ((fa, c), (a, b)) if sigma_of_image else ((a, b), (fa, c))
    lhs = level_set_count(pair_counts(x, y, "+").spectrum, tau)
    rhs = Fraction(len(pair_counts(u, v, "+")) ** 2 * len(y) ** 2, len(v) * tau ** 3)
    ok = len(b) * len(c) >= len(a) ** 2
    return LevelSetReport(name, tau, lhs, rhs, Fraction(lhs) / rhs, ok, () if ok else ("|B||C| < |A|^2",))


def lemma_st1_ratio(fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int) -> LevelSetReport:
    """Level sets of sigma(f(A), C) against |A+B|^2 |C|^2 / (|B| tau^3)."""
    return _level_ratio("sum_level_image", fn, a, b, c, tau, sigma_of_image=True)


def lemma_st2_ratio(fn: ConvexFn, a: NumberSet, b: NumberSet, c: NumberSet, tau: int) -> LevelSetReport:
    """Level sets of sigma(A, B) against |f(A)+C|^2 |B|^2 / (|C| tau^3)."""
    return _level_ratio("sum_level_ground", fn, a, b, c, tau, sigma_of_image=False)
