"""Exact point-curve incidence counting for translates of a convex graph.

An instance is a grid P = (A+B) x (f(A)+C) and the curve family
L = { graph(f) + (b, c) : (b, c) in B x C }.  Each curve is the injective
convex branch of a catalog function, so any two curves intersect at most
once and the incidence count obeys  I <= 4(PL)^(2/3) + 4P + L,  decided
exactly on integers (cube the rearranged inequality).  Counting runs on the
integer lattice Z/D of x, y, b and c: curve (b, c) passes through (x, y) iff
f(x - b) = y - c.  f is evaluated once per distinct x - b, and only the few
values that are also some y - c are kept.  The points each such value reaches
form a block, and points reached by the same values form classes, so the
count adds one block per pair of classes, not one entry per incidence.  The
counts read spectra (multiplicity -> how many points or sums carry it); rich
points and the level-set lemmas share the rule `energy.level_set_count`.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import ROUND_CEILING
from fractions import Fraction
from itertools import chain, count, repeat
from math import lcm
from operator import sub

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


def incidence_classes(grid: PointGrid, family: CurveFamily) -> Iterator[tuple[list[int], list[int], int]]:
    """Disjoint blocks (x indices, y indices, m) of the grid: each point of a block lies on m >= 1 curves.

    Counted on one integer lattice Z/D.  Curve (b, c) passes through (x, y) iff f(x - b) = y - c = w,
    for some w in W = f(X - B) & (Y - C); f is evaluated once per distinct x - b on its branch.  f is
    injective there, so w names one t_w, and x meets w at most once, through the x-slice t_w + B, as y
    does through the y-slice w + C.  A point lies on one curve per w in both signatures (the w whose
    slices hold its x, its y), and the xs, and the ys, of one signature form a class.  Points in no
    block lie on no curve.
    """
    d = lcm(grid.xs.denom, grid.ys.denom, family.b.denom, family.c.denom)
    xs, ys, bs, cs = (s.scaled(d) for s in (grid.xs, grid.ys, family.b, family.c))
    whole = family.fn.kind == "exp2"  # every other branch starts at t = 0, so at x >= b
    rows = (map(sub, xs[0 if whole else bisect_left(xs, b):], repeat(b)) for b in bs)
    # one key per distinct x - b (a dict's table is denser than a set's), dropped once evaluated
    t_of = family.fn.on_lattice(d)(dict.fromkeys(chain.from_iterable(rows)))
    common = set()
    for c in cs:
        common.update(t_of.keys() & map(sub, ys, repeat(c)))
    x_classes = _classes(xs, ((w, map(t_of[w].__add__, bs)) for w in common))
    y_classes = _classes(ys, ((w, map(w.__add__, cs)) for w in common))
    y_at: dict[int, list[int]] = {}
    for j, sig in enumerate(y_classes):
        for w in sig:
            y_at.setdefault(w, []).append(j)
    y_members = list(y_classes.values())
    for sig, members in x_classes.items():  # one y class may share several of sig's values: meet it once
        for j, m in Counter(chain.from_iterable(map(y_at.__getitem__, sig))).items():
            yield members, y_members[j], m


def _classes(points: list[int], slices) -> dict[tuple[int, ...], list[int]]:
    """Signature -> indices of the points whose signature it is, from (w, candidate points of w's slice)."""
    pos, sig = dict(zip(points, count())), {}
    for w, candidates in slices:
        for i in map(pos.__getitem__, filter(pos.__contains__, candidates)):
            sig.setdefault(i, []).append(w)
    classes = {}
    for i, s in sig.items():
        classes.setdefault(tuple(s), []).append(i)
    return classes


def count_incidences(grid: PointGrid, family: CurveFamily, taus: tuple[int, ...] = TAUS) -> IncidenceReport:
    """Exact incidence count, rich-point histogram and the incidence-bound verdict, from one spectrum.

    The spectrum (curves through a point -> how many points) adds |x class| |y class| per class pair.
    """
    times = Counter()
    for x_members, y_members, m in incidence_classes(grid, family):
        times[m] += len(x_members) * len(y_members)
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
