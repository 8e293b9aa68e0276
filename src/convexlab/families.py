"""Structured set families and growth-exponent scans.

Generation is pure in (kind, n, seed).  The convex kinds (squares, powers,
geometric, random-convex) produce strictly increasing gaps, which the tests
assert.  growth_scan measures |A+A|, |A-A|, |A*A|, |A+f(A)| across sizes and
fits base-2 log-log slopes by least squares; logs are exact dyadic upper
bounds so the whole fit is rational arithmetic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .comparison import fraction_to_decimal, log2_upper
from .functions import ConvexFn, apply_fn
from .seeding import derive_seed
from .sets import NumberSet, count_pairs

CONVEX_KINDS = ("squares", "powers", "geometric", "random-convex")
ALL_KINDS = ("AP",) + CONVEX_KINDS + ("random-uniform",)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int
    seed: int = 0
    power: int = 3                      # for kind == "powers"
    ratio: Fraction = Fraction(2)       # for kind == "geometric"
    start: Fraction = Fraction(0)       # for kind == "AP"
    step: Fraction = Fraction(1)        # for kind == "AP"


def generate(spec: FamilySpec) -> NumberSet:
    """Deterministic family member with exactly n elements."""
    if spec.n < 1:
        raise ValueError("families need n >= 1")
    kind, n = spec.kind, spec.n
    if kind == "AP":
        if spec.step <= 0:
            raise ValueError("AP step must be positive")
        return NumberSet(spec.start + spec.step * i for i in range(n))
    if kind == "squares":
        return NumberSet(Fraction(i * i) for i in range(1, n + 1))
    if kind == "powers":
        if spec.power < 2:
            raise ValueError("powers kind needs power >= 2")
        return NumberSet(Fraction(i ** spec.power) for i in range(1, n + 1))
    if kind == "geometric":
        if spec.ratio <= 1:
            raise ValueError("geometric ratio must exceed 1")
        out, cur = [], Fraction(1)
        for _ in range(n):
            out.append(cur)
            cur *= spec.ratio
        return NumberSet(out)
    if kind == "random-convex":
        rng = random.Random(derive_seed(spec.seed, f"random-convex/{n}"))
        elements = [Fraction(1)]
        gap = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(n - 1):
            elements.append(elements[-1] + gap)
            gap += Fraction(rng.randint(1, 8), rng.randint(1, 4))
        return NumberSet(elements)
    if kind == "random-uniform":
        rng = random.Random(derive_seed(spec.seed, f"random-uniform/{n}"))
        vals: set[Fraction] = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-(10 ** 6), 10 ** 6), rng.randint(1, 1000)))
        return NumberSet(vals)
    raise ValueError(f"unknown family kind {kind!r}")


@dataclass(frozen=True)
class ScanRow:
    kind: str
    n: int
    sumset: int
    diffset: int
    prodset: int | None
    a_plus_fa: int | None
    slopes: dict[str, Fraction | None] = field(default_factory=dict)


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    ls_slopes: dict[str, Fraction]
    enr_min_sq: dict[str, Fraction]   # min over rows of (|A+-A| / n^1.5)^2, convex kinds


_METRICS = ("sumset", "diffset", "prodset", "a_plus_fa")


def _ls_slope(points: list[tuple[Fraction, Fraction]]) -> Fraction | None:
    if len(points) < 2:
        return None
    xm = sum(x for x, _ in points) / len(points)
    ym = sum(y for _, y in points) / len(points)
    den = sum((x - xm) ** 2 for x, _ in points)
    if den == 0:
        return None
    return sum((x - xm) * (y - ym) for x, y in points) / den


def growth_scan(kind: str, fn: ConvexFn | None, sizes: list[int], seed: int = 0) -> ScanResult:
    """Measure combination-set growth for one family across increasing sizes."""
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    if sizes and sizes[-1] > 4096:
        raise ValueError("scans are desk-scale: sizes up to 4096")
    rows: list[ScanRow] = []
    series: dict[str, list[tuple[Fraction, Fraction]]] = {m: [] for m in _METRICS}
    for n in sizes:
        a = generate(FamilySpec(kind=kind, n=n, seed=seed))
        # sizes alone: each count is read once, so it is neither kept nor counted by multiplicity
        values = {"sumset": len(count_pairs(a, a, "+")), "diffset": len(count_pairs(a, a, "-")),
                  "prodset": len(count_pairs(a, a, "*")) if a.is_strictly_positive() else None,
                  "a_plus_fa": None if fn is None else len(count_pairs(a, apply_fn(fn, a), "+"))}
        logn = log2_upper(n)
        slopes: dict[str, Fraction | None] = dict.fromkeys(_METRICS)
        for m, v in values.items():
            if v is not None:
                series[m].append((logn, log2_upper(v)))
                if len(series[m]) > 1:  # the step slope from this metric's previous size
                    (px, py), (x, y) = series[m][-2:]
                    slopes[m] = (y - py) / (x - px)
        rows.append(ScanRow(kind=kind, n=n, **values, slopes=slopes))
    ls = {m: s for m in _METRICS if (s := _ls_slope(series[m])) is not None}
    enr = (("diff", "diffset"), ("sum", "sumset")) if kind in CONVEX_KINDS and rows else ()
    enr_min_sq = {key: min(Fraction(getattr(r, m) ** 2, r.n ** 3) for r in rows) for key, m in enr}
    return ScanResult(rows=tuple(rows), ls_slopes=ls, enr_min_sq=enr_min_sq)


def scan_to_tsv(result: ScanResult, digits: int = 30) -> str:
    """TSV rendering: one row per size plus '#' trailer lines with the fits."""
    def dec(v: Fraction | None) -> str:
        return "" if v is None else fraction_to_decimal(v, digits)

    lines = ["kind\tn\tsumset\tdiffset\tprodset\ta_plus_fa\t"
             "slope_sumset\tslope_diffset\tslope_prodset\tslope_a_plus_fa"]
    for r in result.rows:
        cells = [r.kind, str(r.n), str(r.sumset), str(r.diffset),
                 "" if r.prodset is None else str(r.prodset),
                 "" if r.a_plus_fa is None else str(r.a_plus_fa)]
        cells += [dec(r.slopes.get(m)) for m in _METRICS]
        lines.append("\t".join(cells))
    for m, s in sorted(result.ls_slopes.items()):
        lines.append(f"# ls_slope_{m}\t{dec(s)}")
    for key, sq in sorted(result.enr_min_sq.items()):
        lines.append(f"# enr_min_{key}_ratio_sq\t{sq.numerator}/{sq.denominator}")
    return "\n".join(lines) + "\n"
