"""Finite sets of exact rationals in scaled-integer form, and the one pair kernel.

A `NumberSet` is kept as `(ints, denom)`: elements ints[i] / denom, `ints`
strictly increasing, `denom` the lcm of the reduced denominators (one gcd pass
brings any lattice to it), so equal sets have equal forms.  The Fractions of
`elements` are built only when read, in the same order.

Every pairwise loop is `pair_counts(a, b, op)`, the multiplicity histogram of
x op y over A x B for op in + - * (+ and - on the lattice lcm(denom_a, denom_b),
* on denom_a * denom_b).  Set sizes, combination sets and energy moments all
read it.  It is kept on `a`, keyed by (op, b), and dropped when `a` or `b`
dies; `count_pairs` is the same count unkept, for sets that are read once.

numpy counts only counts of NUMPY_MIN_PAIRS pairs or more, on one of two paths
chosen from the inputs before the count starts; it is imported then.  Both
sort one key per pair and read each run of equal keys as one value (`_runs`).

* Where int64 is proven (max|x| + max|y| < 2**62 for + and -, max|x| * max|y|
  < 2**62 for *), the key is the value itself.
* Otherwise, for + and - on a lattice narrower than P1 * P2 (about 2**123),
  the key is the value modulo the prime P1 = 2**61 - 31.  Neighbours in a run
  are checked modulo P2, which is coprime to P1: two values equal modulo both
  differ by a multiple of P1 * P2, so they are equal.  If a run disagrees
  modulo P2, the count reruns in Python.  Each value is kept as one
  representative pair and built only when read.

All other counts (* on wide lattices, wider lattices, small counts), and all
counts without numpy, run in pure Python on exact ints, with the same result.
Counts above PAIR_BUDGET pairs fail before they start.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, starmap
from math import gcd, lcm
from operator import add, mul, sub
from weakref import ref

from .errors import EmptyInputError, ParseError, over_budget

Scalar = Fraction

PAIR_BUDGET = 1 << 25  # pairs in one count; T3 on random-convex n=256 needs 16.8M
# Against the Python Counter on distinct random values (2 vCPUs, numpy 2.4), the int64
# path wins from 256 pairs and is 8x faster at 4,096; the residue path on a 113-bit
# lattice wins from 600-1,000 pairs and is 2.7x faster at 4,096.  A search step
# (24 x 24 pairs) and an incidence instance (at most 22 x 22) stay below the
# threshold, so they never pay numpy's import (about 130 ms and 14 MB).
NUMPY_MIN_PAIRS = 1 << 11
INT64_SAFE = 1 << 62
# A prime: residues below it, and sums of two, fit int64.  2 has order (P1 - 1) / 8
# modulo it, so no two powers of two share a residue; modulo the Mersenne prime
# 2**61 - 1, 2**k and 2**(k + 61) do, and their counts would rerun in Python.
P1 = (1 << 61) - 31
P2 = (1 << 62) - 57  # coprime to P1; the residue path needs lattices narrower than P1 * P2
OPERATORS = {"+": add, "-": sub, "*": mul}


def parse_scalar(text: str) -> Fraction:
    """Parse one scalar literal: integer ("7"), fraction ("5/4"), or decimal ("1.25").

    The parse is exact; no rounding ever happens.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a valid scalar: {text.strip()!r}") from exc
    return value


def format_scalar(q: Fraction) -> str:
    """Render a scalar so that parse_scalar(format_scalar(q)) == q."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class NumberSet:
    """A finite, duplicate-free, sorted set of exact rationals: ints[i] / denom."""

    __slots__ = ("ints", "denom", "_elements", "_memo", "__weakref__")

    def __init__(self, values: Iterable = ()):
        fracs = {v if isinstance(v, Fraction) else Fraction(v) for v in values}
        denom = lcm(*(q.denominator for q in fracs))
        self._init(sorted(q.numerator * (denom // q.denominator) for q in fracs), denom)

    def _init(self, ints, denom: int) -> None:
        self.ints: tuple[int, ...] = tuple(ints)
        self.denom = denom
        self._elements: tuple[Fraction, ...] | None = None
        self._memo: dict = {}

    @property
    def elements(self) -> tuple[Fraction, ...]:
        if self._elements is None:
            self._elements = tuple(Fraction(v, self.denom) for v in self.ints)
        return self._elements

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, value) -> bool:
        q = value if isinstance(value, Fraction) else Fraction(value)
        if self.denom % q.denominator:
            return False
        v = q.numerator * (self.denom // q.denominator)
        i = bisect_left(self.ints, v)
        return i < len(self.ints) and self.ints[i] == v

    def __getitem__(self, i) -> Fraction:
        return self.elements[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberSet) and (self.ints, self.denom) == (other.ints, other.denom)

    def __hash__(self) -> int:
        return hash((self.ints, self.denom))

    def __repr__(self) -> str:
        inner = ", ".join(format_scalar(q) for q in self.elements[:8])
        if len(self) > 8:
            inner += f", ... ({len(self)} elements)"
        return f"NumberSet({{{inner}}})"

    def scaled(self) -> tuple[tuple[int, ...], int]:
        """Integer representation: (k_1..k_n, L) with element_i == k_i / L."""
        return self.ints, self.denom

    def memo(self, key, build):
        """build(), computed once per key and kept until this set dies."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def is_strictly_positive(self) -> bool:
        return bool(self.ints) and self.ints[0] > 0

    def is_nonnegative(self) -> bool:
        return bool(self.ints) and self.ints[0] >= 0

    def is_convex(self) -> bool:
        """Strictly increasing consecutive gaps (vacuously true for n <= 2)."""
        e = self.ints
        return all(e[i] - e[i - 1] < e[i + 1] - e[i] for i in range(1, len(e) - 1))

    def negate(self) -> "NumberSet":
        return _from_ints([-v for v in reversed(self.ints)], self.denom)

    def to_lines(self) -> str:
        return "\n".join(format_scalar(q) for q in self.elements) + "\n"


def _from_ints(ints: list[int], denom: int) -> NumberSet:
    """The set {v / denom} of sorted distinct ints, reduced to canonical form."""
    g = gcd(denom, *ints)
    if g > 1:
        ints, denom = [v // g for v in ints], denom // g
    ns = NumberSet.__new__(NumberSet)
    ns._init(ints, denom)
    return ns


@dataclass(frozen=True, eq=False)
class PairCounts:
    """Histogram of x op y over A x B: values[i] / denom occurs counts[i] times.

    `values` and `counts` are views of one dict, or numpy arrays on the numpy
    paths; on the residue path `values` is built from one pair per value when read.
    `spectrum` maps each multiplicity to the number of values carrying it, so
    the number of values, the size of the combination set, is its total.
    """

    values: Collection[int]
    counts: Collection[int]
    denom: int
    spectrum: dict[int, int]

    def __len__(self) -> int:
        return sum(self.spectrum.values())

    def items(self):
        """(value, count) pairs as Python ints."""
        return zip(_plain(self.values), _plain(self.counts))

    def to_set(self) -> NumberSet:
        """The combination set itself: the support of the histogram."""
        return _from_ints(sorted(_plain(self.values)), self.denom)


def _plain(seq) -> Collection[int]:
    return seq.tolist() if hasattr(seq, "tolist") else seq


def pair_counts(a: NumberSet, b: NumberSet, op: str) -> PairCounts:
    """Histogram of x op y over A x B for op in "+", "-", "*", built once per (a, op, b)."""
    key = (op, id(b))
    hit = a._memo.get(key)
    if hit is None or hit[0]() is not b:  # the weak reference pins the id to b
        hit = a._memo[key] = (ref(b, _forgetter(ref(a), key)), count_pairs(a, b, op))
    return hit[1]


def _forgetter(owner: ref, key):
    """The callback that drops owner's entry under key when its right operand dies."""

    def forget(dead: ref) -> None:
        a = owner()
        if a is not None and a._memo.get(key, (None,))[0] is dead:
            del a._memo[key]

    return forget


def count_pairs(a: NumberSet, b: NumberSet, op: str) -> PairCounts:
    """The kernel itself, unmemoized: for sets whose histograms are read once (a search step)."""
    if not (a.ints and b.ints):
        raise EmptyInputError("operation requires nonempty sets")
    if len(a) * len(b) > PAIR_BUDGET:
        raise over_budget("pair count", len(a) * len(b), "PAIR_BUDGET", PAIR_BUDGET)
    if op == "*":
        ia, ib, denom = a.ints, b.ints, a.denom * b.denom
    else:
        denom = lcm(a.denom, b.denom)
        ia = [v * (denom // a.denom) for v in a.ints]
        ib = [v * (denom // b.denom) for v in b.ints]
    counter = _python_counts
    if len(ia) * len(ib) >= NUMPY_MIN_PAIRS:
        mx, my = max(-ia[0], ia[-1]), max(-ib[0], ib[-1])
        if (mx * my if op == "*" else mx + my) < INT64_SAFE:
            counter = _numpy_counts
        elif op != "*" and ia[-1] - ia[0] + ib[-1] - ib[0] < P1 * P2:  # hi - lo of x op y
            counter = _residue_counts
    try:
        return counter(ia, ib, op, denom)
    except ImportError:
        return _python_counts(ia, ib, op, denom)


def _python_counts(ia, ib, op: str, denom: int) -> PairCounts:
    counts = Counter(starmap(OPERATORS[op], product(ia, ib)))
    return PairCounts(counts.keys(), counts.values(), denom, Counter(counts.values()))


def _numpy_counts(ia, ib, op: str, denom: int) -> PairCounts:
    """Count x op y in int64: every pair's value, sorted in place; each run is one value."""
    import numpy as np

    ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    v = ufunc.outer(np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64)).ravel()
    v.sort()
    starts, counts, spectrum = _runs(v[1:] == v[:-1])
    return PairCounts(v[starts], counts, denom, spectrum)


def _residue_counts(ia, ib, op: str, denom: int) -> PairCounts:
    """Count x + y or x - y by sorting the pairs on their residues modulo P1.

    The caller has checked that the lattice is narrower than P1 * P2, so
    sorted neighbours that agree modulo P1 and modulo P2 are equal values.
    If any of them disagree modulo P2, the count runs in Python instead.
    Each run of equal residues is kept as its length and one pair index.
    """
    import numpy as np

    sign = 1 if op == "+" else -1

    def residues(p: int):  # x op y modulo p for every pair, row by row
        x = np.array([v % p for v in ia], dtype=np.int64)
        y = np.array([sign * v % p for v in ib], dtype=np.int64)
        r = np.add.outer(x, y).ravel()
        return np.subtract(r, p, out=r, where=r >= p)

    r = residues(P1)
    order = np.argsort(r)  # the default kind: the stable one is far slower here
    r = r[order]
    same = r[1:] == r[:-1]
    r = residues(P2)[order]
    if (same & (r[1:] != r[:-1])).any():
        return _python_counts(ia, ib, op, denom)
    del r
    starts, counts, spectrum = _runs(same)
    return PairCounts(_Representatives(ia, ib, op, order[starts]), counts, denom, spectrum)


def _runs(same):
    """Run starts, run lengths and spectrum of sorted keys, from their neighbour-equality mask."""
    import numpy as np

    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))  # run starts, then the end
    counts = np.diff(bounds)
    times = np.bincount(counts)
    mults = np.flatnonzero(times)
    return bounds[:-1], counts, dict(zip(mults.tolist(), times[mults].tolist()))


class _Representatives:
    """The values of a residue count, x op y of one pair per value, built on first read."""

    def __init__(self, ia, ib, op: str, pairs):
        self._source, self._list = (ia, ib, op, pairs), None

    def tolist(self) -> list[int]:
        if self._list is None:
            ia, ib, op, pairs = self._source
            rows, cols = divmod(pairs, len(ib))
            self._list = list(map(OPERATORS[op], map(ia.__getitem__, rows.tolist()),
                                  map(ib.__getitem__, cols.tolist())))
            self._source = None
        return self._list


def sumset(a: NumberSet, b: NumberSet) -> NumberSet:
    """{x + y : x in A, y in B}, deduplicated and sorted."""
    return pair_counts(a, b, "+").to_set()


def difference_set(a: NumberSet, b: NumberSet) -> NumberSet:
    """{x - y : x in A, y in B}; for B == A it is symmetric about 0."""
    return pair_counts(a, b, "-").to_set()


def product_set(a: NumberSet, b: NumberSet) -> NumberSet:
    """{x * y : x in A, y in B}."""
    return pair_counts(a, b, "*").to_set()


def combination_sizes(a: NumberSet) -> dict[str, int | None]:
    """|A+A|, |A-A| and |A*A| keyed sumset, diffset, prodset; prodset is None unless A > 0."""
    return {
        "sumset": len(pair_counts(a, a, "+")),
        "diffset": len(pair_counts(a, a, "-")),
        "prodset": len(pair_counts(a, a, "*")) if a.is_strictly_positive() else None,
    }


def parse_set_text(text: str, source: str = "<string>") -> NumberSet:
    """Parse the set file format: one scalar per line, '#' comments, blanks ignored."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_scalar(line))
        except ParseError as exc:
            raise ParseError(str(exc), source=source, line=lineno) from exc
    return NumberSet(values)


def read_set_file(path) -> NumberSet:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_set_text(text, source=str(path))


def write_set_file(path, a: NumberSet, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        fh.write(a.to_lines())
