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
sort one 64-bit key per pair in place.  A key no other pair shares is a value
of multiplicity 1, so the spectrum is read from the runs of repeated keys
alone (`_repeated_runs`), and the values and their counts are built from the
sorted keys only when read (`PairCounts`), which then drops the keys.

* Where int64 is proven (max|x| + max|y| < 2**62 for + and -, max|x| * max|y|
  < 2**62 for *), the key is the value itself.
* Otherwise, for + and - on a lattice narrower than P1 * P2 * P3 (about
  2**161), the key is the value's residue modulo the prime P1 < 2**38, shifted
  above the pair's index.  Only the runs of repeated residues are settled,
  exactly.  On a lattice narrower than P1 each run is one value.  Otherwise,
  when the runs hold no more pairs than |A| + |B|, their values are counted
  in Python; when they hold more, neighbours in a run are compared modulo P2
  (and P3 from a width of P1 * P2), and a run that disagrees is counted in
  Python.  Values equal modulo all three primes differ by a multiple of
  P1 * P2 * P3, so they are equal.

All other counts (* on wide lattices, wider lattices, small counts), and all
counts without numpy, run in pure Python on exact ints, with the same result.
There a count builds nothing until read: `len` alone is the size of a set
of pair values, and the first read of the spectrum or the values makes the
one pass that counts multiplicities.  A set counted with itself is counted
over its pairs i < j alone.  `pair_counts` reads the spectrum at once, so a
kept count read for sizes and moments alike makes one pass.  Counts above
PAIR_BUDGET pairs fail before they start.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product, starmap
from math import gcd, lcm
from operator import add, mul, neg, sub
from weakref import ref

from .errors import EmptyInputError, ParseError, over_budget

Scalar = Fraction

PAIR_BITS = 25  # a pair index i * len(B) + j fits in this many bits
PAIR_BUDGET = 1 << PAIR_BITS  # pairs in one count; T3 on random-convex n=256 needs 16.8M
PAIR_MASK = PAIR_BUDGET - 1
# Against the Python Counter on distinct random values (2 vCPUs, numpy 2.4), the int64
# path wins from 256 pairs and is 8x faster at 4,096; the residue path on a 113-bit
# lattice wins from 600-1,000 pairs and is 2.7x faster at 4,096.  A search step
# (24 x 24 pairs) and an incidence instance (at most 22 x 22) stay below the
# threshold, so they never pay numpy's import (about 130 ms and 14 MB).
NUMPY_MIN_PAIRS = 1 << 11
INT64_SAFE = 1 << 62
# Primes of the residue path.  P1 < 2**38, so a residue shifted above a pair index
# (25 bits) fits int64; 2 is a primitive root modulo it, so no two of +-2**k with
# k < (P1 - 1) / 2 share a residue.  Runs of equal residues are checked modulo P2
# and P3 (residues below each, and sums of two, fit int64); values equal modulo all
# three are equal on lattices narrower than P1 * P2 * P3, about 2**161.
P1 = (1 << 38) - 45
P2 = (1 << 62) - 57
P3 = (1 << 61) - 1
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
        pairs = [(v if isinstance(v, Fraction) else Fraction(v)).as_integer_ratio() for v in values]
        denom = lcm(*(d for _, d in pairs))
        self._init(sorted({n * (denom // d) for n, d in pairs}), denom)

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

    def scaled(self, denom: int) -> tuple[int, ...] | list[int]:
        """The elements as integers on Z/denom, a multiple of `self.denom`; on Z/self.denom, `ints` itself."""
        k = denom // self.denom
        return self.ints if k == 1 else [v * k for v in self.ints]

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


class PairCounts:
    """Histogram of x op y over A x B, each value v standing for v / denom, built in two stages.

    `spectrum` maps each multiplicity to the number of values carrying it, so
    the number of values, the size of the combination set, is its total.  The
    first read of it calls `count`, which gives it and the builder of the
    (values, counts) columns; the first read of those (`items`, `to_set`)
    calls the builder.  Each stage drops what built it.  Before the spectrum
    is read, `len` is `size()` where a path gives one (the pure-Python paths
    count a set of pair values, without multiplicities, at each read).  So
    energies and `len` never build the values.  A kept count whose values
    repeat more than 8 times on average builds them at once: as Python ints
    they take about 46 bytes each, less than 8 bytes a pair.
    """

    __slots__ = ("denom", "_next", "_size", "_spectrum", "_columns")

    def __init__(self, denom: int, count, size=None):
        self.denom, self._next, self._size, self._spectrum, self._columns = denom, count, size, None, None

    @property
    def spectrum(self) -> dict[int, int]:
        if self._spectrum is None:
            (self._spectrum, self._next), self._size = self._next(), None
        return self._spectrum

    def __len__(self) -> int:
        return sum(self.spectrum.values()) if self._size is None else self._size()

    def _read(self) -> tuple:
        if self._columns is None:
            self.spectrum  # which comes with the builder of the columns
            self._columns, self._next = self._next(), None
        return self._columns

    def items(self):
        """(value, count) pairs as Python ints."""
        return zip(*self._read())

    def scaled(self, denom: int):
        """(value, count) pairs with the values on the lattice Z/denom, a multiple of `self.denom`."""
        k = denom // self.denom
        return self.items() if k == 1 else ((v * k, c) for v, c in self.items())

    def to_set(self) -> NumberSet:
        """The combination set itself: the support of the histogram."""
        return _from_ints(sorted(self._read()[0]), self.denom)


def pair_counts(a: NumberSet, b: NumberSet, op: str) -> PairCounts:
    """Histogram of x op y over A x B for op in "+", "-", "*", built once per (a, op, b)."""
    key = (op, id(b))
    hit = a._memo.get(key)
    if hit is None or hit[0]() is not b:  # the weak reference pins the id to b
        counts = count_pairs(a, b, op)
        counts.spectrum  # one pass for the sizes and the moments that read a kept count
        if 8 * len(counts) < len(a) * len(b):  # the sort buffer would outweigh the values (PairCounts)
            counts.items()  # so build them now, which drops it
        hit = a._memo[key] = (ref(b, _forgetter(ref(a), key)), counts)
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
        ia, ib = a.scaled(denom), b.scaled(denom)
    counter = python = _triangle_counts if a is b else _python_counts
    if len(ia) * len(ib) >= NUMPY_MIN_PAIRS:
        mx, my = max(-ia[0], ia[-1]), max(-ib[0], ib[-1])
        if (mx * my if op == "*" else mx + my) < INT64_SAFE:
            counter = _numpy_counts
        elif op != "*" and ia[-1] - ia[0] + ib[-1] - ib[0] < P1 * P2 * P3:  # hi - lo of x op y
            counter = _residue_counts
    try:
        return counter(ia, ib, op, denom)
    except ImportError:
        return python(ia, ib, op, denom)


def _python_counts(ia, ib, op: str, denom: int) -> PairCounts:
    def count():
        counts = Counter(starmap(OPERATORS[op], product(ia, ib)))
        return Counter(counts.values()), lambda: (counts.keys(), counts.values())

    return PairCounts(denom, count, lambda: len(set(starmap(OPERATORS[op], product(ia, ib)))))


def _triangle_counts(ia, ib, op: str, denom: int) -> PairCounts:
    """Count x op y over A x A (`ib` is `ia`) from the n(n-1)/2 pairs i < j alone.

    Each x_i - x_j < 0 stands for itself and its negation, and 0 for the n
    diagonal pairs.  Each x_i + x_j or x_i * x_j counts twice, and the diagonal
    x op x is merged in by a Counter, since (-x)^2 == x^2.  The size alone is
    that of a set: of the values over i <= j, or 2 |{x_i - x_j : i < j}| + 1.
    """
    f = OPERATORS[op]

    def count():
        half = Counter(starmap(f, combinations(ia, 2)))
        diag = Counter({0: len(ia)} if op == "-" else map(f, ia, ia))
        for v in diag.keys() & half.keys():  # a diagonal value that off-diagonal pairs give too (never for -)
            diag[v] += 2 * half.pop(v)
        spectrum, (copies, weight) = Counter(diag.values()), ((2, 1) if op == "-" else (1, 2))
        for m, t in Counter(half.values()).items():
            spectrum[weight * m] += copies * t

        def build():
            if op == "-":
                return [*half, *map(neg, half), *diag], [*half.values(), *half.values(), *diag.values()]
            return [*half, *diag], [*map((2).__mul__, half.values()), *diag.values()]

        return spectrum, build

    def size():
        if op == "-":
            return 2 * len(set(starmap(f, combinations(ia, 2)))) + 1
        return len(set(starmap(f, combinations_with_replacement(ia, 2))))

    return PairCounts(denom, count, size)


def _numpy_counts(ia, ib, op: str, denom: int) -> PairCounts:
    """Count x op y in int64: every pair's value, sorted in place; each run is one value."""
    import numpy as np

    ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    v = ufunc.outer(np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64)).ravel()
    v.sort()
    _, lengths = _repeated_runs(v[1:] == v[:-1])

    def build():
        starts, counts = _runs(v[1:] != v[:-1])
        return v[starts].tolist(), counts.tolist()

    spectrum = _spectrum(len(v), lengths)
    return PairCounts(denom, lambda: (spectrum, build))


def _residue_counts(ia, ib, op: str, denom: int) -> PairCounts:
    """Count x + y or x - y on one 64-bit key per pair, (x op y mod P1) << PAIR_BITS | pair index.

    The keys are sorted in place.  A residue no other pair shares is a value
    of multiplicity 1, so only the runs of repeated residues are settled, and
    exactly.  When they hold no more pairs than len(A) + len(B), their values
    are counted in Python, which costs less than the residues of A and B that
    a check needs.  Otherwise the neighbours in each run are compared modulo
    P2 and P3, and only a run that disagrees is counted in Python.  The caller
    has checked that the lattice is narrower than P1 * P2 * P3, so values
    equal modulo all three primes are equal.
    """
    import numpy as np

    sign, nb = (1 if op == "+" else -1), len(ib)
    x = np.array([v % P1 for v in ia], dtype=np.uint64) << PAIR_BITS | np.arange(0, len(ia) * nb, nb, dtype=np.uint64)
    y = np.array([sign * v % P1 for v in ib], dtype=np.uint64) << PAIR_BITS | np.arange(nb, dtype=np.uint64)
    keys = np.add.outer(x, y).ravel()  # the residue, or it plus P1, above the pair index
    np.minimum(keys, keys - np.uint64(P1 << PAIR_BITS), out=keys)  # unsigned: a key below it wraps above itself
    keys.sort()
    starts, lengths = _repeated_runs((keys[1:] ^ keys[:-1]) <= PAIR_MASK)
    width = ia[-1] - ia[0] + ib[-1] - ib[0]  # hi - lo of x op y: closer values equal modulo m are equal
    checks = [p for p, m in ((P2, P1), (P3, P1 * P2)) if width >= m]
    if not checks:  # no two of these values share a residue: each run is one value
        split = np.zeros(len(starts), dtype=bool)
    elif lengths.sum() <= len(ia) + nb:  # few repeated pairs: count them all in Python
        split = np.ones(len(starts), dtype=bool)
    else:
        split = _disagreeing_runs(ia, ib, sign, keys, starts, lengths, checks)
    exact = Counter(_pair_values(ia, ib, op, keys[_ranges(starts[split], lengths[split])] & PAIR_MASK))
    spectrum = Counter(_spectrum(len(keys) - int(lengths[split].sum()), lengths[~split]))
    spectrum.update(exact.values())
    settled = starts[split]

    def build():
        starts, counts = _runs((keys[1:] ^ keys[:-1]) > PAIR_MASK)
        rest = np.isin(starts, settled, invert=True)
        values = _pair_values(ia, ib, op, keys[starts[rest]] & PAIR_MASK)
        return values + list(exact), counts[rest].tolist() + list(exact.values())

    return PairCounts(denom, lambda: (spectrum, build))


def _disagreeing_runs(ia, ib, sign: int, keys, starts, lengths, checks):
    """Which runs of equal residues modulo P1 hold values that differ modulo a prime in `checks`."""
    import numpy as np

    pairs = keys[_ranges(starts, lengths)].view(np.int64)
    pairs &= PAIR_MASK
    rows = pairs // len(ib)
    cols = np.subtract(pairs, rows * len(ib), out=pairs)
    differ = np.zeros(len(rows) - 1, dtype=bool)
    for p in checks:
        r = np.array([v % p for v in ia], dtype=np.uint64)[rows]
        r += np.array([sign * v % p for v in ib], dtype=np.uint64)[cols]
        np.minimum(r, r - np.uint64(p), out=r)
        differ |= r[1:] != r[:-1]
    ends = np.cumsum(lengths) - 1  # each run's last position among the gathered keys
    differ[ends[:-1]] = False  # neighbours across a run boundary
    split = np.zeros(len(starts), dtype=bool)
    split[np.searchsorted(ends, np.flatnonzero(differ))] = True
    return split


def _repeated_runs(same):
    """Starts and lengths of the runs of two or more equal sorted keys, from their neighbour-equality mask."""
    import numpy as np

    edges = np.flatnonzero(np.diff(same, prepend=False, append=False))  # where `same` turns on, then off
    return edges[::2], edges[1::2] - edges[::2] + 1


def _runs(differ):
    """Starts and lengths of every run of sorted keys, from their neighbour-inequality mask."""
    import numpy as np

    bounds = np.flatnonzero(np.concatenate(([True], differ, [True])))  # run starts, then the end
    return bounds[:-1], np.diff(bounds)


def _ranges(starts, lengths):
    """The positions of every run, run after run."""
    import numpy as np

    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _spectrum(pairs: int, lengths) -> dict[int, int]:
    """Multiplicity -> number of values, for `pairs` pairs: runs of these `lengths`, the rest singletons."""
    import numpy as np

    times = np.bincount(lengths)
    mults = np.flatnonzero(times)
    spectrum = {1: pairs - int(lengths.sum())} if pairs > lengths.sum() else {}
    spectrum.update(zip(mults.tolist(), times[mults].tolist()))
    return spectrum


def _pair_values(ia, ib, op: str, pairs) -> list[int]:
    """x op y of each pair index i * len(ib) + j, as Python ints."""
    rows, cols = divmod(pairs, len(ib))
    return list(map(OPERATORS[op], map(ia.__getitem__, rows.tolist()), map(ib.__getitem__, cols.tolist())))


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
