"""The pair kernel: every counting path against the oracles, the bounds that pick a path, memo reuse and budgets."""
import gc
import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import neg
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import number_sets
from convexlab.audit import audit_theorem, check_cauchy_schwarz, check_holder, check_lemma_e15
from convexlab.cli import main
from convexlab.energy import energy, energy_report
from convexlab.errors import BudgetError
from convexlab.families import FamilySpec, generate
from convexlab.functions import EXP2, EXP2_BUDGET, POWER_BUDGET, SQUARE, apply_fn, fn_by_name
from convexlab.radicals import RadicalSum
from convexlab.sets import P1, P2, P3, PAIR_BUDGET, NumberSet, pair_counts, sumset, write_set_file
from oracles import naive_rep, quadruple_energy, quadruple_energy_sum_form

sets = importlib.import_module("convexlab.sets")
MODES = {"+": "sum", "-": "difference", "*": "product"}
SRC = str(Path(__file__).resolve().parent.parent / "src")
# hypothesis tests that use a fixture: it records across examples, and each example clears it
WITH_FIXTURE = settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def needs_numpy() -> None:
    """Skip unless numpy imports; any ImportError skips, so a blocked numpy import skips as a missing numpy does."""
    pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def paths(monkeypatch):
    """Record which path each count takes: "numpy", "residue", "python" or "triangle" (a set with itself)."""
    ran = []
    for name in ("numpy", "residue", "python", "triangle"):
        original = getattr(sets, f"_{name}_counts")

        def recording(*args, _name=name, _original=original):
            ran.append(_name)
            return _original(*args)

        monkeypatch.setattr(sets, f"_{name}_counts", recording)
    return ran


@pytest.fixture
def pair_passes(monkeypatch):
    """Record every pass the pure-Python paths make over pairs, as the name of the pair iterator."""
    ran = []
    for name in ("product", "combinations", "combinations_with_replacement"):
        original = getattr(sets, name)

        def recording(*args, _name=name, _original=original):
            ran.append(_name)
            return _original(*args)

        monkeypatch.setattr(sets, name, recording)
    return ran


@pytest.fixture
def builds(monkeypatch):
    """Record every histogram the kernel builds, as (A ints, B ints, op)."""
    built = []
    original = sets.count_pairs

    def recording(a, b, op):
        built.append((a.ints, b.ints, op))
        return original(a, b, op)

    monkeypatch.setattr(sets, "count_pairs", recording)
    return built


def histogram(pc):
    return {Fraction(v, pc.denom): c for v, c in pc.items()}


@pytest.mark.parametrize("path, threshold", [("numpy", 0), ("python", 1 << 60)])
@WITH_FIXTURE
@given(number_sets(max_size=7, max_num=10 ** 4, max_den=12), number_sets(max_size=7, max_num=10 ** 4, max_den=12))
def test_both_paths_match_the_oracles(path, threshold, paths, a, b):
    """Denominators up to 12 keep every value inside int64, so the threshold alone picks the path."""
    if path == "numpy":
        needs_numpy()
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, threshold
    paths.clear()
    try:
        a, b = NumberSet(a), NumberSet(b)  # fresh sets: nothing memoized from the other path
        for op, mode in MODES.items():
            pc = pair_counts(a, b, op)
            assert paths.pop() == path
            assert len(pc) == len(naive_rep(a, b, mode))
            assert histogram(pc) == naive_rep(a, b, mode)
            assert pc.to_set() == NumberSet(naive_rep(a, b, mode))
        delta = naive_rep(a, a, "difference")
        report = energy_report(a)
        assert energy(a, b) == energy(a, b, via="sum") == quadruple_energy(a, b)
        assert report.E3 == sum(c ** 3 for c in delta.values())
        assert report.E15 == sum((RadicalSum({c: c}) for c in delta.values()), RadicalSum())
    finally:
        sets.NUMPY_MIN_PAIRS = saved


SELF_COUNTED = st.one_of(
    number_sets(max_size=10, max_num=30, max_den=4),  # mixed signs, often holding 0
    number_sets(min_size=1, max_size=1),
    number_sets(max_size=6, max_num=30, max_den=4).map(lambda a: NumberSet([*a, 0, *(-q for q in a)])),
    st.builds(lambda s, d, n: NumberSet(range(s, s + d * n, d)), st.integers(-12, 12), st.integers(1, 4),
              st.integers(1, 16)),  # progressions: heavy multiplicities, and (-x)^2 == x^2 when they cross 0
    st.lists(st.integers(-2 ** 100, 2 ** 100), min_size=1, max_size=10, unique=True).map(
        lambda v: NumberSet(Fraction(x, 2 ** 100 + 1) for x in v)),  # 100-bit lattices
)


@pytest.mark.parametrize("op", "+-*")
@WITH_FIXTURE
@given(SELF_COUNTED)
def test_self_count_over_the_triangle_matches_the_full_count(op, paths, a):
    """A set counted with itself is counted over i < j; an equal but distinct set counts all n^2 pairs."""
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, 1 << 60
    paths.clear()
    try:
        want = naive_rep(a, a, MODES[op])
        own, full = sets.count_pairs(a, a, op), sets.count_pairs(a, NumberSet(a.elements), op)
        kept = pair_counts(a, a, op)
        assert paths == ["triangle", "python", "triangle"]
        for pc in (own, full, kept):
            assert histogram(pc) == want
            assert pc.spectrum == Counter(want.values())
            assert len(pc) == len(want)
            assert pc.to_set() == NumberSet(want)
        if op != "*":
            via = "difference" if op == "-" else "sum"
            assert energy(a, a, via=via) == quadruple_energy(a, a) == quadruple_energy_sum_form(a, a)
        else:
            report = energy_report(a)
            assert report.E3 == sum(c ** 3 for c in naive_rep(a, a, "difference").values())
    finally:
        sets.NUMPY_MIN_PAIRS = saved


def assert_sizes_read_alike(count, want):
    """`len` alone, `len` before the spectrum and `len` after it agree with the oracle's, on three fresh counts
    from `count()`; the spectrum and the values read after `len` are the oracle's too."""
    alone, first, after = count(), count(), count()
    assert len(alone) == len(want)
    assert len(first) == len(want)
    assert first.spectrum == Counter(want.values())
    assert len(first) == len(want)
    assert histogram(first) == want
    assert after.spectrum == Counter(want.values())
    assert len(after) == len(want)


@pytest.mark.parametrize("path, threshold", [("numpy", 0), ("python", 1 << 60)])
@WITH_FIXTURE
@given(number_sets(max_size=7, max_num=10 ** 4, max_den=12), number_sets(max_size=7, max_num=10 ** 4, max_den=12))
# negatives, 0, an equal copy, and diagonal values that other pairs give too: 1 + 3 == 2 + 2, (-2)(-2) == 2 * 2
@example(NumberSet([1, 2, 3]), NumberSet([-2, 2]))
@example(NumberSet([1, 2, 3]), NumberSet([1, 2, 3]))
@example(NumberSet([-3, -1, 0, 1, 3]), NumberSet([-2, 0, 2]))
@example(NumberSet([Fraction(-1, 2), 0, Fraction(1, 3), 2]), NumberSet([0]))
@example(NumberSet([-5]), NumberSet([-3, -1, 0, 2]))
def test_size_without_the_spectrum_matches_the_oracles(path, threshold, paths, a, b):
    """Self and cross counts of + - *, with len read before the spectrum, after it, and alone."""
    if path == "numpy":
        needs_numpy()
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, threshold
    paths.clear()
    try:
        for x, y in ((a, b), (a, a), (b, b)):
            for op, mode in MODES.items():
                assert_sizes_read_alike(lambda: sets.count_pairs(x, y, op), naive_rep(x, y, mode))
        assert set(paths) == ({"numpy"} if path == "numpy" else {"triangle", "python"})
    finally:
        sets.NUMPY_MIN_PAIRS = saved


BOUNDARY = [
    # (op, A, B, path): just below the int64 bound runs numpy; at the bound + and -
    # count residues (the lattice is far narrower than P1 * P2 * P3) and * runs Python
    ("+", [0, 1 << 61], [0, (1 << 61) - 1], "numpy"),
    ("+", [0, 1 << 61], [0, 1 << 61], "residue"),
    ("-", [0, 1 << 61], [-((1 << 61) - 1), 0], "numpy"),
    ("-", [-(1 << 61), 0], [0, 1 << 61], "residue"),
    ("*", [1, 1 << 31], [-((1 << 31) - 1), 1], "numpy"),
    ("*", [1, 1 << 31], [1, 1 << 31], "python"),
    # the residue path needs hi - lo < P1 * P2 * P3; * on a wide lattice always runs Python
    ("+", [0, P1 * P2 * P3 - 2], [0, 1], "residue"),
    ("+", [0, P1 * P2 * P3 - 1], [0, 1], "python"),
    ("-", [0, P1 * P2 * P3 - 2], [-1, 0], "residue"),
    ("-", [-(P1 * P2 * P3), 0], [0, 1], "python"),
    ("*", [1, 1 << 100], [1, 3], "python"),
]


@pytest.mark.parametrize("op, xs, ys, expected", BOUNDARY)
def test_int64_boundary(op, xs, ys, expected, paths, monkeypatch):
    needs_numpy()
    monkeypatch.setattr(sets, "NUMPY_MIN_PAIRS", 1)
    a, b = NumberSet(xs), NumberSet(ys)
    pc = pair_counts(a, b, op)
    assert paths == [expected]
    assert histogram(pc) == naive_rep(a, b, MODES[op])


# One element this large puts every lattice above int64.
WIDE = Fraction(-(10 ** 19))


@WITH_FIXTURE
@given(number_sets(max_size=7, max_num=10 ** 30, max_den=64), number_sets(max_size=7, max_num=10 ** 30, max_den=64))
def test_residue_path_matches_the_oracles(paths, a, b):
    """Above int64, + and - count residues while hi - lo < P1 * P2 * P3 and run Python beyond it."""
    needs_numpy()
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, 0
    paths.clear()
    try:
        a, b = NumberSet([*a, WIDE]), NumberSet([*b, WIDE])
        for op in "+-":
            pc = pair_counts(a, b, op)
            scale = pc.denom // a.denom, pc.denom // b.denom
            width = (a.ints[-1] - a.ints[0]) * scale[0] + (b.ints[-1] - b.ints[0]) * scale[1]
            assert paths.pop() == ("residue" if width < P1 * P2 * P3 else "python")
            assert len(pc) == len(naive_rep(a, b, MODES[op]))
            assert histogram(pc) == naive_rep(a, b, MODES[op])
            assert pc.to_set() == NumberSet(naive_rep(a, b, MODES[op]))
        delta = naive_rep(a, a, "difference")
        report = energy_report(a)
        assert energy(a, b) == energy(a, b, via="sum") == quadruple_energy(a, b)
        assert report.E == sum(c ** 2 for c in delta.values())
        assert report.E3 == sum(c ** 3 for c in delta.values())
        assert report.E15 == sum((RadicalSum({c: c}) for c in delta.values()), RadicalSum())
    finally:
        sets.NUMPY_MIN_PAIRS = saved


@pytest.fixture
def settles(monkeypatch):
    """Record how each residue count with checks settles its repeated runs: "check" when every run
    agrees modulo P2 and P3, "split" when some run disagrees and is counted in Python."""
    ran, original = [], sets._disagreeing_runs

    def recording(*args):
        split = original(*args)
        ran.append("split" if split.any() else "check")
        return split

    monkeypatch.setattr(sets, "_disagreeing_runs", recording)
    return ran


def assert_exact(pc, a, b, op):
    want = naive_rep(a, b, MODES[op])
    assert histogram(pc) == want
    assert pc.spectrum == Counter(want.values())
    assert pc.to_set() == NumberSet(want)


SPREAD = [(i << 60) + 7 * i * i for i in range(20)]  # above int64, and hi - lo above P1 * P2 for P1 = 2
FORCED = [
    # (A, B, settled by): at most |A| + |B| pairs share residues, so Python counts them
    ([1 << 62], range(0, 600, 7), "python"),
    ([1 << 62, (1 << 62) + 200], [0, 200], "python"),
    # more repeated pairs: each run is checked modulo P2 (and P3 beyond P1 * P2), and the
    # runs that disagree are counted in Python; the progressions repeat values many times
    ([(1 << 62) + i for i in range(0, 300, 7)], range(0, 200, 3), "split"),
    (SPREAD, [0, 1 << 60, 5 << 60, 9], "split"),
    (SPREAD, SPREAD, "split"),
    # each run holds five values, equal modulo 7777 = 7 * 11 * 101: only P3 parts them when P2 = 11
    ([(1 << 62) + 7777 * k for k in range(5)], [0, 1, 2], "split"),
]


@pytest.mark.parametrize("p1, p2", [(2, P2), (7, P2), (101, P2), (7, 11)], ids=["2", "7", "101", "7-11"])
@pytest.mark.parametrize("xs, ys, settled_by", FORCED)
def test_forced_residue_collisions_settle_exactly(p1, p2, xs, ys, settled_by, paths, settles, monkeypatch):
    """With a tiny P1, distinct values share residues; each count is still exact, and never reruns in
    Python.  With P2 = 11 too, values equal modulo 77 differ only modulo P3."""
    needs_numpy()
    monkeypatch.setattr(sets, "NUMPY_MIN_PAIRS", 1)
    monkeypatch.setattr(sets, "P1", p1)
    monkeypatch.setattr(sets, "P2", p2)
    a, b = NumberSet(xs), NumberSet(ys)
    for op in "+-":
        assert_exact(sets.count_pairs(a, b, op), a, b, op)
    assert paths == ["residue"] * 2
    assert settles == ([] if settled_by == "python" else [settled_by] * 2)


@WITH_FIXTURE
@given(st.integers(-2 ** 120, 2 ** 120), st.integers(2 ** 64, 2 ** 120), st.integers(2, 24),
       st.lists(st.integers(-2 ** 150, 2 ** 150), min_size=1, max_size=24, unique=True))
def test_residue_path_heavy_multiplicities(paths, settles, start, step, n, spread):
    """Wide progressions repeat values up to n times under + and -, and A + A repeats each x + y as y + x:
    more repeated pairs than |A| + |B|, so their runs are checked modulo P2 and P3.  A - A of a spread-out
    set repeats little beyond 0, so Python counts its repeated pairs."""
    needs_numpy()
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, 1
    try:
        ap, spread = NumberSet(range(start, start + step * n, step)), NumberSet([*spread, 1 << 140])
        for a, op in ((ap, "+"), (ap, "-"), (spread, "+"), (spread, "-")):
            paths.clear()
            settles.clear()
            assert_exact(sets.count_pairs(a, a, op), a, a, op)
            repeated = sum(c for c in naive_rep(a, a, MODES[op]).values() if c > 1)
            assert paths == ["residue"]
            assert settles == (["check"] if repeated > 2 * len(a) else [])
    finally:
        sets.NUMPY_MIN_PAIRS = saved


def numpy_bytes() -> int:
    """Bytes of numpy data alive now, as tracemalloc traces them."""
    import numpy as np

    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([domain]).traces)


@pytest.mark.parametrize("den, itemsize", [(64, 8), (1, 4)], ids=["residue", "int64"])
def test_values_are_built_only_when_read(den, itemsize, paths):
    """The battery's E(A, A+B) keeps no numpy array once it returns; its count holds one key per pair and
    no value array; a kept histogram drops that sort buffer once its values are read.  A residue key takes
    8 bytes; on integers A - (A+B) spans under 2**32 (but more than a quarter of its pairs), so 4."""
    needs_numpy()
    rng, slack = random.Random(7), 1 << 16

    def rationals(n):
        vals = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, den)))
        return NumberSet(vals)

    a, b = rationals(64), rationals(64)
    ab = sumset(a, b)
    keys = itemsize * len(a) * len(ab)
    tracemalloc.start()
    try:
        base = numpy_bytes()
        energy(a, ab)
        assert numpy_bytes() - base < slack
        pc = sets.count_pairs(a, ab, "-")
        assert keys <= numpy_bytes() - base < keys + slack
        del pc
        kept = pair_counts(a, ab, "-")
        assert keys <= numpy_bytes() - base < keys + slack
        assert len(kept.to_set()) == len(kept)
        assert numpy_bytes() - base < slack
    finally:
        tracemalloc.stop()
    assert set(paths) == {"residue" if den == 64 else "numpy"}


@pytest.mark.parametrize("offset", [1 << 70, 0], ids=["residue", "int64"])
def test_kept_heavy_count_holds_values_not_keys(offset, paths):
    """A kept count whose values repeat 8 times or more on average builds them at once and drops its
    sort buffer, which would outweigh them: an AP's A - A keeps 2n - 1 values, not n^2 keys."""
    needs_numpy()
    ap = NumberSet(range(offset, offset + 256))
    tracemalloc.start()
    try:
        base = numpy_bytes()
        kept = pair_counts(ap, ap, "-")
        assert numpy_bytes() - base < 1 << 16  # the sort buffer alone is 8 * 256^2 = 512 KiB
    finally:
        tracemalloc.stop()
    assert kept.spectrum == {**{m: 2 for m in range(1, 256)}, 256: 1}  # 256 - |d| pairs give d
    assert kept.to_set() == NumberSet(range(-255, 256))
    assert paths == ["residue" if offset else "numpy"]


def spread(seed: int, bits: int) -> list[int]:
    """256 distinct ints in [-2**bits, 2**bits): x op y of two such sets repeats few values."""
    return random.Random(seed).sample(range(-(1 << bits), 1 << bits), 256)


KEY_FORMS = [
    # (A, B, form), 256 x 256 pairs each: x op y spans 16,320, under a quarter of the pairs, so a
    # histogram; about 2**21, so uint32 keys; about 2**41, so int64 keys
    (range(0, 256 * 32, 32), range(-4096, 4096, 32), "dense"),
    (spread(1, 20), spread(2, 20), "uint32"),
    (spread(3, 40), spread(4, 40), "int64"),
]


@pytest.mark.parametrize("op", "+-")
@pytest.mark.parametrize("xs, ys, form", KEY_FORMS, ids=[form for *_, form in KEY_FORMS])
def test_count_peak_stays_within_int64_keys(op, xs, ys, form, paths):
    """Counting x op y (the spectrum read) peaks within 8 bytes a pair, one int64 key, plus the slack: a
    histogram is counted a quarter of the pairs at a time, and uint32 keys walk their three one-byte
    neighbour masks in the 4 bytes they save.  int64 keys, the form of every such count before keys
    narrowed, walk the same masks beside them: 11 bytes a pair."""
    needs_numpy()
    a, b = NumberSet(xs), NumberSet(ys)
    pairs, width, slack = len(a) * len(b), a.ints[-1] - a.ints[0] + b.ints[-1] - b.ints[0], 1 << 16
    sets.count_pairs(a, b, op)  # numpy's own first-use allocations
    tracemalloc.start()
    try:
        pc = sets.count_pairs(a, b, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pc.held == {"dense": 8 * (width + 1), "uint32": 4 * pairs, "int64": 8 * pairs}[form]
    assert peak < (11 if form == "int64" else 8) * pairs + slack
    assert paths == ["numpy"] * 2


@st.composite
def counts_at_key_cuts(draw):
    """(A, B, op) whose x op y spans a width at a cut between key forms: width + 1 at a quarter of the
    pairs or one past it, or 2**32 - 1 against 2**32 (2**32 - 2 against 2**32 for A with itself).  Each
    set is shifted by any amount, or so that it holds 0, so lo is often negative."""
    rng, op, own, dense, past = (draw(st.randoms(use_true_random=False)), draw(st.sampled_from("+-")),
                                 draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 1)))
    n = draw(st.integers(8, 16))
    m = n if own else draw(st.integers(8, 16))
    cut = n * m // 4 - 1 if dense else (1 << 32) - 1  # the widest width of the narrower form
    if own:  # x op x' spans twice A's width
        wa = wb = cut // 2 + past
    else:
        wa = draw(st.integers(n - 1, cut + past - (m - 1)))
        wb = cut + past - wa

    def shifted(size, span):
        xs = [0, span, *rng.sample(range(1, span), size - 2)]
        shift = draw(st.one_of(st.integers(-(1 << 40), 1 << 40), st.sampled_from(xs).map(neg)))
        return NumberSet(x + shift for x in xs)

    a = shifted(n, wa)
    return a, (a if own else shifted(m, wb)), op


@WITH_FIXTURE
@given(counts_at_key_cuts())
def test_key_forms_at_their_cuts_match_the_oracles(paths, count):
    """Either side of each cut, the count takes the form its width picks and reads as the oracles do:
    len, the spectrum, the items, the set, and E(A, B) by differences and by sums."""
    needs_numpy()
    a, b, op = count
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, 0
    paths.clear()
    try:
        pairs, width = len(a) * len(b), a.ints[-1] - a.ints[0] + b.ints[-1] - b.ints[0]
        want = naive_rep(a, b, MODES[op])
        fresh, pc = sets.count_pairs(a, b, op), sets.count_pairs(a, b, op)
        assert len(fresh) == len(want)
        assert pc.held == (8 * (width + 1) if 4 * (width + 1) <= pairs else 4 * pairs if width < 1 << 32
                           else 8 * pairs)
        assert pc.spectrum == Counter(want.values())
        assert histogram(pc) == want
        assert pc.to_set() == NumberSet(want)
        assert energy(a, b) == energy(a, b, via="sum") == sum(c * c for c in naive_rep(a, b, "difference").values())
        assert set(paths) == {"numpy"}
    finally:
        sets.NUMPY_MIN_PAIRS = saved


POWERS = [1 << k for k in range(120)]


@pytest.mark.parametrize("op", "+-")
@pytest.mark.parametrize("xs, ys", [([0, -(1 << 62)], [-2, -(1 << 62)]),
                                    ([0, *POWERS, *(-v for v in POWERS)], [0])], ids=["two", "powers"])
def test_powers_of_two_count_on_residues(op, xs, ys, paths, monkeypatch):
    """Modulo 2**61 - 1, 2**k and 2**(k + 61) share a residue (-2**62 and -2 do); modulo P1 no two of +-2**k do."""
    needs_numpy()
    monkeypatch.setattr(sets, "NUMPY_MIN_PAIRS", 1)
    a, b = NumberSet(xs), NumberSet(ys)
    pc = pair_counts(a, b, op)
    assert paths == ["residue"]
    assert histogram(pc) == naive_rep(a, b, MODES[op])
    assert pc.to_set() == NumberSet(naive_rep(a, b, MODES[op]))


@WITH_FIXTURE
@given(st.integers(-50, 50), st.integers(1, 9), st.integers(2, 30), st.integers(-50, 50), st.integers(1, 9),
       st.integers(2, 30))
def test_int64_path_heavy_multiplicities(paths, s0, d0, n0, s1, d1, n1):
    """Arithmetic progressions with 0 and negative elements repeat values many times under + - *."""
    needs_numpy()
    saved, sets.NUMPY_MIN_PAIRS = sets.NUMPY_MIN_PAIRS, 1
    paths.clear()
    try:
        a = NumberSet([0, *range(s0, s0 + d0 * n0, d0)])
        b = NumberSet([0, -1, *range(s1, s1 + d1 * n1, d1)])
        for x, y in ((a, b), (b, a), (a, a)):
            for op, mode in MODES.items():
                pc = sets.count_pairs(x, y, op)
                assert paths.pop() == "numpy"
                want = naive_rep(x, y, mode)
                assert histogram(pc) == want
                assert pc.spectrum == Counter(want.values())
    finally:
        sets.NUMPY_MIN_PAIRS = saved


def test_python_path_when_numpy_is_absent(paths, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` raise ImportError
    monkeypatch.setattr(sets, "NUMPY_MIN_PAIRS", 1)
    a, b = NumberSet([1, 2, 4]), NumberSet([0, 3])
    assert histogram(pair_counts(a, b, "-")) == naive_rep(a, b, "difference")
    assert paths == ["numpy", "python"]


def test_memo_is_per_set_and_per_operand(builds):
    a, b = NumberSet([1, 2, 4]), NumberSet([1, 3])
    assert pair_counts(a, b, "+") is pair_counts(a, b, "+")
    pair_counts(a, NumberSet([1, 3]), "+")  # an equal but distinct right operand is counted again
    pair_counts(NumberSet([1, 2, 4]), b, "+")  # so is an equal left operand
    assert len(builds) == 3


def test_memo_entry_dies_with_the_right_operand(builds):
    a, b = NumberSet([1, 2, 4]), NumberSet([1, 3])
    kept = pair_counts(a, b, "-")
    gc.collect()
    assert pair_counts(a, b, "-") is kept and len(builds) == 1
    key = ("-", id(b))
    del b
    gc.collect()
    assert key not in a._memo
    assert pair_counts(a, a, "+") is pair_counts(a, a, "+")  # a set is its own right operand
    assert list(a._memo) == [("+", id(a))]


class TestBuildsOnce:
    def test_stats_builds_delta_once(self, builds, pair_passes, tmp_path, capsys):
        """|A-A| and the moments read one delta_A; each of the three counts passes over its pairs once."""
        path = tmp_path / "a.txt"
        path.write_text("".join(f"{i * i}\n" for i in range(1, 13)))
        assert main(["stats", "--input", str(path)]) == 0
        a = tuple(i * i for i in range(1, 13))
        assert builds.count((a, a, "-")) == 1
        assert len(builds) == len(set(builds)) == 3
        assert pair_passes == ["combinations"] * 3
        assert json.loads(capsys.readouterr().out)["sizes"]["diffset"] == len(
            NumberSet(x - y for x in a for y in a))

    def test_t1_builds_delta_once(self, builds):
        a = generate(FamilySpec("squares", 12))
        audit_theorem("T1", SQUARE, a)
        assert builds.count((a.ints, a.ints, "-")) == 1
        assert len(builds) == len(set(builds))

    def test_incidence_builds_two_sigmas(self, builds, tmp_path, capsys):
        values = {"a": [1, 2, 4, 7], "b": [0, 1, 3], "c": [0, 2, 5]}
        for name, vs in values.items():
            (tmp_path / f"{name}.txt").write_text("".join(f"{v}\n" for v in vs))
        argv = ["incidence", "--input", str(tmp_path / "a.txt"), "--bset", str(tmp_path / "b.txt"),
                "--cset", str(tmp_path / "c.txt"), "--fn", "square"]
        assert main(argv) == 0
        fa = tuple(v * v for v in values["a"])
        assert sorted(builds) == sorted([(tuple(values["a"]), tuple(values["b"]), "+"),
                                         (fa, tuple(values["c"]), "+")])

    @pytest.mark.parametrize("op", "+-*")
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_kept_count_passes_over_its_pairs_once(self, op, cross, pair_passes):
        """A kept count read for its size and its spectrum, in either order, makes one pass over its pairs."""
        a = NumberSet([-3, 0, 1, 4, 9])
        b = NumberSet([-1, 2, 5]) if cross else a
        pc = pair_counts(a, b, op)
        size, spectrum = len(pc), pc.spectrum
        assert (len(pc), pc.spectrum) == (size, spectrum)
        assert pair_counts(a, b, op) is pc
        assert pair_passes == ["product" if cross else "combinations"]
        assert size == len(naive_rep(a, b, MODES[op])) and spectrum == Counter(naive_rep(a, b, MODES[op]).values())

    def test_energy_keeps_only_the_diagonal(self):
        """E(A, B) is read once, so its histogram is not kept; delta_A is, for |A-A| and the moments."""
        a, b = NumberSet([1, 2, 4]), NumberSet([0, 3])
        assert energy(a, b) == quadruple_energy(a, b)
        assert a._memo == {}
        energy_report(a)
        assert list(a._memo) == [("-", id(a))]

    def test_image_is_kept_per_function(self):
        a = NumberSet([1, 2, 3])
        assert apply_fn(SQUARE, a) is apply_fn(SQUARE, a)
        assert apply_fn(fn_by_name("power:3"), a) == NumberSet([1, 8, 27])


class TestBudgets:
    def test_pair_budget_admits_t3_random_convex_256(self):
        a = generate(FamilySpec("random-convex", 256))
        shifted = pair_counts(a, apply_fn(SQUARE, a), "+")
        assert len(a) * len(shifted) <= PAIR_BUDGET

    def test_pair_budget_refuses_before_counting(self, paths):
        big = NumberSet(range(6000))
        with pytest.raises(BudgetError, match="PAIR_BUDGET"):
            pair_counts(big, big, "+")
        assert paths == []

    def test_power_budget(self):
        assert fn_by_name(f"power:{POWER_BUDGET}").k == POWER_BUDGET
        with pytest.raises(BudgetError, match="POWER_BUDGET"):
            fn_by_name(f"power:{POWER_BUDGET + 1}")

    def test_exp2_budget(self):
        assert EXP2.apply(Fraction(-3)) == Fraction(1, 8)
        with pytest.raises(BudgetError, match="EXP2_BUDGET"):
            EXP2.apply(Fraction(EXP2_BUDGET + 1))
        with pytest.raises(BudgetError, match="EXP2_BUDGET"):
            EXP2.apply(Fraction(-EXP2_BUDGET - 1))

    def test_cli_exits_1_naming_the_budget(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{i}\n" for i in range(6000)))
        assert main(["stats", "--input", str(path)]) == 1
        assert "PAIR_BUDGET" in capsys.readouterr().err
        small = tmp_path / "a.txt"
        small.write_text("1\n2\n3\n")
        assert main(["audit", "--input", str(small), "--theorem", "T1", "--fn", "power:100"]) == 1
        assert "POWER_BUDGET" in capsys.readouterr().err


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_numpy_out():
    done = _python("import sys, convexlab.cli; print('numpy' in sys.modules)")
    assert done.returncode == 0 and done.stdout.strip() == "False"


def test_search_step_leaves_numpy_out():
    """One annealing step counts far fewer than NUMPY_MIN_PAIRS pairs, so numpy is never imported."""
    code = """
import sys
from convexlab.search import SearchConfig, extremal_search
extremal_search(SearchConfig(objective="diffProdRatio", set_size=24, iterations=1))
print('numpy' in sys.modules)
"""
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_incidence_at_22_leaves_numpy_out(tmp_path):
    """An incidence instance at n = 22 counts at most 22 x 22 pairs, below NUMPY_MIN_PAIRS."""
    rng, argvs = random.Random(3), []
    for fn in ("square", "power:3", "reciprocal", "exp2"):
        files = [str(tmp_path / f"{fn.replace(':', '')}-{part}.txt") for part in "ABC"]
        for path in files:
            values = (rng.sample(range(1, 45), 22) if fn == "exp2"  # exp2 is exact only on integers
                      else generate(FamilySpec("random-convex", 22, seed=rng.getrandbits(32))).elements)
            write_set_file(path, NumberSet(values))
        argvs.append(["incidence", "--input", files[0], "--bset", files[1], "--cset", files[2], "--fn", fn,
                      "--workers", "2", "--output", str(tmp_path / "report.json")])
    done = _python(f"import sys\nfrom convexlab.cli import main\n"
                   f"print([main(argv) for argv in {argvs!r}], 'numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0, 0] False"


def test_battery_pair_counts_its_cross_energy_on_residues(monkeypatch):
    """Denominators up to 64 put a 64-element battery pair above int64, and each of its counts has
    4,096 pairs or more, so all run on residues: A-A, B-B, A+B, A-(A+B), A+A and the cross A-B."""
    needs_numpy()
    seen, original = [], sets._residue_counts

    def recording(ia, ib, op, denom):
        seen.append((len(ia), len(ib), op))
        return original(ia, ib, op, denom)

    monkeypatch.setattr(sets, "_residue_counts", recording)
    rng = random.Random(7)

    def rationals(n):
        vals = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 64)))
        return NumberSet(vals)

    a, b = rationals(64), rationals(64)
    check_lemma_e15(a, b), check_holder(a), check_cauchy_schwarz(a, "sum"), check_cauchy_schwarz(a, "cross", b)
    n = len(a)
    assert seen == [(n, n, "-"), (n, n, "-"), (n, n, "+"), (n, len(sumset(a, b)), "-"), (n, n, "+"), (n, n, "-")]
