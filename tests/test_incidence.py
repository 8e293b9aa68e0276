import random
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import positive_number_sets
from convexlab.cli import main
from convexlab.errors import BudgetError, DomainError, EmptyInputError
from convexlab.functions import EXP2, EXP2_BUDGET, RECIPROCAL, SQUARE, power_fn
from convexlab.incidence import (
    build_instance,
    count_incidences,
    incidence_classes,
    lemma_st1_ratio,
    lemma_st2_ratio,
    st_bound_check,
    st_bound_decimal,
)
from convexlab.sets import NumberSet, sumset
from oracles import (
    evaluate_on_graph,
    naive_incidences,
    naive_level_count,
    naive_rep,
    reciprocal_translate_intersections,
    square_translate_intersections,
)


def nset(*values):
    return NumberSet(Fraction(v) for v in values)


def random_positive_set(rng, size, max_num=60, max_den=6):
    vals = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(1, max_num), rng.randint(1, max_den)))
    return NumberSet(vals)


class TestBuildInstance:
    def test_parabola_nine_points(self):
        grid, family = build_instance(SQUARE, nset(0, 1, 2), nset(0), nset(0))
        assert len(grid) == 9 and len(family) == 1
        assert grid.xs == nset(0, 1, 2) and grid.ys == nset(0, 1, 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_instance(SQUARE, nset(0, 1), NumberSet(), NumberSet())

    def test_cardinality_arithmetic(self):
        grid, family = build_instance(SQUARE, nset(1, 2), nset(0, 5), nset(0, 3))
        assert len(family) == 4
        assert len(grid) <= 16

    def test_square_needs_nonnegative(self):
        with pytest.raises(DomainError):
            build_instance(SQUARE, nset(-1, 1), nset(0), nset(0))

    def test_family_size_is_bc(self):
        rng = random.Random(0)
        a, b, c = (random_positive_set(rng, k) for k in (4, 3, 5))
        _, family = build_instance(SQUARE, a, b, c)
        assert len(family) == len(b) * len(c)
        assert len(set(family.shifts)) == len(family.shifts)


class TestCountIncidences:
    def test_parabola_incidences(self):
        grid, family = build_instance(SQUARE, nset(0, 1, 2), nset(0), nset(0))
        report = count_incidences(grid, family, taus=(1, 2))
        assert report.incidences == 3
        assert report.rich_points == {1: 3, 2: 0}
        assert report.st_bound_holds

    def test_tau_above_family_size_gives_zero(self):
        grid, family = build_instance(SQUARE, nset(0, 1, 2), nset(0), nset(0))
        report = count_incidences(grid, family, taus=(5,))
        assert report.rich_points[5] == 0

    def test_tau_validation(self):
        grid, family = build_instance(SQUARE, nset(0, 1, 2), nset(0), nset(0))
        with pytest.raises(ValueError, match="tau must be >= 1"):
            count_incidences(grid, family, taus=(0,))

    @pytest.mark.parametrize("fn", [SQUARE, RECIPROCAL, power_fn(3), power_fn(4)])
    def test_matches_naive_oracle(self, fn):
        rng = random.Random(hash(fn.name) & 0xFFFF)
        for _ in range(6):
            a = random_positive_set(rng, rng.randint(2, 5))
            b = random_positive_set(rng, rng.randint(1, 4))
            c = random_positive_set(rng, rng.randint(1, 4))
            grid, family = build_instance(fn, a, b, c)
            report = count_incidences(grid, family, taus=(1, 2, 3, 4))
            naive_total, per_point = naive_incidences(grid, family)
            assert report.incidences == naive_total
            assert report.max_point_curves == max(per_point.values(), default=0)
            assert report.rich_points == {t: naive_level_count(per_point, t) for t in (1, 2, 3, 4)}

    def test_exp2_matches_naive_oracle(self):
        rng = random.Random(9)
        for _ in range(4):
            a = NumberSet(rng.sample(range(0, 9), 3))
            b = NumberSet(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(3))
            c = NumberSet(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(3))
            grid, family = build_instance(EXP2, a, b, c)
            report = count_incidences(grid, family)
            naive_total, _ = naive_incidences(grid, family)
            assert report.incidences == naive_total

    def test_every_diagonal_incidence_is_counted(self):
        rng = random.Random(3)
        a = random_positive_set(rng, 4)
        b = random_positive_set(rng, 3)
        c = random_positive_set(rng, 3)
        grid, family = build_instance(SQUARE, a, b, c)
        report = count_incidences(grid, family)
        assert report.incidences >= len(a) * len(b) * len(c)

    def test_cli_workers_identical_and_threadless(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(11)
        for part, size in zip("abc", (5, 4, 4)):
            values = random_positive_set(rng, size)
            (tmp_path / f"{part}.txt").write_text("".join(f"{q}\n" for q in values))
        started, real_start = [], threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        outs = []
        for w in ("1", "2", "7"):
            argv = ["incidence", "--input", str(tmp_path / "a.txt"), "--bset", str(tmp_path / "b.txt"),
                    "--cset", str(tmp_path / "c.txt"), "--fn", "reciprocal", "--workers", w]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert started == []

    def test_rich_points_monotone_and_capped(self):
        rng = random.Random(21)
        for _ in range(5):
            a, b, c = (random_positive_set(rng, rng.randint(2, 6)) for _ in range(3))
            grid, family = build_instance(SQUARE, a, b, c)
            report = count_incidences(grid, family, taus=(1, 2, 3, 4))
            rich = report.rich_points
            assert rich[1] >= rich[2] >= rich[3] >= rich[4]
            assert rich[1] <= report.incidences
            assert report.max_point_curves <= min(len(b), len(c))


def small_rationals(positive=False):
    return st.fractions(min_value=Fraction(1, 4) if positive else 0, max_value=4, max_denominator=4)


def small_sets(elements):
    return st.lists(elements, min_size=1, max_size=3, unique=True).map(NumberSet)


def hits_by_point(grid, family):
    """The kernel's blocks expanded into curves through each point; no point may lie in two blocks."""
    hits = {}
    for x_members, y_members, m in incidence_classes(grid, family):
        for xi in x_members:
            for yi in y_members:
                point = grid.xs.elements[xi], grid.ys.elements[yi]
                assert point not in hits
                hits[point] = m
    return hits


class TestLatticeKernel:
    """The lattice kernel's hit map, point by point, against the Fraction oracle."""

    @pytest.mark.parametrize("fn", [SQUARE, power_fn(3), power_fn(4), RECIPROCAL])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_rational_instances_match_oracle(self, fn, data):
        a = data.draw(small_sets(small_rationals(positive=fn is RECIPROCAL)))
        b, c = data.draw(small_sets(small_rationals())), data.draw(small_sets(small_rationals()))
        grid, family = build_instance(fn, a, b, c)
        assert hits_by_point(grid, family) == naive_incidences(grid, family)[1]

    @pytest.mark.parametrize("fn", [SQUARE, power_fn(3), power_fn(4)])
    def test_power_off_lattice_value_is_not_floored(self, fn):
        # at x = 1/2 the curve b = 0 has value (1/2)^k, which is off Z/2: no hit at y = 0
        grid, family = build_instance(fn, nset(0), nset(0, Fraction(1, 2)), nset(0))
        assert hits_by_point(grid, family) == naive_incidences(grid, family)[1]

    @given(a=small_sets(st.integers(-3, 6).map(Fraction)), b=small_sets(small_rationals()),
           c=small_sets(small_rationals()))
    @example(a=nset(0), b=nset(0, 1), c=nset(0, 1))  # 2^-1 is off Z/1
    @example(a=nset(0), b=nset(Fraction(1, 2), Fraction(3, 2)), c=nset(0, Fraction(1, 2)))  # 2^-1 on Z/2
    @settings(max_examples=40)
    def test_exp2_instances_match_oracle(self, a, b, c):
        grid, family = build_instance(EXP2, a, b, c)
        assert hits_by_point(grid, family) == naive_incidences(grid, family)[1]

    @pytest.mark.parametrize("fn", [SQUARE, power_fn(3), RECIPROCAL, EXP2])
    def test_ap_instances_match_oracle(self, fn):
        # on APs one curve value w is met by many (x, b), and one y - c by many (y, c)
        a, b, c = nset(*range(1, 8)), nset(*range(0, 6)), nset(*range(0, 12, 2))
        grid, family = build_instance(fn, a, b, c)
        hits = hits_by_point(grid, family)
        assert hits == naive_incidences(grid, family)[1]
        assert sum(hits.values()) >= len(a) * len(b) * len(c)
        if fn is not RECIPROCAL:  # whose values 1/a meet no other curve on these APs
            assert max(hits.values()) >= 2  # so some x class shares two or more values with some y class

    def test_exp2_values_in_one_hash_class_match_oracle(self):
        # CPython hashes ints modulo 2**61 - 1, so every curve value 2**(61 j) hashes to 1
        rng = random.Random(61)
        for _ in range(3):
            a, b, c = (NumberSet(61 * k for k in rng.sample(range(21), 6)) for _ in "abc")
            grid, family = build_instance(EXP2, a, b, c)
            assert {hash(2 ** (x - bb)) for x in grid.xs for bb in family.b if x >= bb} == {1}
            assert hits_by_point(grid, family) == naive_incidences(grid, family)[1]

    @pytest.mark.parametrize("b", [nset(0, 16385), nset(-16385, 0), nset(0, Fraction(1, 2), 16385)])
    def test_exp2_budget_fires_on_any_integer_difference(self, b):
        # x - b = +-16385 lies beyond EXP2_BUDGET for some x in X = A + B and b in B
        grid, family = build_instance(EXP2, nset(0), b, nset(0))
        with pytest.raises(BudgetError, match="EXP2_BUDGET"):
            count_incidences(grid, family)

    def test_exp2_budget_spares_off_lattice_differences(self):
        # every x - b beyond EXP2_BUDGET is +-(16384 + 1/2): its value is irrational, so it is never evaluated
        grid, family = build_instance(EXP2, nset(0, 1), nset(0, Fraction(32769, 2)), nset(0, 1))
        assert max(abs(x - bb) for x in grid.xs for bb in family.b) > EXP2_BUDGET
        assert hits_by_point(grid, family) == naive_incidences(grid, family)[1]

    def test_exp2_budget_fires_on_the_shifted_argument(self, tmp_path, capsys):
        for part, values in zip("abc", ([1], [0, 16384], [0])):
            (tmp_path / f"{part}.txt").write_text("".join(f"{v}\n" for v in values))
        argv = ["incidence", "--input", str(tmp_path / "a.txt"), "--bset", str(tmp_path / "b.txt"),
                "--cset", str(tmp_path / "c.txt"), "--fn", "exp2"]
        assert 1 <= EXP2_BUDGET < 16384 + 1  # A = {1} is within budget, x - b = 16385 is not
        assert main(argv) == 1
        assert "EXP2_BUDGET" in capsys.readouterr().err


class TestCurvesPairwiseIntersections:
    def test_square_translates_closed_form(self):
        rng = random.Random(5)
        shifts = [(Fraction(rng.randint(0, 20), rng.randint(1, 4)),
                   Fraction(rng.randint(0, 20), rng.randint(1, 4))) for _ in range(12)]
        for (b1, c1), (b2, c2) in combinations(set(shifts), 2):
            assert square_translate_intersections(b1, c1, b2, c2) <= 1

    def test_reciprocal_translates_closed_form(self):
        rng = random.Random(6)
        shifts = [(Fraction(rng.randint(0, 20), rng.randint(1, 4)),
                   Fraction(rng.randint(0, 20), rng.randint(1, 4))) for _ in range(12)]
        for (b1, c1), (b2, c2) in combinations(set(shifts), 2):
            assert reciprocal_translate_intersections(b1, c1, b2, c2) <= 1

    @pytest.mark.parametrize("fn", [SQUARE, RECIPROCAL, power_fn(3), EXP2])
    def test_no_two_curves_share_two_grid_points(self, fn):
        rng = random.Random(hash(fn.name) & 0xFFF)
        a = NumberSet(rng.sample(range(1, 12), 4))
        b = NumberSet(rng.sample(range(0, 9), 3))
        c = NumberSet(rng.sample(range(0, 9), 3))
        grid, family = build_instance(fn, a, b, c)
        points_on = {shift: set() for shift in family.shifts}
        for x in grid.xs:
            for shift in family.shifts:
                bb, cc = shift
                v = evaluate_on_graph(fn, x - bb)
                if v is not None and (v + cc) in grid.ys:
                    points_on[shift].add((x, v + cc))
        for s1, s2 in combinations(family.shifts, 2):
            assert len(points_on[s1] & points_on[s2]) <= 1


class TestStBound:
    def test_zero_excess_always_holds(self):
        assert st_bound_check(5, 1, 1)
        assert st_bound_check(0, 3, 3)

    def test_violation_detected(self):
        assert not st_bound_check(100, 1, 1)

    def test_boundary_equality(self):
        # P=4, L=2: 4(PL)^(2/3) = 16 exactly; I = 16 + 4P + L hits the bound
        assert st_bound_check(34, 4, 2)
        assert not st_bound_check(35, 4, 2)

    def test_decimal_rendering(self):
        s = st_bound_decimal(9, 1, 30)
        assert s.startswith("54.306994843688900587859659729")

    @given(positive_number_sets(min_size=2, max_size=6),
           positive_number_sets(min_size=1, max_size=4),
           positive_number_sets(min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_holds_on_random_instances(self, a, b, c):
        grid, family = build_instance(SQUARE, a, b, c)
        assert count_incidences(grid, family).st_bound_holds


class TestLevelSetReports:
    def test_tau_one_counts_whole_supports(self):
        a = b = c = nset(*range(1, 9))
        r1 = lemma_st1_ratio(SQUARE, a, b, c, 1)
        from convexlab.functions import apply_fn

        assert r1.lhs == len(sumset(apply_fn(SQUARE, a), c))
        r2 = lemma_st2_ratio(SQUARE, a, b, c, 1)
        assert r2.lhs == len(sumset(a, b))

    def test_tau_above_min_gives_zero(self):
        a = b = c = nset(1, 2, 3)
        r = lemma_st1_ratio(SQUARE, a, b, c, 4)
        assert r.lhs == 0 and r.ratio == 0

    def test_singleton_b_large_tau(self):
        r = lemma_st2_ratio(SQUARE, nset(1, 2, 3), nset(5), nset(1, 2, 3), 2)
        assert r.lhs == 0

    def test_matches_brute_force_sigma(self):
        a = b = c = nset(*range(1, 9))
        from convexlab.functions import apply_fn

        fa = apply_fn(SQUARE, a)
        for tau in (1, 2, 3):
            r = lemma_st1_ratio(SQUARE, a, b, c, tau)
            assert r.lhs == naive_level_count(naive_rep(fa, c, "sum"), tau)
            assert r.hypothesis_ok
            r2 = lemma_st2_ratio(SQUARE, a, b, c, tau)
            assert r2.lhs == naive_level_count(naive_rep(a, b, "sum"), tau)

    def test_hypothesis_flagging(self):
        r = lemma_st1_ratio(SQUARE, nset(1, 2, 3, 4), nset(1), nset(1), 1)
        assert not r.hypothesis_ok and r.flags

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            lemma_st1_ratio(SQUARE, nset(1), nset(1), nset(1), 0)
