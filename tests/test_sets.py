import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import number_sets, rationals
from convexlab.errors import ConvexLabError, DomainError, EmptyInputError, ParseError
from convexlab.functions import EXP2_BUDGET, LOG, RECIPROCAL, SQUARE, apply_fn, fn_by_name, power_fn
from convexlab.sets import (
    NumberSet,
    difference_set,
    format_scalar,
    parse_scalar,
    parse_set_text,
    product_set,
    sumset,
)
from oracles import naive_difference, naive_product, naive_sumset


def nset(*values):
    return NumberSet(Fraction(v) for v in values)


class TestScalars:
    @pytest.mark.parametrize(
        "text,expected",
        [("7", Fraction(7)), ("5/4", Fraction(5, 4)), ("1.25", Fraction(5, 4)),
         ("-3/2", Fraction(-3, 2)), ("0.1", Fraction(1, 10))],
    )
    def test_parse(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "1//2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    @given(rationals())
    def test_round_trip(self, q):
        assert parse_scalar(format_scalar(q)) == q

    def test_parse_set_text_skips_comments_and_names_bad_line(self):
        a = parse_set_text("# header\n1.25\n\n5/4\n3\n", source="s")
        assert a.elements == (Fraction(5, 4), Fraction(3))
        with pytest.raises(ParseError) as err:
            parse_set_text("1\nnot-a-number\n", source="s")
        assert "s:2" in str(err.value)

    # Fraction() and int() disagree on some of these, and Fraction() itself differs across Python versions
    @pytest.mark.parametrize("spelling", [
        "7", "-3/2", "3 / 4", "3/-4", "-3/4", "1/0", "0/5", "1_000", "1__0", "+5", "+-5", ".5", "5.", "1e3",
        "-2.5E-3", "1/2/3", "0x10", "٣", "٣/٤", "\u00a07/8\u00a0", "\u00a0-1.5", "inf", "nan", "1/2.0", "2e",
    ])
    def test_parse_set_text_reads_what_fraction_reads(self, spelling):
        text = f"# header\n1\n{spelling}\n4/2\n"
        try:
            want = NumberSet([Fraction(1), Fraction(spelling.strip()), Fraction(2)])
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError) as err:
                parse_set_text(text, source="s")
            assert err.value.line == 3
            return
        assert parse_set_text(text, source="s") == want


class TestNumberSet:
    def test_sorted_dedup(self):
        a = NumberSet([3, 1, 1, Fraction(1, 2)])
        assert a.elements == (Fraction(1, 2), Fraction(1), Fraction(3))

    def test_convexity_flag(self):
        assert nset(1, 4, 9, 16).is_convex()
        assert not nset(0, 1, 2, 3).is_convex()
        assert nset(5).is_convex() and nset(1, 2).is_convex()

    def test_negate(self):
        assert nset(1, 2).negate() == nset(-2, -1)

    @given(number_sets(min_size=1, max_size=10))
    def test_scaled_representation(self, a):
        assert a.scaled(a.denom) is a.ints
        for denom in (a.denom, 6 * a.denom):
            assert [Fraction(v, denom) for v in a.scaled(denom)] == list(a.elements)


class TestCombinationSets:
    def test_sumset_ap(self):
        assert sumset(nset(0, 1, 2), nset(0, 1, 2)) == nset(0, 1, 2, 3, 4)

    def test_sumset_singletons(self):
        assert sumset(nset(0), nset(7)) == nset(7)

    def test_sumset_squares_size(self):
        a = nset(1, 4, 9, 16)
        assert len(sumset(a, a)) == len(naive_sumset(a, a)) == 10

    def test_difference_examples(self):
        assert difference_set(nset(0, 1, 3), nset(0, 1, 3)) == nset(-3, -2, -1, 0, 1, 2, 3)
        assert difference_set(nset(5), nset(5)) == nset(0)
        assert len(difference_set(nset(0, 1, 2), nset(0, 1, 2))) == 5

    def test_product_examples(self):
        a = nset(1, 2, 4)
        assert product_set(a, a) == nset(1, 2, 4, 8, 16)
        assert product_set(nset(1), nset(1)) == nset(1)
        assert len(product_set(nset(1, 2, 3), nset(1, 2, 3))) == 6
        assert len(product_set(nset(0, 1), nset(1))) == 2

    def test_empty_inputs_error(self):
        empty = NumberSet()
        for op in (sumset, difference_set, product_set):
            with pytest.raises(EmptyInputError):
                op(nset(1), empty)

    @given(number_sets(max_size=8), number_sets(max_size=8))
    def test_matches_oracles(self, a, b):
        assert set(sumset(a, b)) == naive_sumset(a, b)
        assert set(difference_set(a, b)) == naive_difference(a, b)
        assert set(product_set(a, b)) == naive_product(a, b)

    @given(number_sets(max_size=8), number_sets(max_size=8))
    def test_symmetry(self, a, b):
        assert sumset(a, b) == sumset(b, a)
        assert product_set(a, b) == product_set(b, a)
        assert difference_set(a, b) == difference_set(b, a).negate()

    @given(number_sets(min_size=1, max_size=10))
    def test_sumset_lower_bound_and_ap_equality(self, a):
        assert len(sumset(a, a)) >= 2 * len(a) - 1

    def test_ap_meets_lower_bound_exactly(self):
        a = nset(*range(9))
        assert len(sumset(a, a)) == 2 * len(a) - 1
        non_ap = nset(0, 1, 5)
        assert len(sumset(non_ap, non_ap)) > 2 * len(non_ap) - 1

    @given(number_sets(min_size=1, max_size=10))
    def test_difference_symmetric_contains_zero(self, a):
        d = difference_set(a, a)
        assert Fraction(0) in d
        assert d.negate() == d


class TestApplyFn:
    def test_square(self):
        assert apply_fn(SQUARE, nset(1, 2, 3)) == nset(1, 4, 9)

    def test_reciprocal(self):
        assert apply_fn(RECIPROCAL, nset(1, 2, 4)) == nset(Fraction(1, 4), Fraction(1, 2), 1)

    def test_reciprocal_rejects_zero(self):
        with pytest.raises(DomainError):
            apply_fn(RECIPROCAL, nset(0, 1))

    def test_log_rejected(self):
        with pytest.raises(DomainError):
            apply_fn(LOG, nset(1, 2))

    def test_power(self):
        assert apply_fn(power_fn(3), nset(1, 2, 3)) == nset(1, 8, 27)

    CATALOG = ["square", "power:2", "power:3", "power:4", "power:5", "reciprocal", "exp2"]
    EDGES = [
        [-3, -2, -1, 0, 1, 2, 5],  # square and power:4 collide on +-1 and +-2
        [Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 3), 0],
        [-7, -1, 1],
        [-EXP2_BUDGET, 0, 3, EXP2_BUDGET],
        [-EXP2_BUDGET - 1, 2],  # exp2: budget error
        [3, EXP2_BUDGET + 1],
        [Fraction(1, 2), EXP2_BUDGET + 1],  # exp2: the first element refused names the error
        [-EXP2_BUDGET - 1, Fraction(1, 2)],
    ]

    def assert_image_matches(self, name, a):
        fn = fn_by_name(name)
        try:
            want = NumberSet(fn.apply(q) for q in a)
        except ConvexLabError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                apply_fn(fn, a)
            return
        assert apply_fn(fn, a) == want

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("values", EDGES)
    def test_lattice_image_edges(self, name, values):
        self.assert_image_matches(name, NumberSet(values))

    @pytest.mark.parametrize("name", CATALOG)
    @given(st.one_of(
        number_sets(max_size=10, max_num=40, max_den=6),
        number_sets(max_size=6, max_num=40, max_den=6).map(lambda a: NumberSet([*a, *(-q for q in a)])),
        st.lists(st.integers(-60, 60), min_size=1, max_size=10).map(NumberSet),
        number_sets(max_size=6, max_num=10 ** 30, max_den=10 ** 30),
    ))
    def test_lattice_image_matches_the_fraction_image(self, name, a):
        self.assert_image_matches(name, a)

    @given(number_sets(min_size=1, max_size=12))
    def test_injective_on_valid_domains(self, a):
        pos = NumberSet(abs(q) + 1 for q in a)
        for fn in (SQUARE, RECIPROCAL, power_fn(3)):
            assert len(apply_fn(fn, pos)) == len(pos)
