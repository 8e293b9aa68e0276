import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from convexlab import comparison
from convexlab.comparison import (
    compare_radical,
    decimal_of,
    fraction_to_decimal,
    iroot_floor,
    log2_bounds,
    log2_upper,
    pow_frac_bounds,
    power_product,
    root_bounds,
)
from convexlab.radicals import RadicalSum, squarefree_decompose


class TestSquarefree:
    @pytest.mark.parametrize("n,k,m", [(1, 1, 1), (4, 2, 1), (8, 2, 2), (12, 2, 3),
                                       (49, 7, 1), (360, 6, 10), (97, 1, 97)])
    def test_examples(self, n, k, m):
        assert squarefree_decompose(n) == (k, m)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_reconstruction(self, n):
        k, m = squarefree_decompose(n)
        assert k * k * m == n
        # m squarefree: no square divisor above 1
        for p in range(2, 40):
            assert m % (p * p) != 0


class TestRadicalSum:
    def test_canonicalization(self):
        assert RadicalSum({4: 1}) == RadicalSum({1: 2})
        assert RadicalSum({8: 1}) == RadicalSum({2: 2})
        assert RadicalSum({12: 3}).terms == {3: 6}

    def test_addition_and_scaling(self):
        x = RadicalSum({3: 3}) + 6
        assert x.terms == {3: 3, 1: 6}
        assert (x * 2).terms == {3: 6, 1: 12}

    def test_square_of_binomial(self):
        x = RadicalSum({2: 2}) + 2          # 2*sqrt(2) + 2
        sq = x * x                           # 12 + 8*sqrt(2)
        assert sq.terms == {1: 12, 2: 8}

    def test_pow(self):
        x = RadicalSum({1: 12, 2: 8})        # 12 + 8*sqrt(2)
        cube = x ** 3
        # (12 + 8 sqrt2)^3 = 6336 + 4480 sqrt2  (hand expansion)
        assert cube.terms == {1: 6336, 2: 4480}
        assert x ** 0 == RadicalSum({1: 1})

    @given(st.dictionaries(st.integers(1, 50), st.integers(0, 20), max_size=5))
    def test_bounds_bracket_float_value(self, terms):
        x = RadicalSum(terms)
        lo, hi = x.bounds(80)
        approx = sum(c * math.sqrt(d) for d, c in terms.items())
        assert float(lo) <= approx * (1 + 1e-12) + 1e-12
        assert approx * (1 - 1e-12) - 1e-12 <= float(hi)
        assert hi - lo <= Fraction(sum(x.terms.values()) + 1, 2 ** 80)

    def test_json_sorted(self):
        x = RadicalSum({3: 3}) + 6
        assert x.to_json() == {"1": "6", "3": "3"}


class TestIroot:
    @given(st.integers(min_value=0, max_value=10 ** 30), st.integers(min_value=1, max_value=9))
    def test_floor_property(self, x, n):
        r = iroot_floor(x, n)
        assert r ** n <= x < (r + 1) ** n

    def test_root_bounds_exact_hit(self):
        lo, hi = root_bounds(Fraction(27), 3, 64)
        assert lo == hi == 3

    @given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=1000),
           st.integers(min_value=2, max_value=5))
    def test_root_bounds_bracket(self, q, k):
        lo, hi = root_bounds(q, k, 64)
        assert lo ** k <= q <= hi ** k


class TestLog2:
    @pytest.mark.parametrize("n", [2, 4, 1024])
    def test_powers_of_two_exact(self, n):
        lo, hi = log2_bounds(n, 100)
        assert lo == hi == n.bit_length() - 1

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_brackets_true_log(self, n):
        lo, hi = log2_bounds(n, 60)
        assert float(lo) <= math.log2(n) <= float(hi)
        assert hi - lo <= Fraction(1, 2 ** 55)

    def test_upper_is_dyadic(self):
        u = log2_upper(100)
        assert u.denominator & (u.denominator - 1) == 0
        assert float(u) >= math.log2(100)


class TestCompare:
    def test_spec_examples(self):
        assert compare_radical(RadicalSum({3: 3}) + 6, RadicalSum({108: 1}) + 6) == -1
        assert compare_radical(RadicalSum({2: 2}) + 2, 5) == -1
        assert compare_radical(RadicalSum({4: 1}), 2) == 0

    def test_power_product_vs_int(self):
        assert compare_radical(power_product((10, Fraction(2, 3))), 4) == 1
        assert compare_radical(power_product((10, Fraction(2, 3))), 5) == -1

    def test_exact_fallback_equality(self):
        lhs = power_product((Fraction(2), Fraction(1, 2)), (Fraction(8), Fraction(1, 2)))
        assert compare_radical(lhs, 4) == 0
        lhs2 = power_product((RadicalSum({2: 1}), 2))
        assert compare_radical(lhs2, 2) == 0

    def test_negative_radical_exponent_decided(self):
        # sqrt(2)^-2 equals 1/2 exactly, so no interval separates them; the exact
        # check moves the radical factor across and decides equality
        lhs = power_product((RadicalSum({2: 1}), -2))
        assert compare_radical(lhs, Fraction(1, 2)) == 0
        assert compare_radical(lhs, Fraction(1, 3)) == 1

    def test_negative_exponents(self):
        x = power_product((Fraction(9), Fraction(-1, 2)))   # 1/3
        assert compare_radical(x, Fraction(1, 3)) == 0
        assert compare_radical(x, Fraction(1, 2)) == -1

    @given(st.integers(1, 400), st.integers(1, 400))
    def test_sqrt_order_agrees_with_squares(self, a, b):
        got = compare_radical(RadicalSum({a: 1}), RadicalSum({b: 1}))
        assert got == (a > b) - (a < b)


class TestDecimals:
    def test_exact_fraction_rendering(self):
        assert fraction_to_decimal(Fraction(27843, 1000)) == "27.843"
        assert fraction_to_decimal(Fraction(1, 3), 10) == "0.3333333333"

    def test_irrational_rendering_stable(self):
        s = decimal_of(RadicalSum({2: 1}), 30)
        assert s.startswith("1.4142135623730950488016887242")

    def test_ratio_rendering(self):
        s = decimal_of(power_product((RadicalSum({2: 1}), 1), (2, -1)), 20)
        assert s.startswith("0.7071067811865475")

    def test_integer_radical_sum_renders_exactly(self):
        # a sum with only d = 1 terms has a zero-width enclosure: no padding digits
        assert decimal_of(RadicalSum({1: 5})) == "5"
        assert decimal_of(RadicalSum({4: 3})) == "6"
        assert decimal_of(RadicalSum({})) == "0"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 6, max_denominator=10 ** 4),
           st.integers(min_value=2, max_value=5))
    def test_rational_root_is_exact_at_first_rung(self, monkeypatch, q, k):
        def structural(*_):
            raise AssertionError("an exact value reached the structural check")

        monkeypatch.setattr(comparison, "_cleared_radical_pair", structural)
        root = power_product((q ** k, Fraction(1, k)))
        assert decimal_of(root) == fraction_to_decimal(q)
        assert compare_radical(root, q) == 0

    @pytest.mark.parametrize("digits", [1300, 2000])
    def test_long_renderings_are_correctly_rounded(self, digits):
        # the last rung grows with the digits asked for; 4096 bits give only ~1,233
        with localcontext() as ctx:
            ctx.prec = digits
            want = str(Decimal(2).sqrt())
        assert decimal_of(RadicalSum({2: 1}), digits) == want

    def test_rational_on_a_rounding_boundary_terminates(self):
        # sqrt(3)^2 / 2 = 1.5 exactly, yet its enclosure never has zero width
        assert decimal_of(power_product((RadicalSum({3: 1}), 2), (2, -1)), 1) in ("1", "2")

    def test_pow_frac_bounds_bracket(self):
        lo, hi = pow_frac_bounds(Fraction(10), Fraction(2, 3), 80)
        assert lo < hi
        assert lo ** 3 <= Fraction(10) ** 2 <= hi ** 3
        assert hi - lo <= Fraction(1, 2 ** 70)
