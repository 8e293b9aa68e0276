import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import number_sets
from convexlab.comparison import compare_radical
from convexlab.energy import (
    DIFFERENCE,
    SUM,
    dyadic_profile,
    energy,
    energy_cross_moment,
    energy_report,
    energy_third,
    energy_threehalves,
    level_set_count,
    rep_function,
)
from convexlab.errors import EmptyInputError
from convexlab.radicals import RadicalSum
from convexlab.sets import NumberSet, difference_set, pair_counts, sumset
from oracles import (
    ap_energy_closed_form,
    ap_energy_summation,
    naive_level_count,
    naive_rep,
    quadruple_energy,
    quadruple_energy_sum_form,
)


def nset(*values):
    return NumberSet(Fraction(v) for v in values)


AP_013 = nset(0, 1, 3)


class TestRepFunction:
    def test_difference_table(self):
        r = rep_function(AP_013, AP_013, DIFFERENCE)
        assert r[Fraction(0)] == 3
        for s in (1, -1, 2, -2, 3, -3):
            assert r[Fraction(s)] == 1
        assert len(r) == 7

    def test_sum_table(self):
        r = rep_function(nset(0, 1), nset(0, 1), SUM)
        assert r == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}

    def test_singletons(self):
        assert rep_function(nset(5), nset(5), SUM) == {Fraction(10): 1}
        assert rep_function(nset(5), nset(5), DIFFERENCE) == {Fraction(0): 1}

    def test_empty_error(self):
        with pytest.raises(EmptyInputError):
            rep_function(NumberSet(), AP_013)

    @given(number_sets(max_size=10), number_sets(max_size=10))
    def test_matches_oracle_and_bookkeeping(self, a, b):
        for mode in (DIFFERENCE, SUM):
            r = rep_function(a, b, mode)
            assert r == dict(naive_rep(a, b, mode))
            assert sum(r.values()) == len(a) * len(b)
            assert max(r.values()) <= min(len(a), len(b))

    @given(number_sets(max_size=10))
    def test_diagonal_symmetry(self, a):
        r = rep_function(a, a, DIFFERENCE)
        assert r[Fraction(0)] == len(a)
        for s, c in r.items():
            assert r[-s] == c

    def test_support_equals_combination_set(self):
        a, b = nset(0, 1, 3), nset(Fraction(1, 2), 5)
        assert set(rep_function(a, b, DIFFERENCE)) == set(difference_set(a, b))
        assert set(rep_function(a, b, SUM)) == set(sumset(a, b))


class TestEnergies:
    def test_spec_values(self):
        assert energy(AP_013, AP_013) == 15
        assert energy(nset(0, 1, 2), nset(0, 1, 2)) == 19
        assert energy(nset(7), nset(7)) == 1
        assert energy_third(AP_013) == 33
        assert energy_third(nset(0, 1, 2)) == 45
        assert energy_third(nset(7)) == 1

    def test_e15_values(self):
        assert energy_threehalves(AP_013) == RadicalSum({3: 3, 1: 6})
        assert energy_threehalves(nset(0, 1)) == RadicalSum({2: 2, 1: 2})
        assert energy_threehalves(nset(9)) == RadicalSum({1: 1})

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_ap_closed_form(self, n):
        ap = nset(*range(n))
        assert energy(ap, ap) == ap_energy_closed_form(n) == ap_energy_summation(n)

    @given(number_sets(max_size=8), number_sets(max_size=8))
    def test_three_routes_and_quadruple_oracle(self, a, b):
        via_delta = energy(a, b, via=DIFFERENCE)
        via_sigma = energy(a, b, via=SUM)
        assert via_delta == via_sigma == energy_cross_moment(a, b)
        assert via_delta == quadruple_energy(a, b) == quadruple_energy_sum_form(a, b)

    @given(number_sets(max_size=12))
    def test_moment_monotonicity(self, a):
        e = energy(a, a)
        e3 = energy_third(a)
        assert len(a) ** 2 <= e <= e3 <= len(a) * e

    @given(number_sets(max_size=12))
    def test_cauchy_schwarz_both_signs(self, a):
        e = energy(a, a)
        assert len(a) ** 4 <= e * len(sumset(a, a))
        assert len(a) ** 4 <= e * len(difference_set(a, a))

    @given(number_sets(max_size=10))
    def test_holder_via_compare_radical(self, a):
        lhs = len(a) ** 6
        rhs = energy_threehalves(a) ** 2 * len(difference_set(a, a))
        assert compare_radical(lhs, rhs) <= 0

    @given(number_sets(max_size=10))
    def test_e15_squared_between_e_and_e3_products(self, a):
        # (sum d^1.5)^2 <= E_3 * E by Cauchy-Schwarz; checked exactly
        e15_sq = energy_threehalves(a) ** 2
        assert compare_radical(e15_sq, energy_third(a) * energy(a, a)) <= 0


class TestLevelSets:
    def test_examples(self):
        times = pair_counts(AP_013, AP_013, "-").spectrum
        assert level_set_count(times, 3) == 1
        assert level_set_count(times, 1) == len(difference_set(AP_013, AP_013))
        assert level_set_count(times, 4) == 0

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            level_set_count(pair_counts(AP_013, AP_013, "-").spectrum, 0)

    @given(number_sets(max_size=10), number_sets(max_size=10), st.integers(1, 12))
    def test_matches_oracle_and_monotone(self, a, b, tau):
        times = pair_counts(a, b, "+").spectrum
        naive = naive_rep(a, b, "sum")
        assert level_set_count(times, tau) == naive_level_count(naive, tau)
        assert level_set_count(times, tau) >= level_set_count(times, tau + 1)
        assert level_set_count(times, min(len(a), len(b)) + 1) == 0


class TestDyadicProfile:
    def test_spec_example(self):
        assert dyadic_profile(pair_counts(AP_013, AP_013, "-").spectrum) == [(1, 6, 6), (2, 1, 3)]

    def test_uniform_multiplicity(self):
        times = pair_counts(nset(0, 1), nset(0, 10), "-").spectrum
        assert dyadic_profile(times) == [(1, 4, 4)]

    def test_singleton(self):
        assert dyadic_profile(pair_counts(nset(3), nset(3), "-").spectrum) == [(1, 1, 1)]

    @given(number_sets(max_size=12))
    def test_partitions_support(self, a):
        profile = dyadic_profile(pair_counts(a, a, "-").spectrum)
        assert sum(count for _, count, _ in profile) == len(naive_rep(a, a, "difference"))
        assert sum(mass for _, _, mass in profile) == len(a) ** 2
        for band, count, mass in profile:
            assert band <= mass < 2 * band * count + band


class TestEnergyReport:
    def test_json_shape(self):
        rep = energy_report(AP_013)
        payload = rep.to_json_dict()
        assert payload == {"E": "15", "E3": "33", "E15": {"1": "6", "3": "3"}, "maxMult": "3"}
        json.dumps(payload)  # serializable

    def test_e15_decimal(self):
        rep = energy_report(AP_013)
        assert rep.e15_decimal(10) == "11.19615242"
