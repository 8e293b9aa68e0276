import hashlib
import importlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import number_sets, rationals
from oracles import (
    cauchy_schwarz_holds,
    cauchy_schwarz_split_holds,
    holder_holds,
    naive_difference,
    naive_sumset,
    raised_bridge_holds,
)
from convexlab import comparison
from convexlab.audit import (
    CHAINS,
    DECIDED,
    FAIL,
    PASS,
    REPORT_ONLY,
    AuditReport,
    _raise_on_fail,
    audit_theorem,
    chain_consistency_bounds,
    check_cauchy_schwarz,
    check_holder,
    check_lemma_e15,
    clamped_log2,
    corollary_e3a_ratios,
)
from convexlab.comparison import compare_radical
from convexlab.errors import AuditFailure, DomainError
from convexlab.functions import LOG, RECIPROCAL, SQUARE, power_fn
from convexlab.families import FamilySpec, generate
from convexlab.radicals import RadicalSum
from convexlab.sets import NumberSet, difference_set


def nset(*values):
    return NumberSet(Fraction(v) for v in values)


def random_set(rng, max_size=32):
    size = rng.randint(2, max_size)
    vals = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(-(10 ** 6), 10 ** 6), rng.randint(1, 64)))
    return NumberSet(vals)


class TestLemmaE15:
    def test_spec_example(self):
        r = check_lemma_e15(nset(0, 1), nset(0))
        assert r.verdict == PASS
        assert r.lhs.startswith("23.31370849")   # (2*sqrt2+2)^2 = 12 + 8*sqrt2
        assert r.rhs.startswith("27.84953300")   # 10^(2/3) * 6

    def test_singleton_equality(self):
        r = check_lemma_e15(nset(4), nset(9))
        assert r.verdict == PASS and r.ratio == "1"

    def test_random_corpus_all_pass(self):
        rng = random.Random(1234)
        for _ in range(200):
            a, b = random_set(rng), random_set(rng)
            assert check_lemma_e15(a, b).verdict == PASS


class TestHolder:
    def test_spec_example(self):
        r = check_holder(nset(0, 1, 3))
        assert r.verdict == PASS
        assert r.lhs == "729"
        # (3*sqrt3+6)^2 * 7 = 441 + 252*sqrt3
        assert r.rhs_value == RadicalSum({1: 441, 3: 252})

    def test_singleton_equality(self):
        r = check_holder(nset(11))
        assert r.verdict == PASS and r.ratio == "1"

    def test_ap_margin_recorded(self):
        r = check_holder(nset(*range(16)))
        assert r.verdict == PASS
        assert Fraction(0) < Fraction(r.ratio) < 1

    @given(number_sets(min_size=1, max_size=16))
    def test_always_passes(self, a):
        assert check_holder(a).verdict == PASS


class TestCauchySchwarz:
    def test_sum_example(self):
        (r,) = check_cauchy_schwarz(nset(0, 1, 2), "sum")
        assert (r.lhs, r.rhs, r.verdict) == ("81", "95", PASS)

    def test_singleton(self):
        (r,) = check_cauchy_schwarz(nset(5), "sum")
        assert r.verdict == PASS and r.ratio == "1"

    def test_cross_example(self):
        r1, r2 = check_cauchy_schwarz(nset(0, 1, 3), "cross", nset(0, 1, 9))
        assert r1.verdict == PASS and r2.verdict == PASS

    @given(number_sets(min_size=1, max_size=12), number_sets(min_size=1, max_size=12))
    def test_all_modes_pass(self, a, f):
        assert check_cauchy_schwarz(a, "sum")[0].verdict == PASS
        assert check_cauchy_schwarz(a, "diff")[0].verdict == PASS
        for r in check_cauchy_schwarz(a, "cross", f):
            assert r.verdict == PASS

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_cauchy_schwarz(nset(1), "bogus")


class TestClampedLog:
    def test_values(self):
        assert clamped_log2(1) == (Fraction(1), True)
        assert clamped_log2(2) == (Fraction(1), False)
        value, clamped = clamped_log2(3)
        assert not clamped and Fraction(1) < value < Fraction(2)


class TestCorollaryRatios:
    def test_six_finite_positive(self):
        a = nset(*range(1, 9))
        f = difference_set(a, a)
        reports = corollary_e3a_ratios(SQUARE, a, a, f)
        names = [r.name for r in reports]
        assert names == ["energy_cap", "cross_energy_cap", "third_energy_cap",
                         "energy_cap_image", "cross_energy_cap_image", "third_energy_cap_image"]
        for r in reports:
            assert r.verdict == REPORT_ONLY
            assert Fraction(r.ratio) > 0

    def test_singleton_clamps_log(self):
        a = nset(3)
        reports = corollary_e3a_ratios(SQUARE, a, a, a)
        assert any("clamped" in flag for r in reports for flag in r.hypothesis_flags)
        for r in reports:
            assert Fraction(r.ratio) > 0

    def test_hypothesis_flags(self):
        a = nset(*range(1, 9))
        c = nset(1)
        f = nset(1, 2)
        reports = corollary_e3a_ratios(SQUARE, a, c, f)
        assert any("factor-2" in flag for flag in reports[0].hypothesis_flags)

    def test_log_fn_rejected(self):
        with pytest.raises(DomainError):
            corollary_e3a_ratios(LOG, nset(1, 2), nset(1, 2), nset(1, 2))

    # sha256 of the JSON reports: they pin every byte of the six cap reports
    @pytest.mark.parametrize("fn, f_is_diffset, digest", [
        (SQUARE, True, "25478b65cdecf56cffd79e772585cb264bd48e3e550e1de5edb1897f581f0c3e"),
        (SQUARE, False, "61255b34b1fb5a37aff13d84ae46486fedc94d47eab2ccb9e827500e35c31937"),
        (RECIPROCAL, True, "eb0000d574eca54908134c46702cedb0f4b65483c90889fcb78b9f130238fed7"),
        (RECIPROCAL, False, "e5e0d49a6a798a6dad2d4c004ef2bd86326f0f4c95688639615d035b457e6656"),
    ])
    def test_report_digests(self, fn, f_is_diffset, digest):
        a = generate(FamilySpec("squares", 12))
        c = generate(FamilySpec("random-convex", 12, seed=5))
        reports = corollary_e3a_ratios(fn, a, c, difference_set(a, a) if f_is_diffset else c)
        data = json.dumps([r.to_json_dict() for r in reports], sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == digest


SQ16 = nset(*(i * i for i in range(1, 17)))


class TestChains:
    @pytest.mark.parametrize("which", ["T1", "T2", "T3"])
    def test_squares_chain_passes(self, which):
        chain = audit_theorem(which, SQUARE, SQ16)
        assert chain.theorem == which
        for step in chain.steps:
            assert step.verdict in (PASS, REPORT_ONLY)
        assert Fraction(chain.final_ratio) > 0
        for step in chain.report_only_steps():
            assert Fraction(step.ratio) > 0

    @pytest.mark.parametrize("which", ["T1", "T2", "T3"])
    def test_chain_consistency_identity(self, which):
        for a in (SQ16, generate(FamilySpec("random-convex", 12, seed=5)), nset(1, 2, 4, 8)):
            chain = audit_theorem(which, SQUARE, a)
            lo, hi = chain_consistency_bounds(chain)
            assert hi >= 1
            assert lo >= 1 - Fraction(1, 10 ** 25)

    def test_t1_step_order(self):
        chain = audit_theorem("T1", SQUARE, nset(1, 2, 4, 8))
        assert [s.name for s in chain.steps] == [
            "holder_lower", "e15_bridge", "third_energy_cap", "cross_energy_cap"]

    def test_t2_step_order(self):
        chain = audit_theorem("T2", SQUARE, nset(1, 2, 4, 8))
        assert [s.name for s in chain.steps] == [
            "cs_sum", "energy_cap", "e15_bridge", "third_energy_cap", "cross_energy_cap"]

    def test_t3_step_order(self):
        chain = audit_theorem("T3", SQUARE, nset(1, 2, 4, 8))
        assert [s.name for s in chain.steps] == [
            "cs_cross_sumset", "cs_cross_split", "energy_cap", "energy_cap_image",
            "e15_bridge", "e15_bridge_image", "third_energy_cap", "third_energy_cap_image",
            "cross_energy_cap", "cross_energy_cap_image"]

    def test_t3_singleton_degenerates(self):
        chain = audit_theorem("T3", SQUARE, nset(2))
        assert chain.final_ratio == "1"
        assert all(s.verdict in (PASS, REPORT_ONLY) for s in chain.steps)
        assert "log|A| clamped to 1" in chain.flags

    def test_diffprod_label_via_log(self):
        chain = audit_theorem("T1", LOG, nset(*range(1, 17)))
        assert chain.theorem == "C_diffprod"
        assert Fraction(chain.final_ratio) > 0
        lo, hi = chain_consistency_bounds(chain)
        assert lo >= 1 - Fraction(1, 10 ** 25)

    def test_sumprod_label_via_log(self):
        chain = audit_theorem("T2", LOG, nset(*range(1, 17)))
        assert chain.theorem == "C_sumprod"

    def test_log_rejects_custom_c_and_t3(self):
        with pytest.raises(DomainError):
            audit_theorem("T1", LOG, nset(1, 2, 4), nset(1, 2))
        with pytest.raises(DomainError):
            audit_theorem("T3", LOG, nset(1, 2, 4))

    def test_t3_rejects_custom_c(self):
        a = nset(*range(1, 9))
        with pytest.raises(DomainError, match="T3 takes no C set"):
            audit_theorem("T3", SQUARE, a, a)

    def test_custom_c_flags_size_mismatch(self):
        chain = audit_theorem("T1", SQUARE, nset(*range(1, 9)), nset(1))
        assert any("factor-2" in f for f in chain.flags)

    def test_deterministic_reports(self):
        a = generate(FamilySpec("random-convex", 10, seed=3))
        assert audit_theorem("T2", SQUARE, a) == audit_theorem("T2", SQUARE, a)

    def test_positive_domain_enforced(self):
        with pytest.raises(DomainError):
            audit_theorem("T1", SQUARE, nset(-2, 1, 3))

    def test_power_fn_chain(self):
        chain = audit_theorem("T1", power_fn(3), nset(*range(1, 9)))
        assert all(s.verdict in (PASS, REPORT_ONLY) for s in chain.steps)

    @pytest.mark.parametrize("which, distinct", [("T1", 2), ("T2", 2), ("T3", 5), ("C_diffprod", 2)])
    def test_each_pair_counter_built_once(self, which, distinct, monkeypatch):
        energy = importlib.import_module("convexlab.energy")  # the package exports a function of that name
        built = []
        original = energy._scaled_counter

        def recording(a, b, mode):
            built.append((a.elements, b.elements, mode))
            return original(a, b, mode)

        monkeypatch.setattr(energy, "_scaled_counter", recording)
        audit_theorem(which, SQUARE, generate(FamilySpec("squares", 12)))
        assert len(built) == len(set(built)) == distinct

    def test_json_lines_shape(self):
        chain = audit_theorem("T1", SQUARE, nset(1, 2, 4, 8))
        lines = chain.to_json_lines()
        assert lines[-1]["type"] == "chain"
        assert all(l["type"] == "step" for l in lines[:-1])


class TestDerivedFinals:
    """Each chain's final ratio, derived from its rows, is the paper's bound with every energy cancelled."""

    @pytest.mark.parametrize("which, final", [
        ("T1", {("size", "f(A)+C"): 6, ("size", "A-A"): 5, ("log",): 2, ("size", "A"): -14}),
        ("T2", {("size", "f(A)+C"): 10, ("size", "A+A"): 9, ("log",): 2, ("size", "A"): -24}),
        ("T3", {("size", "A+f(A)"): 19, ("log",): 2, ("size", "A"): -24}),
    ])
    def test_final_is_the_papers_monomial(self, which, final):
        derived = CHAINS[which].final
        assert derived == final
        assert {kind for kind, *_ in derived} == {"size", "log"}  # no E, E3, E15 or E(X,Y) left

    def test_decided_rows_carry_their_exponents(self):
        decided = {which: [(s.name, s.exponent) for s in chain.steps if s.kind == DECIDED]
                   for which, chain in CHAINS.items()}
        assert decided == {
            "T1": [("holder_lower", 2), ("e15_bridge", 2)],
            "T2": [("cs_sum", 6), ("e15_bridge", 2)],
            "T3": [("cs_cross_sumset", 6), ("cs_cross_split", 3), ("e15_bridge", 1), ("e15_bridge_image", 1)],
        }

    def test_final_values_are_the_papers_ratios(self):
        a = generate(FamilySpec("random-convex", 12, seed=5))
        fa = [x * x for x in a]
        n, log = len(a), clamped_log2(len(a))[0]
        image_sums, diffs, sums = len(naive_sumset(fa, fa)), len(naive_difference(a, a)), len(naive_sumset(a, a))
        expected = {
            "T1": Fraction(image_sums ** 6 * diffs ** 5) * log ** 2 / n ** 14,
            "T2": Fraction(image_sums ** 10 * sums ** 9) * log ** 2 / n ** 24,
            "T3": Fraction(len(naive_sumset(a, fa)) ** 19) * log ** 2 / n ** 24,
        }
        for which, value in expected.items():
            assert audit_theorem(which, SQUARE, a).final_ratio_exact == value


def audit_sets(max_size=8):
    """Any rational sets (mixed signs), singletons, sets holding 0, and APs."""
    aps = st.builds(lambda start, step, n: NumberSet(start + step * i for i in range(n)),
                    rationals(), st.fractions(Fraction(1, 100), 100, max_denominator=100), st.integers(1, max_size))
    with_zero = number_sets(min_size=0, max_size=max_size - 1).map(lambda a: NumberSet((*a, Fraction(0))))
    return st.one_of(number_sets(min_size=1, max_size=1), number_sets(max_size=max_size), with_zero, aps)


def decided_on_printed_values(report, holds):
    """The verdict is the oracle's, and it is exactly the comparison of the stored LHS and RHS."""
    assert report.verdict == (PASS if holds else FAIL)
    assert (compare_radical(report.lhs_value, report.rhs_value) <= 0) == (report.verdict == PASS)


class TestDecidedRows:
    """Each "<=" row is decided on the LHS and RHS it prints, as the raised-sides oracle decides it."""

    @given(audit_sets(), audit_sets())
    def test_lemma_holder_and_cauchy_schwarz(self, a, b):
        decided_on_printed_values(check_holder(a), holder_holds(a))
        decided_on_printed_values(check_lemma_e15(a, b), raised_bridge_holds(a, b))
        (r,) = check_cauchy_schwarz(a, "sum")
        decided_on_printed_values(r, cauchy_schwarz_holds(a, a, naive_sumset(a, a)))
        (r,) = check_cauchy_schwarz(a, "diff")
        decided_on_printed_values(r, cauchy_schwarz_holds(a, a, naive_difference(a, a)))
        sumset_row, split_row = check_cauchy_schwarz(a, "cross", b)
        decided_on_printed_values(sumset_row, cauchy_schwarz_holds(a, b, naive_sumset(a, b)))
        decided_on_printed_values(split_row, cauchy_schwarz_split_holds(a, b))

    @given(audit_sets().map(lambda a: NumberSet(abs(v) for v in a)))  # the square chains' domain
    def test_chain_rows(self, a):
        fa, minus_a = nset(*(v * v for v in a)), nset(*(-v for v in a))
        oracles = {
            "T1": {"holder_lower": holder_holds(a), "e15_bridge": raised_bridge_holds(a, minus_a)},
            "T2": {"cs_sum": cauchy_schwarz_holds(a, a, naive_sumset(a, a)),
                   "e15_bridge": raised_bridge_holds(a, a)},
            "T3": {"cs_cross_sumset": cauchy_schwarz_holds(a, fa, naive_sumset(a, fa)),
                   "cs_cross_split": cauchy_schwarz_split_holds(a, fa),
                   "e15_bridge": raised_bridge_holds(a, fa),
                   "e15_bridge_image": raised_bridge_holds(fa, a)},
        }
        for which, holds in oracles.items():
            decided = [r for r in audit_theorem(which, SQUARE, a).steps if r.verdict != REPORT_ONLY]
            assert [r.name for r in decided] == list(holds)
            for report in decided:
                decided_on_printed_values(report, holds[report.name])

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.fractions(0, 10 ** 6, max_denominator=10 ** 6), st.fractions(-(10 ** 6), 10 ** 6, max_denominator=10 ** 6))
    def test_equality_cases_decided_at_the_first_rung(self, monkeypatch, u, v):
        def structural(*_):
            raise AssertionError("an equality reached the structural check")

        monkeypatch.setattr(comparison, "_cleared_radical_pair", structural)
        a = nset(u)
        reports = [check_holder(a), check_lemma_e15(a, nset(v))]
        reports += [r for which in ("T1", "T2", "T3") for r in audit_theorem(which, SQUARE, a).steps
                    if r.name.startswith(("holder", "e15_bridge"))]
        for report in reports:
            assert report.verdict == PASS and report.ratio == "1"
            assert compare_radical(report.lhs_value, report.rhs_value) == 0


class TestFailureMechanics:
    def test_fail_raises_with_counterexample(self):
        bogus = AuditReport(name="synthetic", verdict=FAIL, lhs="2", rhs="1", ratio="2")
        with pytest.raises(AuditFailure) as err:
            _raise_on_fail(bogus, {"A": (Fraction(1), Fraction(2))})
        assert err.value.report.name == "synthetic"
        assert err.value.inputs == {"A": ["1", "2"]}

    def test_pass_is_transparent(self):
        ok = AuditReport(name="fine", verdict=PASS, lhs="1", rhs="2", ratio="0.5")
        assert _raise_on_fail(ok, {}) is ok
