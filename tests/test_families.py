import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from convexlab import families, sets
from convexlab.families import ALL_KINDS, CONVEX_KINDS, FamilySpec, generate, growth_scan, scan_to_tsv
from convexlab.functions import SQUARE, apply_fn
from convexlab.sets import NumberSet, count_pairs, difference_set, product_set, sumset


class TestGenerate:
    def test_squares(self):
        assert generate(FamilySpec("squares", 4)) == NumberSet([1, 4, 9, 16])

    def test_ap(self):
        assert generate(FamilySpec("AP", 5)) == NumberSet([0, 1, 2, 3, 4])
        shifted = generate(FamilySpec("AP", 3, start=Fraction(1), step=Fraction(1, 2)))
        assert shifted == NumberSet([1, Fraction(3, 2), 2])

    def test_powers(self):
        assert generate(FamilySpec("powers", 3, power=3)) == NumberSet([1, 8, 27])

    def test_geometric_exact(self):
        g = generate(FamilySpec("geometric", 6, ratio=Fraction(3, 2)))
        assert len(g) == 6 and g.is_convex()
        assert len(product_set(g, g)) == 2 * 6 - 1

    def test_random_convex_gap_oracle(self):
        for seed in (0, 7, 123):
            a = generate(FamilySpec("random-convex", 16, seed=seed))
            gaps = [a[i + 1] - a[i] for i in range(len(a) - 1)]
            assert all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))
            assert a.is_strictly_positive()

    def test_random_uniform_distinct(self):
        a = generate(FamilySpec("random-uniform", 24, seed=3))
        assert len(a) == 24

    @given(st.sampled_from(["AP", "squares", "powers", "geometric", "random-convex", "random-uniform"]),
           st.integers(1, 24), st.integers(0, 2 ** 32))
    def test_pure_in_kind_n_seed(self, kind, n, seed):
        spec = FamilySpec(kind, n, seed=seed)
        a, b = generate(spec), generate(spec)
        assert a == b and len(a) == n

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("geometric", 4, ratio=Fraction(1)))
        with pytest.raises(ValueError):
            generate(FamilySpec("powers", 4, power=1))
        with pytest.raises(ValueError):
            generate(FamilySpec("AP", 4, step=Fraction(0)))
        with pytest.raises(ValueError):
            generate(FamilySpec("nope", 4))
        with pytest.raises(ValueError):
            generate(FamilySpec("AP", 0))

    @pytest.mark.parametrize("kind", CONVEX_KINDS)
    def test_convex_kinds_are_convex(self, kind):
        a = generate(FamilySpec(kind, 12, seed=1))
        assert a.is_convex()


class TestGrowthScan:
    def test_ap_sumset_ratio(self):
        res = growth_scan("AP", None, [8, 16, 32])
        for row in res.rows:
            assert row.sumset == 2 * row.n - 1
            assert row.diffset == 2 * row.n - 1
        assert abs(res.ls_slopes["sumset"] - 1) < Fraction(1, 20)

    def test_geometric_prodset_exact(self):
        res = growth_scan("geometric", None, [4, 8, 16])
        for row in res.rows:
            assert row.prodset == 2 * row.n - 1

    def test_squares_diffset_slope(self):
        res = growth_scan("squares", SQUARE, [64, 128, 256])
        assert res.ls_slopes["diffset"] >= Fraction(3, 2)

    def test_enr_minimum_tracked(self):
        res = growth_scan("squares", None, [16, 32])
        a16 = generate(FamilySpec("squares", 16))
        d = len(difference_set(a16, a16))
        s = len(sumset(a16, a16))
        assert res.enr_min_sq["diff"] <= Fraction(d * d, 16 ** 3)
        assert res.enr_min_sq["sum"] <= Fraction(s * s, 16 ** 3)

    def test_ap_has_no_enr_entry_and_no_prodset(self):
        res = growth_scan("AP", None, [4, 8])
        assert res.enr_min_sq == {}
        assert res.rows[0].prodset is None   # contains 0

    def test_scan_reads_sizes_alone(self, monkeypatch):
        """A pure-Python scan reads its counts for their sizes only: no spectrum is built and no multiplicity counted."""
        counted = []

        def recording(*args):
            counted.append(count_pairs(*args))
            return counted[-1]

        monkeypatch.setattr(families, "count_pairs", recording)
        monkeypatch.setattr(sets, "Counter", None)  # a multiplicity count would call it
        res = growth_scan("random-convex", SQUARE, [4, 8, 16], seed=3)  # at most 256 pairs: pure Python
        assert len(counted) == 12 and all(pc._spectrum is None for pc in counted)
        monkeypatch.undo()
        for row in res.rows:
            a = generate(FamilySpec("random-convex", row.n, seed=3))
            sizes = (len(sumset(a, a)), len(difference_set(a, a)), len(product_set(a, a)),
                     len(sumset(a, apply_fn(SQUARE, a))))
            assert (row.sumset, row.diffset, row.prodset, row.a_plus_fa) == sizes

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            growth_scan("AP", None, [8, 4])
        with pytest.raises(ValueError):
            growth_scan("AP", None, [8, 8192])

    def test_slope_columns_between_consecutive_sizes(self):
        res = growth_scan("AP", None, [4, 8])
        assert res.rows[0].slopes["sumset"] is None
        slope = res.rows[1].slopes["sumset"]
        assert Fraction(9, 10) < slope < Fraction(11, 10)

    def test_tsv_round_trip_shape(self):
        res = growth_scan("squares", SQUARE, [4, 8])
        text = scan_to_tsv(res, digits=12)
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header = lines[0].split("\t")
        assert header[:6] == ["kind", "n", "sumset", "diffset", "prodset", "a_plus_fa"]
        assert len(lines) == 3
        row = lines[1].split("\t")
        assert row[0] == "squares" and int(row[1]) == 4
        assert any(l.startswith("# ls_slope_") for l in text.splitlines())
        assert any(l.startswith("# enr_min_diff_ratio_sq") for l in text.splitlines())

    def test_scan_bytes_pinned(self):
        # every size, step slope, least-squares slope and ENR minimum of every kind
        text = "".join(scan_to_tsv(growth_scan(kind, SQUARE, [4, 8, 16, 32], seed=3)) for kind in ALL_KINDS)
        assert len(text) == 4297
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2edf44a854a7321be6bbf219ef2b3094d93c9b573a9c4a447ee8d1fce5e355e9")
