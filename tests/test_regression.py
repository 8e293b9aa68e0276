"""Corpus-level regression against the committed fixtures.

The chain-ratio fixture is exercised by the acceptance gate; these tests pin
the other two: the level-set ratio maxima may not grow (10% headroom before a
deliberate fixture update is required) and the convex-family |A+-A| / n^1.5
minima may never decrease (exact comparison, the stored values are exact
squared ratios).
"""
from decimal import Decimal
from fractions import Fraction

from convexlab.corpus import (
    ENR_KINDS,
    ENR_SEED,
    ENR_SIZES,
    chain_fixture_payload,
    enr_fixture_payload,
    level_fixture_payload,
    load_fixture,
)
from convexlab.families import growth_scan


def test_level_set_corpus_maxima_do_not_grow():
    stored, current = load_fixture("level_set_ratios.json"), level_fixture_payload()
    for key in ("maxRatioSt1", "maxRatioSt2"):
        assert Decimal(current[key]) <= Decimal(stored[key]) * Decimal("1.10")


def test_enr_corpus_minima_do_not_decrease():
    stored = load_fixture("enr_min_ratios.json")
    assert stored["seed"] == ENR_SEED and stored["sizes"] == ENR_SIZES
    for kind in ENR_KINDS:
        result = growth_scan(kind, None, ENR_SIZES, seed=ENR_SEED)
        for key, ratio_sq in result.enr_min_sq.items():
            pinned = Fraction(stored["families"][kind][key])
            assert ratio_sq >= pinned, (kind, key, str(ratio_sq), str(pinned))


def test_fixture_payloads_match_committed_files():
    # everything is deterministic: regenerating must reproduce the files
    assert chain_fixture_payload() == load_fixture("chain_ratios.json")
    assert level_fixture_payload() == load_fixture("level_set_ratios.json")
    assert enr_fixture_payload() == load_fixture("enr_min_ratios.json")
