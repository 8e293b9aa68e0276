"""The fixed regression corpus and its committed-fixture bookkeeping.

Three fixture families pin the implied-constant behaviour of the workbench
across revisions:

  chains: final and per-step REPORT_ONLY ratios of every theorem chain on
          squares and random-convex families (must stay within 10%).
  levels: the largest level-set/bound ratio seen across the incidence
          corpus (the historical max must not grow).
  enr:    the smallest (|A+-A| / n^1.5)^2 seen across convex families
          (the historical min must not decrease; stored exactly).

Everything here is deterministic, so regenerated fixtures are byte-identical
unless the computation itself changed.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .audit import audit_theorem
from .families import FamilySpec, generate, growth_scan
from .functions import RECIPROCAL, SQUARE
from .incidence import lemma_st1_ratio, lemma_st2_ratio
from .comparison import fraction_to_decimal

CHAIN_SEED = 7
CHAIN_SIZES = (8, 16, 32, 64)
CHAIN_KINDS = ("squares", "random-convex")
THEOREMS = ("T1", "T2", "T3")

LEVEL_KINDS = ("AP", "squares")
LEVEL_SIZES = (4, 8, 16)
LEVEL_TAUS = (1, 2, 3)
LEVEL_FNS = (SQUARE, RECIPROCAL)

ENR_KINDS = ("squares", "powers", "geometric", "random-convex")
ENR_SIZES = [16, 32, 64]
ENR_SEED = 7

DEFAULT_FIXTURES_DIR = Path(__file__).resolve().parent.parent.parent / "fixtures"


def chain_corpus():
    """Yield (key, theorem, fn, set) for every pinned chain."""
    for kind in CHAIN_KINDS:
        for n in CHAIN_SIZES:
            a = generate(FamilySpec(kind, n, seed=CHAIN_SEED))
            for which in THEOREMS:
                yield f"{which}/{kind}/n={n}", which, SQUARE, a


def chain_fixture_payload() -> dict:
    chains = {}
    for key, which, fn, a in chain_corpus():
        chain = audit_theorem(which, fn, a)
        chains[key] = {
            "finalRatio": chain.final_ratio,
            "steps": {s.name: s.ratio for s in chain.report_only_steps()},
        }
    return {"seed": CHAIN_SEED, "chains": chains}


def _level_family(kind: str, n: int):
    if kind == "AP":
        return generate(FamilySpec("AP", n, start=Fraction(1)))
    return generate(FamilySpec(kind, n))


def level_corpus():
    """Yield (key, fn, a, tau) with A = B = C for the level-set regression."""
    for fn in LEVEL_FNS:
        for kind in LEVEL_KINDS:
            for n in LEVEL_SIZES:
                a = _level_family(kind, n)
                for tau in LEVEL_TAUS:
                    yield f"{fn.name}/{kind}/n={n}/tau={tau}", fn, a, tau


def level_fixture_payload() -> dict:
    per_key = {}
    max1 = max2 = Fraction(0)
    for key, fn, a, tau in level_corpus():
        r1 = lemma_st1_ratio(fn, a, a, a, tau)
        r2 = lemma_st2_ratio(fn, a, a, a, tau)
        per_key[key] = {"st1": fraction_to_decimal(r1.ratio), "st2": fraction_to_decimal(r2.ratio)}
        max1, max2 = max(max1, r1.ratio), max(max2, r2.ratio)
    return {
        "maxRatioSt1": fraction_to_decimal(max1),
        "maxRatioSt2": fraction_to_decimal(max2),
        "perKey": per_key,
    }


def enr_fixture_payload() -> dict:
    families = {}
    for kind in ENR_KINDS:
        result = growth_scan(kind, None, ENR_SIZES, seed=ENR_SEED)
        families[kind] = {
            key: f"{sq.numerator}/{sq.denominator}" for key, sq in sorted(result.enr_min_sq.items())
        }
    return {"seed": ENR_SEED, "sizes": ENR_SIZES, "families": families}


def write_fixtures(directory: Path | str = DEFAULT_FIXTURES_DIR) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in (
        ("chain_ratios.json", chain_fixture_payload()),
        ("level_set_ratios.json", level_fixture_payload()),
        ("enr_min_ratios.json", enr_fixture_payload()),
    ):
        path = directory / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


def load_fixture(name: str, directory: Path | str = DEFAULT_FIXTURES_DIR) -> dict:
    with open(Path(directory) / name, encoding="utf-8") as fh:
        return json.load(fh)
