import hashlib
import random
import threading
from fractions import Fraction

import pytest

from convexlab.errors import BudgetError, DomainError
from convexlab.families import FamilySpec, generate
from convexlab.search import (
    MOVES,
    SearchConfig,
    _propose,
    extremal_search,
    normalization_constant,
    normalization_exponents,
    objective_core,
    objective_value,
)
from convexlab.functions import SQUARE
from convexlab.sets import NumberSet, difference_set, product_set


def cfg(**overrides):
    base = dict(objective="diffProdRatio", set_size=8, iterations=40, seed=1)
    base.update(overrides)
    return SearchConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(set_size=3)
        with pytest.raises(ValueError):
            cfg(iterations=-1)
        with pytest.raises(ValueError):
            cfg(objective="nope")
        with pytest.raises(ValueError):
            cfg(temp_decay=Fraction(0))
        with pytest.raises(ValueError):
            cfg(move_set=("teleport",))
        with pytest.raises(ValueError):
            cfg(restarts=0)
        with pytest.raises(BudgetError, match="PAIR_BUDGET"):
            cfg(set_size=5793)
        assert cfg(set_size=5792).set_size == 5792  # 5,792^2 pairs fit in PAIR_BUDGET; not run

    def test_json_round_trip(self):
        c = cfg(initial=FamilySpec("geometric", 8, ratio=Fraction(3, 2)), restarts=2)
        again = SearchConfig.from_json_dict(c.to_json_dict())
        assert again == c


class TestObjective:
    def test_core_matches_direct_sizes(self):
        a = NumberSet([1, 2, 4, 8, 16, 32, 64, 100])
        core = objective_core("diffProdRatio", a, SQUARE)
        assert core == max(len(product_set(a, a)), len(difference_set(a, a)))

    @pytest.mark.parametrize("objective", ["diffProdRatio", "sumProdRatio"])
    def test_product_objectives_need_positive_sets(self, objective):
        with pytest.raises(DomainError, match="log pipelines require strictly positive elements"):
            objective_value(cfg(objective=objective), NumberSet([0, 1, 3, 7]))

    def test_normalization_positive(self):
        for name in ("T1ratio", "T2ratio", "diffProdRatio", "sumProdRatio"):
            k = normalization_constant(name, 8)
            assert k > 0

    @pytest.mark.parametrize("name, exponents", [
        ("T1ratio", (Fraction(2, 11), Fraction(14, 11))),
        ("diffProdRatio", (Fraction(2, 11), Fraction(14, 11))),
        ("T2ratio", (Fraction(2, 19), Fraction(24, 19))),
        ("sumProdRatio", (Fraction(2, 19), Fraction(24, 19))),
    ])
    def test_normalization_exponents_from_the_chains(self, name, exponents):
        assert normalization_exponents(name) == exponents

    # The exact Fractions of the exponent table the chain derivation replaced: the
    # value at n = 4, and the sha256 of str(value) for n = 4, 8, 24, 100, one per line.
    T1_AT_4 = "718955974803737463061787321041/3700221663976489900084094703713"
    T2_AT_4 = "1363599817281870264257589795499/7302917551150547960993974172538"
    T1_DIGEST = "f81df19aacfb2d36c791c63bc77bee931068aef9904c82a8061a022616ab614a"
    T2_DIGEST = "d462798bdf42648636b5fc4495839de20f9fed24b8b0d958601d9f5281f66da7"

    @pytest.mark.parametrize("name, at_4, digest", [
        ("T1ratio", T1_AT_4, T1_DIGEST),
        ("diffProdRatio", T1_AT_4, T1_DIGEST),
        ("T2ratio", T2_AT_4, T2_DIGEST),
        ("sumProdRatio", T2_AT_4, T2_DIGEST),
    ])
    def test_normalization_constant_pinned(self, name, at_4, digest):
        assert normalization_constant(name, 4) == Fraction(at_4)
        data = "\n".join(str(normalization_constant(name, n)) for n in (4, 8, 24, 100)).encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestSearch:
    def test_zero_budget_returns_initial(self):
        out = extremal_search(cfg(iterations=0))
        assert out.best_set == NumberSet([1, 2, 4, 8, 16, 32, 64, 128])
        assert out.traces == ()

    def test_objective_matches_reevaluation(self):
        c = cfg(iterations=60, seed=2)
        out = extremal_search(c)
        assert objective_value(c, out.best_set) == out.best_objective

    def test_trace_best_monotone_nonincreasing(self):
        out = extremal_search(cfg(iterations=80, seed=3))
        bests = [Fraction(t["best"]) for t in out.traces]
        assert all(bests[i + 1] <= bests[i] for i in range(len(bests) - 1))

    def test_deterministic(self):
        a = extremal_search(cfg(iterations=50, seed=4))
        b = extremal_search(cfg(iterations=50, seed=4))
        assert a == b

    def test_constraints_preserved(self):
        for objective in ("diffProdRatio", "sumProdRatio", "T1ratio", "T2ratio"):
            out = extremal_search(cfg(objective=objective, iterations=30, seed=5))
            best = out.best_set
            assert len(best) == 8
            assert best.is_strictly_positive()
            assert len(set(best.elements)) == 8

    def test_restart_merge_and_workers_identical(self):
        c = cfg(iterations=30, seed=6, restarts=3)
        serial = extremal_search(c)
        assert serial == extremal_search(c)
        restarts_seen = {t["restart"] for t in serial.traces}
        assert restarts_seen == {0, 1, 2}

    def test_workers_start_no_thread(self, monkeypatch):
        started, real_start = [], threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        c = cfg(iterations=10, seed=6, restarts=3)
        assert extremal_search(c) == extremal_search(c)
        assert started == []

    def test_ap_initial_is_shifted_positive(self):
        c = cfg(initial=FamilySpec("AP", 8), iterations=0, seed=0,
                objective="sumProdRatio")
        out = extremal_search(c)
        assert out.best_set == NumberSet(range(1, 9))

    def test_search_improves_or_preserves_geometric_start(self):
        c = cfg(iterations=120, seed=9)
        start = extremal_search(cfg(iterations=0, seed=9))
        out = extremal_search(c)
        assert out.best_objective <= start.best_objective


def fraction_propose(rng, a, move):
    """Both moves in Fraction arithmetic on the elements: the reference for the moves on the lattice."""
    e = a.elements
    n = len(e)
    if move == "element-replace":
        i = rng.randrange(n)
        lo = e[i - 1] if i > 0 else e[0] / 2
        hi = e[i + 1] if i < n - 1 else e[-1] + (e[-1] - e[-2])
        k = rng.randint(1, 1023)
        candidate = lo + (hi - lo) * Fraction(k, 1024)
        if candidate <= 0 or candidate in e:
            return None
        return NumberSet(e[:i] + (candidate,) + e[i + 1:])
    i = rng.randint(1, n - 1)
    gap = e[i] - e[i - 1]
    k = rng.randint(0, 1024)
    delta = gap * Fraction(2 * k - 1024, 2048)
    if delta == 0:
        return None
    return NumberSet(e[:i] + tuple(q + delta for q in e[i:]))


PROPOSAL_STARTS = [
    NumberSet(2 ** i for i in range(24)),
    generate(FamilySpec("random-convex", 24, seed=3)),
    NumberSet(range(1, 6)),  # an AP: a midpoint candidate can equal the element it replaces
    NumberSet([Fraction(-5, 3), -1, 0, Fraction(2, 7), 7, 30]),  # a candidate can be nonpositive
    NumberSet([1, 2]),
]


@pytest.mark.parametrize("move", MOVES)
def test_lattice_moves_match_the_fraction_formula(move):
    """1,000 seeded draws, walking 100 accepted moves from each start, so denominators grow past int64:
    the same sets, the same rejections and the same random draws as the Fraction formula."""
    rng, reference = random.Random(7), random.Random(7)
    for draw in range(1000):
        if draw % 100 == 0:
            a = PROPOSAL_STARTS[draw // 100 % len(PROPOSAL_STARTS)]
        got, want = _propose(rng, a, move), fraction_propose(reference, a, move)
        assert got == want
        assert rng.getstate() == reference.getstate()
        a = got or a
    assert a.denom.bit_length() > 64


class Midpoint(random.Random):
    """Draws the middle of every randint range: k = 512 is a rejection for both moves."""

    def randint(self, lo, hi):
        return (lo + hi) // 2


@pytest.mark.parametrize("move", MOVES)
def test_lattice_moves_reject_like_the_fraction_formula(move):
    """A zero shift always; a candidate equal to the element it replaces in the AP, unless it replaces the first."""
    rejected = []
    for a in PROPOSAL_STARTS:
        for seed in range(20):
            got = _propose(Midpoint(seed), a, move)
            assert got == fraction_propose(Midpoint(seed), a, move)
            rejected.append(got is None)
    assert all(rejected) if move == "gap-perturb" else any(rejected)
