"""Representation functions and the energy moments E, E_3, E_1.5, read from the pair kernel.

delta(A,B)(s) counts ordered pairs with a - b == s, sigma(A,B)(s) counts
a + b == s.  Both are the pair-kernel histogram of - and + on the (ints,
denom) lattice (see `sets`).  A histogram of A with itself is kept on A, so
|A-A| and all moments of A share one count.  One of two different sets is
counted unkept: its reader, the audit memo, keeps only the integer E(A, B).
Every multiplicity statistic reads the spectrum (multiplicity m -> how many
s carry it): the moments, the largest multiplicity, the level-set sizes and
the dyadic profile.  So they are exact integers, the 1.5-moment is the exact
RadicalSum sum_s delta(s) * sqrt(delta(s)), and Fractions are made only for
`rep_function`'s map.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .comparison import decimal_of
from .radicals import RadicalSum
from .sets import NumberSet, PairCounts, count_pairs, pair_counts

DIFFERENCE = "difference"
SUM = "sum"
OPS = {DIFFERENCE: "-", SUM: "+"}


def _scaled_counter(a: NumberSet, b: NumberSet, mode: str) -> PairCounts:
    if mode not in OPS:
        raise ValueError(f"mode must be {DIFFERENCE!r} or {SUM!r}")
    return (pair_counts if a is b else count_pairs)(a, b, OPS[mode])


def rep_function(a: NumberSet, b: NumberSet, mode: str = DIFFERENCE) -> dict[Fraction, int]:
    """Exact multiplicity map {s: r(s)}; its keys are the difference/sum set."""
    counts = _scaled_counter(a, b, mode)
    return {Fraction(v, counts.denom): c for v, c in counts.items()}


def energy(a: NumberSet, b: NumberSet, via: str = DIFFERENCE) -> int:
    """Additive energy E(A,B) = sum_s delta(A,B)(s)**2 = sum_s sigma(A,B)(s)**2.

    Both routes are implemented and must agree; `via` picks the one to run.
    """
    return sum(m * m * t for m, t in _scaled_counter(a, b, via).spectrum.items())


def energy_cross_moment(a: NumberSet, b: NumberSet) -> int:
    """The third equivalent form: sum_s delta_A(s) * delta_B(s)."""
    da, db = _scaled_counter(a, a, DIFFERENCE), _scaled_counter(b, b, DIFFERENCE)
    denom = lcm(da.denom, db.denom)  # match the keys on the common lattice
    delta_b = dict(db.scaled(denom))
    return sum(c * delta_b.get(v, 0) for v, c in da.scaled(denom))


def energy_third(a: NumberSet) -> int:
    """Third-moment energy E_3(A) = sum_s delta_A(s)**3."""
    return energy_report(a).E3


def energy_threehalves(a: NumberSet) -> RadicalSum:
    """1.5-moment energy as an exact radical sum: each s adds delta * sqrt(delta)."""
    return energy_report(a).E15


def level_set_count(times: dict[int, int], tau: int) -> int:
    """|{s : r(s) >= tau}| (tau >= 1) from the spectrum `times` of r: multiplicity -> count."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return sum(t for m, t in times.items() if m >= tau)


def dyadic_profile(times: dict[int, int]) -> list[tuple[int, int, int]]:
    """Per-band (2**j, point count, multiplicity mass) of a spectrum; bands are [2**j, 2**(j+1))."""
    bands: dict[int, list[int]] = {}
    for m, t in times.items():
        slot = bands.setdefault(m.bit_length() - 1, [0, 0])
        slot[0] += t
        slot[1] += m * t
    return [(1 << j, bands[j][0], bands[j][1]) for j in sorted(bands)]


@dataclass(frozen=True)
class EnergyReport:
    """Diagonal energy summary of a single set."""

    E: int
    E3: int
    E15: RadicalSum
    max_multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "E": str(self.E),
            "E3": str(self.E3),
            "E15": self.E15.to_json(),
            "maxMult": str(self.max_multiplicity),
        }

    def e15_decimal(self, digits: int = 30) -> str:
        return decimal_of(self.E15, digits)


def energy_report(a: NumberSet) -> EnergyReport:
    """E, E_3, E_1.5 and the largest multiplicity of A from the spectrum of delta_A."""
    times = _scaled_counter(a, a, DIFFERENCE).spectrum
    return EnergyReport(
        E=sum(m * m * t for m, t in times.items()),
        E3=sum(m ** 3 * t for m, t in times.items()),
        E15=RadicalSum({m: m * t for m, t in times.items()}),
        max_multiplicity=max(times),
    )
