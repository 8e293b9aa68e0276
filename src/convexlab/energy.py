"""Representation functions and the energy moments E, E_3, E_1.5.

delta(A,B)(s) counts ordered pairs with a - b == s, sigma(A,B)(s) counts
a + b == s.  All multiplicity maps are computed on the scaled-integer lattice
(one Counter pass over |A||B| pairs), so the energies are exact integers; the
1.5-moment is the exact RadicalSum  sum_s delta(s) * sqrt(delta(s)).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .comparison import decimal_of
from .errors import EmptyInputError
from .radicals import RadicalSum
from .sets import NumberSet, common_scaling

DIFFERENCE = "difference"
SUM = "sum"


@dataclass(frozen=True)
class RepFunction:
    """Multiplicity map of a difference or sum set."""

    mode: str
    support: dict[Fraction, int]
    size_a: int
    size_b: int

    @property
    def total_pairs(self) -> int:
        return self.size_a * self.size_b

    @property
    def max_multiplicity(self) -> int:
        return max(self.support.values())

    def __len__(self) -> int:
        return len(self.support)


def _scaled_counter(a: NumberSet, b: NumberSet, mode: str) -> tuple[Counter, int]:
    if len(a) == 0 or len(b) == 0:
        raise EmptyInputError("representation functions need nonempty sets")
    ia, ib, denom = common_scaling(a, b)
    if mode == DIFFERENCE:
        return Counter(x - y for x in ia for y in ib), denom
    if mode == SUM:
        return Counter(x + y for x in ia for y in ib), denom
    raise ValueError(f"mode must be {DIFFERENCE!r} or {SUM!r}")


def rep_function(a: NumberSet, b: NumberSet, mode: str = DIFFERENCE) -> RepFunction:
    """Exact multiplicity map; its support equals the difference/sum set."""
    counts, denom = _scaled_counter(a, b, mode)
    support = {Fraction(v, denom): c for v, c in counts.items()}
    return RepFunction(mode=mode, support=support, size_a=len(a), size_b=len(b))


def energy(a: NumberSet, b: NumberSet, via: str = DIFFERENCE) -> int:
    """Additive energy E(A,B) = sum_s delta(A,B)(s)**2 = sum_s sigma(A,B)(s)**2.

    Both routes are implemented and must agree; `via` picks the one to run.
    """
    counts, _ = _scaled_counter(a, b, via)
    return sum(c * c for c in counts.values())


def energy_cross_moment(a: NumberSet, b: NumberSet) -> int:
    """The third equivalent form: sum_s delta_A(s) * delta_B(s)."""
    da, _ = _scaled_counter(a, a, DIFFERENCE)
    # delta_B must live on the same lattice as delta_A for keys to match
    ia, ib, denom = common_scaling(a, b)
    db = Counter(x - y for x in ib for y in ib)
    la = a.scaled()[1]
    scale = denom // la
    return sum(c * db.get(s * scale, 0) for s, c in da.items())


def energy_third(a: NumberSet) -> int:
    """Third-moment energy E_3(A) = sum_s delta_A(s)**3."""
    return energy_report(a).E3


def energy_threehalves(a: NumberSet) -> RadicalSum:
    """1.5-moment energy as an exact radical sum: each s adds delta * sqrt(delta)."""
    return energy_report(a).E15


def level_set_count(rep: RepFunction, tau: int) -> int:
    """Number of support elements with multiplicity >= tau (tau >= 1)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return sum(1 for c in rep.support.values() if c >= tau)


def dyadic_profile(rep: RepFunction) -> list[tuple[int, int, int]]:
    """Per-band (2**j, point count, multiplicity mass); bands are [2**j, 2**(j+1))."""
    bands: dict[int, list[int]] = {}
    for c in rep.support.values():
        j = c.bit_length() - 1
        slot = bands.setdefault(j, [0, 0])
        slot[0] += 1
        slot[1] += c
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
    """E, E_3, E_1.5 and the largest multiplicity of A from one delta_A counter pass."""
    counts, _ = _scaled_counter(a, a, DIFFERENCE)
    times = Counter(counts.values())  # multiplicity -> number of s carrying it
    return EnergyReport(
        E=sum(m * m * t for m, t in times.items()),
        E3=sum(m ** 3 * t for m, t in times.items()),
        E15=RadicalSum({m: m * t for m, t in times.items()}),
        max_multiplicity=max(times),
    )
