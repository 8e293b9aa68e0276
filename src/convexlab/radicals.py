"""Exact values of the form sum_d c_d * sqrt(d) with nonnegative integer c_d.

This is the house for the 1.5-moment energy: each multiplicity m contributes
m^1.5 = m * sqrt(m).  Terms are kept canonical (radicands squarefree, zero
coefficients dropped), which makes equality structural: square roots of
distinct squarefree integers are linearly independent over the rationals.

Products never need factoring: for squarefree d, e the identity
sqrt(d)*sqrt(e) = g*sqrt((d/g)*(e/g)) with g = gcd(d, e) keeps everything
squarefree.  Only raw radicands entering through `add_term` are decomposed,
and those are small (bounded by set cardinalities).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

_SQUAREFREE_CACHE: dict[int, tuple[int, int]] = {}


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = k**2 * m with m squarefree; returns (k, m)."""
    if n <= 0:
        raise ValueError("radicands must be positive")
    hit = _SQUAREFREE_CACHE.get(n)
    if hit is not None:
        return hit
    k, m, rest, p = 1, 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= rest
    _SQUAREFREE_CACHE[n] = (k, m)
    return (k, m)


class RadicalSum:
    """Immutable sum of integer multiples of square roots of positive integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        canon: dict[int, int] = {}
        if terms:
            for d, c in terms.items():
                if c < 0:
                    raise ValueError("coefficients must be nonnegative")
                if c == 0:
                    continue
                k, m = squarefree_decompose(d)
                canon[m] = canon.get(m, 0) + c * k
        self.terms = canon

    @classmethod
    def from_int(cls, n: int) -> "RadicalSum":
        if n < 0:
            raise ValueError("RadicalSum values are nonnegative")
        return cls({1: n} if n else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = RadicalSum.from_int(other)
        return isinstance(other, RadicalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "RadicalSum(0)"
        bits = []
        for d in sorted(self.terms):
            c = self.terms[d]
            bits.append(str(c) if d == 1 else (f"sqrt({d})" if c == 1 else f"{c}*sqrt({d})"))
        return "RadicalSum(" + " + ".join(bits) + ")"

    def __add__(self, other) -> "RadicalSum":
        if isinstance(other, int):
            other = RadicalSum.from_int(other)
        merged = dict(self.terms)
        for d, c in other.terms.items():
            merged[d] = merged.get(d, 0) + c
        out = RadicalSum.__new__(RadicalSum)
        out.terms = merged
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "RadicalSum":
        if isinstance(other, int):
            if other < 0:
                raise ValueError("scaling must be nonnegative")
            out = RadicalSum.__new__(RadicalSum)
            out.terms = {d: c * other for d, c in self.terms.items()} if other else {}
            return out
        prod: dict[int, int] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                g = gcd(d1, d2)
                rad = (d1 // g) * (d2 // g)
                prod[rad] = prod.get(rad, 0) + c1 * c2 * g
        out = RadicalSum.__new__(RadicalSum)
        out.terms = {d: c for d, c in prod.items() if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RadicalSum":
        if n < 0:
            raise ValueError("only nonnegative integer powers")
        result = RadicalSum.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """Enclosing rational interval with absolute radical error < len(terms)/2**prec."""
        lo = hi = 0  # numerators over 2**prec
        for d, c in self.terms.items():
            r = isqrt(d << (2 * prec))
            lo, hi = lo + c * r, hi + c * (r if d == 1 else r + 1)
        return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)

    def to_json(self) -> dict[str, str]:
        return {str(d): str(self.terms[d]) for d in sorted(self.terms)}
