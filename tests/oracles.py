"""Brute-force reference implementations used as independent test oracles.

Everything here works directly on Fractions with the most literal possible
algorithm (set comprehensions, quadruple loops, per-point membership tests)
and never touches the package's scaled-integer kernels.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt


def naive_sumset(a, b) -> set[Fraction]:
    return {x + y for x in a for y in b}


def naive_difference(a, b) -> set[Fraction]:
    return {x - y for x in a for y in b}


def naive_product(a, b) -> set[Fraction]:
    return {x * y for x in a for y in b}


def naive_rep(a, b, mode: str) -> Counter:
    if mode == "difference":
        return Counter(x - y for x in a for y in b)
    if mode == "product":
        return Counter(x * y for x in a for y in b)
    return Counter(x + y for x in a for y in b)


def quadruple_energy(a, b) -> int:
    """|{(x, y, x', y') in A x B x A x B : x - y == x' - y'}| by four loops."""
    count = 0
    for x in a:
        for y in b:
            d = x - y
            for xp in a:
                for yp in b:
                    if xp - yp == d:
                        count += 1
    return count


def quadruple_energy_sum_form(a, b) -> int:
    """Same quantity counted through x + y' == x' + y."""
    count = 0
    for x in a:
        for y in b:
            s = x + y
            for xp in a:
                for yp in b:
                    if xp + yp == s:
                        count += 1
    return count


def ap_energy_closed_form(n: int) -> int:
    return (2 * n ** 3 + n) // 3


def ap_energy_summation(n: int) -> int:
    """Direct summation sum_s (n - |s|)^2 over s in [-(n-1), n-1]."""
    return sum((n - abs(s)) ** 2 for s in range(-(n - 1), n))


def evaluate_on_graph(fn, t: Fraction) -> Fraction | None:
    """f(t) on the injective convex branch of a catalog function, or None when no rational point exists there.

    The branch is t >= 0 for square and power, t > 0 for reciprocal and every t
    for exp2, whose value is irrational off the integers.
    """
    on_branch = {"square": t >= 0, "power": t >= 0, "reciprocal": t > 0, "exp2": t.denominator == 1}
    return fn.apply(t) if on_branch.get(fn.kind, False) else None


def naive_incidences(grid, family) -> tuple[int, dict]:
    """Per-point membership loop: for every grid point, count curves through it."""
    per_point: dict[tuple[Fraction, Fraction], int] = {}
    total = 0
    for x in grid.xs:
        for y in grid.ys:
            hits = 0
            for b, c in family.shifts:
                v = evaluate_on_graph(family.fn, x - b)
                if v is not None and v + c == y:
                    hits += 1
            if hits:
                per_point[(x, y)] = hits
                total += hits
    return total, per_point


def naive_level_count(rep: Counter, tau: int) -> int:
    return sum(1 for c in rep.values() if c >= tau)


def square_translate_intersections(b1, c1, b2, c2) -> int:
    """Exact intersection count of y=(x-b)^2+c translates on the x >= b branch."""
    if (b1, c1) == (b2, c2):
        raise ValueError("same curve")
    if b1 == b2:
        return 0
    # (x-b1)^2 - (x-b2)^2 = c2 - c1 is linear in x
    x = (c2 - c1 + b1 * b1 - b2 * b2) / (2 * (b1 - b2))
    return 1 if (x - b1 >= 0 and x - b2 >= 0) else 0


def reciprocal_translate_intersections(b1, c1, b2, c2) -> int:
    """Exact intersection count of y=1/(x-b)+c translates on the x > b branch."""
    if (b1, c1) == (b2, c2):
        raise ValueError("same curve")
    count = 0
    if b1 == b2:
        return 0
    if c1 == c2:
        return 0  # 1/(x-b1) == 1/(x-b2) has no solution for b1 != b2
    # 1/(x-b1) - 1/(x-b2) = c2 - c1  =>  (b1-b2) = (c2-c1)(x-b1)(x-b2)
    # quadratic a x^2 + bx + c = 0 with:
    k = c2 - c1
    qa = k
    qb = -k * (b1 + b2)
    qc = k * b1 * b2 - (b1 - b2)
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return 0
    roots = []
    num, den = disc.numerator * disc.denominator, disc.denominator ** 2
    from math import isqrt

    r = isqrt(num)
    if r * r == num:
        sq = Fraction(r, disc.denominator)
        roots = [(-qb + sq) / (2 * qa), (-qb - sq) / (2 * qa)] if sq else [-qb / (2 * qa)]
    else:
        return _reciprocal_irrational_roots_on_branch(qa, qb, qc, b1, b2)
    return sum(1 for x in set(roots) if x - b1 > 0 and x - b2 > 0)


def _reciprocal_irrational_roots_on_branch(qa, qb, qc, b1, b2) -> int:
    """Count irrational quadratic roots with x > max(b1, b2) by sign analysis."""
    lo = max(b1, b2)

    def val(x):
        return qa * x * x + qb * x + qc

    # roots straddle the vertex -qb/(2qa); count sign changes past lo
    vertex = Fraction(-qb, 2 * qa)
    count = 0
    if val(lo) == 0:
        pass  # boundary not in open branch
    big = max(abs(qa), abs(qb), abs(qc), 1) * 4 + abs(lo) + abs(vertex)
    probes = []
    if vertex > lo:
        probes.append((lo, vertex))
    probes.append((max(lo, vertex), max(lo, vertex) + big))
    for left, right in probes:
        if right <= left:
            continue
        vl, vr = val(left), val(right)
        if vl == 0:
            vl = val(left + (right - left) / 1000)
        if vl * vr < 0:
            count += 1
    return count


def naive_moment(a, k: int) -> int:
    """sum_s delta_A(s)^k: E(A) at k = 2, E_3(A) at k = 3."""
    return sum(r ** k for r in naive_rep(a, a, "difference").values())


def naive_cross_energy(a, b) -> int:
    """E(A, B) = sum_s delta_{A,B}(s)^2."""
    return sum(r * r for r in naive_rep(a, b, "difference").values())


def compare_e15_power(a, power: int, scale: int, bound: int) -> int:
    """Sign of E_1.5(A)^power * scale - bound, for integers power >= 1 and scale, bound >= 0.

    E_1.5(A) = sum_s delta_A(s)^(3/2).  At precision k, the sum of
    isqrt(r^3 * 4^k) is at most 2^k E_1.5 and falls short of it by less than
    the number of non-square r^3; k doubles until this enclosure decides.  For
    |A| >= 2 the two extreme differences add the integer 2, so an irrational
    E_1.5 has irrational powers and the loop ends.
    """
    cubes = [r ** 3 for r in naive_rep(a, a, "difference").values()]
    inexact = sum(1 for c in cubes if isqrt(c) ** 2 != c)
    k = 64
    while True:
        lo = sum(isqrt(c << 2 * k) for c in cubes)
        target = bound << power * k
        if (lo + inexact) ** power * scale < target:
            return -1
        if lo ** power * scale > target:
            return 1
        if not inexact:
            return 0
        k *= 2


def holder_holds(a) -> bool:
    """|A|^6 <= E_1.5(A)^2 |A-A|."""
    return compare_e15_power(a, 2, len(naive_difference(a, a)), len(a) ** 6) >= 0


def raised_bridge_holds(x, y) -> bool:
    """E15(X)^2 |Y|^2 <= E3(X)^(2/3) E3(Y)^(1/3) E(X, X+Y), decided on both sides cubed.

    That is E15(X)^6 |Y|^6 <= E3(X)^2 E3(Y) E(X, X+Y)^3, whose right side is an integer.
    """
    rhs = naive_moment(x, 3) ** 2 * naive_moment(y, 3) * naive_cross_energy(x, naive_sumset(x, y)) ** 3
    return compare_e15_power(x, 6, len(y) ** 6, rhs) <= 0


def cauchy_schwarz_holds(x, y, s) -> bool:
    """|X|^2 |Y|^2 <= E(X, Y) |S| for S = X+Y or X-Y."""
    return len(x) ** 2 * len(y) ** 2 <= naive_cross_energy(x, y) * len(s)


def cauchy_schwarz_split_holds(x, y) -> bool:
    """E(X, Y)^2 <= E(X) E(Y)."""
    return naive_cross_energy(x, y) ** 2 <= naive_moment(x, 2) * naive_moment(y, 2)
