"""Exact comparison of radical/power expressions via directed-rounded intervals.

Everything the audits compare is a product of nonnegative integers,
rationals, and RadicalSum values raised to rational exponents.  Verdicts are
produced by interval arithmetic over exact dyadic rationals: square/cube/n-th
roots come from integer n-th roots of scaled integers (floor for the lower
endpoint, +1 ulp for the upper), so every bound is rigorous.  `value_bounds`
is the only code that walks a value.  A value is exact when its enclosure has
zero width: rationals, rational roots of rationals, radical sums with no
sqrt(d) for d > 1, and products of these, at every precision.  Precision
starts at 128 bits and doubles; exact values are decided or rendered at the
first rung.  If the intervals have not separated at 4096 bits, an exact
check raises both sides to the least common exponent multiple, clears
denominators, and compares canonical integer-coefficient radical sums
structurally, which decides equality; unequal values separate at some
higher precision, so a comparison never gives up.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from math import isqrt, lcm

from .radicals import RadicalSum

LADDER = (128, 256, 512, 1024, 2048, 4096)

LT, EQ, GT = -1, 0, 1


def iroot_floor(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, by Newton iteration on integers."""
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1 or x == 0:
        return x
    if n == 2:
        return isqrt(x)
    g = 1 << -(-x.bit_length() // n)
    while True:
        t = ((n - 1) * g + x // g ** (n - 1)) // n
        if t >= g:
            break
        g = t
    while g ** n > x:
        g -= 1
    return g


def root_bounds(q: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of q ** (1/k) for q >= 0 with width 1/(den*2**prec)."""
    if q < 0:
        raise ValueError("negative base for even-style root")
    if k == 1:
        return q, q
    num, den = q.numerator, q.denominator
    scaled = num * den ** (k - 1) << (k * prec)
    r = iroot_floor(scaled, k)
    unit = den << prec
    lo = Fraction(r, unit)
    if lo ** k == q:
        return lo, lo
    return lo, Fraction(r + 1, unit)


def pow_frac_bounds(q: Fraction, e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of q ** e for q >= 0 (q > 0 when e < 0)."""
    if e.denominator == 1:
        v = q ** e.numerator
        return v, v
    if e < 0:
        lo, hi = pow_frac_bounds(q, -e, prec)
        return 1 / hi, 1 / lo
    t = q ** e.numerator
    return root_bounds(t, e.denominator, prec)


def log2_bounds(n: int, prec: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of log2(n) for an integer n >= 1, width ~2**(1-prec).

    Tracks n**(2**prec) by repeated squaring of a width-limited mantissa,
    rounding down for the lower bound and up for the upper; the bit length of
    the final mantissa pins log2 to within 2 ulps at scale 2**-prec.
    """
    if n < 1:
        raise ValueError("log2 needs a positive integer")
    if n & (n - 1) == 0:
        e = Fraction(n.bit_length() - 1)
        return e, e
    width = 2 * prec + 16
    top = n.bit_length() - 1
    shift = width - top
    # value tracked as m * 2**(E - width) with m in [2**width, 2**(width+1))
    if shift >= 0:
        mlo = mhi = n << shift
    else:
        mlo = n >> -shift
        mhi = -((-n) >> -shift)
    elo = ehi = top
    for _ in range(prec):
        t = mlo * mlo
        s = t.bit_length() - width - 1
        mlo = t >> s
        elo = 2 * elo + (s - width)
        t = mhi * mhi
        s = t.bit_length() - width - 1
        mhi = -((-t) >> s)
        if mhi.bit_length() > width + 1:
            mhi >>= 1
            s += 1
        ehi = 2 * ehi + (s - width)
    denom = 1 << prec
    lo = Fraction(mlo.bit_length() - 1 + elo - width, denom)
    hi = Fraction(mhi.bit_length() + ehi - width, denom)
    return lo, hi


def log2_upper(n: int) -> Fraction:
    """Exact dyadic-rational upper bound on log2(n) at 100 bits: every log convexlab reads."""
    return log2_bounds(n, 100)[1]


@dataclass(frozen=True)
class PowerProduct:
    """Value of the form prod_i base_i ** exp_i with nonnegative bases."""

    factors: tuple[tuple[object, Fraction], ...]

    def __repr__(self) -> str:
        bits = [f"({b!r})^{e}" for b, e in self.factors]
        return "PowerProduct(" + " * ".join(bits) + ")"


def power_product(*factors) -> PowerProduct:
    """Build a PowerProduct from (base, exponent) pairs."""
    norm = []
    for base, exp in factors:
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        if e == 0:
            continue
        if isinstance(base, int):
            base = Fraction(base)
        if isinstance(base, Fraction) and base < 0:
            raise ValueError("bases must be nonnegative")
        norm.append((base, e))
    return PowerProduct(tuple(norm))


def _normalize(v) -> PowerProduct:
    if isinstance(v, PowerProduct):
        return v
    if isinstance(v, (int, Fraction, RadicalSum)):
        return power_product((v, 1))
    raise TypeError(f"cannot compare value of type {type(v).__name__}")


def value_bounds(v, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of a nonnegative expression."""
    if isinstance(v, int):
        f = Fraction(v)
        return f, f
    if isinstance(v, Fraction):
        return v, v
    if isinstance(v, RadicalSum):
        return v.bounds(prec)
    lo = hi = Fraction(1)
    for base, e in _normalize(v).factors:
        blo, bhi = value_bounds(base, prec)
        if e < 0 and blo <= 0:
            raise ZeroDivisionError("negative exponent needs a positive base bound")
        if e == 1:
            flo, fhi = blo, bhi
        elif blo == bhi:  # an exact base: one enclosure of its power gives both ends
            flo, fhi = pow_frac_bounds(blo, e, prec)
        else:  # a negative power swaps the base's ends
            flo = pow_frac_bounds(blo if e > 0 else bhi, e, prec)[0]
            fhi = pow_frac_bounds(bhi if e > 0 else blo, e, prec)[1]
        lo, hi = lo * flo, hi * fhi
    return lo, hi


def _cleared_radical_pair(px: PowerProduct, py: PowerProduct) -> tuple[RadicalSum, RadicalSum]:
    """Two integer-coefficient RadicalSums that are equal exactly when x == y.

    Both sides are raised to the least common exponent multiple, a radical
    factor with a negative exponent moves to the other side with its exponent
    negated, and the rational denominators are cleared.
    """
    power = lcm(*(e.denominator for _, e in px.factors + py.factors))
    coeffs, rads = [Fraction(1), Fraction(1)], [RadicalSum.from_int(1), RadicalSum.from_int(1)]
    for side, pp in enumerate((px, py)):
        for base, e in pp.factors:
            ee = int(e * power)
            if isinstance(base, RadicalSum):
                to = side ^ (ee < 0)  # a negative power moves across
                rads[to] = rads[to] * base ** abs(ee)
            else:
                coeffs[side] *= base ** ee
    scale = coeffs[0].denominator * coeffs[1].denominator
    return rads[0] * (coeffs[0] * scale).numerator, rads[1] * (coeffs[1] * scale).numerator


def compare_radical(x, y) -> int:
    """Strict three-way comparison of two nonnegative radical/power expressions.

    Returns -1, 0, or 1.  The intervals start at 128 bits and double until
    they separate; two equal zero-width enclosures are equal values.  At 4096
    bits the cleared radical sums are checked once for structural equality,
    and unequal values always separate at some precision.
    """
    px, py = _normalize(x), _normalize(y)
    prec = LADDER[0]
    while True:
        xlo, xhi = value_bounds(px, prec)
        ylo, yhi = value_bounds(py, prec)
        if xhi < ylo:
            return LT
        if yhi < xlo:
            return GT
        if xlo == xhi == ylo == yhi:
            return EQ
        if prec == LADDER[-1]:
            rx, ry = _cleared_radical_pair(px, py)
            if rx == ry:
                return EQ
        prec *= 2


def fraction_to_decimal(q: Fraction, digits: int = 30, rounding: str = ROUND_HALF_EVEN) -> str:
    """Exact rational -> decimal string with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def decimal_of(v, digits: int = 30) -> str:
    """Deterministic decimal rendering of a nonnegative expression.

    A zero-width enclosure is the exact value and renders once.  Otherwise
    the precision doubles from 128 bits until both endpoints render the same
    digits, which is then the correctly rounded value.  The last rung is the
    first from 4096 bits at which the enclosure is narrower than 2**-32 units
    in the last place, so it grows with `digits` and with the enclosure.  Only
    a value within that width of a rounding boundary is left unresolved there
    and renders as its lower endpoint, which may be one unit off in the last
    place: in practice a rational value on a boundary whose enclosure is never
    zero-width, such as sqrt(3)**2 / 2 at one digit.  No catalog value is one.
    """
    prec = LADDER[0]
    while True:
        lo, hi = value_bounds(v, prec)
        text = fraction_to_decimal(lo, digits)
        if lo == hi or text == fraction_to_decimal(hi, digits):
            return text
        if prec >= LADDER[-1] and (hi - lo) * (10 ** digits << 32) < lo:
            return text
        prec *= 2
