"""Exact extended-real arithmetic, seminorms, and rational reconstruction.

Vectors are plain tuples whose entries are either `fractions.Fraction` or the
distinguished element `NEG_INF`.  All game-side arithmetic is exact; floating
point never enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class _NegInf:
    """The -infinity element.  Supports order comparison against rationals,
    addition (absorbing), and multiplication by nonnegative rationals with the
    convention 0 * (-inf) = 0."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not NEG_INF

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is NEG_INF

    def __eq__(self, other):
        return other is NEG_INF

    def __hash__(self):
        return hash("NEG_INF")

    def __add__(self, other):
        if other is NEG_INF or isinstance(other, (int, Fraction)):
            return NEG_INF
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other is NEG_INF:
            raise ArithmeticError("NEG_INF - NEG_INF is undefined")
        if isinstance(other, (int, Fraction)):
            return NEG_INF
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            if other > 0:
                return NEG_INF
            raise ArithmeticError("NEG_INF * negative is undefined")
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("-NEG_INF is undefined")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


def as_fraction(v):
    """Normalize a finite entry to Fraction; NEG_INF passes through."""
    if v is NEG_INF:
        return NEG_INF
    return Fraction(v)


def vec(entries) -> tuple:
    return tuple(as_fraction(v) for v in entries)


def zeros(n: int) -> tuple:
    return (Fraction(0),) * n


def top(x):
    """Maximum entry of a nonempty vector."""
    if not x:
        raise ValueError("empty vector")
    return max(x)


def bottom(x):
    """Minimum entry of a nonempty vector."""
    if not x:
        raise ValueError("empty vector")
    return min(x)


def hilbert_seminorm(x) -> Fraction:
    """top(x) - bottom(x); rejects vectors with a -inf entry."""
    if any(v is NEG_INF for v in x):
        raise ValueError("hilbert_seminorm requires all entries finite")
    return top(x) - bottom(x)


def vec_add_scalar(c, x) -> tuple:
    return tuple(v + c for v in x)


def vec_sup(x, y) -> tuple:
    return tuple(max(a, b) for a, b in zip(x, y, strict=True))


def vec_inf(x, y) -> tuple:
    return tuple(min(a, b) for a, b in zip(x, y, strict=True))


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval requires lo <= hi")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


class NotFound:
    """No rational of denominator <= qmax lies in the interval."""

    def __repr__(self):
        return "NotFound"


class NotUnique:
    """At least two rationals of denominator <= qmax lie in the interval."""

    def __repr__(self):
        return "NotUnique"


NOT_FOUND = NotFound()
NOT_UNIQUE = NotUnique()


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the closed interval [lo, hi]
    (smallest numerator among those, for definiteness).  Stern-Brocot /
    continued-fraction descent."""
    if lo > hi:
        raise ValueError("lo > hi")
    if lo == hi:
        return lo
    # Reduce to lo >= 0 by integer shift (denominators unchanged).
    if lo < 0:
        if hi >= 0:
            return Fraction(0)
        # both negative: mirror
        return -_simplest_between(-hi, -lo)
    # 0 <= lo < hi: continued-fraction descent.  At each level the simplest
    # rational in [a/b, c/d] is an integer (base case) or q + 1/simplest of
    # the reciprocal interval.
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    quotients = []
    while True:
        q = a // b
        if q < c // d or a % b == 0:
            # ceil(lo) is an integer inside [lo, hi]
            base = -((-a) // b)
            break
        quotients.append(q)
        a, b, c, d = d, c - q * d, b, a - q * b
    r = Fraction(base)
    for q in reversed(quotients):
        r = q + 1 / r
    return r


def _farey_neighbors(p: int, q: int, n: int):
    """Left and right neighbors of p/q (lowest terms, q <= n) in the Farey
    sequence of order n.  Returns (left, right) as Fractions."""
    if q == 1:
        return Fraction(p * n - 1, n), Fraction(p * n + 1, n)
    # solve q*x - p*y = 1 for right neighbor x/y with largest y <= n
    # modular inverse of -p mod q gives y0
    y0 = pow(-p, -1, q)
    x0 = (p * y0 + 1) // q
    k = (n - y0) // q
    right = Fraction(x0 + k * p, y0 + k * q)
    # left neighbor: solve p*y - q*x = 1
    y1 = pow(p, -1, q)
    x1 = (p * y1 - 1) // q
    k = (n - y1) // q
    left = Fraction(x1 + k * p, y1 + k * q)
    return left, right


def rational_in_interval(iv: RationalInterval, qmax: int):
    """The unique rational p/q with 1 <= q <= qmax inside the closed interval,
    found by continued-fraction (Stern-Brocot) search.  Returns NOT_FOUND when
    no such rational exists, NOT_UNIQUE when two or more do."""
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    r = _simplest_between(iv.lo, iv.hi)
    if r.denominator > qmax:
        return NOT_FOUND
    left, right = _farey_neighbors(r.numerator, r.denominator, qmax)
    if iv.contains(left) or iv.contains(right):
        return NOT_UNIQUE
    return r


# ---------------------------------------------------------------------------
# rational ln and exp brackets


def _div(u: int, v: int, up: bool) -> int:
    """u / v for v > 0, rounded down (or up when `up`)."""
    return -(-u // v) if up else u // v


def _atanh_fixed(a: int, b: int, p: int, up: bool) -> int:
    """2^p atanh(a/b) for 0 <= a/b <= 1/3, rounded down (or up when `up`):
    the series sum_i z^(2i+1)/(2i+1) on integers, every power and term
    rounded the same way.  Each power is at most z^2 <= 1/9 times the last,
    so the terms from a power t on sum to at most 9t/8 < 2t."""
    a2, b2 = a * a, b * b
    t = _div(a << p, b, up)
    total, k = 0, 1
    while t > (1 if up else 0):
        total += _div(t, k, up)
        t = _div(t * a2, b2, up)
        k += 2
    return total + 2 * t if up else total


@lru_cache(maxsize=64)
def _ln2_fixed(p: int, up: bool) -> int:
    """2^p ln 2 = 2^p 2 atanh(1/3), rounded down (or up when `up`);
    memoised, as every bracket at precision p needs both roundings."""
    return 2 * _atanh_fixed(1, 3, p, up)


def _exp_fixed(n: int, p: int, up: bool) -> int:
    """2^p e^r for r = n/2^p >= 0, rounded down (or up when `up`): the
    Taylor series on integers.  The upper sum stops at a term
    t >= 2^p r^i/i! with t <= 1.  As ((i + 1)/2)^i >= i!, that forces
    r <= (i + 1)/2, so each later term is at most half the one before and
    together they are at most t."""
    total = t = 1 << p
    i = 1
    while t > (1 if up else 0):
        t = _div(t * n, i << p, up)
        total += t
        i += 1
    return total + t if up else total


def ln_bracket(x, bits: int):
    """Rational (lo, hi) with lo <= ln x <= hi and hi - lo <= 2^-bits, for
    a rational x > 0.  With x = 2^k y and y in [1, 2),
    ln x = k ln 2 + 2 atanh((y - 1)/(y + 1)), the atanh argument at most
    1/3.  Exact at x = 1."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    n, d = num << max(-k, 0), den << max(k, 0)  # y = n/d lies in (1/2, 2)
    if n < d:
        k, n = k - 1, 2 * n
    # guard bits for the O(p) rounded series terms and the k-fold ln 2 error
    p = bits + abs(k).bit_length() + bits.bit_length() + 8
    l2lo, l2hi = _ln2_fixed(p, False), _ln2_fixed(p, True)
    if k < 0:
        l2lo, l2hi = l2hi, l2lo
    lo = k * l2lo + 2 * _atanh_fixed(n - d, n + d, p, False)
    hi = k * l2hi + 2 * _atanh_fixed(n - d, n + d, p, True)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


def exp_bracket(x, bits: int):
    """Rational (lo, hi) with lo <= e^x <= hi and hi - lo <= lo 2^-bits,
    for a rational x.  With k = floor(x / ln 2), taken against the ln 2
    bound that keeps r >= 0, e^x = 2^k e^r for r = x - k ln 2 in about
    [0, ln 2]."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # guard bits as in ln_bracket, with |k| <= 2 |floor(x)| + 2
    p = bits + (2 * abs(num // den) + 2).bit_length() + bits.bit_length() + 8
    l2lo, l2hi = _ln2_fixed(p, False), _ln2_fixed(p, True)
    x_lo, x_hi = _div(num << p, den, False), _div(num << p, den, True)
    k = x_lo // (l2hi if x_lo >= 0 else l2lo)
    shifts = (k * l2lo, k * l2hi)
    scale = Fraction(2) ** (k - p)
    return (_exp_fixed(x_lo - max(shifts), p, False) * scale,
            _exp_fixed(x_hi - min(shifts), p, True) * scale)
