"""Exact extended-real arithmetic, rational reconstruction, the
certificate record that both game kinds share, and the report format both
kinds' checkers read.

A vector of the exact reference path is a plain tuple whose entries are
either `fractions.Fraction` or the distinguished element `NEG_INF` (its
helpers, such as `vec` and `hilbert_seminorm`, are in `iteration`); a
`Certificate` holds integer numerators over one denominator instead.  All
game-side arithmetic is exact; floating point never enters this module.
The report readers (`_report_ratio`, `_cert_pair`, `_strategy`) read
rationals to integers, as written, and strategies to state indices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .graphs import GameFormatError, json_list, state_ids_error, state_indices


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


class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


class RationalInterval(_Interval):
    """The closed interval [lo, hi] of rationals, lo <= hi.  An end that is
    not a Fraction is converted; a Fraction end is kept, not copied."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if not isinstance(lo, Fraction):
            lo = Fraction(lo)
        if not isinstance(hi, Fraction):
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError("interval requires lo <= hi")
        return tuple.__new__(cls, (lo, hi))

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


def _simplest_between(lo, hi):
    """The rational with smallest denominator in the closed interval
    [lo, hi] (smallest numerator among those, for definiteness), with lo
    and hi as (p, q), q > 0, and the result as (p, q) in lowest terms.
    Stern-Brocot / continued-fraction descent."""
    (a, b), (c, d) = lo, hi
    if a * d > c * b:
        raise ValueError("lo > hi")
    if a * d == c * b:
        g = math.gcd(a, b)
        return a // g, b // g
    # Reduce to lo >= 0 by integer shift (denominators unchanged).
    if a < 0:
        if c >= 0:
            return 0, 1
        # both negative: mirror
        p, q = _simplest_between((-c, d), (-a, b))
        return -p, q
    # 0 <= lo < hi: continued-fraction descent.  At each level the simplest
    # rational in [a/b, c/d] is an integer (base case) or q + 1/simplest of
    # the reciprocal interval.
    quotients = []
    while True:
        q = a // b
        if q < c // d or a % b == 0:
            # ceil(lo) is an integer inside [lo, hi]
            base = -((-a) // b)
            break
        quotients.append(q)
        a, b, c, d = d, c - q * d, b, a - q * b
    # r = q + 1/r, from the innermost level out: each step keeps r in
    # lowest terms
    p, s = base, 1
    for q in reversed(quotients):
        p, s = q * p + s, p
    return p, s


def _farey_neighbors(p: int, q: int, n: int):
    """Left and right neighbors of p/q (lowest terms, q <= n) in the Farey
    sequence of order n.  Returns (left, right), each (p, q) in lowest
    terms."""
    if q == 1:
        return (p * n - 1, n), (p * n + 1, n)
    # solve q*x - p*y = 1 for right neighbor x/y with largest y <= n
    # modular inverse of -p mod q gives y0
    y0 = pow(-p, -1, q)
    x0 = (p * y0 + 1) // q
    k = (n - y0) // q
    right = (x0 + k * p, y0 + k * q)
    # left neighbor: solve p*y - q*x = 1
    y1 = pow(p, -1, q)
    x1 = (p * y1 - 1) // q
    k = (n - y1) // q
    left = (x1 + k * p, y1 + k * q)
    return left, right


def rational_between(lo, hi, qmax: int):
    """`rational_in_interval` on integers: lo and hi as (p, q), q > 0, not
    necessarily reduced, and the rational as (p, q) in lowest terms;
    NOT_FOUND or NOT_UNIQUE as there."""
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    r = _simplest_between(lo, hi)
    if r[1] > qmax:
        return NOT_FOUND
    (a, b), (c, d) = lo, hi
    for x, y in _farey_neighbors(*r, qmax):
        if a * y <= x * b and x * d <= c * y:
            return NOT_UNIQUE
    return r


def rational_in_interval(iv: RationalInterval, qmax: int):
    """The unique rational p/q with 1 <= q <= qmax inside the closed interval,
    found by continued-fraction (Stern-Brocot) search.  Returns NOT_FOUND when
    no such rational exists, NOT_UNIQUE when two or more do."""
    r = rational_between((iv.lo.numerator, iv.lo.denominator),
                         (iv.hi.numerator, iv.hi.denominator), qmax)
    if r is NOT_FOUND or r is NOT_UNIQUE:
        return r
    return Fraction(*r)


# ---------------------------------------------------------------------------
# certificates

SUB = "sub"
SUPER = "super"


class Certificate(NamedTuple):
    """(lam, vec) witnessing a Collatz-Wielandt inequality, on integers: the
    level lam = p/q and the vector vec = u/L, numerators u over one
    denominator L, with q, L > 0 and neither reduced (records compare term
    by term; `lam` and `vec` are the values).  The solvers, the checks and
    the report writer and reader of both game kinds share it.  An -inf
    entry, which only a hand-written report carries, stays NEG_INF in u.

    Additive form (default): sub means lam + vec <= F(vec) coordinatewise,
    super means lam + vec >= F(vec).  The entropy backend issues its
    certificates in multiplicative form (lam * vec <= T(vec)), flagged by
    `multiplicative`: exact integer sub/super eigenvectors of T."""

    p: int
    q: int
    u: tuple | list
    L: int
    direction: str
    multiplicative: bool = False

    @classmethod
    def from_fractions(cls, lam, vec, direction):
        """The additive certificate at the rational level lam on the vector
        vec of rationals (ints or Fractions) and NEG_INF entries, put over
        the lcm of its finite entries' denominators."""
        den = math.lcm(*(v.denominator for v in vec if v is not NEG_INF))
        u = tuple(v if v is NEG_INF else v.numerator * (den // v.denominator)
                  for v in vec)
        return cls(lam.numerator, lam.denominator, u, den, direction)

    @property
    def lam(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def vec(self) -> tuple:
        """The vector as Fractions and NEG_INF."""
        return tuple(v if v is NEG_INF else Fraction(v, self.L)
                     for v in self.u)


def seen_image(images, vec):
    """The image stored for `vec` in `images`, a list of (vector, image)
    pairs, or None.  A vector is found by identity, then by equality, so
    that no tuple of Fractions is hashed: a certificate check holds one or
    two vectors."""
    for seen, image in images:
        if seen is vec or seen == vec:
            return image
    return None


class IterationCapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the report format

_CERT_FAILED = "a certificate inequality does not hold"
_STATES_FAILED = "a certificate pair's states do not name an induced subgame"


def _rational_digits(text):
    """(numerator, denominator) digit strings of a "p/q" or "p" string, the
    form the report writer prints (p may carry a "-"; a bare p has
    denominator "1"); None for any other string."""
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
        return num, den if slash else "1"
    return None


def _report_ratio(value):
    """A rational written in a report, a "p/q" string or an integer of any
    size, as integers (p, q) with q > 0, not reduced."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GameFormatError(f"{value!r} is not a rational")
    # ASCII digits are read by int(), as written; any other string, and any
    # that int() refuses, takes Fraction's path, to Fraction's value or
    # error
    digits = (_rational_digits(value)
              if isinstance(value, str) and value.isascii() else None)
    if digits is not None:
        try:
            p, q = int(digits[0]), int(digits[1])
        except ValueError:
            pass
        else:
            if q:
                return p, q
    try:
        value = Fraction(value)
    except ZeroDivisionError as exc:
        raise GameFormatError(f"{value!r} is not a rational") from exc
    except ValueError:
        # past the interpreter's int/str digit limit: digits as the report
        # writer prints them are read through Decimal; anything else keeps
        # Fraction's error
        digits = _rational_digits(value)
        if digits is None:
            raise
        from decimal import Decimal

        p, q = (int(Decimal(x)) for x in digits)
        if not q:
            raise GameFormatError(f"{value!r} is not a rational") from None
        return p, q
    return value.numerator, value.denominator


def _field(record, key):
    """record[key]; a missing key is a GameFormatError worded as the game
    reader words it."""
    try:
        return record[key]
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc


def _cert_from_record(rec) -> Certificate:
    """A certificate record of either game kind as a Certificate: lam and
    each entry of vec read by `_report_ratio`, as written, and the vector
    put over the lcm of its finite entries' denominators; an "-inf" entry
    stays NEG_INF.
    "multiplicative" must be a JSON boolean; absent, it is false."""
    if not isinstance(rec, dict):
        raise GameFormatError(f"certificate record {rec!r} is not an object")
    p, q = _report_ratio(_field(rec, "lam"))
    vec = [NEG_INF if v == "-inf" else _report_ratio(v)
           for v in json_list(_field(rec, "vec"), '"vec"')]
    direction = _field(rec, "direction")
    multiplicative = rec.get("multiplicative", False)
    if not isinstance(multiplicative, bool):
        raise GameFormatError(
            f'"multiplicative" {multiplicative!r} is not a boolean')
    den = math.lcm(*(v[1] for v in vec if v is not NEG_INF))
    return Certificate(p, q, [v if v is NEG_INF else v[0] * (den // v[1])
                              for v in vec], den, direction, multiplicative)


def _cert_records(report) -> list:
    """The certificate records of a report, an even number, at least two."""
    if not isinstance(report, dict):
        raise GameFormatError("a report must be a JSON object")
    records = json_list(report.get("certificates", []), '"certificates"')
    if not records:
        raise GameFormatError("report carries no certificates")
    if len(records) % 2:
        raise GameFormatError("certificates must come in (sub, super) pairs")
    return records


def _cert_pair(sub_rec, sup_rec):
    """(states, sub, sup) of one certificate pair: its records' "states",
    or None, and the two Certificates, a sub then a super one."""
    sub, sup = _cert_from_record(sub_rec), _cert_from_record(sup_rec)
    if ((sub.direction, sup.direction) != (SUB, SUPER)
            or sub_rec.get("states") != sup_rec.get("states")):
        raise GameFormatError(
            "certificates must come in (sub, super) pairs on one state set")
    return sub_rec.get("states"), sub, sup


def _named_subgame(game, states, keys, induce):
    """`induce` of the ids a pair's "states" lists under the first of the
    state-list `keys` when that subgame's other state sets are those listed
    too; else None, once every listed id is known to be `game`'s."""
    if not isinstance(states, dict):
        raise GameFormatError(f'"states" {states!r} is not an object')
    named = []
    for key in keys:
        ids = json_list(_field(states, key), f'"{key}"')
        bad = state_ids_error(ids)
        if bad:
            raise GameFormatError(bad)
        named.append(ids)
    target = induce(named[0])
    if target is None or any(set(chosen) != set(ids)
                             for chosen, ids in zip(named, target.ids)):
        for ids, chosen in zip(game.ids, named):
            state_indices(ids, chosen)
        return None
    return target


def _interval_ends(rec):
    """(lo, hi) of an interval record of a report, each (p, q) with
    q > 0."""
    if not isinstance(rec, dict):
        raise GameFormatError(f"interval {rec!r} is not an object")
    return _report_ratio(_field(rec, "lo")), _report_ratio(_field(rec, "hi"))


def _same_interval(ends, lo, hi) -> bool:
    """Whether the interval ends (a, b) are the levels lo and hi, all (p, q)
    with q > 0, in any terms: by cross-multiplication.  An interval strictly
    inside the levels could exclude the value they bound."""
    (lp, lq), (ap, aq), (bp, bq), (hp, hq) = lo, *ends, hi
    return lp * aq == ap * lq and bp * hq == hp * bq


def _strategy(report, key, from_ids, to_ids, keys=None):
    """The report's strategy `key`, an object from state ids to ids, as one
    index into `to_ids` per state of `from_ids`, None where it names none:
    None without `key`, False when its keys are other states than `keys`
    (by default `from_ids`)."""
    if key not in report:
        return None
    strategy = report[key]
    if not isinstance(strategy, dict):
        raise GameFormatError(f'"{key}" {strategy!r} is not an object')
    # JSON object keys are strings, and a game's ids are all strings or all
    # integers, so str() names each state unambiguously
    if strategy.keys() != {str(s) for s in (from_ids if keys is None
                                            else keys)}:
        return False
    index = {s: t for t, s in enumerate(to_ids)}
    return [index.get(v) if isinstance(v, (str, int))
            and not isinstance(v, bool) else None
            for v in map(strategy.get, map(str, from_ids))]


_DECIMALS = 10**12  # an approx string's decimal places, as a scale


def _dec_str(num: int, den: int, up: bool) -> str:
    """num/den (den > 0) to 12 decimals, rounded up (toward +inf) or
    down."""
    whole = num * _DECIMALS
    whole = -(-whole // den) if up else whole // den
    if whole < 0:
        units, frac = divmod(-whole, _DECIMALS)
        return f"-{units}.{frac:012d}"
    units, frac = divmod(whole, _DECIMALS)
    return f"{units}.{frac:012d}"


def _approx_text(lo, hi) -> str:
    """The decimal enclosure of [lo, hi], each end (p, q) with q > 0: lo
    rounded down, hi up."""
    return f"[{_dec_str(*lo, up=False)}, {_dec_str(*hi, up=True)}]"


def _approx_holds(rec, ends) -> bool:
    """Whether the interval record's "approx", when it has one, is the
    enclosure `_approx_text` writes for its ends."""
    if "approx" not in rec:
        return True
    try:
        return rec["approx"] == _approx_text(*ends)
    except ValueError:
        # an end past the int/str digit limit, which no report prints
        return False
