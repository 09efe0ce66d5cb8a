"""Exact arithmetic over rationals and sums of quadratic surds.

Every eigenvalue, intersection-number and Krein computation in this package
runs on these types.  Floating point appears only in diagnostics (``float()``
conversion, cross-checks in the test suite) and never decides a result.

``SurdSum`` (real) and ``ComplexSurd`` share one stored form: a map from
squarefree radicands to integer numerators over one reduced positive
denominator.  A ``ComplexSurd`` radicand may be negative, sqrt(-n) meaning
i*sqrt(n), so both classes multiply through one loop (``_product``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import fsum, gcd, isqrt, lcm, sqrt
from typing import Iterable, Union

Rational = Fraction
RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def square_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as a*a*b with b squarefree; return (a, b).

    Trial division up to the cube root; the remaining cofactor has at most
    two prime factors, so a single isqrt test settles the square case.
    """
    if n < 1:
        raise ValueError(f"square_split needs n >= 1, got {n}")
    a, b = 1, 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                b *= d
        d += 1
    r = isqrt(n)
    if r * r == n:
        a *= r
    else:
        b *= n
    return a, b


def squarefree_part(n: int) -> int:
    return square_split(n)[1]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@total_ordering
class SurdSum:
    """Finite sum of c_i * sqrt(n_i) with rational c_i and squarefree n_i >= 1.

    Stored as integer numerators (radicand -> numerator, the rational part
    under radicand 1, no zeros) over one positive shared denominator,
    reduced so that the denominator and all numerators are coprime.  That
    form is canonical, so structural equality is equality of values:
    sqrt(n_i) for distinct squarefree n_i are linearly independent over Q.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: RationalLike | "SurdSum" = 0):
        if isinstance(value, SurdSum):
            self._num, self._den = dict(value._num), value._den
        elif type(value) is int:
            self._num, self._den = ({1: value} if value else {}), 1
        else:
            c = _as_fraction(value)
            self._num, self._den = ({1: c.numerator} if c else {}), c.denominator

    @property
    def terms(self) -> dict[int, Fraction]:
        return {n: Fraction(c, self._den) for n, c in self._num.items()}

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return self._num.keys() <= {1}

    def as_integer(self) -> int | None:
        """The integer value of this sum, or None if it is not a rational integer."""
        if self.is_rational() and self._den == 1:
            return self._num.get(1, 0)
        return None

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided purely by integer arithmetic.

        The denominator is positive, so only the numerators matter.  Normal
        form empty means zero.  Single-sign coefficient sets are immediate;
        a two-term mixed sum compares c1^2*n1 against c2^2*n2; anything
        larger is resolved by refining integer bounds on scale*sqrt(n_i)
        until the enclosing interval excludes zero (guaranteed to terminate
        because a nonempty normal form is a nonzero value).
        """
        if not self._num:
            return 0
        signs = {c > 0 for c in self._num.values()}
        if len(signs) == 1:
            return 1 if signs.pop() else -1
        if len(self._num) == 2:
            (n1, c1), (n2, c2) = self._num.items()
            # exactly one of c1, c2 is positive here; it wins if its square does.  The
            # squarefree n1 != n2 make c1^2*n1 = c2^2*n2 impossible (n1/n2 no square)
            diff = c1 * c1 * n1 - c2 * c2 * n2
            return 1 if (diff > 0) == (c1 > 0) else -1
        shift = 16
        while True:
            scale = 1 << shift
            lo = hi = 0
            for n, c in self._num.items():
                if n == 1:
                    lo += c * scale
                    hi += c * scale
                    continue
                root_lo = isqrt(n * scale * scale)
                if c > 0:
                    lo += c * root_lo
                    hi += c * (root_lo + 1)
                else:
                    lo += c * (root_lo + 1)
                    hi += c * root_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            shift *= 2

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "SurdSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = gcd(self._den, other._den)
        f1, f2 = other._den // g, self._den // g
        num = {n: c * f1 for n, c in self._num.items()}
        for n, c in other._num.items():
            total = num.get(n, 0) + c * f2
            if total:
                num[n] = total
            else:
                del num[n]
        return _reduced(num, self._den * f1)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return _reduced({n: -c for n, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "SurdSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SurdSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "SurdSum":
        if isinstance(other, (int, Fraction)):  # a rational factor scales the numerators
            num = {n: c * other.numerator for n, c in self._num.items()} if other else {}
            return _reduced(num, self._den * other.denominator)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(*_product(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "SurdSum":
        d = _as_fraction(other)
        if d == 0:
            raise ZeroDivisionError("division of a surd sum by zero")
        sgn = -1 if d < 0 else 1
        return _reduced({n: sgn * c * d.denominator for n, c in self._num.items()},
                        self._den * abs(d.numerator))

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self) -> int:
        # a rational value hashes like the int or Fraction it equals
        if self.is_rational():
            value = self._num.get(1, 0)
            return hash(value if self._den == 1 else Fraction(value, self._den))
        return hash((frozenset(self._num.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- conversion and display --------------------------------------------

    def __float__(self) -> float:
        """Diagnostic only; never used to decide equality or sign.  The terms are
        summed exactly (fsum), so the result does not depend on their order."""
        return fsum(c / self._den * sqrt(n) for n, c in self._num.items())

    def to_triples(self) -> list[tuple[int, int, int]]:
        """Serialize as (radicand, numerator, denominator) triples."""
        return _triples(self._num.items(), self._den)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "SurdSum":
        total = cls(0)
        for n, num, den in triples:
            total = total + Fraction(num, den) * surd_sqrt(n)
        return total

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for n, c in sorted(self.terms.items()):
            if n == 1:
                text = str(c)
            elif c == 1:
                text = f"√{n}"
            elif c == -1:
                text = f"-√{n}"
            else:
                text = f"{c}√{n}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"SurdSum({self})"


def _triples(terms, den: int) -> list[tuple[int, int, int]]:
    """(n, c/den in lowest terms) of each term c*sqrt(n)/den, by increasing n."""
    return [(n, c // g, den // g) for n, c in sorted(terms) for g in (gcd(c, den),)]


def _reduced(num: dict[int, int], den: int, cls=SurdSum):
    """cls (SurdSum or ComplexSurd) of nonzero numerators over den > 0, divided by their gcd."""
    g = gcd(den, *num.values())
    out = cls.__new__(cls)
    if g == 1:
        out._num, out._den = num, den
    else:
        out._num, out._den = {n: c // g for n, c in num.items()}, den // g
    return out


def _product(x, y) -> tuple[dict[int, int], int]:
    """Numerators and denominator of x * y, both in the stored form.

    sqrt(a)*sqrt(b) = g*sqrt((a/g)*(b/g)) with g = gcd(a, b): the new
    radicand is squarefree because a and b are, and it is negative when
    exactly one of them is.  When both are, sqrt(-a)*sqrt(-b) = -sqrt(ab),
    which taking g negative gives.
    """
    num: dict[int, int] = {}
    for a, c1 in x._num.items():
        for b, c2 in y._num.items():
            g = gcd(a, b)
            if a < 0 and b < 0:
                g = -g
            rad = (a // g) * (b // g)
            total = num.get(rad, 0) + c1 * c2 * g
            if total:
                num[rad] = total
            else:
                del num[rad]
    return num, x._den * y._den


def _coerce(x) -> SurdSum:
    if isinstance(x, SurdSum):
        return x
    if isinstance(x, (int, Fraction)):
        return SurdSum(x)
    return NotImplemented


def surd_sqrt(x: RationalLike) -> SurdSum:
    """Exact square root of a nonnegative rational as a SurdSum.

    The radicand of the result is the squarefree part of numerator*denominator;
    they are coprime and split one at a time (trial division to each cube root).
    """
    x = _as_fraction(x)
    if x < 0:
        raise ValueError(f"surd_sqrt of a negative rational: {x}")
    if x == 0:
        return SurdSum(0)
    (a1, b1), (a2, b2) = square_split(x.numerator), square_split(x.denominator)
    return _reduced({b1 * b2: a1 * a2}, x.denominator)


def surd_sign(a: SurdSum | RationalLike) -> int:
    return _coerce(a).sign()


def as_integer(a: SurdSum | RationalLike) -> int | None:
    return _coerce(a).as_integer()


class ComplexSurd:
    """Finite sum of c_i * sqrt(n_i) with rational c_i and squarefree n_i != 0.

    sqrt(-n) means i*sqrt(n): radicand -n carries the coefficient of
    i*sqrt(n), and -1 that of i.  The keys +-n over squarefree n >= 1 are
    a Q-basis of the complex surds, so the SurdSum form (integer numerators
    over one reduced positive denominator) is canonical here as well, and
    SurdSum's product loop serves both classes.  A value is built from its
    re and im parts and then only multiplied, conjugated and compared: it
    has no sum, difference, negation or quotient.  ``re`` and ``im`` are
    read-only views: the canonical SurdSums of the positive keys and of the
    negative keys negated.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, re: SurdSum | RationalLike = 0, im: SurdSum | RationalLike = 0):
        re, im = _coerce(re), _coerce(im)
        # disjoint keys over the lcm of two reduced denominators: already reduced
        self._den = lcm(re._den, im._den)
        self._num = {n: c * (self._den // re._den) for n, c in re._num.items()}
        self._num.update((-n, c * (self._den // im._den)) for n, c in im._num.items())

    @property
    def re(self) -> SurdSum:
        return _reduced({n: c for n, c in self._num.items() if n > 0}, self._den)

    @property
    def im(self) -> SurdSum:
        return _reduced({-n: c for n, c in self._num.items() if n < 0}, self._den)

    def conjugate(self) -> "ComplexSurd":
        return _reduced({n: -c if n < 0 else c for n, c in self._num.items()},
                        self._den, ComplexSurd)

    def is_real(self) -> bool:
        return min(self._num, default=1) > 0

    def __mul__(self, other) -> "ComplexSurd":
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(*_product(self, other), ComplexSurd)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # a real value hashes like its real part, which it equals
        return hash(self.re) if self.is_real() else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im.is_zero():
            return str(re)
        if re.is_zero():
            return f"({im})i"
        return f"{re}+({im})i"

    def __repr__(self) -> str:
        return f"ComplexSurd({self})"


def _coerce_complex(x) -> ComplexSurd:
    if isinstance(x, ComplexSurd):
        return x
    if isinstance(x, (int, Fraction, SurdSum)):
        x = _coerce(x)
        return _reduced(x._num, x._den, ComplexSurd)
    return NotImplemented
