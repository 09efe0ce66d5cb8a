"""Reference oracle for the exact eigenvalue-identity kernel (tests only).

A frozen copy of the first, unoptimised implementation: SurdSum with
Fraction coefficients in a dict, ComplexSurd built on it, the conference
module as a triple of SurdSums over Q(sqrt(q)), and the unhoisted
5x5x5x5 contraction loops for p and q.  It shares no arithmetic with the
package, so the property tests can compare the fast kernel against it
entry by entry.  Values cross the boundary only through the public
``to_triples``/``terms`` serialisation and the Fraction fields of
ConferenceEntry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, isqrt, sqrt
from typing import Iterable, Mapping, Union

from skewfiss.spectra import CharacterTable, ConferenceEntry, ConsistencyError

Rational = Fraction
RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
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


class SurdSum:
    """Finite sum of c_i * sqrt(n_i) with rational c_i and squarefree n_i >= 1.

    The rational part lives under radicand 1.  Terms are kept normalized
    (squarefree radicands, no zero coefficients), so structural equality of
    the term map is equality of values: sqrt(n_i) for distinct squarefree
    n_i are linearly independent over Q.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: RationalLike | "SurdSum" = 0):
        if isinstance(value, SurdSum):
            self._terms = dict(value._terms)
        else:
            c = _as_fraction(value)
            self._terms = {1: c} if c else {}

    @classmethod
    def _make(cls, terms: Mapping[int, Fraction]) -> "SurdSum":
        out = cls.__new__(cls)
        out._terms = {n: c for n, c in terms.items() if c}
        return out

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(n == 1 for n in self._terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def as_integer(self) -> int | None:
        """The integer value of this sum, or None if it is not a rational integer."""
        if not self._terms:
            return 0
        if self.is_rational():
            c = self._terms[1]
            if c.denominator == 1:
                return c.numerator
        return None

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided purely by rational arithmetic.

        Normal form empty means zero.  Single-sign coefficient sets are
        immediate; a two-term mixed sum compares c1^2*n1 against c2^2*n2;
        anything larger is resolved by refining rational bounds on each
        sqrt(n_i) until the enclosing interval excludes zero (guaranteed to
        terminate because a nonempty normal form is a nonzero value).
        """
        if not self._terms:
            return 0
        signs = {1 if c > 0 else -1 for c in self._terms.values()}
        if len(signs) == 1:
            return signs.pop()
        if len(self._terms) == 2:
            (n1, c1), (n2, c2) = self._terms.items()
            # exactly one of c1, c2 is positive here
            pos = (n1, c1) if c1 > 0 else (n2, c2)
            neg = (n1, c1) if c1 < 0 else (n2, c2)
            lhs = pos[1] ** 2 * pos[0]
            rhs = neg[1] ** 2 * neg[0]
            if lhs == rhs:
                return 0
            return 1 if lhs > rhs else -1
        shift = 16
        while True:
            scale = 1 << shift
            lo = Fraction(0)
            hi = Fraction(0)
            for n, c in self._terms.items():
                if n == 1:
                    lo += c
                    hi += c
                    continue
                root_lo = isqrt(n * scale * scale)
                if c > 0:
                    lo += c * Fraction(root_lo, scale)
                    hi += c * Fraction(root_lo + 1, scale)
                else:
                    lo += c * Fraction(root_lo + 1, scale)
                    hi += c * Fraction(root_lo, scale)
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
        terms = dict(self._terms)
        for n, c in other._terms.items():
            c2 = terms.get(n, Fraction(0)) + c
            if c2:
                terms[n] = c2
            else:
                terms.pop(n, None)
        return SurdSum._make(terms)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return SurdSum._make({n: -c for n, c in self._terms.items()})

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for n1, c1 in self._terms.items():
            for n2, c2 in other._terms.items():
                # sqrt(n1)*sqrt(n2) = g*sqrt((n1/g)*(n2/g)) with g = gcd:
                # the reduced radicand is squarefree because n1, n2 are.
                g = gcd(n1, n2)
                rad = (n1 // g) * (n2 // g)
                c = c1 * c2 * g
                c2tot = terms.get(rad, Fraction(0)) + c
                if c2tot:
                    terms[rad] = c2tot
                else:
                    terms.pop(rad, None)
        return SurdSum._make(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "SurdSum":
        d = _as_fraction(other)
        if d == 0:
            raise ZeroDivisionError("division of a surd sum by zero")
        return SurdSum._make({n: c / d for n, c in self._terms.items()})

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- conversion and display --------------------------------------------

    def __float__(self) -> float:
        """Diagnostic only; never used to decide equality or sign."""
        return fsum(float(c) * sqrt(n) for n, c in self._terms.items())

    def to_triples(self) -> list[tuple[int, int, int]]:
        """Serialize as (radicand, numerator, denominator) triples."""
        return [(n, c.numerator, c.denominator) for n, c in sorted(self._terms.items())]

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "SurdSum":
        total = cls(0)
        for n, num, den in triples:
            total = total + Fraction(num, den) * surd_sqrt(n)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for n, c in sorted(self._terms.items()):
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


def _coerce(x) -> SurdSum:
    if isinstance(x, SurdSum):
        return x
    if isinstance(x, (int, Fraction)):
        return SurdSum(x)
    return NotImplemented


def surd_sqrt(x: RationalLike) -> SurdSum:
    """Exact square root of a nonnegative rational as a SurdSum.

    The radicand of the result is the squarefree part of numerator*denominator.
    """
    x = _as_fraction(x)
    if x < 0:
        raise ValueError(f"surd_sqrt of a negative rational: {x}")
    if x == 0:
        return SurdSum(0)
    a, b = square_split(x.numerator * x.denominator)
    return SurdSum._make({b: Fraction(a, x.denominator)})


def surd_sign(a: SurdSum | RationalLike) -> int:
    return _coerce(a).sign()


def as_integer(a: SurdSum | RationalLike) -> int | None:
    return _coerce(a).as_integer()


class ComplexSurd:
    """Complex number with SurdSum real part and SurdSum coefficient of i."""

    __slots__ = ("re", "im")

    def __init__(self, re: SurdSum | RationalLike = 0, im: SurdSum | RationalLike = 0):
        self.re = _coerce(re)
        self.im = _coerce(im)

    def conjugate(self) -> "ComplexSurd":
        return ComplexSurd(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im.is_zero()

    def __add__(self, other) -> "ComplexSurd":
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexSurd(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexSurd":
        return ComplexSurd(-self.re, -self.im)

    def __sub__(self, other) -> "ComplexSurd":
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ComplexSurd":
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexSurd(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ComplexSurd":
        return ComplexSurd(self.re / other, self.im / other)

    def __eq__(self, other) -> bool:
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"({self.im})i"
        return f"{self.re}+({self.im})i"

    def __repr__(self) -> str:
        return f"ComplexSurd({self})"


def _coerce_complex(x) -> ComplexSurd:
    if isinstance(x, ComplexSurd):
        return x
    if isinstance(x, (int, Fraction, SurdSum)):
        return ComplexSurd(x, 0)
    return NotImplemented


# -- exact algebra for conference (nested-radical) tables ---------------------


class _ConferenceAlgebra:
    """Arithmetic in Q(sqrt(q)) + Q(sqrt(q))*i*u+ + Q(sqrt(q))*i*u-.

    u+- = sqrt((q +- g*sqrt(q))/8); the products u+^2, u-^2 and
    u+ * u- = (h/4)*sqrt(q) all land back in Q(sqrt(q)), so the span is a
    ring and every element is an exact triple of SurdSums.
    """

    def __init__(self, q: int, g: int, h: int):
        self.q, self.g, self.h = q, g, h
        sq = surd_sqrt(q)
        self.sq = sq
        self.up2 = (SurdSum(q) + g * sq) / 8
        self.um2 = (SurdSum(q) - g * sq) / 8
        self.upm = (h * sq) / 4

    def from_entry(self, e: ConferenceEntry) -> "_ConfElement":
        real = SurdSum(e.a) + e.b * surd_sqrt(e.q)
        if (e.c, e.e) == (0, 0):
            return _ConfElement(self, real, SurdSum(0), SurdSum(0))
        if (e.c, e.e) == (Fraction(self.q, 8), Fraction(self.g, 8)):
            return _ConfElement(self, real, SurdSum(e.im_sign), SurdSum(0))
        if (e.c, e.e) == (Fraction(self.q, 8), Fraction(-self.g, 8)):
            return _ConfElement(self, real, SurdSum(0), SurdSum(e.im_sign))
        raise ValueError(f"entry radical ({e.c}, {e.e}) outside the (q,g) algebra")


class _ConfElement:
    __slots__ = ("alg", "A", "B", "C")

    def __init__(self, alg: _ConferenceAlgebra, A: SurdSum, B: SurdSum, C: SurdSum):
        self.alg, self.A, self.B, self.C = alg, A, B, C

    def __add__(self, other: "_ConfElement") -> "_ConfElement":
        return _ConfElement(self.alg, self.A + other.A, self.B + other.B, self.C + other.C)

    def __mul__(self, other) -> "_ConfElement":
        if isinstance(other, (int, Fraction, SurdSum)):
            return _ConfElement(self.alg, self.A * other, self.B * other, self.C * other)
        a = self.alg
        A = (self.A * other.A - self.B * other.B * a.up2 - self.C * other.C * a.um2
             - (self.B * other.C + self.C * other.B) * a.upm)
        B = self.A * other.B + self.B * other.A
        C = self.A * other.C + self.C * other.A
        return _ConfElement(a, A, B, C)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_ConfElement":
        return _ConfElement(self.alg, self.A / other, self.B / other, self.C / other)

    def conjugate(self) -> "_ConfElement":
        return _ConfElement(self.alg, self.A, -self.B, -self.C)

    def is_real(self) -> bool:
        return self.B.is_zero() and self.C.is_zero()

    def real_value(self) -> SurdSum:
        if not self.is_real():
            raise ValueError(f"value {self} is not real")
        return self.A

    def __str__(self) -> str:
        return f"({self.A}) + ({self.B})iu+ + ({self.C})iu-"


def _table_elements(t: CharacterTable) -> list[list]:
    if t.kind == "surd":
        return [list(row) for row in t.entries]
    alg = _ConferenceAlgebra(t.q, t.g, t.h)
    return [[alg.from_entry(e) for e in row] for row in t.entries]


def _real_part(x) -> SurdSum:
    if isinstance(x, ComplexSurd):
        if not x.im.is_zero():
            raise ConsistencyError(f"tensor entry has nonzero imaginary part: {x}")
        return x.re
    if not x.is_real():
        raise ConsistencyError(f"tensor entry has nonzero imaginary part: {x}")
    return x.real_value()


def check_orthogonality(t: CharacterTable) -> None:
    """Column orthogonality sum_h m_h P[h][i] conj(P[h][j]) = n k_i [i=j], exactly."""
    P = _table_elements(t)
    d1 = len(t.entries)
    for i in range(d1):
        for j in range(d1):
            acc = None
            for h in range(d1):
                term = t.multiplicities[h] * (P[h][i] * P[h][j].conjugate())
                acc = term if acc is None else acc + term
            expected = SurdSum(t.n * t.valencies[i]) if i == j else SurdSum(0)
            if _real_part(acc) != expected or not _is_imag_zero(acc):
                raise ConsistencyError(f"orthogonality fails at columns ({i},{j}): {acc}")


def _is_imag_zero(x) -> bool:
    if isinstance(x, ComplexSurd):
        return x.im.is_zero()
    return x.is_real()


def p_values_from_table(t: CharacterTable) -> tuple:
    """Eigenvalue-identity values p^l_ij as exact SurdSums, no integrality gate."""
    P = _table_elements(t)
    d1 = len(t.entries)
    p = [[[None] * d1 for _ in range(d1)] for _ in range(d1)]
    for l in range(d1):
        scale = Fraction(t.n) * t.valencies[l]
        for i in range(d1):
            for j in range(d1):
                acc = None
                for h in range(d1):
                    term = t.multiplicities[h] * (P[h][i] * P[h][j] * P[h][l].conjugate())
                    acc = term if acc is None else acc + term
                p[i][j][l] = _real_part(acc / scale)
    return tuple(tuple(tuple(row) for row in plane) for plane in p)


def q_values_from_table(t: CharacterTable) -> tuple:
    """Krein numbers q^l_ij from the eigenvalue identity, as q[i][j][l]."""
    P = _table_elements(t)
    d1 = len(t.entries)
    q = [[[None] * d1 for _ in range(d1)] for _ in range(d1)]
    inv_k2 = [Fraction(1) / (t.valencies[h] * t.valencies[h]) for h in range(d1)]
    for i in range(d1):
        for j in range(d1):
            for l in range(d1):
                acc = None
                for h in range(d1):
                    term = inv_k2[h] * (P[i][h] * P[j][h] * P[l][h].conjugate())
                    acc = term if acc is None else acc + term
                value = acc * Fraction(t.multiplicities[i] * t.multiplicities[j], t.n)
                q[i][j][l] = _real_part(value)
    return tuple(tuple(tuple(row) for row in plane) for plane in q)


# -- boundary with the package ------------------------------------------------


def from_package(x) -> SurdSum:
    """Reference SurdSum of a package SurdSum, through its public triples."""
    return SurdSum.from_triples(x.to_triples())


def _complex_from_package(z) -> ComplexSurd:
    return ComplexSurd(from_package(z.re), from_package(z.im))


def reference_table(t: CharacterTable) -> CharacterTable:
    """The same table with surd entries rebuilt as reference ComplexSurds."""
    if t.kind != "surd":
        return t
    entries = tuple(tuple(_complex_from_package(e) for e in row) for row in t.entries)
    return CharacterTable(entries=entries, multiplicities=t.multiplicities,
                          valencies=t.valencies, n=t.n, kind=t.kind)

