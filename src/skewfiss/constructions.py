"""Concrete scheme builders and parameter generators.

An element of GF(p^b) is represented only by its base-p encoding, the
integer sum c_t p^t standing for the polynomial sum c_t x^t.  Field
arithmetic is digit-wise on encodings, for Python ints and integer numpy
arrays alike: ``_axpy`` gives x + c*y (so x - y), and ``_mul`` gives g*u by
Horner's rule over the digits of g, each step a multiplication by x
reduced by the modulus (``_xtimes``).  The field tables, the difference
table of ``cyclotomic_scheme`` and the sums 1 + s of ``cyclotomic_number``
all use these.  Fields are built deterministically (lexicographically
smallest irreducible modulus, smallest primitive element), cyclotomic
class counts are obtained by brute-force enumeration over the field, and
the closed forms for the 4-class cyclotomic case serve as an independent
oracle against the counted tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .scheme_core import AssociationScheme, SchemeError, check_size, require_scheme, row_blocks
from .spectra import ClosedForm

MAX_FIELD = 10 ** 6


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, b) with n = p^b, or None."""
    f = factorize(n)
    if len(f) != 1:
        return None
    return next(iter(f.items()))


# -- finite fields -------------------------------------------------------------
#
# Elements are base-p encodings (see the module docstring); the modulus is
# x^b + m, with m the encoding of its lower terms.


def _axpy(x, y, c, p: int, b: int):
    """x + c*y, digit by digit mod p (c an int or an array; c = -1 gives x - y)."""
    out = 0
    for t in range(b):
        w = p ** t
        out = out + (x // w + c * (y // w)) % p * w
    return out


def _xtimes(u, p: int, b: int, m):
    """x*u reduced by the modulus x^b + m: shift up one digit, fold the top back."""
    top = u // p ** (b - 1)
    return _axpy(u % p ** (b - 1) * p, m, -top, p, b)


def _mul(g: int, u, p: int, b: int, m):
    """g*u by Horner's rule over the digits of g, highest first."""
    acc = 0 * u
    for t in reversed(range(b)):
        if p ** t <= g:  # a leading zero digit leaves acc at 0
            acc = _axpy(_xtimes(acc, p, b, m), u, g // p ** t % p, p, b)
    return acc


def _pow(g: int, e: int, p: int, b: int, m: int) -> int:
    """g^e by square-and-multiply."""
    acc = 1
    while e:
        if e & 1:
            acc = _mul(g, acc, p, b, m)
        g = _mul(g, g, p, b, m)
        e >>= 1
    return acc


def _is_irreducible(m: int, p: int, b: int) -> bool:
    """Whether x^b + m is irreducible over GF(p), by trial division.

    For each degree d <= b/2, Horner's rule over the coefficients of x^b + m
    gives its remainder modulo every monic x^d + r at once (r = 0..p^d - 1).
    """
    for d in range(1, b // 2 + 1):
        r = np.arange(p ** d)
        rem = 1  # the leading coefficient
        for t in reversed(range(b)):
            rem = _axpy(_xtimes(rem, p, d, r), 1, m // p ** t % p, p, d)
        if not rem.all():
            return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^b) as its exp/log tables over a deterministic modulus.

    Elements are their base-p encodings in [0, q), least significant digit
    = constant term.  ``modulus`` is the coefficient tuple (c_0, ..., c_b = 1)
    of the monic irreducible of degree b; ``exp[i]`` is the encoding of
    primitive^i and ``log`` its inverse (``log[0]`` is 0 and unused).
    """

    p: int
    b: int
    q: int
    modulus: tuple
    primitive: int
    exp: tuple
    log: tuple


@lru_cache(maxsize=None)
def field_build(p: int, b: int) -> FiniteField:
    """Deterministic GF(p^b) with full exp/log tables; p^b capped at 10^6.

    The modulus x^b + m is the monic irreducible whose coefficients
    (c_0, ..., c_{b-1}) are lexicographically smallest (x for b = 1, so the
    prime field is the integers mod p).  The primitive element is the
    smallest encoding g with g^((q-1)/l) != 1 for every prime l | q - 1.
    The exp table walks one vectorised table of g*u over all encodings u.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if b < 1:
        raise ValueError(f"extension degree must be >= 1, got {b}")
    q = p ** b
    if q > MAX_FIELD:
        raise ValueError(f"field size {q} exceeds {MAX_FIELD}")

    m = 0
    if b > 1:
        # t = sum c_i p^(b-1-i) runs through the coefficients in lexicographic
        # order; every t < p^(b-1) has c_0 = 0, so x divides it
        for t in range(p ** (b - 1), q):
            m = sum(t // p ** (b - 1 - i) % p * p ** i for i in range(b))
            if _is_irreducible(m, p, b):
                break

    order = q - 1
    cofactors = [order // ell for ell in factorize(order)]
    primitive = next(g for g in range(1, q)
                     if all(_pow(g, e, p, b, m) != 1 for e in cofactors))

    times_g = _mul(primitive, np.arange(q), p, b, m).tolist()
    exp_table = [1] * order
    for i in range(1, order):
        exp_table[i] = times_g[exp_table[i - 1]]
    del times_g  # q ints fewer alive while the log table is built
    log_table = np.zeros(q, dtype=np.int64)
    log_table[exp_table] = np.arange(order)
    return FiniteField(p=p, b=b, q=q, modulus=tuple(m // p ** i % p for i in range(b)) + (1,),
                       primitive=primitive, exp=tuple(exp_table), log=tuple(log_table.tolist()))


# -- cyclotomic schemes --------------------------------------------------------


def cyc_skew_predicate(p: int, b: int) -> bool:
    """Whether the 4-class cyclotomic scheme over GF(p^b) is skew-symmetric."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p ** b % 8 == 5 and b % 2 == 1


def _class_lookup(field: FiniteField, d: int) -> np.ndarray:
    """cls[u] = i in 1..d for u in the coset alpha^i <alpha^d>; cls[0] = 0."""
    cls = np.zeros(field.q, dtype=np.int16)
    cls[np.array(field.exp)] = (np.arange(field.q - 1) - 1) % d + 1
    return cls


def _cyclotomic_field(q: int, d: int) -> FiniteField:
    """GF(q) for the d classes of a cyclotomic scheme; q and d are checked."""
    if d < 1:
        raise ValueError(f"class count d = {d} must be at least 1")
    pb = prime_power(q)
    if pb is None:
        raise ValueError(f"{q} is not a prime power")
    if (q - 1) % d:
        raise ValueError(f"d = {d} does not divide q - 1 = {q - 1}")
    return field_build(*pb)


def cyclotomic_scheme(q: int, d: int) -> AssociationScheme:
    """The d-class cyclotomic scheme on GF(q); relations are power-residue cosets.

    For d = 4 in the skew case the classes are reindexed so transpose pairs
    sit in positions (1,4) and (2,3); the output is fully re-verified by
    counting.
    """
    check_size(q, d)
    field = _cyclotomic_field(q, d)
    cls = _class_lookup(field, d)
    if d == 4 and cyc_skew_predicate(field.p, field.b):
        # -1 lies in the coset of alpha^2, so transposition maps class i to
        # i + 2 mod 4; ordering the classes (1, 2, 4, 3) pairs them up.
        perm = np.array([0, 1, 2, 4, 3], dtype=np.int16)
        cls = perm[cls]
    elems = np.arange(q, dtype=np.int32)
    rel = np.empty((q, q), dtype=np.int16)
    for b in row_blocks(q, q):  # rel[x][y] = cls[y - x]
        rel[b] = cls[_axpy(elems[b, None], elems[None, :], -1, field.p, field.b)]
    rel.setflags(write=False)
    scheme = AssociationScheme(rel, d=d)
    require_scheme(scheme, SchemeError, "cyclotomic construction failed verification")
    return scheme


def cyclotomic_number(q: int, d: int, i: int, j: int) -> int:
    """(i, j) of order d over GF(q): count of s in the coset of alpha^i with
    1 + s in the coset of alpha^j, by direct enumeration."""
    field = _cyclotomic_field(q, d)
    s = np.array(field.exp[i % d::d])
    one_plus_s = _axpy(1, s, 1, field.p, field.b)
    return int(np.count_nonzero(_class_lookup(field, d)[one_plus_s] == (j % d or d)))


# -- two-squares representations -----------------------------------------------


@dataclass(frozen=True)
class TwoSquares:
    """m = g^2 + 4h^2 with g = 1 mod 4 (sign of g forced) and h > 0."""

    g: int
    h: int
    m: int

    def __post_init__(self):
        if self.m != self.g * self.g + 4 * self.h * self.h or self.g % 4 != 1:
            raise ValueError(f"(g, h, m) = {(self.g, self.h, self.m)}: need m = g^2 + 4h^2 "
                             "and g = 1 mod 4")


def two_squares(m: int) -> list[TwoSquares]:
    """All representations m = g^2 + 4h^2 with h > 0, sorted by g descending.

    g is odd, so m must be too.  Empty iff m is even, some prime factor
    3 mod 4 of m has odd exponent, or the only representation is m = g^2.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    found = []
    g = 1
    while g * g < m:
        rem = m - g * g
        if rem % 4 == 0:
            h = isqrt(rem // 4)
            if h > 0 and 4 * h * h == rem:
                signed = g if g % 4 == 1 else -g
                found.append(TwoSquares(g=signed, h=h, m=m))
        g += 2
    found.sort(key=lambda ts: -ts.g)
    return found


# -- closed forms for the 4-class cyclotomic scheme ------------------------------


def cyc4_closed_form(q: int, g: int, h: int) -> ClosedForm:
    """Intersection matrices of the 4-class skew cyclotomic scheme on GF(q),
    from the two-squares data (g, h), in five distinct entries A..E; they must
    come out nonnegative integers or the data is rejected."""
    if q % 8 != 5:
        raise ValueError(f"q = {q} is not 5 mod 8")
    if g % 4 != 1 or q != g * g + 4 * h * h:
        raise ValueError(f"(g, h) = ({g}, {h}) is not a valid two-squares "
                         f"representation of {q}")
    f = (q - 1) // 4
    raw = {
        "A": q - 7 + 2 * g,
        "B": q + 1 + 2 * g + 8 * h,
        "C": q + 1 - 6 * g,
        "D": q + 1 + 2 * g - 8 * h,
        "E": q - 3 - 2 * g,
    }
    for name, v in raw.items():
        if v % 16 or v < 0:
            raise ValueError(f"16*{name} = {v} is not a nonnegative multiple of 16")
    A, B, C, D, E = (v // 16 for v in raw.values())
    b1 = ((0, 1, 0, 0, 0),
          (0, A, B, D, C),
          (0, E, E, B, D),
          (0, E, D, E, B),
          (f, A, E, E, A))
    b2 = ((0, 0, 1, 0, 0),
          (0, E, E, B, D),
          (0, D, A, C, B),
          (f, E, A, A, E),
          (0, B, E, D, E))
    return ClosedForm(b1=b1, b2=b2, valencies=(1, f, f, f, f))


# -- wreath products -------------------------------------------------------------


def wreath(inner: AssociationScheme, outer: AssociationScheme) -> AssociationScheme:
    """Wreath product: one copy of ``inner`` sitting over each point of ``outer``.

    Points are (inner point, outer point) pairs.  Nontrivial inner relations
    act within a block (same outer point); nontrivial outer relations join
    whole blocks.  When both factors are 2-class skew schemes the classes
    are ordered (inner, outer, outer^T, inner^T) so the transpose pairs sit
    in positions (1,4) and (2,3).
    """
    ni, no = inner.n, outer.n
    di, do = inner.d, outer.d
    check_size(ni * no, di + do)
    inner_map = np.arange(di + 1, dtype=np.int16)
    outer_map = np.concatenate(([0], np.arange(di + 1, di + do + 1))).astype(np.int16)

    if di == 2 and do == 2:
        tin, tout = inner.transpose_map(), outer.transpose_map()
        if tin == [0, 2, 1] and tout == [0, 2, 1]:
            inner_map = np.array([0, 1, 4], dtype=np.int16)
            outer_map = np.array([0, 2, 3], dtype=np.int16)

    # repeat makes a fresh array (np.kron's is a view), so AssociationScheme keeps it
    big = outer_map[outer.rel].repeat(ni, axis=0).repeat(ni, axis=1)
    inner_block = inner_map[inner.rel]
    for u in range(no):
        sl = slice(u * ni, (u + 1) * ni)
        big[sl, sl] = inner_block
    big.setflags(write=False)
    scheme = AssociationScheme(big, d=di + do)
    require_scheme(scheme, SchemeError, "wreath construction failed verification")
    return scheme


# -- parameter generators ---------------------------------------------------------


def conference_params(q: int) -> tuple[int, int, int, int]:
    """(n, k, lam, mu) of the conference graph on q points; q = 1 mod 4."""
    if q % 4 != 1:
        raise ValueError(f"q = {q} is not 1 mod 4")
    return (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


def johnson2_params(v: int) -> tuple[int, int, int, int]:
    """(n, k, lam, mu) of the pair-intersection graph on 2-subsets of a v-set."""
    if v < 5:
        raise ValueError(f"need v >= 5, got {v}")
    return (v * (v - 1) // 2, 2 * (v - 2), v - 2, 4)


def johnson2_scheme(v: int) -> AssociationScheme:
    """The 2-class scheme on 2-subsets of a v-set (relation by intersection size)."""
    if v < 4:
        raise ValueError(f"need v >= 4, got {v}")
    check_size(v * (v - 1) // 2, 2)
    a, b = np.triu_indices(v, 1)  # the 2-subsets {a, b}, a < b, in lexicographic order
    shared = sum(x[:, None] == y[None, :] for x in (a, b) for y in (a, b))
    rel = (2 - shared).astype(np.int16)
    rel.setflags(write=False)
    scheme = AssociationScheme(rel, d=2)
    require_scheme(scheme, SchemeError, "2-subset construction failed verification")
    return scheme
