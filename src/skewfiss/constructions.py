"""Concrete scheme builders and parameter generators.

Finite fields are built deterministically (lexicographically smallest
irreducible modulus and primitive element), cyclotomic class counts are
obtained by brute-force enumeration over the field, and the closed forms
for the 4-class cyclotomic case serve as an independent oracle against the
counted tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .scheme_core import AssociationScheme, SchemeError, verify_axioms

MAX_FIELD = 10 ** 6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Product of coefficient tuples reduced mod (modulus, p); little-endian."""
    deg_m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, deg_m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg_m):
                prod[i - deg_m + j] = (prod[i - deg_m + j] - c * modulus[j]) % p
    out = prod[:deg_m]
    while len(out) < deg_m:
        out.append(0)
    return tuple(out)


def _poly_divisible(num: tuple, div: tuple, p: int) -> bool:
    """Whether div (monic, little-endian) divides num over GF(p)."""
    rem = list(num)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        c = rem[-1]
        if c:
            shift = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - c * div[j]) % p
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) - 1 >= dd:
            rem.pop()
    return all(c == 0 for c in rem)


def _monic_polys(deg: int, p: int):
    """All monic polynomials of the given degree, little-endian tuples."""
    for t in range(p ** deg):
        yield _element_to_poly(t, p, deg) + (1,)


def _is_irreducible(poly: tuple, p: int) -> bool:
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            if _poly_divisible(poly, cand, p):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^b) with exp/log tables over a deterministic modulus.

    Elements are integers in [0, q) encoding coefficient vectors in base p,
    least significant digit = constant term.  The modulus is the monic
    irreducible polynomial of degree b whose coefficient tuple (highest
    degree first) is lexicographically smallest; the primitive element is
    the smallest integer encoding that generates the multiplicative group.
    """

    p: int
    b: int
    q: int
    modulus: tuple
    primitive: int
    exp: tuple
    log: tuple

    def add(self, x: int, y: int) -> int:
        return self._digitwise(x, y, 1)

    def sub(self, x: int, y: int) -> int:
        return self._digitwise(x, y, -1)

    def _digitwise(self, x: int, y: int, sign: int) -> int:
        """x + sign*y, one base-p digit (coefficient) at a time."""
        out, mult = 0, 1
        for _ in range(self.b):
            out += ((x + sign * y) % self.p) * mult
            x //= self.p
            y //= self.p
            mult *= self.p
        return out

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]


def _element_to_poly(e: int, p: int, b: int) -> tuple:
    coeffs = []
    for _ in range(b):
        coeffs.append(e % p)
        e //= p
    return tuple(coeffs)


def _poly_to_element(poly: tuple, p: int) -> int:
    out, mult = 0, 1
    for c in poly:
        out += c * mult
        mult *= p
    return out


@lru_cache(maxsize=None)
def field_build(p: int, b: int) -> FiniteField:
    """Deterministic GF(p^b) with full exp/log tables; p^b capped at 10^6."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if b < 1:
        raise ValueError(f"extension degree must be >= 1, got {b}")
    q = p ** b
    if q > MAX_FIELD:
        raise ValueError(f"field size {q} exceeds {MAX_FIELD}")

    if b == 1:
        modulus = (0, 1)  # reduction mod x: the prime field itself
    else:
        modulus = None
        # smallest (c_{b-1}, ..., c_0) in lexicographic order
        for t in range(q):
            # t's digits are (c_0, ..., c_{b-1}); the scan order is their reverse
            coeffs = tuple(reversed(_element_to_poly(t, p, b))) + (1,)
            if _is_irreducible(coeffs, p):
                modulus = coeffs
                break
        if modulus is None:
            raise RuntimeError(f"no monic irreducible of degree {b} found over GF({p})")

    group_order = q - 1
    prime_factors = list(factorize(group_order))

    def order_is_full(e: int) -> bool:
        epoly = _element_to_poly(e, p, b)
        for ell in prime_factors:
            power = group_order // ell
            acc = (1,) + (0,) * (b - 1)
            basep = epoly
            m = power
            while m:
                if m & 1:
                    acc = _poly_mul_mod(acc, basep, modulus, p)
                basep = _poly_mul_mod(basep, basep, modulus, p)
                m >>= 1
            if _poly_to_element(acc, p) == 1:
                return False
        return True

    primitive = None
    for e in range(2, q):
        if order_is_full(e):
            primitive = e
            break
    if primitive is None:
        raise RuntimeError(f"no primitive element found in GF({q})")

    exp_table = [1] * group_order
    gpoly = _element_to_poly(primitive, p, b)
    acc = (1,) + (0,) * (b - 1)
    for i in range(1, group_order):
        acc = _poly_mul_mod(acc, gpoly, modulus, p)
        exp_table[i] = _poly_to_element(acc, p)
    log_table = [0] * q
    for i, e in enumerate(exp_table):
        log_table[e] = i
    return FiniteField(p=p, b=b, q=q, modulus=modulus, primitive=primitive,
                       exp=tuple(exp_table), log=tuple(log_table))


# -- cyclotomic schemes --------------------------------------------------------


def cyc_skew_predicate(p: int, b: int) -> bool:
    """Whether the 4-class cyclotomic scheme over GF(p^b) is skew-symmetric."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p ** b % 8 == 5 and b % 2 == 1


def _class_lookup(field: FiniteField, d: int) -> np.ndarray:
    """cls[u] = i in 1..d for u in the coset alpha^i <alpha^d>; cls[0] = 0."""
    cls = np.zeros(field.q, dtype=np.int16)
    for u in range(1, field.q):
        i = field.log[u] % d
        cls[u] = i if i else d
    return cls


def cyclotomic_scheme(q: int, d: int) -> AssociationScheme:
    """The d-class cyclotomic scheme on GF(q); relations are power-residue cosets.

    For d = 4 in the skew case the classes are reindexed so transpose pairs
    sit in positions (1,4) and (2,3); the output is fully re-verified by
    counting.
    """
    pb = prime_power(q)
    if pb is None:
        raise ValueError(f"{q} is not a prime power")
    p, b = pb
    if (q - 1) % d:
        raise ValueError(f"d = {d} does not divide q - 1 = {q - 1}")
    field = field_build(p, b)
    cls = _class_lookup(field, d)
    if d == 4 and cyc_skew_predicate(p, b):
        # -1 lies in the coset of alpha^2, so transposition maps class i to
        # i + 2 mod 4; ordering the classes (1, 2, 4, 3) pairs them up.
        perm = np.array([0, 1, 2, 4, 3], dtype=np.int16)
        cls = perm[cls]
    # x - y digit by digit in base p, the encoding FiniteField.sub uses
    elems = np.arange(q, dtype=np.int32)
    diff = np.zeros((q, q), dtype=np.int32)
    for t in range(b):
        digit = elems // p ** t % p
        diff += (digit[:, None] - digit[None, :]) % p * p ** t
    rel = cls[diff]
    scheme = AssociationScheme(rel, d=d)
    report = verify_axioms(scheme)
    if not report.ok:
        raise SchemeError("cyclotomic construction failed verification:\n" + report.summary())
    return scheme


def cyclotomic_number(q: int, d: int, i: int, j: int) -> int:
    """(i, j) of order d over GF(q): count of s in the coset of alpha^i with
    1 + s in the coset of alpha^j, by direct enumeration."""
    pb = prime_power(q)
    if pb is None:
        raise ValueError(f"{q} is not a prime power")
    p, b = pb
    if (q - 1) % d:
        raise ValueError(f"d = {d} does not divide q - 1 = {q - 1}")
    field = field_build(p, b)
    one = 1
    count = 0
    for idx in range(i % d, q - 1, d):
        s = field.exp[idx]
        v = field.add(one, s)
        if v and field.log[v] % d == j % d:
            count += 1
    return count


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

    Empty iff some prime factor 3 mod 4 of m has odd exponent (or the only
    representations have h = 0).
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
        g += 2 if m % 2 else 1
    found.sort(key=lambda ts: -ts.g)
    return found


# -- closed forms for the 4-class cyclotomic scheme ------------------------------


@dataclass(frozen=True)
class Cyc4ClosedForm:
    """The five distinct intersection entries and the assembled B1, B2."""

    q: int
    g: int
    h: int
    A: int
    B: int
    C: int
    D: int
    E: int
    b1: tuple
    b2: tuple

    def abcde(self) -> tuple[int, int, int, int, int]:
        return (self.A, self.B, self.C, self.D, self.E)


def cyc4_closed_form(q: int, g: int, h: int) -> Cyc4ClosedForm:
    """Intersection matrices of the 4-class skew cyclotomic scheme on GF(q),
    from the two-squares data (g, h); entries must come out nonnegative
    integers or the data is rejected."""
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
    vals = {}
    for name, v in raw.items():
        if v % 16 or v < 0:
            raise ValueError(f"16*{name} = {v} is not a nonnegative multiple of 16")
        vals[name] = v // 16
    A, B, C, D, E = (vals[x] for x in "ABCDE")
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
    return Cyc4ClosedForm(q=q, g=g, h=h, A=A, B=B, C=C, D=D, E=E, b1=b1, b2=b2)


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
    inner_map = np.arange(di + 1, dtype=np.int16)
    outer_map = np.concatenate(([0], np.arange(di + 1, di + do + 1))).astype(np.int16)

    if di == 2 and do == 2:
        tin, tout = inner.transpose_map(), outer.transpose_map()
        if tin == [0, 2, 1] and tout == [0, 2, 1]:
            inner_map = np.array([0, 1, 4], dtype=np.int16)
            outer_map = np.array([0, 2, 3], dtype=np.int16)

    big = np.kron(outer_map[outer.rel], np.ones((ni, ni), dtype=np.int16))
    inner_block = inner_map[inner.rel]
    for u in range(no):
        sl = slice(u * ni, (u + 1) * ni)
        big[sl, sl] = inner_block
    scheme = AssociationScheme(big, d=di + do)
    report = verify_axioms(scheme)
    if not report.ok:
        raise SchemeError("wreath construction failed verification:\n" + report.summary())
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
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    n = len(pairs)
    rel = np.zeros((n, n), dtype=np.int16)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i == j:
                continue
            shared = len({a, b} & {c, d})
            rel[i, j] = 2 - shared
    scheme = AssociationScheme(rel, d=2)
    report = verify_axioms(scheme)
    if not report.ok:
        raise SchemeError("2-subset construction failed verification:\n" + report.summary())
    return scheme
