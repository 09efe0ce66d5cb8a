"""Character tables and intersection/Krein tensors for 4-class skew fissions.

A 2-class symmetric scheme (a strongly regular graph) may split into a
4-class scheme whose nontrivial relations pair up with their transposes.
The 5x5 character table of such a split comes in three closed forms (here
called types I, II and III); the intersection matrices follow either from
closed forms in the graph parameters or from the eigenvalue identity

    p^l_ij = (1/(n k_l)) sum_h m_h P[h][i] P[h][j] conj(P[h][l])
    q^l_ij = (m_i m_j / n) sum_h P[i][h] P[j][h] conj(P[l][h]) / k_h^2

and the two derivations must agree exactly on every candidate.

Both identities run through one kernel: the weighted product of entries
i and j is formed once per summation index and reused for every l, and
only i <= j is computed (the sums are symmetric in i and j).

Pseudocyclic (conference) splits have table entries with nested radicals
sqrt(c + e*sqrt(q)).  Those live outside the plain surd kernel, but all
products appearing in the tensor formulas close inside the module
Q(sqrt(q)) + Q(sqrt(q))*i*u+ + Q(sqrt(q))*i*u-, where u+- are the two
nested radicals and u+ * u- collapses to (h/4)*sqrt(q).  The conference
path computes in that module, each element stored as six integer
coordinates over Q(sqrt(s)) (s the squarefree part of q) with one shared
denominator, so tensor entries and Krein signs are exact there as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .exactnum import ComplexSurd, SurdSum, square_split, surd_sqrt
from .scheme_core import IntersectionTensor

TYPE_I, TYPE_II, TYPE_III = "I", "II", "III"
# conjugate-transpose pairing of relation positions (R0, R1, R2, R2^T, R1^T)
PAIRED = (0, 4, 3, 2, 1)


class InfeasibleError(ValueError):
    """A candidate fails an exact feasibility requirement (not a bug)."""

    def __init__(self, message: str, where=None, value=None):
        super().__init__(message)
        self.where = where
        self.value = value


class ConsistencyError(RuntimeError):
    """Two independent derivations disagree; indicates an implementation bug."""


# -- strongly regular graph parameters ---------------------------------------


@dataclass(frozen=True)
class SrgParams:
    """Parameters (n, k, lam, mu) with derived exact spectrum.

    r > s are the nontrivial eigenvalues, t = -1-r and u = -1-s those of the
    complement, m1 and m2 the multiplicities.  conference means m1 == m2
    (irrational eigenvalues unless n is a square).
    """

    n: int
    k: int
    lam: int
    mu: int
    k2: int
    r: SurdSum
    s: SurdSum
    t: SurdSum
    u: SurdSum
    m1: int
    m2: int
    conference: bool

    def eig_ints(self) -> tuple[int, int, int, int]:
        vals = tuple(x.as_integer() for x in (self.r, self.s, self.t, self.u))
        if any(v is None for v in vals):
            raise InfeasibleError(f"eigenvalues of {self.quad()} are irrational")
        return vals

    def quad(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    def __str__(self) -> str:
        return (f"srg({self.n},{self.k},{self.lam},{self.mu}): "
                f"r={self.r} (m1={self.m1}), s={self.s} (m2={self.m2})")


def srg_derive(n: int, k: int, lam: int, mu: int) -> SrgParams:
    """Exact eigenvalues and multiplicities from (n, k, lam, mu)."""
    if not (0 < k < n - 1):
        raise ValueError(f"need 0 < k < n-1, got k={k}, n={n}")
    if lam >= k or mu > k or lam < 0 or mu < 0:
        raise ValueError(f"need 0 <= lam < k and 0 <= mu <= k, got lam={lam}, mu={mu}")
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise ValueError(
            f"parameter identity k(k-lam-1) = (n-k-1)mu fails for ({n},{k},{lam},{mu})")
    k2 = n - k - 1
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        raise ValueError(f"degenerate spectrum for ({n},{k},{lam},{mu})")
    w = isqrt(disc)
    if w * w == disc:
        r_i = (lam - mu + w) // 2
        s_i = (lam - mu - w) // 2
        num = (n - 1) * (-s_i) - k
        if num % (r_i - s_i):
            raise ValueError(f"non-integer multiplicities for ({n},{k},{lam},{mu})")
        m1 = num // (r_i - s_i)
        m2 = n - 1 - m1
        if m1 <= 0 or m2 <= 0:
            raise ValueError(f"non-positive multiplicities for ({n},{k},{lam},{mu})")
        r, s = SurdSum(r_i), SurdSum(s_i)
        conference = m1 == m2
    else:
        # irrational eigenvalues force equal multiplicities
        if 2 * k + (n - 1) * (lam - mu) != 0 or (n - 1) % 2:
            raise ValueError(f"non-integer multiplicities for ({n},{k},{lam},{mu})")
        m1 = m2 = (n - 1) // 2
        half = surd_sqrt(disc) / 2
        r = SurdSum(Fraction(lam - mu, 2)) + half
        s = SurdSum(Fraction(lam - mu, 2)) - half
        conference = True
    minus_one = SurdSum(-1)
    return SrgParams(n=n, k=k, lam=lam, mu=mu, k2=k2, r=r, s=s,
                     t=minus_one - r, u=minus_one - s, m1=m1, m2=m2,
                     conference=conference)


# -- fission candidates -------------------------------------------------------


@dataclass(frozen=True)
class FissionCandidate:
    """One putative 4-class split: a table type, plus the free z for type III."""

    table_type: str
    z: Fraction | None = None
    y: Fraction | None = None
    b: Fraction | None = None
    c: Fraction | None = None

    def __str__(self) -> str:
        return self.table_type if self.z is None else f"{self.table_type} z={self.z}"


def type3_auxiliary(p: SrgParams, z) -> tuple[Fraction, Fraction, Fraction]:
    """Solve the type-III side conditions for (y, b, c) given free z.

    Requires 0 < z < n*k2/m1 so that all of y, b, c stay positive; the
    square-root balance m1*sqrt(y*z) = m2*sqrt(b*c) then holds identically.
    """
    z = Fraction(z)
    if not 0 < z < Fraction(p.n * p.k2, p.m1):
        raise InfeasibleError(
            f"z = {z} outside (0, n*k2/m1 = {Fraction(p.n * p.k2, p.m1)})")
    b = Fraction(p.m1 * p.k, p.k2 * p.m2) * z
    y = Fraction(p.k, p.k2 * p.m1) * (p.n * p.k2 - p.m1 * z)
    c = Fraction(p.n * p.k2 - p.m1 * z, p.m2)
    if not (y > 0 and b > 0 and c > 0 and p.m1 * surd_sqrt(y * z) == p.m2 * surd_sqrt(b * c)):
        raise ConsistencyError(
            f"type-III side conditions fail at z = {z}: (y, b, c) = {(y, b, c)}")
    return y, b, c


def make_candidate(p: SrgParams, table_type: str, z=None) -> FissionCandidate:
    if table_type in (TYPE_I, TYPE_II):
        if z is not None:
            raise ValueError(f"type {table_type} takes no free parameter")
        return FissionCandidate(table_type)
    if table_type == TYPE_III:
        if z is None:
            raise ValueError("type III requires the free parameter z")
        y, b, c = type3_auxiliary(p, z)
        return FissionCandidate(TYPE_III, z=Fraction(z), y=y, b=b, c=c)
    raise ValueError(f"unknown table type {table_type!r}")


# -- character tables ---------------------------------------------------------


@dataclass(frozen=True)
class ConferenceEntry:
    """Value (a + b*sqrt(q)) + im_sign * i * sqrt(c + e*sqrt(q)).

    The radical argument c + e*sqrt(q) is kept nonnegative; conjugation
    flips im_sign instead.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    e: Fraction
    q: int
    im_sign: int = 1

    def __post_init__(self):
        rad = self.imag_radicand()
        if rad.sign() < 0:
            raise ValueError(f"negative radical argument {rad}")

    def real_surd(self) -> SurdSum:
        return SurdSum(self.a) + self.b * surd_sqrt(self.q)

    def imag_radicand(self) -> SurdSum:
        return SurdSum(self.c) + self.e * surd_sqrt(self.q)

    def conjugate(self) -> "ConferenceEntry":
        return ConferenceEntry(self.a, self.b, self.c, self.e, self.q, -self.im_sign)

    def is_real(self) -> bool:
        return self.imag_radicand().is_zero()

    @classmethod
    def from_rational(cls, x, q: int) -> "ConferenceEntry":
        return cls(Fraction(x), Fraction(0), Fraction(0), Fraction(0), q)

    def __str__(self) -> str:
        real = str(self.real_surd())
        if self.is_real():
            return real
        sign = "+" if self.im_sign > 0 else "-"
        return f"{real}{sign}i√({self.imag_radicand()})"


@dataclass(frozen=True)
class CharacterTable:
    """5x5 table of exact eigenvalues; row 0 is the valency row.

    kind "surd" holds ComplexSurd entries; kind "conference" holds
    ConferenceEntry values (nested radicals) plus the (q, g, h) data that
    drives their exact multiplication rules.
    """

    entries: tuple
    multiplicities: tuple
    valencies: tuple
    n: int
    kind: str
    q: int | None = None
    g: int | None = None
    h: int | None = None

    def entry(self, row: int, col: int):
        return self.entries[row][col]

    def to_json_dict(self) -> dict:
        if self.kind == "surd":
            cells = [[{"re": e.re.to_triples(), "im": e.im.to_triples()} for e in row]
                     for row in self.entries]
        else:
            cells = [[{"a": [e.a.numerator, e.a.denominator],
                       "b": [e.b.numerator, e.b.denominator],
                       "c": [e.c.numerator, e.c.denominator],
                       "e": [e.e.numerator, e.e.denominator],
                       "q": e.q, "im_sign": e.im_sign} for e in row]
                     for row in self.entries]
        return {
            "kind": self.kind,
            "n": self.n,
            "multiplicities": [[m.numerator, m.denominator] for m in self.multiplicities],
            "valencies": [[v.numerator, v.denominator] for v in self.valencies],
            "entries": cells,
        }

    def pretty(self) -> str:
        width = max(len(str(e)) for row in self.entries for e in row)
        lines = []
        for row, mult in zip(self.entries, self.multiplicities):
            cells = "  ".join(str(e).rjust(width) for e in row)
            lines.append(f"[ {cells} ]   x{mult}")
        return "\n".join(lines)


def character_table(p: SrgParams, cand: FissionCandidate) -> CharacterTable:
    """The 5x5 table for a non-conference candidate, with exact surd entries."""
    if p.conference:
        raise InfeasibleError("conference parameters: use conference_table(q, g)")
    if p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2:
        raise InfeasibleError(
            f"{p.quad()}: multiplicities and valencies must all be even to split")
    r, s, t, u = (Fraction(x) for x in p.eig_ints())
    n, k, k2, m1, m2 = p.n, p.k, p.k2, p.m1, p.m2

    if cand.table_type == TYPE_I:
        b = Fraction(n * k, m2)
        z = Fraction(n * k2, m1)
        rho = ComplexSurd(Fraction(r, 2))
        sigma = ComplexSurd(Fraction(s, 2), surd_sqrt(b) / 2)
        tau = ComplexSurd(Fraction(t, 2), surd_sqrt(z) / 2)
        omega = ComplexSurd(Fraction(u, 2))
    elif cand.table_type == TYPE_II:
        y = Fraction(n * k, m1)
        c = Fraction(n * k2, m2)
        rho = ComplexSurd(Fraction(r, 2), surd_sqrt(y) / 2)
        sigma = ComplexSurd(Fraction(s, 2))
        tau = ComplexSurd(Fraction(t, 2))
        omega = ComplexSurd(Fraction(u, 2), surd_sqrt(c) / 2)
    elif cand.table_type == TYPE_III:
        if cand.z is None:
            raise InfeasibleError("type III candidate without z")
        y, b, c = cand.y, cand.b, cand.c
        rho = ComplexSurd(Fraction(r, 2), surd_sqrt(y) / 2)
        tau = ComplexSurd(Fraction(t, 2), surd_sqrt(cand.z) / 2)
        sigma = ComplexSurd(Fraction(s, 2), surd_sqrt(b) / 2)
        omega = ComplexSurd(Fraction(u, 2), -(surd_sqrt(c) / 2))
    else:
        raise ValueError(f"unknown table type {cand.table_type!r}")

    one = ComplexSurd(1)
    row0 = (one, ComplexSurd(Fraction(k, 2)), ComplexSurd(Fraction(k2, 2)),
            ComplexSurd(Fraction(k2, 2)), ComplexSurd(Fraction(k, 2)))
    cj = lambda x: x.conjugate()
    rows = (
        row0,
        (one, rho, tau, cj(tau), cj(rho)),
        (one, sigma, omega, cj(omega), cj(sigma)),
        (one, cj(sigma), cj(omega), omega, sigma),
        (one, cj(rho), cj(tau), tau, rho),
    )
    mults = (Fraction(1), Fraction(m1, 2), Fraction(m2, 2), Fraction(m2, 2), Fraction(m1, 2))
    vals = (Fraction(1), Fraction(k, 2), Fraction(k2, 2), Fraction(k2, 2), Fraction(k, 2))
    return CharacterTable(entries=rows, multiplicities=mults, valencies=vals,
                          n=n, kind="surd")


def conference_table(q: int, g: int) -> CharacterTable:
    """Table of a putative pseudocyclic split of the conference graph on q points.

    Needs q = 5 mod 8 and q = g^2 + 4h^2 with g = 1 mod 4; entries carry the
    nested radicals sqrt((q +- g*sqrt(q))/8).
    """
    if q % 8 != 5:
        raise ValueError(f"q = {q} is not 5 mod 8")
    if g % 4 != 1:
        raise ValueError(f"g = {g} is not 1 mod 4")
    rem = q - g * g
    if rem <= 0 or rem % 4:
        raise ValueError(f"q - g^2 = {rem} is not 4h^2 for positive h")
    h = isqrt(rem // 4)
    if 4 * h * h != rem:
        raise ValueError(f"q - g^2 = {rem} is not 4h^2 for positive h")
    f = (q - 1) // 4
    quarter = Fraction(1, 4)
    rho = ConferenceEntry(-quarter, quarter, Fraction(q, 8), Fraction(g, 8), q)
    tau = ConferenceEntry(-quarter, -quarter, Fraction(q, 8), Fraction(-g, 8), q)
    one = ConferenceEntry.from_rational(1, q)
    fq = ConferenceEntry.from_rational(f, q)
    cj = lambda x: x.conjugate()
    rows = (
        (one, fq, fq, fq, fq),
        (one, rho, tau, cj(tau), cj(rho)),
        (one, tau, cj(rho), rho, cj(tau)),
        (one, cj(tau), rho, cj(rho), tau),
        (one, cj(rho), cj(tau), tau, rho),
    )
    mults = tuple(Fraction(x) for x in (1, f, f, f, f))
    return CharacterTable(entries=rows, multiplicities=mults, valencies=mults,
                          n=q, kind="conference", q=q, g=g, h=h)


# -- exact algebra for conference (nested-radical) tables ---------------------


class _ConferenceAlgebra:
    """Arithmetic in Q(sqrt(q)) + Q(sqrt(q))*i*u+ + Q(sqrt(q))*i*u-.

    u+- = sqrt((q +- g*sqrt(q))/8).  With sqrt(q) = r*sqrt(s), s squarefree,
    u+-^2 = (q +- g*r*sqrt(s))/8 and u+ * u- = (h*r/4)*sqrt(s) land back in
    Q(sqrt(s)), so the span is a ring.  An element is six integers
    (a0, a1, b0, b1, c0, c1) over a shared denominator d > 0, meaning
    ((a0 + a1 sqrt(s)) + (b0 + b1 sqrt(s)) i u+ + (c0 + c1 sqrt(s)) i u-) / d.
    """

    def __init__(self, q: int, g: int, h: int):
        self.q, self.g = q, g
        self.r, self.s = square_split(q)
        self.gr, self.hr = g * self.r, h * self.r

    def from_entry(self, e: ConferenceEntry) -> "_ConfElement":
        a, b = e.a, e.b * self.r
        d = lcm(a.denominator, b.denominator)
        v = [a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), 0, 0, 0, 0]
        if not e.is_real():
            if (e.c, abs(e.e)) != (Fraction(self.q, 8), Fraction(abs(self.g), 8)):
                raise ValueError(f"entry radical ({e.c}, {e.e}) outside the (q,g) algebra")
            v[2 if e.e == Fraction(self.g, 8) else 4] = e.im_sign * d
        return _ConfElement(self, tuple(v), d)


class _ConfElement:
    __slots__ = ("alg", "v", "d")

    def __init__(self, alg: _ConferenceAlgebra, v: tuple, d: int):
        g = gcd(d, *v)
        self.alg, self.v, self.d = alg, tuple(x // g for x in v), d // g

    def __add__(self, other: "_ConfElement") -> "_ConfElement":
        g = gcd(self.d, other.d)
        f1, f2 = other.d // g, self.d // g
        return _ConfElement(self.alg, tuple(x * f1 + y * f2 for x, y in zip(self.v, other.v)),
                            self.d * f1)

    def __mul__(self, other) -> "_ConfElement":
        alg = self.alg
        if not isinstance(other, _ConfElement):
            w = Fraction(other)
            return _ConfElement(alg, tuple(x * w.numerator for x in self.v),
                                self.d * w.denominator)
        s, q, gr, hr = alg.s, alg.q, alg.gr, alg.hr
        a0, a1, b0, b1, c0, c1 = self.v
        A0, A1, B0, B1, C0, C1 = other.v
        # products in Q(sqrt(s)): bB = (u0, u1), cC = (v0, v1), bC + cB = (w0, w1)
        u0, u1 = b0 * B0 + s * b1 * B1, b0 * B1 + b1 * B0
        v0, v1 = c0 * C0 + s * c1 * C1, c0 * C1 + c1 * C0
        w0 = b0 * C0 + c0 * B0 + s * (b1 * C1 + c1 * B1)
        w1 = b0 * C1 + b1 * C0 + c0 * B1 + c1 * B0
        # (i u+)^2 = -u+^2, (i u-)^2 = -u-^2, (i u+)(i u-) = -u+ u-; all over 8
        v = (8 * (a0 * A0 + s * a1 * A1) - q * (u0 + v0) - s * gr * (u1 - v1) - 2 * s * hr * w1,
             8 * (a0 * A1 + a1 * A0) - gr * (u0 - v0) - q * (u1 + v1) - 2 * hr * w0,
             8 * (a0 * B0 + b0 * A0 + s * (a1 * B1 + b1 * A1)),
             8 * (a0 * B1 + a1 * B0 + b0 * A1 + b1 * A0),
             8 * (a0 * C0 + c0 * A0 + s * (a1 * C1 + c1 * A1)),
             8 * (a0 * C1 + a1 * C0 + c0 * A1 + c1 * A0))
        return _ConfElement(alg, v, 8 * self.d * other.d)

    def conjugate(self) -> "_ConfElement":
        a0, a1, b0, b1, c0, c1 = self.v
        return _ConfElement(self.alg, (a0, a1, -b0, -b1, -c0, -c1), self.d)

    def is_real(self) -> bool:
        return not any(self.v[2:])

    def _surd(self, x0: int, x1: int) -> SurdSum:
        return SurdSum._make({1: Fraction(x0, self.d), self.alg.s: Fraction(x1, self.d)})

    def real_part(self) -> SurdSum:
        return self._surd(*self.v[:2])

    def __str__(self) -> str:
        a0, a1, b0, b1, c0, c1 = self.v
        return f"({self._surd(a0, a1)}) + ({self._surd(b0, b1)})iu+ + ({self._surd(c0, c1)})iu-"


def _table_elements(t: CharacterTable) -> list[list]:
    """Table entries as ring elements sharing conjugate, +, *, is_real, real_part."""
    if t.kind == "surd":
        return [list(row) for row in t.entries]
    alg = _ConferenceAlgebra(t.q, t.g, t.h)
    return [[alg.from_entry(e) for e in row] for row in t.entries]


def check_orthogonality(t: CharacterTable) -> None:
    """Column orthogonality sum_h m_h P[h][i] conj(P[h][j]) = n k_i [i=j], exactly."""
    P = _table_elements(t)
    d1 = len(t.entries)
    for i in range(d1):
        for j in range(d1):
            acc = P[0][i] * P[0][j].conjugate() * t.multiplicities[0]
            for h in range(1, d1):
                acc = acc + P[h][i] * P[h][j].conjugate() * t.multiplicities[h]
            expected = SurdSum(t.n * t.valencies[i]) if i == j else SurdSum(0)
            if not acc.is_real() or acc.real_part() != expected:
                raise ConsistencyError(f"orthogonality fails at columns ({i},{j}): {acc}")


def _identity_sums(E: list[list], weights) -> list:
    """S[i][j][l] = sum_h weights[h] E[h][i] E[h][j] conj(E[h][l]), each real.

    The weighted product of E[h][i] and E[h][j] is formed once per h and
    i <= j, and (j, i) mirrors (i, j): the products commute, so the sum is
    symmetric in (i, j) whatever the table.
    """
    d1 = len(E)
    conj = [[x.conjugate() for x in row] for row in E]
    S = [[[None] * d1 for _ in range(d1)] for _ in range(d1)]
    for i in range(d1):
        for j in range(i, d1):
            w = [E[h][i] * E[h][j] * weights[h] for h in range(d1)]
            for l in range(d1):
                acc = w[0] * conj[0][l]
                for h in range(1, d1):
                    acc = acc + w[h] * conj[h][l]
                if not acc.is_real():
                    raise ConsistencyError(
                        f"tensor entry ({i},{j},{l}) has nonzero imaginary part: {acc}")
                S[i][j][l] = S[j][i][l] = acc.real_part()
    return S


def p_values_from_table(t: CharacterTable) -> tuple:
    """Eigenvalue-identity values p^l_ij as exact SurdSums, no integrality gate."""
    S = _identity_sums(_table_elements(t), t.multiplicities)
    return tuple(tuple(tuple(x / (t.n * t.valencies[l]) for l, x in enumerate(row))
                       for row in plane) for plane in S)


def p_from_table(t: CharacterTable) -> IntersectionTensor:
    """Intersection tensor from the eigenvalue identity; exact.

    Raises InfeasibleError naming the first (i, j, l) whose entry is not a
    nonnegative integer: such a table belongs to no scheme.
    """
    return _integral_tensor(p_values_from_table(t), t.valencies)


def _integral_tensor(values, valencies) -> IntersectionTensor:
    """The integrality gate every tensor path passes through.

    values[i][j][l] = p^l_ij may be int, Fraction or SurdSum; rationals are
    tested directly.  Raises InfeasibleError at the first (i, j, l), in
    lexicographic order, whose entry is not a nonnegative integer.
    """
    d1 = len(values)
    p = [[[0] * d1 for _ in range(d1)] for _ in range(d1)]
    for i in range(d1):
        for j in range(d1):
            for l in range(d1):
                x = values[i][j][l]
                if isinstance(x, SurdSum):
                    iv = x.as_integer()
                else:
                    iv = int(x) if x.denominator == 1 else None
                if iv is None or iv < 0:
                    raise InfeasibleError(
                        f"p^{l}_({i},{j}) = {x} is not a nonnegative integer",
                        where=(i, j, l), value=x)
                p[i][j][l] = iv
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in p)
    return IntersectionTensor(p=frozen, valencies=tuple(int(v) for v in valencies))


@dataclass(frozen=True)
class KreinTensor:
    """q^l_ij values as exact SurdSums, all real."""

    q: tuple  # q[i][j][l]

    def __getitem__(self, idx):
        i, j, l = idx
        return self.q[i][j][l]

    def negatives(self) -> list[tuple[tuple[int, int, int], SurdSum]]:
        """All (l, i, j) with q^l_ij < 0, in lexicographic order of (l, i, j)."""
        out = []
        d1 = len(self.q)
        for l in range(d1):
            for i in range(d1):
                for j in range(d1):
                    v = self.q[i][j][l]
                    if v.sign() < 0:
                        out.append(((l, i, j), v))
        return out


def q_from_table(t: CharacterTable) -> KreinTensor:
    """Krein numbers from the eigenvalue identity; negativity is a result."""
    columns = [list(col) for col in zip(*_table_elements(t))]
    S = _identity_sums(columns, [Fraction(1) / (k * k) for k in t.valencies])
    m, n = t.multiplicities, t.n
    return KreinTensor(q=tuple(tuple(tuple(x * Fraction(m[i] * m[j], n) for x in row)
                                     for j, row in enumerate(plane))
                               for i, plane in enumerate(S)))


# -- closed-form intersection matrices ---------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Principal 4x4 parts of B1 and B2 (exact rationals) plus bookkeeping.

    B3 and B4 are views through p^k_ij = p^{k'}_{j'i'}; ``rational_tensor()``
    completes them into the 5x5x5 planes and ``tensor()`` passes those
    through the integrality gate.
    """

    b1: tuple
    b2: tuple
    k_half: int
    k2_half: int
    aux: dict

    def entries(self):
        return [x for rows in (self.b1, self.b2) for row in rows for x in row]

    def all_nonneg_integers(self) -> bool:
        return all(x.denominator == 1 and x >= 0 for x in self.entries())

    def tensor(self) -> IntersectionTensor:
        """The completed integer tensor; InfeasibleError names the first bad (i, j, l)."""
        vals = (1, self.k_half, self.k2_half, self.k2_half, self.k_half)
        return _integral_tensor(self.rational_tensor(), vals)

    def rational_tensor(self) -> tuple:
        """Completed 5x5x5 tensor of exact rationals, no integrality gate."""
        return _planes(_complete_matrix(self.b1, rel=1, valency=self.k_half),
                       _complete_matrix(self.b2, rel=2, valency=self.k2_half))


def _complete_matrix(principal, rel: int, valency: int) -> list:
    """Add row 0 (p^k_{i0} = [k = i]) and column 0 (p^0_{ij} = k_i [j = i'])."""
    full = [[0] * 5 for _ in range(5)]
    for j in range(4):
        full[j + 1][1:] = principal[j]
    full[0][rel] = 1
    full[PAIRED[rel]][0] = valency
    return full


def _planes(b1_full, b2_full) -> tuple:
    """Planes p[i][j][k] = p^k_ij from full B1 and B2; B3, B4 by transpose symmetry."""
    rng = range(5)
    identity = tuple(tuple(int(j == k) for k in rng) for j in rng)
    direct = lambda b: tuple(tuple(row) for row in b)
    mirrored = lambda b: tuple(tuple(b[PAIRED[j]][PAIRED[k]] for k in rng) for j in rng)
    return (identity, direct(b1_full), direct(b2_full), mirrored(b2_full), mirrored(b1_full))


def assemble_tensor(b1_full, b2_full, valencies) -> IntersectionTensor:
    """Full integer tensor from full B1 and B2, through the integrality gate."""
    return _integral_tensor(_planes(b1_full, b2_full), valencies)


def intersection_matrices_closed_form(p: SrgParams, cand: FissionCandidate) -> ClosedForm:
    """Exact principal parts of B1, B2 for one candidate type.

    Type III uses Gamma = m1*r*z + m2*s*c, Phi = m1*r*sqrt(yz) - m2*s*sqrt(bc)
    and Pi = m1*r*y + m2*b*s; sqrt(yz) must be rational or the candidate is
    structurally infeasible.
    """
    if p.conference:
        raise InfeasibleError("conference parameters have no rational closed form; "
                              "use the cyclotomic closed form instead")
    n, k, k2, lam, mu = p.n, p.k, p.k2, p.lam, p.mu
    r, s, t, u = p.eig_ints()
    F = Fraction

    if cand.table_type in (TYPE_I, TYPE_II):
        if cand.table_type == TYPE_II:
            r, s, t, u = s, r, u, t
        b1 = (
            (F(lam + s, 4), F(k * (k - lam - 1 - u), 4 * k2),
             F(k * (k - lam - 1 - u), 4 * k2), F(lam - 3 * s, 4)),
            (F(k - lam - 1 + u, 4), F(k - mu + r, 4),
             F(k - mu - r, 4), F(k - lam - 1 - u, 4)),
            (F(k - lam - 1 + u, 4), F(k - mu - r, 4),
             F(k - mu + r, 4), F(k - lam - 1 - u, 4)),
            (F(lam + s, 4), F(k * (k - lam - 1 + u), 4 * k2),
             F(k * (k - lam - 1 + u), 4 * k2), F(lam + s, 4)),
        )
        w = n - 2 * k + mu - 2
        b2 = (
            (F(k - lam - 1 + u, 4), F(k - mu + r, 4),
             F(k - mu - r, 4), F(k - lam - 1 - u, 4)),
            (F(k2 * (k - mu - r), 4 * k), F(w + t, 4),
             F(w - 3 * t, 4), F(k2 * (k - mu - r), 4 * k)),
            (F(k2 * (k - mu + r), 4 * k), F(w + t, 4),
             F(w + t, 4), F(k2 * (k - mu + r), 4 * k)),
            (F(k - lam - 1 - u, 4), F(k - mu + r, 4),
             F(k - mu - r, 4), F(k - lam - 1 + u, 4)),
        )
        aux = {}
    elif cand.table_type == TYPE_III:
        y, b, c, z = cand.y, cand.b, cand.c, cand.z
        syz = surd_sqrt(y * z)
        if not syz.is_rational():
            raise InfeasibleError(f"sqrt(y*z) = {syz} is irrational: no rational "
                                  "intersection numbers exist for this z")
        syz = syz.rational_value()
        sbc = Fraction(p.m1, p.m2) * syz
        gamma = p.m1 * r * z + p.m2 * s * c
        phi = p.m1 * r * syz - p.m2 * s * sbc
        pi = p.m1 * r * y + p.m2 * b * s
        nk, nk2 = n * k, n * k2
        w1 = n - 2 * k + lam
        w2 = n - 2 * k + mu
        b1 = (
            (F(nk * lam + pi, 4 * nk), F(nk2 * mu + nk + 2 * phi + pi, 4 * nk2),
             F(nk2 * mu + nk - 2 * phi + pi, 4 * nk2), F(nk * lam - 3 * pi, 4 * nk)),
            (F(nk2 * mu - nk - pi, 4 * nk), F(nk * w1 + gamma, 4 * nk2),
             F(nk * w1 - gamma + 2 * phi, 4 * nk2), F(nk + nk2 * mu - 2 * phi + pi, 4 * nk)),
            (F(nk2 * mu - nk - pi, 4 * nk), F(nk * w1 - gamma - 2 * phi, 4 * nk2),
             F(nk * w1 + gamma, 4 * nk2), F(nk + nk2 * mu + pi + 2 * phi, 4 * nk)),
            (F(nk * lam + pi, 4 * nk), F(nk2 * mu - nk - pi, 4 * nk2),
             F(nk2 * mu - nk - pi, 4 * nk2), F(nk * lam + pi, 4 * nk)),
        )
        b2 = (
            (F(nk2 * mu - nk - pi, 4 * nk), F(nk * w1 + gamma, 4 * nk2),
             F(nk * w1 - gamma + 2 * phi, 4 * nk2), F(nk + nk2 * mu - 2 * phi + pi, 4 * nk)),
            (F(nk * w1 - gamma - 2 * phi, 4 * nk), F(nk2 * w2 - gamma - 3 * nk2, 4 * nk2),
             F(nk2 * w2 + nk2 + 3 * gamma, 4 * nk2), F(nk * w1 + 2 * phi - gamma, 4 * nk)),
            (F(nk * w1 + gamma, 4 * nk), F(nk2 * w2 - gamma - 3 * nk2, 4 * nk2),
             F(nk2 * w2 - gamma - 3 * nk2, 4 * nk2), F(nk * w1 + gamma, 4 * nk)),
            (F(nk + nk2 * mu + pi + 2 * phi, 4 * nk), F(nk * w1 + gamma, 4 * nk2),
             F(nk * w1 - gamma - 2 * phi, 4 * nk2), F(nk2 * mu - nk - pi, 4 * nk)),
        )
        aux = {"gamma": gamma, "phi": phi, "pi": pi, "sqrt_yz": syz, "sqrt_bc": sbc}
    else:
        raise ValueError(f"unknown table type {cand.table_type!r}")
    return ClosedForm(b1=b1, b2=b2, k_half=k // 2, k2_half=k2 // 2, aux=aux)


# -- quick arithmetic filters --------------------------------------------------


@dataclass(frozen=True)
class FilterResult:
    passed: bool
    reasons: tuple

    def __bool__(self) -> bool:
        return self.passed


def corollary_filters(p: SrgParams, table_type: str) -> FilterResult:
    """Cheap necessary conditions for types I and II.

    Each condition is the integrality of one specific closed-form entry, so
    the filter can never reject a candidate whose full matrices are integral.
    """
    if table_type not in (TYPE_I, TYPE_II):
        raise ValueError(f"corollary filters apply to types I and II, not {table_type!r}")
    reasons = []
    try:
        r, s, t, u = p.eig_ints()
    except InfeasibleError:
        return FilterResult(False, ("eigenvalues r, s are not integers",))
    if table_type == TYPE_II:
        r, s, t, u = s, r, u, t
    k, k2, lam, mu = p.k, p.k2, p.lam, p.mu
    if (lam + s) % 4:
        reasons.append(f"lam + s = {lam + s} is not 0 mod 4")
    if (k * (k - lam - 1 + u)) % (4 * k2):
        reasons.append(f"k(k - lam - 1 + u) = {k * (k - lam - 1 + u)} "
                       f"is not 0 mod 4*k2 = {4 * k2}")
    if (k2 * (k - mu - r)) % (4 * k):
        reasons.append(f"k2(k - mu - r) = {k2 * (k - mu - r)} "
                       f"is not 0 mod 4*k = {4 * k}")
    return FilterResult(not reasons, tuple(reasons))


# -- numeric diagnostic for conference tables ---------------------------------


def conference_numeric_check(t: CharacterTable, tensor: IntersectionTensor,
                             tol: float = 1e-9) -> float:
    """Cross-check the conference tensor at 128-bit float precision.

    Purely diagnostic: returns the largest deviation found and raises
    ConsistencyError if it exceeds tol.  Exact decisions never come from
    this path.
    """
    import mpmath as mp

    with mp.workprec(128):
        sq = mp.sqrt(t.q)

        def val(e: ConferenceEntry):
            re = mp.mpf(e.a.numerator) / e.a.denominator + mp.mpf(e.b.numerator) / e.b.denominator * sq
            rad = mp.mpf(e.c.numerator) / e.c.denominator + mp.mpf(e.e.numerator) / e.e.denominator * sq
            return re + e.im_sign * 1j * mp.sqrt(rad)

        P = [[val(e) for e in row] for row in t.entries]
        worst = mp.mpf(0)
        for l in range(5):
            kl = mp.mpf(t.valencies[l].numerator) / t.valencies[l].denominator
            for i in range(5):
                for j in range(5):
                    acc = mp.mpc(0)
                    for hh in range(5):
                        m = mp.mpf(t.multiplicities[hh].numerator) / t.multiplicities[hh].denominator
                        acc += m * P[hh][i] * P[hh][j] * mp.conj(P[hh][l])
                    approx = acc / (t.n * kl)
                    dev = abs(approx - tensor[i, j, l])
                    worst = max(worst, dev)
        if worst > tol:
            raise ConsistencyError(
                f"numeric tensor deviates from exact by {float(worst)} > {tol}")
        return float(worst)
