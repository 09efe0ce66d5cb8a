"""Character tables and intersection/Krein tensors for 4-class skew fissions.

A 2-class symmetric scheme (a strongly regular graph) may split into a
4-class scheme whose nontrivial relations pair up with their transposes.
The 5x5 character table of such a split comes in three types (I, II and
III); types I and II are type III at the two ends of z's range, so a
candidate is its type and z, and one table builder and one closed form
serve all three.  The intersection matrices follow either from that
closed form in the graph parameters or from the eigenvalue identity

    p^l_ij = (1/(n k_l)) sum_h m_h P[h][i] P[h][j] conj(P[h][l])
    q^l_ij = (m_i m_j / n) sum_h P[i][h] P[j][h] conj(P[l][h]) / k_h^2

and the two derivations must agree exactly on every candidate.  Each is
written once: the closed form is one table of per-entry coefficients in
Gamma, Phi and Pi (_FORM_TABLE), from which EntryForms computes each
entry's integer form for one integer parameter set (n, k, lam, mu, r, s,
m1, m2) on first read; one function, _entries_at, evaluates those forms at
any z for both the closed form's matrices and the integer stage
(srg_stage: the ends test end_types, the type-III window type3_window and
closed_form_integral at each z), which reads entries in order and stops at
the first that fails; column orthogonality is the identity's
p^j_(i,0) = [i = j].

Both kinds of table run the identity as the same integer products in one
module per table, read by rows for p and transposed, by columns, for q.  A
surd table's module is the algebra spanned by all its radicands closed under
products (1, i*sqrt(x1), i*sqrt(x2), sqrt(x1*x2) on every scan table), its
integer structure tensor the products of those radicals as ComplexSurds; a
pseudocyclic (conference) table's entries carry nested radicals u+- =
sqrt((q +- g*sqrt(q))/8), and its module, spanned over Q(sqrt(q)) by 1, i*u+
and i*u-, has a 6x6x6 structure tensor per (q, g, h).  Each entry is integer
coordinates over one denominator; the five products (three matmuls, two
broadcast multiplies) each run in int64 when the bound their call site states
is below 2^63, on Python ints otherwise.  p_from_table gates the p tensor in
those integers; the closed form's tensor() tests its 125 entries one by one
in Python and names its first failure as p_from_table does.  KreinTensor
keeps the integer sums, builds a SurdSum only for a cell that is read, once
per distinct (coordinates, scale), and reads one sign per distinct
coordinate vector, so a Krein verdict builds values only for the negative
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm

import numpy as np

from .exactnum import ComplexSurd, SurdSum, _reduced, _triples, square_split, surd_sqrt
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
    # the closed form's entry forms, read by every srg decision; None when r
    # and s are irrational
    forms: EntryForms | None = field(default=None, compare=False, repr=False)

    def splittable(self) -> bool:
        """Multiplicities and valencies all even, as a 4-class split halves them."""
        return not (self.m1 % 2 or self.m2 % 2 or self.k % 2 or self.k2 % 2)

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
    disc = (lam - mu) ** 2 + 4 * (k - mu)  # > 0: 0 needs lam = mu = k, and lam < k
    w = isqrt(disc)
    if w * w == disc:
        r_i = (lam - mu + w) // 2
        s_i = (lam - mu - w) // 2
        num = (n - 1) * (-s_i) - k
        if num % (r_i - s_i):
            raise ValueError(f"non-integer multiplicities for ({n},{k},{lam},{mu})")
        m1 = num // (r_i - s_i)  # s < 0 <= r and 0 < k < n - 1 give 0 < m1 < n - 1
        return _srg_from_spectrum(n, k, lam, mu, r_i, s_i, m1, n - 1 - m1)
    # irrational eigenvalues force equal multiplicities
    if 2 * k + (n - 1) * (lam - mu) != 0 or (n - 1) % 2:
        raise ValueError(f"non-integer multiplicities for ({n},{k},{lam},{mu})")
    half = surd_sqrt(disc) / 2
    rational = SurdSum(Fraction(lam - mu, 2))
    return _srg_from_spectrum(n, k, lam, mu, rational + half, rational - half,
                              (n - 1) // 2, (n - 1) // 2)


def _srg_from_spectrum(n: int, k: int, lam: int, mu: int, r, s, m1: int,
                       m2: int, forms: EntryForms | None = None) -> SrgParams:
    """SrgParams with eigenvalues r > s (ints or SurdSums) and multiplicities
    m1, m2, taken as given: srg_derive computes and checks them first, and
    srg_candidates has them from its own enumeration.  forms: the set's
    EntryForms, where the scan's integer stage has them already."""
    if forms is None and isinstance(r, int):
        forms = EntryForms(n, k, lam, mu, r, s, m1, m2)
    r, s = SurdSum(r), SurdSum(s)
    return SrgParams(n=n, k=k, lam=lam, mu=mu, k2=n - k - 1, r=r, s=s, t=-1 - r, u=-1 - s,
                     m1=m1, m2=m2, conference=m1 == m2, forms=forms)


# -- fission candidates -------------------------------------------------------


@dataclass(frozen=True)
class FissionCandidate:
    """One putative 4-class split: its table type and the z that fixes its table.

    Type II is z = 0, type I is z = n*k2/m1 and type III any z between them.
    """

    table_type: str
    z: Fraction

    def __str__(self) -> str:
        return f"{self.table_type} z={self.z}" if self.table_type == TYPE_III else self.table_type


def make_candidate(p: SrgParams, table_type: str, z=None) -> FissionCandidate:
    """The candidate of a table type: types I and II take no z, type III its z
    strictly inside (0, n*k2/m1), where all of y, b and c are positive."""
    end = Fraction(p.n * p.k2, p.m1)
    if table_type == TYPE_III:
        if z is None:
            raise ValueError("type III requires the free parameter z")
        if not 0 < z < end:
            raise InfeasibleError(f"z = {z} outside (0, n*k2/m1 = {end})")
        return FissionCandidate(TYPE_III, Fraction(z))
    if table_type not in (TYPE_I, TYPE_II):
        raise ValueError(f"unknown table type {table_type!r}")
    if z is not None:
        raise ValueError(f"type {table_type} takes no free parameter")
    return FissionCandidate(table_type, end if table_type == TYPE_I else Fraction(0))


def type3_auxiliary(p: SrgParams, z) -> tuple[Fraction, Fraction, Fraction]:
    """(y, b, c) of a type-III z, which make_candidate checks is in range."""
    return _side_values(p, make_candidate(p, TYPE_III, z).z)


def _side_values(p: SrgParams, z: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(y, b, c) as the side conditions give them for z; they satisfy the
    balance m1^2*y*z = m2^2*b*c identically."""
    return (Fraction(p.k, p.k2 * p.m1) * (p.n * p.k2 - p.m1 * z),
            Fraction(p.m1 * p.k, p.k2 * p.m2) * z, Fraction(p.n * p.k2 - p.m1 * z, p.m2))


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
        # a rational entry (c = e = 0) has radicand 0, so only the others are checked
        if (self.c or self.e) and self.imag_radicand().sign() < 0:
            raise ValueError(f"negative radical argument {self.imag_radicand()}")

    def real_surd(self) -> SurdSum:
        return SurdSum(self.a) + self.b * surd_sqrt(self.q)

    def imag_radicand(self) -> SurdSum:
        return SurdSum(self.c) + self.e * surd_sqrt(self.q)

    def conjugate(self) -> "ConferenceEntry":
        # the radicand is unchanged, so __post_init__ need not check it again
        out = object.__new__(ConferenceEntry)
        out.__dict__.update(self.__dict__, im_sign=-self.im_sign)
        return out

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
        """A read-only serialization view of the table: one cell dict per
        distinct entry object, which every position holding that object shares."""
        distinct = {id(e): e for row in self.entries for e in row}
        if self.kind == "surd":
            # re.to_triples() and im.to_triples(), read off the signed radicands
            cells = {key: {"re": _triples([x for x in e._num.items() if x[0] > 0], e._den),
                           "im": _triples([(-n, c) for n, c in e._num.items() if n < 0], e._den)}
                     for key, e in distinct.items()}
        else:
            cells = {key: {"a": [e.a.numerator, e.a.denominator],
                           "b": [e.b.numerator, e.b.denominator],
                           "c": [e.c.numerator, e.c.denominator],
                           "e": [e.e.numerator, e.e.denominator],
                           "q": e.q, "im_sign": e.im_sign} for key, e in distinct.items()}
        return {
            "kind": self.kind,
            "n": self.n,
            "multiplicities": [[m.numerator, m.denominator] for m in self.multiplicities],
            "valencies": [[v.numerator, v.denominator] for v in self.valencies],
            "entries": [[cells[id(e)] for e in row] for row in self.entries],
        }

    def pretty(self) -> str:
        width = max(len(str(e)) for row in self.entries for e in row)
        lines = []
        for row, mult in zip(self.entries, self.multiplicities):
            cells = "  ".join(str(e).rjust(width) for e in row)
            lines.append(f"[ {cells} ]   x{mult}")
        return "\n".join(lines)


def character_table(p: SrgParams, cand: FissionCandidate) -> CharacterTable:
    """The 5x5 table for a non-conference candidate, with exact surd entries.

    rho, tau, sigma and omega have imaginary parts sqrt(y)/2, sqrt(z)/2,
    sqrt(b)/2 and -sqrt(c)/2, with (y, b, c) from the side conditions at z,
    except that type II (z = 0) takes the other root, +sqrt(c)/2, for omega
    (at type I's end c = 0).
    """
    if p.conference:
        raise InfeasibleError("conference parameters: use conference_table(q, g)")
    if not p.splittable():
        raise InfeasibleError(
            f"{p.quad()}: multiplicities and valencies must all be even to split")
    r, s, t, u = p.eig_ints()
    n, k, k2, m1, m2 = p.n, p.k, p.k2, p.m1, p.m2
    z = cand.z
    y, b, c = _side_values(p, z)
    omega_im = surd_sqrt(c) / 2
    rho = ComplexSurd(Fraction(r, 2), surd_sqrt(y) / 2)
    tau = ComplexSurd(Fraction(t, 2), surd_sqrt(z) / 2)
    sigma = ComplexSurd(Fraction(s, 2), surd_sqrt(b) / 2)
    omega = ComplexSurd(Fraction(u, 2), omega_im if z == 0 else -omega_im)
    one, half_k, half_k2 = (ComplexSurd(x) for x in (1, k // 2, k2 // 2))
    # each entry is built once: the table holds 11 distinct entry objects
    rho_bar, tau_bar, sigma_bar, omega_bar = (x.conjugate() for x in (rho, tau, sigma, omega))
    rows = (
        (one, half_k, half_k2, half_k2, half_k),
        (one, rho, tau, tau_bar, rho_bar),
        (one, sigma, omega, omega_bar, sigma_bar),
        (one, sigma_bar, omega_bar, omega, sigma),
        (one, rho_bar, tau_bar, tau, rho),
    )
    # k, k2, m1 and m2 are even; each distinct half is one Fraction, in both tuples
    unit, f1, f2, v1, v2 = Fraction(1), *(Fraction(x, 2) for x in (m1, m2, k, k2))
    mults, vals = (unit, f1, f2, f2, f1), (unit, v1, v2, v2, v1)
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
    # each conjugate is built once, so _conference_module reads six distinct entries
    rho_bar, tau_bar = rho.conjugate(), tau.conjugate()
    rows = (
        (one, fq, fq, fq, fq),
        (one, rho, tau, tau_bar, rho_bar),
        (one, tau, rho_bar, rho, tau_bar),
        (one, tau_bar, rho, rho_bar, tau),
        (one, rho_bar, tau_bar, tau, rho),
    )
    mults = tuple(Fraction(x) for x in (1, f, f, f, f))
    return CharacterTable(entries=rows, multiplicities=mults, valencies=mults,
                          n=q, kind="conference", q=q, g=g, h=h)


# -- exact integer kernel for the eigenvalue identity --------------------------

_INT64_LIMIT = 1 << 63


def _int_array(values) -> np.ndarray:
    """Nested lists of ints as int64 when every entry fits, else as Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _max_abs(a: np.ndarray) -> int:
    """max(1, max |entry|) of an integer array."""
    return max(1, -int(a.min()), int(a.max()))


def _exact(op, bound: int, *operands) -> np.ndarray:
    """op(*operands) in int64 when bound, the caller's bound on every partial product
    and sum (terms * max|a| * max|b|, each at least 1), is below 2^63, else on Python ints."""
    dtype = np.int64 if bound < _INT64_LIMIT else object
    return op(*(a.astype(dtype, copy=False) for a in operands))


def _structure_tensor(q: int, g: int, h: int) -> tuple[np.ndarray, int]:
    """(M, s) with x*y = sum_ab x_a y_b M[a, b, :] / 8 in the conference module.

    With sqrt(q) = r sqrt(s), s squarefree, an element is six coordinates
    (a0, a1, b0, b1, c0, c1) meaning
    (a0 + a1 sqrt(s)) + (b0 + b1 sqrt(s)) i u+ + (c0 + c1 sqrt(s)) i u-.
    It is a ring: (i u+-)^2 = -(q +- g r sqrt(s))/8, (i u+)(i u-) = -(h r/4) sqrt(s).
    M is values[_structure_index()], values[2f - 1 + e] being s^e times the
    f-th of (8, -q, -g r, g r, -2 h r) and values[0] = 0.
    """
    r, s = square_split(q)
    values = [0, *(x * t for x in (8, -q, -g * r, g * r, -2 * h * r) for t in (1, s))]
    return _int_array(values)[_structure_index()], s


@lru_cache(maxsize=None)
def _structure_index() -> np.ndarray:
    """Read-only index of each entry of _structure_tensor's M into its values,
    expanded once from the nine rules of the conference module."""
    # rules[x][y]: the slot of x*y (slots 1, i u+, i u-), then the f of 8 k0 and of
    # 8 k1 (0 for none), k0 + k1 sqrt(s) being the factor x*y carries there
    rules = (((0, 1, 0), (1, 1, 0), (2, 1, 0)), ((1, 1, 0), (0, 2, 3), (0, 0, 5)),
             ((2, 1, 0), (0, 0, 5), (0, 2, 4)))
    index = np.zeros((6, 6, 6), dtype=np.intp)
    for x, y, i, j, l in product(range(3), range(3), (0, 1), (0, 1), (0, 1)):
        z, *k = rules[x][y]
        if k[l]:  # 8 k_l sqrt(s)^(i + j + l)
            index[2 * x + i, 2 * y + j, 2 * z + (i + j + l) % 2] = 2 * k[l] - 1 + (i + j + l) // 2
    index.setflags(write=False)
    return index


def _conference_module(t: CharacterTable) -> tuple:
    """(E, M, den, keys) of a conference table: entry (h, i) as the six
    integers E[h, i] over one denominator D, den = 64 D^3 (M counts eighths)
    and keys (1, s), the radicands of the two real coordinates.  E is read
    from the fields' integer numerators and denominators, once per distinct
    entry object."""
    M, s = _structure_tensor(t.q, t.g, t.h)
    r = square_split(t.q)[0]
    cells = [e for row in t.entries for e in row]
    distinct = {id(e): e for e in cells}
    D = lcm(*(x.denominator for e in distinct.values() for x in (e.a, e.b)))
    # (c, e) of i*u+ and i*u-: (q/8, g/8) and (q/8, -g/8), as integer ratios
    slots = {(*Fraction(t.q, 8).as_integer_ratio(), *Fraction(sg * t.g, 8).as_integer_ratio()):
             x for sg, x in ((1, 2), (-1, 4))}
    coords = {}
    for key, e in distinct.items():
        row = [e.a.numerator * (D // e.a.denominator),
               e.b.numerator * r * (D // e.b.denominator), 0, 0, 0, 0]
        radical = (e.c.numerator, e.c.denominator, e.e.numerator, e.e.denominator)
        if radical != (0, 1, 0, 1):
            if radical not in slots:
                raise ValueError(f"entry radical ({e.c}, {e.e}) outside the (q,g) algebra")
            row[slots[radical]] = e.im_sign * D
        coords[key] = row
    E = _int_array([coords[id(e)] for e in cells]).reshape(len(t.entries), -1, 6)
    return E, M, 64 * D ** 3, (1, s)


def _surd_module(entries) -> tuple:
    """(E, M, den, keys) of a table of ComplexSurd entries[h][i].

    The table lies in the algebra spanned by all its radicands closed under
    products (2 or 4 radicals on every scan table, at most 8), so one
    module serves its rows and its columns.  The basis is that closure,
    real radicands (keys) first, 1 the first of them; M[a, b, :] is the
    ComplexSurd product of radicals a and b.  E[h, i] are the numerators of
    entry (h, i) over D, the lcm of the denominators; den = D^3.
    """
    unit = lambda key: _reduced({key: 1}, 1, ComplexSurd)
    basis = list(dict.fromkeys([1, *(key for row in entries for e in row for key in e._num)]))
    products = {}
    for x, a in enumerate(basis):  # basis grows while this runs
        for b in basis[:x + 1]:
            products[a, b] = products[b, a] = (unit(a) * unit(b))._num.popitem()
            if products[a, b][0] not in basis:
                basis.append(products[a, b][0])
    basis.sort(key=lambda key: key < 0)
    slot = {key: x for x, key in enumerate(basis)}
    M = [[[0] * len(basis) for _ in basis] for _ in basis]
    for (a, b), (c, g) in products.items():
        M[slot[a]][slot[b]][slot[c]] = g
    D = lcm(*(e._den for row in entries for e in row))
    E = [[[e._num.get(key, 0) * (D // e._den) for key in basis] for e in row] for row in entries]
    return _int_array(E), _int_array(M), D ** 3, [key for key in basis if key > 0]


def _module(t: CharacterTable) -> tuple:
    """(E, L, den, keys, maxima) of a table of either kind: E[h, i] entry (h, i)
    in _conference_module's or _surd_module's coordinates, L[x, h, j] =
    sum_b E_x[h, j, b] M[:, b, :] the multiplication matrices of E_0 = E and of
    its conjugate E_1, maxima the max |entry| of E, L[0], L[1].  Transposing E
    and L reads the columns in the same module."""
    E, M, den, keys = (_conference_module(t) if t.kind == "conference"
                       else _surd_module(t.entries))
    dim = E.shape[-1]
    both = np.stack((E, E * np.array([1] * len(keys) + [-1] * (dim - len(keys)))))
    L = _exact(np.matmul, dim * _max_abs(E) * _max_abs(M), both,
               M.transpose(1, 0, 2).reshape(dim, dim * dim)).reshape(*both.shape, dim)
    return E, L, den, keys, (_max_abs(E), _max_abs(L[0]), _max_abs(L[1]))


# (the last table, its _module), swapped as one tuple: p and q of one table
# build the module once, and no table keeps it alive after that
_last_module = [(None, None)]


def _identity_sums(t: CharacterTable, weights, columns=False):
    """(S, den, keys) with sum_h w_h E[h][i] E[h][j] conj(E[h][l]) equal to
    sum_a S[i, j, l, a] sqrt(keys[a]) / den, for either kind of table; S is
    an int64 array, or Python ints where int64 would not be exact.

    E[h, i] = P[h][i], or P[i][h] with columns=True (the table's one module
    transposed).  X[h, i] = w_h E[h, i], weights scaled to integers, then one
    matmul each: W[h, i, j] = X[h, i] E[h, j] batched over h, and S[i, j, l] =
    sum_h W[h, i, j] conj(E[h, l]).  ConsistencyError names the first (i, j, l) not real."""
    last, module = _last_module[0]
    if last is not t:
        module = _module(t)
        _last_module[0] = t, module
    E, L, den, keys, maxima = module
    if columns:
        E, L = E.transpose(1, 0, 2), L.transpose(0, 2, 1, 3, 4)
    scale = lcm(*(w.denominator for w in weights))
    w = [x.numerator * (scale // x.denominator) for x in weights]
    d, _, dim = E.shape
    by_h = lambda A: A.transpose(0, 2, 1, 3).reshape(d, dim, d * dim)  # A[h, a, (j, c)]
    X = _exact(np.multiply, max(map(abs, w)) * maxima[0], _int_array(w)[:, None, None], E)
    W = _exact(np.matmul, dim * _max_abs(X) * maxima[1], X, by_h(L[0])).reshape(d, d, d, dim)
    S = _exact(np.matmul, d * dim * _max_abs(W) * maxima[2],  # sums h and a together
               W.transpose(1, 2, 0, 3).reshape(d * d, -1), by_h(L[1]).reshape(d * dim, -1))
    S = S.reshape(d, d, d, dim)
    den *= scale
    imaginary = S[..., len(keys):].any(axis=-1)
    if imaginary.any():
        i, j, l = np.argwhere(imaginary)[0].tolist()
        raise ConsistencyError(f"tensor entry ({i},{j},{l}) has nonzero imaginary part: "
                               f"coordinates {S[i, j, l].tolist()} over {den}")
    return S[..., :len(keys)], den, keys


def _surd(x: list, keys, num: int, den: int = 1) -> SurdSum:
    """sum_a x[a] sqrt(keys[a]) * den / num for positive ints num and den,
    which need not be coprime."""
    return _reduced({k: c * den for k, c in zip(keys, x) if c}, num)


def check_orthogonality(t: CharacterTable) -> None:
    """Column orthogonality sum_h m_h P[h][i] conj(P[h][j]) = n k_i [i=j], exactly:
    column 0 of P is all ones, so that sum is n k_j p^j_(i,0) in the eigenvalue
    identity, and orthogonality is p^j_(i,0) = [i = j], the only cells read."""
    values = _p_values(t)
    for i, j in product(range(len(t.valencies)), repeat=2):
        if values[i, 0, j] != int(i == j):
            raise ConsistencyError(
                f"orthogonality fails at columns ({i},{j}): p^{j}_({i},0) = {values[i, 0, j]}")


def _p_values(t: CharacterTable) -> KreinTensor:
    """The eigenvalue-identity values p^l_ij, each built when it is read."""
    S, den, keys = _identity_sums(t, t.multiplicities)
    scales = [(den * t.n * k.numerator, k.denominator) for k in t.valencies]
    return KreinTensor(S, keys, scales * len(scales) ** 2, lambda x, c: _surd(x, keys, *c))


def p_values_from_table(t: CharacterTable) -> tuple:
    """Eigenvalue-identity values p^l_ij as exact SurdSums, no integrality gate."""
    return _p_values(t).q


def p_from_table(t: CharacterTable) -> IntersectionTensor:
    """Intersection tensor from the eigenvalue identity; exact.

    p^l_ij is a nonnegative integer exactly when its sqrt coordinates are 0
    and its rational one a nonnegative multiple of den*n*k_l, tested at once
    in integers; only the first (i, j, l) that fails, in lexicographic order,
    is read out, as a SurdSum for InfeasibleError: such a table belongs to no scheme."""
    S, den, keys = _identity_sums(t, t.multiplicities)
    scales = [(den * t.n * k.numerator, k.denominator) for k in t.valencies]
    dens, div = _int_array([d for _, d in scales]), _int_array([n for n, _ in scales])
    num = _exact(np.multiply, _max_abs(S[..., 0]) * _max_abs(dens), S[..., 0], dens)
    bad = np.argwhere((num < 0) | (num % div != 0) | (S[..., 1:] != 0).any(axis=-1))
    if len(bad):
        i, j, l = bad[0].tolist()
        x = _surd(S[i, j, l].tolist(), keys, *scales[l])
        raise InfeasibleError(f"p^{l}_({i},{j}) = {x} is not a nonnegative integer",
                              where=(i, j, l), value=x)
    return IntersectionTensor(p=tuple(tuple(map(tuple, plane)) for plane in (num // div).tolist()),
                              valencies=tuple(int(v) for v in t.valencies))


class KreinTensor:
    """q^l_ij of a table as exact real SurdSums, q[i][j][l]: cell (i, j, l) is
    value(x, c) of its integer coordinates x over sqrt(keys) (_identity_sums)
    and a key c of a positive scale, built when read, once per distinct (x, c);
    cells of equal value hold one object.  p_values_from_table reads p alike."""

    def __init__(self, S: np.ndarray, keys, scales: list, value):
        self._d, self._keys, self._value = S.shape[0], keys, value
        self._memo, self._values, self._signs = {}, {}, {}
        self._cells = list(zip(map(tuple, S.reshape(len(scales), -1).tolist()), scales))

    def _cell(self, idx) -> tuple:
        i, j, l = (range(self._d)[x] for x in idx)  # IndexError, or wrapped per axis
        return self._cells[(i * self._d + j) * self._d + l]

    def _sign(self, x: tuple) -> int:
        if x not in self._signs:
            self._signs[x] = _surd(x, self._keys, 1).sign()
        return self._signs[x]

    def sign(self, idx) -> int:
        """The sign (-1, 0 or 1) of cell idx = (i, j, l), read once per coordinate vector."""
        return self._sign(self._cell(idx)[0])

    def __getitem__(self, idx) -> SurdSum:
        key = self._cell(idx)
        if key not in self._memo:
            v = self._value(*key)
            self._memo[key] = self._values.setdefault(v, v)
        return self._memo[key]

    @property
    def q(self) -> tuple:
        rng = range(self._d)
        return tuple(tuple(tuple(self[i, j, l] for l in rng) for j in rng) for i in rng)

    def negatives(self) -> list[tuple[tuple[int, int, int], SurdSum]]:
        """All (l, i, j) with q^l_ij < 0 by sign(), in lexicographic order of (l, i, j)."""
        d = self._d
        cells = sorted((c % d, c // (d * d), c // d % d)
                       for c, (x, _) in enumerate(self._cells) if self._sign(x) < 0)
        return [((l, i, j), self[i, j, l]) for l, i, j in cells]


def q_from_table(t: CharacterTable) -> KreinTensor:
    """Krein numbers from the eigenvalue identity; negativity is a result.
    Cell (i, j, l) keys on m_i m_j as the integer pair (a_i a_j, b_i b_j), where
    m_i = a_i/b_i in lowest terms."""
    S, den, keys = _identity_sums(t, [Fraction(k.denominator ** 2, k.numerator ** 2)
                                      for k in t.valencies], columns=True)
    if t.kind == "conference":
        value = lambda x, c: _surd(x, keys, den * t.n * c[1], c[0])
    else:
        value = lambda x, c: _surd(x, keys, den) * Fraction(c[0], c[1] * t.n)
    ratios = [x.as_integer_ratio() for x in t.multiplicities]
    pairs = [(ai * aj, bi * bj) for ai, bi in ratios for aj, bj in ratios]
    return KreinTensor(S, keys, [c for c in pairs for _ in ratios], value)


# -- closed-form intersection matrices ---------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form B1 and B2 of one family, full 5x5 (ints or exact Fractions).

    b_i[j][k] = p^k_ij.  B3 and B4 are B2 and B1 mirrored through PAIRED
    (p^k_ij = p^{k'}_{j'i'}), so ``planes()`` is the one completion of the
    5x5x5 tensor and ``tensor()`` gates its entries one by one.
    """

    b1: tuple
    b2: tuple
    valencies: tuple

    def planes(self) -> tuple:
        """Planes p[i][j][k] = p^k_ij: identity, B1, B2, then B2 and B1 mirrored."""
        rng = range(5)
        identity = tuple(tuple(int(j == k) for k in rng) for j in rng)
        mirrored = lambda b: tuple(tuple(b[PAIRED[j]][PAIRED[k]] for k in rng) for j in rng)
        return (identity, self.b1, self.b2, mirrored(self.b2), mirrored(self.b1))

    def tensor(self) -> IntersectionTensor:
        """The completed planes as an integer tensor; InfeasibleError names the
        first (i, j, l), in lexicographic order, whose entry is not a nonnegative integer."""
        planes = self.planes()
        for i, plane in enumerate(planes):
            for j, row in enumerate(plane):
                for l, x in enumerate(row):
                    if type(x) is not int or x < 0:
                        num, den = x.as_integer_ratio()
                        if den != 1 or num < 0:
                            raise InfeasibleError(f"p^{l}_({i},{j}) = {x} is not a nonnegative "
                                                  "integer", where=(i, j, l), value=x)
        return IntersectionTensor(p=tuple(tuple(tuple(map(int, r)) for r in p) for p in planes),
                                  valencies=tuple(int(v) for v in self.valencies))


def _complete_matrix(principal, rel: int, valency: int) -> tuple:
    """Add row 0 (p^k_{i0} = [k = i]) and column 0 (p^0_{ij} = k_i [j = i'])."""
    rows = [tuple(int(k == rel) for k in range(5))]
    rows += [(valency if j == PAIRED[rel] else 0, *row) for j, row in enumerate(principal, 1)]
    return tuple(rows)


def intersection_matrices_closed_form(p: SrgParams, cand: FissionCandidate) -> ClosedForm:
    """Exact B1, B2 for one candidate type, completed from their principal parts.

    One formula serves all three types: the principal entries are the
    integer pairs of _entries_at on p.forms at the candidate's z (at the
    ends of z's range, types I and II, sqrt(yz) = 0).  sqrt(yz) must be
    rational or the candidate is structurally infeasible.
    """
    if p.conference:
        raise InfeasibleError("conference parameters have no rational closed form; "
                              "use the cyclotomic closed form instead")
    entries = _entries_at(p.forms, cand.z)
    if entries is None:
        raise InfeasibleError(f"sqrt(y*z) is irrational at z = {cand.z}: no rational "
                              "intersection numbers exist for this z")
    entries = [a // b if a % b == 0 else Fraction(a, b) for a, b in entries]
    rows = [tuple(entries[i:i + 4]) for i in range(0, 32, 4)]
    b1, b2 = tuple(rows[:4]), tuple(rows[4:])
    valencies = (1, p.k // 2, p.k2 // 2, p.k2 // 2, p.k // 2)
    return ClosedForm(b1=_complete_matrix(b1, 1, valencies[1]),
                      b2=_complete_matrix(b2, 2, valencies[2]), valencies=valencies)


# The closed form's 32 principal entries, B1's 4x4 then B2's, row by row: entry
# (c, g, f, p, d) is (K_c + g*Gamma + f*Phi + p*Pi) / (4*n*k, 4*n*k2)[d], where
# K = (nk*lam, nk2*mu + nk, nk2*mu - nk, nk*w1, nk2*(w2 - 3), nk2*(w2 + 1)) with
# w1 = n - 2k + lam, w2 = n - 2k + mu, and Gamma = m1(r-s)z + s*n*k2,
# Phi = m1(r-s)sqrt(yz), Pi = k(r(n*k2 - m1*z) + s*m1*z)/k2, which are
# m1*r*z + m2*s*c, m1*r*sqrt(yz) - m2*s*sqrt(bc) and m1*r*y + m2*s*b with (y, b, c)
# from the side conditions.  B2's outer rows repeat B1's (p^k_21 = p^k_12 and
# p^k_24 = p^k'_13).
_FORM_TABLE = (
    (0, 0, 0, 1, 0), (1, 0, 2, 1, 1), (1, 0, -2, 1, 1), (0, 0, 0, -3, 0),
    (2, 0, 0, -1, 0), (3, 1, 0, 0, 1), (3, -1, 2, 0, 1), (1, 0, -2, 1, 0),
    (2, 0, 0, -1, 0), (3, -1, -2, 0, 1), (3, 1, 0, 0, 1), (1, 0, 2, 1, 0),
    (0, 0, 0, 1, 0), (2, 0, 0, -1, 1), (2, 0, 0, -1, 1), (0, 0, 0, 1, 0),
    (2, 0, 0, -1, 0), (3, 1, 0, 0, 1), (3, -1, 2, 0, 1), (1, 0, -2, 1, 0),
    (3, -1, -2, 0, 0), (4, -1, 0, 0, 1), (5, 3, 0, 0, 1), (3, -1, 2, 0, 0),
    (3, 1, 0, 0, 0), (4, -1, 0, 0, 1), (4, -1, 0, 0, 1), (3, 1, 0, 0, 0),
    (1, 0, 2, 1, 0), (3, 1, 0, 0, 1), (3, -1, -2, 0, 1), (2, 0, 0, -1, 0),
)


class EntryForms:
    """The principal entries of B1 and B2, in _FORM_TABLE order, of one integer
    parameter set (n, k, lam, mu, r, s, m1, m2), each as integers (A, B, C, M)
    with entry = (A + B*z + C*isqrt(x)) / M.

    Here x = k*N*z*k2*m1 with N = n*k2 - m1*z, so sqrt(yz) = isqrt(x)/(k2*m1)
    when x is a square.  Gamma, Phi and Pi are affine in z and sqrt(yz), so a
    form is its _FORM_TABLE row applied to their values and slopes, over
    M = 4*n*k_d*k2^2*m1; it holds at rational z too and is not reduced.
    forms[e] computes entry e on first read and keeps it, so the integer
    stage reads only the entries it tests; iterating reads all 32.  _stage
    keeps srg_stage's candidates from its one run.
    """

    __slots__ = ("n", "k", "k2", "m1", "_consts", "_slopes", "_dens", "_forms", "_stage")

    def __init__(self, n: int, k: int, lam: int, mu: int, r: int, s: int, m1: int, m2: int):
        k2 = n - k - 1
        nk, nk2, g1, d = n * k, n * k2, m1 * (r - s), k2 * m1
        self.n, self.k, self.k2, self.m1 = n, k, k2, m1
        w1, w2 = n - 2 * k + lam, n - 2 * k + mu
        self._consts = (nk * lam, nk2 * mu + nk, nk2 * mu - nk, nk * w1, nk2 * (w2 - 3),
                        nk2 * (w2 + 1))
        # over M = den*k2*d: Gamma and Pi at z = 0 and their scale k2*d, then the
        # slopes, times k2*d, of Gamma and -Pi in z and of Phi in isqrt(x)
        self._slopes = (s * nk2, k * r * n, k2 * d, g1 * k2 * d, g1 * k * d, g1 * k2)
        self._dens = (4 * nk * k2 * d, 4 * nk2 * k2 * d)
        self._forms = [None] * len(_FORM_TABLE)
        self._stage = None

    def __getitem__(self, e: int) -> tuple:
        form = self._forms[e]
        if form is None:
            form = self._forms[e] = self._form(e)
        return form

    def _form(self, e: int) -> tuple:
        c, g, f, p, d = _FORM_TABLE[e]
        gamma0, pi0, scale, gamma_z, pi_z, phi = self._slopes
        return ((self._consts[c] + g * gamma0 + p * pi0) * scale, g * gamma_z - p * pi_z,
                f * phi, self._dens[d])


def _entries_at(f: EntryForms, z):
    """Each principal entry at z = zn/zd, 0 <= z <= n*k2/m1, as an integer pair
    (A*zd + B*zn + C*sqrt(X), M*zd) from its form (A, B, C, M), read lazily in
    order; None when X = k*k2*m1*(n*k2*zd - m1*zn)*zn, which is x*zd^2, is not
    a square, as then sqrt(yz) is irrational.  X < 0 exactly when z is
    outside that range, and that is InfeasibleError."""
    zn, zd = z.as_integer_ratio()
    x = f.k * f.k2 * f.m1 * (f.n * f.k2 * zd - f.m1 * zn) * zn
    if x < 0:
        raise InfeasibleError(f"z = {z} outside [0, n*k2/m1 = {Fraction(f.n * f.k2, f.m1)}]",
                              value=z)
    root = isqrt(x)
    if root * root != x:
        return None
    return ((a * zd + b * zn + c * root, m * zd) for a, b, c, m in f)


def closed_form_integral(f: EntryForms, z) -> bool:
    """The integer stage at one z: true exactly when z is in [0, n*k2/m1] and
    the closed form at z passes the integrality gate.

    sqrt(yz) must be rational and each principal entry of _entries_at a
    nonnegative integer, tested for sign and divisibility in integers, in
    order up to the first that fails; every other entry of the tensor is 0,
    1 or a valency.  No Fraction is built.
    """
    try:
        entries = _entries_at(f, z)
    except InfeasibleError:
        return False
    return entries is not None and all(num >= 0 and num % den == 0 for num, den in entries)


# B1's entry (2, 2), p^2_(1,2) = (A + B*z)/M: the one principal entry linear in
# z alone (C = 0), and strictly increasing (B > 0: Gamma gains m1(r-s) per unit z)
_P2_12 = 5


def end_types(f: EntryForms) -> list[str]:
    """Types I and II, in that order, whose closed form passes the integrality
    gate: the test of closed_form_integral at their z = zn/zd, n*k2/m1 and 0,
    where sqrt(yz) = 0, so each entry is the integer pair (A*zd + B*zn, M*zd)."""
    ends = ((TYPE_I, f.n * f.k2, f.m1), (TYPE_II, 0, 1))
    return [table_type for table_type, zn, zd in ends
            if all(a * zd + b * zn >= 0 and (a * zd + b * zn) % (m * zd) == 0 for a, b, _, m in f)]


def type3_window(f: EntryForms):
    """Integer z in (0, n*k2/m1) worth a check, in increasing order.

    The closed-form entry p^2_(1,2) = (A + B*z)/M must be a nonnegative
    integer, which pins z to one residue class mod M/gcd(B, M), stepped from
    the first z where the entry is nonnegative.  The window is not narrowed
    further here: srg_stage runs closed_form_integral on each z it yields.
    """
    a, b, _, m = f[_P2_12]
    g = gcd(b, m)
    if a % g:
        return
    step = m // g
    z = max(1, -(a // b))  # the entry is nonnegative from z = ceil(-a/b) on
    z += (-a // g * pow(b // g, -1, step) - z) % step
    while f.m1 * z < f.n * f.k2:
        yield z
        z += step


def srg_stage(f: EntryForms) -> tuple:
    """The integer stage of one parameter set: (table_type, z) of each candidate
    whose closed form passes the integrality gate, types I and II (z None)
    from end_types, then the type3_window z that closed_form_integral
    passes, in increasing order.  The stage runs once per EntryForms and f
    keeps its candidates, so the scan's test for a candidate and
    fission_scan's records read the same run."""
    if f._stage is None:
        f._stage = tuple((table_type, None) for table_type in end_types(f)) + tuple(
            (TYPE_III, z) for z in type3_window(f) if closed_form_integral(f, z))
    return f._stage


def _solve_type3_z(p: SrgParams, planes) -> FissionCandidate | None:
    """The candidate whose p^2_(1,2) is planes[1][2][2], or None when that z is
    outside [0, n*k2/m1]; 0 is type II, n*k2/m1 type I and every z between
    them type III."""
    a, b, _, m = p.forms[_P2_12]
    z, end = Fraction(m * planes[1][2][2] - a, b), Fraction(p.n * p.k2, p.m1)
    if not 0 <= z <= end:
        return None
    return FissionCandidate(TYPE_II if z == 0 else TYPE_I if z == end else TYPE_III, z)
