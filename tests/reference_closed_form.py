"""Reference oracle for the srg closed forms and the type-I/II tables (tests only).

A frozen copy of the formulas the package used before types I and II were
built as type III at the ends of z's range: the type-I/II intersection
matrices, written out with an r <-> s swap for type II, the two
character-table branches, and the congruence filters that screened types
I and II before their integer forms were read at the ends of z's range.
The tests compare them with ``intersection_matrices_closed_form``,
``character_table`` and ``spectra.end_types`` on every splittable parameter
set of the three srg-like families.

``closed_form_at`` is a frozen copy of the closed form at any z before its
entries were read off integer forms: sqrt(yz) tested as a rational,
Gamma, Phi and Pi at z in Fractions, and the principal parts written out in
them.  The integer stage and ``intersection_matrices_closed_form`` are
checked against it.

``_gamma_phi_pi``, ``_principal_parts`` and ``_principal_forms`` are a
frozen copy of the integer forms as the package first read them: the
closed form's own formula evaluated at three points where Gamma, Phi and
Pi are integers.  ``entries_at``, ``closed_form_integral``, ``end_types``
and ``type3_window`` are the integer stage of that time, reading those
forms; the package's coefficient table (``spectra.EntryForms``) and its
stage (``spectra.srg_stage``) are checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from skewfiss.exactnum import ComplexSurd, surd_sqrt
from skewfiss.spectra import (PAIRED, TYPE_I, TYPE_II, TYPE_III, InfeasibleError, SrgParams,
                              make_candidate, srg_derive)


def _complete_matrix(principal, rel: int, valency: int) -> tuple:
    rows = [tuple(int(k == rel) for k in range(5))]
    rows += [(valency if j == PAIRED[rel] else 0, *row) for j, row in enumerate(principal, 1)]
    return tuple(rows)


def closed_form(p: SrgParams, table_type: str) -> tuple[tuple, tuple]:
    """Full 5x5 (B1, B2) of a type-I or type-II candidate."""
    n, k, k2, lam, mu = p.n, p.k, p.k2, p.lam, p.mu
    r, s, t, u = p.eig_ints()
    F = Fraction
    if table_type == TYPE_II:
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
        (F(k2 * (k - mu - r), 4 * k), F(w + t, 4),
         F(w - 3 * t, 4), F(k2 * (k - mu - r), 4 * k)),
        (F(k2 * (k - mu + r), 4 * k), F(w + t, 4),
         F(w + t, 4), F(k2 * (k - mu + r), 4 * k)),
    )
    b2 = (b1[1], *b2, b1[2][::-1])
    return (_complete_matrix(b1, 1, k // 2), _complete_matrix(b2, 2, k2 // 2))


def table_entries(p: SrgParams, table_type: str) -> tuple:
    """The 5x5 entries of the type-I or type-II character table."""
    r, s, t, u = (Fraction(x) for x in p.eig_ints())
    n, k, k2, m1, m2 = p.n, p.k, p.k2, p.m1, p.m2
    if table_type == TYPE_I:
        b = Fraction(n * k, m2)
        z = Fraction(n * k2, m1)
        rho = ComplexSurd(Fraction(r, 2))
        sigma = ComplexSurd(Fraction(s, 2), surd_sqrt(b) / 2)
        tau = ComplexSurd(Fraction(t, 2), surd_sqrt(z) / 2)
        omega = ComplexSurd(Fraction(u, 2))
    else:
        y = Fraction(n * k, m1)
        c = Fraction(n * k2, m2)
        rho = ComplexSurd(Fraction(r, 2), surd_sqrt(y) / 2)
        sigma = ComplexSurd(Fraction(s, 2))
        tau = ComplexSurd(Fraction(t, 2))
        omega = ComplexSurd(Fraction(u, 2), surd_sqrt(c) / 2)
    one = ComplexSurd(1)
    row0 = (one, ComplexSurd(Fraction(k, 2)), ComplexSurd(Fraction(k2, 2)),
            ComplexSurd(Fraction(k2, 2)), ComplexSurd(Fraction(k, 2)))
    cj = lambda x: x.conjugate()
    return (
        row0,
        (one, rho, tau, cj(tau), cj(rho)),
        (one, sigma, omega, cj(omega), cj(sigma)),
        (one, cj(sigma), cj(omega), omega, sigma),
        (one, cj(rho), cj(tau), tau, rho),
    )


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
    r, s, t, u = p.eig_ints()
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


def _gamma_phi_pi(p: SrgParams, z, syz, eig=None) -> tuple:
    """Gamma = m1(r-s)z + s*n*k2, Phi = m1(r-s)sqrt(yz), Pi = k(r(n*k2 - m1*z) + s*m1*z)/k2,
    which are m1*r*z + m2*s*c, m1*r*sqrt(yz) - m2*s*sqrt(bc) and m1*r*y + m2*s*b
    with (y, b, c) from the side conditions; Pi is a Fraction.  eig is
    p.eig_ints() where the caller has it already."""
    r, s, _, _ = eig or p.eig_ints()
    g1 = p.m1 * (r - s)
    return (g1 * z + s * p.n * p.k2, g1 * syz,
            Fraction(p.k * (r * (p.n * p.k2 - p.m1 * z) + s * p.m1 * z), p.k2))


def _principal_parts(p: SrgParams, gamma, phi, pi) -> tuple:
    """Principal 4x4 parts of B1 and B2 as (numerator, denominator) pairs.

    Every numerator is a constant plus an integer combination of gamma, phi
    and pi, over 4nk or 4nk2; _principal_forms passes their values at three
    points to read off coefficients.
    """
    n, k, k2, lam, mu = p.n, p.k, p.k2, p.lam, p.mu
    nk, nk2 = n * k, n * k2
    dk, dk2 = 4 * nk, 4 * nk2
    w1 = n - 2 * k + lam
    w2 = n - 2 * k + mu
    b1 = (
        ((nk * lam + pi, dk), (nk2 * mu + nk + 2 * phi + pi, dk2),
         (nk2 * mu + nk - 2 * phi + pi, dk2), (nk * lam - 3 * pi, dk)),
        ((nk2 * mu - nk - pi, dk), (nk * w1 + gamma, dk2),
         (nk * w1 - gamma + 2 * phi, dk2), (nk + nk2 * mu - 2 * phi + pi, dk)),
        ((nk2 * mu - nk - pi, dk), (nk * w1 - gamma - 2 * phi, dk2),
         (nk * w1 + gamma, dk2), (nk + nk2 * mu + pi + 2 * phi, dk)),
        ((nk * lam + pi, dk), (nk2 * mu - nk - pi, dk2),
         (nk2 * mu - nk - pi, dk2), (nk * lam + pi, dk)),
    )
    b2 = (
        ((nk * w1 - gamma - 2 * phi, dk), (nk2 * w2 - gamma - 3 * nk2, dk2),
         (nk2 * w2 + nk2 + 3 * gamma, dk2), (nk * w1 + 2 * phi - gamma, dk)),
        ((nk * w1 + gamma, dk), (nk2 * w2 - gamma - 3 * nk2, dk2),
         (nk2 * w2 - gamma - 3 * nk2, dk2), (nk * w1 + gamma, dk)),
    )
    # B2's outer rows repeat B1's: p^k_21 = p^k_12 and p^k_24 = p^k'_13
    return b1, (b1[1], *b2, b1[2][::-1])


def _principal_forms(p: SrgParams) -> list:
    """Each principal entry of B1 and B2, in _principal_parts order, as integers
    (A, B, C, M) with entry = (A + B*z + C*isqrt(x)) / M.

    Here x = k*N*z*k2*m1 with N = n*k2 - m1*z, so sqrt(yz) = isqrt(x)/(k2*m1)
    when x is a square.  Gamma, Phi and Pi are affine in z and sqrt(yz), so
    the closed form's own formula at (z, sqrt(yz)) = (0, 0), (k2, 0) and
    (0, 1), where all three are integers, fixes every entry, and the forms
    hold at rational z too (_entries_at).  They are not reduced.
    """
    k2, d, eig = p.k2, p.k2 * p.m1, p.eig_ints()

    def flat(z: int, syz: int) -> list:
        gamma, phi, pi = _gamma_phi_pi(p, z, syz, eig)
        return [pair for part in _principal_parts(p, gamma, phi, int(pi)) for row in part
                for pair in row]

    return [(a0 * k2 * d, (ak - a0) * d, (a1 - a0) * k2, den * k2 * d)
            for (a0, den), (ak, _), (a1, _) in zip(flat(0, 0), flat(k2, 0), flat(0, 1))]


@lru_cache(maxsize=None)
def _forms_of(quad: tuple) -> list:
    return _principal_forms(srg_derive(*quad))


def principal_forms(p: SrgParams) -> list:
    """_principal_forms(p), once per parameter set."""
    return _forms_of(p.quad())


def closed_form_at(p: SrgParams, z) -> tuple | None:
    """Full 5x5 (B1, B2) at z, 0 <= z <= n*k2/m1, or None when sqrt(yz) is
    irrational; y = k(n*k2 - m1*z)/(k2*m1) from the side conditions."""
    n, k, k2, m1 = p.n, p.k, p.k2, p.m1
    z = Fraction(z)
    yz = Fraction(k, k2 * m1) * (n * k2 - m1 * z) * z
    root_num, root_den = isqrt(yz.numerator), isqrt(yz.denominator)
    if root_num ** 2 != yz.numerator or root_den ** 2 != yz.denominator:
        return None
    r, s, _, _ = p.eig_ints()
    g1 = m1 * (r - s)
    gamma = g1 * z + s * n * k2
    phi = g1 * Fraction(root_num, root_den)
    pi = Fraction(k * (r * (n * k2 - m1 * z) + s * m1 * z), k2)
    b1, b2 = (tuple(tuple(Fraction(num, den) for num, den in row) for row in part)
              for part in _principal_parts(p, gamma, phi, pi))
    return (_complete_matrix(b1, 1, k // 2), _complete_matrix(b2, 2, k2 // 2))


def is_integral(matrices) -> bool:
    """Every entry of the matrices is a nonnegative integer (the gate)."""
    return all(x >= 0 and x.denominator == 1 for b in matrices for row in b for x in row)


def entries_at(p: SrgParams, z) -> list | None:
    """Each principal entry at z = zn/zd, 0 <= z <= n*k2/m1, as an integer pair
    (A*zd + B*zn + C*sqrt(X), M*zd) from its form (A, B, C, M); None when
    X = k*k2*m1*(n*k2*zd - m1*zn)*zn, which is x*zd^2, is not a square, as
    then sqrt(yz) is irrational.  X < 0 exactly when z is outside that
    range, and that is InfeasibleError."""
    zn, zd = z.as_integer_ratio()
    x = p.k * p.k2 * p.m1 * (p.n * p.k2 * zd - p.m1 * zn) * zn
    if x < 0:
        raise InfeasibleError(f"z = {z} outside [0, n*k2/m1 = {Fraction(p.n * p.k2, p.m1)}]",
                              value=z)
    root = isqrt(x)
    if root * root != x:
        return None
    return [(a * zd + b * zn + c * root, m * zd) for a, b, c, m in principal_forms(p)]


def closed_form_integral(p: SrgParams, z) -> bool:
    """The integer stage: true exactly when z is in [0, n*k2/m1] and the
    closed form at z passes the integrality gate.

    sqrt(yz) must be rational and each principal entry of entries_at a
    nonnegative integer, tested for sign and divisibility in integers;
    every other entry of the tensor is 0, 1 or a valency.  No Fraction is
    built.
    """
    try:
        entries = entries_at(p, z)
    except InfeasibleError:
        return False
    return entries is not None and all(num >= 0 and num % den == 0 for num, den in entries)


# B1's entry (2, 2), p^2_(1,2) = (A + B*z)/M: the one principal entry linear in
# z alone (C = 0), and strictly increasing (B > 0: Gamma gains m1(r-s) per unit z)
_P2_12 = 5


def end_types(p: SrgParams) -> list[str]:
    """Types I and II, in that order, whose closed form passes the integrality
    gate: closed_form_integral at their z, n*k2/m1 and 0 (make_candidate),
    where sqrt(yz) = 0."""
    return [table_type for table_type in (TYPE_I, TYPE_II)
            if closed_form_integral(p, make_candidate(p, table_type).z)]


def type3_window(p: SrgParams):
    """Integer z in (0, n*k2/m1) worth a check, in increasing order.

    The closed-form entry p^2_(1,2) = (A + B*z)/M must be a nonnegative
    integer, which pins z to one residue class mod M/gcd(B, M), stepped from
    the first z where the entry is nonnegative.  The window is not narrowed
    further here: fission_scan runs closed_form_integral on each z it yields.
    """
    a, b, _, m = principal_forms(p)[_P2_12]
    g = gcd(b, m)
    if a % g:
        return
    step = m // g
    z = max(1, -(a // b))  # the entry is nonnegative from z = ceil(-a/b) on
    z += (-a // g * pow(b // g, -1, step) - z) % step
    while p.m1 * z < p.n * p.k2:
        yield z
        z += step


def stage_candidates(p: SrgParams) -> list:
    """(table_type, z) of every candidate the stage above passes: end_types
    (z None), then the type3_window z that closed_form_integral passes."""
    return ([(t, None) for t in end_types(p)]
            + [(TYPE_III, z) for z in type3_window(p) if closed_form_integral(p, z)])
