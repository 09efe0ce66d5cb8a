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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from skewfiss.exactnum import ComplexSurd, surd_sqrt
from skewfiss.spectra import PAIRED, TYPE_I, TYPE_II, InfeasibleError, SrgParams


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


def _principal_parts(p: SrgParams, gamma, phi, pi) -> tuple:
    """Principal 4x4 parts of B1 and B2 as (numerator, denominator) pairs."""
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
    return b1, (b1[1], *b2, b1[2][::-1])


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
