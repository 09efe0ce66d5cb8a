"""Reference oracle for the srg parameter enumeration (tests only).

A frozen copy of the divisor-generation enumeration that
``feasibility._srg_sets`` replaced with one numpy sweep: for each pair of
eigenvalues r and s = -m it factorises r(r+1) and (m-1)m from a sieve of
smallest prime factors and generates the divisors mu of their product in
[max(1, m - r), min(kmax - r*m, (r+1)(m-1))], only those of r*m's parity in
splittable mode, and tests every set in Python ints.  It shares no code with
the sweep.
"""

from __future__ import annotations

from math import isqrt


def srg_sets(n_max: int, splittable: bool = False) -> list[tuple]:
    """Sorted integer tuples (n, k, lam, mu, r, s, m1, m2), or only those that
    can split: k = mu + r*m is even exactly when mu has the parity of r*m, so
    only divisors mu of that parity are drawn."""
    found = []
    kmax = max((n_max - 1) // 2, 0)
    factors = consecutive_factors(kmax)
    for m in range(2, kmax + 1):
        for r in range(1, kmax // m + 1):
            rm, x = r * m, (r + 1) * (m - 1)
            # n - 1 = rm + x + mu + rm*x/mu >= rm + x + 2*sqrt(rm*x), increasing in r
            if 1 + rm + x + 2 * isqrt(rm * x) > n_max:
                break
            # lam = mu + r - m >= 0, k <= kmax, and mu <= x is 2k <= n - 1
            for mu in divisors_between(factors[r], factors[m - 1], max(1, m - r),
                                       min(kmax - rm, x), rm % 2 if splittable else None):
                k = mu + rm
                lam = mu + r - m
                n = 1 + k + k * x // mu
                if n > n_max or splittable and n % 2 == 0:
                    continue
                s = -m
                numer = (n - 1) * m - k
                if numer % (r + m):
                    continue
                m1 = numer // (r + m)
                m2 = n - 1 - m1
                if m1 <= 0 or m2 <= 0 or m1 == m2 or splittable and m1 % 2:
                    continue
                if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2:
                    continue
                if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2:
                    continue
                found.append((n, k, lam, mu, r, s, m1, m2))
    return sorted(found)


def consecutive_factors(limit: int) -> list:
    """factors[t] = {prime: exponent} of t*(t+1) for 1 <= t <= limit."""
    spf = list(range(limit + 2))
    for q in range(2, isqrt(limit + 1) + 1):
        if spf[q] == q:
            for multiple in range(q * q, limit + 2, q):
                if spf[multiple] == multiple:
                    spf[multiple] = q
    single = [{} for _ in range(limit + 2)]
    for t in range(2, limit + 2):
        q = spf[t]
        single[t] = dict(single[t // q])
        single[t][q] = single[t].get(q, 0) + 1
    # t and t+1 are coprime, so their factorisations merge without overlap
    return [{}] + [{**single[t], **single[t + 1]} for t in range(1, limit + 1)]


def divisors_between(f1: dict, f2: dict, lo: int, hi: int, parity=None) -> list[int]:
    """Divisors d of the product of two factorisations with lo <= d <= hi, only odd
    ones for parity 1, only even ones (2 * divisors of the product / 2) for parity 0."""
    merged = dict(f1)
    for q, e in f2.items():
        merged[q] = merged.get(q, 0) + e
    if parity == 1:
        merged.pop(2, None)
    elif parity == 0:
        merged[2] -= 1
        return [2 * d for d in divisors_between(merged, {}, -(-lo // 2), hi // 2)]
    divisors = [1]
    for q, e in merged.items():
        grown = []
        for d in divisors:
            for _ in range(e):
                d *= q
                if d > hi:
                    break
                grown.append(d)
        divisors += grown
    return [d for d in divisors if lo <= d <= hi]
