"""Parameter scanners and classification for 4-class skew-symmetric splits.

Four families cover all symmetrizations: pseudocyclic/conference graphs,
ordinary strongly regular graphs, imprimitive (clique-blown-up) graphs and
the 2-subset intersection family.  All four scanners emit ScanRecords whose
feasible and Krein-excluded entries have passed the dual-derivation check:
closed-form intersection matrices (the cyclotomic ones for conference
graphs) equal to the eigenvalue-identity tensor, entry by entry, in exact
arithmetic.  Each record then gets its exact Krein verdict from one helper,
_krein_verdict.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from multiprocessing import Pool

from .constructions import (
    cyc4_closed_form,
    johnson2_params,
    prime_power,
    two_squares,
)
from .exactnum import SurdSum
from .scheme_core import AssociationScheme, IntersectionTensor, verify_axioms, is_skew_symmetric
from .spectra import (
    TYPE_I,
    TYPE_II,
    TYPE_III,
    CharacterTable,
    ConsistencyError,
    FissionCandidate,
    InfeasibleError,
    SrgParams,
    assemble_tensor,
    character_table,
    conference_table,
    corollary_filters,
    intersection_matrices_closed_form,
    make_candidate,
    p_from_table,
    p_values_from_table,
    q_from_table,
    srg_derive,
)

FEASIBLE = "feasible"
KREIN_EXCLUDED = "krein_excluded"
INTEGRALITY_EXCLUDED = "integrality_excluded"

_TYPE_ORDER = {TYPE_I: 0, TYPE_II: 1, TYPE_III: 2, None: -1}


@dataclass
class ScanRecord:
    """One scanned candidate: family, identifying parameters, and verdict."""

    family: str
    n: int
    params: dict
    table_type: str | None = None
    z: int | None = None
    status: str = FEASIBLE
    realizable: str = "?"
    notes: str = ""
    krein_index: tuple | None = None
    krein_value: SurdSum | None = None
    table: CharacterTable | None = None

    def sort_key(self):
        p = self.params
        if self.family == "conference":
            return (self.n, -p["g"])
        if self.family == "imprimitive":
            return (self.n, p["f"])
        if self.family == "johnson":
            return (p["v"], _TYPE_ORDER.get(self.table_type, -1), self.z or -1)
        return (self.n, p.get("k", 0), p.get("lam", 0),
                _TYPE_ORDER.get(self.table_type, -1), self.z or -1)

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "params": dict(self.params),
            "table_type": self.table_type,
            "z": self.z,
            "status": self.status,
            "realizable": self.realizable,
            "notes": self.notes,
        }
        if self.krein_index is not None:
            out["krein_index"] = list(self.krein_index)
            out["krein_value"] = self.krein_value.to_triples()
            out["krein_value_approx"] = float(self.krein_value)
        if self.table is not None:
            out["character_table"] = self.table.to_json_dict()
        return out


# -- conference / pseudocyclic scan -------------------------------------------


def conference_scan(n_max: int) -> list[ScanRecord]:
    """Feasible pseudocyclic splits on up to n_max points.

    One record per two-squares representation of each q = 5 mod 8, marked
    realizable when q is a prime power coprime to g (the cyclotomic
    construction then provides the scheme).  Every record is re-derived
    through the eigenvalue identity, which must reproduce the cyclotomic
    closed form for one sign of h (kept as realized_h), and its Krein
    numbers are sign-checked exactly.
    """
    records = []
    for q in range(5, n_max + 1, 8):
        pp = prime_power(q)
        for ts in two_squares(q):
            table = conference_table(q, ts.g)
            realized = _realized_h(q, ts.g, ts.h, p_from_table(table).p)
            if realized is None:
                raise ConsistencyError(
                    f"conference table (q={q}, g={ts.g}) tensor matches neither sign of h")
            rec = ScanRecord(family="conference", n=q,
                             params={"q": q, "g": ts.g, "h": ts.h, "realized_h": realized},
                             realizable="+" if pp is not None and gcd(ts.g, q) == 1 else "?")
            records.append(_krein_verdict(rec, table))
    records.sort(key=ScanRecord.sort_key)
    return records


def _realized_h(q: int, g: int, h: int, planes) -> int | None:
    """The sign of h whose cyclotomic closed form has these intersection planes."""
    f = (q - 1) // 4
    for hh in (h, -h):
        cf = cyc4_closed_form(q, g, hh)
        if planes == assemble_tensor(cf.b1, cf.b2, (1, f, f, f, f)).p:
            return hh
    return None


def _krein_verdict(rec: ScanRecord, table: CharacterTable, witness=None) -> ScanRecord:
    """Attach the table and mark rec Krein-excluded by its first negative q^l_ij.

    witness = (l, i, j) names the entry to report instead, and raises
    ConsistencyError unless that entry is negative.
    """
    krein = q_from_table(table)
    if witness is None:
        negatives = krein.negatives()
    else:
        l, i, j = witness
        value = krein[i, j, l]
        if value.sign() >= 0:
            raise ConsistencyError(
                f"n = {rec.n}, z = {rec.z}: q^{l}_({i},{j}) = {value} is not negative")
        negatives = [(witness, value)]
    if negatives:
        (l, i, j), value = negatives[0]
        rec.status = KREIN_EXCLUDED
        rec.krein_index, rec.krein_value = (l, i, j), value
        rec.notes = f"q^{l}_({i},{j}) = {value} < 0"
    rec.table = table
    return rec


# -- strongly regular graph scan ------------------------------------------------


def srg_candidates(n_max: int):
    """All arithmetically feasible non-conference parameter sets, k <= (n-1)/2.

    Filters: the counting identity, integral eigenvalues, positive integral
    multiplicities, and the two classical Krein inequalities of the 2-class
    scheme.  Disconnected (mu = 0) and complete multipartite (mu = k)
    parameters belong to the imprimitive family and are excluded here.
    """
    if n_max > 5000:
        raise ValueError("scan capped at n_max = 5000")
    found = []
    kmax = (n_max - 1) // 2
    for m in range(1, kmax + 1):
        for r in range(1, kmax // m + 1):
            for mu in range(1, kmax - r * m + 1):
                k = mu + r * m
                lam = mu + r - m
                if lam < 0:
                    continue
                num = k * (k - lam - 1)
                if num % mu:
                    continue
                n = 1 + k + num // mu
                if n > n_max or 2 * k > n - 1:
                    continue
                s = -m
                numer = (n - 1) * m - k
                if numer % (r + m):
                    continue
                m1 = numer // (r + m)
                m2 = n - 1 - m1
                if m1 <= 0 or m2 <= 0 or m1 == m2:
                    continue
                if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2:
                    continue
                if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2:
                    continue
                found.append((n, k, lam, mu))
    found.sort()
    for quad in found:
        yield srg_derive(*quad)


def _type3_z_candidates(p: SrgParams):
    """Integer z in (0, n*k2/m1) worth a full check.

    The closed-form entry (n k (n-2k+lam) + Gamma)/(4 n k2) is linear in z
    and must be a nonnegative integer, which pins z to one residue class
    per integer value of that entry; everything else is skipped unseen.
    """
    n, k, k2, m1 = p.n, p.k, p.k2, p.m1
    r, s, _, _ = p.eig_ints()
    base = n * k * (n - 2 * k + p.lam)
    den = 4 * n * k2
    lo = base + s * n * k2
    hi = base + r * n * k2
    jlo = max(0, -((-lo) // den))
    jhi = hi // den
    step = (r - s) * m1
    for j in range(jlo, jhi + 1):
        numz = den * j - base - s * n * k2
        if numz <= 0 or numz % step:
            continue
        z = numz // step
        if 0 < m1 * z < n * k2:
            yield z


def _dual_derivation_record(p: SrgParams, cand: FissionCandidate, closed_form,
                            witness=None) -> ScanRecord:
    """Eq-(1) round trip against the closed forms, then exact Krein signs.

    Integral closed forms must equal the eigenvalue-identity tensor.  A
    closed form that fails the integrality gate is reported only with a
    Krein witness; its rational entries must then equal the identity's
    values, and the note names the first non-integral entry.
    """
    table = character_table(p, cand)
    try:
        tensor_cf = closed_form.tensor()
    except InfeasibleError as exc:
        if witness is None:
            raise
        non_integral = exc
        if p_values_from_table(table) != closed_form.rational_tensor():
            raise ConsistencyError(
                f"{p.quad()} type {cand}: rational closed-form tensor differs "
                "from the eigenvalue-identity values")
    else:
        non_integral = None
        try:
            tensor_eq = p_from_table(table)
        except InfeasibleError as exc:
            raise ConsistencyError(
                f"{p.quad()} type {cand}: closed forms are integral but the "
                f"eigenvalue identity is not: {exc}") from exc
        if tensor_eq != tensor_cf:
            raise ConsistencyError(
                f"{p.quad()} type {cand}: eigenvalue-identity tensor differs "
                "from the closed-form matrices")
    rec = ScanRecord(
        family="srg", n=p.n,
        params={"k": p.k, "lam": p.lam, "mu": p.mu,
                "r": p.r.as_integer(), "s": p.s.as_integer(),
                "m1": p.m1, "m2": p.m2},
        table_type=cand.table_type,
        z=None if cand.z is None else int(cand.z))
    _krein_verdict(rec, table, witness)
    if non_integral is not None:
        i, j, l = non_integral.where
        rec.notes += (f"; intersection numbers also non-integral "
                      f"(p^{l}_({i},{j}) = {non_integral.value})")
    return rec


def fission_scan(p: SrgParams) -> list[ScanRecord]:
    """All split candidates over one non-conference parameter set.

    Types I and II pass the quick congruence filters before their closed
    forms are checked; type III enumerates integer z.  Candidates reaching
    full integrality are emitted as feasible or krein_excluded; everything
    else is dropped silently.
    """
    if p.conference:
        raise ValueError("fission_scan needs non-conference parameters")
    records = []
    if p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2:
        return records
    for table_type in (TYPE_I, TYPE_II):
        if not corollary_filters(p, table_type):
            continue
        cand = make_candidate(p, table_type)
        cf = intersection_matrices_closed_form(p, cand)
        if not cf.all_nonneg_integers():
            continue
        records.append(_dual_derivation_record(p, cand, cf))
    for z in _type3_z_candidates(p):
        cand = make_candidate(p, TYPE_III, z)
        try:
            cf = intersection_matrices_closed_form(p, cand)
        except InfeasibleError:
            continue  # irrational sqrt(yz)
        if not cf.all_nonneg_integers():
            continue
        records.append(_dual_derivation_record(p, cand, cf))
    return records


def _fission_scan_quad(quad: tuple) -> list[ScanRecord]:
    return fission_scan(srg_derive(*quad))


def scan_srg(n_max: int, threads: int | None = None) -> list[ScanRecord]:
    """fission_scan over every arithmetically feasible parameter set <= n_max.

    threads (default: the SKEWFISS_THREADS environment variable, else 1)
    must be a positive integer and is capped at the CPUs this process may
    use; above 1 the parameter sets fan out over a process pool (the scan
    is pure).  Results are merged and sorted deterministically either way.
    """
    if threads is None:
        raw = os.environ.get("SKEWFISS_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"SKEWFISS_THREADS = {raw!r} is not an integer") from None
    if threads <= 0:
        raise ValueError(f"thread count {threads} is not positive")
    threads = min(threads, len(os.sched_getaffinity(0)))
    params = list(srg_candidates(n_max))
    records: list[ScanRecord] = []
    if threads > 1:
        quads = [p.quad() for p in params]
        with Pool(processes=threads) as pool:
            for recs in pool.map(_fission_scan_quad, quads, chunksize=32):
                records.extend(recs)
    else:
        for p in params:
            records.extend(fission_scan(p))
    records.sort(key=ScanRecord.sort_key)
    return records


# -- imprimitive scan ------------------------------------------------------------


def imprimitive_scan(n_max: int) -> list[ScanRecord]:
    """All (f, g) with f, g = 3 mod 4 and f*g <= n_max.

    The clique side has parameters (fg, f-1, f-2, 0) and the split is the
    type-I table; the record is marked realizable when both f and g are
    prime powers (wreath product of the two quadratic-residue tournaments).
    """
    records = []
    f = 3
    while 3 * f <= n_max:
        g = 3
        while f * g <= n_max:
            p = srg_derive(f * g, f - 1, f - 2, 0)
            cand = make_candidate(p, TYPE_I)
            cf = intersection_matrices_closed_form(p, cand)
            if not cf.all_nonneg_integers():
                raise ConsistencyError(f"imprimitive closed form not integral at {(f, g)}")
            rec = _dual_derivation_record(p, cand, cf)
            rec.family = "imprimitive"
            rec.params = {"f": f, "g": g}
            rec.realizable = ("+" if prime_power(f) is not None
                              and prime_power(g) is not None else "?")
            records.append(rec)
            g += 4
        f += 4
    records.sort(key=ScanRecord.sort_key)
    return records


# -- 2-subset family scan ----------------------------------------------------------


def johnson_scan(v_max: int) -> list[ScanRecord]:
    """Scan the 2-subset intersection family for 4-class skew splits.

    Splitting needs both multiplicities even, i.e. v = 3 mod 4; other v are
    recorded as parity-excluded.  For v = 3 mod 4 the generic scan runs and
    two structural candidates are always reported among the rejections:
    z = v(v-3)^2/4 carries the negative Krein witness q^3_(1,1), and
    z = v(v-3)^2/2 drives the auxiliary c nonpositive.
    """
    records = []
    for v in range(5, v_max + 1):
        n, k, lam, mu = johnson2_params(v)
        if v % 4 != 3:
            reason = (f"m1 = v-1 = {v - 1} odd" if (v - 1) % 2
                      else f"m2 = v(v-3)/2 = {v * (v - 3) // 2} odd")
            records.append(ScanRecord(
                family="johnson", n=n,
                params={"v": v, "k": k, "lam": lam, "mu": mu},
                status=INTEGRALITY_EXCLUDED,
                notes=f"multiplicity parity: {reason}"))
            continue
        p = srg_derive(n, k, lam, mu)
        found = fission_scan(p)
        z_krein = v * (v - 3) ** 2 // 4
        seen_zk = next((rec for rec in found
                        if rec.table_type == TYPE_III and rec.z == z_krein), None)
        if seen_zk is not None:
            _krein_verdict(seen_zk, seen_zk.table, witness=(3, 1, 1))
        else:
            # v = 3 mod 8: the entry p^2_(2,2) = (v-4)(v-7)/8 is a half-integer,
            # so the generic pipeline drops this z before the Krein stage.  The
            # putative table still exists and its Krein number is a standalone
            # rejection certificate, so it is reported here explicitly.
            cand = make_candidate(p, TYPE_III, z_krein)
            found.append(_dual_derivation_record(
                p, cand, intersection_matrices_closed_form(p, cand), witness=(3, 1, 1)))
        for rec in found:
            rec.family = "johnson"
            rec.params = {"v": v, **rec.params}
            records.append(rec)
        z_big = v * (v - 3) ** 2 // 2
        c_val = Fraction((v - 1) * (6 - v), 2)
        records.append(ScanRecord(
            family="johnson", n=n,
            params={"v": v, "k": k, "lam": lam, "mu": mu},
            table_type=TYPE_III, z=z_big,
            status=INTEGRALITY_EXCLUDED,
            notes=f"auxiliary c = (v-1)(6-v)/2 = {c_val} <= 0"))
    records.sort(key=ScanRecord.sort_key)
    return records


# -- classification of a concrete scheme ----------------------------------------


class ClassificationError(ValueError):
    pass


@dataclass
class Classification:
    family: str
    n: int
    params: dict
    table_type: str | None = None
    z: int | None = None
    relabeling: tuple | None = None
    table: CharacterTable | None = None

    def __str__(self) -> str:
        if self.family == "conference":
            return f"conference q={self.n} g={self.params['g']} h={self.params['h']}"
        if self.family == "imprimitive":
            return (f"imprimitive (f,g)=({self.params['f']},{self.params['g']}) "
                    f"type {self.table_type}")
        quad = (self.n, self.params["k"], self.params["lam"], self.params["mu"])
        out = f"srg {quad} type {self.table_type}"
        if self.z is not None:
            out += f" z={self.z}"
        return out


def _permuted_tensor(t: IntersectionTensor, sigma: tuple) -> tuple:
    rng = range(len(sigma))
    return tuple(tuple(tuple(t.p[sigma[i]][sigma[j]][sigma[k]] for k in rng)
                       for j in rng) for i in rng)


def _relabelings(tmap: list[int]):
    """All maps of canonical positions (R1, R2, R2^T, R1^T) onto the classes."""
    orbits = []
    seen = set()
    for i in range(1, 5):
        if i not in seen:
            orbits.append((i, tmap[i]))
            seen.update((i, tmap[i]))
    (a, at), (b, bt) = orbits
    for first, second in (((a, at), (b, bt)), ((b, bt), (a, at))):
        for x1 in first:
            for x2 in second:
                yield (0, x1, x2, tmap[x2], tmap[x1])


def classify_scheme(s: AssociationScheme) -> Classification:
    """Match a verified 4-class skew-symmetric scheme against the taxonomy.

    Search runs over the 8 transpose-respecting relabelings; the counted
    tensor must reproduce one closed form exactly.  No match means either
    an implementation bug or an object outside the known classification,
    and raises rather than guessing.
    """
    report = verify_axioms(s)
    if not report.ok:
        raise ClassificationError("not an association scheme:\n" + report.summary())
    if s.d != 4:
        raise ClassificationError(f"classification needs 4 classes, scheme has {s.d}")
    if not is_skew_symmetric(s):
        raise ClassificationError("scheme is not skew-symmetric")
    T = report.tensor
    tmap = report.transpose_map
    n = s.n

    matches: list[Classification] = []
    for sigma in _relabelings(tmap):
        perm = _permuted_tensor(T, sigma)
        k_half = T.valencies[sigma[1]]
        k2_half = T.valencies[sigma[2]]
        k, k2 = 2 * k_half, 2 * k2_half
        lam = sum(perm[i][j][1] for i in (1, 4) for j in (1, 4))
        mu = sum(perm[i][j][2] for i in (1, 4) for j in (1, 4))
        try:
            p = srg_derive(n, k, lam, mu)
        except ValueError:
            continue

        if p.conference:
            for ts in two_squares(n):
                hh = _realized_h(n, ts.g, ts.h, perm)
                if hh is not None:
                    matches.append(Classification(
                        family="conference", n=n,
                        params={"q": n, "g": ts.g, "h": hh},
                        relabeling=sigma,
                        table=conference_table(n, ts.g)))
            continue

        if mu == k:
            continue  # complete multipartite side; the paired relabeling has mu = 0
        if mu == 0:
            family, params = "imprimitive", {"f": k + 1, "g": n // (k + 1)}
            trials = [(TYPE_I, None)]
        elif p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2:
            continue
        else:
            family, params = "srg", {"k": k, "lam": lam, "mu": mu}
            z = _solve_type3_z(p, perm)
            trials = [(TYPE_I, None), (TYPE_II, None)] + ([(TYPE_III, z)] if z is not None else [])
        for table_type, z in trials:
            try:
                cand = make_candidate(p, table_type, z)
                cf = intersection_matrices_closed_form(p, cand)
            except InfeasibleError:
                continue  # irrational sqrt(yz)
            if perm == cf.rational_tensor():
                if z is not None and z.denominator == 1:
                    z = int(z)
                matches.append(Classification(
                    family=family, n=n, params=params, table_type=table_type, z=z,
                    relabeling=sigma, table=character_table(p, cand)))

    if not matches:
        raise ClassificationError(
            f"scheme on {n} points matches no known closed form; this indicates "
            "either a bug or a genuinely new object")
    first = matches[0]
    for other in matches[1:]:
        same_family = other.family == first.family
        if not same_family or (first.family == "srg"
                               and (other.params != first.params
                                    or other.table_type != first.table_type
                                    or other.z != first.z)):
            raise ClassificationError(
                f"ambiguous classification: {first} vs {other}")
    return first


def _solve_type3_z(p: SrgParams, perm) -> Fraction | None:
    """Invert the z-linear closed-form entry at position p^2_(1,2)."""
    r, s, _, _ = p.eig_ints()
    n, k, k2, m1 = p.n, p.k, p.k2, p.m1
    entry = perm[1][2][2]
    gamma = Fraction(4 * n * k2) * entry - n * k * (n - 2 * k + p.lam)
    z = (gamma - s * n * k2) / Fraction((r - s) * m1)
    if 0 < z < Fraction(n * k2, m1):
        return z
    return None
