"""Parameter scanners and classification for 4-class skew-symmetric splits.

Four families cover all symmetrizations: pseudocyclic/conference graphs,
ordinary strongly regular graphs, imprimitive (clique-blown-up) graphs and
the 2-subset intersection family.  Each scanner is one call of _scan, which
maps a per-unit function (a q, an srg parameter set, an (f, g) or a v) over
the family's units in this process; the records come out in the order of
the units.  In the srg-like families each
decision reads the closed-form entries' integer forms (spectra.EntryForms):
spectra.srg_stage passes the types I and II and the type-III z whose closed
form passes its integrality gate, so only those get a closed form.  The
srg scan's units are splittable integer sets, and a set gets an SrgParams
only when its stage yields a candidate.  classify_scheme solves the
counted p^2_(1,2) for z, which names the type, and names an srg scheme by
the side that srg_candidates lists first.  No closed-form entry is computed
here.  _dual_derivation_record makes the record of each candidate the stage
passes and raises ConsistencyError if the gate rejects it; _johnson_witness
makes the 2-subset Krein witness's, whose closed form may fail the gate.
Every feasible and Krein-excluded record has passed the dual derivation:
closed-form intersection matrices (cyclotomic for conference graphs) equal
to the eigenvalue identity's in exact arithmetic, then an exact Krein verdict."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd

import numpy as np

from .constructions import (
    conference_params,
    cyc4_closed_form,
    johnson2_params,
    prime_power,
    two_squares,
)
from .exactnum import SurdSum
from .scheme_core import (AssociationScheme, IntersectionTensor, _orbit_partition,
                          is_skew_symmetric, require_scheme)
from .spectra import (
    TYPE_I,
    TYPE_III,
    CharacterTable,
    ConsistencyError,
    FissionCandidate,
    InfeasibleError,
    EntryForms,
    SrgParams,
    character_table,
    conference_table,
    intersection_matrices_closed_form,
    make_candidate,
    p_from_table,
    p_values_from_table,
    q_from_table,
    srg_derive,
    srg_stage,
    _side_values,
    _solve_type3_z,
    _srg_from_spectrum,
)

FEASIBLE = "feasible"
KREIN_EXCLUDED = "krein_excluded"
INTEGRALITY_EXCLUDED = "integrality_excluded"


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


# -- the scan driver ---------------------------------------------------------------


def _scan(units, work) -> list[ScanRecord]:
    """Every record of work(unit), in the order of the units and then of work's
    records: each scanner lists its units in the order its output takes."""
    return list(chain.from_iterable(map(work, units)))


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
    return _scan(range(5, n_max + 1, 8), _conference_records)


def _conference_records(q: int) -> list[ScanRecord]:
    pp = prime_power(q)
    records = []
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
    return records


def _realized_h(q: int, g: int, h: int, planes: tuple) -> int | None:
    """The sign of h whose cyclotomic closed form's planes() are these planes."""
    for hh in (h, -h):
        if planes == cyc4_closed_form(q, g, hh).planes():
            return hh
    return None


def _krein_verdict(rec: ScanRecord, table: CharacterTable) -> ScanRecord:
    """Attach the table and mark rec Krein-excluded by its first negative q^l_ij."""
    negatives = q_from_table(table).negatives()
    if negatives:
        (l, i, j), value = negatives[0]
        rec.status, rec.krein_index, rec.krein_value = KREIN_EXCLUDED, (l, i, j), value
        rec.notes = f"q^{l}_({i},{j}) = {value} < 0"
    rec.table = table
    return rec


# -- strongly regular graph scan ------------------------------------------------


def srg_candidates(n_max: int):
    """All arithmetically feasible non-conference parameter sets, k <= (n-1)/2.

    Filters: the counting identity, integral eigenvalues, positive integral
    multiplicities, and the two classical Krein inequalities of the 2-class
    scheme (2k <= n - 1 implies the first).  Disconnected (mu = 0) and complete
    multipartite (mu = k) parameters are the imprimitive family's, not listed here.

    The sets are _srg_sets', listed by the eigenvalues r and s = -m and the
    divisors mu of r(r+1)(m-1)m (m = 1 gives n = k + 1, never a set here).
    """
    for ints in _srg_sets(n_max):
        yield _srg_from_spectrum(*ints)


_SWEEP_CHUNK = 1 << 13  # swept values per array pass, which bounds the sweep's memory


def _srg_sets(n_max: int, splittable: bool = False) -> list[tuple]:
    """srg_candidates' sets as sorted integer tuples (n, k, lam, mu, r, s, m1, m2), or
    only those that can split (k, n - k - 1, m1 and m2 even: SrgParams.splittable).

    With eigenvalues r and s = -m, k = mu + r*m, x = k - lam - 1 = (r+1)(m-1) and
    n = 1 + k + k*x/mu, so mu divides D = r*m*x and n <= n_max is
    mu^2 - b*mu + D <= 0, b = n_max - 1 - r*m - x.  Each (m, r) sweeps that exact
    window [L, U] of mu, cut by lam >= 0 and mu <= x (2k <= n - 1, so k <= kmax) and,
    to split, stepped by 2 over mu of r*m's parity (k even), _SWEEP_CHUNK values per
    numpy pass; every other filter is an array mask (_listed).  The co-divisors D/mu
    span D/(L*U) >= r*m/x > 1/2 times [L, U]: never fewer values, up to rounding.
    """
    if n_max > 5000:
        raise ValueError("scan capped at n_max = 5000")
    if n_max ** 4 >= 2 ** 63:  # every intermediate below is under n_max**4
        raise OverflowError(f"n_max = {n_max} overflows the int64 sweep")
    kmax = max((n_max - 1) // 2, 0)
    per_m = kmax // np.arange(2, kmax + 1, dtype=np.int64)
    m = np.repeat(np.arange(2, kmax + 1, dtype=np.int64), per_m)
    r = np.arange(m.size, dtype=np.int64) - np.repeat(np.cumsum(per_m) - per_m, per_m) + 1
    rm, x = r * m, (r + 1) * (m - 1)
    d, b = rm * x, n_max - 1 - rm - x
    disc = b * b - 4 * d
    root = np.floor(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
    root -= root * root > disc  # -1 where disc < 0 (no mu); else isqrt, as disc < 2**52
    step = 1 + splittable
    lo = np.maximum((b - root + 1) // 2, np.maximum(m - r, 1))
    lo += (lo - rm) % step
    hi = np.minimum((b + root) // 2, x)
    hi -= (hi - rm) % step
    m, r, d, lo, hi = (a[lo <= hi] for a in (m, r, d, lo, hi))
    swept = (hi - lo) // step + 1
    ends = np.cumsum(swept)
    base = lo - (ends - swept) * step
    found = [np.zeros((0, 8), dtype=np.int64)]
    for begin in range(0, int(swept.sum()), _SWEEP_CHUNK):
        end = min(begin + _SWEEP_CHUNK, int(ends[-1]))
        first, last = np.searchsorted(ends, [begin, end - 1], side="right")
        span = slice(first, last + 1)  # the pairs in this chunk, each clipped to it
        i = np.repeat(np.arange(first, last + 1),
                      np.minimum(ends[span], end) - np.maximum(ends[span] - swept[span], begin))
        mu = base[i] + np.arange(begin, end, dtype=np.int64) * step
        hit = d[i] % mu == 0
        found.append(_listed(m[i[hit]], r[i[hit]], mu[hit], splittable))
    found = np.concatenate(found)
    return list(map(tuple, found[np.lexsort(found.T[::-1])].tolist()))


def _listed(m, r, mu, splittable: bool):
    """The rows (n, k, lam, mu, r, s, m1, m2) of the (m, r, mu) that pass every other filter.

    The sweep implies the rest: m1 > 0, as n - 1 - k = k*x/mu > 0 and m >= 2; m2 > 0, as
    m1 < (n-1)*m/(r+m) < n - 1; k even to split, as mu has r*m's parity; the first Krein
    inequality, as mu <= x gives (r+1)(k+r+2rs) <= (r+1)(m-1) <= (k+r)(s+1)^2."""
    k, s, x = mu + r * m, -m, (r + 1) * (m - 1)
    n = 1 + k + k * x // mu
    numer = (n - 1) * m - k
    m1 = numer // (r + m)
    ok = (numer % (r + m) == 0) & (2 * m1 != n - 1)  # m1 != m2: not a conference set
    ok &= (s + 1) * (k + s + 2 * r * s) <= (k + s) * (r + 1) ** 2
    if splittable:
        ok &= (n % 2 == 1) & (m1 % 2 == 0)
    return np.stack([n, k, mu + r - m, mu, r, s, m1, n - 1 - m1], axis=1)[ok]


def _dual_derivation_record(p: SrgParams, cand: FissionCandidate) -> ScanRecord:
    """The srg record of cand: closed form, integrality gate, eq-(1) round
    trip, then exact Krein signs.

    cand passed the integer stage, so a closed form that is irrational or
    fails the gate raises ConsistencyError.
    """
    try:
        expected = intersection_matrices_closed_form(p, cand).tensor()
    except InfeasibleError as exc:
        raise ConsistencyError(
            f"{p.quad()} type {cand}: the integer stage passed it but the "
            f"closed form is not integral: {exc}") from exc
    table = character_table(p, cand)
    try:
        derived = p_from_table(table)
    except InfeasibleError as exc:
        raise ConsistencyError(
            f"{p.quad()} type {cand}: closed forms are integral but the "
            f"eigenvalue identity is not: {exc}") from exc
    if derived != expected:
        raise ConsistencyError(
            f"{p.quad()} type {cand}: eigenvalue identity differs from the closed form")
    return _krein_verdict(_srg_record(p, cand), table)


def _srg_record(p: SrgParams, cand: FissionCandidate, **verdict) -> ScanRecord:
    """The srg record of cand: its parameters, type and z, then verdict's fields."""
    return ScanRecord(family="srg", n=p.n, table_type=cand.table_type,
                      params={"k": p.k, "lam": p.lam, "mu": p.mu, "r": p.r.as_integer(),
                              "s": p.s.as_integer(), "m1": p.m1, "m2": p.m2},
                      z=int(cand.z) if cand.table_type == TYPE_III else None, **verdict)


def fission_scan(p: SrgParams) -> list[ScanRecord]:
    """All split candidates over one non-conference parameter set.

    The candidates are those of spectra.srg_stage on the set's entry forms
    (SrgParams.forms): types I and II, the ends of z's range, and the z of
    the type-III window (where p^2_(1,2) is a nonnegative integer), each
    when sqrt(yz) is rational and every closed-form entry there a
    nonnegative integer.  Only z the stage rejects are dropped: each
    candidate becomes one record (_dual_derivation_record) or raises.
    """
    if not p.splittable():
        return []
    return [_dual_derivation_record(p, make_candidate(p, t, z)) for t, z in srg_stage(p.forms)]


def scan_srg(n_max: int) -> list[ScanRecord]:
    """fission_scan over every splittable parameter set <= n_max whose integer
    stage yields a candidate."""
    return _scan(_srg_sets(n_max, splittable=True), _srg_records)


def _srg_records(ints: tuple) -> list[ScanRecord]:
    """The records of one splittable integer set: its SrgParams is built, for
    fission_scan, only when the integer stage yields a candidate, and shares
    the entry forms, which keep the stage's candidates, so the stage runs once."""
    forms = EntryForms(*ints)
    if not srg_stage(forms):
        return []
    return fission_scan(_srg_from_spectrum(*ints, forms=forms))


# -- imprimitive scan ------------------------------------------------------------


def imprimitive_scan(n_max: int) -> list[ScanRecord]:
    """All (f, g) with f, g = 3 mod 4 and f*g <= n_max, by (f*g, f).

    The clique side has parameters (fg, f-1, f-2, 0) and the split is the
    type-I table; the record is marked realizable when both f and g are
    prime powers (wreath product of the two quadratic-residue tournaments).
    """
    units = [(f, g) for f in range(3, n_max // 3 + 1, 4) for g in range(3, n_max // f + 1, 4)]
    return _scan(sorted(units, key=lambda fg: (fg[0] * fg[1], fg[0])), _imprimitive_records)


def _imprimitive_records(fg: tuple[int, int]) -> list[ScanRecord]:
    f, g = fg
    p = srg_derive(f * g, f - 1, f - 2, 0)
    rec = _dual_derivation_record(p, make_candidate(p, TYPE_I))
    rec.family, rec.params = "imprimitive", {"f": f, "g": g}
    rec.realizable = "+" if prime_power(f) is not None and prime_power(g) is not None else "?"
    return [rec]


# -- 2-subset family scan ----------------------------------------------------------


def johnson_scan(v_max: int) -> list[ScanRecord]:
    """Scan the 2-subset intersection family for 4-class skew splits.

    Splitting needs both multiplicities even, i.e. v = 3 mod 4; other v are
    recorded as parity-excluded.  For v = 3 mod 4 the srg stage's candidates
    get records, and two structural candidates are always among the rejections:
    z = v(v-3)^2/4 carries the negative Krein witness q^3_(1,1), and
    z = v(v-3)^2/2 drives the auxiliary c nonpositive.
    """
    return _scan(range(5, v_max + 1), _johnson_records)


def _johnson_records(v: int) -> list[ScanRecord]:
    n, k, lam, mu = johnson2_params(v)
    params = {"v": v, "k": k, "lam": lam, "mu": mu}
    if v % 4 != 3:
        reason = (f"m1 = v-1 = {v - 1} odd" if (v - 1) % 2
                  else f"m2 = v(v-3)/2 = {v * (v - 3) // 2} odd")
        return [ScanRecord(family="johnson", n=n, params=params, status=INTEGRALITY_EXCLUDED,
                           notes=f"multiplicity parity: {reason}")]
    p = srg_derive(n, k, lam, mu)  # splittable: v = 3 mod 4 makes k and n - k - 1 even too
    # the stage's candidates and the Krein witness, by z (types I and II, z None, first)
    witness = (TYPE_III, v * (v - 3) ** 2 // 4)
    cands = sorted(dict.fromkeys((*srg_stage(p.forms), witness)), key=lambda c: c[1] or 0)
    records = [_johnson_witness(p, c[1]) if c == witness
               else _dual_derivation_record(p, make_candidate(p, *c)) for c in cands]
    for rec in records:
        rec.family, rec.params = "johnson", {"v": v, **rec.params}
    z = v * (v - 3) ** 2 // 2
    c = _side_values(p, z)[2]  # (v-1)(4-v)/2: this z is past type I's end
    records.append(ScanRecord(
        family="johnson", n=n, params=params, table_type=TYPE_III, z=z,
        status=INTEGRALITY_EXCLUDED, notes=f"auxiliary c = (v-1)(4-v)/2 = {c} <= 0"))
    return records


def _johnson_witness(p: SrgParams, z: int) -> ScanRecord:
    """The record at the Krein witness z = v(v-3)^2/4, a standalone certificate by
    q^3_(1,1) < 0 whether or not the gate passes z: for v = 3 mod 8 it fails, as
    p^2_(2,2) = (v-4)(v-7)/8 is a half-integer, and a note names the first non-integral
    entry.  ConsistencyError unless the identity's values are the closed form's planes()
    and q^3_(1,1) is negative."""
    cand = make_candidate(p, TYPE_III, z)
    closed, note = intersection_matrices_closed_form(p, cand), ""
    try:
        closed.tensor()
    except InfeasibleError as exc:
        i, j, l = exc.where
        note = f"; intersection numbers also non-integral (p^{l}_({i},{j}) = {exc.value})"
    table = character_table(p, cand)
    if p_values_from_table(table) != closed.planes():
        raise ConsistencyError(
            f"{p.quad()} type {cand}: eigenvalue identity differs from the closed form")
    krein = q_from_table(table)
    value = krein[1, 1, 3]
    if krein.sign((1, 1, 3)) >= 0:
        raise ConsistencyError(f"n = {p.n}, z = {z}: q^3_(1,1) = {value} is not negative")
    return _srg_record(p, cand, status=KREIN_EXCLUDED, krein_index=(3, 1, 1), krein_value=value,
                       notes=f"q^3_(1,1) = {value} < 0{note}", table=table)


# -- classification of a concrete scheme ----------------------------------------


class ClassificationError(ValueError):
    pass


@dataclass
class Classification:
    family: str
    n: int
    params: dict
    table_type: str | None = None
    z: Fraction | None = None
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
    a, b = _orbit_partition(tmap)[1:]
    for first, second in ((a, b), (b, a)):
        for x1 in first:
            for x2 in second:
                yield (0, x1, x2, tmap[x2], tmap[x1])


def classify_scheme(s: AssociationScheme) -> Classification:
    """Match a verified 4-class skew-symmetric scheme against the taxonomy.

    Search runs over the 8 transpose-respecting relabelings; the counted
    tensor must reproduce one closed form exactly.  A relabeling whose
    integers are conference_params(n) is compared with the cyclotomic closed
    forms of n's two-squares representations, and every other goes through
    srg_derive.  An srg scheme matches on its complement's side too, and is
    named by the side srg_candidates lists first.  No match means either an implementation bug or an object
    outside the known classification, and raises rather than guessing.
    """
    report = require_scheme(s, ClassificationError, "not an association scheme")
    if s.d != 4:
        raise ClassificationError(f"classification needs 4 classes, scheme has {s.d}")
    if not is_skew_symmetric(s):
        raise ClassificationError("scheme is not skew-symmetric")
    T = report.tensor
    tmap = report.transpose_map
    n = s.n

    matches = []  # (Classification, its table's builder): only the returned match builds one
    for sigma in _relabelings(tmap):
        perm = _permuted_tensor(T, sigma)
        k = 2 * T.valencies[sigma[1]]
        lam = sum(perm[i][j][1] for i in (1, 4) for j in (1, 4))
        mu = sum(perm[i][j][2] for i in (1, 4) for j in (1, 4))
        if n % 4 == 1 and (n, k, lam, mu) == conference_params(n):
            for ts in two_squares(n):
                hh = _realized_h(n, ts.g, ts.h, perm)
                if hh is not None:
                    matches.append((Classification(
                        family="conference", n=n, params={"q": n, "g": ts.g, "h": hh},
                        relabeling=sigma), partial(conference_table, n, ts.g)))
            continue
        try:
            p = srg_derive(n, k, lam, mu)
        except ValueError:
            continue
        if mu == k or (mu and not p.splittable()):
            continue  # mu = k: complete multipartite side, paired with mu = 0 (imprimitive)
        # p^2_(1,2) is strictly increasing in z, so it names the one candidate to
        # compare; an imprimitive side (mu = 0) takes type I only
        cand = _solve_type3_z(p, perm)
        if cand is None or (mu == 0 and cand.table_type != TYPE_I):
            continue
        try:
            cf = intersection_matrices_closed_form(p, cand)
        except InfeasibleError:
            continue  # irrational sqrt(yz)
        if perm == cf.planes():
            family, params = (("imprimitive", {"f": k + 1, "g": n // (k + 1)}) if mu == 0
                              else ("srg", {"k": k, "lam": lam, "mu": mu}))
            matches.append((Classification(
                family=family, n=n, params=params, table_type=cand.table_type,
                z=cand.z if cand.table_type == TYPE_III else None,
                relabeling=sigma), partial(character_table, p, cand)))

    if not matches:
        raise ClassificationError(
            f"scheme on {n} points matches no known closed form; this indicates "
            "either a bug or a genuinely new object")
    # an srg scheme also matches as the split of its complement: keep the side
    # that srg_candidates lists first, the smaller (k, lam)
    side = lambda m: (m.params["k"], m.params["lam"])
    first_side = min((side(m) for m, _ in matches if m.family == "srg"), default=None)
    (first, table), *others = [(m, t) for m, t in matches
                               if m.family != "srg" or side(m) == first_side]
    for other, _ in others:
        same_family = other.family == first.family
        if not same_family or (first.family == "srg"
                               and (other.params != first.params
                                    or other.table_type != first.table_type
                                    or other.z != first.z)):
            raise ClassificationError(
                f"ambiguous classification: {first} vs {other}")
    first.table = table()
    return first
