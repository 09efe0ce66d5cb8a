"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success; a failed assertion is the
fail line.  Everything numerical here is exact integer/rational/surd
arithmetic; floating point appears only inside the surd-sign diagnostic of
criterion 7(d).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
from reference_closed_form import closed_form, corollary_filters, is_integral

import skewfiss as sf
from skewfiss.exactnum import SurdSum, surd_sqrt
from skewfiss.feasibility import FEASIBLE, INTEGRALITY_EXCLUDED, KREIN_EXCLUDED, _permuted_tensor
from skewfiss.spectra import TYPE_I, TYPE_II, TYPE_III, end_types

# Table of feasible pseudocyclic parameters up to 325 points: (n, g) pairs,
# one per two-squares representation, with the doubled entries at
# n = 85, 125, 205, 221 and the tripled entry at n = 325.
TABLE_1 = [
    (5, 1), (13, -3), (29, 5), (37, 1), (45, -3), (53, -7), (61, 5),
    (85, 9), (85, -7), (101, 1), (109, -3), (117, 9), (125, -11), (125, 5),
    (149, -7), (157, -11), (173, 13), (181, 9), (197, 1), (205, 13), (205, -3),
    (221, 5), (221, -11), (229, -15), (245, -7), (261, -15), (269, 13),
    (277, 9), (293, 17), (317, -11), (325, 17), (325, 1), (325, -15),
]

# Non-conference rows up to 1300 points: (n, k, lam, mu, r, m1, s, m2, type, z).
TABLE_2 = [
    (57, 14, 1, 4, 2, 38, -5, 18, "III", 27),
    (105, 26, 13, 4, 11, 14, -2, 90, "III", 540),
    (253, 42, 21, 4, 19, 22, -2, 230, "III", 2300),
    (273, 102, 41, 36, 11, 90, -6, 182, "III", 364),
    (381, 114, 29, 36, 6, 254, -13, 126, "III", 147),
    (441, 110, 19, 30, 5, 330, -16, 110, "II", None),
    (441, 110, 19, 30, 5, 330, -16, 110, "III", 252),
    (465, 58, 29, 4, 27, 30, -2, 434, "III", 6076),
    (497, 186, 55, 78, 4, 426, -27, 70, "III", 175),
    (729, 182, 55, 42, 20, 182, -7, 546, "I", None),
    (741, 74, 37, 4, 35, 38, -2, 702, "III", 12636),
    (813, 290, 109, 100, 19, 270, -10, 542, "III", 1084),
    (889, 222, 35, 62, 5, 762, -32, 126, "II", None),
    (889, 222, 35, 62, 5, 762, -32, 126, "III", 252),
    (945, 354, 153, 120, 39, 118, -6, 826, "II", None),
    (993, 310, 89, 100, 10, 662, -21, 330, "III", 363),
    (1065, 266, 103, 54, 53, 70, -4, 994, "III", 10224),
    (1081, 90, 45, 4, 43, 46, -2, 1034, "III", 22748),
    (1225, 306, 89, 72, 26, 306, -9, 918, "III", 1575),
    (1225, 510, 215, 210, 20, 510, -15, 714, "I", None),
    (1241, 310, 81, 76, 18, 510, -13, 730, "I", None),
]

KREIN_ROWS = {105, 253, 465, 741, 1081}


def _cli(*argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "skewfiss", *argv],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    return proc, elapsed


def test_criterion_1_pseudocyclic_table():
    proc, elapsed = _cli("scan", "conference", "--max-n", "325", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split("\t") == ["n", "g", "h", "#"]
    got = [(int(l.split("\t")[0]), int(l.split("\t")[1])) for l in lines[1:]]
    assert sorted(got) == sorted(TABLE_1), "emitted (n, g) pairs differ from the table"
    assert len(got) == len(TABLE_1)
    for n, count in ((85, 2), (125, 2), (205, 2), (221, 2), (325, 3)):
        assert sum(1 for (nn, _) in got if nn == n) == count
    assert elapsed < 1.0, f"scan took {elapsed:.2f}s, budget is 1s"
    print(f"\nPASS  1. pseudocyclic table reproduced exactly "
          f"({len(got)} rows, {elapsed:.2f}s)")


def test_criterion_2_srg_table_containment():
    proc, elapsed = _cli("scan", "srg", "--max-n", "1300", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    index = {}
    for rec in records:
        p = rec["params"]
        key = (rec["n"], p["k"], p["lam"], p["mu"], rec["table_type"], rec["z"])
        index[key] = rec
    for (n, k, lam, mu, r, m1, s, m2, typ, z) in TABLE_2:
        key = (n, k, lam, mu, typ, z)
        assert key in index, f"row {key} missing from the scan"
        rec = index[key]
        assert (rec["params"]["r"], rec["params"]["m1"]) == (r, m1)
        assert (rec["params"]["s"], rec["params"]["m2"]) == (s, m2)
        if n in KREIN_ROWS:
            assert rec["status"] == KREIN_EXCLUDED, f"{key} should be Krein-excluded"
            witness = SurdSum.from_triples([tuple(t) for t in rec["krein_value"]])
            assert witness.sign() == -1, f"{key}: Krein witness is not negative"
    # feasibility statuses pinned by the scan contract
    assert index[(57, 14, 1, 4, "III", 27)]["status"] == FEASIBLE
    assert index[(441, 110, 19, 30, "II", None)]["status"] == FEASIBLE
    assert index[(441, 110, 19, 30, "III", 252)]["status"] == FEASIBLE
    assert elapsed < 600, f"scan took {elapsed:.1f}s, budget is 10 min"
    print(f"PASS  2. all 21 non-conference rows contained, 5 Krein exclusions "
          f"witnessed exactly ({len(records)} records, {elapsed:.1f}s)")


def test_criterion_3_cyclotomic_realization():
    start = time.perf_counter()
    qs = [q for q in range(5, 201) if q % 8 == 5 and sf.constructions.is_prime(q)]
    qs.append(125)
    for q in qs:
        scheme = sf.cyclotomic_scheme(q, 4)
        report = sf.verify_axioms(scheme)
        assert report.ok, f"q = {q} fails verification"
        assert sf.is_skew_symmetric(scheme)
        counted = report.tensor
        f = (q - 1) // 4
        matches = []
        for ts in sf.two_squares(q):
            if sf.constructions.factorize(q).keys() & sf.constructions.factorize(abs(ts.g)).keys():
                continue  # gcd(g, q) > 1: not the cyclotomic representation
            for hh in (ts.h, -ts.h):
                cf = sf.cyc4_closed_form(q, ts.g, hh)
                if counted == cf.tensor():
                    matches.append((ts.g, hh))
        assert len(matches) == 1, f"q = {q}: expected a unique (g, h) match, got {matches}"
        cls = sf.classify_scheme(scheme)
        assert cls.family == "conference"
        assert cls.params["g"] == matches[0][0], f"q = {q}: classification disagrees"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s, budget is 30s"
    print(f"PASS  3. cyclotomic realization exact for {len(qs)} fields "
          f"({elapsed:.1f}s)")


def _principal_b1(scheme, relabeling):
    tensor = sf.intersection_tensor(scheme)
    perm = _permuted_tensor(tensor, relabeling)
    return [[perm[1][j][k] for k in range(1, 5)] for j in range(1, 5)]


def test_criterion_4_wreath_realization():
    displayed = {
        3: [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        7: [[1, 0, 0, 2], [0, 3, 0, 0], [0, 0, 3, 0], [1, 0, 0, 1]],
    }
    for f, g in ((3, 7), (7, 3)):
        scheme = sf.wreath(sf.cyclotomic_scheme(f, 2), sf.cyclotomic_scheme(g, 2))
        report = sf.verify_axioms(scheme)
        assert report.ok and scheme.d == 4 and scheme.n == 21
        assert sf.is_skew_symmetric(scheme)
        assert sf.imprimitive_blocks(report.tensor), "wreath product should be imprimitive"
        cls = sf.classify_scheme(scheme)
        assert cls.family == "imprimitive" and cls.table_type == TYPE_I
        assert (cls.params["f"], cls.params["g"]) == (f, g)
        assert _principal_b1(scheme, cls.relabeling) == displayed[f]
    print("PASS  4. both 21-point wreath products classify as type I with the "
          "displayed intersection matrices")


def test_criterion_5_johnson_nonexistence():
    start = time.perf_counter()
    records = sf.johnson_scan(200)
    assert all(r.status != FEASIBLE for r in records), "a feasible record appeared"
    for v in range(7, 201):
        if v % 4 != 3:
            continue
        mine = [r for r in records if r.params["v"] == v]
        z_quarter = v * (v - 3) ** 2 // 4
        z_half = v * (v - 3) ** 2 // 2
        krein = next(r for r in mine if r.z == z_quarter)
        assert krein.status == KREIN_EXCLUDED
        assert krein.krein_index == (3, 1, 1)
        assert krein.krein_value.sign() == -1
        big = next(r for r in mine if r.z == z_half)
        assert big.status == INTEGRALITY_EXCLUDED and "c =" in big.notes
    elapsed = time.perf_counter() - start
    print(f"PASS  5. no 2-subset family splits up to v = 200; both structural "
          f"candidates rejected at every v = 3 mod 4 ({elapsed:.1f}s)")


def test_criterion_6_dual_derivation_consistency():
    # conference rows: eigenvalue identity against the cyclotomic closed forms,
    # and exact Krein signs (ConsistencyError would fail the test)
    conference = sf.conference_scan(325)
    assert len(conference) == 33
    assert all(r.status == FEASIBLE for r in conference)
    assert all("realized_h" in r.params for r in conference)
    # imprimitive rows carry the same double derivation
    imprimitive = sf.imprimitive_scan(100)
    assert all(r.status == FEASIBLE for r in imprimitive)
    # spot re-checks on non-conference rows
    for (quad, typ, z) in (((57, 14, 1, 4), TYPE_III, 27),
                           ((105, 26, 13, 4), TYPE_III, 540),
                           ((729, 182, 55, 42), TYPE_I, None)):
        p = sf.srg_derive(*quad)
        cand = sf.make_candidate(p, typ, z)
        closed = sf.intersection_matrices_closed_form(p, cand).tensor()
        eq1 = sf.p_from_table(sf.character_table(p, cand))
        assert closed == eq1, f"derivations disagree on {quad} type {typ}"
    print("PASS  6. closed-form and eigenvalue-identity tensors agree on every "
          "candidate (conference, imprimitive, srg spot checks)")


def test_criterion_7a_7b_tensor_properties():
    corpus = [
        sf.cyclotomic_scheme(5, 4),
        sf.cyclotomic_scheme(13, 4),
        sf.cyclotomic_scheme(29, 4),
        sf.cyclotomic_scheme(37, 4),
        sf.cyclotomic_scheme(13, 2),
        sf.wreath(sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2)),
        sf.wreath(sf.cyclotomic_scheme(7, 2), sf.cyclotomic_scheme(3, 2)),
        sf.johnson2_scheme(5),
        sf.johnson2_scheme(7),
    ]
    for scheme in corpus:
        report = sf.verify_axioms(scheme)
        assert report.ok
        T, tmap = report.tensor, report.transpose_map
        d = scheme.d
        for i in range(d + 1):
            for k in range(d + 1):
                assert sum(T[i, j, k] for j in range(d + 1)) == T.valencies[i]
                for j in range(d + 1):
                    assert T[i, j, k] == T[tmap[j], tmap[i], tmap[k]]
    print(f"PASS  7ab. column sums and transpose symmetry hold on "
          f"{len(corpus)} constructed schemes")


def test_criterion_7c_filter_soundness():
    rng = random.Random(20260810)
    checked = 0
    tried = 0
    while checked < 10_000:
        tried += 1
        assert tried < 3_000_000, "parameter generator starved"
        r = rng.randint(1, 30)
        m = rng.randint(1, 30)
        mu = rng.randint(1, 300)
        k = mu + r * m
        lam = mu + r - m
        if lam < 0 or mu >= k:
            continue
        num = k * (k - lam - 1)
        if num % mu:
            continue
        n = 1 + k + num // mu
        if 2 * k > n - 1:
            continue
        try:
            p = sf.srg_derive(n, k, lam, mu)
        except ValueError:  # conference parameters among them
            continue
        checked += 1
        ends = end_types(p.forms)
        for typ in (TYPE_I, TYPE_II):
            passes = is_integral(closed_form(p, typ))
            assert (typ in ends) == passes, \
                f"ends test and reference closed-form gate disagree: {p.quad()} {typ}"
            assert not passes or corollary_filters(p, typ).passed, \
                f"corollary rejected a fully integral candidate: {p.quad()} {typ}"
    print(f"PASS  7c. ends test equals the reference closed-form gate, and the congruence "
          f"corollary is sound, on {checked} randomized parameter sets")


def test_criterion_7d_surd_round_trips():
    rng = random.Random(42)
    radicands = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 19, 21, 105]
    count = 10_000
    with mp.workprec(128):
        for _ in range(count):
            x = Fraction(rng.randint(0, 10_000), rng.randint(1, 100))
            s = surd_sqrt(x)
            assert s * s == SurdSum(x)

            a = Fraction(rng.randint(-500, 500), rng.randint(1, 20))
            b = Fraction(rng.randint(-500, 500), rng.randint(1, 20))
            mrad = rng.choice(radicands)
            plus = SurdSum(a) + b * surd_sqrt(mrad)
            minus = SurdSum(a) - b * surd_sqrt(mrad)
            assert plus + minus == SurdSum(2 * a)
            assert plus * minus == SurdSum(a * a - b * b * mrad)

            terms = [(rng.choice(radicands), Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
                     for _ in range(rng.randint(1, 3))]
            val = SurdSum(0)
            approx = mp.mpf(0)
            for nrad, c in terms:
                val = val + c * surd_sqrt(nrad)
                approx += mp.mpf(c.numerator) / c.denominator * mp.sqrt(nrad)
            got = val.sign()
            if val.is_zero():
                assert abs(approx) < mp.mpf("1e-30")
            else:
                assert got == (1 if approx > 0 else -1)
    print(f"PASS  7d. {count} surd round trips (square roots, conjugates, "
          f"sign vs 128-bit floats)")
