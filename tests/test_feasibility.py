from math import isqrt
from types import SimpleNamespace

import pytest
import reference_enumeration as ref_enum
from hypothesis import given, settings
from hypothesis import strategies as st

import skewfiss as sf
import skewfiss.feasibility as feasibility
from skewfiss.exactnum import ComplexSurd, SurdSum, surd_sqrt
from skewfiss.feasibility import (
    FEASIBLE,
    INTEGRALITY_EXCLUDED,
    KREIN_EXCLUDED,
)
from skewfiss.scheme_core import IntersectionTensor
from skewfiss.spectra import TYPE_I, TYPE_II, TYPE_III, type3_window
from fractions import Fraction


def conf_pairs(records):
    return [(r.n, r.params["g"]) for r in records]


def test_conference_scan_head():
    recs = sf.conference_scan(45)
    assert conf_pairs(recs) == [(5, 1), (13, -3), (29, 5), (37, 1), (45, -3)]
    flags = {r.n: r.realizable for r in recs}
    assert flags[5] == flags[13] == flags[29] == flags[37] == "+"
    assert flags[45] == "?"  # 45 = 9*5 is not a prime power


def test_conference_scan_doubled_entry():
    recs = sf.conference_scan(85)
    assert conf_pairs(recs)[-2:] == [(85, 9), (85, -7)]


def test_conference_scan_small_empty():
    assert sf.conference_scan(4) == []


def test_conference_scan_coprimality_annotation():
    recs = sf.conference_scan(125)
    by_pair = {(r.n, r.params["g"]): r.realizable for r in recs}
    assert by_pair[(125, -11)] == "+"
    assert by_pair[(125, 5)] == "?"  # gcd(5, 125) > 1: no cyclotomic realization


def test_conference_scan_deep():
    recs = sf.conference_scan(61)
    for r in recs:
        assert r.status == FEASIBLE
        assert r.params["realized_h"] in (r.params["h"], -r.params["h"])
        assert r.table is not None


def test_srg_candidates_membership():
    quads = [p.quad() for p in sf.srg_candidates(120)]
    assert (57, 14, 1, 4) in quads
    assert (105, 26, 13, 4) in quads
    assert (13, 6, 2, 3) not in quads           # conference
    assert all(0 < mu < k for (_, k, _, mu) in quads)
    assert all(2 * k <= n - 1 for (n, k, _, _) in quads)


def test_srg_candidates_rejects_krein_violations():
    # (28,9,0,4) satisfies counting identity and integrality but fails the
    # classical Krein inequality
    p28 = sf.srg_derive(28, 9, 0, 4)
    s = p28.s.as_integer()
    r = p28.r.as_integer()
    k = 9
    assert (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2
    assert (28, 9, 0, 4) not in [p.quad() for p in sf.srg_candidates(30)]


def _srg_quads_by_triple_loop(n_max):
    """The first srg_candidates enumeration (every mu up to kmax - r*m), as a reference."""
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
    return sorted(found)


@pytest.mark.parametrize("n_max", [300, 1300])
def test_srg_candidates_match_triple_loop(n_max):
    assert [p.quad() for p in sf.srg_candidates(n_max)] == _srg_quads_by_triple_loop(n_max)


def _splittable(n, k, lam, mu, r, s, m1, m2) -> bool:
    """SrgParams.splittable in integers: k, k2 = n - k - 1, m1 and m2 all even."""
    return not (k % 2 or (n - k - 1) % 2 or m1 % 2 or m2 % 2)


@pytest.mark.parametrize("n_max", [-5, 0, 1, 2, 300, 1300, 5000])
def test_splittable_sets_are_the_filtered_sets(n_max):
    """The enumeration's splittable mode (mu drawn with the parity of r*m, n odd
    and m1 even tested in the loop) lists exactly the splittable sets."""
    everything = feasibility._srg_sets(n_max)
    assert feasibility._srg_sets(n_max, splittable=True) == [
        ints for ints in everything if _splittable(*ints)]


def _sweep_matches_reference(n_max):
    for splittable in (False, True):
        got = feasibility._srg_sets(n_max, splittable)
        assert got == ref_enum.srg_sets(n_max, splittable), (n_max, splittable)
        assert all(type(v) is int for ints in got for v in ints), (n_max, splittable)


def test_sweep_equals_divisor_generation_up_to_400():
    """The array sweep lists the sets of the frozen divisor generation, as
    Python ints, in both modes at every n_max in [-5, 400].  That range holds
    510 pairs (m, r) whose isqrt guard 1 + r*m + x + 2*isqrt(r*m*x) <= n_max
    passes while mu^2 - b*mu + D <= 0 has no real root (the first at
    n_max = 14, (m, r) = (2, 2)): the sweep must read those windows as empty."""
    complex_windows = []
    for n_max in range(-5, 401):
        _sweep_matches_reference(n_max)
        kmax = max((n_max - 1) // 2, 0)
        for m in range(2, kmax + 1):
            for r in range(1, kmax // m + 1):
                rm, x = r * m, (r + 1) * (m - 1)
                if 1 + rm + x + 2 * isqrt(rm * x) > n_max:
                    break
                if (n_max - 1 - rm - x) ** 2 < 4 * rm * x:
                    complex_windows.append((n_max, m, r))
    assert len(complex_windows) == 510 and complex_windows[0] == (14, 2, 2)


@pytest.mark.parametrize("n_max", [1300, 3000, 5000])
def test_sweep_equals_divisor_generation(n_max):
    _sweep_matches_reference(n_max)


@given(st.integers(min_value=-10, max_value=5000))
@settings(max_examples=20, deadline=None)
def test_sweep_equals_divisor_generation_drawn(n_max):
    _sweep_matches_reference(n_max)


@pytest.mark.parametrize("n_max", [-5, 0, 1, 2, 5, 9, 10, 50, 300, 1300, 3000, 5000])
def test_srg_candidates_equal_srg_derive(n_max):
    """srg_candidates builds SrgParams from its own integers; srg_derive agrees."""
    for p in sf.srg_candidates(n_max):
        assert p == sf.srg_derive(*p.quad())


def test_fission_scan_57():
    recs = sf.fission_scan(sf.srg_derive(57, 14, 1, 4))
    assert [(r.table_type, r.z, r.status) for r in recs] == [(TYPE_III, 27, FEASIBLE)]


def test_fission_scan_441():
    recs = sf.fission_scan(sf.srg_derive(441, 110, 19, 30))
    assert [(r.table_type, r.z, r.status) for r in recs] == [
        (TYPE_II, None, FEASIBLE), (TYPE_III, 252, FEASIBLE)]


def test_fission_scan_105_krein():
    recs = sf.fission_scan(sf.srg_derive(105, 26, 13, 4))
    assert len(recs) == 1
    rec = recs[0]
    assert (rec.table_type, rec.z, rec.status) == (TYPE_III, 540, KREIN_EXCLUDED)
    assert rec.krein_value.sign() == -1
    assert rec.krein_index is not None


def test_fission_scan_of_a_set_that_cannot_split():
    """Petersen's k = 3 is odd, so no 4-class split halves it: no records."""
    assert sf.fission_scan(sf.srg_derive(10, 3, 0, 1)) == []


def test_fission_scan_rejects_conference():
    """fission_scan never sees conference parameters: srg_derive refuses
    them, so no SrgParams of a conference graph exists."""
    with pytest.raises(sf.InfeasibleError, match="conference_table"):
        sf.srg_derive(13, 6, 2, 3)


def test_z_candidate_window():
    p = sf.srg_derive(57, 14, 1, 4)
    zs = list(type3_window(p.forms))
    assert 27 in zs
    assert all(0 < z * p.m1 < p.n * p.k2 for z in zs)
    # the window is tiny compared to brute force over the full range
    assert len(zs) <= (p.r.as_integer() - p.s.as_integer()) // 4 + 2


def test_imprimitive_scan():
    recs = sf.imprimitive_scan(21)
    assert [(r.params["f"], r.params["g"]) for r in recs] == [(3, 3), (3, 7), (7, 3)]
    assert all(r.table_type == TYPE_I and r.status == FEASIBLE for r in recs)
    assert all(r.realizable == "+" for r in recs)
    assert sf.imprimitive_scan(8) == []


def test_imprimitive_scan_table_entry():
    recs = sf.imprimitive_scan(21)
    rec37 = next(r for r in recs if (r.params["f"], r.params["g"]) == (3, 7))
    tau = rec37.table.entry(1, 2)
    assert tau == ComplexSurd(Fraction(-3, 2), Fraction(3, 2) * surd_sqrt(7))


def test_imprimitive_scan_nonprime_power_annotation():
    recs = sf.imprimitive_scan(75)
    rec = next(r for r in recs if (r.params["f"], r.params["g"]) == (15, 3))
    assert rec.realizable == "?"  # 15 is not a prime power


def test_johnson_scan_no_feasible():
    recs = sf.johnson_scan(30)
    assert all(r.status != FEASIBLE for r in recs)


def test_johnson_scan_v7_witnesses():
    recs = [r for r in sf.johnson_scan(10) if r.params["v"] == 7]
    by_z = {r.z: r for r in recs}
    assert by_z[28].status == KREIN_EXCLUDED
    assert by_z[28].krein_index == (3, 1, 1)
    assert by_z[28].krein_value == (SurdSum(9) - 3 * surd_sqrt(21)) / 25
    assert by_z[56].status == INTEGRALITY_EXCLUDED
    assert "c =" in by_z[56].notes


def test_johnson_scan_one_krein_tensor_per_table(monkeypatch):
    """The Krein witness rides on the one verdict of each record: 49 tables
    (v = 3 mod 4, 7 <= v <= 199), 49 Krein tensors."""
    calls = []
    real = feasibility.q_from_table
    monkeypatch.setattr(feasibility, "q_from_table", lambda t: calls.append(t) or real(t))
    recs = sf.johnson_scan(200)
    assert sum(r.table is not None for r in recs) == 49
    assert len(calls) == 49


def test_johnson_scan_parity_exclusions():
    recs = sf.johnson_scan(7)
    by_v = {r.params["v"]: r for r in recs if r.params["v"] < 7}
    assert by_v[5].status == INTEGRALITY_EXCLUDED and "m2" in by_v[5].notes
    assert by_v[6].status == INTEGRALITY_EXCLUDED and "m1" in by_v[6].notes


def test_johnson_scan_v11_integrality_note():
    recs = [r for r in sf.johnson_scan(11) if r.params["v"] == 11]
    rec = next(r for r in recs if r.z == 176)
    assert rec.status == KREIN_EXCLUDED
    assert "non-integral" in rec.notes


def test_classify_round_trips(cyc13, wreath_3_7, wreath_7_3):
    c = sf.classify_scheme(cyc13)
    assert (c.family, c.params["g"], c.params["q"]) == ("conference", -3, 13)
    w = sf.classify_scheme(wreath_3_7)
    assert (w.family, w.params["f"], w.params["g"], w.table_type) == ("imprimitive", 3, 7, TYPE_I)
    w2 = sf.classify_scheme(wreath_7_3)
    assert (w2.params["f"], w2.params["g"]) == (7, 3)
    thin = sf.classify_scheme(sf.cyclotomic_scheme(5, 4))
    assert (thin.family, thin.params["g"]) == ("conference", 1)


def test_classification_str_of_an_srg_split():
    c = feasibility.Classification(family="srg", n=57, params={"k": 14, "lam": 1, "mu": 4},
                                   table_type=TYPE_III, z=Fraction(27))
    assert str(c) == "srg (57, 14, 1, 4) type III z=27"


def test_classify_builds_the_returned_match_table_only(monkeypatch, wreath_3_7, wreath_7_3):
    """A conference scheme matches on 8 relabelings and an imprimitive wreath
    on 4; classify_scheme builds the table of the one match it returns."""
    built, matches = [], []
    for name in ("conference_table", "character_table"):
        real = getattr(feasibility, name)
        monkeypatch.setattr(feasibility, name,
                            lambda *args, real=real, name=name: built.append(name) or real(*args))
    real_match = feasibility.Classification
    monkeypatch.setattr(feasibility, "Classification",
                        lambda **fields: matches.append(fields) or real_match(**fields))
    for scheme, table, count in ((sf.cyclotomic_scheme(29, 4), "conference_table", 8),
                                 (wreath_3_7, "character_table", 4),
                                 (wreath_7_3, "character_table", 4)):
        built.clear()
        matches.clear()
        got = sf.classify_scheme(scheme)
        assert (built, len(matches)) == ([table], count)
        assert got.table is not None


@pytest.mark.parametrize("q, g", [(5, 1), (13, -3), (29, 5), (125, -11)])
def test_classify_names_a_conference_scheme_from_its_integers(monkeypatch, q, g):
    """Every relabeling of a cyclotomic scheme reads conference_params(q), so
    classify_scheme never calls srg_derive on it; the match is unchanged."""
    calls = []
    real = feasibility.srg_derive
    monkeypatch.setattr(feasibility, "srg_derive", lambda *quad: calls.append(quad) or real(*quad))
    got = sf.classify_scheme(sf.cyclotomic_scheme(q, 4))
    assert calls == []
    assert (got.family, got.n, got.params, got.table_type, got.z, got.relabeling) == (
        "conference", q, {"q": q, "g": g, "h": 1}, None, None, (0, 1, 2, 3, 4))
    assert str(got) == f"conference q={q} g={g} h=1"
    assert got.table.to_json_dict() == sf.conference_table(q, g).to_json_dict()


def test_classify_refuses_a_tensor_that_matches_no_closed_form(monkeypatch):
    """The closed-form tensor of srg(57, 14, 1, 4) type III z = 27 classifies
    as itself; with p^3_(1,2) raised by one, every relabeling still reads
    valid srg integers and solves for a z, so each of the 8 builds a closed
    form, and none equals the counted tensor."""
    p = sf.srg_derive(57, 14, 1, 4)
    tensor = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 27)).tensor()
    planes = [[list(row) for row in plane] for plane in tensor.p]
    planes[1][2][3] += 1
    bent = IntersectionTensor(p=tuple(tuple(map(tuple, plane)) for plane in planes),
                              valencies=tensor.valencies)
    built = []
    real_closed = feasibility.intersection_matrices_closed_form
    monkeypatch.setattr(feasibility, "intersection_matrices_closed_form",
                        lambda p, cand: built.append(cand) or real_closed(p, cand))
    monkeypatch.setattr(feasibility, "is_skew_symmetric", lambda s: True)

    def classify(counted):
        report = SimpleNamespace(ok=True, tensor=counted, transpose_map=[0, 4, 3, 2, 1])
        monkeypatch.setattr(feasibility, "require_scheme", lambda s, error, what: report)
        built.clear()
        return sf.classify_scheme(SimpleNamespace(n=57, d=4))

    assert str(classify(tensor)) == "srg (57, 14, 1, 4) type III z=27"
    with pytest.raises(sf.ClassificationError, match="matches no known closed form"):
        classify(bent)
    assert len(built) == 8


def test_classify_small_prime_powers():
    for q in (29, 37, 53):
        got = sf.classify_scheme(sf.cyclotomic_scheme(q, 4))
        assert got.family == "conference" and got.n == q
        assert [got.params["g"]] == [t.g for t in sf.two_squares(q)]


def _three_trial_matches(tensor, n):
    """The srg matches of classify's earlier search: types I and II, and type
    III at the z where p^2_(1,2), affine in z, meets the counted value (read
    off the type-I and type-II closed forms)."""
    found = []
    for sigma in feasibility._relabelings([0, 4, 3, 2, 1]):
        perm = feasibility._permuted_tensor(tensor, sigma)
        k, k2 = 2 * tensor.valencies[sigma[1]], 2 * tensor.valencies[sigma[2]]
        lam = sum(perm[i][j][1] for i in (1, 4) for j in (1, 4))
        mu = sum(perm[i][j][2] for i in (1, 4) for j in (1, 4))
        try:
            p = sf.srg_derive(n, k, lam, mu)
        except ValueError:
            continue
        if mu in (0, k) or not p.splittable():
            continue
        ends = {t: sf.intersection_matrices_closed_form(p, sf.make_candidate(p, t)).planes()
                for t in (TYPE_I, TYPE_II)}
        e1, e0 = ends[TYPE_I][1][2][2], ends[TYPE_II][1][2][2]
        z = Fraction(p.n * p.k2, p.m1) * (perm[1][2][2] - e0) / (e1 - e0)
        trials = [(t, sf.make_candidate(p, t).z, ends[t]) for t in (TYPE_I, TYPE_II)]
        if 0 < z < Fraction(p.n * p.k2, p.m1):
            try:
                trials.append((TYPE_III, z, sf.intersection_matrices_closed_form(
                    p, sf.make_candidate(p, TYPE_III, z)).planes()))
            except sf.InfeasibleError:
                pass
        found += [(p.quad(), t, z) for t, z, planes in trials if planes == perm]
    return found


def test_classify_solves_z_on_every_record_tensor(monkeypatch):
    """classify_scheme on the closed-form tensor of each scan_srg(1300) record
    builds one closed form per relabeling, from the solved z, and finds the
    matches of the earlier three-trial search, the record itself among them;
    it builds one character table, the returned match's.
    The complement's relabeling matches too, and classify keeps the side
    that srg_candidates lists first: 29 records classify as themselves and
    8 as their complement partner, the second-listed sides of the k = k2
    pairs, which are records too."""
    records = sf.scan_srg(1300)
    tensors = []
    for rec in records:
        p = sf.srg_derive(rec.n, rec.params["k"], rec.params["lam"], rec.params["mu"])
        cand = sf.make_candidate(p, rec.table_type, rec.z)
        tensors.append((rec, p, sf.intersection_matrices_closed_form(p, cand).tensor()))
    built, matched, tables = [], [], []
    real_closed, real_table = feasibility.intersection_matrices_closed_form, feasibility.character_table
    real_match = feasibility.Classification

    def match(**fields):
        c = real_match(**fields)
        quad = (c.n, c.params["k"], c.params["lam"], c.params["mu"])
        cand = sf.make_candidate(sf.srg_derive(*quad), c.table_type, c.z)
        matched.append((quad, cand.table_type, cand.z))
        return c

    monkeypatch.setattr(feasibility, "intersection_matrices_closed_form",
                        lambda p, cand: built.append(cand) or real_closed(p, cand))
    monkeypatch.setattr(feasibility, "Classification", match)
    monkeypatch.setattr(feasibility, "character_table", lambda p, cand: tables.append(
        (p.quad(), cand.table_type, cand.z)) or real_table(p, cand))
    monkeypatch.setattr(feasibility, "is_skew_symmetric", lambda s: True)
    key = lambda x: (x.n, x.params["k"], x.params["lam"], x.table_type, x.z)
    keys = [key(rec) for rec in records]
    partners = []
    for rec, p, tensor in tensors:
        report = SimpleNamespace(ok=True, tensor=tensor, transpose_map=[0, 4, 3, 2, 1])
        monkeypatch.setattr(feasibility, "require_scheme",
                            lambda s, error, what, report=report: report)
        built.clear()
        matched.clear()
        tables.clear()
        got = sf.classify_scheme(SimpleNamespace(n=p.n, d=4))
        assert len(built) <= 8
        assert (p.quad(), rec.table_type, sf.make_candidate(p, rec.table_type, rec.z).z) in matched
        assert matched == _three_trial_matches(tensor, p.n), p.quad()
        quad = (got.n, got.params["k"], got.params["lam"], got.params["mu"])
        assert len(tables) == 1 and tables[0][:2] == (quad, got.table_type) and tables[0] in matched
        assert got.family == "srg" and key(got) in keys
        if key(got) != key(rec):
            assert (got.params["k"], got.params["lam"]) < (rec.params["k"], rec.params["lam"])
            assert got.params["k"] == p.k == p.k2 and got.table_type == rec.table_type
            partners.append(p.n)
    assert len(records) == 37 and partners == [21, 301, 301, 301, 1197, 1197, 1221, 1221]


def test_classify_errors(j52):
    with pytest.raises(sf.ClassificationError):
        sf.classify_scheme(j52)  # 2-class
    sym4 = sf.cyclotomic_scheme(17, 4)  # 4-class but symmetric
    with pytest.raises(sf.ClassificationError):
        sf.classify_scheme(sym4)


def test_scan_srg_statuses_small():
    recs = sf.scan_srg(120)
    by_key = {(r.n, r.table_type, r.z): r.status for r in recs}
    assert by_key[(57, TYPE_III, 27)] == FEASIBLE
    assert by_key[(105, TYPE_III, 540)] == KREIN_EXCLUDED
    assert by_key[(21, TYPE_III, 28)] == KREIN_EXCLUDED


_TYPE_ORDER = {None: -1, TYPE_I: 0, TYPE_II: 1, TYPE_III: 2}


def _record_key(rec):
    """The key the scan driver once sorted every scanner's records by."""
    p = rec.params
    if rec.family == "conference":
        return (rec.n, -p["g"])
    if rec.family == "imprimitive":
        return (rec.n, p["f"])
    if rec.family == "johnson":
        return (p["v"], _TYPE_ORDER[rec.table_type], rec.z or -1)
    return (rec.n, p["k"], p["lam"], _TYPE_ORDER[rec.table_type], rec.z or -1)


@pytest.mark.parametrize("scanner,bound", [
    (sf.conference_scan, 325), (sf.conference_scan, 2000), (sf.scan_srg, 1300),
    (sf.scan_srg, 5000), (sf.imprimitive_scan, 100), (sf.imprimitive_scan, 600),
    (sf.johnson_scan, 200), (sf.johnson_scan, 400)])
def test_scan_lists_records_in_key_order(scanner, bound):
    """Records come out in the order of the units, and that is their order
    by the old sort key: n, then g descending, f, or (k, lam) with types
    I, II, III and increasing z; for the 2-subset family v, type and z."""
    keys = [_record_key(rec) for rec in scanner(bound)]
    assert keys == sorted(keys) and keys


def test_record_json_dict():
    rec = sf.fission_scan(sf.srg_derive(105, 26, 13, 4))[0]
    d = rec.to_dict()
    assert d["status"] == KREIN_EXCLUDED
    assert d["krein_value_approx"] < 0
    assert isinstance(d["krein_value"], list)
    assert d["character_table"]["kind"] == "surd"
