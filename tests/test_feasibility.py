import pytest

import skewfiss as sf
from skewfiss.exactnum import ComplexSurd, SurdSum, surd_sqrt
from skewfiss.feasibility import (
    FEASIBLE,
    INTEGRALITY_EXCLUDED,
    KREIN_EXCLUDED,
    _type3_z_candidates,
)
from skewfiss.spectra import TYPE_I, TYPE_II, TYPE_III
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


def test_fission_scan_rejects_conference():
    with pytest.raises(ValueError):
        sf.fission_scan(sf.srg_derive(13, 6, 2, 3))


def test_z_candidate_window():
    p = sf.srg_derive(57, 14, 1, 4)
    zs = list(_type3_z_candidates(p))
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


def test_classify_small_prime_powers():
    for q in (29, 37, 53):
        got = sf.classify_scheme(sf.cyclotomic_scheme(q, 4))
        assert got.family == "conference" and got.n == q
        assert [got.params["g"]] == [t.g for t in sf.two_squares(q)]


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


def test_scan_srg_threads_match():
    single = sf.scan_srg(300, threads=1)
    double = sf.scan_srg(300, threads=2)
    assert [(r.n, r.table_type, r.z, r.status) for r in single] == \
           [(r.n, r.table_type, r.z, r.status) for r in double]


def test_record_json_dict():
    rec = sf.fission_scan(sf.srg_derive(105, 26, 13, 4))[0]
    d = rec.to_dict()
    assert d["status"] == KREIN_EXCLUDED
    assert d["krein_value_approx"] < 0
    assert isinstance(d["krein_value"], list)
    assert d["character_table"]["kind"] == "surd"
