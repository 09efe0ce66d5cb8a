import random
from fractions import Fraction

import pytest

import skewfiss as sf
from skewfiss.exactnum import ComplexSurd, SurdSum, surd_sqrt
from skewfiss.spectra import (
    TYPE_I,
    TYPE_II,
    TYPE_III,
    assemble_tensor,
    conference_numeric_check,
    p_values_from_table,
)


def test_srg_derive_integer_cases():
    p = sf.srg_derive(57, 14, 1, 4)
    assert p.eig_ints() == (2, -5, -3, 4)
    assert (p.m1, p.m2) == (38, 18)
    assert not p.conference

    p2 = sf.srg_derive(105, 26, 13, 4)
    assert p2.eig_ints() == (11, -2, -12, 1)
    assert (p2.m1, p2.m2) == (14, 90)


def test_srg_derive_conference():
    p = sf.srg_derive(13, 6, 2, 3)
    assert p.conference and p.m1 == p.m2 == 6
    assert p.r == (SurdSum(-1) + surd_sqrt(13)) / 2
    assert p.s == (SurdSum(-1) - surd_sqrt(13)) / 2
    with pytest.raises(sf.InfeasibleError):
        p.eig_ints()


def test_srg_derive_errors():
    with pytest.raises(ValueError):
        sf.srg_derive(21, 8, 3, 4)  # counting identity fails
    with pytest.raises(ValueError):
        sf.srg_derive(15, 7, 3, 3)  # multiplicities not integral
    with pytest.raises(ValueError):
        sf.srg_derive(10, 9, 0, 3)  # k = n-1
    with pytest.raises(ValueError):
        sf.srg_derive(10, 3, 3, 1)  # lam >= k


def test_type3_auxiliary_example():
    p = sf.srg_derive(57, 14, 1, 4)
    y, b, c = sf.type3_auxiliary(p, 27)
    assert (y, b, c) == (12, 19, 76)
    assert p.m1 * y + p.m2 * b == p.n * p.k
    assert p.m1 * 27 + p.m2 * c == p.n * p.k2
    with pytest.raises(sf.InfeasibleError):
        sf.type3_auxiliary(p, Fraction(p.n * p.k2, p.m1))  # c = 0 at the boundary
    with pytest.raises(sf.InfeasibleError):
        sf.type3_auxiliary(p, 0)


def test_type3_auxiliary_rational_z_randomized():
    rng = random.Random(7)
    p = sf.srg_derive(105, 26, 13, 4)
    zmax = Fraction(p.n * p.k2, p.m1)
    for _ in range(50):
        z = Fraction(rng.randint(1, 10 * p.n), rng.randint(1, 10))
        if not 0 < z < zmax:
            continue
        y, b, c = sf.type3_auxiliary(p, z)
        assert p.m1 * y + p.m2 * b == p.n * p.k
        assert p.m1 * z + p.m2 * c == p.n * p.k2
        assert p.m1 * surd_sqrt(y * z) == p.m2 * surd_sqrt(b * c)


def test_type3_441_row():
    p = sf.srg_derive(441, 110, 19, 30)
    y, b, c = sf.type3_auxiliary(p, 252)
    assert (y, b, c) == (63, 252, 567)
    assert surd_sqrt(y * 252).is_rational()
    assert surd_sqrt(b * c).is_rational()


def test_character_table_type1_729():
    p = sf.srg_derive(729, 182, 55, 42)
    t = sf.character_table(p, sf.make_candidate(p, TYPE_I))
    rho, tau = t.entry(1, 1), t.entry(1, 2)
    sigma, omega = t.entry(2, 1), t.entry(2, 2)
    assert rho == ComplexSurd(10, 0)
    assert sigma == ComplexSurd(Fraction(-7, 2), Fraction(9, 2) * surd_sqrt(3))
    assert tau == ComplexSurd(Fraction(-21, 2), Fraction(27, 2) * surd_sqrt(3))
    assert omega == ComplexSurd(3, 0)
    sf.check_orthogonality(t)


def test_character_table_imprimitive_3_7():
    p = sf.srg_derive(21, 2, 1, 0)
    t = sf.character_table(p, sf.make_candidate(p, TYPE_I))
    assert t.entry(2, 1) == ComplexSurd(Fraction(-1, 2), Fraction(1, 2) * surd_sqrt(3))
    assert t.entry(1, 2) == ComplexSurd(Fraction(-3, 2), Fraction(3, 2) * surd_sqrt(7))
    sf.check_orthogonality(t)


def test_character_table_type3_57():
    p = sf.srg_derive(57, 14, 1, 4)
    t = sf.character_table(p, sf.make_candidate(p, TYPE_III, 27))
    assert t.entry(1, 1) == ComplexSurd(1, surd_sqrt(3))          # (2 + sqrt(-12))/2
    assert t.entry(1, 2) == ComplexSurd(Fraction(-3, 2), Fraction(3, 2) * surd_sqrt(3))
    assert t.entry(2, 1) == ComplexSurd(Fraction(-5, 2), Fraction(1, 2) * surd_sqrt(19))
    assert t.entry(2, 2) == ComplexSurd(2, -surd_sqrt(19))        # (4 - sqrt(-76))/2
    sf.check_orthogonality(t)


def test_character_table_errors():
    conf = sf.srg_derive(13, 6, 2, 3)
    with pytest.raises(sf.InfeasibleError):
        sf.character_table(conf, sf.FissionCandidate(TYPE_I))
    p = sf.srg_derive(57, 14, 1, 4)
    with pytest.raises(sf.InfeasibleError):
        sf.character_table(p, sf.FissionCandidate(TYPE_III))  # no z
    with pytest.raises(ValueError):
        sf.make_candidate(p, TYPE_I, z=5)


def test_conference_table_values():
    t5 = sf.conference_table(5, 1)
    rho = t5.entry(1, 1)
    assert 2 * rho.real_surd() == (SurdSum(-1) + surd_sqrt(5)) / 2
    t13 = sf.conference_table(13, -3)
    assert t13.valencies[1] == 3
    tau = t13.entry(1, 2)
    assert 2 * tau.real_surd() == (SurdSum(-1) - surd_sqrt(13)) / 2
    sf.check_orthogonality(t13)
    with pytest.raises(ValueError):
        sf.conference_table(9, 1)  # 9 = 1 mod 8
    with pytest.raises(ValueError):
        sf.conference_table(13, 1)  # 13 - 1 is not 4h^2


def test_conference_entry_conjugation():
    t = sf.conference_table(13, -3)
    rho = t.entry(1, 1)
    assert rho.conjugate().im_sign == -rho.im_sign
    assert rho.conjugate().conjugate() == rho
    assert rho.imag_radicand().sign() > 0


def test_closed_form_type3_57():
    p = sf.srg_derive(57, 14, 1, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 27))
    assert cf.aux["pi"] == -798
    assert cf.aux["phi"] == 4788
    assert cf.aux["gamma"] == -4788
    assert cf.b1[0] == (0, 2, 0, 1)
    assert cf.all_nonneg_integers()


def test_closed_form_imprimitive_f3():
    p = sf.srg_derive(21, 2, 1, 0)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_I))
    assert [list(r) for r in cf.b1] == [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]


def test_closed_form_105_all_integer():
    p = sf.srg_derive(105, 26, 13, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 540))
    assert cf.all_nonneg_integers()


def test_closed_form_rejects_irrational_sqrt():
    p = sf.srg_derive(57, 14, 1, 4)
    with pytest.raises(sf.InfeasibleError):
        sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 26))


def test_closed_form_column_sums():
    """Columns of each completed B_i must sum to the class valency."""
    cases = [
        (sf.srg_derive(57, 14, 1, 4), sf.make_candidate(sf.srg_derive(57, 14, 1, 4), TYPE_III, 27)),
        (sf.srg_derive(729, 182, 55, 42), None),
    ]
    for p, cand in cases:
        if cand is None:
            cand = sf.make_candidate(p, TYPE_I)
        T = sf.intersection_matrices_closed_form(p, cand).tensor()
        for i in range(5):
            for k in range(5):
                assert sum(T[i, j, k] for j in range(5)) == T.valencies[i]


def test_p_from_table_thin_z5():
    """The 5-point pseudocyclic table reproduces a cyclic-group tensor."""
    table = sf.conference_table(5, 1)
    tensor = sf.p_from_table(table)
    assert tensor.valencies == (1, 1, 1, 1, 1)
    matched = False
    for hh in (1, -1):
        cf = sf.cyc4_closed_form(5, 1, hh)
        if tensor == assemble_tensor(cf.b1, cf.b2, (1, 1, 1, 1, 1)):
            matched = True
    assert matched
    # every product of permutation relations is a single relation
    assert all(tensor[i, j, k] in (0, 1) for i in range(5) for j in range(5) for k in range(5))


def test_p_from_table_agrees_with_closed_form_57():
    p = sf.srg_derive(57, 14, 1, 4)
    cand = sf.make_candidate(p, TYPE_III, 27)
    table = sf.character_table(p, cand)
    assert sf.p_from_table(table) == sf.intersection_matrices_closed_form(p, cand).tensor()


def test_surd_tables_multiply_through_complex_surd(monkeypatch):
    """The eigenvalue identity on a surd table runs on ComplexSurd products."""
    calls = []
    mul = ComplexSurd.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ComplexSurd, "__mul__", counted)
    monkeypatch.setattr(ComplexSurd, "__rmul__", counted)
    p = sf.srg_derive(57, 14, 1, 4)
    table = sf.character_table(p, sf.make_candidate(p, TYPE_III, 27))
    sf.p_from_table(table)
    sf.q_from_table(table)
    assert calls


def test_p_from_table_rejects_johnson_type2():
    p = sf.srg_derive(21, 10, 5, 4)
    table = sf.character_table(p, sf.make_candidate(p, TYPE_II))
    with pytest.raises(sf.InfeasibleError):
        sf.p_from_table(table)


def test_q_from_table_krein_negative_105():
    p = sf.srg_derive(105, 26, 13, 4)
    table = sf.character_table(p, sf.make_candidate(p, TYPE_III, 540))
    negs = sf.q_from_table(table).negatives()
    assert negs, "expected a negative Krein number"
    for (_, value) in negs:
        assert value.sign() < 0


def test_q_from_table_thin_z5_nonnegative():
    table = sf.conference_table(5, 1)
    assert sf.q_from_table(table).negatives() == []


def test_q_from_table_johnson_witness():
    """v = 7, z = 28: q^3_(1,1) = (9 - 3*sqrt(21))/25 exactly."""
    p = sf.srg_derive(21, 10, 5, 4)
    table = sf.character_table(p, sf.make_candidate(p, TYPE_III, 28))
    q311 = sf.q_from_table(table)[1, 1, 3]
    expected = (SurdSum(9) - 3 * surd_sqrt(21)) / 25
    assert q311 == expected
    assert q311.sign() == -1


def test_corollary_filters():
    assert sf.corollary_filters(sf.srg_derive(729, 182, 55, 42), TYPE_I).passed
    conf = sf.srg_derive(13, 6, 2, 3)
    res = sf.corollary_filters(conf, TYPE_I)
    assert not res.passed and "not integers" in res.reasons[0]
    # 2-subset parameters at v = 3 mod 4: lam + s = v - 4 = 3 mod 4
    for v in (7, 11, 15):
        p = sf.srg_derive(*sf.johnson2_params(v))
        res = sf.corollary_filters(p, TYPE_I)
        assert not res.passed
        assert any("lam + s" in r for r in res.reasons)
    with pytest.raises(ValueError):
        sf.corollary_filters(sf.srg_derive(729, 182, 55, 42), TYPE_III)


def test_corollary_never_rejects_fully_integral():
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        r = rng.randint(1, 12)
        m = rng.randint(1, 12)
        mu = rng.randint(1, 40)
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
        except ValueError:
            continue
        if p.conference:
            continue
        checked += 1
        for typ in (TYPE_I, TYPE_II):
            cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, typ))
            if cf.all_nonneg_integers():
                assert sf.corollary_filters(p, typ).passed


def test_conference_numeric_diagnostic():
    for q, g in ((13, -3), (45, -3), (125, -11)):
        table = sf.conference_table(q, g)
        tensor = sf.p_from_table(table)
        dev = conference_numeric_check(table, tensor, tol=1e-9)
        assert dev < 1e-9


def test_two_class_krein_inequalities_vs_tensor():
    """The classical 2-class Krein bounds agree with the generic q-tensor."""
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        r = rng.randint(1, 9)
        m = rng.randint(1, 9)
        mu = rng.randint(1, 25)
        k = mu + r * m
        lam = mu + r - m
        if lam < 0 or mu >= k:
            continue
        num = k * (k - lam - 1)
        if num % mu:
            continue
        n = 1 + k + num // mu
        try:
            p = sf.srg_derive(n, k, lam, mu)
        except ValueError:
            continue
        if p.conference:
            continue
        checked += 1
        s = -m
        ineq_ok = ((r + 1) * (k + r + 2 * r * s) <= (k + r) * (s + 1) ** 2
                   and (s + 1) * (k + s + 2 * r * s) <= (k + s) * (r + 1) ** 2)
        one = ComplexSurd(1, 0)
        rows = (
            (one, ComplexSurd(k, 0), ComplexSurd(p.k2, 0)),
            (one, ComplexSurd(r, 0), ComplexSurd(p.t, 0)),
            (one, ComplexSurd(s, 0), ComplexSurd(p.u, 0)),
        )
        table = sf.CharacterTable(
            entries=rows,
            multiplicities=(Fraction(1), Fraction(p.m1), Fraction(p.m2)),
            valencies=(Fraction(1), Fraction(k), Fraction(p.k2)),
            n=n, kind="surd")
        tensor_ok = sf.q_from_table(table).negatives() == []
        assert ineq_ok == tensor_ok


def test_rational_tensor_matches_eq1_values_even_when_non_integral():
    """v = 11, z = 176: entries are half-integers but both derivations agree."""
    p = sf.srg_derive(55, 18, 9, 4)
    cand = sf.make_candidate(p, TYPE_III, 176)
    cf = sf.intersection_matrices_closed_form(p, cand)
    assert not cf.all_nonneg_integers()
    rational = cf.rational_tensor()
    values = p_values_from_table(sf.character_table(p, cand))
    for i in range(5):
        for j in range(5):
            for l in range(5):
                assert values[i][j][l] == SurdSum(rational[i][j][l])
    assert rational[2][2][2] == Fraction(7, 2)


def test_table_json_round_trip_shapes():
    p = sf.srg_derive(57, 14, 1, 4)
    t = sf.character_table(p, sf.make_candidate(p, TYPE_III, 27))
    d = t.to_json_dict()
    assert d["kind"] == "surd" and len(d["entries"]) == 5
    t2 = sf.conference_table(13, -3)
    d2 = t2.to_json_dict()
    assert d2["kind"] == "conference"
    assert d2["entries"][1][1]["q"] == 13


def test_closed_form_tensor_names_first_non_integral_entry():
    """tensor() gates the same completed planes that rational_tensor() returns."""
    p = sf.srg_derive(55, 18, 9, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 176))
    with pytest.raises(sf.InfeasibleError) as info:
        cf.tensor()
    i, j, l = info.value.where
    assert cf.rational_tensor()[i][j][l] == info.value.value
    assert info.value.value.denominator != 1


def test_assemble_tensor_rejects_non_integral_entries():
    cf = sf.cyc4_closed_form(13, -3, 1)
    b1 = [list(row) for row in cf.b1]
    b1[1][1] = Fraction(1, 2)
    with pytest.raises(sf.InfeasibleError) as info:
        assemble_tensor(b1, cf.b2, (1, 3, 3, 3, 3))
    assert info.value.where == (1, 1, 1)
