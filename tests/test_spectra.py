import dataclasses
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
import reference_closed_form as ref
from conference_numeric import conference_numeric_check

import skewfiss as sf
from skewfiss.exactnum import ComplexSurd, SurdSum, surd_sqrt
from skewfiss.spectra import (
    TYPE_I,
    TYPE_II,
    TYPE_III,
    end_types,
    p_values_from_table,
    type3_window,
)


def test_srg_derive_integer_cases():
    p = sf.srg_derive(57, 14, 1, 4)
    assert p.eig_ints() == (2, -5, -3, 4)
    assert (p.m1, p.m2) == (38, 18)

    p2 = sf.srg_derive(105, 26, 13, 4)
    assert p2.eig_ints() == (11, -2, -12, 1)
    assert (p2.m1, p2.m2) == (14, 90)


def test_srg_derive_conference():
    """Conference parameters have m1 = m2 = 6 and eigenvalues (-1 +- sqrt(13))/2:
    srg_derive refuses them and names the pseudocyclic table."""
    with pytest.raises(sf.InfeasibleError, match=r"conference_table\(q, g\)"):
        sf.srg_derive(13, 6, 2, 3)


def test_srg_derive_refuses_every_conference_set():
    """(4t+1, 2t, t-1, t) for t = 1..50, the squares n = 9, 25, 49, 81 and 121,
    whose eigenvalues are integers, among them."""
    assert {9, 25, 49, 81, 121} <= {4 * t + 1 for t in range(1, 51)}
    for t in range(1, 51):
        with pytest.raises(sf.InfeasibleError, match=r"conference_table\(q, g\)"):
            sf.srg_derive(4 * t + 1, 2 * t, t - 1, t)


def _quads_up_to(n_max: int) -> list[tuple]:
    """Every (n, k, lam, mu) with n <= n_max that passes srg_derive's parameter
    checks: 0 < k < n-1, 0 <= lam < k, 0 <= mu <= k and k(k-lam-1) = (n-k-1)mu."""
    quads = []
    for n in range(3, n_max + 1):
        for k in range(1, n - 1):
            for lam in range(k):
                mu, rest = divmod(k * (k - lam - 1), n - k - 1)
                if not rest and mu <= k:
                    quads.append((n, k, lam, mu))
    return quads


def test_srg_derive_equal_multiplicities_are_the_conference_sets():
    """Test-side oracle: the eigenvalues k > r > s of the 3x3 intersection
    matrix of (I, A, J-I-A), in floats, give m1 = (-k - (n-1)s)/(r-s) and
    m2 = n-1-m1.  They are equal exactly on conference_params(n); srg_derive
    refuses those, returns the oracle's integral spectra and rejects every other
    set as a plain ValueError."""
    quads = _quads_up_to(200)
    n, k, lam, mu = np.array(quads, dtype=float).T
    zero = np.zeros_like(n)
    mats = np.stack([np.stack([zero, k, zero], 1), np.stack([zero + 1, lam, k - lam - 1], 1),
                     np.stack([zero, mu, k - mu], 1)], 1)
    s, r, _ = np.sort(np.linalg.eigvals(mats).real, axis=1).T
    m1 = (-k - (n - 1) * s) / (r - s)
    m2 = n - 1 - m1
    integral = (np.abs(m1 - np.round(m1)) < 1e-6) & (np.abs(r - np.round(r)) < 1e-6)
    conference = accepted = 0
    for quad, x1, x2, x, y, whole in zip(quads, m1, m2, r, s, integral):
        is_conference = quad[0] % 4 == 1 and quad == sf.conference_params(quad[0])
        assert (abs(x1 - x2) < 1e-6) == is_conference, quad
        if is_conference:
            conference += 1
            with pytest.raises(sf.InfeasibleError, match="conference_table"):
                sf.srg_derive(*quad)
        elif whole:
            accepted += 1
            p = sf.srg_derive(*quad)
            assert (p.m1, p.m2) == (round(x1), round(x2)) and p.m1 != p.m2, quad
            assert p.eig_ints()[:2] == (round(x), round(y)), quad
        else:
            with pytest.raises(ValueError) as exc:
                sf.srg_derive(*quad)
            assert not isinstance(exc.value, sf.InfeasibleError), quad
    assert (len(quads), conference, accepted) == (57957, 49, 1818)


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
    petersen = sf.srg_derive(10, 3, 0, 1)  # k = 3 is odd: no split halves it
    with pytest.raises(sf.InfeasibleError):
        sf.character_table(petersen, sf.make_candidate(petersen, TYPE_I))
    p = sf.srg_derive(57, 14, 1, 4)
    with pytest.raises(ValueError):
        sf.make_candidate(p, TYPE_III)  # no z
    with pytest.raises(ValueError):
        sf.make_candidate(p, TYPE_I, z=5)
    with pytest.raises(ValueError):
        sf.make_candidate(p, "IV")
    for z in (0, Fraction(p.n * p.k2, p.m1), -1, 100):  # the ends and beyond
        with pytest.raises(sf.InfeasibleError):
            sf.make_candidate(p, TYPE_III, z)


def test_ends_of_z_range_are_types_1_and_2():
    """make_candidate gives type II z = 0 and type I z = n*k2/m1, the ends of
    the range whose inside is type III; a candidate is its type and z."""
    for p in _splittable_params():
        assert sf.make_candidate(p, TYPE_II).z == 0
        assert sf.make_candidate(p, TYPE_I).z == Fraction(p.n * p.k2, p.m1)
    p = sf.srg_derive(57, 14, 1, 4)
    assert sf.make_candidate(p, TYPE_III, 27) == sf.FissionCandidate(TYPE_III, Fraction(27))
    assert [f.name for f in dataclasses.fields(sf.FissionCandidate)] == ["table_type", "z"]


def test_balance_identity_on_every_window_z():
    """m1^2*y*z = m2^2*b*c, exactly, at every type3_window z of every
    splittable set up to 1300 and of the 2-subset sets v = 3 mod 4 up to 200."""
    srg = [p for p in sf.srg_candidates(1300) if p.splittable()]
    johnson = [sf.srg_derive(*sf.johnson2_params(v)) for v in range(7, 201, 4)]
    tried = 0
    for p in srg + johnson:
        for z in type3_window(p.forms):
            y, b, c = sf.type3_auxiliary(p, z)
            assert y > 0 and b > 0 and c > 0, (p.quad(), z)
            assert p.m1 ** 2 * y * z == p.m2 ** 2 * b * c, (p.quad(), z)
            tried += 1
    assert tried == 3360 + 1225  # the srg sets' window z, then the 2-subset sets'


def _splittable_params():
    """Every splittable set of srg_candidates(1300), the 2-subset family
    v = 3 mod 4 up to 200 and the imprimitive family fg <= 1000."""
    srg = [p for p in sf.srg_candidates(1300)
           if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)]
    johnson = [sf.srg_derive(*sf.johnson2_params(v)) for v in range(7, 201, 4)]
    imprimitive = [sf.srg_derive(f * g, f - 1, f - 2, 0) for f in range(3, 334, 4)
                   for g in range(3, 1000 // f + 1, 4)]
    return srg + johnson + imprimitive


def test_types_1_and_2_match_their_own_formulas():
    """Types I and II built as type III at z = n*k2/m1 and z = 0 give the
    tables and closed forms of their own formulas on 1115 parameter sets."""
    params = _splittable_params()
    assert len(params) == 1115
    for p in params:
        for table_type in (TYPE_I, TYPE_II):
            cand = sf.make_candidate(p, table_type)
            cf = sf.intersection_matrices_closed_form(p, cand)
            assert (cf.b1, cf.b2) == ref.closed_form(p, table_type), (p.quad(), table_type)
            assert sf.character_table(p, cand).entries == ref.table_entries(p, table_type), \
                (p.quad(), table_type)


def test_form_table_equals_three_point_forms():
    """Every entry form read from the coefficient table equals the frozen
    three-point forms (the closed form's own formula where Gamma, Phi and
    Pi are integers), on the 1115 sets above and on all 3421 splittable
    sets up to 5000."""
    params = _splittable_params()
    up_to_5000 = [p for p in sf.srg_candidates(5000) if p.splittable()]
    assert (len(params), len(up_to_5000)) == (1115, 3421)
    for p in params + up_to_5000:
        assert list(p.forms) == ref._principal_forms(p), p.quad()


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


@pytest.mark.parametrize("qg", [(13, -3), (325, 17), (325, -15), (1885, -43)])
def test_conjugates_equal_constructed_entries(qg):
    """conjugate() skips the radicand check but builds the same entry."""
    for e in {e for row in sf.conference_table(*qg).entries for e in row}:
        sign = e.im_sign
        built = sf.ConferenceEntry(e.a, e.b, e.c, e.e, e.q, -sign)
        conj = e.conjugate()
        assert type(conj) is sf.ConferenceEntry and conj is not e and e.im_sign == sign
        assert conj == built and hash(conj) == hash(built) and str(conj) == str(built)
        assert conj.conjugate() == e
    with pytest.raises(ValueError, match="negative radical argument"):
        sf.ConferenceEntry(Fraction(0), Fraction(0), Fraction(-1), Fraction(0), 13)
    with pytest.raises(ValueError, match="negative radical argument"):
        sf.ConferenceEntry(Fraction(0), Fraction(0), Fraction(1), Fraction(-1), 13, -1)


def test_closed_form_type3_57():
    p = sf.srg_derive(57, 14, 1, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 27))
    y, _, _ = sf.type3_auxiliary(p, 27)
    assert y * 27 == 18 ** 2
    assert ref._gamma_phi_pi(p, 27, 18) == (-4788, 4788, -798)  # Gamma, Phi, Pi
    assert cf.b1[1][1:] == (0, 2, 0, 1)
    assert cf.b1[0] == (0, 1, 0, 0, 0) and [row[0] for row in cf.b1] == [0, 0, 0, 0, 7]
    cf.tensor()  # every entry is a nonnegative integer


def test_closed_form_imprimitive_f3():
    p = sf.srg_derive(21, 2, 1, 0)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_I))
    assert [list(r[1:]) for r in cf.b1[1:]] == [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0],
                                               [0, 0, 0, 0]]


def test_closed_form_105_all_integer():
    p = sf.srg_derive(105, 26, 13, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 540))
    cf.tensor()  # every entry is a nonnegative integer


def test_closed_form_rejects_irrational_sqrt():
    p = sf.srg_derive(57, 14, 1, 4)
    with pytest.raises(sf.InfeasibleError):
        sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 26))


def test_type3_large_prime_z_returns_promptly():
    """No radicand is factored for a type-III z: a z whose numerator and
    denominator are large primes is settled by exact rational identities."""
    p = sf.srg_derive(57, 14, 1, 4)
    z = Fraction(10**9 + 7, 10**9 + 9)

    def expire(signum, frame):
        raise TimeoutError("type-III candidate took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        cand = sf.make_candidate(p, TYPE_III, z)
        with pytest.raises(sf.InfeasibleError):
            sf.intersection_matrices_closed_form(p, cand)  # y*z is not a square
        y, b, c = sf.type3_auxiliary(p, z)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert p.m1 ** 2 * y * z == p.m2 ** 2 * b * c


def test_type3_large_prime_z_table_returns_promptly():
    """character_table factors the numerators and denominators of z, y, b
    and c one at a time, so trial division stops at the cube root of the
    larger, not of their product (about 10^8 divisions for this z)."""
    p = sf.srg_derive(57, 14, 1, 4)
    top, bottom = 10**12 + 39, 10**12 + 61  # both prime
    z = Fraction(top, bottom)

    def expire(signum, frame):
        raise TimeoutError("type-III table took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        t = sf.character_table(p, sf.make_candidate(p, TYPE_III, z))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # tau = (t + i sqrt(z))/2 with sqrt(z) = sqrt(top * bottom) / bottom
    assert t.entry(1, 2).im == surd_sqrt(top * bottom) / (2 * bottom)
    sf.check_orthogonality(t)


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
        if tensor == cf.tensor():
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


def _gate_passes(p, table_type) -> bool:
    """The frozen type-I/II closed form has only nonnegative integer entries."""
    return ref.is_integral(ref.closed_form(p, table_type))


def test_corollary_filters():
    """The test-side corollary keeps its verdicts, and the ends test agrees
    with the closed-form gate on the same sets."""
    p729 = sf.srg_derive(729, 182, 55, 42)
    assert ref.corollary_filters(p729, TYPE_I).passed
    assert end_types(p729.forms) == [TYPE_I] and _gate_passes(p729, TYPE_I)
    # 2-subset parameters at v = 3 mod 4: lam + s = v - 4 = 3 mod 4
    for v in (7, 11, 15):
        p = sf.srg_derive(*sf.johnson2_params(v))
        res = ref.corollary_filters(p, TYPE_I)
        assert not res.passed
        assert any("lam + s" in r for r in res.reasons)
        assert TYPE_I not in end_types(p.forms) and not _gate_passes(p, TYPE_I)
    with pytest.raises(ValueError):
        ref.corollary_filters(p729, TYPE_III)


def test_corollary_never_rejects_fully_integral():
    """On every splittable set up to n = 5000 the ends test passes exactly
    the types I and II whose reference closed form passes the gate, and the
    test-side corollary never rejects one of them."""
    sets = [p for p in sf.srg_candidates(5000) if p.splittable()]
    corollary = {TYPE_I: 0, TYPE_II: 0}
    gated = {TYPE_I: 0, TYPE_II: 0}
    for p in sets:
        ends = end_types(p.forms)
        for typ in (TYPE_I, TYPE_II):
            passes, corollary_passes = _gate_passes(p, typ), ref.corollary_filters(p, typ).passed
            assert (typ in ends) == passes, (p.quad(), typ)
            assert corollary_passes or not passes, (p.quad(), typ)
            corollary[typ] += corollary_passes
            gated[typ] += passes
    assert len(sets) == 3421
    assert corollary == {TYPE_I: 44, TYPE_II: 81} and gated == {TYPE_I: 27, TYPE_II: 29}


def test_end_types_fractional_type_i_end_exact():
    """srg(925, 374, 123, 170) has its type-I end at z = 10175/17.  There 28 of
    the 32 principal entries are nonnegative integers and four are 1250/17 or
    1300/17, so type I must be rejected on the exact fraction."""
    p = sf.srg_derive(925, 374, 123, 170)
    assert Fraction(p.n * p.k2, p.m1) == Fraction(10175, 17)
    assert end_types(p.forms) == []
    closed = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_I))
    with pytest.raises(sf.InfeasibleError) as exc:
        closed.tensor()
    assert exc.value.where == (2, 2, 1) and exc.value.value == Fraction(1250, 17)
    principal = [x for b in (closed.b1, closed.b2) for row in b[1:] for x in row[1:]]
    bad = [x for x in principal if x.denominator != 1 or x < 0]
    assert sorted(bad) == [Fraction(1250, 17)] * 2 + [Fraction(1300, 17)] * 2


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
        except ValueError:  # conference parameters among them
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


def test_closed_form_planes_match_eq1_values_even_when_non_integral():
    """v = 11, z = 176: entries are half-integers but both derivations agree."""
    p = sf.srg_derive(55, 18, 9, 4)
    cand = sf.make_candidate(p, TYPE_III, 176)
    cf = sf.intersection_matrices_closed_form(p, cand)
    with pytest.raises(sf.InfeasibleError):
        cf.tensor()
    rational = cf.planes()
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
    """tensor() gates the same completed planes that planes() returns."""
    p = sf.srg_derive(55, 18, 9, 4)
    cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, 176))
    with pytest.raises(sf.InfeasibleError) as info:
        cf.tensor()
    i, j, l = info.value.where
    assert cf.planes()[i][j][l] == info.value.value
    assert info.value.value.denominator != 1


def test_closed_form_tensor_rejects_a_fraction_entry():
    """A ClosedForm of any family with one Fraction entry fails the gate there."""
    cf = sf.cyc4_closed_form(13, -3, 1)
    b1 = [list(row) for row in cf.b1]
    b1[1][1] = Fraction(1, 2)
    with pytest.raises(sf.InfeasibleError) as info:
        sf.ClosedForm(b1=b1, b2=cf.b2, valencies=cf.valencies).tensor()
    assert info.value.where == (1, 1, 1)
    assert info.value.value == Fraction(1, 2)


def test_closed_form_tensor_gates_entries_beyond_int64():
    """Entries past int64 take the Python-int path of the same gate."""
    cf = sf.cyc4_closed_form(13, -3, 1)
    b1 = [list(row) for row in cf.b1]
    b1[1][1] = 2**70
    tensor = sf.ClosedForm(b1=b1, b2=cf.b2, valencies=cf.valencies).tensor()
    assert tensor.p[1][1][1] == 2**70 and type(tensor.p[1][1][1]) is int
    b1[1][1] = 2**70 + Fraction(1, 2)
    with pytest.raises(sf.InfeasibleError) as info:
        sf.ClosedForm(b1=b1, b2=cf.b2, valencies=cf.valencies).tensor()
    assert info.value.where == (1, 1, 1)
    assert info.value.value == 2**70 + Fraction(1, 2)
    assert str(info.value) == f"p^1_(1,1) = {2**71 + 1}/2 is not a nonnegative integer"
