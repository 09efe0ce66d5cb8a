import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

import skewfiss as sf
from skewfiss.constructions import field_build, is_prime, prime_power


def test_field_build_prime():
    f13 = field_build(13, 1)
    assert f13.primitive == 2
    assert f13.q == 13
    assert sorted(f13.exp) == list(range(1, 13))


def test_field_build_extension():
    f125 = field_build(5, 3)
    assert f125.q == 125
    assert len(f125.modulus) == 4 and f125.modulus[-1] == 1
    # exp table enumerates the whole multiplicative group
    assert sorted(f125.exp) == list(range(1, 125))
    # multiplicative order of the primitive element is exactly 124
    assert f125.exp[0] == 1 and 1 not in f125.exp[1:]


def test_field_build_gf2():
    """1 generates GF(2)*, so GF(2) has primitive 1 and one-entry tables."""
    f2 = field_build(2, 1)
    assert (f2.q, f2.modulus, f2.primitive) == (2, (0, 1), 1)
    assert f2.exp == (1,) and f2.log == (0, 0)


def test_field_build_errors():
    with pytest.raises(ValueError):
        field_build(4, 1)
    with pytest.raises(ValueError):
        field_build(2, 21)  # beyond the size cap


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    assert prime_power(125) == (5, 3)
    assert prime_power(12) is None


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * (20000 - 2)
    for d in range(2, isqrt(20000 - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n, prime in enumerate(sieve) if prime]
    assert is_prime(999983)
    assert not is_prime(999985) and not is_prime(1018081)  # 1018081 = 1009^2


def test_cyc_skew_predicate():
    assert sf.cyc_skew_predicate(13, 1)
    assert not sf.cyc_skew_predicate(5, 2)  # 25 = 1 mod 8
    assert sf.cyc_skew_predicate(5, 3)  # 125 = 5 mod 8, odd degree
    with pytest.raises(ValueError):
        sf.cyc_skew_predicate(6, 1)


def test_cyclotomic_scheme_cases(cyc13):
    assert cyc13.n == 13 and cyc13.d == 4
    assert sf.is_skew_symmetric(cyc13)

    thin = sf.cyclotomic_scheme(5, 4)
    assert sf.intersection_tensor(thin).valencies == (1, 1, 1, 1, 1)

    paley = sf.cyclotomic_scheme(13, 2)
    T = sf.intersection_tensor(paley)
    assert T.valencies == (1, 6, 6)
    assert T[1, 1, 1] == 2 and T[1, 1, 2] == 3

    with pytest.raises(ValueError):
        sf.cyclotomic_scheme(13, 5)  # 5 does not divide 12
    with pytest.raises(ValueError):
        sf.cyclotomic_scheme(12, 2)  # not a prime power


@pytest.mark.parametrize("d", [0, -1])
def test_cyclotomic_class_count_below_one(d, monkeypatch):
    """d < 1 is a ValueError raised before GF(q) is built, not a
    ZeroDivisionError from (q - 1) % d or a field built for nothing."""
    import skewfiss.constructions as constructions

    def unreachable(*args):
        raise AssertionError("GF(q) built for a class count below 1")

    monkeypatch.setattr(constructions, "prime_power", unreachable)
    monkeypatch.setattr(constructions, "field_build", unreachable)
    with pytest.raises(ValueError, match="class count"):
        sf.cyclotomic_scheme(13, d)
    with pytest.raises(ValueError, match="class count"):
        sf.cyclotomic_number(13, d, 1, 1)


def test_builders_refuse_oversize_before_allocating(monkeypatch):
    """Every builder's first step that grows with n raises instead, so an
    oversize request must be refused before it."""
    import skewfiss.constructions as constructions

    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(constructions, "field_build", unreachable)
    monkeypatch.setattr(constructions, "_class_lookup", unreachable)
    monkeypatch.setattr(np, "kron", unreachable)
    monkeypatch.setattr(np, "triu_indices", unreachable)
    with pytest.raises(sf.SchemeError, match=r"^point count 65537 outside 1\.\.65535$"):
        sf.cyclotomic_scheme(65537, 2)
    with pytest.raises(sf.SchemeError, match=r"^class count 256 outside 0\.\.255$"):
        sf.cyclotomic_scheme(257, 256)
    block = sf.AssociationScheme(1 - np.eye(257, dtype=np.int16))  # 257 * 257 = 66049 points
    with pytest.raises(sf.SchemeError, match=r"^point count 66049 outside 1\.\.65535$"):
        sf.wreath(block, block)
    with pytest.raises(sf.SchemeError, match=r"^point count 65703 outside 1\.\.65535$"):
        sf.johnson2_scheme(363)  # 363 * 362 / 2 points


def test_cyclotomic_number_above_max_points():
    """cyclotomic_number builds no q x q table, so q > 65535 still works:
    (0, 0) of order 2 is (q - 5)/4 for q = 1 mod 4."""
    assert sf.cyclotomic_number(65537, 2, 0, 0) == (65537 - 5) // 4


def test_cyclotomic_number_examples():
    assert sf.cyclotomic_number(5, 2, 0, 0) == 0
    counts = [[sf.cyclotomic_number(13, 4, i, j) for j in range(4)] for i in range(4)]
    assert sum(sum(row) for row in counts) == 11  # q - 2
    f = 3
    for row in counts:
        assert sum(row) in (f - 1, f)


def test_cyclotomic_number_tensor_identity(cyc13):
    """Counted tensor entries equal the class counts, through the canonical
    reordering (positions 3 and 4 hold the third and fourth power classes
    swapped).  GF(125) makes 1 + s a digit-wise sum in an extension field."""
    pos_to_nat = [0, 1, 2, 4, 3]
    for q, scheme in ((13, cyc13), (125, sf.cyclotomic_scheme(125, 4))):
        T = sf.intersection_tensor(scheme)
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    ni, nj, nk = pos_to_nat[i], pos_to_nat[j], pos_to_nat[k]
                    assert T[i, j, k] == sf.cyclotomic_number(q, 4, (nj - ni) % 4, (nk - ni) % 4)


def test_two_squares():
    reps = sf.two_squares(85)
    assert [(t.g, t.h) for t in reps] == [(9, 1), (-7, 3)]
    assert [(t.g, t.h) for t in sf.two_squares(13)] == [(-3, 1)]
    assert sf.two_squares(21) == []
    assert sf.two_squares(1) == []
    with pytest.raises(ValueError):
        sf.two_squares(0)


def test_two_squares_even_m_is_empty():
    """g is odd, so an even m has no representation (and no ValueError)."""
    for m in (2, 4, 8, 20, 40, 52):
        assert sf.two_squares(m) == []


def test_two_squares_matches_brute_force():
    for m in range(1, 2001):
        brute = sorted(((g, h) for g in range(-isqrt(m), isqrt(m) + 1) if g % 4 == 1
                        for h in range(1, isqrt(m) + 1) if g * g + 4 * h * h == m),
                       key=lambda gh: -gh[0])
        assert [(t.g, t.h) for t in sf.two_squares(m)] == brute, m


def test_two_squares_invariant_survives_optimize():
    """The TwoSquares check is an explicit exception, so python -O keeps it."""
    with pytest.raises(ValueError):
        sf.TwoSquares(g=3, h=1, m=13)
    env = {**os.environ, "PYTHONPATH": str(Path(sf.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from skewfiss.constructions import TwoSquares; TwoSquares(g=3, h=1, m=13)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr


def test_two_squares_unique_for_primes():
    for q in range(5, 326, 8):
        if is_prime(q):
            assert len(sf.two_squares(q)) == 1


def _entries_a_to_e(cf) -> tuple:
    """A..E read off B1, whose row 1 is (0, A, B, D, C) and row 2 (0, E, E, B, D)."""
    (_, a, b, d, c), e = cf.b1[1], cf.b1[2][1]
    return a, b, c, d, e


def test_cyc4_closed_form_values():
    cf = sf.cyc4_closed_form(13, -3, 1)
    assert _entries_a_to_e(cf) == (0, 1, 2, 0, 1)
    cf5 = sf.cyc4_closed_form(5, 1, 1)
    assert _entries_a_to_e(cf5) == (0, 1, 0, 0, 0)
    # B1 of the 5-point case is a permutation matrix
    assert all(sum(row) == 1 for row in cf5.b1)
    assert all(sum(col) == 1 for col in zip(*cf5.b1))
    cf29 = sf.cyc4_closed_form(29, 5, 1)
    assert _entries_a_to_e(cf29) == (2, 3, 0, 2, 1)
    for col in zip(*cf29.b1):
        assert sum(col) == 7
    with pytest.raises(ValueError):
        sf.cyc4_closed_form(13, 1, 2)  # 1 + 16 != 13
    with pytest.raises(ValueError):
        sf.cyc4_closed_form(17, 1, 2)  # 17 = 1 mod 8


def test_counted_equals_closed_form(cyc13):
    T = sf.intersection_tensor(cyc13)
    cf = sf.cyc4_closed_form(13, -3, 1)
    assert cf.valencies == (1, 3, 3, 3, 3)
    assert T == cf.tensor()


def test_wreath_21_point(wreath_3_7, wreath_7_3):
    for scheme, f in ((wreath_3_7, 3), (wreath_7_3, 7)):
        assert scheme.n == 21 and scheme.d == 4
        assert sf.is_skew_symmetric(scheme)
        T = sf.intersection_tensor(scheme)
        assert sf.imprimitive_blocks(T) == [[0, 1, 4]]
        # block relation pair has valency (f-1)/2, the across-block pair the rest
        across = (21 - f) // 2
        assert T.valencies == (1, (f - 1) // 2, across, across, (f - 1) // 2)


def test_wreath_trivial_identity():
    trivial = sf.AssociationScheme([[0]])
    c7 = sf.cyclotomic_scheme(7, 2)
    assert sf.wreath(trivial, c7) == c7


def test_wreath_block_structure(wreath_3_7):
    rel = wreath_3_7.rel
    # first block = first 3 points: inner relations only
    assert set(int(rel[x, y]) for x in range(3) for y in range(3) if x != y) == {1, 4}
    # across blocks: outer relations only
    assert set(int(rel[x, y]) for x in range(3) for y in range(3, 21)) <= {2, 3}


def test_conference_params():
    assert sf.conference_params(13) == (13, 6, 2, 3)
    assert sf.conference_params(5) == (5, 2, 0, 1)
    assert sf.conference_params(45) == (45, 22, 10, 11)
    with pytest.raises(ValueError):
        sf.conference_params(7)


def test_johnson2_params():
    assert sf.johnson2_params(7) == (21, 10, 5, 4)
    assert sf.johnson2_params(5) == (10, 6, 3, 4)
    assert sf.johnson2_params(15) == (105, 26, 13, 4)
    with pytest.raises(ValueError):
        sf.johnson2_params(4)


def test_johnson2_scheme_tensor(j52):
    T = sf.intersection_tensor(j52)
    assert T.valencies == (1, 6, 3)
    assert T[1, 1, 1] == 3 and T[1, 1, 2] == 4


def _johnson2_rel_by_loop(v: int) -> np.ndarray:
    """Relation matrix of the 2-subset scheme from the pairwise definition."""
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    rel = np.zeros((len(pairs), len(pairs)), dtype=np.int16)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i != j:
                rel[i, j] = 2 - len({a, b} & {c, d})
    return rel


def test_johnson2_scheme_matches_pairwise_definition():
    for v in range(4, 13):
        rel = sf.johnson2_scheme(v).rel
        expected = _johnson2_rel_by_loop(v)
        assert rel.dtype == expected.dtype and np.array_equal(rel, expected)


def test_symmetrize_cyc4_equals_cyc2():
    for q in (13, 29, 37, 53):
        assert sf.symmetrize(sf.cyclotomic_scheme(q, 4)) == sf.cyclotomic_scheme(q, 2)
