import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewfiss.exactnum import (
    ComplexSurd,
    SurdSum,
    as_integer,
    square_split,
    squarefree_part,
    surd_sign,
    surd_sqrt,
)
from skewfiss.spectra import CharacterTable


def test_square_split():
    assert square_split(18) == (3, 2)
    assert square_split(1) == (1, 1)
    assert square_split(49) == (7, 1)
    assert square_split(2 * 3 * 5 * 7) == (1, 210)
    assert square_split(4 * 9 * 11) == (6, 11)
    # remaining cofactor cases: p, p^2, p*q beyond the cube root
    assert square_split(10007) == (1, 10007)
    assert square_split(10007 ** 2) == (10007, 1)
    assert square_split(10007 * 10009) == (1, 10007 * 10009)
    assert squarefree_part(324) == 1


def test_sqrt_examples():
    assert surd_sqrt(18) == 3 * surd_sqrt(2)
    assert surd_sqrt(Fraction(49, 4)) == SurdSum(Fraction(7, 2))
    # y*z for the z = 27 split of srg(57,14,1,4): 12*27 = 324 = 18^2
    assert surd_sqrt(324) == SurdSum(18)
    assert surd_sqrt(0) == SurdSum(0)
    with pytest.raises(ValueError):
        surd_sqrt(Fraction(-1, 2))


def test_arith_examples():
    one = SurdSum(1)
    s5 = surd_sqrt(5)
    assert (one + s5) * (one - s5) == SurdSum(-4)
    assert surd_sqrt(2) * surd_sqrt(8) == SurdSum(4)
    r = (SurdSum(-1) + surd_sqrt(13)) / 2
    s = (SurdSum(-1) - surd_sqrt(13)) / 2
    assert r + s == SurdSum(-1)
    assert r * s == SurdSum(-3)  # product of the conference eigenvalues on 13 points


def test_sign_examples():
    assert surd_sign(SurdSum(6) - surd_sqrt(84)) == -1
    assert surd_sign(SurdSum(0)) == 0
    assert surd_sign(SurdSum(-1) + surd_sqrt(5)) == 1
    # forces the interval-refinement path: three radicands, mixed signs
    x = surd_sqrt(2) + surd_sqrt(3) - surd_sqrt(10)
    assert x.sign() == -1
    y = surd_sqrt(2) + surd_sqrt(3) + surd_sqrt(5) - surd_sqrt(30)
    assert y.sign() == (1 if float(y) > 0 else -1)
    # two-term exact tie
    assert (2 * surd_sqrt(3) - surd_sqrt(12)).sign() == 0


def test_as_integer():
    assert as_integer(3 * surd_sqrt(2)) is None
    assert as_integer(SurdSum(7)) == 7
    assert as_integer(38 * surd_sqrt(324) - 684 + SurdSum(684)) == 684
    assert as_integer(SurdSum(Fraction(1, 2))) is None


def test_normal_form_canonical():
    a = surd_sqrt(8) + surd_sqrt(18)   # 2r2 + 3r2 = 5r2
    b = 5 * surd_sqrt(2)
    assert a == b and hash(a) == hash(b)
    assert a.terms == {2: Fraction(5)}
    c = surd_sqrt(2) - surd_sqrt(2)
    assert c.is_zero() and c.terms == {}


def test_equal_values_hash_equally():
    assert len({SurdSum(3), 3, Fraction(3)}) == 1
    assert len({SurdSum(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({ComplexSurd(3), 3}) == 1
    assert hash(SurdSum(0)) == hash(0) == hash(ComplexSurd(0))
    assert len({surd_sqrt(8), 2 * surd_sqrt(2), ComplexSurd(2 * surd_sqrt(2))}) == 1


@pytest.mark.parametrize("x", [0, 1, -1, -2, 2 ** 61 - 1, 2 ** 61, -2 ** 64, Fraction(1, 2),
                               Fraction(-7, 3), Fraction(2 ** 61, 3), Fraction(5, 2 ** 61 - 1)])
def test_rational_hashes_like_the_number(x):
    """An integer hashes as its int and a fraction as its Fraction, across
    the 2^61 - 1 modulus of Python's numeric hash."""
    assert hash(SurdSum(x)) == hash(x)


def test_operator_aliases_for_call_counting():
    """Reflected operators stay aliases, so one wrapper counts both spellings."""
    assert SurdSum.__dict__["__rmul__"] is SurdSum.__dict__["__mul__"]
    assert SurdSum.__dict__["__radd__"] is SurdSum.__dict__["__add__"]
    assert ComplexSurd.__dict__["__rmul__"] is ComplexSurd.__dict__["__mul__"]


def test_ordering():
    assert surd_sqrt(2) < surd_sqrt(3)
    assert SurdSum(2) > surd_sqrt(2)
    assert not SurdSum(0) < SurdSum(0)
    assert surd_sqrt(2) <= surd_sqrt(2)


def test_serialization_round_trip():
    x = Fraction(3, 2) * surd_sqrt(5) - SurdSum(Fraction(7, 3)) + surd_sqrt(2)
    triples = x.to_triples()
    assert SurdSum.from_triples(triples) == x
    assert triples == sorted(triples)


def test_str_forms():
    assert str(SurdSum(0)) == "0"
    assert str(3 * surd_sqrt(2)) == "3√2"
    assert str(SurdSum(1) - surd_sqrt(5)) == "1-√5"


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        surd_sqrt(2) / 0


def test_complex_surd_basics():
    z = ComplexSurd(SurdSum(1), surd_sqrt(3))
    w = z * z.conjugate()
    assert w.is_real() and w.re == SurdSum(4)
    assert z.conjugate() == ComplexSurd(1, -surd_sqrt(3))
    u = ComplexSurd(0, 1)
    assert u * u == ComplexSurd(-1, 0)
    assert (z * u).re == -surd_sqrt(3)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15])


@st.composite
def surds(draw, max_terms=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    total = SurdSum(0)
    for _ in range(n):
        total = total + draw(rationals) * surd_sqrt(draw(radicands))
    return total


@given(surds(), surds(), surds())
@settings(max_examples=200, deadline=None)
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.fractions(min_value=0, max_value=1000, max_denominator=60))
@settings(max_examples=200, deadline=None)
def test_sqrt_round_trip(x):
    s = surd_sqrt(x)
    assert s * s == SurdSum(x)
    assert s.sign() >= 0


@given(surds())
@settings(max_examples=200, deadline=None)
def test_sign_against_high_precision(a):
    """Diagnostic cross-check only: mpmath confirms but never decides."""
    with mp.workprec(200):
        approx = mp.mpf(0)
        for n, c in a.terms.items():
            approx += mp.mpf(c.numerator) / c.denominator * mp.sqrt(n)
        got = a.sign()
        if approx == 0:
            assert got == 0
        else:
            assert got == (1 if approx > 0 else -1)


@given(surds(), surds())
@settings(max_examples=200, deadline=None)
def test_sub_and_eq_consistent(a, b):
    assert (a - b).is_zero() == (a == b)
    assert (a - b).sign() == -((b - a).sign())


@given(surds(), surds(), st.one_of(st.integers(min_value=-20, max_value=20), rationals))
@example(surd_sqrt(2), surd_sqrt(2), 0)
@example(SurdSum(3), surd_sqrt(8), Fraction(3))
@example(surd_sqrt(5) - 1, SurdSum(0), Fraction(-7, 2))
@settings(max_examples=200, deadline=None)
def test_order_follows_the_sign_of_the_difference(a, b, c):
    """<, <=, > and >= both ways round, rationals on either side (Fraction op
    SurdSum included), agree with the exact sign of the difference; a str or
    a float is not comparable."""
    for x, y in ((a, b), (a, c), (b, c)):
        sign = (x - y).sign()
        assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
        assert (y < x, y <= x, y > x, y >= x) == (sign > 0, sign >= 0, sign < 0, sign <= 0)
    for other in ("1", 1.5):
        for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                        lambda x, y: x > y, lambda x, y: x >= y):
            with pytest.raises(TypeError):
                compare(a, other)
            with pytest.raises(TypeError):
                compare(other, a)


def _fraction_triples(x: SurdSum) -> list:
    """to_triples as the Fraction path wrote it: one Fraction per term."""
    return [(n, c.numerator, c.denominator) for n, c in sorted(x.terms.items())]


signed_radicands = st.sampled_from([-15, -6, -3, -2, -1, 1, 2, 3, 6, 15])


@st.composite
def complex_surds(draw, max_terms=4):
    re, im = SurdSum(0), SurdSum(0)
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        n = draw(signed_radicands)
        term = draw(rationals) * surd_sqrt(abs(n))
        if n < 0:
            im = im + term
        else:
            re = re + term
    return ComplexSurd(re, im)


@given(surds(max_terms=4))
@example(SurdSum(0))
@example(SurdSum(-7))
@example(SurdSum(Fraction(-7, 6)))
@example(SurdSum(2) - 3 * surd_sqrt(5))
@example(Fraction(-5, 6) + Fraction(3, 4) * surd_sqrt(2) - Fraction(1, 8) * surd_sqrt(3))
@settings(max_examples=200, deadline=None)
def test_to_triples_matches_the_fraction_path(x):
    """to_triples reads the stored numerators, one gcd per term, and writes
    what one Fraction per term wrote: zero, negative numerators, denominator
    1 and rational-only values included."""
    assert x.to_triples() == _fraction_triples(x)
    assert all(type(v) is int for t in x.to_triples() for v in t)


@given(complex_surds())
@example(ComplexSurd(0))
@example(ComplexSurd(Fraction(-3, 2)))
@example(ComplexSurd(0, Fraction(5, 4)))
@example(ComplexSurd(SurdSum(Fraction(1, 6)) - surd_sqrt(2), Fraction(-2, 9) * surd_sqrt(3)))
@settings(max_examples=200, deadline=None)
def test_surd_table_cells_match_the_re_im_triples(z):
    """A surd table's JSON cell is {"re": re.to_triples(), "im": im.to_triples()}
    in the Fraction path, read off the signed radicands."""
    table = CharacterTable(entries=((z,),), multiplicities=(Fraction(1),),
                           valencies=(Fraction(1),), n=1, kind="surd")
    (cell,), = table.to_json_dict()["entries"]
    assert cell == {"re": _fraction_triples(z.re), "im": _fraction_triples(z.im)}


@given(surds(max_terms=4), st.one_of(st.integers(-30, 30), rationals))
@example(SurdSum(0), 0)
@example(surd_sqrt(2) - 1, 0)
@example(surd_sqrt(2) - 1, Fraction(-6, 4))
@settings(max_examples=200, deadline=None)
def test_rational_factor_matches_the_product_loop(x, c):
    """x * c for an int or Fraction c scales the numerators: the same normal
    form as the radical-product loop on SurdSum(c), from either side."""
    expected = x * SurdSum(c)
    for got in (x * c, c * x):
        assert type(got) is SurdSum
        assert (got._num, got._den) == (expected._num, expected._den)
