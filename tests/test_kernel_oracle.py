"""The fast eigenvalue-identity kernel against the frozen reference oracle.

``reference_kernel`` keeps the first implementation (Fraction-coefficient
surds, unhoisted loops, the three-SurdSum conference module); every
property here compares the package with it value by value, through the
canonical ``to_triples`` form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
import skewfiss as sf
from skewfiss.exactnum import SurdSum, surd_sqrt
from skewfiss.feasibility import _type3_z_candidates
from skewfiss.spectra import TYPE_I, TYPE_II, TYPE_III, p_values_from_table

# small non-conference parameter sets whose multiplicities and valencies split
SPLITTABLE = [p for p in sf.srg_candidates(300)
              if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)]
TYPE3 = [(p, z) for p in SPLITTABLE for z in _type3_z_candidates(p)]
CONFERENCE = [(q, ts.g) for q in range(5, 326, 8) for ts in sf.two_squares(q)]


def _triples(tensor):
    return [[[x.to_triples() for x in row] for row in plane] for plane in tensor]


def assert_kernel_matches_reference(table):
    rt = ref.reference_table(table)
    assert _triples(p_values_from_table(table)) == _triples(ref.p_values_from_table(rt))
    assert _triples(sf.q_from_table(table).q) == _triples(ref.q_values_from_table(rt))


@given(st.sampled_from(SPLITTABLE), st.sampled_from([TYPE_I, TYPE_II]))
@settings(max_examples=10, deadline=None)
def test_types_1_2_match_reference(p, table_type):
    assert_kernel_matches_reference(sf.character_table(p, sf.make_candidate(p, table_type)))


@given(st.sampled_from(TYPE3))
@settings(max_examples=8, deadline=None)
def test_type3_candidates_match_reference(pz):
    p, z = pz
    assert_kernel_matches_reference(sf.character_table(p, sf.make_candidate(p, TYPE_III, z)))


@given(st.sampled_from(SPLITTABLE[:40]),
       st.fractions(min_value=0, max_value=1, max_denominator=24))
@settings(max_examples=5, deadline=None)
def test_type3_rational_z_matches_reference(p, frac):
    """Any z in the open range gives a table, often with several radicands.

    The denominator stays small: surd_sqrt factors y*z by trial division.
    """
    z = frac * Fraction(p.n * p.k2, p.m1)
    if not 0 < z < Fraction(p.n * p.k2, p.m1):
        return
    assert_kernel_matches_reference(sf.character_table(p, sf.make_candidate(p, TYPE_III, z)))


@given(st.sampled_from(CONFERENCE))
@settings(max_examples=6, deadline=None)
def test_conference_matches_reference(qg):
    assert_kernel_matches_reference(sf.conference_table(*qg))


def test_exact_rejections_still_raise():
    p = sf.srg_derive(21, 10, 5, 4)  # 2-subsets of 7 points
    with pytest.raises(sf.InfeasibleError) as info:
        sf.p_from_table(sf.character_table(p, sf.make_candidate(p, TYPE_II)))
    i, j, l = info.value.where
    rt = ref.reference_table(sf.character_table(p, sf.make_candidate(p, TYPE_II)))
    assert info.value.value.to_triples() == ref.p_values_from_table(rt)[i][j][l].to_triples()
    # one entry conjugated: no longer a character table, the sums leave the reals
    t = sf.conference_table(13, -3)
    rows = [list(row) for row in t.entries]
    rows[1][1] = rows[1][1].conjugate()
    bad = sf.CharacterTable(entries=tuple(map(tuple, rows)), multiplicities=t.multiplicities,
                            valencies=t.valencies, n=t.n, kind=t.kind, q=t.q, g=t.g, h=t.h)
    for check in (sf.check_orthogonality, p_values_from_table, sf.q_from_table,
                  ref.p_values_from_table, ref.q_values_from_table):
        with pytest.raises(sf.ConsistencyError):
            check(bad)


# -- SurdSum against the reference class -----------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13, 15, 21, 30, 105])
term_lists = st.lists(st.tuples(rationals, radicands), max_size=4)


def _both(terms):
    new, old = SurdSum(0), ref.SurdSum(0)
    for c, n in terms:
        new = new + c * surd_sqrt(n)
        old = old + c * ref.surd_sqrt(n)
    return new, old


def _same(new, old):
    assert new.to_triples() == old.to_triples()
    assert str(new) == str(old)
    assert new.terms == old.terms
    assert new.sign() == old.sign()
    assert new.as_integer() == old.as_integer()
    assert float(new) == float(old)


@given(term_lists, term_lists, rationals)
@settings(max_examples=150, deadline=None)
def test_surdsum_matches_reference(xs, ys, r):
    a, a_ref = _both(xs)
    b, b_ref = _both(ys)
    _same(a, a_ref)
    _same(a + b, a_ref + b_ref)
    _same(a - b, a_ref - b_ref)
    _same(a * b, a_ref * b_ref)
    _same(r - a, r - a_ref)
    _same(r * a, r * a_ref)
    if r:
        _same(a / r, a_ref / r)
    assert (a < b) == (a_ref < b_ref) and (a <= b) == (a_ref <= b_ref)
    assert (a == b) == (a_ref == b_ref)
    assert SurdSum.from_triples(a.to_triples()) == a
    assert SurdSum._make(a.terms) == a
