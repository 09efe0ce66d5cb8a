"""The integer type-III stage against the frozen Fraction path it screens for.

``closed_form_integral(p.forms, z)`` must be true exactly when ``make_candidate``
accepts z and the reference closed form at z (``reference_closed_form``:
Gamma, Phi and Pi in Fractions) has a rational sqrt(yz) and only
nonnegative integer entries: a z the stage rejects is one the integrality
gate would reject, and nothing the gate passes is lost.
``intersection_matrices_closed_form`` must equal that reference wherever
the reference is rational.  The scan's stage on integer tuples
(``spectra.srg_stage``) must pass the candidates of the frozen stage that
read the three-point forms (``reference_closed_form.stage_candidates``).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
import reference_closed_form as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import skewfiss as sf
import skewfiss.feasibility as feasibility
import skewfiss.spectra as spectra
from skewfiss.spectra import (TYPE_I, TYPE_II, TYPE_III, _solve_type3_z, closed_form_integral,
                              type3_window)


def gate_passes(p, z) -> bool:
    """make_candidate's range, then the reference closed form's integrality."""
    try:
        sf.make_candidate(p, TYPE_III, z)
    except sf.InfeasibleError:
        return False
    matrices = ref.closed_form_at(p, z)
    return matrices is not None and ref.is_integral(matrices)


def _splittable(n, k, lam, mu, r, s, m1, m2) -> bool:
    """SrgParams.splittable in integers: k, k2 = n - k - 1, m1 and m2 all even."""
    return not (k % 2 or (n - k - 1) % 2 or m1 % 2 or m2 % 2)


@lru_cache(maxsize=None)
def splittable(n_max: int) -> list:
    """Parameter sets up to n_max that can split and have a nonempty z window."""
    return [p for p in sf.srg_candidates(n_max)
            if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)
            and any(type3_window(p.forms))]


def test_stage_matches_gate_on_every_z_up_to_1300():
    tried = passed = 0
    for p in splittable(1300):
        for z in type3_window(p.forms):
            integral = closed_form_integral(p.forms, z)
            assert integral == gate_passes(p, z), (p.quad(), z)
            tried += 1
            passed += integral
    assert (tried, passed) == (3360, 25)


def test_stage_and_window_match_gate_on_every_z_up_to_300():
    """Every integer z in (0, n*k2/m1), not only the window's: z passes the
    gate exactly when it is in the window and passes the stage."""
    sets = [p for p in sf.srg_candidates(300)
            if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)]
    tried = passed = 0
    for p in sets:
        window = set(type3_window(p.forms))
        for z in range(1, -(-p.n * p.k2 // p.m1)):
            screened = z in window and closed_form_integral(p.forms, z)
            assert screened == gate_passes(p, z), (p.quad(), z)
            tried += 1
            passed += screened
    assert (len(sets), tried, passed) == (126, 46242, 6)


def test_solve_type3_z_inverts_every_record_up_to_1300(monkeypatch):
    """classify's inverse of p^2_(1,2) gives back each record's candidate:
    its own z for type III, n*k2/m1 for type I and 0 for type II.  Each
    record's closed form is the reference's at its z."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    records = sf.scan_srg(1300)
    assert len(records) == 37
    assert sum(rec.table_type == TYPE_III for rec in records) == 25
    for rec in records:
        p = sf.srg_derive(rec.n, rec.params["k"], rec.params["lam"], rec.params["mu"])
        cand = sf.make_candidate(p, rec.table_type, rec.z)
        closed = sf.intersection_matrices_closed_form(p, cand)
        expected = {TYPE_I: Fraction(p.n * p.k2, p.m1), TYPE_II: 0}.get(rec.table_type, rec.z)
        assert cand.z == expected
        assert closed.planes()[1:3] == ref.closed_form_at(p, cand.z), (p.quad(), cand)
        assert _solve_type3_z(p, closed.planes()) == cand, (p.quad(), rec.table_type)


@st.composite
def window_z(draw):
    """(p, z) with p a splittable set up to 5000 and z in its residue window;
    half the draws keep only the z whose sqrt(yz) is rational."""
    sets = splittable(5000)
    p = sets[draw(st.integers(0, len(sets) - 1))]
    zs = list(type3_window(p.forms))
    if draw(st.booleans()):
        zs = [z for z in zs if ref.closed_form_at(p, z) is not None] or zs
    return p, draw(st.sampled_from(zs))


@given(window_z())
@settings(max_examples=300, deadline=None)
def test_stage_matches_gate_up_to_5000(pz):
    """The stage against the reference gate, and the closed form against the
    reference closed form where sqrt(yz) is rational."""
    p, z = pz
    assert closed_form_integral(p.forms, z) == gate_passes(p, z)
    expected = ref.closed_form_at(p, z)
    cand = sf.make_candidate(p, TYPE_III, z)
    if expected is None:
        with pytest.raises(sf.InfeasibleError):
            sf.intersection_matrices_closed_form(p, cand)
    else:
        assert sf.intersection_matrices_closed_form(p, cand).planes()[1:3] == expected


@pytest.mark.parametrize("quad,z", [((57, 14, 1, 4), 27), ((105, 26, 13, 4), 540),
                                    ((441, 110, 19, 30), 252), ((21, 10, 5, 4), 28)])
def test_stage_accepts_known_records(quad, z):
    assert closed_form_integral(sf.srg_derive(*quad).forms, z)


@pytest.mark.parametrize("z", [10**6, -3, Fraction(63) + Fraction(1, 10**9)])
def test_stage_rejects_z_out_of_range(z):
    """Outside [0, n*k2/m1] (here [0, 63]) the stage is false and the
    evaluator names the range; neither is the isqrt of a negative number."""
    p = sf.srg_derive(57, 14, 1, 4)
    assert Fraction(p.n * p.k2, p.m1) == 63
    assert closed_form_integral(p.forms, z) is False
    with pytest.raises(sf.InfeasibleError, match=r"outside \[0, n\*k2/m1 = 63\]"):
        spectra._entries_at(p.forms, z)


def test_scan_builds_candidates_only_for_survivors(monkeypatch):
    """scan srg --max-n 1300: every candidate built becomes a record, 12 of
    types I and II that pass the ends test and 25 type-III z that pass the
    stage, out of 3360 in the windows."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    built = []
    real = feasibility.make_candidate
    monkeypatch.setattr(feasibility, "make_candidate",
                        lambda p, t, z=None: built.append(t) or real(p, t, z))
    assert len(sf.scan_srg(1300)) == 37
    assert len(built) == 37 and built.count(TYPE_III) == 25


def test_scan_builds_full_forms_only_for_candidate_sets(monkeypatch):
    """scan srg --max-n 1300 reads 3189 of the 736 * 32 entry forms of its
    splittable sets, none twice for one set; an SrgParams is built only for
    the 27 sets whose stage yields a candidate, on the forms the stage
    read, and only those sets have all 32 forms computed (by the closed
    forms of their records)."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    computed, sets, built = Counter(), {}, []
    real_form, real_params = spectra.EntryForms._form, feasibility._srg_from_spectrum

    def form(self, e):
        sets[id(self)] = self  # kept alive, so no two sets share an id
        computed[id(self), e] += 1
        return real_form(self, e)

    monkeypatch.setattr(spectra.EntryForms, "_form", form)
    monkeypatch.setattr(feasibility, "_srg_from_spectrum",
                        lambda *ints, forms: built.append(forms) or real_params(*ints, forms=forms))
    assert len(sf.scan_srg(1300)) == 37
    assert len(sets) == 736 and sum(computed.values()) == 3189
    assert set(computed.values()) == {1}
    per_set = Counter(key for key, _ in computed)
    assert len(built) == 27
    assert sorted(map(id, built)) == sorted(key for key, count in per_set.items() if count == 32)


@pytest.mark.parametrize("n_max,funnel", [
    (1300, (2027, 736, 12, 3360, 260, 25, 27, 37)),
    (5000, (9211, 3421, 56, 29642, 1019, 92, 102, 148)),
])
def test_scan_funnel(monkeypatch, n_max, funnel):
    """The srg scan's funnel: parameter sets, splittable sets, types I and II
    that pass the ends test, window z, window z with a square radicand
    (rational sqrt(yz)), type-III z that pass the stage, sets with a
    candidate, and records."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    sets = feasibility._srg_sets(n_max)
    splittable_sets = [ints for ints in sets if _splittable(*ints)]
    ends = window = square = passed = with_candidate = 0
    for ints in splittable_sets:
        forms = spectra.EntryForms(*ints)
        types = spectra.end_types(forms)
        zs = list(type3_window(forms))
        rational = [z for z in zs if spectra._entries_at(forms, z) is not None]
        survivors = [z for z in rational if closed_form_integral(forms, z)]
        assert [t for t, _ in spectra.srg_stage(forms)] == types + [TYPE_III] * len(survivors)
        ends += len(types)
        window += len(zs)
        square += len(rational)
        passed += len(survivors)
        with_candidate += bool(types or survivors)
    records = len(sf.scan_srg(n_max))
    assert (len(sets), len(splittable_sets), ends, window, square, passed, with_candidate,
            records) == funnel
    assert records == ends + passed


def test_scan_runs_each_stage_once(monkeypatch):
    """scan_srg(1300) runs each splittable set's integer stage once: every one
    of the 3360 window z goes through closed_form_integral exactly once (the
    ends are tested in end_types' integer pairs), and the 37 records get 37
    closed forms.  The funnel is 2027 sets, 736 splittable."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    tested, closed = Counter(), []
    integral, closed_form = spectra.closed_form_integral, feasibility.intersection_matrices_closed_form

    def counted_integral(f, z):
        tested[f, z] += 1
        return integral(f, z)

    def counted_closed_form(p, cand):
        closed.append(cand)
        return closed_form(p, cand)

    monkeypatch.setattr(spectra, "closed_form_integral", counted_integral)
    monkeypatch.setattr(feasibility, "intersection_matrices_closed_form", counted_closed_form)
    records = sf.scan_srg(1300)
    funnel = (len(feasibility._srg_sets(1300)), len(feasibility._srg_sets(1300, splittable=True)),
              len(tested), len(closed), len(records))
    assert funnel == (2027, 736, 3360, 37, 37)
    assert set(tested.values()) == {1}


def test_stage_on_the_2_subset_family():
    """The integer stage of the 2-subset parameters at every v = 3 mod 4,
    7 <= v <= 399, passes exactly the Krein witness z = v(v-3)^2/4 when
    v = 7 mod 8, and nothing when v = 3 mod 8 (where that z's p^2_(2,2) =
    (v-4)(v-7)/8 is a half-integer)."""
    for v in range(7, 400, 4):
        stage = spectra.srg_stage(sf.srg_derive(*sf.johnson2_params(v)).forms)
        assert stage == (((TYPE_III, v * (v - 3) ** 2 // 4),) if v % 8 == 7 else ()), v


def test_integer_ends_match_fraction_ends_up_to_5000():
    """end_types tests z = n*k2/m1 and z = 0 as integer pairs; on every
    splittable set up to 5000 it names the types that closed_form_integral
    passes at those ends as Fraction z."""
    sets = feasibility._srg_sets(5000, splittable=True)
    assert len(sets) == 3421
    passed = 0
    for ints in sets:
        forms = spectra.EntryForms(*ints)
        n, k, *_, m1, _ = ints
        ends = ((TYPE_I, Fraction(n * (n - k - 1), m1)), (TYPE_II, 0))
        expected = [t for t, z in ends if closed_form_integral(forms, z)]
        assert spectra.end_types(forms) == expected, ints[:4]
        passed += len(expected)
    assert passed == 56


def test_tuple_stage_matches_frozen_stage_up_to_5000():
    """srg_stage on each splittable integer tuple up to 5000 passes exactly the
    candidates of the frozen stage on the three-point forms."""
    sets = [ints for ints in feasibility._srg_sets(5000) if _splittable(*ints)]
    assert len(sets) == 3421
    found = 0
    for ints in sets:
        stage = list(spectra.srg_stage(spectra.EntryForms(*ints)))
        assert stage == ref.stage_candidates(sf.srg_derive(*ints[:4])), ints[:4]
        found += len(stage)
    assert found == 148


def test_johnson_witness_has_rational_sqrt_yz():
    """At the Johnson witness z = v(v-3)^2/4 the radicand of _entries_at is
    the square of k2*m1*v(v-3)/2 for every v = 3 mod 4, so the witness's
    closed form is always rational and _johnson_witness needs no skip for it."""
    for v in range(7, 3000, 4):
        p = sf.srg_derive(*sf.johnson2_params(v))
        z = v * (v - 3) ** 2 // 4
        radicand = p.k * p.k2 * p.m1 * (p.n * p.k2 - p.m1 * z) * z
        assert radicand == (p.k2 * p.m1 * v * (v - 3) // 2) ** 2, v
        assert spectra._entries_at(p.forms, z) is not None, v


def test_imprimitive_sides_pass_type_i_only():
    """The paper's imprimitive classification as the integer stage sees it:
    on srg(fg, f-1, f-2, 0) with f, g odd, type I passes the ends test exactly
    when f = g = 3 mod 4, type II never does, and no window z passes the
    stage; so an imprimitive scan unit is one type-I candidate."""
    sets = 0
    for f in range(3, 5000 // 3 + 1, 2):
        for g in range(3, 5000 // f + 1, 2):
            p = sf.srg_derive(f * g, f - 1, f - 2, 0)
            assert spectra.end_types(p.forms) == ([TYPE_I] if f % 4 == g % 4 == 3 else []), (f, g)
            assert not any(closed_form_integral(p.forms, z) for z in type3_window(p.forms)), (f, g)
            sets += 1
    assert sets == 7572
