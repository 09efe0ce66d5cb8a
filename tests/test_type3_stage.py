"""The integer type-III stage against the frozen Fraction path it screens for.

``closed_form_integral(p, z)`` must be true exactly when ``make_candidate``
accepts z and the reference closed form at z (``reference_closed_form``:
Gamma, Phi and Pi in Fractions) has a rational sqrt(yz) and only
nonnegative integer entries: a z the stage rejects is one the integrality
gate would reject, and nothing the gate passes is lost.
``intersection_matrices_closed_form`` must equal that reference wherever
the reference is rational.
"""

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


@lru_cache(maxsize=None)
def splittable(n_max: int) -> list:
    """Parameter sets up to n_max that can split and have a nonempty z window."""
    return [p for p in sf.srg_candidates(n_max)
            if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)
            and any(type3_window(p))]


def test_stage_matches_gate_on_every_z_up_to_1300():
    tried = passed = 0
    for p in splittable(1300):
        for z in type3_window(p):
            integral = closed_form_integral(p, z)
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
        window = set(type3_window(p))
        for z in range(1, -(-p.n * p.k2 // p.m1)):
            screened = z in window and closed_form_integral(p, z)
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
    zs = list(type3_window(p))
    if draw(st.booleans()):
        zs = [z for z in zs if ref.closed_form_at(p, z) is not None] or zs
    return p, draw(st.sampled_from(zs))


@given(window_z())
@settings(max_examples=300, deadline=None)
def test_stage_matches_gate_up_to_5000(pz):
    """The stage against the reference gate, and the closed form against the
    reference closed form where sqrt(yz) is rational."""
    p, z = pz
    assert closed_form_integral(p, z) == gate_passes(p, z)
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
    assert closed_form_integral(sf.srg_derive(*quad), z)


@pytest.mark.parametrize("z", [10**6, -3, Fraction(63) + Fraction(1, 10**9)])
def test_stage_rejects_z_out_of_range(z):
    """Outside [0, n*k2/m1] (here [0, 63]) the stage is false and the
    evaluator names the range; neither is the isqrt of a negative number."""
    p = sf.srg_derive(57, 14, 1, 4)
    assert Fraction(p.n * p.k2, p.m1) == 63
    assert closed_form_integral(p, z) is False
    with pytest.raises(sf.InfeasibleError, match=r"outside \[0, n\*k2/m1 = 63\]"):
        spectra._entries_at(p, z)


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


def test_scan_reads_the_forms_once_per_splittable_set(monkeypatch):
    """scan srg --max-n 1300 computes the integer forms once for each of its
    736 splittable sets, from three evaluations of _principal_parts; the 37
    closed forms it builds read those forms and evaluate nothing more."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    calls = {"forms": 0, "parts": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(spectra, "_principal_forms", counted("forms", spectra._principal_forms))
    monkeypatch.setattr(spectra, "_principal_parts", counted("parts", spectra._principal_parts))
    assert len(sf.scan_srg(1300)) == 37
    assert calls == {"forms": 736, "parts": 3 * 736}
    assert sum(p.splittable() for p in sf.srg_candidates(1300)) == 736


def test_johnson_witness_has_rational_sqrt_yz():
    """At the Johnson witness z = v(v-3)^2/4 the radicand of _entries_at is
    the square of k2*m1*v(v-3)/2 for every v = 3 mod 4, so the witness's
    closed form is always rational and fission_scan needs no skip for it."""
    for v in range(7, 3000, 4):
        p = sf.srg_derive(*sf.johnson2_params(v))
        z = v * (v - 3) ** 2 // 4
        radicand = p.k * p.k2 * p.m1 * (p.n * p.k2 - p.m1 * z) * z
        assert radicand == (p.k2 * p.m1 * v * (v - 3) // 2) ** 2, v
        assert spectra._entries_at(p, z) is not None, v


def test_imprimitive_sides_pass_type_i_only():
    """The paper's imprimitive classification as the integer stage sees it:
    on srg(fg, f-1, f-2, 0) with f, g odd, type I passes the ends test exactly
    when f = g = 3 mod 4, type II never does, and no window z passes the
    stage; so an imprimitive scan unit is one type-I candidate."""
    sets = 0
    for f in range(3, 5000 // 3 + 1, 2):
        for g in range(3, 5000 // f + 1, 2):
            p = sf.srg_derive(f * g, f - 1, f - 2, 0)
            assert spectra.end_types(p) == ([TYPE_I] if f % 4 == g % 4 == 3 else []), (f, g)
            assert not any(closed_form_integral(p, z) for z in type3_window(p)), (f, g)
            sets += 1
    assert sets == 7572
