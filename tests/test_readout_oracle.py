"""ClosedForm.tensor() and CharacterTable.to_json_dict() against their
frozen references (reference_readout), on every scan record's closed form
and table, on closed forms that fail the gate, and on drawn entries."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_readout as ref
import skewfiss as sf
from skewfiss.spectra import TYPE_III, ClosedForm, InfeasibleError


def outcome(read, x):
    """read(x), or the InfeasibleError it raises as (message, where, value);
    repr keeps the entry types (an np.int64 would not equal an int there)."""
    try:
        return repr(read(x))
    except InfeasibleError as exc:
        return str(exc), exc.where, exc.value, type(exc.value)


@lru_cache(maxsize=None)
def records(family: str) -> list:
    scan, bound = {"srg": (sf.scan_srg, 5000), "imprimitive": (sf.imprimitive_scan, 1000),
                   "johnson": (sf.johnson_scan, 400),
                   "conference": (sf.conference_scan, 5000)}[family]
    return scan(bound)


def srg_of(rec) -> sf.SrgParams:
    if rec.family == "imprimitive":
        f, g = rec.params["f"], rec.params["g"]
        return sf.srg_derive(f * g, f - 1, f - 2, 0)
    return sf.srg_derive(rec.n, rec.params["k"], rec.params["lam"], rec.params["mu"])


def closed_forms(family: str) -> list:
    """The closed form of every record derived from a table (the integer
    stage's candidates and the Johnson witnesses, which may fail the gate)."""
    out = []
    for rec in records(family):
        if rec.table is not None:
            p = srg_of(rec)
            cand = sf.make_candidate(p, rec.table_type, rec.z)
            try:
                out.append(sf.intersection_matrices_closed_form(p, cand))
            except InfeasibleError as exc:
                assert exc.where is None  # sqrt(yz) irrational: no closed form to gate
    return out


@pytest.mark.parametrize("family,count", [("srg", 148), ("imprimitive", 330), ("johnson", 99)])
def test_closed_form_tensor_matches_reference_on_scan_candidates(family, count):
    forms = closed_forms(family)
    assert len(forms) == count
    for cf in forms:
        assert outcome(ClosedForm.tensor, cf) == outcome(ref.closed_form_tensor, cf)


def test_cyclotomic_closed_form_tensor_matches_reference_on_conference_rows():
    rows = records("conference")
    assert len(rows) == 492
    for rec in rows:
        for h in (rec.params["h"], -rec.params["h"]):
            cf = sf.cyc4_closed_form(rec.n, rec.params["g"], h)
            assert outcome(ClosedForm.tensor, cf) == outcome(ref.closed_form_tensor, cf)


def test_failing_closed_forms_raise_as_the_reference_does():
    """The Johnson witness z = v(v-3)^2/4 for v = 3 mod 8 and srg(55,18,9,4)
    at z = 176 fail the gate at the same entry with the same message."""
    failing = [(sf.srg_derive(*sf.johnson2_params(v)), v * (v - 3) ** 2 // 4)
               for v in range(11, 401, 8)]
    failing.append((sf.srg_derive(55, 18, 9, 4), 176))
    for p, z in failing:
        cf = sf.intersection_matrices_closed_form(p, sf.make_candidate(p, TYPE_III, z))
        got = outcome(ClosedForm.tensor, cf)
        assert got == outcome(ref.closed_form_tensor, cf) and type(got) is tuple


entries = st.one_of(st.integers(-3, 40), st.integers(2**62, 2**70),
                    st.fractions(-5, 2**70, max_denominator=4), st.booleans())


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 4), entries),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_closed_form_tensor_matches_reference_on_drawn_entries(changes):
    base = sf.cyc4_closed_form(13, -3, 1)
    b = [[list(row) for row in base.b1], [list(row) for row in base.b2]]
    for m, j, k, x in changes:
        b[m][j][k] = x
    cf = ClosedForm(b1=b[0], b2=b[1], valencies=base.valencies)
    assert outcome(ClosedForm.tensor, cf) == outcome(ref.closed_form_tensor, cf)


@pytest.mark.parametrize("family", ["srg", "imprimitive", "johnson", "conference"])
def test_table_json_dict_matches_reference_and_shares_cells(family):
    tables = [rec.table for rec in records(family) if rec.table is not None]
    assert tables
    for t in tables:
        d = t.to_json_dict()
        assert d == ref.table_json_dict(t)
        cell_of = {}  # every position of one entry object holds one cell dict
        for row, cells in zip(t.entries, d["entries"], strict=True):
            for e, cell in zip(row, cells, strict=True):
                assert cell_of.setdefault(id(e), cell) is cell
        assert len({id(cell) for cell in cell_of.values()}) == len(cell_of)


def test_tables_hold_one_object_per_distinct_entry():
    """A surd table builds each conjugate once (11 distinct entries on a
    type-III table), a conference table holds 6."""
    p = sf.srg_derive(57, 14, 1, 4)
    t = sf.character_table(p, sf.make_candidate(p, TYPE_III, 27))
    assert len({id(e) for row in t.entries for e in row}) == 11
    assert len({id(e) for row in sf.conference_table(13, -3).entries for e in row}) == 6
    assert t.entries[3][1] is t.entries[2][4] and t.entries[4][2] is t.entries[1][3]
