"""The fast eigenvalue-identity kernel against the frozen reference oracle.

``reference_kernel`` keeps the first implementation (Fraction-coefficient
surds, unhoisted loops, the three-SurdSum conference module); every
property here compares the package with it value by value, through the
canonical ``to_triples`` form.
"""

import contextlib
import dataclasses
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernel as ref
import skewfiss as sf
from skewfiss import spectra
from skewfiss.exactnum import ComplexSurd, SurdSum, surd_sqrt
from skewfiss.spectra import (
    _INT64_LIMIT,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    _exact,
    _identity_sums,
    _int_array,
    _surd,
    closed_form_integral,
    end_types,
    p_values_from_table,
    type3_window,
)

# small non-conference parameter sets whose multiplicities and valencies split
SPLITTABLE = [p for p in sf.srg_candidates(300)
              if not (p.m1 % 2 or p.m2 % 2 or p.k % 2 or p.k2 % 2)]
TYPE3 = [(p, z) for p in SPLITTABLE for z in type3_window(p.forms)]
CONFERENCE = [(q, ts.g) for q in range(5, 5001, 8) for ts in sf.two_squares(q)]
IMPRIMITIVE = [(f, g) for f in range(3, 1000 // 3 + 1, 4) for g in range(3, 1000 // f + 1, 4)]
# v = 3 mod 4 from 7 on: the Johnson witness z = v(v-3)^2/4 is a type-III table
# for each, non-integral when v = 3 mod 8
JOHNSON = list(range(7, 401, 4))


@lru_cache(maxsize=None)
def gated_candidates(n_max: int) -> list:
    """(quad, type, z) of every end type and window z up to n_max whose
    closed form passes the integer stage: the tables a scan derives twice."""
    out = []
    for p in sf.srg_candidates(n_max):
        if not p.conference and p.splittable():
            out += [(p.quad(), t, None) for t in end_types(p.forms)]
            out += [(p.quad(), TYPE_III, z) for z in type3_window(p.forms)
                    if closed_form_integral(p.forms, z)]
    return out


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


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_gated_candidates_up_to_5000_match_reference(data):
    cands = gated_candidates(5000)
    quad, table_type, z = cands[data.draw(st.integers(0, len(cands) - 1))]
    p = sf.srg_derive(*quad)
    assert_kernel_matches_reference(sf.character_table(p, sf.make_candidate(p, table_type, z)))


@given(st.sampled_from(IMPRIMITIVE))
@example((3, 3))
@example((3, 331))
@settings(max_examples=6, deadline=None)
def test_imprimitive_tables_match_reference(fg):
    f, g = fg
    p = sf.srg_derive(f * g, f - 1, f - 2, 0)
    assert_kernel_matches_reference(sf.character_table(p, sf.make_candidate(p, TYPE_I)))


@given(st.sampled_from(JOHNSON))
@example(11)  # v = 3 mod 8: p^2_(2,2) = (v-4)(v-7)/8 is a half-integer
@example(15)
@settings(max_examples=6, deadline=None)
def test_johnson_witness_tables_match_reference(v):
    p = sf.srg_derive(*sf.johnson2_params(v))
    table = sf.character_table(p, sf.make_candidate(p, TYPE_III, v * (v - 3) ** 2 // 4))
    assert_kernel_matches_reference(table)


# composite q with several g: 325 = 5^2 * 13, 1885 = 5 * 13 * 29, 3965 = 5 * 13 * 61
@given(st.sampled_from(CONFERENCE))
@example((325, -15))
@example((1885, 21))
@example((1885, -43))
@example((3965, -11))
@example((3965, -59))
@settings(max_examples=6, deadline=None)
def test_conference_matches_reference(qg):
    assert_kernel_matches_reference(sf.conference_table(*qg))


def _limit(mp, limit):
    """Run every contraction against limit, from a fresh module: at limit 0,
    all of them on Python ints."""
    mp.setattr(spectra, "_INT64_LIMIT", limit)
    mp.setattr(spectra, "_last_module", [(None, None)])


def assert_object_path_matches_int64(t):
    """limit 0 forces every contraction onto Python ints, also after a call
    at the default limit has cached a table's int64 module."""
    for weights, columns in ((t.multiplicities, False),
                             ([Fraction(1) / (k * k) for k in t.valencies], True)):
        S, den, keys = _identity_sums(t, weights, columns)
        with pytest.MonkeyPatch.context() as mp:
            _limit(mp, 0)
            S_obj, den_obj, keys_obj = _identity_sums(t, weights, columns)
        assert S.dtype == np.int64 and S_obj.dtype == object
        assert (S_obj.tolist(), den_obj, keys_obj) == (S.tolist(), den, keys)


@pytest.mark.parametrize("qg", [(13, -3), (325, 17), (1885, -27), (4981, 9)])
def test_conference_object_path_matches_int64(qg):
    assert_object_path_matches_int64(sf.conference_table(*qg))


@pytest.mark.parametrize("quad,table_type,z", [
    ((57, 14, 1, 4), TYPE_III, 27), ((105, 26, 13, 4), TYPE_III, 540),
    ((21, 10, 5, 4), TYPE_II, None), ((729, 182, 55, 42), TYPE_I, None),
    ((57, 14, 1, 4), TYPE_III, Fraction(7, 3))])
def test_surd_object_path_matches_int64(quad, table_type, z):
    p = sf.srg_derive(*quad)
    assert_object_path_matches_int64(sf.character_table(p, sf.make_candidate(p, table_type, z)))


def test_exact_bound_picks_dtype():
    """A stated bound of 2^63 - 1 runs in int64 and 2^63 on Python ints; the
    values are exact on both sides, negative ones included."""
    ones = np.ones((2, 1), dtype=np.int64)
    fits = np.array([[2**62, 2**62 - 1], [-2**62, -2**62 + 1]])
    out = _exact(np.matmul, 2**63 - 1, fits, ones)
    assert out.dtype == np.int64 and out.tolist() == [[2**63 - 1], [-2**63 + 1]]
    wraps = np.array([[2**62, 2**62], [-2**62, -2**62 - 1]])  # int64 would wrap both sums
    out = _exact(np.matmul, 2**63, wraps, ones)
    assert out.dtype == object and out.tolist() == [[2**63], [-2**63 - 1]]
    assert all(type(x) is int for x in out.ravel())
    out = _exact(np.multiply, 2**63, np.array([2**62, -3]), np.array([2, 2**62]))
    assert out.dtype == object and out.tolist() == [2**63, -3 * 2**62]
    out = _exact(np.multiply, 2**63 - 1, np.array([2**62 - 1, -3]), np.array([2, 2**61]))
    assert out.dtype == np.int64 and out.tolist() == [2**63 - 2, -3 * 2**61]


def test_int_array_falls_back_to_python_ints():
    assert _int_array([[2**63 - 1, -2**63]]).dtype == np.int64
    for values in ([[1, 2**63]], [[-2**63 - 1, 0]]):
        a = _int_array(values)
        assert a.dtype == object and a.tolist() == values
        assert all(type(x) is int for x in a.ravel())


def _written_out_products(mp, limit, dim):
    """The identity's five products on random integers, in a module of dim
    coordinates (half of them real), as _exact returned them, each paired with
    its index formula and np.einsum of it on Python ints: _module's L, then
    _identity_sums' weight scaling X and contractions W and S on rows and on
    columns, then p_from_table's valency scaling.  Imaginary sums and
    non-integral p are expected here."""
    rng = np.random.default_rng(dim)
    d, real = 5, dim // 2
    E, M = rng.integers(-9, 10, size=(d, d, dim)), rng.integers(-9, 10, size=(dim, dim, dim))
    keys = [1, 2, 3, 5][:real]
    fractions = lambda: tuple(Fraction(*map(int, rng.integers(1, 9, size=2))) for _ in range(d))
    t = sf.CharacterTable(entries=(), multiplicities=fractions(), valencies=fractions(),
                          n=7, kind="surd")
    outputs, expected, exact = [], [], spectra._exact

    def recorded(op, bound, *ops):
        outputs.append(exact(op, bound, *ops))
        return outputs[-1]

    def einsum(spec, *ops):
        expected.append((spec, np.einsum(spec, *ops)))
        return expected[-1][1]

    _limit(mp, limit)
    mp.setattr(spectra, "_surd_module", lambda entries: (E, M, 1, keys))
    mp.setattr(spectra, "_exact", recorded)
    obj = lambda a: np.asarray(a).astype(object)
    both = obj(np.stack((E, E * np.array([1] * real + [-1] * (dim - real)))))
    L = einsum("xhjb,abc->xhjac", both, obj(M))
    for weights, columns in ((t.multiplicities, False),
                             ([1 / (k * k) for k in t.valencies], True)):
        scale = lcm(*(w.denominator for w in weights))
        w = obj([x.numerator * (scale // x.denominator) for x in weights])
        Ew, Lw = (E.transpose(1, 0, 2), L.transpose(0, 2, 1, 3, 4)) if columns else (E, L)
        X = einsum("h,hia->hia", w, obj(Ew))
        W = einsum("hia,hjac->hijc", X, Lw[0])
        einsum("hija,hlac->ijlc", W, Lw[1])
        with contextlib.suppress(sf.ConsistencyError):
            _identity_sums(t, weights, columns)
    S = rng.integers(-9, 10, size=(d, d, d, real))
    mp.setattr(spectra, "_identity_sums", lambda t, weights: (S, 1, keys))
    dens = obj([k.denominator for k in t.valencies])
    einsum("ijl,l->ijl", obj(S[..., 0]), dens)
    with contextlib.suppress(sf.InfeasibleError):
        sf.p_from_table(t)
    assert len(outputs) == len(expected) == 8
    return [(spec, out, want) for out, (spec, want) in zip(outputs, expected)]


# one case per index formula; the ids keep the case names these products had
# when a spec-parsed helper ran them
@pytest.mark.parametrize("spec", [
    pytest.param("hija,hlac->ijlc", id="hija,hlac->ijlc-shapes0"),  # S, rows and columns
    pytest.param("xhjb,abc->xhjac", id="xhjb,abc->xhjac-shapes1"),  # the module's L
    pytest.param("hia,hjac->hijc", id="hia,hjac->hijc-shapes3"),  # W, rows and columns
    pytest.param("h,hia->hia", id="h,hia->hia-shapes7"),  # X, rows and columns
    pytest.param("ijl,l->ijl", id="ijl,l->ijl-shapes8"),  # p's valency scaling
])
def test_exact_einsum_matches_einsum(spec):
    """The product of one index formula equals np.einsum of it on Python ints,
    in int64 and on the object path, at every module dim."""
    for limit, dim in product([_INT64_LIMIT, 0], [2, 4, 6, 8]):
        with pytest.MonkeyPatch.context() as mp:
            products = _written_out_products(mp, limit, dim)
        found = [(out, want) for s, out, want in products if s == spec]
        assert len(found) == (1 if spec in ("xhjb,abc->xhjac", "ijl,l->ijl") else 2)
        for out, want in found:
            assert out.dtype == (np.int64 if limit else object)
            assert out.reshape(want.shape).tolist() == want.tolist()


def test_exact_rejections_still_raise():
    p = sf.srg_derive(21, 10, 5, 4)  # 2-subsets of 7 points
    with pytest.raises(sf.InfeasibleError) as info:
        sf.p_from_table(sf.character_table(p, sf.make_candidate(p, TYPE_II)))
    i, j, l = info.value.where
    rt = ref.reference_table(sf.character_table(p, sf.make_candidate(p, TYPE_II)))
    assert info.value.value.to_triples() == ref.p_values_from_table(rt)[i][j][l].to_triples()
    # one entry conjugated: no longer a character table, the sums leave the reals
    p = sf.srg_derive(57, 14, 1, 4)
    for t in (sf.conference_table(13, -3),
              sf.character_table(p, sf.make_candidate(p, TYPE_III, 27))):
        rows = [list(row) for row in t.entries]
        rows[1][1] = rows[1][1].conjugate()
        bad = sf.CharacterTable(entries=tuple(map(tuple, rows)),
                                multiplicities=t.multiplicities, valencies=t.valencies,
                                n=t.n, kind=t.kind, q=t.q, g=t.g, h=t.h)
        for check, table in ((sf.check_orthogonality, bad), (p_values_from_table, bad),
                             (sf.q_from_table, bad),
                             (ref.p_values_from_table, ref.reference_table(bad)),
                             (ref.q_values_from_table, ref.reference_table(bad))):
            with pytest.raises(sf.ConsistencyError):
                check(table)


# -- the integer p gate against the SurdSum read-out ------------------------------


def _conference_both_h(qg):
    t = sf.conference_table(*qg)
    return [t, dataclasses.replace(t, h=-t.h)]


def _srg_table(quad, table_type, z=None):
    p = sf.srg_derive(*quad)
    return sf.character_table(p, sf.make_candidate(p, table_type, z))


def _rational_z_table(p, frac):
    end = Fraction(p.n * p.k2, p.m1)
    return sf.character_table(p, sf.make_candidate(p, TYPE_III, frac * end))


# the kernel oracle's tables: end types, window z, rational z, imprimitive and
# Johnson witnesses (non-integral for v = 3 mod 8), and conference tables at
# both signs of h
oracle_tables = st.one_of(
    st.builds(lambda p, tt: sf.character_table(p, sf.make_candidate(p, tt)),
              st.sampled_from(SPLITTABLE), st.sampled_from([TYPE_I, TYPE_II])),
    st.builds(lambda pz: sf.character_table(pz[0], sf.make_candidate(pz[0], TYPE_III, pz[1])),
              st.sampled_from(TYPE3)),
    st.builds(_rational_z_table, st.sampled_from(SPLITTABLE[:40]),
              st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda f: 0 < f < 1)),
    st.builds(lambda fg: _srg_table((fg[0] * fg[1], fg[0] - 1, fg[0] - 2, 0), TYPE_I),
              st.sampled_from(IMPRIMITIVE)),
    st.builds(lambda v: _srg_table(sf.johnson2_params(v), TYPE_III, v * (v - 3) ** 2 // 4),
              st.sampled_from(JOHNSON)),
    st.builds(lambda qg, sign: _conference_both_h(qg)[sign], st.sampled_from(CONFERENCE),
              st.sampled_from([0, 1])),
)


def _gate_outcome(gate, t):
    try:
        return ("tensor", gate(t))
    except sf.InfeasibleError as exc:
        return ("infeasible", exc.where, type(exc.value), exc.value, str(exc))


@given(oracle_tables)
@example(_srg_table((21, 10, 5, 4), TYPE_II))
@example(_srg_table(sf.johnson2_params(11), TYPE_III, 11 * 8 ** 2 // 4))
@example(_conference_both_h((325, -15))[1])
@settings(max_examples=40, deadline=None)
def test_integer_p_gate_matches_surd_read_out(t):
    """The same tensor, or the same InfeasibleError: where, value and message."""
    assert _gate_outcome(sf.p_from_table, t) == _gate_outcome(_surd_gate, t)


def _surd_gate(t):
    """The gate cell by cell on the SurdSum read-out, in (i, j, l) order."""
    values = p_values_from_table(t)
    for i, j, l in product(range(len(values)), repeat=3):
        x = values[i][j][l]
        if x.as_integer() is None or x.as_integer() < 0:
            raise sf.InfeasibleError(f"p^{l}_({i},{j}) = {x} is not a nonnegative integer",
                                     where=(i, j, l), value=x)
    return sf.IntersectionTensor(
        p=tuple(tuple(tuple(x.as_integer() for x in row) for row in plane) for plane in values),
        valencies=tuple(int(v) for v in t.valencies))


def _krein_sums(t) -> np.ndarray:
    """The Krein identity's integer coordinates, one row per cell in (i, j, l) order."""
    S = _identity_sums(t, [Fraction(1) / (k * k) for k in t.valencies], True)[0]
    return S.reshape(len(t.valencies) ** 3, -1)


def _per_cell_krein(t):
    """q^l_ij read out cell by cell: one _surd per cell, times m_i m_j / n."""
    S, den, keys = _identity_sums(t, [Fraction(1) / (k * k) for k in t.valencies], True)
    m, n = t.multiplicities, t.n

    def value(x, i, j):
        if t.kind == "conference":
            return _surd(x, keys, den * n * m[i].denominator * m[j].denominator,
                         m[i].numerator * m[j].numerator)
        return _surd(x, keys, den) * (m[i] * m[j] / n)

    return [[[value(x, i, j) for x in row] for j, row in enumerate(plane)]
            for i, plane in enumerate(S.tolist())]


@pytest.mark.parametrize("limit", [_INT64_LIMIT, 0], ids=["int64", "object"])
@given(t=oracle_tables)
@example(t=_srg_table((105, 26, 13, 4), TYPE_III, 540))  # a negative Krein number
@example(t=_srg_table(sf.johnson2_params(11), TYPE_III, 11 * 8 ** 2 // 4))
@example(t=_conference_both_h((325, -15))[1])
@settings(max_examples=30, deadline=None)
def test_krein_read_out_shares_equal_values(limit, t):
    """q_from_table equals the per-cell read-out, equal cells are one object,
    and negatives() reads one sign per distinct coordinate vector of the
    integer sums, in (l, i, j) order."""
    signed = []
    sign = SurdSum.sign
    with pytest.MonkeyPatch.context() as mp:
        _limit(mp, limit)
        krein = sf.q_from_table(t)
        expected = _per_cell_krein(t)
        mp.setattr(SurdSum, "sign", lambda x: signed.append(x) or sign(x))
        negatives = krein.negatives()
    assert _triples(krein.q) == _triples(expected)
    by_value = {}
    assert all(by_value.setdefault(x, x) is x for plane in krein.q for row in plane for x in row)
    assert len(signed) == len(set(map(tuple, _krein_sums(t).tolist())))
    rng = range(len(expected))
    assert negatives == [((l, i, j), expected[i][j][l]) for l in rng for i in rng for j in rng
                         if expected[i][j][l].sign() < 0]


def _distinct_krein_keys(t, cells) -> int:
    """Distinct (coordinates, m_i m_j) over the given (i, j, l) cells of q."""
    d, m = len(t.valencies), t.multiplicities
    sums = _krein_sums(t).tolist()
    return len({(tuple(sums[(i * d + j) * d + l]), m[i] * m[j]) for i, j, l in cells})


def test_srg_scan_krein_read_out_and_multiplications(monkeypatch):
    """On every table of scan srg --max-n 1300, q_from_table equals the
    per-cell read-out and equal cells are one object.  The scan's Krein
    verdicts run SurdSum.__mul__ once per distinct (coordinates, m_i m_j)
    among the cells they read, the negative ones: 22 calls, the surd_mul
    count of the bench's traced srg_scan pass.  Reading every cell of a
    table (q) runs it once per distinct (coordinates, m_i m_j) of the table."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    mul, calls = SurdSum.__mul__, []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurdSum, "__mul__", counted)
        mp.setattr(SurdSum, "__rmul__", counted)
        records = sf.scan_srg(1300)
        scan_calls = len(calls)
        for rec in records:
            del calls[:]
            krein = sf.q_from_table(rec.table)
            assert len(calls) == 0, rec.n
            by_value = {}
            assert all(by_value.setdefault(x, x) is x
                       for plane in krein.q for row in plane for x in row)
            assert len(calls) == _distinct_krein_keys(rec.table, product(range(5), repeat=3))
    assert len(records) == 37
    read = 0
    for rec in records:
        expected = _per_cell_krein(rec.table)
        assert _triples(sf.q_from_table(rec.table).q) == _triples(expected)
        negative = [(i, j, l) for i, j, l in product(range(5), repeat=3)
                    if expected[i][j][l].sign() < 0]
        read += _distinct_krein_keys(rec.table, negative)
    assert scan_calls == read == 22


def test_identity_values_built_only_where_read(monkeypatch):
    """On the tables of scan srg --max-n 1300 and scan conference --max-n 325:
    one cell read from a fresh Krein tensor builds one SurdSum; negatives()
    builds one per distinct coordinate vector (its sign) and one per distinct
    (coordinates, m_i m_j) among the negative cells, and q then equals the
    per-cell read-out and holds the objects negatives() returned;
    check_orthogonality reads the 25 cells p^j_(i,0), building one value per
    distinct (coordinates, k_j) among them."""
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    tables = [rec.table for rec in sf.scan_srg(1300) + sf.conference_scan(325)]
    assert len(tables) == 37 + 33
    built, read = [], []
    surd, getitem = spectra._surd, spectra.KreinTensor.__getitem__
    monkeypatch.setattr(spectra, "_surd", lambda *args: built.append(args) or surd(*args))
    monkeypatch.setattr(spectra.KreinTensor, "__getitem__",
                        lambda self, idx: read.append(idx) or getitem(self, idx))
    rng = range(5)
    for t in tables:
        krein = sf.q_from_table(t)
        del built[:]
        krein[1, 2, 3]
        assert len(built) == 1
        krein = sf.q_from_table(t)
        del built[:]
        negatives = krein.negatives()
        sums = _krein_sums(t)
        cells = [(i, j, l) for (l, i, j), _ in negatives]
        assert len(built) == len(set(map(tuple, sums.tolist()))) + _distinct_krein_keys(t, cells)
        q = krein.q
        assert _triples(q) == _triples(_per_cell_krein(t))
        assert all(value is q[i][j][l] for (l, i, j), value in negatives)
        del built[:], read[:]
        sf.check_orthogonality(t)
        assert sorted(read) == [(i, 0, j) for i in rng for j in rng]
        p_sums = _identity_sums(t, t.multiplicities)[0].tolist()
        assert len(built) == len({(tuple(p_sums[i][0][j]), t.valencies[j])
                                  for i in rng for j in rng})


def _petersen_table():
    """The 3x3 character table of the Petersen graph, srg(10, 3, 0, 1)."""
    p, one = sf.srg_derive(10, 3, 0, 1), ComplexSurd(1)
    rows = ((one, ComplexSurd(p.k), ComplexSurd(p.k2)), (one, ComplexSurd(p.r), ComplexSurd(p.t)),
            (one, ComplexSurd(p.s), ComplexSurd(p.u)))
    return sf.CharacterTable(entries=rows, multiplicities=tuple(map(Fraction, (1, p.m1, p.m2))),
                             valencies=tuple(map(Fraction, (1, p.k, p.k2))), n=p.n, kind="surd")


@pytest.mark.parametrize("t", [_petersen_table(), _srg_table((105, 26, 13, 4), TYPE_III, 540),
                               _conference_both_h((325, -15))[1]], ids=["d3", "srg", "conference"])
def test_krein_index_checked_per_axis(t):
    """krein[i, j, l] indexes each axis as a sequence of length d does: an
    index out of range raises IndexError, a negative one counts from the end
    of its own axis, and no index reaches a cell of another row."""
    krein, d = sf.q_from_table(t), len(t.valencies)
    q = krein.q
    for bad in ((0, 0, d), (0, d, 0), (d, 0, 0), (0, 0, -d - 1), (-d - 1, 0, 0)):
        with pytest.raises(IndexError):
            krein[bad]
    for i, j, l in product(range(-d, d), repeat=3):
        assert krein[i, j, l] is q[i][j][l]
    assert krein[0, 0, -1] is krein[0, 0, d - 1] and krein[-1, 0, 0] is krein[d - 1, 0, 0]


def _structure_tensor_by_rules(q, g, h):
    """_structure_tensor as the nine rules expanded in a Python loop on every call."""
    r, s = sf.exactnum.square_split(q)
    rules = {(0, 0): (0, 8, 0), (0, 1): (1, 8, 0), (1, 0): (1, 8, 0), (0, 2): (2, 8, 0),
             (2, 0): (2, 8, 0), (1, 1): (0, -q, -g * r), (2, 2): (0, -q, g * r),
             (1, 2): (0, 0, -2 * h * r), (2, 1): (0, 0, -2 * h * r)}
    M = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for (x, y), (z, *k) in rules.items():
        for i, j, l in product((0, 1), repeat=3):  # sqrt(s)^(i + j + l)
            M[2 * x + i][2 * y + j][2 * z + (i + j + l) % 2] += k[l] * s ** ((i + j + l) // 2)
    return _int_array(M), s


def test_structure_tensor_matches_the_rules():
    """The indexed structure tensor equals the loop over the nine rules, value
    and dtype, for every (q, g, +-h) of scan conference --max-n 5000 and for
    a q whose tensor needs Python ints."""
    qgh = [(rec.n, rec.params["g"], rec.params["h"]) for rec in sf.conference_scan(5000)]
    assert len(qgh) == 492
    big = 5 * 3 ** 38  # q*s = 25 * 3^38 is above 2^63
    for q, g, h in qgh + [(big, 1, 1)]:
        for hh in (h, -h):
            M, s = spectra._structure_tensor(q, g, hh)
            expected, s_expected = _structure_tensor_by_rules(q, g, hh)
            assert s == s_expected and M.dtype == expected.dtype, (q, g, hh)
            assert np.array_equal(M, expected), (q, g, hh)
    assert spectra._structure_tensor(big, 1, 1)[0].dtype == object


@pytest.mark.parametrize("limit", [_INT64_LIMIT, 0])
def test_p_from_table_returns_python_ints(monkeypatch, limit):
    """Every entry and valency is an int, whichever dtype the sums ran in."""
    dtypes = set()

    def sums(*args, **kwargs):
        out = _identity_sums(*args, **kwargs)
        dtypes.add(out[0].dtype)
        return out

    _limit(monkeypatch, limit)
    monkeypatch.setattr(spectra, "_identity_sums", sums)
    for t in [*_conference_both_h((325, 17)), sf.conference_table(4981, 9),
              _srg_table((57, 14, 1, 4), TYPE_III, 27), _srg_table((729, 182, 55, 42), TYPE_I)]:
        tensor = sf.p_from_table(t)
        assert all(type(x) is int for plane in tensor.p for row in plane for x in row)
        assert all(type(v) is int for v in tensor.valencies)
    assert dtypes == {np.dtype(np.int64) if limit else np.dtype(object)}


def test_conference_module_built_once_per_table(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return conference_module(t)

    conference_module = spectra._conference_module
    monkeypatch.setattr(spectra, "_conference_module", counted)
    t, other = sf.conference_table(325, 17), sf.conference_table(325, 17)
    sf.p_from_table(t)
    sf.q_from_table(t).negatives()
    sf.p_from_table(t)
    assert calls == [t]
    assert sf.q_from_table(other).q == sf.q_from_table(t).q
    assert calls == [t, other, t]  # another table, even an equal one, has its own module


def test_surd_module_built_once_per_table(monkeypatch):
    """p and q of a surd table read one module, its columns transposed."""
    calls = []

    def counted(entries):
        calls.append(entries)
        return surd_module(entries)

    surd_module = spectra._surd_module
    monkeypatch.setattr(spectra, "_surd_module", counted)
    tables = [_srg_table((57, 14, 1, 4), TYPE_III, 27), _srg_table((729, 182, 55, 42), TYPE_I)]
    for t in tables:
        sf.p_from_table(t)
        sf.q_from_table(t).negatives()
    assert calls == [t.entries for t in tables]


@pytest.mark.parametrize("scan,arg,bits", [
    (sf.scan_srg, 5000, 47), (sf.imprimitive_scan, 1000, 48),
    (sf.johnson_scan, 400, 54), (sf.conference_scan, 5000, 53)])
def test_scan_contractions_run_in_int64(monkeypatch, scan, arg, bits):
    """Every product of the CI scans runs in int64, each bound (as its call
    site states it to _exact) below 2^bits."""
    bounds, dtypes, exact = [], set(), spectra._exact

    def recorded(op, bound, *ops):
        bounds.append(bound)
        out = exact(op, bound, *ops)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setenv("SKEWFISS_THREADS", "1")  # the contractions run in this process
    monkeypatch.setattr(spectra, "_exact", recorded)
    scan(arg)
    assert dtypes == {np.dtype(np.int64)}
    assert 0 < max(bounds) < 2 ** bits


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


# -- ComplexSurd against the reference class ---------------------------------------

# (re terms, im terms, terms whose radicand appears in both parts)
complex_parts = st.tuples(term_lists, term_lists,
                          st.lists(st.tuples(rationals, rationals, radicands), max_size=2))


def _complex_both(parts):
    re_terms, im_terms, shared = parts
    (re, re_ref), (im, im_ref) = (_both(re_terms + [(a, n) for a, _, n in shared]),
                                  _both(im_terms + [(b, n) for _, b, n in shared]))
    return ComplexSurd(re, im), ref.ComplexSurd(re_ref, im_ref)


def _same_complex(new, old):
    _same(new.re, old.re)
    _same(new.im, old.im)
    assert new.is_real() == old.is_real()
    assert str(new) == str(old)
    assert complex(new) == complex(old)
    assert new == ComplexSurd(new.re, new.im)
    # the hash rule of the re/im form: a real value hashes like its real part
    assert hash(new) == (hash(new.re) if new.im.is_zero() else hash((new.re, new.im)))


@given(complex_parts, complex_parts, term_lists, rationals)
@settings(max_examples=150, deadline=None)
def test_complex_surd_matches_reference(xs, ys, ss, r):
    a, a_ref = _complex_both(xs)
    b, b_ref = _complex_both(ys)
    s, s_ref = _both(ss)
    _same_complex(a, a_ref)
    _same_complex(a + b, a_ref + b_ref)
    _same_complex(a - b, a_ref - b_ref)
    _same_complex(a * b, a_ref * b_ref)
    _same_complex(-a, -a_ref)
    _same_complex(a.conjugate(), a_ref.conjugate())
    _same_complex(a * a.conjugate(), a_ref * a_ref.conjugate())
    _same_complex(a * s, a_ref * s_ref)
    _same_complex(s * a, s_ref * a_ref)
    _same_complex(r * a, r * a_ref)
    _same_complex(a + r, a_ref + r)
    if r:
        _same_complex(a / r, a_ref / r)
    assert (a == b) == (a_ref == b_ref)
    assert (a == s) == (a_ref == s_ref) == (s == a)
    assert (a * b) * a == a * (b * a)
    assert hash((a + b) - b) == hash(a) and (a + b) - b == a
    if a.is_real():
        assert a == a.re and hash(a) == hash(a.re)


def test_complex_surd_signed_radicands():
    i = ComplexSurd(0, 1)
    i_sqrt3 = ComplexSurd(0, surd_sqrt(3))
    assert i * i == -1 and hash(i * i) == hash(-1)
    assert i_sqrt3 * i_sqrt3 == -3
    assert i_sqrt3 * ComplexSurd(0, surd_sqrt(6)) == -3 * surd_sqrt(2)
    assert i * surd_sqrt(5) == ComplexSurd(0, surd_sqrt(5))
    both = ComplexSurd(surd_sqrt(2), surd_sqrt(2))
    assert (both.re, both.im) == (surd_sqrt(2), surd_sqrt(2))
    assert both * both.conjugate() == 4 and (both * both).re == 0
    assert (both / Fraction(-2, 3)).im == Fraction(-3, 2) * surd_sqrt(2)
    assert not both.is_real() and (both + both.conjugate()).is_real()
