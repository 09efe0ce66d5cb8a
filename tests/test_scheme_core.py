import numpy as np
import pytest

import skewfiss as sf
import skewfiss.constructions as constructions
import skewfiss.feasibility as feasibility
import skewfiss.scheme_core as scheme_core
from skewfiss.scheme_core import (
    AssociationScheme,
    AxiomReport,
    FusionError,
    SchemeError,
    SchemeParseError,
    load_scheme,
    save_scheme,
)


def test_thin_z5_verifies_with_group_tensor(thin_z5):
    rep = sf.verify_axioms(thin_z5)
    assert rep.ok and thin_z5.d == 4
    T = rep.tensor
    for i in range(5):
        for j in range(5):
            for k in range(5):
                assert T[i, j, k] == (1 if (i + j) % 5 == k else 0)
    assert T.valencies == (1, 1, 1, 1, 1)


def test_cyc13_verifies(cyc13):
    rep = sf.verify_axioms(cyc13)
    assert rep.ok
    assert rep.transpose_map == [0, 4, 3, 2, 1]
    assert rep.tensor.valencies == (1, 3, 3, 3, 3)


def test_perturbed_scheme_fails_regularity(cyc13):
    rel = np.array(cyc13.rel)
    tmap = cyc13.transpose_map()
    # swap one transpose pair of cells to a different class pair, keeping
    # axioms (i)-(iii) intact so the failure lands on the counting axiom
    x, y = 0, 1
    old = int(rel[x, y])
    new = old % 4 + 1
    rel[x, y] = new
    rel[y, x] = tmap[new]
    rep = sf.verify_axioms(AssociationScheme(rel))
    assert rep.diagonal_ok and rep.partition_ok and rep.transpose_ok
    assert not rep.regular_ok
    assert not rep.ok


def test_single_entry_overwrite_fails(cyc13):
    rel = np.array(cyc13.rel)
    rel[0, 1] = rel[0, 1] % 4 + 1
    rep = sf.verify_axioms(AssociationScheme(rel))
    assert not rep.ok
    assert not rep.regular_ok


def test_constructor_rejects_bad_input():
    with pytest.raises(SchemeError):
        AssociationScheme([[0, 1, 1], [1, 0, 1]])  # not square
    with pytest.raises(SchemeError):
        AssociationScheme([[0, 9], [9, 0]], d=4)  # index out of range


def test_constructor_refuses_lossy_entries(monkeypatch, cyc13):
    """An entry the int16 cast would change is a SchemeError, not a relation
    index; exact-integer floats construct, and int16 input is not compared."""
    for rel in (np.array([[0, 65537], [1, 0]]), np.array([[0, 1.7], [1, 0]]),
                [[0, 70000], [1, 0]]):
        with pytest.raises(SchemeError, match="int16"):
            AssociationScheme(rel)
    assert AssociationScheme(np.zeros((1, 1))).d == 0
    monkeypatch.setattr(np, "array_equal", None)  # any comparison would fail loudly
    assert AssociationScheme(np.array(cyc13.rel)).n == 13


def test_constructor_leaves_the_callers_array_alone(cyc13):
    """A writable int16 array stays writable, and writing to it afterwards
    does not reach the scheme: the scheme keeps a frozen copy of its own."""
    a = np.array(cyc13.rel)
    s = AssociationScheme(a)
    new = cyc13.rel[0, 1] % 4 + 1
    a[0, 1] = new
    assert a.flags.writeable and a[0, 1] == new
    assert s.rel[0, 1] == cyc13.rel[0, 1] != new and not s.rel.flags.writeable
    view = np.array(cyc13.rel)[:, :]  # read-only but not owning its memory: copied
    view.setflags(write=False)
    assert AssociationScheme(view).rel is not view
    frozen = np.array(cyc13.rel)
    frozen.setflags(write=False)
    assert AssociationScheme(frozen).rel is frozen


def test_builders_and_loaders_hand_over_an_array_that_is_kept(monkeypatch, tmp_path, cyc13):
    """Every builder and loader freezes the array it made, so the constructor
    keeps that array rather than copying it."""
    init, handed = AssociationScheme.__init__, []

    def recording_init(self, rel, d=None):
        init(self, rel, d)
        handed.append(self.rel is rel)

    monkeypatch.setattr(AssociationScheme, "__init__", recording_init)
    save_scheme(cyc13, str(tmp_path / "c.ascm"))
    (tmp_path / "t.ascm").write_text("3 2\n0  1 2\n1 0 2\n2 2 0\n")
    for build in (lambda: sf.cyclotomic_scheme(13, 4), lambda: sf.johnson2_scheme(5),
                  lambda: sf.wreath(sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2)),
                  lambda: scheme_core.fuse(cyc13, [[0], [1, 4], [2, 3]]),
                  lambda: load_scheme(str(tmp_path / "c.ascm")),
                  lambda: load_scheme(str(tmp_path / "t.ascm"))):
        handed.clear()
        build()
        assert handed and all(handed)


def test_intersection_tensor_requires_valid_scheme():
    rel = [[0, 1, 1], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(SchemeError):
        sf.intersection_tensor(AssociationScheme(rel))


def test_every_refusal_keeps_its_type_and_message(monkeypatch, cyc13):
    """With verification forced to fail, each builder, fuse, intersection_tensor
    and classify_scheme verifies once and raises its own exception type with
    "<what>:" and the report's summary."""
    c3 = sf.cyclotomic_scheme(3, 2)
    reports = []

    def failing(s):
        reports.append(AxiomReport(n=s.n, d=s.d, regular_ok=False, failures=["forced"]))
        return reports[-1]

    for module in (scheme_core, constructions, feasibility):
        monkeypatch.setattr(module, "verify_axioms", failing, raising=False)
    refusals = [
        (lambda: sf.cyclotomic_scheme(13, 4), SchemeError,
         "cyclotomic construction failed verification", 13, 4),
        (lambda: sf.wreath(c3, c3), SchemeError, "wreath construction failed verification", 9, 4),
        (lambda: sf.johnson2_scheme(5), SchemeError,
         "2-subset construction failed verification", 10, 2),
        (lambda: sf.fuse(cyc13, [[0], [1, 2, 3, 4]]), FusionError,
         "admissible partition does not yield a scheme", 13, 1),
        (lambda: sf.intersection_tensor(cyc13), SchemeError, "not an association scheme", 13, 4),
        (lambda: sf.classify_scheme(cyc13), sf.ClassificationError,
         "not an association scheme", 13, 4),
    ]
    for count, (refuse, error, what, n, d) in enumerate(refusals, 1):
        with pytest.raises(Exception) as info:
            refuse()
        assert type(info.value) is error and len(reports) == count, what
        assert str(info.value) == (
            f"{what}:\n"
            f"points n = {n}, classes d = {d}\n"
            "axiom (i)   diagonal relation:        pass\n"
            "axiom (ii)  partition, all nonempty:  pass\n"
            "axiom (iii) transposes are classes:   pass\n"
            "axiom (iv)  constant path counts:     FAIL\n"
            "  - forced"), what


def test_symmetrize_cyc13(cyc13):
    sym = sf.symmetrize(cyc13)
    assert sym.d == 2
    T = sf.intersection_tensor(sym)
    # conference graph on 13 points: k = 6, lam = 2, mu = 3
    assert T.valencies == (1, 6, 6)
    assert T[1, 1, 1] == 2 and T[1, 1, 2] == 3
    assert sym == sf.cyclotomic_scheme(13, 2)


def test_symmetrize_fixed_points(j52, thin_z5):
    assert sf.symmetrize(j52) == j52
    pent = sf.symmetrize(thin_z5)
    T = sf.intersection_tensor(pent)
    assert T.valencies == (1, 2, 2)
    assert T[1, 1, 1] == 0 and T[1, 1, 2] == 1  # pentagon = 5-point conference graph


def test_symmetrize_idempotent(cyc13):
    once = sf.symmetrize(cyc13)
    assert sf.symmetrize(once) == once


def test_fuse_orbit_partition_equals_symmetrize(cyc13):
    tmap = cyc13.transpose_map()
    blocks = [[0], [1, tmap[1]], sorted([2, tmap[2]])]
    assert sf.fuse(cyc13, blocks) == sf.symmetrize(cyc13)


def test_fuse_identity(cyc13):
    same = sf.fuse(cyc13, [[0], [1], [2], [3], [4]])
    assert same == cyc13


def test_fuse_rejects_non_closed_blocks(cyc13):
    with pytest.raises(FusionError):
        sf.fuse(cyc13, [[0], [1], [2, 3, 4]])  # {1}' = {4}, not a block


def test_fuse_admissible_but_not_scheme(cyc13):
    # {1,2}' = {4,3} is a block, so the partition is admissible, yet the
    # merged relations have non-constant path counts
    with pytest.raises(FusionError):
        sf.fuse(cyc13, [[0], [1, 2], [3, 4]])


def test_fuse_rejects_bad_partitions(cyc13):
    with pytest.raises(FusionError):
        sf.fuse(cyc13, [[0, 1], [2, 3, 4]])  # block 0 not a singleton
    with pytest.raises(FusionError):
        sf.fuse(cyc13, [[0], [1, 2]])  # does not cover


def test_is_skew_symmetric(cyc13, j52):
    assert sf.is_skew_symmetric(cyc13)
    assert not sf.is_skew_symmetric(j52)
    # 12 = (13-1)/2 even makes the squares closed under negation
    assert not sf.is_skew_symmetric(sf.cyclotomic_scheme(13, 2))


def test_imprimitive_blocks(wreath_3_7, cyc13, thin_z5):
    """Z_12 has its subgroups of order 3, 2, 4 and 6, in the order of the
    orbit subsets; (c3 wr c7) wr c3 has the 3-point and the 21-point blocks."""
    z12 = AssociationScheme(np.array([[(x - y) % 12 for y in range(12)] for x in range(12)]))
    c3, c7 = sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2)
    cases = [(wreath_3_7, [[0, 1, 4]]), (cyc13, []), (thin_z5, []),
             (z12, [[0, 4, 8], [0, 6], [0, 3, 6, 9], [0, 2, 4, 6, 8, 10]]),
             (sf.wreath(sf.wreath(c3, c7), c3), [[0, 1, 4], [0, 1, 2, 3, 4]])]
    for scheme, blocks in cases:
        assert sf.imprimitive_blocks(sf.intersection_tensor(scheme)) == blocks


def test_tensor_identities_on_corpus(cyc13, thin_z5, wreath_3_7, j52):
    for scheme in (cyc13, thin_z5, wreath_3_7, j52, sf.cyclotomic_scheme(29, 4)):
        rep = sf.verify_axioms(scheme)
        T, tmap = rep.tensor, rep.transpose_map
        d = scheme.d
        for i in range(d + 1):
            for j in range(d + 1):
                # p^0 column rule
                expected = T.valencies[i] if j == tmap[i] else 0
                assert T[i, j, 0] == expected
                for k in range(d + 1):
                    assert T[i, j, k] == T[tmap[j], tmap[i], tmap[k]]
                    assert T[i, j, k] == T[j, i, k]  # commutative (d <= 4)
        for i in range(d + 1):
            for k in range(d + 1):
                assert sum(T[i, j, k] for j in range(d + 1)) == T.valencies[i]


def test_skew_relation_sizes(cyc13, wreath_3_7):
    for scheme in (cyc13, wreath_3_7):
        tmap = scheme.transpose_map()
        sizes = scheme.relation_sizes()
        assert sizes[0] == scheme.n
        for i in range(1, scheme.d + 1):
            assert sizes[i] == sizes[tmap[i]]


def test_ascm_round_trip(tmp_path, cyc13):
    path = str(tmp_path / "c13.ascm")
    save_scheme(cyc13, path)
    again = load_scheme(path)
    assert again == cyc13
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "13 4"


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("abc\n", 1),
        ("2\n0 1\n1 0\n", 1),
        ("2 1\n0 1\n1\n", 3),
        ("2 1\n0 x\n1 0\n", 2),
        ("2 1\n0 3\n1 0\n", 2),
        ("2 1\n1 1\n1 0\n", 2),  # diagonal must be relation 0
        ("3 1\n0 1 1\n1 0 1\n", 3),  # missing a row
    ],
)
def test_ascm_parse_errors(tmp_path, content, line):
    path = tmp_path / "bad.ascm"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(str(path))
    assert err.value.line == line
