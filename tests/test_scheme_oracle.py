"""The counting verifier and the .ascm parser against the frozen reference.

``reference_scheme_core`` keeps the first implementation: (d+1)^2 float64
products with a mask gather per class, a per-class transpose map and a
token-by-token parser.  Every property here compares whole results with it:
the full ``AxiomReport`` (flags, failures in order, transpose map, tensor)
on perturbed schemes and on Cayley schemes and relabelled copies of them,
and the exception class, line, column and message on malformed scheme
files.
"""

from functools import lru_cache
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scheme_core as ref
import skewfiss as sf
from skewfiss import scheme_core
from skewfiss.scheme_core import AssociationScheme, SchemeParseError, load_scheme, save_scheme


@lru_cache(maxsize=None)
def corpus(name: str) -> AssociationScheme:
    if name == "cyc13":
        return sf.cyclotomic_scheme(13, 4)
    if name == "cyc29":
        return sf.cyclotomic_scheme(29, 4)
    if name == "cyc125":
        return sf.cyclotomic_scheme(125, 4)
    if name == "cyc13_d12":
        return sf.cyclotomic_scheme(13, 12)
    if name == "thin_z5":
        return AssociationScheme(np.array([[(x - y) % 5 for y in range(5)] for x in range(5)]))
    if name == "wreath_3_7":
        return sf.wreath(sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2))
    return sf.johnson2_scheme(5)


NAMES = ["cyc13", "cyc29", "cyc13_d12", "thin_z5", "wreath_3_7", "j52"]
PERTURBATIONS = ["diagonal", "flip", "swap", "empty"]


def perturb(rel: np.ndarray, d: int, kind: str, draw) -> None:
    """Break one axiom (or, by chance, none) of the relation matrix in place."""
    n = len(rel)
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "diagonal":
        rel[x, x] = draw(st.integers(1, d))
    elif kind == "flip":
        rel[x, y] = draw(st.integers(0, d))
    elif kind == "swap":
        rel[x, y], rel[y, x] = rel[y, x], rel[x, y]
    else:
        k = draw(st.integers(1, d))
        rel[rel == k] = draw(st.sampled_from([c for c in range(1, d + 1) if c != k]))


def assert_reports_equal(s: AssociationScheme) -> sf.AxiomReport:
    fast, slow = sf.verify_axioms(s), ref.verify_axioms(s)
    assert fast.failures == slow.failures
    assert (fast.diagonal_ok, fast.partition_ok, fast.transpose_ok, fast.regular_ok) == \
        (slow.diagonal_ok, slow.partition_ok, slow.transpose_ok, slow.regular_ok)
    assert fast.transpose_map == slow.transpose_map == s.transpose_map() == ref.transpose_map(s)
    assert s.relation_sizes() == np.bincount(s.rel.ravel(), minlength=s.d + 1).tolist()
    assert fast.tensor == slow.tensor
    assert fast == slow
    return fast


def test_corpus_matches_reference():
    for name in NAMES:
        assert assert_reports_equal(corpus(name)).ok


@given(st.sampled_from(NAMES),
       st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3),
       st.data())
@settings(max_examples=120, deadline=None)
def test_perturbed_reports_match_reference(name, kinds, data):
    s = corpus(name)
    rel = np.array(s.rel)
    for kind in kinds:
        perturb(rel, s.d, kind, data.draw)
    assert_reports_equal(AssociationScheme(rel, d=s.d))


def test_last_product_needs_constant_row_sums():
    """A_1 A_1 = 0 is constant on every class, but A_1's row sums are 2, 0, 0,
    so A_1 A_2 does not follow from A_1 J: it is counted and its variation
    reported."""
    s = AssociationScheme(np.array([[0, 1, 1], [2, 0, 2], [2, 2, 0]]))
    rep = assert_reports_equal(s)
    assert any(f.startswith("count of (R_1, R_2) paths") for f in rep.failures)


def test_skew_d4_forms_six_products(monkeypatch):
    """Trivial planes, mirrored pairs and the last product of each row are
    derived, not multiplied: rows 1..4 form 3, 2, 1 and 0 products.  cyc13
    with two points swapped is fixed by no digit increment, so it takes the
    n-row path that forms products."""
    s = _swap_points(corpus("cyc13"), 1, 2)
    calls = []
    real = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheme_core.np, "matmul", counting)
    assert sf.verify_axioms(s).ok
    assert len(calls) == 6


def test_verify_peak_allocation_n1013():
    """Working set: d float32 indicator matrices plus one product (A_0 = I
    enters no product, so it gets no indicator).

    The slack covers one boolean n x n mask alive while an indicator is
    built and the row-block temporaries of the regularity check.
    """
    s = sf.cyclotomic_scheme(1013, 4)
    n, d = s.n, s.d
    tracemalloc.start()
    try:
        rep = sf.verify_axioms(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    working_set = d * n * n * 4 + n * n * 4
    slack = n * n + 16 * scheme_core._CHECK_CELLS
    assert peak <= working_set + slack, (peak, working_set, slack)


# -- Cayley schemes: the count reads row 0 -------------------------------------------


def cayley(c, radices) -> np.ndarray:
    """rel[x][y] = c[y - x] on Z_a1 x ... x Z_at, a point labelled by its
    digits in mixed radix, least significant first: the increment of digit s
    (place value a_1 ... a_(s-1), radix a_s) fixes it for every s."""
    n = int(np.prod(radices))
    x, y = np.arange(n)[:, None], np.arange(n)[None, :]
    diff, place = 0, 1
    for a in radices:
        diff = diff + (y // place % a - x // place % a) % a * place
        place *= a
    return np.asarray(c)[diff]


def _relabel_top_digit(rel: np.ndarray, radices, perm) -> np.ndarray:
    """rel with the top digit of every point permuted: the lower digits'
    increments still fix it, and its orbits are the top digit's values."""
    n, low = len(rel), int(np.prod(radices[:-1]))
    order = np.asarray(perm)[np.arange(n) // low] * low + np.arange(n) % low
    return rel[np.ix_(order, order)]


# label maps of the 4-class cyclotomic schemes that give schemes again: the
# symmetric 2-class fusion (R_i with R_i^T), the 1-class fusion and a
# relabelling
CYC4_FUSIONS = [(0, 1, 2, 2, 1), (0, 1, 1, 1, 1), (0, 3, 1, 4, 2)]
CAYLEY_CORPUS = {"cyc13": [13], "cyc29": [29], "cyc125": [5, 5, 5], "wreath_3_7": [3, 7]}


@st.composite
def cayley_schemes(draw):
    """Cayley index matrices on Z_n for every n up to 40 and on mixed-radix
    groups, some with points relabelled.  The class vector is arbitrary, or
    row 0 of a corpus scheme with at most two entries redrawn and its labels
    then merged or permuted.  The relabelling permutes the top digit (the
    lower digits' increments are left, but are not transitive) or swaps two
    points (usually no increment is left).  Most are not schemes: classes
    go empty, the diagonal leaves 0, transposes stop being classes or path
    counts vary."""
    name = draw(st.one_of(st.none(), st.sampled_from(list(CAYLEY_CORPUS))))
    if name is None:
        radices = draw(st.one_of(st.integers(1, 40).map(lambda a: [a]),
                                 st.lists(st.integers(2, 7), min_size=2, max_size=3)))
        n = int(np.prod(radices))
        c = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        if draw(st.booleans()):  # symmetric, 0 at the identity only
            neg = cayley(np.arange(n), radices)[:, 0]  # -t, digit by digit
            c = [0] + [1 + c[min(t, neg[t])] % 6 for t in range(1, n)]
    else:
        radices = CAYLEY_CORPUS[name]
        c = corpus(name).rel[0].tolist()
        for _ in range(draw(st.integers(0, 2))):
            c[draw(st.integers(0, len(c) - 1))] = draw(st.integers(0, 4))
        labels = draw(st.one_of(
            st.sampled_from(CYC4_FUSIONS),
            st.permutations(range(1, 5)).map(lambda t: [0, *t]),
            st.lists(st.integers(0, 4), min_size=5, max_size=5),
        ))
        c = [labels[v] for v in c]
    rel = cayley(c, radices)
    relabel = draw(st.sampled_from(["none", "top_digit", "swap"]))
    if relabel == "top_digit" and len(radices) > 1:
        rel = _relabel_top_digit(rel, radices, draw(st.permutations(range(radices[-1]))))
    elif relabel == "swap":
        x, y = draw(st.integers(0, len(rel) - 1)), draw(st.integers(0, len(rel) - 1))
        rel = _swap_points(AssociationScheme(rel), x, y).rel
    return AssociationScheme(rel, d=int(rel.max()) + draw(st.integers(0, 1)))


@given(cayley_schemes())
@settings(max_examples=400, deadline=None)
def test_shift_invariant_reports_match_reference(s):
    """Row 0 when the increments left are transitive, else all n rows, gives
    the whole report of the all-pairs reference: flags, failures in order,
    transpose map and tensor."""
    assert_reports_equal(s)


def _swap_points(s: AssociationScheme, x: int, y: int) -> AssociationScheme:
    order = np.arange(s.n)
    order[[x, y]] = order[[y, x]]
    return AssociationScheme(s.rel[np.ix_(order, order)], d=s.d)


def _cyc125_top_digit_permuted() -> AssociationScheme:
    s = sf.cyclotomic_scheme(125, 4)
    return AssociationScheme(_relabel_top_digit(s.rel, [5, 5, 5], [1, 0, 2, 3, 4]), d=s.d)


# scheme, rows counted (row 0 alone, or all n on the path that forms products)
PATH_CORPUS = {
    "cyc13": (lambda: corpus("cyc13"), 1),
    "cyc29": (lambda: corpus("cyc29"), 1),
    "cyc1013": (lambda: sf.cyclotomic_scheme(1013, 4), 1),
    "cyc125": (lambda: sf.cyclotomic_scheme(125, 4), 1),
    "cyc3125": (lambda: sf.cyclotomic_scheme(3125, 4), 1),
    "wreath_3_7": (lambda: corpus("wreath_3_7"), 1),
    "cyc125_top_digit_permuted": (_cyc125_top_digit_permuted, 125),
    "wreath_3_j52": (lambda: sf.wreath(sf.cyclotomic_scheme(3, 2), corpus("j52")), 30),
    "j52": (lambda: corpus("j52"), 10),
    "cyc13_swap_1_2": (lambda: _swap_points(corpus("cyc13"), 1, 2), 13),
}


@pytest.mark.parametrize("name", PATH_CORPUS)
def test_count_rows_follow_shift_invariance(name, monkeypatch):
    """A scheme fixed by a transitive group of digit increments is counted
    on row 0, by bincount, and forms no product: the cyclotomic schemes on
    Z_q and on GF(5^3) and GF(5^5), and the wreath.  j52 and cyc13 with two
    points swapped are fixed by no increment, cyc125 with its top digit
    permuted only by increments with five orbits, and c3 wr j52 by ones
    with ten orbits: they form products on all n rows."""
    build, rows = PATH_CORPUS[name]
    s = build()
    counted, product_rows = [], []
    real_row, real_matmul = scheme_core._count_row, np.matmul

    def count_row(*args):
        counted.append(0)
        return real_row(*args)

    def matmul(a, *args, **kwargs):
        product_rows.append(a.shape[0])
        return real_matmul(a, *args, **kwargs)

    monkeypatch.setattr(scheme_core, "_count_row", count_row)
    monkeypatch.setattr(scheme_core.np, "matmul", matmul)
    assert sf.verify_axioms(s).ok
    if rows == 1:
        assert counted == [0] and product_rows == []
    else:
        assert rows == s.n and counted == [] and set(product_rows) == {s.n}


def test_verify_peak_allocation_shift_invariant_n1013():
    """On the row-0 path no n x n product buffer is allocated: the working set
    is the d float32 indicators, plus one boolean mask alive while the last is
    built, plus the row-block temporaries."""
    s = sf.cyclotomic_scheme(1013, 4)
    n, d = s.n, s.d
    tracemalloc.start()
    try:
        rep = sf.verify_axioms(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    bound = d * n * n * 4 + n * n + 16 * scheme_core._CHECK_CELLS
    assert peak <= bound, (peak, bound)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_peak_allocation_n_rows_n1013():
    """cyc1013 with two points swapped is fixed by no digit increment: the
    n-row count holds d float32 indicators and one product, with the slack
    of test_verify_peak_allocation_n1013, which cyc1013 passes on the row-0
    path."""
    s = _swap_points(sf.cyclotomic_scheme(1013, 4), 1, 2)
    n, d = s.n, s.d
    rep, peak = _traced_peak(lambda: sf.verify_axioms(s))
    assert rep.ok and not s._transitive
    bound = d * n * n * 4 + n * n * 4 + n * n + 16 * scheme_core._CHECK_CELLS
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("step", ["build", "verify", "save", "load"])
def test_pipeline_peak_allocation_n1013(tmp_path, step):
    """Each step keeps alive at most the file's bytes (2 n^2 at d = 4), rel
    (2 n^2) and row-block temporaries: the cyclotomic build, verify_axioms
    on the row-0 path with nothing cached, save_scheme and load_scheme."""
    n = 1013
    bound = 4 * n * n + 16 * scheme_core._CHECK_CELLS
    path = str(tmp_path / "c1013.ascm")
    if step == "build":
        s, peak = _traced_peak(lambda: sf.cyclotomic_scheme(n, 4))
        assert s.n == n
    else:
        s = sf.cyclotomic_scheme(n, 4)
    if step == "verify":
        fresh = AssociationScheme(s.rel, d=s.d)
        rep, peak = _traced_peak(lambda: sf.verify_axioms(fresh))
        assert rep.ok and fresh._transitive
    if step == "save":
        _, peak = _traced_peak(lambda: save_scheme(s, path))
        with open(path, "rb") as fh:
            assert fh.read() == scheme_bytes(s)
    if step == "load":
        save_scheme(s, path)
        again, peak = _traced_peak(lambda: load_scheme(path))
        assert again == s
        with open(path, "rb") as fh:  # every row block read as bytes
            assert scheme_core._read_canonical(fh.read()) == s
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("q, d", [(128, 127), (1013, 44)])
def test_verify_peak_allocation_many_classes(q, d):
    """Cyclotomic schemes with many classes, on the row-0 path: besides the
    tensor, held once (nested lists while counted, frozen into the report's
    tuples plane by plane, 8 bytes an entry and a header per row), the count
    keeps one (d + 1) x n plane of counts alive at a time, not all d + 1 of
    them."""
    s = sf.cyclotomic_scheme(q, d)
    fresh = AssociationScheme(s.rel, d=s.d)
    n, m = s.n, s.d + 1
    rep, peak = _traced_peak(lambda: sf.verify_axioms(fresh))
    assert rep.ok and fresh._transitive
    bound = 8 * m * m * (m + 8) + 16 * 8 * m * n + 4 * scheme_core._CHECK_CELLS
    assert peak <= bound, (peak, bound)


# -- block systems --------------------------------------------------------------------


def _thin(m: int) -> AssociationScheme:
    return AssociationScheme(np.array([[(x - y) % m for y in range(m)] for x in range(m)]))


def _nested_wreath() -> AssociationScheme:
    c3, c7 = sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2)
    return sf.wreath(sf.wreath(c3, c7), c3)


K2 = AssociationScheme(np.array([[0, 1], [1, 0]]))
BLOCK_CORPUS = {
    "cyc13": lambda: sf.cyclotomic_scheme(13, 4),
    "cyc29": lambda: sf.cyclotomic_scheme(29, 4),
    "cyc125": lambda: sf.cyclotomic_scheme(125, 4),
    "cyc1013": lambda: sf.cyclotomic_scheme(1013, 4),
    "cyc31_d6": lambda: sf.cyclotomic_scheme(31, 6),
    "cyc13_d2": lambda: sf.cyclotomic_scheme(13, 2),
    "wreath_3_7": lambda: sf.wreath(sf.cyclotomic_scheme(3, 2), sf.cyclotomic_scheme(7, 2)),
    "wreath_7_3": lambda: sf.wreath(sf.cyclotomic_scheme(7, 2), sf.cyclotomic_scheme(3, 2)),
    "j52": lambda: sf.johnson2_scheme(5),
    "thin_z5": lambda: _thin(5),
    "thin_z6": lambda: _thin(6),
    "thin_z8": lambda: _thin(8),
    "thin_z12": lambda: _thin(12),
    "nested_wreath": _nested_wreath,
    "one_point": lambda: AssociationScheme(np.zeros((1, 1))),
    "k3": lambda: AssociationScheme(1 - np.eye(3)),
    "two_k2": lambda: sf.wreath(K2, K2),
}


@pytest.mark.parametrize("name", BLOCK_CORPUS)
def test_block_systems_match_reference(name):
    s = BLOCK_CORPUS[name]()
    assert sf.imprimitive_blocks(sf.intersection_tensor(s)) == ref.imprimitive_blocks(s)


def test_block_systems_read_only_the_tensor(monkeypatch):
    """No count, no matrix product and no allocation that grows with n: the
    search reads the 5^3 numbers of the tensor and nothing else."""
    tensor = sf.intersection_tensor(sf.cyclotomic_scheme(1013, 4))

    def forbidden(*args, **kwargs):
        raise AssertionError("imprimitive_blocks counted")

    monkeypatch.setattr(scheme_core, "verify_axioms", forbidden)
    monkeypatch.setattr(scheme_core.np, "matmul", forbidden)
    tracemalloc.start()
    try:
        assert sf.imprimitive_blocks(tensor) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1013 * 4, peak  # less than one float32 row


# -- .ascm parser --------------------------------------------------------------------

TOKENS = ["0", "1", "2", "3", "4", "5", "-1", "+1", "01", "1_0", "٣", "x", "1.0",
          "300", "99999999999999999999", "", "0 0", "\t"]
SEPARATORS = ["\n", "\r\n", "\r", " ", "\x0c", "\n\n"]


def scheme_text(s: AssociationScheme) -> list[list[str]]:
    return [[str(s.n), str(s.d)]] + [[str(int(v)) for v in row] for row in s.rel]


@st.composite
def ascm_texts(draw):
    """A valid scheme file with a few tokens, rows or the header broken."""
    rows = scheme_text(corpus(draw(st.sampled_from(["cyc13", "cyc13_d12", "thin_z5", "j52"]))))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        what = draw(st.sampled_from(["replace", "delete", "insert", "drop_row", "dup_row"]))
        if what == "drop_row":
            del rows[r]
        elif what == "dup_row":
            rows.insert(r, list(rows[r]))
        elif what == "delete" and rows[r]:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        elif what == "insert":
            rows[r].insert(draw(st.integers(0, len(rows[r]))), draw(st.sampled_from(TOKENS)))
        elif rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(TOKENS))
    sep = draw(st.sampled_from(SEPARATORS))
    return sep.join(" ".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))


def scheme_bytes(s: AssociationScheme) -> bytes:
    return "".join(" ".join(row) + "\n" for row in scheme_text(s)).encode()


def parse_both(tmp_path, text: str | bytes):
    path = tmp_path / "case.ascm"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    outcomes = []
    for parse in (load_scheme, ref.load_scheme):
        try:
            outcomes.append(("ok", parse(str(path))))
        except SchemeParseError as exc:
            outcomes.append((type(exc), exc.line, exc.column, str(exc)))
        except sf.SchemeError as exc:
            outcomes.append((type(exc), str(exc)))
        except Exception as exc:  # e.g. UnicodeDecodeError: the class must match
            outcomes.append((type(exc),))
    return outcomes


@given(st.one_of(ascm_texts(), st.text(alphabet="0123 \n-x+\r", max_size=40)))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference(tmp_path_factory, text):
    for variant in (text, text.replace("\n", "\r\n")):  # and its CRLF variant
        fast, slow = parse_both(tmp_path_factory.getbasetemp(), variant)
        assert fast == slow


def _edit_row(data: bytes, row: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[row] = edit(lines[row])
    return b"\n".join(lines)


def _edit_token(data: bytes, row: int, col: int, edit) -> bytes:
    def on_row(line):
        tokens = line.split(b" ")
        tokens[col] = edit(tokens[col])
        return b" ".join(tokens)
    return _edit_row(data, row, on_row)


# Byte-level departures from the canonical layout, each applied to a saved
# file.  Line r >= 1 is row r - 1, so the token in column r - 1 of line r is
# the diagonal one and column 3 of lines 1, 2 and 5 is off the diagonal.
BYTE_CASES = {
    "canonical": lambda b, d: b,
    "crlf": lambda b, d: b.replace(b"\n", b"\r\n"),
    "tab": lambda b, d: _edit_row(b, 2, lambda r: r.replace(b" ", b"\t", 1)),
    "form_feed": lambda b, d: _edit_row(b, 2, lambda r: r.replace(b" ", b"\x0c", 1)),
    "trailing_space": lambda b, d: _edit_row(b, 1, lambda r: r + b" "),
    "doubled_space": lambda b, d: _edit_row(b, 3, lambda r: r.replace(b" ", b"  ", 1)),
    "empty_diagonal_token": lambda b, d: _edit_token(b, 2, 1, lambda t: b""),
    "leading_zero": lambda b, d: _edit_token(b, 1, 3, lambda t: b"0" + t),
    "index_above_d": lambda b, d: _edit_token(b, 2, 3, lambda t: b"%d" % (d + 1)),
    "index_too_wide": lambda b, d: _edit_token(b, 2, 3, lambda t: b"1" * (len(str(d)) + 1)),
    "zero_off_diagonal": lambda b, d: _edit_token(b, 5, 3, lambda t: b"0"),
    "header_d_above_cap": lambda b, d: _edit_row(b, 0, lambda r: r.split(b" ")[0] + b" 256"),
    "header_leading_zero": lambda b, d: b"0" + b,
    "utf8_bom": lambda b, d: b"\xef\xbb\xbf" + b,
    "invalid_utf8_after_rows": lambda b, d: b + b"\xff\xfe\n",
    "utf8_after_rows": lambda b, d: b + "\u2028\u00e9\n".encode(),
    "extra_lines": lambda b, d: b + b"1 2 3\nnot a row\n",
    "no_final_newline": lambda b, d: b[:-1],
    "missing_row": lambda b, d: b[:b.rindex(b"\n", 0, -1) + 1],
}


@pytest.mark.parametrize("case", BYTE_CASES)
@pytest.mark.parametrize("name", ["cyc13", "cyc13_d12"])
def test_byte_cases_match_reference(tmp_path, name, case):
    s = corpus(name)
    fast, slow = parse_both(tmp_path, BYTE_CASES[case](scheme_bytes(s), s.d))
    assert fast == slow
    if case in ("canonical", "crlf", "extra_lines", "utf8_after_rows", "no_final_newline"):
        assert fast == ("ok", s)


@pytest.mark.parametrize("case", BYTE_CASES)
@pytest.mark.parametrize("name", ["cyc13", "cyc13_d12"])
def test_crlf_byte_cases_match_reference(tmp_path, name, case):
    """Each byte case with every LF then written CRLF: the byte path reads
    the canonical layout with CRLF line ends, and leaves every other file
    to the token walk, which reports as the reference does."""
    s = corpus(name)
    data = BYTE_CASES[case](scheme_bytes(s), s.d).replace(b"\n", b"\r\n")
    fast, slow = parse_both(tmp_path, data)
    assert fast == slow
    if case in ("canonical", "extra_lines", "utf8_after_rows", "no_final_newline"):
        assert fast == ("ok", s)
    if case in ("canonical", "extra_lines", "utf8_after_rows"):
        assert scheme_core._read_canonical(data) == s
    if case in ("crlf", "tab", "form_feed", "doubled_space", "index_above_d"):
        assert scheme_core._read_canonical(data) is None


def _one_digit_byte_cases():
    """Width-1 files by name:  cyc13 (d = 4) through every byte case, and
    a d = 9 file of several row blocks with its last row's tokens edited."""
    s = corpus("cyc13")
    cases = [(case, BYTE_CASES[case](scheme_bytes(s), s.d)) for case in BYTE_CASES]
    rel = np.random.default_rng(7).integers(1, 10, size=(600, 600))
    np.fill_diagonal(rel, 0)
    big = scheme_bytes(AssociationScheme(rel, d=9))
    cases.append(("600_canonical", big))
    for name, token in (("wide", b"10"), ("letter", b"x"), ("zero", b"0")):
        cases.append((f"600_last_row_{name}", _edit_token(big, 600, 5, lambda t: token)))
    cases.append(("600_last_row_tab", _edit_row(big, 600, lambda r: r.replace(b" ", b"\t", 1))))
    return dict(cases)


ONE_DIGIT_CASES = _one_digit_byte_cases()


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", ONE_DIGIT_CASES)
def test_one_digit_rows_match_token_runs(tmp_path, monkeypatch, crlf, case):
    """The one-digit read of _canonical_rows against _token_runs, the general
    reading, on the same bytes: the same scheme, or the same fall back to
    the token walk and the same outcome there."""
    data = ONE_DIGIT_CASES[case]
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    fast = scheme_core._read_canonical(data), parse_both(tmp_path, data)[0]
    monkeypatch.setattr(scheme_core, "_canonical_rows", scheme_core._token_runs)
    assert fast == (scheme_core._read_canonical(data), parse_both(tmp_path, data)[0])


@pytest.mark.parametrize("row", range(1, 14))
def test_crlf_file_with_one_lf_row_matches_reference(tmp_path, row):
    """CRLF everywhere but at the end of one row: that row's last byte is a
    digit, not CR, and no digit of a two-digit last token is dropped."""
    s = corpus("cyc13_d12")
    lines = scheme_bytes(s).split(b"\n")
    data = b"\r\n".join(lines[:row + 1]) + b"\n" + b"\r\n".join(lines[row + 1:])
    fast, slow = parse_both(tmp_path, data)
    assert fast == slow == ("ok", s)


def test_empty_rows_allocate_nothing_large():
    """A header promising n rows, then n empty lines: the byte reader gives
    the file up before filling any buffer of n^2 bytes."""
    data = b"2000 4\n" + b"\n" * 2001
    tracemalloc.start()
    try:
        assert scheme_core._read_canonical(data) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 // 4, peak


@pytest.mark.parametrize("name", NAMES)
def test_saved_bytes_round_trip(tmp_path, name):
    s = corpus(name)
    path = tmp_path / "s.ascm"
    save_scheme(s, str(path))
    assert path.read_bytes() == scheme_bytes(s)
    assert load_scheme(str(path)) == ref.load_scheme(str(path)) == s


@given(st.sampled_from([1, 4, 9, 10, 99, 100, 255]), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_index_matrices_round_trip(tmp_path_factory, d, n, seed):
    """Any index matrix with 0 exactly on the diagonal, in every token width."""
    rng = np.random.default_rng(seed)
    rel = rng.integers(1, d + 1, size=(n, n))
    np.fill_diagonal(rel, 0)
    s = AssociationScheme(rel, d=d)
    path = tmp_path_factory.getbasetemp() / "random.ascm"
    save_scheme(s, str(path))
    assert path.read_bytes() == scheme_bytes(s)
    assert load_scheme(str(path)) == ref.load_scheme(str(path)) == s
