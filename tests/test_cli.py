import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skewfiss.cli as cli
import skewfiss.feasibility as feasibility
import skewfiss.scheme_core as scheme_core
import skewfiss.spectra as spectra
from skewfiss.exactnum import SurdSum
from skewfiss.scheme_core import IntersectionTensor
from skewfiss.spectra import TYPE_III, ClosedForm, ConsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one small bound per family, for the tests that run every scan
SMALL_SCANS = {"conference": ("--max-n", "61"), "srg": ("--max-n", "120"),
               "imprimitive": ("--max-n", "60"), "johnson": ("--max-v", "24")}


def test_construct_verify_classify(tmp_path, capsys):
    out = str(tmp_path / "c13.ascm")
    code, text, _ = run(capsys, "construct", "cyc", "--q", "13", "--d", "4", "-o", out)
    assert code == 0 and "13 points" in text

    code, text, _ = run(capsys, "verify", out)
    assert code == 0
    assert text.count("pass") == 4
    assert "skew-symmetric: True" in text

    code, text, _ = run(capsys, "classify", out)
    assert code == 0
    assert "conference q=13 g=-3 h=1" in text


def test_transpose_map_computed_once_per_command(tmp_path, capsys, monkeypatch):
    """verify, classify and krein each ask for the pairing twice; the scheme
    computes it once and keeps it."""
    out = str(tmp_path / "c13.ascm")
    assert run(capsys, "construct", "cyc", "--q", "13", "--d", "4", "-o", out)[0] == 0
    calls = []
    cached = vars(scheme_core.AssociationScheme)["_transpose"]
    real = cached.func

    def counted(scheme):
        calls.append(scheme.n)
        return real(scheme)

    monkeypatch.setattr(cached, "func", counted)
    for command in ("verify", "classify", "krein"):
        calls.clear()
        code, text, _ = run(capsys, command, out)
        assert code == 0 and calls == [13], command
    assert "transpose pairing: [0, 4, 3, 2, 1]" in run(capsys, "verify", out)[1]


def test_verify_prints_every_block_system(tmp_path, capsys):
    """The nested wreath (c3 wr c7) wr c3 has two block systems: the 3-point
    inner blocks and the 21-point ones."""
    paths = {name: str(tmp_path / f"{name}.ascm") for name in ("c3", "c7", "w", "nested")}
    assert run(capsys, "construct", "cyc", "--q", "3", "--d", "2", "-o", paths["c3"])[0] == 0
    assert run(capsys, "construct", "cyc", "--q", "7", "--d", "2", "-o", paths["c7"])[0] == 0
    for inner, outer, out in (("c3", "c7", "w"), ("w", "c3", "nested")):
        code, _, _ = run(capsys, "construct", "wreath", "--inner", paths[inner],
                         "--outer", paths[outer], "-o", paths[out])
        assert code == 0
    code, text, _ = run(capsys, "verify", paths["nested"])
    assert code == 0
    assert "imprimitive block systems: [[0, 1, 4], [0, 1, 2, 3, 4]]" in text.splitlines()


def test_verify_reports_a_failing_file_that_classify_and_krein_refuse(tmp_path, capsys):
    """A well-formed 3-point file whose R_1 is not regular fails axiom (iv):
    verify prints the report and exits 0, classify and krein exit 1."""
    path = tmp_path / "irregular.ascm"
    path.write_text("3 2\n0 1 1\n1 0 2\n1 2 0\n")
    code, text, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "axiom (iv)  constant path counts:     FAIL" in text.splitlines()
    assert "  - count of (R_1, R_1) paths over R_0 pairs varies: 1 .. 2" in text.splitlines()
    assert text.count("pass") == 3
    assert "valencies:" not in text and "B1 =" not in text
    for command in ("classify", "krein"):
        code, text, err = run(capsys, command, str(path))
        assert code == 1 and text == "", command
        assert err.startswith("error: not an association scheme:"), command


def test_closed_stdout_exits_as_sigpipe_and_silently():
    """The reader takes one byte of the srg scan's JSON (about 250 KB, more
    than a pipe holds) and closes the pipe: exit 141, nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "skewfiss", "scan", "srg", "--max-n", "1300",
                             "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("d", ["0", "-1"])
def test_construct_cyc_rejects_class_count_below_one(tmp_path, d):
    """Run as a program, so an uncaught exception would show as a traceback."""
    out = tmp_path / "c.ascm"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "skewfiss", "construct", "cyc", "--q", "13",
                           "--d", d, "-o", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_construct_cyc_refuses_oversize_before_allocating(tmp_path, capsys, monkeypatch):
    """q above MAX_POINTS is an error: line (exit 1) raised before GF(q) or
    the q x q difference table is built, and no file is written."""
    import skewfiss.constructions as constructions

    def unreachable(*args):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(constructions, "field_build", unreachable)
    monkeypatch.setattr(constructions, "_class_lookup", unreachable)
    out = tmp_path / "c.ascm"
    code, text, err = run(capsys, "construct", "cyc", "--q", "65537", "--d", "2", "-o", str(out))
    assert (code, text, err) == (1, "", "error: point count 65537 outside 1..65535\n")
    assert not out.exists()


def test_construct_wreath(tmp_path, capsys):
    inner = str(tmp_path / "c3.ascm")
    outer = str(tmp_path / "c7.ascm")
    out = str(tmp_path / "w.ascm")
    assert run(capsys, "construct", "cyc", "--q", "3", "--d", "2", "-o", inner)[0] == 0
    assert run(capsys, "construct", "cyc", "--q", "7", "--d", "2", "-o", outer)[0] == 0
    code, text, _ = run(capsys, "construct", "wreath", "--inner", inner, "--outer", outer,
                        "-o", out)
    assert code == 0 and "21 points" in text
    code, text, _ = run(capsys, "classify", out)
    assert code == 0 and "imprimitive (f,g)=(3,7) type I" in text


def test_scan_conference_tsv(capsys):
    code, text, _ = run(capsys, "scan", "conference", "--max-n", "325", "--format", "tsv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n\tg\th\t#"
    assert len(lines) == 34  # header + 33 rows
    assert lines[1] == "5\t1\t1\t+"


def test_scan_determinism(capsys):
    first = run(capsys, "scan", "conference", "--max-n", "125", "--format", "tsv")
    second = run(capsys, "scan", "conference", "--max-n", "125", "--format", "tsv")
    assert first == second


def test_scan_srg_json(capsys):
    code, text, _ = run(capsys, "scan", "srg", "--max-n", "120", "--format", "json")
    assert code == 0
    data = json.loads(text)
    row57 = next(r for r in data if r["n"] == 57)
    assert row57["table_type"] == "III" and row57["z"] == 27
    assert row57["status"] == "feasible"
    row105 = next(r for r in data if r["n"] == 105)
    assert row105["status"] == "krein_excluded"
    assert row105["krein_value_approx"] < 0


def test_scan_imprimitive_md(capsys):
    code, text, _ = run(capsys, "scan", "imprimitive", "--max-n", "21", "--format", "md")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("| n")
    assert len(lines) == 5  # header + rule + 3 rows


def test_scan_johnson(capsys):
    code, text, _ = run(capsys, "scan", "johnson", "--max-v", "10", "--format", "tsv")
    assert code == 0
    assert "krein_excluded" in text
    assert "feasible" not in text.replace("krein_excluded", "")


@pytest.mark.parametrize("family,flag", [("johnson", "--max-n"), ("srg", "--max-v"),
                                         ("conference", "--max-v"), ("imprimitive", "--max-v")])
def test_scan_rejects_a_bound_of_another_family(capsys, family, flag):
    code, out, err = run(capsys, "scan", family, flag, "50")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


@pytest.mark.parametrize("family,flag,bound", [("srg", "--max-n", "-5"),
                                               ("imprimitive", "--max-n", "-5"),
                                               ("conference", "--max-n", "-5"),
                                               ("johnson", "--max-v", "-1")])
def test_scan_rejects_a_negative_bound(capsys, monkeypatch, family, flag, bound):
    """A negative bound is an error line and exit 1, raised before the scan
    (which would print an empty table) starts."""
    scanner = cli._SCANS[family][2]
    monkeypatch.setattr(feasibility, scanner, lambda limit: pytest.fail(f"{scanner} ran"))
    code, out, err = run(capsys, "scan", family, flag, bound)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be nonnegative, got {bound}\n"


@pytest.mark.parametrize("family", ["conference", "imprimitive", "johnson"])
def test_annotations_only_apply_to_srg(tmp_path, capsys, family):
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"21,10,5,4": {"exists": True}}))
    code, out, err = run(capsys, "scan", family, *SMALL_SCANS[family],
                         "--annotations", str(notes))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: --annotations does not apply to scan " + family)


@pytest.mark.parametrize("text", ["", "{", b"\xff{}"], ids=["empty", "truncated", "not-utf8"])
def test_annotations_invalid_json_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "notes.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "scan", "srg", "--max-n", "60", "--annotations", str(path))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: annotations {path}: not valid JSON")


def test_annotations(tmp_path, capsys):
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"57,14,1,4": {"exists": False, "cite": "tables"}}))
    code, text, _ = run(capsys, "scan", "srg", "--max-n", "60", "--format", "tsv",
                        "--annotations", str(notes))
    assert code == 0
    row = next(l for l in text.splitlines() if l.startswith("57\t"))
    assert "0 [tables]" in row


def test_annotations_exists_true_and_absent(tmp_path, capsys):
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"57,14,1,4": {"exists": True}, "63,30,13,15": {"cite": "x"}}))
    code, text, _ = run(capsys, "scan", "srg", "--max-n", "64", "--format", "tsv",
                        "--annotations", str(notes))
    assert code == 0
    rows = text.splitlines()
    assert next(l for l in rows if l.startswith("57\t")).endswith("+ []")
    plain = run(capsys, "scan", "srg", "--max-n", "64", "--format", "tsv")[1].splitlines()
    assert [l for l in rows if not l.startswith("57\t")] == \
        [l for l in plain if not l.startswith("57\t")]


@pytest.mark.parametrize("notes,named", [
    ({"21,10,3,6": True}, "'21,10,3,6'"),
    ({"57,14,1,4": {"exists": "no"}}, "'57,14,1,4'"),
    ({"57,14,1,4": {"exists": None}}, "'57,14,1,4'"),
    ({"57,14,1,4": {"exists": False, "cite": 7}}, "'57,14,1,4'"),
    ([{"exists": False}], "expected a JSON object"),
], ids=["value-not-object", "exists-string", "exists-null", "cite-int", "top-level-list"])
def test_annotations_rejects_malformed_input(tmp_path, capsys, notes, named):
    path = tmp_path / "notes.json"
    path.write_text(json.dumps(notes))
    code, out, err = run(capsys, "scan", "srg", "--max-n", "60", "--annotations", str(path))
    assert code == 1 and err.startswith("error: ") and named in err
    assert "Traceback" not in err and out == ""


def test_krein_command(tmp_path, capsys):
    out = str(tmp_path / "c5.ascm")
    run(capsys, "construct", "cyc", "--q", "5", "--d", "4", "-o", out)
    code, text, _ = run(capsys, "krein", out)
    assert code == 0
    assert "q^0_(0,0)" in text
    assert "[-]" not in text  # pseudocyclic split on 5 points is Krein-clean


@pytest.mark.parametrize("q,vectors", [(13, 5), (125, 7)])
def test_krein_signs_once_per_coordinate_vector(tmp_path, capsys, monkeypatch, q, vectors):
    """krein marks each of the 125 cells from one SurdSum.sign per distinct
    integer coordinate vector of the Krein identity's sums."""
    path = str(tmp_path / f"c{q}.ascm")
    run(capsys, "construct", "cyc", "--q", str(q), "--d", "4", "-o", path)
    signed, tables = [], []
    classify, sign = feasibility.classify_scheme, SurdSum.sign

    def classified(scheme):
        result = classify(scheme)
        tables.append(result.table)
        del signed[:]  # count the Krein read-out's signs only
        return result

    monkeypatch.setattr(feasibility, "classify_scheme", classified)
    monkeypatch.setattr(SurdSum, "sign", lambda x: signed.append(x) or sign(x))
    code, text, _ = run(capsys, "krein", path)
    assert code == 0 and text.count("  [") == 125
    t, = tables
    S = spectra._identity_sums(t, [Fraction(1) / (k * k) for k in t.valencies], True)[0]
    assert len(signed) == len(set(map(tuple, S.reshape(125, -1).tolist()))) == vectors


def test_exit_code_invalid_input(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.ascm"))
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "scan", "bogus-family")
    assert code == 1
    bad = tmp_path / "bad.ascm"
    bad.write_text("2 1\n0 9\n9 0\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "line 2" in err


def test_exit_code_internal_consistency(capsys, monkeypatch):
    def boom(n_max):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(feasibility, "scan_srg", boom)
    code, _, err = run(capsys, "scan", "srg", "--max-n", "60")
    assert code == 2 and "consistency" in err


def test_scan_imprimitive_non_integral_closed_form_exits_2(capsys, monkeypatch):
    """A non-integral imprimitive closed form is a consistency failure, not a skip."""
    real = feasibility.intersection_matrices_closed_form

    def halved(p, cand):
        cf = real(p, cand)
        b1 = [list(row) for row in cf.b1]
        b1[1][1] = Fraction(1, 2)
        return ClosedForm(b1=tuple(map(tuple, b1)), b2=cf.b2, valencies=cf.valencies)

    monkeypatch.setattr(feasibility, "intersection_matrices_closed_form", halved)
    code, out, err = run(capsys, "scan", "imprimitive", "--max-n", "21")
    assert code == 2 and "(9, 2, 1, 0) type I: " in err
    assert "p^1_(1,1) = 1/2 is not a nonnegative integer" in err
    assert out == ""


def test_scan_srg_stage_gate_disagreement_exits_2(capsys, monkeypatch):
    """A candidate the integer stage passes but the closed form's gate
    rejects is a consistency failure, not a silently dropped z: with the
    stage forced open (types I and II still tested, every window z passed),
    the first such z is (25, 8, 3, 2) type III z = 40, whose sqrt(yz) is
    irrational."""

    def open_stage(forms):
        yield from ((t, None) for t in spectra.end_types(forms))
        yield from ((TYPE_III, z) for z in spectra.type3_window(forms))

    monkeypatch.setattr(feasibility, "srg_stage", open_stage)
    code, out, err = run(capsys, "scan", "srg", "--max-n", "200")
    assert code == 2 and out == ""
    assert "(25, 8, 3, 2) type III z=40: " in err and "irrational" in err


def test_scan_johnson_witness_that_reads_nonnegative_exits_2(capsys, monkeypatch):
    """The 2-subset record at z = v(v-3)^2/4 is a certificate only through a
    negative q^3_(1,1): a Krein tensor whose sign reads 0 there is a
    consistency failure, first met at v = 7 (n = 21, z = 28)."""
    real = feasibility.q_from_table

    def unsigned(table):
        krein = real(table)
        krein.sign = lambda idx: 0
        return krein

    monkeypatch.setattr(feasibility, "q_from_table", unsigned)
    code, out, err = run(capsys, "scan", "johnson", "--max-v", "11")
    assert code == 2 and out == ""
    assert "n = 21, z = 28: q^3_(1,1) = " in err and "is not negative" in err


def test_scan_johnson_witness_identity_mismatch_exits_2(capsys, monkeypatch):
    """The 2-subset witness compares the eigenvalue identity's values with the
    closed form's planes() at its z: one value moved is a consistency failure."""
    real = feasibility.p_values_from_table

    def moved(table):
        planes = [[list(row) for row in plane] for plane in real(table)]
        planes[1][1][1] += 1
        return tuple(tuple(map(tuple, plane)) for plane in planes)

    monkeypatch.setattr(feasibility, "p_values_from_table", moved)
    code, out, err = run(capsys, "scan", "johnson", "--max-v", "11")
    assert code == 2 and out == ""
    assert "(21, 10, 5, 4) type III z=28: eigenvalue identity differs from the closed form" in err


def test_scan_conference_checks_every_record(capsys, monkeypatch):
    """A tensor that no longer matches the closed form is a consistency failure."""
    real = feasibility.p_from_table

    def perturbed(table):
        t = real(table)
        p = [[list(row) for row in plane] for plane in t.p]
        p[1][1][1] += 1
        return IntersectionTensor(p=tuple(tuple(map(tuple, plane)) for plane in p),
                                  valencies=t.valencies)

    monkeypatch.setattr(feasibility, "p_from_table", perturbed)
    code, out, err = run(capsys, "scan", "conference", "--max-n", "61")
    assert code == 2 and "matches neither sign of h" in err
    assert out == ""


def test_scans_ignore_the_threads_variable(capsys, monkeypatch):
    """Scans run in one process and never read SKEWFISS_THREADS: set to 2 on
    a 3-CPU affinity mask, with no pool to open, every family prints the
    bytes it prints with the variable unset."""
    monkeypatch.delenv("SKEWFISS_THREADS", raising=False)
    expected = {family: run(capsys, "scan", family, *bound, "--format", "json")
                for family, bound in SMALL_SCANS.items()}
    monkeypatch.setenv("SKEWFISS_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", None)
    for family, bound in SMALL_SCANS.items():
        code, out, err = run(capsys, "scan", family, *bound, "--format", "json")
        assert code == 0 and (code, out, err) == expected[family] and out != "[]", family


def test_import_does_not_load_multiprocessing():
    """Importing the package loads no multiprocessing: scans run in one
    process, and every start-up is spared the import."""
    code = "import sys, skewfiss.cli; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- the indent-2 JSON layout against the stdlib encoder ---------------------------

# text() draws non-ASCII and control characters; integers() alone stays small
json_leaves = st.one_of(st.text(), st.integers(), st.integers(-2**200, 2**200),
                        st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none())
json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=24)


# rows of ints, bools mixed in, empty rows, as lists and tuples: the row path
int_rows = st.lists(st.one_of(st.integers(), st.integers(-2**200, 2**200), st.booleans()),
                    max_size=4)
int_tables = st.lists(st.one_of(int_rows, int_rows.map(tuple)), max_size=4)
int_data = st.recursive(
    st.one_of(int_tables, int_tables.map(tuple), st.integers(), st.floats()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(json_keys, st.one_of(inner, st.integers()),
                                            max_size=4)),
    max_leaves=12)


# json_values, and the row path: lists and tuples of int rows (bools, empty and
# huge rows among them), dicts of ints under any key, one object met several times
@given(st.one_of(json_values, int_data,
                 st.builds(lambda v: [v, v, [v], {"k": v, "j": (v, v)}], int_data)))
@example([])
@example({})
@example(((), [{}], {"": []}))
@example({"a\u00e9\x00\n\"": [float("nan"), float("inf"), -float("inf"), -0.0, 2**64]})
@example({1: None, 2.5: True, None: False, True: "x", float("nan"): 0})
# int items, not bools, are written in place
@example([True, 1])
@example([0, -2 ** 70])
@example(((3, 2 ** 64, -1), [[1, 2], (3, -4), [], [[5], (6, 7)]], [1, False, None, 1.5]))
@example({"re": [(2, -1, 3)], "im": []})
@example([[]])
@example(([], [[]], ((),), [[], [1]]))
@example([[True, 1], [1, False], (0, -1), [2 ** 64, -2 ** 200]])
@example({1: 2, "a": [[3]], None: [(4,)], 2.5: [[float("nan"), 1]], True: [[float("inf")]]})
@example([{"re": [(2, -1, 3)], "im": []}] * 3)
@settings(max_examples=500, deadline=None)
def test_json_layout_matches_stdlib(x):
    assert cli._json(x) == json.dumps(x, indent=2)


unsupported = st.sampled_from([Fraction(1, 2), {2}, b"x", 1j, object(), (1).bit_length])


@given(st.recursive(st.one_of(json_leaves, unsupported),
                    lambda inner: st.one_of(st.lists(inner, max_size=4),
                                            st.lists(inner, max_size=4).map(tuple),
                                            st.dictionaries(st.one_of(json_keys, st.tuples()),
                                                            inner, max_size=4)),
                    max_leaves=16))
@example([[1, 2], [3, Fraction(1, 2)]])
@example({"a": [1], (): 2})
@settings(max_examples=300, deadline=None)
def test_json_raises_the_stdlibs_type_error(x):
    """Where the stdlib raises TypeError (an unsupported object, a key of an
    unsupported type), the same TypeError is raised, naming the first one."""
    try:
        want = json.dumps(x, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as info:
            cli._json(x)
        assert str(info.value) == str(exc)
    else:
        assert cli._json(x) == want


def test_json_rejects_what_the_stdlib_rejects():
    for bad in (Fraction(1, 2), {(1, 2): 0}, [1, {2}]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json(bad)
