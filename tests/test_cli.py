import json
import os

import pytest

import skewfiss.cli as cli
import skewfiss.feasibility as feasibility
from skewfiss.scheme_core import IntersectionTensor
from skewfiss.spectra import ConsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_annotations(tmp_path, capsys):
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"57,14,1,4": {"exists": False, "cite": "tables"}}))
    code, text, _ = run(capsys, "scan", "srg", "--max-n", "60", "--format", "tsv",
                        "--annotations", str(notes))
    assert code == 0
    row = next(l for l in text.splitlines() if l.startswith("57\t"))
    assert "0 [tables]" in row


def test_krein_command(tmp_path, capsys):
    out = str(tmp_path / "c5.ascm")
    run(capsys, "construct", "cyc", "--q", "5", "--d", "4", "-o", out)
    code, text, _ = run(capsys, "krein", out)
    assert code == 0
    assert "q^0_(0,0)" in text
    assert "[-]" not in text  # pseudocyclic split on 5 points is Krein-clean


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
    def boom(n_max, threads=1):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(feasibility, "scan_srg", boom)
    code, _, err = run(capsys, "scan", "srg", "--max-n", "60")
    assert code == 2 and "consistency" in err


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


@pytest.mark.parametrize("value", ["0", "-3", "two", ""])
def test_threads_env_rejects_non_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("SKEWFISS_THREADS", value)
    monkeypatch.setattr(feasibility, "Pool", None)  # any pool use would fail loudly
    code, out, err = run(capsys, "scan", "srg", "--max-n", "60")
    assert code == 1 and "error" in err and out == ""


def test_threads_env_clamped_to_usable_cpus(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the size, maps in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(feasibility, "Pool", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setenv("SKEWFISS_THREADS", "100000")
    code, many, _ = run(capsys, "scan", "srg", "--max-n", "120")
    assert code == 0 and sizes == [3]
    monkeypatch.setenv("SKEWFISS_THREADS", "1")
    code, one, _ = run(capsys, "scan", "srg", "--max-n", "120")
    assert code == 0 and sizes == [3] and many == one
