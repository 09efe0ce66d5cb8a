"""The benchmark tracer wraps functions by name; every name must still exist.

perfbench/tracer.py is read and run by path (not imported as a package
module, and no bytecode is written next to it), and each traced target is
resolved in the skewfiss modules, so a rename or deletion fails here rather
than only under ``perfbench/run.py --trace 1``.  Likewise each counted
operator that the traced self-test expects to be called must keep a caller
on that workload's path.
"""

import importlib
import runpy
from pathlib import Path

import skewfiss  # noqa: F401  (loads every submodule the tracer targets)
from skewfiss import cli, feasibility, spectra

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    tracer = runpy.run_path(str(TRACER))
    assert tracer["SPANS"] and tracer["COUNTERS"]
    for mod_name, attr, _ in tracer["SPANS"]:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr} is traced but does not exist"
    for mod_name, cls_name, aliases, _ in tracer["COUNTERS"]:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        for alias in aliases:
            assert alias in cls.__dict__, f"{cls_name}.{alias} is traced but does not exist"


# The operator counters that EXPECT_NONZERO and EXPECT_ZERO in perfbench/run.py
# name, per workload, copied by hand: run.py reads the CPU affinity mask at
# import, so it is not imported here.  A change to those lists belongs here too.
EXPECT_NONZERO = {
    "srg_scan": ("exactnum.surd_mul.calls", "exactnum.surd_add.calls",
                 "exactnum.complex_mul.calls", "exactnum.sign.calls"),
    "pseudocyclic_identity": ("exactnum.surd_mul.calls", "exactnum.surd_add.calls",
                              "exactnum.sign.calls"),
}
EXPECT_ZERO = {
    "srg_scan": (),
    "pseudocyclic_identity": ("exactnum.complex_mul.calls",),
}


def test_traced_operators_keep_their_callers(monkeypatch):
    """Each operator counter the traced self-test expects above zero has a
    caller on that workload's path, and each it expects at zero has none:
    scan srg --max-n 1300 as JSON, and the conference table, p_from_table
    and q_from_table(...).negatives() for the 33 (q, g) of conference_scan(325)."""
    pairs = [(r.params["q"], r.params["g"]) for r in feasibility.conference_scan(325)]
    assert len(pairs) == 33
    counts = {}

    def counter(method, name):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted

    for mod_name, cls_name, aliases, name in runpy.run_path(str(TRACER))["COUNTERS"]:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        counted = counter(cls.__dict__[aliases[0]], f"{name}.calls")
        for alias in aliases:  # the reflected alias shares the counter
            monkeypatch.setattr(cls, alias, counted)

    def pseudocyclic_pass():
        for q, g in pairs:
            table = spectra.conference_table(q, g)
            spectra.p_from_table(table)
            spectra.q_from_table(table).negatives()

    for workload, run in (
            ("srg_scan", lambda: cli.format_records(feasibility.scan_srg(1300), "srg", "json")),
            ("pseudocyclic_identity", pseudocyclic_pass)):
        counts.clear()
        run()
        assert [m for m in EXPECT_NONZERO[workload] if not counts.get(m)] == [], workload
        assert {m: counts[m] for m in EXPECT_ZERO[workload] if counts.get(m)} == {}, workload
