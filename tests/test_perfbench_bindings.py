"""The benchmark tracer wraps functions by name; every name must still exist.

perfbench/tracer.py is read and run by path (not imported as a package
module, and no bytecode is written next to it), and each traced target is
resolved in the skewfiss modules, so a rename or deletion fails here rather
than only under ``perfbench/run.py --trace 1``.
"""

import importlib
import runpy
from pathlib import Path

import skewfiss  # noqa: F401  (loads every submodule the tracer targets)

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
