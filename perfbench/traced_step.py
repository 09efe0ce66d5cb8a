"""Run one workload step in this interpreter with the tracer installed.

Usage: python3 perfbench/traced_step.py TRACE_OUT PASS_ID STEP_JSON

STEP_JSON is {"cli": [argv...]} for a skewfiss command, run through
skewfiss.cli.main, or {"pseudocyclic": ["Q,G", ...]} for a pseudocyclic
pass.  PASS_ID tags every span; it is the step's index in the pass.  The step's output goes to stdout exactly as the untraced step
prints it; the exit code is the step's.  Spans and counts are kept in
memory and written to TRACE_OUT at the end.
"""

from __future__ import annotations

import json
import sys

import pseudocyclic_pass
import skewfiss.cli  # loads every skewfiss submodule before the tracer wraps them
from tracer import Tracer


def main() -> int:
    out_path, pass_id, step = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    tracer = Tracer(pass_id)
    tracer.install()
    if "cli" in step:
        code = skewfiss.cli.main(step["cli"])
    else:
        pseudocyclic_pass.run(pseudocyclic_pass.parse_pairs(step["pseudocyclic"]))
        code = 0
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
