"""skewfiss benchmark: three closed-loop workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads.  Each is a closed loop with one client: a pass starts only
after the previous pass has ended, and every step of a pass runs in a fresh
interpreter, as a user's command would (the lru_caches on field_build and
square_split stay cold).

- srg_scan: ``skewfiss scan srg --max-n 1300 --format json``.  The paper's
  Table 2 sweep: 2027 parameter sets, 3396 closed forms, 37 records.  Almost
  all of its time is the eigenvalue identity on surd tables (ComplexSurd);
  scheme_core is never called.  A fixed sweep: the seed does not change it.
- pseudocyclic_identity: conference_table, p_from_table and
  q_from_table(...).negatives() for each of the 33 (q, g) of
  conference_scan(325), in an order shuffled by the seed.  The same spectra
  entry points as srg_scan, through the conference algebra (real SurdSums
  over sqrt(q) only, no ComplexSurd).
- scheme_pipeline: ``construct cyc --q Q --d 4``, then ``verify``,
  ``classify`` and ``krein`` on the written file, for Q = 125 (the
  per-element GF(5^3) path) and one prime Q = 5 mod 8 near 1013 picked by
  the seed.  verify_axioms does most of the work; exactnum and spectra see
  one conference table per command.

With ``--trace 0`` it repeats passes for S seconds and reports the
end-to-end metrics (medians over passes).  With ``--trace 1`` it runs one
untraced pass, the same pass again with every step traced in-process
(perfbench/traced_step.py), and the layer microbenchmarks
(perfbench/micro.py), and reports the per-layer metrics.  Every output is
checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

RUN_LIMIT_S = 170.0  # children still running at this point are killed: a run ends within 180 s
SETUP_SAMPLES = 11  # interpreter start is noisy; a median of many
PIPELINE_POOL = (997, 1013, 1021)  # primes = 5 mod 8 within 2.4 % of each other in n

# Environment of every child: explicit, so nothing inherited changes the work.
# SKEWFISS_THREADS=1 keeps cli.cmd_scan from starting a process pool.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    "SKEWFISS_THREADS": "1",
    "OPENBLAS_NUM_THREADS": str(NPROC),
    "OMP_NUM_THREADS": str(NPROC),
    "MKL_NUM_THREADS": str(NPROC),
}
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "PYTHONUTF8": "1",
    "LC_ALL": "C.UTF-8",
    **THREAD_ENV,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- child processes -------------------------------------------------------------


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_mb: float


def run_child(argv: list[str], deadline: float) -> Child:
    """Run argv to completion; peak RSS comes from this child's own rusage."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 wall, usage.ru_maxrss / 1024)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def step_argv(step: dict) -> list[str]:
    if "cli" in step:
        return python("-m", "skewfiss", *step["cli"])
    return python(str(BENCH / "pseudocyclic_pass.py"), *step["pseudocyclic"])


def setup_sample(deadline: float) -> float:
    child = run_child(python("-c", "import skewfiss"), deadline)
    if child.code != 0:
        raise RuntimeError("import skewfiss failed:\n" + child.stderr.decode(errors="replace"))
    return child.wall


def run_pass(steps: list[dict], deadline: float) -> list[Child]:
    return [run_child(step_argv(step), deadline) for step in steps]


def run_traced_pass(steps: list[dict], deadline: float) -> tuple[list[Child], list[dict]]:
    children, traces = [], []
    for i, step in enumerate(steps):
        trace_path = WORK / f"trace_step{i}.json"
        argv = python(str(BENCH / "traced_step.py"), str(trace_path), str(i), json.dumps(step))
        children.append(run_child(argv, deadline))
        if trace_path.exists():
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
            trace_path.unlink()
    return children, traces


# -- workloads -------------------------------------------------------------------


@dataclass
class Workload:
    """The steps of one pass, its item count, and the check of its outputs.

    ``check`` takes the pass's children and returns (operations attempted,
    one message per failed operation).
    """

    name: str
    steps: list[dict]
    items: int
    check: Callable[[list[Child]], tuple[int, list[str]]]


def _exit_problem(child: Child, what: str) -> str | None:
    if child.code == 0:
        return None
    tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
    return f"{what}: exit code {child.code}: {' | '.join(tail)}"


def srg_scan(seed: int) -> Workload:
    pins = EXPECTED["srg_scan"]

    def check(children):
        (child,) = children
        problem = _exit_problem(child, "scan srg")
        if problem is None and sha256(child.stdout) != pins["stdout_sha256"]:
            problem = f"scan srg: stdout digest {sha256(child.stdout)} differs from the pinned one"
        return 1, [problem] if problem else []

    steps = [{"cli": ["scan", "srg", "--max-n", "1300", "--format", "json"]}]
    return Workload("srg_scan", steps, pins["param_sets"], check)


def _cyc4_tensor(q: int, g: int, h: int) -> tuple:
    """Intersection tensor p[i][j][k] of the 4-class cyclotomic closed form.

    Assembled here from B1 and B2, not by spectra, so that the check does
    not share code with what it checks.
    """
    from skewfiss.constructions import cyc4_closed_form

    cf = cyc4_closed_form(q, g, h)
    paired = (0, 4, 3, 2, 1)
    planes = [[[int(j == k) for k in range(5)] for j in range(5)], cf.b1, cf.b2,
              [[cf.b2[paired[j]][paired[k]] for k in range(5)] for j in range(5)],
              [[cf.b1[paired[j]][paired[k]] for k in range(5)] for j in range(5)]]
    return tuple(tuple(tuple(row) for row in plane) for plane in planes)


def pseudocyclic_identity(seed: int) -> Workload:
    from skewfiss import constructions

    pins = EXPECTED["pseudocyclic_identity"]
    # The (q, g) rows of conference_scan(325), as pinned at the seed commit.
    pairs = [tuple(p) for p in pins["pairs"]]
    random.Random(seed).shuffle(pairs)
    expected = {}
    for q, g in pairs:
        h = next(ts.h for ts in constructions.two_squares(q) if ts.g == g)
        expected[(q, g)] = (_cyc4_tensor(q, g, h), _cyc4_tensor(q, g, -h))
    krein_excluded = {tuple(p) for p in pins["krein_excluded"]}

    def check(children):
        (child,) = children
        problem = _exit_problem(child, "pseudocyclic pass")
        lines = child.stdout.decode(errors="replace").splitlines()
        problems = []
        for i, (q, g) in enumerate(pairs):
            if problem or i >= len(lines):
                problems.append(problem or f"(q, g) = ({q}, {g}): no output")
                continue
            rec = json.loads(lines[i])
            tensor = tuple(tuple(tuple(row) for row in plane) for plane in rec["p"])
            if (rec["q"], rec["g"]) != (q, g):
                problems.append(f"line {i}: expected (q, g) = ({q}, {g}), got ({rec['q']}, {rec['g']})")
            elif tensor not in expected[(q, g)]:
                problems.append(f"(q, g) = ({q}, {g}): p_from_table differs from cyc4_closed_form")
            elif bool(rec["negatives"]) != ((q, g) in krein_excluded):
                problems.append(f"(q, g) = ({q}, {g}): Krein exclusion differs from the pinned set")
        if len(lines) > len(pairs):
            problems.append(f"{len(lines) - len(pairs)} unexpected output lines")
        return len(pairs), problems

    steps = [{"pseudocyclic": [f"{q},{g}" for q, g in pairs]}]
    return Workload("pseudocyclic_identity", steps, len(pairs), check)


_AXIOM = re.compile(r"^axiom \(\w+\)\s+.*:\s+(pass|FAIL)$", re.M)
_CONF = re.compile(r"^conference q=(\d+) g=(-?\d+) h=(-?\d+)$")


def _printed_matrices(text: str) -> dict[int, tuple]:
    """B1..B4 as printed by ``verify``: a 'Bi =' line, then five rows."""
    lines = text.splitlines()
    out = {}
    for idx, line in enumerate(lines):
        m = re.fullmatch(r"B(\d) =", line)
        if m:
            rows = lines[idx + 1: idx + 6]
            out[int(m.group(1))] = tuple(tuple(int(x) for x in row.split()) for row in rows)
    return out


def scheme_pipeline(seed: int) -> Workload:
    qs = (125, random.Random(seed).choice(PIPELINE_POOL))
    steps, kinds = [], []
    for q in qs:
        path = f"{WORK.relative_to(ROOT)}/cyc{q}.ascm"
        for cmd in ("construct", "verify", "classify", "krein"):
            args = ["construct", "cyc", "--q", str(q), "--d", "4", "-o", path] if cmd == "construct" \
                else [cmd, path]
            steps.append({"cli": args})
            kinds.append((q, cmd, path))

    def check(children):
        problems = []
        classified = {}
        for (q, cmd, path), child in zip(kinds, children):
            what = f"{cmd} q={q}"
            text = child.stdout.decode(errors="replace")
            problem = _exit_problem(child, what)
            pin = EXPECTED["scheme_pipeline"][str(q)]
            if problem is None and sha256(child.stdout) != pin[cmd]:
                problem = f"{what}: stdout digest differs from the pinned one"
            if problem is None and cmd == "construct":
                digest = sha256((ROOT / path).read_bytes())
                if digest != pin["ascm"]:
                    problem = f"{what}: .ascm digest differs from the pinned one"
            if problem is None and cmd in ("classify", "krein"):
                m = _CONF.match(text.splitlines()[0]) if text else None
                if not m or int(m.group(1)) != q:
                    problem = f"{what}: does not name conference q={q}"
                else:
                    classified[q] = (int(m.group(2)), int(m.group(3)))
            if problem is None and cmd == "krein" and "[-]" in text:
                problem = f"{what}: a Krein number is negative"
            problems.append(problem)
        for i, ((q, cmd, path), child) in enumerate(zip(kinds, children)):
            if cmd != "verify" or problems[i]:
                continue
            text = child.stdout.decode(errors="replace")
            axioms = _AXIOM.findall(text)
            if axioms != ["pass"] * 4:
                problems[i] = f"verify q={q}: axioms {axioms}, expected four passes"
            elif q in classified:
                g, h = classified[q]
                tensor = _cyc4_tensor(q, g, h)
                printed = _printed_matrices(text)
                if printed.get(1) != tensor[1] or printed.get(2) != tensor[2]:
                    problems[i] = f"verify q={q}: B1/B2 differ from cyc4_closed_form({q}, {g}, {h})"
        return len(steps), [p for p in problems if p]

    return Workload("scheme_pipeline", steps, len(steps), check)


WORKLOADS = {"srg_scan": srg_scan, "pseudocyclic_identity": pseudocyclic_identity,
             "scheme_pipeline": scheme_pipeline}


# -- per-layer expectations ------------------------------------------------------

# Counters that must be non-zero on the workload meant to exercise them.
EXPECT_NONZERO = {
    "srg_scan": (
        "exactnum.surd_mul.calls", "exactnum.surd_add.calls", "exactnum.complex_mul.calls",
        "exactnum.sign.calls", "spectra.p_from_table.calls", "spectra.q_from_table.calls",
        "spectra.closed_form.calls", "feasibility.param_sets", "feasibility.closed_forms_tried",
        "feasibility.dual_derivations", "feasibility.records", "cli.stdout_mb"),
    "pseudocyclic_identity": (
        "exactnum.surd_mul.calls", "exactnum.surd_add.calls", "exactnum.sign.calls",
        "spectra.p_from_table.calls", "spectra.q_from_table.calls"),
    "scheme_pipeline": (
        "scheme_core.verify_axioms.calls", "scheme_core.verify_axioms.gflop_computed",
        "scheme_core.ascm_mb", "constructions.cyc4_closed_form.calls", "cli.stdout_mb"),
}
# Counters predicted to stay at zero: the layer is not on that workload's path.
EXPECT_ZERO = {
    "srg_scan": ("scheme_core.verify_axioms.calls",),
    "pseudocyclic_identity": ("exactnum.complex_mul.calls",),
    "scheme_pipeline": (),
}

# name -> unit, in BENCHMARK.json order; traced metrics missing from a trace are 0.
TRACED_UNITS = {
    "exactnum.surd_mul.calls": "count", "exactnum.surd_add.calls": "count",
    "exactnum.complex_mul.calls": "count", "exactnum.sign.calls": "count",
    "spectra.p_from_table.calls": "count", "spectra.p_from_table.self_s": "s",
    "spectra.q_from_table.calls": "count", "spectra.q_from_table.self_s": "s",
    "spectra.character_table.self_s": "s", "spectra.conference_table.self_s": "s",
    "spectra.closed_form.calls": "count", "spectra.closed_form.self_s": "s",
    "scheme_core.verify_axioms.calls": "count", "scheme_core.verify_axioms.self_s": "s",
    "scheme_core.verify_axioms.gflop_computed": "GFLOP",
    "scheme_core.imprimitive_blocks.self_s": "s", "scheme_core.load_scheme.self_s": "s",
    "scheme_core.save_scheme.self_s": "s", "scheme_core.ascm_mb": "MB",
    "constructions.field_build.self_s": "s", "constructions.cyclotomic_scheme.self_s": "s",
    "constructions.cyc4_closed_form.calls": "count",
    "feasibility.param_sets": "count", "feasibility.closed_forms_tried": "count",
    "feasibility.dual_derivations": "count", "feasibility.records": "count",
    "feasibility.yield": "ratio",
    "feasibility.fission_scan.self_s": "s", "feasibility.classify_scheme.self_s": "s",
    "cli.format_records.self_s": "s", "cli.stdout_mb": "MB",
}
MICRO_UNITS = {
    "exactnum.surd_mul_2term_ns": "ns", "exactnum.surd_mul_4term_ns": "ns",
    "exactnum.surd_add_4term_ns": "ns", "exactnum.sign_3term_ns": "ns",
    "spectra.p_values_ms.I_729": "ms", "spectra.p_values_ms.III_57": "ms",
    "spectra.p_values_ms.III_105": "ms", "spectra.p_values_ms.conf_125": "ms",
    "spectra.p_values_ms.conf_325": "ms", "spectra.q_ms.I_729": "ms",
    "spectra.q_ms.III_57": "ms", "spectra.q_ms.conf_325": "ms",
    "scheme_core.verify_ms.n173": "ms", "scheme_core.verify_ms.n1013": "ms",
    "constructions.field_build_ms.3_11": "ms",
}


def layer_metrics(traces: list[dict], workload: Workload, children: list[Child]) -> dict:
    sys.path.insert(0, str(BENCH))
    from tracer import aggregate

    raw = aggregate(traces)
    raw["feasibility.param_sets"] = raw.get("feasibility.fission_scan.calls", 0)
    tried = raw.get("feasibility.closed_forms_tried", 0)
    raw["feasibility.yield"] = raw.get("feasibility.records", 0) / tried if tried else 0.0
    raw["cli.stdout_mb"] = sum(len(c.stdout) for s, c in zip(workload.steps, children)
                               if "cli" in s) / 1e6
    return {name: raw.get(name, 0) for name in TRACED_UNITS}


def self_test(name: str, metrics: dict) -> list[str]:
    problems = [f"{m} is 0 on {name}, which is meant to exercise it"
                for m in EXPECT_NONZERO[name] if not metrics[m]]
    problems += [f"{m} = {metrics[m]} on {name}, predicted 0"
                 for m in EXPECT_ZERO[name] if metrics[m]]
    return problems


# -- run metadata ----------------------------------------------------------------


def run_metadata() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(), "cpus_usable": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_version, "thread_env": THREAD_ENV,
        "git_commit": commit, "src_lines": src_lines,
    }


# -- main ------------------------------------------------------------------------


def import_program():
    """Import skewfiss from this checkout's src/, and nowhere else."""
    if not (SRC / "skewfiss" / "__init__.py").is_file():
        raise RuntimeError(f"no skewfiss package under {SRC}; run from the checkout root")
    sys.path.insert(0, str(SRC))
    import skewfiss

    if Path(skewfiss.__file__).resolve().parent != (SRC / "skewfiss").resolve():
        raise RuntimeError(f"imported skewfiss from {skewfiss.__file__}, not from {SRC}")


def measure(workload: Workload, seconds: float, deadline: float) -> tuple[dict, int, list[str], list[str], dict]:
    """End-to-end metrics over passes repeated for ``seconds``, tracing off."""
    setup, walls, rss = [], [], []
    attempted, problems = 0, []
    end = time.monotonic() + seconds
    while True:
        setup.append(setup_sample(deadline))
        children = run_pass(workload.steps, deadline)
        n, bad = workload.check(children)
        walls.append(sum(c.wall for c in children))
        rss.append(max(c.maxrss_mb for c in children))
        attempted += n
        problems += bad
        if time.monotonic() >= end:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(deadline))
    wall_s, setup_s = statistics.median(walls), statistics.median(setup)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "items_per_s": (workload.items / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (1 - len(problems) / attempted, "frac"),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, attempted, problems, [], samples


def trace(workload: Workload, deadline: float) -> tuple[dict, int, list[str], list[str], dict]:
    """Per-layer metrics: an untraced pass, the same pass traced, and the microbenchmarks."""
    plain = run_pass(workload.steps, deadline)
    n1, failures = workload.check(plain)
    traced, traces = run_traced_pass(workload.steps, deadline)
    n2, bad = workload.check(traced)
    failures += [f"traced: {p}" for p in bad]
    failures += [f"step {i}: traced output differs from untraced output"
                 for i, (a, b) in enumerate(zip(plain, traced)) if a.stdout != b.stdout]
    problems = []
    if len(traces) != len(workload.steps):
        problems.append(f"{len(workload.steps) - len(traces)} traced steps wrote no trace")
    layers = layer_metrics(traces, workload, traced)
    problems += self_test(workload.name, layers)
    micro = run_child(python(str(BENCH / "micro.py")), deadline)
    if micro.code != 0:
        raise RuntimeError("micro.py failed:\n" + micro.stderr.decode(errors="replace"))
    micro_values = json.loads(micro.stdout)
    metrics = {name: (layers[name], unit) for name, unit in TRACED_UNITS.items()}
    metrics.update({name: (micro_values[name], unit) for name, unit in MICRO_UNITS.items()})
    untraced_s, traced_s = sum(c.wall for c in plain), sum(c.wall for c in traced)
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    (WORK / f"spans_{workload.name}.json").write_text(
        json.dumps([s for t in traces for s in t["spans"]]), encoding="utf-8")
    return metrics, n1 + n2, failures, problems, {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so run_child kills its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S

    import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    setup_sample(deadline)  # untimed: compiles the bytecode cache once per checkout
    run = trace if args.trace else lambda w, d: measure(w, args.seconds, d)
    metrics, attempted, failures, problems, samples = run(workload, deadline)
    for p in failures + problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"meta": run_metadata(), "workload": args.workload, "seed": args.seed,
                      "samples": samples}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": min(len(failures), attempted),  # a step can fail its check and differ when traced
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
