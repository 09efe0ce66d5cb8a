"""Command-line front end: construct, verify, classify, scan, krein.

Every command is deterministic given its flags and input files; identical
invocations produce byte-identical output.  Exit codes: 0 on success, 1 on
invalid input, 2 when an internal consistency check fails (the two
independent tensor derivations disagree, which would mean a bug), 141 when
the reader of stdout closed it early (as a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import constructions, feasibility, scheme_core
from .feasibility import ScanRecord
from .scheme_core import SchemeError
from .spectra import ConsistencyError, q_from_table


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skewfiss",
                     description="4-class skew-symmetric association schemes: "
                                 "exact construction, verification and feasibility scans")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the scheme axioms of an .ascm file")
    p_verify.add_argument("file")

    p_con = sub.add_parser("construct", help="build a scheme and write it to .ascm")
    con_sub = p_con.add_subparsers(dest="builder", required=True)
    p_cyc = con_sub.add_parser("cyc", help="cyclotomic scheme over GF(q)")
    p_cyc.add_argument("--q", type=int, required=True)
    p_cyc.add_argument("--d", type=int, required=True)
    p_cyc.add_argument("-o", "--output", required=True)
    p_wr = con_sub.add_parser("wreath", help="wreath product of two scheme files")
    p_wr.add_argument("--inner", required=True)
    p_wr.add_argument("--outer", required=True)
    p_wr.add_argument("-o", "--output", required=True)

    p_cls = sub.add_parser("classify", help="match a scheme file against the taxonomy")
    p_cls.add_argument("file")

    p_scan = sub.add_parser("scan", help="emit feasibility tables")
    p_scan.add_argument("family", choices=["conference", "srg", "imprimitive", "johnson"])
    p_scan.add_argument("--max-n", type=int, default=None)
    p_scan.add_argument("--max-v", type=int, default=None)
    p_scan.add_argument("--format", choices=["tsv", "json", "md"], default="tsv")
    p_scan.add_argument("--annotations", default=None,
                        help="JSON file mapping 'n,k,lam,mu' to existence verdicts")

    p_kr = sub.add_parser("krein", help="print the full Krein tensor of a scheme file")
    p_kr.add_argument("file")
    return parser


# -- scan output -----------------------------------------------------------------

_COLUMNS = {
    "conference": ("n", "g", "h", "#"),
    "srg": ("n", "k", "lam", "mu", "r", "m1", "s", "m2", "type", "z", "status", "note"),
    "imprimitive": ("n", "f", "g", "type", "#"),
    "johnson": ("v", "n", "k", "lam", "mu", "type", "z", "status", "note"),
}


def _row(rec: ScanRecord) -> tuple:
    p = rec.params
    if rec.family == "conference":
        return (rec.n, p["g"], p["h"], rec.realizable)
    if rec.family == "imprimitive":
        return (rec.n, p["f"], p["g"], rec.table_type, rec.realizable)
    if rec.family == "johnson":
        return (p["v"], rec.n, p["k"], p["lam"], p["mu"],
                rec.table_type or "", "" if rec.z is None else rec.z,
                rec.status, rec.notes)
    note = rec.notes if rec.notes else rec.realizable
    return (rec.n, p["k"], p["lam"], p["mu"], p.get("r", ""), p.get("m1", ""),
            p.get("s", ""), p.get("m2", ""), rec.table_type or "",
            "" if rec.z is None else rec.z, rec.status, note)


_QUOTE = json.encoder.encode_basestring_ascii


def _json(x, indent: str = "\n", memo: dict | None = None) -> str:
    """json.dumps(x, indent=2), byte for byte, without the pure-Python
    encoder that CPython runs whenever indent is set.  Dicts, lists and
    tuples, told apart by exact type first, are laid out here: an int item
    (not a bool) and an item that is a nonempty list or tuple of ints are
    written in place, one join each, and within one item of the outermost
    container a dict met again at one depth (a table's shared cells) is
    written once, memo keeping its text by id.  Scalars are encoded as the
    stdlib encodes them; anything else (nan, inf, keys that are not str,
    unsupported types) goes to json.dumps, which also raises its TypeError."""
    t = type(x)
    if t is not dict and t is not list and t is not tuple:
        if isinstance(x, str):
            return _QUOTE(x)
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, float) and math.isfinite(x):
            return float.__repr__(x)
        if not isinstance(x, (list, tuple, dict)):
            return json.dumps(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    # each text is one expression, so the item texts are freed before its last copy
    inner, outermost = indent + "  ", memo is None
    if isinstance(x, dict):
        key = (id(x), indent)  # x outlives the call, so its id names it throughout
        if outermost or key not in memo:
            text = "{" + inner + ("," + inner).join([
                (_QUOTE(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": " +
                (int.__repr__(v) if type(v) is int else _json(v, inner, {} if outermost else memo))
                for k, v in x.items()]) + indent + "}"
            if outermost:
                return text
            memo[key] = text
        return memo[key]
    deeper = inner + "  "
    return "[" + inner + ("," + inner).join([
        int.__repr__(v) if type(v) is int else
        "[" + deeper + ("," + deeper).join(map(int.__repr__, v)) + inner + "]"
        if (type(v) is list or type(v) is tuple) and v and all(type(c) is int for c in v)
        else _json(v, inner, {} if outermost else memo) for v in x]) + indent + "]"


def format_records(records: list[ScanRecord], family: str, fmt: str) -> str:
    if fmt == "json":
        return _json([r.to_dict() for r in records])
    cols = _COLUMNS[family]
    rows = [_row(r) for r in records]
    if fmt == "tsv":
        lines = ["\t".join(cols)]
        lines.extend("\t".join(str(c) for c in row) for row in rows)
        return "\n".join(lines)
    width = [max(len(str(c)) for c in [cols[i]] + [row[i] for row in rows])
             for i in range(len(cols))]
    header = "| " + " | ".join(str(c).ljust(width[i]) for i, c in enumerate(cols)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in width) + "|"
    lines = [header, rule]
    for row in rows:
        lines.append("| " + " | ".join(str(c).ljust(width[i]) for i, c in enumerate(row)) + " |")
    return "\n".join(lines)


def _load_annotations(path: str) -> dict:
    """The --annotations file: a JSON object mapping 'n,k,lam,mu' to objects
    with an optional bool 'exists' and string 'cite'.  ValueError otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            notes = json.load(fh)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise ValueError(f"annotations {path}: not valid JSON: {exc}") from None
    if not isinstance(notes, dict):
        raise ValueError(f"annotations {path}: expected a JSON object")
    for key, entry in notes.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("exists", False), bool)
                and isinstance(entry.get("cite", ""), str)):
            raise ValueError(f"annotations {path}: entry {key!r} must be an object whose "
                             "optional 'exists' is a boolean and 'cite' a string")
    return notes


def _apply_annotations(records: list[ScanRecord], notes: dict) -> None:
    for rec in records:
        entry = notes.get(f"{rec.n},{rec.params['k']},{rec.params['lam']},{rec.params['mu']}", {})
        if "exists" in entry:
            rec.realizable = "+" if entry["exists"] else "0"
            note = f"{rec.realizable} [{entry.get('cite', '')}]"
            rec.notes = f"{rec.notes} {note}" if rec.notes else note


# -- commands ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    scheme = scheme_core.load_scheme(args.file)
    report = scheme_core.verify_axioms(scheme)
    print(report.summary())
    if not report.ok:
        return 0
    tensor = report.tensor
    print(f"valencies: {tensor.valencies}")
    print(f"transpose pairing: {report.transpose_map}")
    print(f"skew-symmetric: {scheme_core.is_skew_symmetric(scheme)}")
    blocks = scheme_core.imprimitive_blocks(tensor)
    print(f"imprimitive block systems: {blocks if blocks else 'none (primitive)'}")
    for i in range(1, scheme.d + 1):
        print(f"B{i} =")
        for row in tensor.matrix(i):
            print("   " + " ".join(f"{v:3d}" for v in row))
    return 0


def cmd_construct(args) -> int:
    if args.builder == "cyc":
        scheme = constructions.cyclotomic_scheme(args.q, args.d)
    else:
        inner = scheme_core.load_scheme(args.inner)
        outer = scheme_core.load_scheme(args.outer)
        scheme = constructions.wreath(inner, outer)
    scheme.save(args.output)
    print(f"wrote {scheme.n} points, {scheme.d} classes to {args.output}")
    return 0


def cmd_classify(args) -> int:
    scheme = scheme_core.load_scheme(args.file)
    result = feasibility.classify_scheme(scheme)
    print(result)
    if result.table is not None:
        print("character table (rows x multiplicity):")
        print(result.table.pretty())
    return 0


# family: (its bound's argument, the bound's default, the feasibility scanner)
_SCANS = {"conference": ("max_n", 325, "conference_scan"), "srg": ("max_n", 1300, "scan_srg"),
          "imprimitive": ("max_n", 100, "imprimitive_scan"),
          "johnson": ("max_v", 200, "johnson_scan")}


def cmd_scan(args) -> int:
    family = args.family
    bound, default, scanner = _SCANS[family]
    other = "max_v" if bound == "max_n" else "max_n"
    if getattr(args, other) is not None:
        raise ValueError(f"--{other.replace('_', '-')} does not apply to scan {family}; "
                         f"its bound is --{bound.replace('_', '-')}")
    limit = getattr(args, bound)
    if limit is not None and limit < 0:
        raise ValueError(f"--{bound.replace('_', '-')} must be nonnegative, got {limit}")
    if args.annotations is not None and family != "srg":
        raise ValueError(f"--annotations does not apply to scan {family}; "
                         "it annotates srg parameter sets")
    notes = {} if args.annotations is None else _load_annotations(args.annotations)
    records = getattr(feasibility, scanner)(default if limit is None else limit)
    if notes:  # only srg records carry the (n, k, lam, mu) key
        _apply_annotations(records, notes)
    print(format_records(records, family, args.format))
    return 0


def cmd_krein(args) -> int:
    scheme = scheme_core.load_scheme(args.file)
    result = feasibility.classify_scheme(scheme)
    print(result)
    tensor = q_from_table(result.table)
    print("Krein numbers q^l_(i,j) with exact signs:")
    for l in range(5):
        for i in range(5):
            for j in range(5):
                mark = {1: "+", 0: "0", -1: "-"}[tensor.sign((i, j, l))]
                print(f"q^{l}_({i},{j}) = {tensor[i, j, l]}  [{mark}]")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    commands = {"verify": cmd_verify, "construct": cmd_construct, "classify": cmd_classify,
                "scan": cmd_scan, "krein": cmd_krein}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader left: silence the final flush, exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (SchemeError, feasibility.ClassificationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
