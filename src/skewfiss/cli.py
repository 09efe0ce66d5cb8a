"""Command-line front end: construct, verify, classify, scan, krein.

Every command is deterministic given its flags and input files; identical
invocations produce byte-identical output.  Exit codes: 0 on success, 1 on
invalid input, 2 when an internal consistency check fails (the two
independent tensor derivations disagree, which would mean a bug).
"""

from __future__ import annotations

import argparse
import json
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
    p_scan.add_argument("--max-v", type=int, default=200)
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


def format_records(records: list[ScanRecord], family: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], indent=2)
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


def _apply_annotations(records: list[ScanRecord], path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        notes = json.load(fh)
    for rec in records:
        if rec.family != "srg":
            continue
        key = f"{rec.n},{rec.params['k']},{rec.params['lam']},{rec.params['mu']}"
        if key not in notes:
            continue
        entry = notes[key]
        cite = entry.get("cite", "")
        if entry.get("exists") is False:
            rec.realizable = "0"
            rec.notes = (rec.notes + " " if rec.notes else "") + f"0 [{cite}]"
        elif entry.get("exists") is True:
            rec.realizable = "+"
            rec.notes = (rec.notes + " " if rec.notes else "") + f"+ [{cite}]"


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
    blocks = scheme_core.imprimitive_blocks(scheme)
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


def cmd_scan(args) -> int:
    family = args.family
    if family == "conference":
        n_max = args.max_n if args.max_n is not None else 325
        records = feasibility.conference_scan(n_max)
    elif family == "srg":
        n_max = args.max_n if args.max_n is not None else 1300
        records = feasibility.scan_srg(n_max)
    elif family == "imprimitive":
        n_max = args.max_n if args.max_n is not None else 100
        records = feasibility.imprimitive_scan(n_max)
    else:
        records = feasibility.johnson_scan(args.max_v)
    if args.annotations:
        _apply_annotations(records, args.annotations)
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
                value = tensor[i, j, l]
                sgn = value.sign()
                mark = {1: "+", 0: "0", -1: "-"}[sgn]
                print(f"q^{l}_({i},{j}) = {value}  [{mark}]")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "krein":
            return cmd_krein(args)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (SchemeError, feasibility.ClassificationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
