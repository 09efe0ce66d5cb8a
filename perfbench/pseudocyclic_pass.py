"""One pass of the pseudocyclic_identity workload.

Usage: python3 perfbench/pseudocyclic_pass.py Q,G [Q,G ...]

For each (q, g) it builds the conference character table and runs both
eigenvalue identities on it through the public spectra functions, then
prints one JSON line per table: the intersection tensor and the negative
Krein entries.
"""

from __future__ import annotations

import json
import sys

from skewfiss import spectra


def run(pairs: list[tuple[int, int]]) -> None:
    for q, g in pairs:
        table = spectra.conference_table(q, g)
        tensor = spectra.p_from_table(table)
        negatives = spectra.q_from_table(table).negatives()
        sys.stdout.write(json.dumps(
            {"q": q, "g": g, "p": tensor.p,
             "negatives": [[list(idx), str(v)] for idx, v in negatives]},
            separators=(",", ":")) + "\n")


def parse_pairs(args: list[str]) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in a.split(",")) for a in args]


if __name__ == "__main__":
    run(parse_pairs(sys.argv[1:]))
