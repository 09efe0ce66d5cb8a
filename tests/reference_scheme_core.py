"""Reference oracle for the counting verifier, the block-system search and the
.ascm parser (tests only).

A frozen copy of the first implementation of ``verify_axioms``,
``imprimitive_blocks`` and ``load_scheme``: one dense float64 product for
every ordered pair of classes (all (d+1)^2 of them), a boolean-mask gather
per class for the regularity check, a mask gather per class for the
transpose map, an n x n union and its boolean square for each candidate
block system, and a token-by-token parser.  The only edits to the copied
bodies: the verifier and the block search call this module's
``transpose_map(s)`` where they called ``s.transpose_map()``, and the block
search lists the transpose orbits itself.  It shares the scheme, report and exception types
with the package so whole ``AxiomReport``s and parse errors compare equal,
but none of the counting or parsing code.
"""

from __future__ import annotations

import numpy as np

from skewfiss.scheme_core import (
    MAX_CLASSES,
    MAX_POINTS,
    AssociationScheme,
    AxiomReport,
    IntersectionTensor,
    SchemeError,
    SchemeParseError,
)


def transpose_map(s: AssociationScheme) -> list[int] | None:
    """i -> i' with R_i^T = R_{i'}, or None if transposes are not classes."""
    relT = s.rel.T
    out = [0] * (s.d + 1)
    for i in range(s.d + 1):
        cells = relT[s.rel == i]
        if cells.size == 0:
            return None
        j = int(cells[0])
        if not (cells == j).all():
            return None
        out[i] = j
    if sorted(out) != list(range(s.d + 1)):
        return None
    return out


def _class_masks(s: AssociationScheme) -> list[np.ndarray]:
    return [s.rel == i for i in range(s.d + 1)]


def verify_axioms(s: AssociationScheme) -> AxiomReport:
    """Check all four scheme axioms by counting; O(n^3) via matrix products.

    All axioms are evaluated independently so a perturbed scheme reports
    every violation, not just the first.  On a full pass the report carries
    the intersection tensor computed during the regularity check.
    """
    rep = AxiomReport(n=s.n, d=s.d)
    rel = s.rel
    n, d = s.n, s.d

    diag = np.diagonal(rel)
    if not (diag == 0).all():
        rep.diagonal_ok = False
        x = int(np.nonzero(diag)[0][0])
        rep.failures.append(f"diagonal entry rel[{x}][{x}] = {int(diag[x])} != 0")
    off_diag_zero = (rel == 0) & ~np.eye(n, dtype=bool)
    if off_diag_zero.any():
        rep.diagonal_ok = False
        x, y = (int(v[0]) for v in np.nonzero(off_diag_zero))
        rep.failures.append(f"off-diagonal entry rel[{x}][{y}] = 0")

    sizes = np.bincount(rel.ravel(), minlength=d + 1)
    for i in range(d + 1):
        if sizes[i] == 0:
            rep.partition_ok = False
            rep.failures.append(f"relation {i} is empty")

    tmap = transpose_map(s)
    if tmap is None:
        rep.transpose_ok = False
        rep.failures.append("some relation's transpose is not a relation")
    rep.transpose_map = tmap

    masks = _class_masks(s)
    floats = [m.astype(np.float64) for m in masks]
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    regular = True
    for i in range(d + 1):
        for j in range(d + 1):
            counts = floats[i] @ floats[j]
            for k in range(d + 1):
                cells = counts[masks[k]]
                if cells.size == 0:
                    continue
                lo, hi = cells.min(), cells.max()
                if lo != hi:
                    regular = False
                    rep.failures.append(
                        f"count of (R_{i}, R_{j}) paths over R_{k} pairs varies: "
                        f"{int(lo)} .. {int(hi)}"
                    )
                else:
                    p[i][j][k] = int(lo)
    rep.regular_ok = regular

    if rep.ok:
        valencies = tuple(int(p[i][tmap[i]][0]) for i in range(d + 1))
        frozen = tuple(tuple(tuple(row) for row in plane) for plane in p)
        rep.tensor = IntersectionTensor(p=frozen, valencies=valencies)
    return rep


def imprimitive_blocks(s: AssociationScheme) -> list[list[int]]:
    """All proper nontrivial unions of classes (with the diagonal) that are
    equivalence relations; empty list means the scheme is primitive."""
    tmap = transpose_map(s)
    if tmap is None:
        raise SchemeError("transposes of relations are not relations")
    # orbits of the transpose involution without {0}, ordered by smallest member
    orbits = [sorted({i, tmap[i]}) for i in range(1, s.d + 1) if i <= tmap[i]]
    found = []
    for pick in range(1, (1 << len(orbits)) - 1):
        idx = sorted({0} | {i for bit, orb in enumerate(orbits) if pick >> bit & 1 for i in orb})
        member = np.zeros(s.d + 1, dtype=bool)
        member[idx] = True
        union = member[s.rel]
        # union is reflexive and symmetric by construction; transitivity:
        # the support of union @ union must not leave union (float32 counts
        # are at most n, so exact)
        ones = union.astype(np.float32)
        reach = ones @ ones > 0
        if (reach == union).all():
            found.append(idx)
    return found


def load_scheme(path: str) -> AssociationScheme:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemeParseError("empty file", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise SchemeParseError(f"header must be 'n d', got {lines[0]!r}", 1)
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise SchemeParseError(f"header must be two integers, got {lines[0]!r}", 1) from None
    if not (1 <= n <= MAX_POINTS):
        raise SchemeParseError(f"n = {n} outside 1..{MAX_POINTS}", 1)
    if not (0 <= d <= MAX_CLASSES):
        raise SchemeParseError(f"d = {d} outside 0..{MAX_CLASSES}", 1)
    if len(lines) < n + 1:
        raise SchemeParseError(f"expected {n} matrix rows, file has {len(lines) - 1}", len(lines))
    rel = np.zeros((n, n), dtype=np.int16)
    for r in range(n):
        fields = lines[r + 1].split()
        if len(fields) != n:
            raise SchemeParseError(f"expected {n} entries, got {len(fields)}", r + 2)
        for c, tok in enumerate(fields):
            try:
                v = int(tok)
            except ValueError:
                raise SchemeParseError(f"not an integer: {tok!r}", r + 2, c + 1) from None
            if not (0 <= v <= d):
                raise SchemeParseError(f"relation index {v} outside 0..{d}", r + 2, c + 1)
            if (v == 0) != (r == c):
                raise SchemeParseError("relation 0 must be exactly the diagonal", r + 2, c + 1)
            rel[r, c] = v
    return AssociationScheme(rel, d=d)
