"""Association schemes as concrete relation matrices.

A scheme on n points is stored as an n x n matrix of relation indices in
0..d.  Everything here is verified by counting: the regularity axiom is
checked over all ordered point pairs, never a sample, and the intersection
tensor is the by-product of that count.

The count reads one row where a group of automorphisms allows it.  A
permutation g with rel[g(x)][g(y)] = rel[x][y] on all n^2 cells, an O(n^2)
test, is an automorphism of every A_i, so g A_i A_j g^T = A_i A_j: row g(x)
of each product is row x permuted, as row g(x) of rel is.  The candidates
are the digit increments, which add 1 mod a to the base-a digit of place
value P, for every P * a | n.  x -> x+1 (mod n) is (1, n); a cyclotomic
scheme on GF(p^b), labelled by base-p digits, is fixed by each (p^t, p),
and a wreath of Cayley schemes, labelled in mixed radix, by the increments
of its factors.  When the accepted increments generate a transitive group
(a Cayley scheme, Bannai-Ito 1984), row 0 meets every nonempty class and
holds every value each product takes on it, so a class's least and
greatest count on row 0 are those of the full product.  Row 0 of every
A_i A_j is one bincount per i over the rows z of T_i = {z : rel[0][z] = i},
O(n^2) with no indicator matrix, and the class sizes and the transpose map
are n times those read off row 0 and column 0.

Any other scheme (a Johnson scheme, a relabelled file) is counted on all n
rows.  That count multiplies float32 indicator matrices A_i, exact because
every partial sum is an integer of at most n <= MAX_POINTS < 2**24, and
its working set is the d indicators and one n x n product.  Three kinds of
product are not formed, and none is sampled:

- the trivial planes.  Once axiom (i) holds, A_0 = I, so A_0 A_j = A_j and
  A_i A_0 = A_i, and p^k_0j = p^k_j0 = delta_jk with no count needed.
- the mirrored half.  Once axiom (iii) holds, A_i^T = A_i' and
  (A_i A_j)^T = A_j' A_i', so the product for (j', i') is the transpose of
  the product for (i, j).  When that one was counted over all pairs and
  found constant on every R_k, it is constant p^k_ij on every R_k' =
  R_k^T.  A pair whose partner failed is counted itself, so a broken
  scheme reports every failing pair.
- the last unknown product of each row.  A_0 + ... + A_d = J, so
  sum_j A_i A_j = A_i J, which is k_i J when A_i has constant row sums
  k_i (an O(n^2) count).  When every other product of row i was found
  constant on every R_k, so is A_i A_j* for the last one, j*, with
  p^k_ij* = k_i - sum_{j != j*} p^k_ij.  Otherwise it is counted.

For d = 4 skew this forms 6 of the 25 products: 3, 2, 1 and 0 in rows 1..4.

Every other pass over rel, and over a scheme file or a construction, runs in
row blocks of _CHECK_CELLS cells.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_POINTS = 65535
MAX_CLASSES = 255


class SchemeError(ValueError):
    pass


class SchemeParseError(SchemeError):
    """Scheme file rejected; carries 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class FusionError(SchemeError):
    pass


# Cells per block of a pass over rel, a scheme file or a construction: its
# temporaries stay a few MB whatever n is.
_CHECK_CELLS = 1 << 18


def row_blocks(rows: int, cells_per_row: int):
    """Slices covering range(rows), each of at most _CHECK_CELLS cells (at
    least one row)."""
    step = max(1, _CHECK_CELLS // cells_per_row)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _digit_increments(n: int):
    """The permutations x -> x with its base-a digit of place value P raised
    by 1 mod a, for every a >= 2 and P with P * a | n, ordered by (P, a)."""
    divisors = [t for t in range(1, n + 1) if n % t == 0]
    x = np.arange(n)
    for P in divisors:
        for a in divisors:
            if a > 1 and n // P % a == 0:
                yield x + np.where(x // P % a == a - 1, (1 - a) * P, P)


def _fixes(rel: np.ndarray, sigma: np.ndarray) -> bool:
    """Whether rel[sigma[x]][sigma[y]] = rel[x][y] on all n^2 cells; row 0,
    tested first, turns most candidates away."""
    if not np.array_equal(rel[sigma[0], sigma], rel[0]):
        return False
    return all(np.array_equal(rel[np.ix_(sigma[b], sigma)], rel[b])
               for b in row_blocks(len(rel), len(rel)))


def _join_orbits(label: np.ndarray, gens: list) -> np.ndarray:
    """The smallest point of each point's orbit under the group gens generate.

    label[x] must be a point of x's orbit no larger than x.  Each pass takes
    the minimum of label over every cycle of every generator, in
    log2(n) doublings, until a pass changes nothing: label is then constant
    on every orbit, and equal to its smallest point.
    """
    while True:
        before = label
        for g in gens:
            for _ in range(len(label).bit_length()):
                label = np.minimum(label, label[g])
                g = g[g]
        if np.array_equal(label, before):
            return label


def _codes(high: np.ndarray, base: int, low) -> np.ndarray:
    """high * base + low, flat, in one intp array built in place."""
    codes = high.astype(np.intp)
    codes *= base
    codes += low
    return codes.ravel()


def _class_cells(rel: np.ndarray, d: int) -> tuple:
    """One (row, column) cell of each class R_0..R_d, as an index pair of
    arrays; an empty class gets the cell (0, 0)."""
    first = [int((rel == i).argmax()) for i in range(d + 1)]
    return np.unravel_index(first, rel.shape)


def _class_values(m: np.ndarray, rel: np.ndarray, cells: tuple) -> np.ndarray | None:
    """The value of m on each class, or None if m varies within some class.

    m is compared cell by cell with its value at ``cells`` spread over rel,
    one block of rows at a time.
    """
    values = m[cells]
    for b in row_blocks(*rel.shape):
        if not np.array_equal(m[b], values.take(rel[b])):
            return None
    return values


def check_size(n: int, d: int) -> None:
    """Refuse n points or d classes outside 1..MAX_POINTS and 0..MAX_CLASSES;
    builders call this before they allocate anything that grows with n."""
    if n < 1 or n > MAX_POINTS:
        raise SchemeError(f"point count {n} outside 1..{MAX_POINTS}")
    if d < 0 or d > MAX_CLASSES:
        raise SchemeError(f"class count {d} outside 0..{MAX_CLASSES}")


class AssociationScheme:
    """Relation-index matrix with d nontrivial classes.

    Construction checks only shape and index range; the scheme axioms are
    established by ``verify_axioms``.  Entries are stored as int16, and an
    entry that the cast would change (65537, 1.7, 70000 as a Python int) is
    a SchemeError.  The stored matrix is frozen because the cached _pairs,
    _transpose and _transitive assume it never changes, and the flags of
    the caller's array are never changed: an int16 array that is read-only
    and owns its memory is kept as it is (every builder and loader hands
    over such an array, so none is copied), anything else is copied into a
    fresh frozen matrix.
    """

    def __init__(self, rel, d: int | None = None):
        given = np.asarray(rel)
        try:
            with np.errstate(invalid="ignore"):  # NaN: a changed entry, no warning
                mat = given.astype(np.int16, copy=False)
        except (OverflowError, TypeError, ValueError):
            mat = None
        # int16 input is mat itself, so only another dtype pays the comparison
        if mat is None or (mat is not given and not np.array_equal(mat, given)):
            raise SchemeError("relation indices must be integers in the int16 range")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SchemeError(f"relation matrix must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if d is None:
            d = int(mat.max(initial=0))
        check_size(n, d)
        if mat.min(initial=0) < 0 or int(mat.max(initial=0)) > d:
            raise SchemeError("relation index out of range 0..d")
        if mat is given and (mat.flags.writeable or not mat.flags.owndata):
            mat = mat.copy()
        mat.setflags(write=False)
        self.n = n
        self.d = d
        self.rel = mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssociationScheme):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.rel, other.rel)

    def __repr__(self) -> str:
        return f"AssociationScheme(n={self.n}, d={self.d})"

    def relation_sizes(self) -> list[int]:
        return [int(c) for c in self._pairs.sum(axis=1)]

    def transpose_map(self) -> list[int] | None:
        """i -> i' with R_i^T = R_{i'}, or None if transposes are not classes.

        Computed on the first call and kept: rel is read-only after
        construction.
        """
        return None if self._transpose is None else list(self._transpose)

    @cached_property
    def _transpose(self) -> tuple[int, ...] | None:
        support = self._pairs > 0
        if not (support.sum(axis=1) == 1).all():
            return None  # a class is empty, or its transpose meets two classes
        out = tuple(support.argmax(axis=1).tolist())
        return out if sorted(out) == list(range(self.d + 1)) else None

    @cached_property
    def _transitive(self) -> bool:
        """Whether the digit increments that fix rel generate a group
        transitive on the points (module docstring); they are tried in turn
        until they do."""
        gens, label = [], np.arange(self.n)
        for sigma in _digit_increments(self.n):
            if not label.any():
                break
            if _fixes(self.rel, sigma):
                gens.append(sigma)
                label = _join_orbits(label, gens)
        return not label.any()

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Entry (i, j): the number of cells with rel[x][y] = i and rel[y][x] = j.

        On a transitive scheme, n times the count on row 0 and column 0: row
        g(0) and column g(0) are row 0 and column 0 permuted.
        """
        n, m = self.n, self.d + 1
        rows = 1 if self._transitive else n
        pairs = np.zeros(m * m, dtype=np.int64)
        for b in row_blocks(rows, n):
            pairs += np.bincount(_codes(self.rel[b], m, self.rel[:, b].T), minlength=m * m)
        return pairs.reshape(m, m) * (n // rows)

    def save(self, path: str) -> None:
        save_scheme(self, path)


@dataclass(frozen=True)
class IntersectionTensor:
    """p[i][j][k] together with the valencies k_0..k_d."""

    p: tuple
    valencies: tuple

    @property
    def d(self) -> int:
        return len(self.valencies) - 1

    def __getitem__(self, idx):
        i, j, k = idx
        return self.p[i][j][k]

    def matrix(self, i: int) -> list[list[int]]:
        """The i-th intersection matrix: (j, k) entry p^k_{ij}."""
        m = len(self.valencies)
        return [[self.p[i][j][k] for k in range(m)] for j in range(m)]


@dataclass
class AxiomReport:
    n: int
    d: int
    diagonal_ok: bool = True
    partition_ok: bool = True
    transpose_ok: bool = True
    regular_ok: bool = True
    failures: list = field(default_factory=list)
    transpose_map: list | None = None
    tensor: IntersectionTensor | None = None

    @property
    def ok(self) -> bool:
        return self.diagonal_ok and self.partition_ok and self.transpose_ok and self.regular_ok

    def summary(self) -> str:
        mark = lambda b: "pass" if b else "FAIL"
        lines = [
            f"points n = {self.n}, classes d = {self.d}",
            f"axiom (i)   diagonal relation:        {mark(self.diagonal_ok)}",
            f"axiom (ii)  partition, all nonempty:  {mark(self.partition_ok)}",
            f"axiom (iii) transposes are classes:   {mark(self.transpose_ok)}",
            f"axiom (iv)  constant path counts:     {mark(self.regular_ok)}",
        ]
        lines.extend(f"  - {f}" for f in self.failures)
        return "\n".join(lines)


def _read_pair(p: list, failures: list, i: int, j: int, lo, hi, sizes: list) -> bool:
    """Store p^k_ij for every nonempty class R_k on which the count of
    (R_i, R_j) paths is constant (lo[k] == hi[k]) and report the others;
    False if any varies."""
    constant = True
    for k, size in enumerate(sizes):
        if not size:
            continue
        if lo[k] != hi[k]:
            constant = False
            failures.append(f"count of (R_{i}, R_{j}) paths over R_{k} pairs varies: "
                            f"{int(lo[k])} .. {int(hi[k])}")
        else:
            p[i][j][k] = int(lo[k])
    return constant


def verify_axioms(s: AssociationScheme) -> AxiomReport:
    """Check all four scheme axioms by counting: O(n^2) on row 0 when digit
    increments fix the scheme transitively, else O(n^3) via matrix products.

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
    for b in row_blocks(n, n):
        off_diag_zero = rel[b] == 0
        on_diag = np.arange(b.start, b.stop)
        off_diag_zero[on_diag - b.start, on_diag] = False
        if off_diag_zero.any():
            rep.diagonal_ok = False
            x, y = (int(v[0]) for v in np.nonzero(off_diag_zero))
            rep.failures.append(f"off-diagonal entry rel[{b.start + x}][{y}] = 0")
            break

    sizes = s.relation_sizes()
    for i in range(d + 1):
        if sizes[i] == 0:
            rep.partition_ok = False
            rep.failures.append(f"relation {i} is empty")

    tmap = s.transpose_map()
    if tmap is None:
        rep.transpose_ok = False
        rep.failures.append("some relation's transpose is not a relation")
    rep.transpose_map = tmap

    if s._transitive:
        p, regular = _count_row(rel, sizes, rep.failures)
    else:
        p, regular = _count_products(rel, sizes, tmap, rep.diagonal_ok, rep.failures)
    rep.regular_ok = regular

    if rep.ok:
        valencies = tuple(int(p[i][tmap[i]][0]) for i in range(d + 1))
        for i, plane in enumerate(p):  # frozen plane by plane: one copy alive
            p[i] = tuple(map(tuple, plane))
        rep.tensor = IntersectionTensor(p=tuple(p), valencies=valencies)
    return rep


def _count_row(rel: np.ndarray, sizes: list, failures: list):
    """p^k_ij from row 0 of every A_i A_j, on a scheme fixed by a transitive
    group (module docstring); no product is formed.

    Entry (0, y) of A_i A_j counts z in T_i = {z : rel[0][z] = i} with
    rel[z][y] = j, so one bincount of rel[z][y] * n + y over the rows z of
    T_i, in row blocks, gives row 0 of A_i A_j for every j: O(|T_i| n), with
    one (d + 1) x n count alive at a time.
    """
    n, m = len(rel), len(sizes)
    order = np.argsort(rel[0], kind="stable")  # row 0's cells, class by class
    nonempty = np.flatnonzero(sizes)
    starts = np.searchsorted(rel[0][order], nonempty)
    cols = np.arange(n)
    p = [[[0] * m for _ in range(m)] for _ in range(m)]
    regular = True
    for i in range(m):
        counts = np.zeros(m * n, dtype=np.int64)
        cls = np.flatnonzero(rel[0] == i)
        for b in row_blocks(len(cls), n):
            counts += np.bincount(_codes(rel[cls[b]], n, cols), minlength=m * n)
        by_class = counts.reshape(m, n)[:, order]
        lo, hi = np.zeros((m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
        lo[:, nonempty] = np.minimum.reduceat(by_class, starts, axis=1)
        hi[:, nonempty] = np.maximum.reduceat(by_class, starts, axis=1)
        if (lo == hi).all():  # every A_i A_j constant on every class
            p[i] = lo.tolist()
            continue
        for j in range(m):
            regular &= _read_pair(p, failures, i, j, lo[j], hi[j], sizes)
    return p, regular


def _count_products(rel: np.ndarray, sizes: list, tmap: list | None, diagonal_ok: bool,
                    failures: list):
    """p^k_ij from the n x n products A_i A_j, formed on float32 indicators,
    skipping the products the module docstring names."""
    n, d = len(rel), len(sizes) - 1
    class_cells = _class_cells(rel, d)
    # with A_0 = I no product has A_0 as a factor
    ind = [None if i == 0 and diagonal_ok else (rel == i).astype(np.float32)
           for i in range(d + 1)]
    counts = np.empty((n, n), dtype=np.float32)
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    counted = set()  # pairs counted or derived, and constant on every class

    def count(i: int, j: int) -> bool:
        """Form A_i A_j and read off p^k_ij; False if it varies on a class."""
        np.matmul(ind[i], ind[j], out=counts)
        values = _class_values(counts, rel, class_cells)
        if values is not None:
            _read_pair(p, failures, i, j, values, values, sizes)
            counted.add((i, j))
            return True
        lo, hi = [0] * (d + 1), [0] * (d + 1)
        for k in range(d + 1):
            if sizes[k]:
                cells = counts[rel == k]
                lo[k], hi[k] = cells.min(), cells.max()
        return _read_pair(p, failures, i, j, lo, hi, sizes)

    regular = True
    for i in range(d + 1):
        unknown = []
        for j in range(d + 1):
            if diagonal_ok and 0 in (i, j):
                p[i][j][i + j] = 1  # A_0 = I: p^k_0j = delta_jk, p^k_i0 = delta_ik
            elif tmap is not None and (tmap[j], tmap[i]) in counted:
                a, b = tmap[j], tmap[i]  # (A_a A_b)^T = A_i A_j
                for k in range(d + 1):
                    p[i][j][tmap[k]] = p[a][b][k]
            else:
                unknown.append(j)
        if not unknown:
            continue
        *rest, last = unknown
        rest_ok = all([count(i, j) for j in rest])  # a list: every pair is counted
        regular &= rest_ok
        row_sums = ind[i].sum(axis=1)
        if not (rest_ok and (row_sums == row_sums[0]).all()):
            regular &= count(i, last)
            continue
        # sum_j A_i A_j = A_i J = k_i J, and every other product of the row
        # is constant on every class, so A_i A_last is too
        k_i = int(row_sums[0])
        for k in range(d + 1):
            if sizes[k]:
                p[i][last][k] = k_i - sum(p[i][j][k] for j in range(d + 1) if j != last)
        counted.add((i, last))
    return p, regular


def require_scheme(s: AssociationScheme, error: type, what: str) -> AxiomReport:
    """verify_axioms(s), or error("<what>:\n" + the report's summary) if any
    axiom fails."""
    rep = verify_axioms(s)
    if not rep.ok:
        raise error(what + ":\n" + rep.summary())
    return rep


def intersection_tensor(s: AssociationScheme) -> IntersectionTensor:
    return require_scheme(s, SchemeError, "not an association scheme").tensor


def is_skew_symmetric(s: AssociationScheme) -> bool:
    """True iff no nontrivial relation equals its own transpose."""
    tmap = s.transpose_map()
    if tmap is None:
        raise SchemeError("transposes of relations are not relations")
    return all(tmap[i] != i for i in range(1, s.d + 1))


def _orbit_partition(tmap: list[int]) -> list[list[int]]:
    """Orbits of the transpose involution, ordered by smallest member."""
    seen = set()
    blocks = []
    for i in range(len(tmap)):
        if i in seen:
            continue
        block = sorted({i, tmap[i]})
        seen.update(block)
        blocks.append(block)
    return blocks


def symmetrize(s: AssociationScheme) -> AssociationScheme:
    """Merge every relation with its transpose; verified before returning."""
    tmap = s.transpose_map()
    if tmap is None:
        raise SchemeError("transposes of relations are not relations")
    blocks = _orbit_partition(tmap)
    return fuse(s, blocks)


def check_partition(s: AssociationScheme, blocks: list[list[int]]) -> list[int]:
    """Validate an admissible partition; return the index -> block-id map."""
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(s.d + 1)):
        raise FusionError(f"blocks {blocks} do not partition 0..{s.d}")
    if sorted(blocks[0]) != [0]:
        raise FusionError("block 0 must be the singleton {0}")
    tmap = s.transpose_map()
    if tmap is None:
        raise SchemeError("transposes of relations are not relations")
    block_sets = [frozenset(b) for b in blocks]
    for b in block_sets:
        image = frozenset(tmap[i] for i in b)
        if image not in block_sets:
            raise FusionError(f"partition not admissible: transpose of block {sorted(b)} "
                              f"is {sorted(image)}, not a block")
    owner = [0] * (s.d + 1)
    for bid, b in enumerate(blocks):
        for i in b:
            owner[i] = bid
    return owner


def fuse(s: AssociationScheme, blocks: list[list[int]]) -> AssociationScheme:
    """Merge relations along an admissible partition; the result is re-verified.

    Admissibility does not guarantee a scheme, so a failed regularity check
    raises FusionError rather than returning a broken object.
    """
    owner = check_partition(s, blocks)
    lut = np.array(owner, dtype=np.int16)
    rel = lut[s.rel]
    rel.setflags(write=False)
    fused = AssociationScheme(rel, d=len(blocks) - 1)
    require_scheme(fused, FusionError, "admissible partition does not yield a scheme")
    return fused


def imprimitive_blocks(t: IntersectionTensor) -> list[list[int]]:
    """All proper nontrivial unions of classes (with the diagonal) that are
    equivalence relations; empty list means the scheme is primitive.

    Read off the counted tensor: R_i R_j is the union of the R_k with
    p^k_ij > 0, so a union U of transpose orbits with R_0 is transitive
    exactly when p^k_ij = 0 for all i, j in U and every k outside U.
    """
    m = t.d + 1
    tmap = [next(j for j in range(m) if t[i, j, 0]) for i in range(m)]  # p^0_ii' = k_i
    orbits = [b for b in _orbit_partition(tmap) if 0 not in b]
    found = []
    for pick in range(1, (1 << len(orbits)) - 1):
        idx = sorted({0} | {i for bit, orb in enumerate(orbits) if pick >> bit & 1 for i in orb})
        outside = [k for k in range(m) if k not in idx]
        if not any(t[i, j, k] for i in idx for j in idx for k in outside):
            found.append(idx)
    return found


# -- scheme file format (.ascm) ---------------------------------------------
#
# UTF-8 text.  Line 1: "n d".  Lines 2..n+1: n space-separated relation
# indices in 0..d.  Relation 0 must be the diagonal.
#
# save_scheme writes one canonical layout, a block of rows at a time: each
# index in decimal, followed by " ", the last one of a row by "\n".
# load_scheme reads the whole file, checks every row's length and reads that
# layout, or the same with "\r\n" line ends, a block of rows at a time into
# rel; any other file is parsed token by token, which names the line and
# column of the first offence.

_CANONICAL_HEADER = re.compile(rb"([1-9][0-9]{0,4}) (0|[1-9][0-9]{0,2})(\r?\n)")


def save_scheme(s: AssociationScheme, path: str) -> None:
    names = [str(v) for v in range(s.d + 1)]
    width = len(names[-1])
    # table[0][v]: index v's digits, then " "; table[1][v]: then "\n";
    # zero-padded to width + 1 bytes, the padding dropped before writing
    table = np.zeros((2, s.d + 1, width + 1), dtype=np.uint8)
    for v, name in enumerate(names):
        table[:, v, :len(name)] = np.frombuffer(name.encode(), dtype=np.uint8)
        table[:, v, len(name)] = (ord(" "), ord("\n"))
    with open(path, "wb") as fh:
        fh.write(f"{s.n} {s.d}\n".encode())
        for b in row_blocks(s.n, s.n * (width + 1)):
            cells = table[0].take(s.rel[b], axis=0)
            cells[:, -1] = table[1].take(s.rel[b, -1], axis=0)
            cells = cells.ravel()
            fh.write(np.compress(cells != 0, cells))


def load_scheme(path: str) -> AssociationScheme:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # raises UnicodeDecodeError, whatever the layout
    return _read_canonical(data) or _read_tokens(data.decode("utf-8"))


def _read_canonical(data: bytes) -> AssociationScheme | None:
    """The scheme in a file of save_scheme's layout, else None.

    Every line may end in "\r\n" instead, if the header's does.  Bytes
    after the n-th row are not read.  Every token must be at most
    len(str(d)) decimal digits (a leading zero reads as int() reads it), in
    0..d, with 0 exactly on the diagonal; anything else is left to the
    token walk, which names the first offence.  The rows are read in blocks
    of about _CHECK_CELLS bytes, after every row's length has been checked.
    """
    head = _CANONICAL_HEADER.match(data)
    if head is None:
        return None
    n, d, width = int(head[1]), int(head[2]), len(head[2])
    cr = len(head[3]) - 1  # 1 when lines end in "\r\n"
    if n > MAX_POINTS or d > MAX_CLASSES:
        return None
    # ends[r]: the "\n" before row r.  n tokens of 1..width digits and n - 1
    # single spaces take 2n - 1 to n(width + 1) - 1 bytes, so n rows of
    # nothing are turned away before anything of n^2 bytes is allocated
    ends = [head.end() - 1]
    for _ in range(n):
        end = data.find(b"\n", ends[-1] + 1)
        if not 2 * n - 1 <= end - ends[-1] - 1 - cr <= n * (width + 1) - 1:
            return None
        if cr and data[end - 1] != ord("\r"):
            return None
        ends.append(end)
    rel = np.empty((n, n), dtype=np.int16)
    for b in row_blocks(n, n * (width + 1)):
        body = np.frombuffer(data, dtype=np.uint8, offset=ends[b.start],
                             count=ends[b.stop] + 1 - ends[b.start])
        if cr:  # the "\r" before each row's "\n"
            body = np.delete(body, np.array(ends[b.start + 1:b.stop + 1]) - 1 - ends[b.start])
        block = _canonical_rows(body, b.stop - b.start, n, width)
        if block is None or block.max() > d:
            return None
        diagonal = np.arange(b.stop - b.start) * (n + 1) + b.start
        zeros = np.flatnonzero(block == 0)
        if len(zeros) != len(diagonal) or (zeros != diagonal).any():
            return None
        rel[b] = block.reshape(-1, n)
    rel.setflags(write=False)
    return AssociationScheme(rel, d=d)


def _canonical_rows(body: np.ndarray, rows: int, n: int, width: int) -> np.ndarray | None:
    """The n * rows tokens of body, or None if it departs from the layout.

    body is the bytes of the rows with the "\n" before them: every token
    starts after a separator.  One-digit tokens (width 1) fill rows of
    exactly 2n bytes with the "\n", as _read_canonical has checked, so
    separators and digits must alternate; wider tokens go to _token_runs.
    """
    if width == 1:
        digits = body[1::2] - ord("0")
        ok = (digits < 10).all() and np.array_equal(body[0::2], _separators(rows, n))
        return digits if ok else None
    return _token_runs(body, rows, n, width)


def _separators(rows: int, n: int) -> np.ndarray:
    """The separators of rows canonical rows of n tokens, from the "\n" before them."""
    want = np.full(rows * n + 1, ord(" "), dtype=np.uint8)
    want[::n] = ord("\n")
    return want


def _token_runs(body: np.ndarray, rows: int, n: int, width: int) -> np.ndarray | None:
    """_canonical_rows for tokens of 1..width digits, read as digit runs."""
    digits = body - ord("0")
    is_digit = digits < 10
    is_sep = ~is_digit
    if np.count_nonzero(is_sep) != rows * n + 1:
        return None
    if (not np.array_equal(np.compress(is_sep, body), _separators(rows, n))
            or (is_sep[1:] & is_sep[:-1]).any()):
        return None
    # value[q]: the number spelt by the digit run that ends at byte q
    value = (digits * is_digit).astype(np.int16)
    run = is_digit.copy()
    for t in range(1, width):
        run[t:] &= is_digit[:-t]
        value[t:] += (digits[:-t] * run[t:]).astype(np.int16) * 10 ** t
    if (run[width:] & is_digit[:-width]).any():
        return None  # a token longer than str(d)
    return np.compress(is_sep[1:], value[:-1])


def _read_tokens(text: str) -> AssociationScheme:
    lines = text.splitlines()
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
    rel.setflags(write=False)
    return AssociationScheme(rel, d=d)
