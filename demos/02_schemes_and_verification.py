"""
Building and verifying schemes
==============================

Concrete schemes are plain relation matrices.  Verification is done by
counting over all ordered pairs (never a sample): the regularity axiom
yields the intersection tensor as a by-product.
"""

import numpy as np

from skewfiss import (
    AssociationScheme,
    cyclotomic_scheme,
    fuse,
    imprimitive_blocks,
    intersection_tensor,
    is_skew_symmetric,
    symmetrize,
    verify_axioms,
    wreath,
)

# the 4-class cyclotomic scheme on GF(13): classes are the quartic power
# cosets, reordered so transpose pairs sit in positions (1,4) and (2,3)
c13 = cyclotomic_scheme(13, 4)
report = verify_axioms(c13)
print(report.summary())
print("skew-symmetric:", is_skew_symmetric(c13))
print("B1 =")
for row in report.tensor.matrix(1):
    print("  ", row)

# the symmetrization merges each relation with its transpose and recovers
# the 2-class quadratic-residue scheme
sym = symmetrize(c13)
print("\nsymmetrization equals the 2-class scheme:",
      sym == cyclotomic_scheme(13, 2))
T = intersection_tensor(sym)
print("graph parameters: k =", T.valencies[1], " lam =", T[1, 1, 1],
      " mu =", T[1, 1, 2])

# fusions only exist for some admissible partitions; this one fails the
# counting axiom and is rejected loudly
try:
    fuse(c13, [[0], [1, 2], [3, 4]])
except Exception as exc:
    print("\nfusion {0},{1,2},{3,4} rejected:", str(exc).splitlines()[0])

# a wreath product: 7 blocks of an inner 3-point tournament
w = wreath(cyclotomic_scheme(3, 2), cyclotomic_scheme(7, 2))
print("\nwreath on 21 points: skew =", is_skew_symmetric(w),
      " blocks =", imprimitive_blocks(intersection_tensor(w)))

# a perturbed matrix fails the counting axiom
rel = np.array(c13.rel)
rel[0, 1], rel[1, 0] = 1, 4
bad = verify_axioms(AssociationScheme(rel))
print("\nperturbed matrix verdict:", "pass" if bad.ok else "FAIL (as expected)")
