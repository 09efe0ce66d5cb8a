"""
Character tables, intersection matrices, Krein numbers
======================================================

A 4-class skew-symmetric scheme projects onto a strongly regular graph; in
the other direction a graph parameter set admits at most three closed-form
5x5 character tables (types I, II, III).  The intersection numbers follow
either from closed forms or from the eigenvalue identity, and the two must
agree exactly.  Krein numbers are exact surds whose signs decide
feasibility.
"""

from skewfiss import (
    TYPE_I,
    TYPE_III,
    character_table,
    conference_table,
    intersection_matrices_closed_form,
    make_candidate,
    p_from_table,
    q_from_table,
    srg_derive,
    type3_auxiliary,
)

# srg(57,14,1,4) with the type III split at z = 27
p = srg_derive(57, 14, 1, 4)
print(p)
cand = make_candidate(p, TYPE_III, 27)
y, b, c = type3_auxiliary(p, 27)
print("auxiliaries: y =", y, " b =", b, " c =", c)

table = character_table(p, cand)
print("\ncharacter table:")
print(table.pretty())

# the closed form holds the full 5x5 B1; row and column 0 are fixed by the
# valencies, so the paper's closed forms are the 4x4 principal part
closed = intersection_matrices_closed_form(p, cand)
print("\nB1 principal part (closed form):")
for row in closed.b1[1:]:
    print("  ", [str(x) for x in row[1:]])

# the eigenvalue identity reproduces the same integers entry by entry
assert p_from_table(table) == closed.tensor()
print("eigenvalue identity agrees with the closed forms: True")

krein = q_from_table(table)
print("negative Krein numbers:", krein.negatives() or "none -> feasible")

# srg(105,26,13,4) at z = 540 passes integrality but fails the Krein bound
p105 = srg_derive(105, 26, 13, 4)
t105 = character_table(p105, make_candidate(p105, TYPE_III, 540))
(idx, value) = q_from_table(t105).negatives()[0]
print(f"\nsrg(105,26,13,4), z=540: q^{idx[0]}_({idx[1]},{idx[2]}) =", value,
      f"~ {float(value):.4f} < 0  -> ruled out")

# type I at srg(729,182,55,42): entries are half-integers over sqrt(-3)
p729 = srg_derive(729, 182, 55, 42)
t729 = character_table(p729, make_candidate(p729, TYPE_I))
print("\nsrg(729,182,55,42) type I row 1:",
      [str(t729.entry(1, c)) for c in range(5)])

# pseudocyclic tables carry nested radicals; products still collapse into
# an exact three-component module, so the tensor below is exact integers
t13 = conference_table(13, -3)
print("\npseudocyclic table on 13 points, entry rho =", t13.entry(1, 1))
print("its exact tensor, B1 row 1:", p_from_table(t13).matrix(1)[1])
