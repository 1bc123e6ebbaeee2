"""Tour 6: the sparse-resultant route via exact linear programming.

The column monomials reappear as the lattice points of a perturbed
Minkowski sum of four Newton polytopes.  One 7 x 18 linear program per
point, with fixed integer liftings, assigns each point to the block whose
optimum puts all its weight on one vertex; it is decided exactly, in
integers, by certified bases set up once per degree pair and kept between
calls.  A short list of legal moves turns that partition into the
divisibility one, and the rebuilt matrix matches the square construction
row for row.
"""

from collections import Counter

from diffres import (DEFAULT_LIFTINGS, MOVES_TO_DIVISIBILITY_2_2, SystemSpec,
                     apply_moves, build_sparse_matrix, build_square_matrix,
                     column_set, default_main_monomials, grc_partition,
                     lattice_points, nonzero_random_probe,
                     partition_divisibility, validate_liftings)

spec = SystemSpec(2, 2)

print("== lifting validation ==")
report = validate_liftings(DEFAULT_LIFTINGS)
print("lifting vectors:", DEFAULT_LIFTINGS.as_tuple())
print("all merged constraints pass:", report.passed)
print()

print("== lattice points of the perturbed sum ==")
points = lattice_points(spec)
print(f"{len(points)} integer points; first five: {points[:5]}")
print("exactly the column monomials shifted by (1, 1, 1):",
      len(points) == spec.N)
print()

print("== partition by generalized row content ==")
result = grc_partition(spec)
print("block sizes before moves:", result.partition.sizes())
print("certified bases used:",
      dict(Counter(a.basis_id for a in result.assignments.values())))
print()

E = column_set(spec)
mm = default_main_monomials(spec)
moved = apply_moves(result.partition, MOVES_TO_DIVISIBILITY_2_2, spec)
target = partition_divisibility(E, mm)
print("after", len(MOVES_TO_DIVISIBILITY_2_2), "moves:", moved.sizes(),
      "- equals the divisibility partition:",
      all(a.as_set() == b.as_set() for a, b in zip(moved.sets(), target.sets())))
print()

print("== observational containment report (LP blocks vs divisibility) ==")
for lp_set, div_set in zip(result.partition.sets(), target.sets()):
    inter = len(lp_set.as_set() & div_set.as_set())
    print(f"  {lp_set.label}: |LP|={len(lp_set):2}  |divisibility|={len(div_set):2}"
          f"  shared={inter:2}  LP inside divisibility: {lp_set.as_set() <= div_set.as_set()}")
print()

print("== the rebuilt matrices ==")
square = build_square_matrix(spec)
rebuilt = build_sparse_matrix(moved, spec)
print("moved partition rebuilds the square matrix up to row order:",
      rebuilt.row_label_map() == square.row_label_map())
raw = build_sparse_matrix(result.partition, spec)
ok, _ = nonzero_random_probe(raw, spec, seed=2)
print("raw LP partition also yields a nonsingular matrix (random probe):", ok)
