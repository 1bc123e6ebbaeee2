"""Tour 5: exact determinants and the vanishing law.

The determinant of the square matrix must vanish whenever the system and
its derivatives share a zero, and must not vanish identically.  Both sides
are checked with exact arithmetic: specialized integer elimination, a full
symbolic expansion for the smallest case, and modular residues recombined
by the Chinese remainder theorem.  At a common zero no elimination runs:
the column monomials evaluated at the point form a nonzero vector (the
monomial 1 is a column) that the specialized matrix sends to zero, and
`det_specialized` checks that product, in integers, before it returns 0.
"""

import random
from fractions import Fraction

from diffres import (SystemSpec, build_square_matrix,
                     common_zero_specialization, det_modular, det_specialized,
                     det_symbolic, nonzero_random_probe, random_specialization)

spec = SystemSpec(1, 1)
M = build_square_matrix(spec)

print("== the 4 x 4 ground-truth case ==")
d = det_symbolic(M)
print(f"symbolic determinant: degree {d.total_degree()}, {len(d)} terms, "
      f"{len(d.symbols())} symbols")
print()

print("== vanishing at engineered common zeros ==")
spec22 = SystemSpec(2, 2)
M22 = build_square_matrix(spec22)
rng = random.Random(0)
for seed in range(5):
    point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(3))
    s = common_zero_specialization(spec22, point, rng_seed=seed)
    value = det_specialized(M22, s)
    print(f"  seed {seed}: common zero at {tuple(str(p) for p in point)}"
          f" -> det = {value}")
print()

print("== generic nonvanishing ==")
ok, witness = nonzero_random_probe(M22, spec22, seed=1)
print(f"  random integer specialization (seed {witness['seed']}):"
      f" det = {witness['value'][:40]}{'...' if len(witness['value']) > 40 else ''}")
print()

print("== modular residues recombine to the exact value ==")
s = random_specialization(spec, rng_seed=7)
exact = det_specialized(M, s)
moduli = [2147483647, 2147483629, 2147483587]
result = det_modular(M, s, moduli)
print(f"  exact value : {exact}")
print(f"  residues    : {result.residues}")
print(f"  moduli      : {len(moduli)} (product beats twice the bound {result.bound})")
print(f"  CRT lift    : {result.value}")
print(f"  agree       : {result.value == exact}")
