"""Tour 7: cross-checking with an independent elimination oracle.

Iterated Sylvester resultants remove the variables one at a time and land
on a polynomial purely in the coefficient symbols.  It vanishes on every
engineered common zero, exactly like the matrix determinant, while being
computed by a completely different route.  The tour ends with an
observational divisibility report between the two degree-one outputs.
"""

import random
from fractions import Fraction

from diffres import (NotDivisible, SystemSpec, build_square_matrix,
                     common_zero_specialization, det_specialized,
                     det_symbolic, eliminate_iterated, random_specialization)

spec = SystemSpec(1, 1)
candidate = eliminate_iterated(spec)
M = build_square_matrix(spec)
determinant = det_symbolic(M)

print("== the two degree-one outputs ==")
print(f"oracle polynomial : degree {candidate.total_degree()}, "
      f"{len(candidate)} terms")
print(f"matrix determinant: degree {determinant.total_degree()}, "
      f"{len(determinant)} terms")
print()

print("== both vanish on engineered common zeros ==")
rng = random.Random(4)
agree = 0
for seed in range(20):
    point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(3))
    s = common_zero_specialization(spec, point, rng_seed=seed)
    if candidate.evaluate(s) == 0 and det_specialized(M, s) == 0:
        agree += 1
print(f"  {agree}/20 seeds: both exactly zero")

generic = random_specialization(spec, 31337)
print("  generic specialization: oracle", candidate.evaluate(generic) != 0,
      "/ determinant", det_specialized(M, generic) != 0, "(both nonzero)")
print()

print("== observational factorization status ==")
print("neither output is claimed to equal the resultant on the nose;")
for name, num, den in (("determinant / oracle", determinant, candidate),
                       ("oracle / determinant", candidate, determinant)):
    try:
        quotient = num.exact_div(den)
        print(f"  {name}: exact quotient with {len(quotient)} terms")
    except NotDivisible:
        print(f"  {name}: no exact quotient")
print("both carry the common-zero locus; their exact relationship is")
print("reported observationally, not assumed.")
