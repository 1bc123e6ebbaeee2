"""Tour 4: the nonsingularity certificate.

One symbol substitution removes the only overlap between step symbols,
then four elimination steps pair every row with a private column.  The
product of the step symbols over those pairs is a monomial no other term
of the determinant expansion can reproduce, so the determinant cannot be
identically zero.
"""

from diffres import (SystemSpec, certify, det_specialized,
                     ranking_specialization, ym_render)

spec = SystemSpec(2, 2)
transformed, cert = certify(spec)

print("== certificate for degrees", (spec.d1, spec.d2), "==")
for k, step in enumerate(cert.steps, start=1):
    cols = ", ".join(ym_render(c) for c in step.deleted_cols[:4])
    more = "..." if len(step.deleted_cols) > 4 else ""
    print(f"step {k}: symbol {step.symbol.render():9} in block {step.block:4}"
          f" removes {len(step.deleted_rows):2} rows; columns {cols}{more}")
print()

print("block counts (n1, n2, n3, n4):", cert.counts)
unique = " * ".join(f"{s.render()}^{e}" for s, e in cert.unique_monomial)
print("unique monomial:", unique)

print(f"its determinant coefficient: {cert.coefficient} "
      f"= ({cert.sign}) x (unit multipliers {cert.coefficient * cert.sign})")
print()

s = ranking_specialization(spec)
value = det_specialized(transformed, s)
print("independent cross-check: step symbols ranked by powers of 10^6,")
print("all other symbols zero; determinant =", value)
print("nonzero, as the transversal predicts:", value != 0)
print()

for d in ((1, 1), (1, 2), (2, 3), (3, 3)):
    t, c = certify(SystemSpec(*d))
    print(f"degrees {d}: certificate holds with counts {c.counts}")
