"""Tour 1: generic first-order systems and the derivation operator.

Builds the two generic polynomials for a chosen degree pair, applies the
derivation, and shows how the supports grow exactly as predicted.
"""

from diffres import SystemSpec, delta, generic_system, ym_render

spec = SystemSpec(2, 2)
f1, f2 = generic_system(spec)

print("== generic system for degrees", (spec.d1, spec.d2), "==")
print("f1 =", f1)
print("f2 =", f2)
print()

df1 = delta(f1)
print("delta f1 =", df1)
print()

print("supports (degree then lex order):")
print("  f1      :", [ym_render(m) for m in f1.support_set()])
print("  delta f1:", [ym_render(m) for m in df1.support_set()])
print()

print("coefficient bookkeeping for two landmark monomials of delta f1:")
from diffres import YMonomial
print("  [y1^2]  =", df1.coefficient(YMonomial(0, 2, 0)),
      "   (derivative symbol plus the mixed coefficient)")
print("  [y1*y2] =", df1.coefficient(YMonomial(0, 1, 1)),
      "   (degree factor times the top coefficient)")
print()

print("support counts across degree pairs (base, derivative):")
for d1, d2 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
    s = SystemSpec(d1, d2)
    g1, g2 = generic_system(s)
    print(f"  d={d1},{d2}:  |f1|={len(g1.support_set()):3}"
          f"  |delta f1|={len(delta(g1).support_set()):3}"
          f"  |f2|={len(g2.support_set()):3}"
          f"  |delta f2|={len(delta(g2).support_set()):3}")
