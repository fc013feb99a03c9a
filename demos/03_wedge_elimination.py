"""Watch the wedge elimination zero out a bracket spiral.

Replacing column C_j by C_j - <x>*C_{j-1} + C_{j-2}, at every size, annihilates
every cell whose three source cells sit on one horizontal run of the spiral,
because brackets satisfy [A x^2] - <x>[A x] + [A] = 0.  What survives is a
2x2 corner block and one antidiagonal, so the determinant factors on sight.

The same works with arbitrary monomials as the up/down step multipliers: the
wedges only need the horizontal steps to multiply by x on both sides.
"""

import random

from spiraldet import (
    build_bracket_xx,
    build_generalized_bracket,
    det_cofactor,
    step_counts,
    to_string,
    wedge_eliminate_even,
)

z = build_bracket_xx(6)
transformed, fac = wedge_eliminate_even(z)

print("Zero pattern of the transformed 6x6 bracket spiral (* = nonzero):")
for row in transformed:
    print("   ", " ".join("." if not cell else "*" for cell in row))

print("\nFactorization: sign", fac.sign, "* corner * antidiagonal entries")
print("    corner     =", to_string(fac.corner_factor))
for k, factor in enumerate(fac.antidiagonal_factors, start=1):
    print(f"    factor {k}   =", to_string(factor))
print("\n    product equals cofactor determinant:", fac.product() == det_cofactor(z))

print("\nNow with random monomial up/down increments (seeded):")
rng = random.Random(42)
counts = step_counts(6)
ups = [tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(counts["up"])]
downs = [tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(counts["down"])]
zg = build_generalized_bracket(6, ups, downs)
_, fac_g = wedge_eliminate_even(zg)
print("    wedges vanish and the product is exact:",
      fac_g.product() == det_cofactor(zg))
