"""The closed-form determinant identities, checked symbolically and numerically.

Each family's determinant factors completely.  This script expands both sides
for small sizes (exact polynomial equality via the memoized cofactor engine)
and spot-checks a large size at random integer points with the fraction-free
rational engine, evaluating the formula factor by factor without expanding it.
"""

from spiraldet import (
    build_additive,
    build_bracket_xx,
    build_qpower,
    det_cofactor,
    numeric_matrix,
    theorem,
    thm1_even,
    thm2_even,
    thm3_even,
    to_string,
    verify_identity,
)

print("Symbolic check, n = 1..6, all three families:")
for n in range(1, 7):
    additive = [[f.to_poly() for f in row] for row in build_additive(n)]
    marks = (det_cofactor(additive) == theorem(1, n).expand(),
             det_cofactor(build_qpower(n)) == theorem(2, n).expand(),
             det_cofactor(build_bracket_xx(n)) == theorem(3, n).expand())
    print(f"    n={n}: additive {marks[0]}, q-power {marks[1]}, bracket {marks[2]}")

print("\nThe smallest nontrivial cases in full:")
print("    det(additive, 2x2) =", to_string(thm1_even(1)))
print("    det(q-power, 2x2)  =", to_string(thm2_even(1)))
print("    det(bracket, 2x2)  =", to_string(thm3_even(1)))

print("\nRandomized check at size 9 (20 random integer points, exact rationals):")
matrix = build_bracket_xx(9)
report = verify_identity(lambda pt: numeric_matrix(matrix, pt), theorem(3, 9),
                         trials=20, seed=1)
print(f"    bracket family, n=9: {report.failures}/{report.trials} failures")
