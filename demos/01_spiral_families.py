"""Build the three spiral-matrix families and look at their entries.

A spiral matrix starts with a value in the centre cell and winds outwards
right, up, left, down with run lengths 1, 1, 2, 2, 3, 3, ...  The additive
family adds an increment per step (x right, b up, y left, c down); the
q-power family multiplies the corresponding monomials instead; the bracket
family stores m - 1/m of the accumulated monomial m.
"""

from spiraldet import (
    build_additive,
    build_bracket,
    build_qpower,
    matrix_to_latex,
    numeric_theorem_matrix,
    to_string,
)

print("The 4x4 additive spiral:")
for row in build_additive(4):
    print("   ", "  ".join(f"{str(e):<14}" for e in row))

print("\nIts LaTeX form (pmatrix):")
print(matrix_to_latex(build_additive(4)))

print("\nSetting a = 16 and b = c = x = y = -1 recovers the classical inward")
print("integer spiral, with 1..16 winding from the corner to the centre:")
for row in numeric_theorem_matrix(1, 4, (16, -1, -1, -1, -1)):
    print("   ", "  ".join(f"{int(v):>3}" for v in row))

print("\nAll parameters equal to 1 give the outward-winding spiral instead:")
for row in numeric_theorem_matrix(1, 4, (1, 1, 1, 1, 1)):
    print("   ", "  ".join(f"{int(v):>3}" for v in row))

print("\nThe q-power family replaces each additive entry X by q^X; entries are")
print("monomials in the five variables standing for q^a .. q^y:")
for row in build_qpower(2):
    print("   ", "  ".join(f"{to_string(e):<10}" for e in row))

print("\nThe bracket family stores m - 1/m of the accumulated monomial:")
print("    centre entry of the 4x4 bracket spiral:", to_string(build_bracket(4)[2][1]))
print("    its (2,2) entry:                       ", to_string(build_bracket(4)[1][1]))
