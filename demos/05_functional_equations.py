"""The functional equations behind the bracket construction.

Continuous solutions of f(a)g(x) = f(ax) + f(a/x) on the positive reals come
in three families: f = 0; f = c1 + c2*log(x) with g = 2; and the symmetric
power pair f = c1*x^alpha + c2*x^(-alpha), g = x^alpha + x^(-alpha) with a
real or purely imaginary alpha.  This script checks the defining relations on
sampled points and recovers alpha from a black-box g.
"""

import math

from spiraldet import (
    RELATIONS,
    FamilyKind,
    FamilySpec,
    check_relations,
    classify,
    eval_g,
)

families = {
    "power alpha=2.5": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=2.5),
    "imaginary t=1.3": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=1.3, imaginary=True),
    "log-affine": FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0),
}

print("Max |lhs - rhs| over 1000 log-uniform samples in [0.1, 10]:")
for name, spec in families.items():
    residuals = [report.max_residual
                 for report in check_relations(spec, RELATIONS, 1000, seed=0)]
    print(f"    {name:<17} worst over {RELATIONS}: {max(residuals):.2e}")

print("\ng(1) = 2 for every non-zero family:",
      all(eval_g(s, 1.0) == 2.0 for s in families.values()))

print("\nClassification from a black-box g:")
fitted = classify(lambda x: x ** 2 + x ** -2, samples=300, seed=1)
print(f"    oracle x^2 + x^-2      -> alpha = {fitted.alpha:.12f}")
fitted = classify(lambda x: 2 * math.cos(0.7 * math.log(x)), samples=300, seed=1)
print(f"    oracle 2 cos(0.7 ln x) -> t = {fitted.alpha:.12f} (imaginary)")
