"""Acceptance suite: the ten package-level criteria, one test per criterion.

Every check is exact (polynomial identity or exact rational equality) except
the functional-equation residuals, which are verified against an absolute
1e-9 tolerance.  Each test prints one pass line; run with ``pytest -v``
(or ``-s``) to see per-criterion results.
"""

import math
import random

from spiraldet.closed_forms import antidiagonal_entry_formulas, theorem, verify_reduction
from spiraldet.determinant_engine import (
    det_cofactor,
    numeric_matrix,
    verify_identity,
    wedge_eliminate_even,
    wedge_eliminate_odd,
)
from spiraldet.exponent_algebra import (
    LaurentPoly,
    angle,
    bracket,
    evaluate,
    exponents,
)
from spiraldet.funceq import (
    RELATIONS,
    FamilyKind,
    FamilySpec,
    check_relations,
    classify,
)
from spiraldet.sequences import SequenceId, verify_sequence
from spiraldet.spiral_builder import (
    build_bracket_xx,
    build_generalized_bracket,
    step_counts,
    theorem_matrix,
)


def _announce(number, text):
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_theorem1_identity():
    for n in range(1, 7):
        assert det_cofactor(theorem_matrix(1, n)) == theorem(1, n).expand(), \
            f"additive mismatch at n={n}"
    _announce(1, "additive determinants equal the closed form for n = 1..6, exactly")


def test_criterion_02_theorem2_identity():
    for n in range(1, 7):
        assert det_cofactor(theorem_matrix(2, n)) == theorem(2, n).expand(), \
            f"q-power mismatch at n={n}"
    _announce(2, "q-power determinants equal the closed form for n = 1..6, exactly")


def test_criterion_03_theorem3_identity():
    for n in range(1, 7):
        formula = theorem(3, n).expand()
        assert det_cofactor(theorem_matrix(3, n)) == formula, f"bracket mismatch at n={n}"
        assert all(type(d) is int for vec in formula.terms for d in vec), n
    _announce(3, "bracket determinants equal the closed form for n = 1..6, "
                 "with integer exponents only")


def test_criterion_04_randomized_large_sizes():
    for n in (7, 8, 9):
        for k in (1, 2, 3):
            matrix = theorem_matrix(k, n)
            report = verify_identity(
                lambda pt, m=matrix: numeric_matrix(m, pt),
                theorem(k, n), trials=20, seed=20_000 + 10 * n + k)
            assert report.failures == 0, (n, k, report.witnesses[:1])
    _announce(4, "all three families match their formulas at 20 random points "
                 "for n = 7, 8, 9, exact rationals")


def test_criterion_05_wedge_elimination_soundness():
    cases = {4: wedge_eliminate_even, 5: wedge_eliminate_odd, 6: wedge_eliminate_even}
    for n, eliminate in cases.items():
        z = build_bracket_xx(n)
        _, fac = eliminate(z)  # raises if any wedge cell is nonzero
        assert fac.product() == det_cofactor(z), f"factorization mismatch at n={n}"
    _, fac4 = wedge_eliminate_even(build_bracket_xx(4))
    assert fac4.corner_factor == bracket(exponents(a=2, b=5, c=4, x=12)) * bracket(
        exponents(x=1))
    assert fac4.antidiagonal_factors == antidiagonal_entry_formulas(2, 1)
    f1, f2 = antidiagonal_entry_formulas(3, 1)
    g1, g2 = antidiagonal_entry_formulas(3, 2)
    _, fac6 = wedge_eliminate_even(build_bracket_xx(6))
    assert fac6.antidiagonal_factors == (g1, f1, f2, g2)
    _announce(5, "wedges vanish on sizes 4, 5, 6 and the signed corner/antidiagonal "
                 "factorization reproduces the determinant and its closed-form entries")


def test_criterion_06_reduction_recurrences():
    for parity in ("odd", "even"):
        for n in (1, 2):
            report = verify_reduction(2 * n + (parity == "odd"), trials=50,
                                      seed=60_000 + n)
            assert report.failures == 0, (parity, n, report.witnesses[:1])
    _announce(6, "both size-reduction recurrences hold at 50 random rational "
                 "points for n = 1, 2")


def test_criterion_07_generalized_increments():
    rng = random.Random(765432)
    checked = 0
    for n in (4, 5):
        eliminate = wedge_eliminate_even if n % 2 == 0 else wedge_eliminate_odd
        counts = step_counts(n)
        for _ in range(5):
            ups = tuple(tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(counts["up"]))
            downs = tuple(tuple(rng.randint(-2, 2) for _ in range(5))
                          for _ in range(counts["down"]))
            z = build_generalized_bracket(n, ups, downs)
            _, fac = eliminate(z)
            assert fac.product() == det_cofactor(z)
            checked += 1
    assert checked == 10
    _announce(7, "10 random generalized-increment spirals of sizes 4 and 5 "
                 "factor exactly through wedge elimination")


def test_criterion_08_sequence_specializations():
    for sid in (SequenceId.INWARD, SequenceId.OUTWARD):
        report = verify_sequence(sid, 10)
        assert report.failures == 0, (sid, report.witnesses[:1])
    _announce(8, "inward (a = n^2, rest -1) and outward (all ones) sequences "
                 "match brute-force determinants for n = 1..10")


def test_criterion_09_functional_equations():
    specs = {
        "alpha=0": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=0.0),
        "alpha=1": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=1.0),
        "alpha=2.5": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=2.5),
        "imaginary t=1.3": FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=1.3, imaginary=True),
        "log-affine": FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0),
        "zero": FamilySpec(FamilyKind.ZERO),
    }
    for name, spec in specs.items():
        for report in check_relations(spec, RELATIONS, samples=1000, seed=90_001):
            assert report.max_residual < 1e-9, (name, report.relation, report.max_residual)
    for alpha in (0.0, 1.0, 2.5):
        fitted = classify(lambda x, a=alpha: math.pow(x, a) + math.pow(x, -a),
                          samples=300, seed=90_002)
        assert abs(fitted.alpha - alpha) < 1e-9 and not fitted.imaginary
    fitted = classify(lambda x: 2.0 * math.cos(1.3 * math.log(x)), samples=300, seed=90_002)
    assert fitted.imaginary and abs(fitted.alpha - 1.3) < 1e-9
    _announce(9, "all six families satisfy relations 6.1 and 6.14-6.17 below 1e-9 "
                 "over 1000 samples; classification recovers alpha and t below 1e-9")


def _random_poly(rng, max_terms=8, max_exp=3, max_coeff=100):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        vec = tuple(rng.randint(-max_exp, max_exp) for _ in range(5))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[vec] = terms.get(vec, 0) + coeff
    return LaurentPoly(terms)


def _random_monomial(rng):
    return tuple(rng.randint(-3, 3) for _ in range(5))


def _random_point(rng):
    def coord():
        v = rng.randint(-20, 19)
        return v if v < 0 else v + 1
    return tuple(coord() for _ in range(5))


def test_criterion_10_algebra_property_suite():
    rng = random.Random(101010)
    for _ in range(500):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
    for _ in range(500):
        a_vec, x_vec = _random_monomial(rng), _random_monomial(rng)
        plus = tuple(p + q for p, q in zip(a_vec, x_vec))
        minus = tuple(p - q for p, q in zip(a_vec, x_vec))
        # bracket(a)*angle(x) splits; bracket(a)*bracket(x) splits into angles
        assert bracket(a_vec) * angle(x_vec) == bracket(plus) + bracket(minus)
        assert bracket(a_vec) * bracket(x_vec) == angle(plus) - angle(minus)
        # the three-term recurrence that drives the wedge elimination
        ax2 = tuple(p + 2 * q for p, q in zip(a_vec, x_vec))
        assert bracket(ax2) - angle(x_vec) * bracket(plus) + bracket(a_vec) \
            == LaurentPoly.zero()
    for _ in range(500):
        p, q = _random_poly(rng), _random_poly(rng)
        pt = _random_point(rng)
        assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
        assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
    _announce(10, "ring axioms, the bracket/angle identities, and the evaluation "
                  "homomorphism hold on 500 random cases each")
