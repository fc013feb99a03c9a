"""Tests for the closed-form determinants and the reduction procedures."""

import json
from fractions import Fraction

import pytest

from spiraldet import closed_forms, determinant_engine
from spiraldet.cli import main
from spiraldet.closed_forms import (
    antidiagonal_entry_formulas,
    qreduction_check,
    reduction,
    thm1_even,
    thm1_odd,
    thm2_even,
    thm2_odd,
    thm3_even,
    thm3_odd,
    theorem,
    verify_reduction,
)
from spiraldet.determinant_engine import det_bareiss_rational, det_cofactor, sample_point
from spiraldet.exponent_algebra import (
    Factored,
    LaurentPoly,
    angle,
    bracket,
    evaluate,
    exponents,
)
from spiraldet.spiral_builder import (
    build_additive,
    build_bracket_xx,
    build_qpower,
    centre_cell,
    numeric_theorem_matrix,
    theorem_matrix,
)

A, B, C, X, Y = (LaurentPoly.variable(v) for v in "abcxy")


def additive_polys(n):
    return [[form.to_poly() for form in row] for row in build_additive(n)]


class TestTheorem1:
    def test_even_boundary(self):
        assert thm1_even(0) == LaurentPoly.one()

    def test_odd_boundary(self):
        assert thm1_odd(0) == A

    def test_even_1_expansion(self):
        assert thm1_even(1) == A * X + B * X + X * X + A * Y + X * Y

    def test_even_1_against_oracle(self):
        assert thm1_even(1) == det_cofactor(additive_polys(2))

    def test_odd_1_against_oracle(self):
        assert thm1_odd(1) == det_cofactor(additive_polys(3))

    def test_even_1_at_inward_point(self):
        # the 2x2 inward spiral [[1, 2], [4, 3]] has determinant 3 - 8 = -5
        assert evaluate(thm1_even(1), (4, -1, -1, -1, -1)) == -5

    def test_odd_1_at_all_ones(self):
        value = det_bareiss_rational(numeric_theorem_matrix(1, 3, (1, 1, 1, 1, 1)))
        assert evaluate(thm1_odd(1), (1, 1, 1, 1, 1)) == value

    @pytest.mark.parametrize("n", range(1, 6))
    def test_formula_equals_oracle(self, n):
        formula = thm1_even(n // 2) if n % 2 == 0 else thm1_odd(n // 2)
        assert formula == det_cofactor(additive_polys(n))


class TestTheorem2:
    def test_odd_boundary(self):
        assert thm2_odd(0) == A

    def test_even_boundary(self):
        assert thm2_even(0) == LaurentPoly.one()

    def test_even_1_two_terms(self):
        expected = (LaurentPoly.monomial(exponents(a=2, b=1, x=2, y=1))
                    - LaurentPoly.monomial(exponents(a=2, b=1, x=1)))
        assert thm2_even(1) == expected
        assert thm2_even(1) == det_cofactor(build_qpower(2))

    def test_even_2_matches_integer_spiral_at_q2(self):
        # det of the 4x4 matrix of powers q^1..q^16 at q = 2, computed
        # independently from the displayed exponent layout
        assert evaluate(thm2_even(2), (2, 2, 2, 2, 2)) == -3243824381952

    @pytest.mark.parametrize("n", range(1, 6))
    def test_formula_equals_oracle(self, n):
        formula = thm2_even(n // 2) if n % 2 == 0 else thm2_odd(n // 2)
        assert formula == det_cofactor(build_qpower(n))

    def test_cubic_exponent_coefficients_are_integers(self):
        # construction asserts divisibility by 3; just exercise a range
        for n in range(0, 30):
            thm2_even(n % 8)
            thm2_odd(n % 8)


class TestTheorem3:
    def test_odd_boundary(self):
        assert thm3_odd(0) == bracket(exponents(a=1))

    def test_even_boundary(self):
        assert thm3_even(0) == LaurentPoly.one()

    def test_even_1_is_corner_product(self):
        # the 2x2 case is the corner factor alone: [a^2 b x^2][x]
        expected = bracket(exponents(a=2, b=1, x=2)) * bracket(exponents(x=1))
        assert thm3_even(1) == expected
        assert thm3_even(1) == det_cofactor(build_bracket_xx(2))

    def test_odd_1_against_oracle(self):
        assert thm3_odd(1) == det_cofactor(build_bracket_xx(3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_formula_equals_oracle(self, n):
        formula = thm3_even(n // 2) if n % 2 == 0 else thm3_odd(n // 2)
        assert formula == det_cofactor(build_bracket_xx(n))

    @pytest.mark.parametrize("n", range(0, 5))
    def test_integer_exponent_closure(self, n):
        for formula in (thm3_even(n), thm3_odd(n)):
            assert all(type(d) is int for vec in formula.terms for d in vec)


EXPANDED = {1: (thm1_even, thm1_odd), 2: (thm2_even, thm2_odd), 3: (thm3_even, thm3_odd)}
RATIONAL_POINT = (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(7, 4), Fraction(-1, 3))


class TestFactoredTheorems:
    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("size", range(0, 13))
    def test_factored_value_equals_expanded_value(self, k, size):
        even, odd = EXPANDED[k]
        expanded = (odd if size % 2 else even)(size // 2)
        factored = theorem(k, size)
        for point in (sample_point(60, 0), sample_point(60, 1), RATIONAL_POINT):
            assert factored.evaluate(point) == evaluate(expanded, point)

    @pytest.mark.parametrize("size", range(0, 8))
    def test_bracket_factors_have_integer_exponents(self, size):
        for factor in theorem(3, size).factors:
            assert all(type(d) is int for vec in factor.terms for d in vec)
            assert len(factor.terms) <= 4

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            theorem(4, 2)
        # a bool or float is not a theorem number, though True == 1 and 2.0 == 2
        for k in (True, 2.0):
            with pytest.raises(ValueError, match="theorem must be 1, 2 or 3"):
                theorem(k, 3)
        with pytest.raises(ValueError):
            theorem(1, -1)
        with pytest.raises(ValueError):
            thm3_even(-1)


#: The per-index factor builders that ``theorem`` shares across sizes.
FACTOR_BUILDERS = ("_linear", "_tail", "_run_bracket", "_angle_first", "_paired")


class TestFactorCache:
    """Each per-index factor is built once and shared by every size that holds it."""

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_equals_a_fresh_uncached_build(self, k, monkeypatch):
        cached = [theorem(k, n) for n in range(1, 41)]
        with monkeypatch.context() as patch:
            for name in FACTOR_BUILDERS:
                patch.setattr(closed_forms, name, getattr(closed_forms, name).__wrapped__)
            fresh = [theorem(k, n) for n in range(1, 41)]
        for n, (ours, theirs) in enumerate(zip(cached, fresh), start=1):
            assert ours.sign == theirs.sign and len(ours.factors) == len(theirs.factors)
            if n <= 8:
                assert ours.expand() == theirs.expand(), n
            else:
                for point in (sample_point(32, 0), sample_point(32, 1), RATIONAL_POINT):
                    assert ours.evaluate(point) == theirs.evaluate(point), (n, point)
        # sizes 20 and 40 share every per-index factor as one object; only
        # the first factor (quadratic, prefactor or head) is the size's own
        first, last = cached[19].factors, cached[39].factors
        assert [any(f is g for g in last) for f in first] == [False] + [True] * (len(first) - 1)

    def test_verify_leaves_every_cached_factor_unchanged(self, capsys):
        built = [(name, i, getattr(closed_forms, name)(i))
                 for name in FACTOR_BUILDERS for i in range(41)]
        snapshot = [dict(factor.terms) for _, _, factor in built]
        for k in (1, 2, 3):
            assert main(["verify", "--theorem", str(k), "--n-max", "12", "--trials", "2"]) == 0
        capsys.readouterr()
        for (name, i, factor), terms in zip(built, snapshot):
            assert getattr(closed_forms, name)(i) is factor, (name, i)
            assert factor.terms == terms, (name, i)


# -- the closed forms as the paper states them, once per parity --------------
# A reference copy of the per-parity builders; ``theorem(k, size)`` must
# return the same sign and the same factors, in the same order, as these.


def _ref_sign(e):
    return -1 if e % 2 else 1


def _ref_exact_third(value):
    q, r = divmod(value, 3)
    if r:
        raise ArithmeticError(f"{value} is not divisible by 3")
    return q


def _ref_linear_factors(count):
    return [i * (B + C) + (i + 1) * (X + Y) for i in range(1, count + 1)]


def _ref_thm1_even(n):
    if n == 0:
        return Factored(1, ())
    quad = (A * X + n * n * B * X + n * (n - 1) * C * X + n * n * X * X
            + A * Y + (n - 1) * (n - 1) * B * Y + n * (n - 1) * C * Y
            + n * (n - 1) * Y * Y + n * (2 * n - 1) * X * Y)
    return Factored(_ref_sign(n + 1), [quad, *_ref_linear_factors(2 * n - 2)])


def _ref_thm1_odd(n):
    if n == 0:
        return Factored(1, (A,))
    quad = (A * X + n * n * B * X + n * (n - 1) * C * X + n * n * X * X
            + A * Y + n * n * B * Y + n * (n + 1) * C * Y
            + n * (n + 1) * Y * Y + n * (2 * n + 1) * X * Y)
    return Factored(_ref_sign(n), [quad, *_ref_linear_factors(2 * n - 1)])


def _ref_qpower_tail(count):
    return [1 - LaurentPoly.monomial(exponents(b=i, c=i, x=i + 1, y=i + 1))
            for i in range(count)]


def _ref_thm2_even(n):
    bx = _ref_exact_third(n * (2 * n * n + 1))
    cy = _ref_exact_third(2 * (n - 1) * n * (n + 1))
    prefactor = LaurentPoly.monomial(exponents(a=2 * n, b=bx, c=cy, x=bx, y=cy))
    return Factored(_ref_sign(n), [prefactor, *_ref_qpower_tail(2 * n - 1)])


def _ref_thm2_odd(n):
    e = _ref_exact_third(n * (n + 1) * (2 * n + 1))
    prefactor = LaurentPoly.monomial(exponents(a=2 * n + 1, b=e, c=e, x=e, y=e))
    return Factored(_ref_sign(n), [prefactor, *_ref_qpower_tail(2 * n)])


# Theorem 3 as published has half-integer exponents, so its factors are
# written in the squares of the variables: every exponent doubled.


def at_squares(p):
    """p with every variable replaced by its square: all exponents doubled."""
    return LaurentPoly({tuple(2 * d for d in vec): c for vec, c in p.terms.items()})


def _squared(**published):
    """The exponent vector of a published monomial with every variable squared."""
    doubled = {name: 2 * Fraction(e) for name, e in published.items()}
    assert all(d.denominator == 1 for d in doubled.values()), published
    return exponents(**{name: int(d) for name, d in doubled.items()})


def _ref_run_bracket(k):
    return bracket(_squared(b=Fraction(k, 2), c=Fraction(k, 2), x=k + 1))


def _ref_angle_first(k):
    return angle(_squared(a=1, b=k * (k + 1), c=k * k, x=k * (2 * k + 1)))


def _ref_angle_second(k):
    return angle(_squared(a=1, b=Fraction(2 * k * k - 2 * k + 1, 2),
                          c=Fraction(2 * k * k - 1, 2), x=k * (2 * k - 1)))


def _ref_bracket_factors(run, firsts, seconds):
    factors = [_ref_run_bracket(k) for k in range(0, run, 2)]
    factors += [_ref_angle_first(k) for k in range(1, firsts + 1)]
    factors += [_ref_run_bracket(2 * k - 1) * _ref_angle_second(k)
                for k in range(1, seconds + 1)]
    return factors


def _ref_thm3_even(n):
    if n == 0:
        return Factored(1, ())
    head = bracket(_squared(a=2, b=2 * n * n - 2 * n + 1, c=2 * n * n - 2 * n,
                            x=2 * n * (2 * n - 1)))
    return Factored(_ref_sign(n + 1), [head, *_ref_bracket_factors(2 * n - 1, n - 1, n - 1)])


def _ref_thm3_odd(n):
    if n == 0:
        return Factored(1, (bracket(_squared(a=1)),))
    head = bracket(_squared(a=2, b=2 * n * n, c=2 * n * n, x=2 * n * (2 * n + 1)))
    return Factored(_ref_sign(n), [head, *_ref_bracket_factors(2 * n, n - 1, n)])


PER_PARITY = {1: (_ref_thm1_even, _ref_thm1_odd), 2: (_ref_thm2_even, _ref_thm2_odd),
              3: (_ref_thm3_even, _ref_thm3_odd)}


class TestPerParityStatements:
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_theorem_equals_per_parity_factors(self, k):
        even, odd = PER_PARITY[k]
        for size in range(0, 81):
            expected = (odd if size % 2 else even)(size // 2)
            got = theorem(k, size)
            squared = [at_squares(f) if k == 3 else f for f in got.factors]
            assert got.sign == expected.sign, size
            assert [f.terms for f in squared] == [f.terms for f in expected.factors], size

    def test_antidiagonal_entries_equal_published_products(self):
        # S_k is built with integer exponents; the published bracket times
        # angle, with half-integer exponents, is the same polynomial, which
        # both show in the squares of the variables
        for n in range(2, 22):
            for k in range(1, n):
                first, second = antidiagonal_entry_formulas(n, k)
                assert at_squares(first) == _ref_run_bracket(2 * k) * _ref_angle_first(k), (n, k)
                assert at_squares(second) == (_ref_run_bracket(2 * k - 1)
                                              * _ref_angle_second(k)), (n, k)


# The reduction steps as the paper states them, one per parity: the odd step
# (2n+1 -> 2n) with its labelled border entry E1 and the even step (2n -> 2n-1).
def _ref_reduce_odd(n):
    e1 = A + n * n * B + n * n * C + n * n * X + n * (n + 1) * Y
    d1 = (2 * n - 1) * B + 2 * n * C + 2 * n * X + 2 * n * Y
    b1 = 2 * n * (B + C + X + Y)
    c1 = -(2 * n - 1) * (B + C) - 2 * n * (X + Y)
    return {"centre_numerator": A * C - d1 * e1, "pivot": C, "up_increment": b1,
            "down_increment": c1, "scalar_factor": C, "row_difference": d1, "border": e1}


def _ref_reduce_even(n):
    d2 = (2 * n - 1) * B + (2 * n - 2) * C + (2 * n - 1) * X + (2 * n - 1) * Y
    companion = A + n * (n - 1) * B + n * (n - 1) * C + n * n * X + n * (n - 1) * Y
    b2 = -(2 * n - 2) * (B + C) - (2 * n - 1) * (X + Y)
    c2 = (2 * n - 1) * (B + C + X + Y)
    return {"centre_numerator": A * B - d2 * companion, "pivot": B, "up_increment": b2,
            "down_increment": c2, "scalar_factor": -B, "row_difference": d2,
            "border": companion}


class TestReductions:
    def test_odd_1_data(self):
        data = reduction(3)
        assert data.row_difference == B + 2 * C + 2 * X + 2 * Y
        assert data.up_increment == 2 * (B + C + X + Y)
        assert data.down_increment == -(B + C) - 2 * (X + Y)
        assert data.scalar_factor == C
        assert data.pivot == C

    def test_even_1_data(self):
        data = reduction(2)
        assert data.up_increment == -(X + Y)
        assert data.down_increment == B + C + X + Y
        assert data.row_difference == B + X + Y
        assert data.scalar_factor == -B

    def test_even_1_centre_is_polynomial_after_clearing(self):
        # -b * A_2 = D_2*E - a*b equals the closed form of the 2x2 determinant
        data = reduction(2)
        assert -1 * data.centre_numerator == thm1_even(1)

    def test_step_equals_per_parity_reference(self):
        for size in range(2, 42):
            ref = (_ref_reduce_odd if size % 2 else _ref_reduce_even)(size // 2)
            data = reduction(size)
            assert data.size == size
            for name, expected in ref.items():
                assert getattr(data, name) == expected, (size, name)

    def test_step_matches_matrix(self):
        # the matrix half: the last side's row operation leaves the stated
        # row difference, pivot and border at every size
        for size in range(2, 42):
            data = reduction(size)
            matrix = theorem_matrix(1, size)
            row, next_row, pivot_col = closed_forms._last_side(size)
            for j in range(size):
                expected = data.pivot if j == pivot_col else data.row_difference
                assert matrix[row][j] - matrix[next_row][j] == expected, (size, j)
            assert data.border == matrix[centre_cell(size)[0]][pivot_col], size
            assert data.up_increment + data.down_increment == B + C, size

    def test_small_size_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 2"):
            reduction(1)

    def test_odd_recurrence_20_points(self):
        assert verify_reduction(3, 20, seed=2718).failures == 0

    def test_even_recurrence_20_points(self):
        assert verify_reduction(2, 20, seed=2718).failures == 0

    @pytest.mark.parametrize("parity", ("odd", "even"))
    def test_recurrence_through_n_20(self, parity):
        for n in range(1, 21):
            assert verify_reduction(2 * n + (parity == "odd"), 10, seed=n).failures == 0, n

    def test_scalar_factors(self):
        for n in (1, 2, 3):
            assert reduction(2 * n + 1).scalar_factor == C
            assert reduction(2 * n).scalar_factor == -B

    def test_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 2"):
            verify_reduction(1, 1, 0)

    @pytest.mark.parametrize("trials", (0, -3))
    def test_trials_below_one_rejected(self, trials):
        # a report of zero checks must not read as a pass
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_reduction(3, trials, seed=0)

    def test_point_with_zero_derived_parameter_is_checked(self, monkeypatch):
        # b + c + x + y = 0 zeroes the odd step's up increment at every point;
        # theorem 1 has no negative power, so the smaller matrix is checked there
        point = (1, 1, 1, -1, -1)
        assert evaluate(reduction(3).up_increment, point) == 0
        monkeypatch.setattr(determinant_engine, "sample_point", lambda seed, index: point)
        report = verify_reduction(3, 3, seed=0)
        assert (report.trials, report.failures) == (3, 0)

    def test_one_sampler_serves_every_randomized_check(self, monkeypatch, capsys):
        # patching the engine's sampler alone moves verify_identity,
        # verify_reduction and verify past the size guard
        point = (1, 1, 1, -1, -1)
        calls = []

        def sampler(seed, index):
            calls.append((seed, index))
            return point

        monkeypatch.setattr(determinant_engine, "sample_point", sampler)
        p = thm1_odd(1)
        report = determinant_engine.verify_identity(lambda pt: [[evaluate(p, pt)]], p + 1, 2, 5)
        assert [w.point for w in report.witnesses] == [point, point]
        assert calls == [(5, 0), (5, 1)]
        calls.clear()
        assert verify_reduction(3, 2, seed=5).failures == 0
        assert calls == [(5, 0), (5, 1)]
        calls.clear()
        assert main(["verify", "--theorem", "1", "--n-max", "9", "--trials", "2",
                     "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["failures"] == 0
        assert calls == [(5, 0), (5, 1)]


class TestQReduction:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_single_row_operation_clears_boundary(self, n):
        assert qreduction_check(n).failures == 0

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            qreduction_check(1)
