"""Tests for the exact Laurent-polynomial core."""

import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from spiraldet.exponent_algebra import (
    Factored,
    HalfExponentError,
    LaurentPoly,
    ZeroCoordinateError,
    angle,
    bracket,
    evaluate,
    exponents,
    from_records,
    from_string,
    to_latex,
    to_records,
    to_string,
)


def random_poly(rng, max_terms=8, max_doubled=6, max_coeff=100):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        vec = tuple(rng.randint(-max_doubled, max_doubled) for _ in range(5))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[vec] = terms.get(vec, 0) + coeff
    return LaurentPoly(terms)


def random_integer_poly(rng, max_terms=8, max_exp=3, max_coeff=100):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        vec = tuple(2 * rng.randint(-max_exp, max_exp) for _ in range(5))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[vec] = terms.get(vec, 0) + coeff
    return LaurentPoly(terms)


def random_monomial(rng, max_doubled=6):
    return tuple(rng.randint(-max_doubled, max_doubled) for _ in range(5))


def random_point(rng):
    def coord():
        v = rng.randint(-20, 19)
        return v if v < 0 else v + 1
    return tuple(coord() for _ in range(5))


A = LaurentPoly.variable("a")
X = LaurentPoly.variable("x")


class TestAdd:
    def test_additive_inverse(self):
        assert A + (-A) == LaurentPoly.zero()
        assert not (A + (-A)).terms

    def test_like_term_merge(self):
        ax = LaurentPoly.monomial(exponents(a=1, x=1))
        assert ax + ax == LaurentPoly.monomial(exponents(a=1, x=1), 2)

    def test_bracket_of_inverse_cancels(self):
        # [a] + [1/a]: expanding both brackets cancels termwise
        assert bracket(exponents(a=1)) + bracket(exponents(a=-1)) == LaurentPoly.zero()


class TestMul:
    def test_inverse_monomials(self):
        assert X * LaurentPoly.monomial(exponents(x=-1)) == LaurentPoly.one()

    def test_bracket_product_expansion(self):
        # [a][x] = ax + 1/(ax) - a/x - x/a
        expected = (LaurentPoly.monomial(exponents(a=1, x=1))
                    + LaurentPoly.monomial(exponents(a=-1, x=-1))
                    - LaurentPoly.monomial(exponents(a=1, x=-1))
                    - LaurentPoly.monomial(exponents(a=-1, x=1)))
        assert bracket(exponents(a=1)) * bracket(exponents(x=1)) == expected
        # equivalently <ax> - <a/x>
        assert expected == angle(exponents(a=1, x=1)) - angle(exponents(a=1, x=-1))

    def test_half_exponents_sum_to_integers(self):
        half = LaurentPoly.monomial(exponents(b=Fraction(1, 2), c=Fraction(1, 2), x=2))
        assert half * half == LaurentPoly.monomial(exponents(b=1, c=1, x=4))


class TestBracketAngle:
    def test_bracket_of_one_is_zero(self):
        assert bracket(exponents()) == LaurentPoly.zero()

    def test_bracket_matrix_entry(self):
        expected = (LaurentPoly.monomial(exponents(a=1, b=1, x=1, y=1))
                    - LaurentPoly.monomial(exponents(a=-1, b=-1, x=-1, y=-1)))
        assert bracket(exponents(a=1, b=1, x=1, y=1)) == expected

    def test_bracket_x(self):
        assert bracket(exponents(x=1)) == X - LaurentPoly.monomial(exponents(x=-1))

    def test_angle_of_one_is_two(self):
        assert angle(exponents()) == LaurentPoly.constant(2)

    def test_angle_x(self):
        assert angle(exponents(x=1)) == X + LaurentPoly.monomial(exponents(x=-1))

    def test_key_identity_single(self):
        # <x>[Ax] - [Ax^2] - [A] = 0 for the monomial A = a*b^2
        a_vec = exponents(a=1, b=2)
        lhs = (angle(exponents(x=1)) * bracket(exponents(a=1, b=2, x=1))
               - bracket(exponents(a=1, b=2, x=2)) - bracket(a_vec))
        assert lhs == LaurentPoly.zero()


class TestEvaluate:
    def test_bracket_x_at_two(self):
        assert evaluate(bracket(exponents(x=1)), (1, 1, 1, 2, 1)) == Fraction(3, 2)

    def test_key_identity_instance(self):
        # [A x^2] - <x>[Ax] + [A] at A = a = 2, x = 2:
        # (8 - 1/8) - (5/2)(4 - 1/4) + (2 - 1/2) = 0
        p = (bracket(exponents(a=1, x=2))
             - angle(exponents(x=1)) * bracket(exponents(a=1, x=1))
             + bracket(exponents(a=1)))
        assert evaluate(p, (2, 1, 1, 2, 1)) == 0

    def test_zero_poly(self):
        assert evaluate(LaurentPoly.zero(), (3, -2, 5, 7, 1)) == 0

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroCoordinateError):
            evaluate(X, (1, 1, 1, 0, 1))

    def test_non_integral_point_matches_termwise_fractions(self):
        rng = random.Random(13)
        for _ in range(300):
            p = random_poly(rng)
            point = tuple(Fraction(v, rng.randint(1, 9)) for v in random_point(rng))
            if p.has_half_exponents():
                with pytest.raises(HalfExponentError):
                    evaluate(p, point)
                p = at_squares(p)
            expected = Fraction(0)
            for vec, coeff in p.terms.items():
                term = Fraction(coeff)
                for i, d in enumerate(vec):
                    term *= point[i] ** (d // 2)
                expected += term
            value = evaluate(p, point)
            assert type(value) is Fraction and value == expected

    def test_half_exponent_refused(self):
        # a coordinate is its variable's value, and (bc)^(1/2) has none at
        # b = 3, c = 2
        p = bracket(exponents(b=Fraction(1, 2), c=Fraction(1, 2), x=2))
        with pytest.raises(HalfExponentError):
            evaluate(p, (1, 3, 2, 5, 1))
        # the square, with integer exponents, is read directly
        assert evaluate(p * p, (1, 9, 4, 5, 1)) == (Fraction(150) - Fraction(1, 150)) ** 2

    def test_bad_point_raises_before_half_exponent(self):
        p = bracket(exponents(b=Fraction(1, 2)))
        with pytest.raises(ZeroCoordinateError):
            evaluate(p, (1, 0, 1, 1, 1))


def at_squares(p):
    """p with every variable replaced by its square: all exponents doubled."""
    return LaurentPoly({tuple(2 * d for d in vec): c for vec, c in p.terms.items()})


def termwise_value(p, point):
    """Reference value: every term computed on its own with Fraction powers."""
    total = Fraction(0)
    for vec, coeff in p.terms.items():
        term = Fraction(coeff)
        for i, d in enumerate(vec):
            term *= Fraction(point[i]) ** (d // 2)
        total += term
    return total


class TestEvaluateMinimumExponents:
    """The per-variable minimum exponents go back on one numerator and denominator."""

    INTEGER_POINTS = ((3, -2, 5, 7, -1), (-4, 9, -6, 2, 11))
    RATIONAL_POINTS = (
        (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(-7, 5), Fraction(4, 9)),
        (Fraction(-2, 3), 5, Fraction(1, 8), Fraction(11, 4), -3),
    )

    # exponent vectors with a positive minimum in a, a negative one in b and
    # y, and a zero one in c; x ranges over both signs
    MONOMIALS = (exponents(a=3, b=-2, x=5, y=-1), exponents(a=1, b=-7, c=0, x=-4, y=-3))
    POLYS = (
        LaurentPoly({exponents(a=2, b=-1, x=3): 5, exponents(a=4, b=-3, x=-2, y=-1): -7,
                     exponents(a=3, b=-1, c=1, y=-2): 11}),
        LaurentPoly({exponents(a=-3, b=2, c=-1): 1, exponents(a=-1, b=5, c=-4, x=1): -2,
                     exponents(a=-2, b=3, c=-1, x=-6, y=2): 3}),
    )
    HALF_POLYS = (
        LaurentPoly.monomial(exponents(a=2, b=Fraction(-3, 2), c=Fraction(5, 2), x=-1), 4),
        LaurentPoly({exponents(a=1, b=Fraction(-1, 2), x=2): 3,
                     exponents(a=3, b=Fraction(-5, 2), x=-1, y=-2): -1,
                     exponents(a=2, b=Fraction(3, 2), c=Fraction(1, 2), y=-1): 2}),
    )

    @staticmethod
    def assert_normalized_equal(p, point):
        if p.has_half_exponents():
            with pytest.raises(HalfExponentError):
                evaluate(p, point)
            p = at_squares(p)
        value = evaluate(p, point)
        assert type(value) is Fraction
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
        assert value == termwise_value(p, point), (p, point)

    @pytest.mark.parametrize("vec", MONOMIALS)
    def test_monomials(self, vec):
        for coeff in (1, -6):
            p = LaurentPoly.monomial(vec, coeff)
            for point in self.INTEGER_POINTS + self.RATIONAL_POINTS:
                self.assert_normalized_equal(p, point)

    @pytest.mark.parametrize("index", range(len(POLYS)))
    def test_multi_term_polys(self, index):
        for point in self.INTEGER_POINTS + self.RATIONAL_POINTS:
            self.assert_normalized_equal(self.POLYS[index], point)

    @pytest.mark.parametrize("index", range(len(HALF_POLYS)))
    def test_half_exponent_variables(self, index):
        p = self.HALF_POLYS[index]
        assert p.has_half_exponents()
        for point in self.INTEGER_POINTS + self.RATIONAL_POINTS:
            self.assert_normalized_equal(p, point)

    def test_random_shifted_polys(self):
        rng = random.Random(271)
        for _ in range(200):
            shift = tuple(rng.randint(-8, 8) for _ in range(5))
            p = random_poly(rng) * LaurentPoly.monomial(shift)
            point = random_point(rng)
            if rng.random() < 0.5:
                point = tuple(Fraction(v, rng.choice((-3, -1, 2, 5))) for v in point)
            self.assert_normalized_equal(p, point)


class TestFactored:
    def test_expand_is_the_signed_product(self):
        rng = random.Random(11)
        for _ in range(100):
            sign = rng.choice((1, -1))
            factors = [random_integer_poly(rng, max_terms=4) for _ in range(rng.randint(0, 6))]
            expected = LaurentPoly.constant(sign)
            for factor in factors:
                expected = expected * factor
            assert Factored(sign, factors).expand() == expected

    def test_evaluate_equals_evaluate_of_expansion(self):
        rng = random.Random(12)
        for _ in range(50):
            factored = Factored(rng.choice((1, -1)),
                                [random_integer_poly(rng, max_terms=4) for _ in range(3)])
            point = random_point(rng)
            rational = tuple(Fraction(v, rng.randint(1, 7)) for v in point)
            for pt in (point, rational):
                assert factored.evaluate(pt) == evaluate(factored.expand(), pt)

    def test_empty_product(self):
        assert Factored(1, ()).expand() == LaurentPoly.one()
        assert Factored(-1, ()).evaluate((1, 2, 3, 4, 5)) == -1

    def test_half_exponent_factor_refused(self):
        factored = Factored(1, [X, bracket(exponents(b=Fraction(1, 2)))])
        with pytest.raises(HalfExponentError):
            factored.evaluate((1, 3, 1, 2, 1))

    def test_half_exponent_factors_expand_to_their_product(self):
        # [b^(1/2)] has no value at b = 3, but its square b - 2 + 1/b does;
        # Factored.evaluate refuses the factor, so it cannot differ from the
        # expansion's value
        p = bracket(exponents(b=Fraction(1, 2)))
        factored = Factored(-1, [p, X, p])
        assert factored.expand() == -(p * X * p)
        point = (1, 3, 1, 2, 1)
        assert evaluate(factored.expand(), point) == -Fraction(8, 3)
        with pytest.raises(HalfExponentError):
            factored.evaluate(point)

    def test_sign_must_be_unit(self):
        with pytest.raises(ValueError):
            Factored(2, [X])

    def test_bad_point_raises_like_evaluate(self):
        for factors in ((), (X,)):
            with pytest.raises(ValueError):
                Factored(1, factors).evaluate((1, 2, 3))
            with pytest.raises(ZeroCoordinateError):
                Factored(1, factors).evaluate((1, 1, 1, 0, 1))


# -- reference evaluation: evaluate as it stood before the one integer sum, with
# an integral and a common-denominator path and a cache of powers per variable


def reference_evaluate(p, point):
    coords = [Fraction(v) for v in point]
    if p.has_half_exponents():
        raise HalfExponentError("half-integer exponent")
    if not p.terms:
        return Fraction(0)
    effective = {vec: tuple(d // 2 for d in vec) for vec in p.terms}
    mins = [min(es[i] for es in effective.values()) for i in range(5)]
    if all(v.denominator == 1 for v in coords):
        spans = [0] * 5
    else:
        spans = [max(es[i] for es in effective.values()) - mins[i] for i in range(5)]
    caches = [{} for _ in range(5)]

    def power(i, e):
        value = caches[i].get(e)
        if value is None:
            value = coords[i].numerator ** e
            if spans[i]:
                value *= coords[i].denominator ** (spans[i] - e)
            caches[i][e] = value
        return value

    total = 0
    for vec, coeff in p.terms.items():
        term = coeff
        es = effective[vec]
        for i in range(5):
            e = es[i] - mins[i]
            if e or spans[i]:
                term = term * power(i, e)
        total = total + term
    num = total
    den = prod(v.denominator ** span for v, span in zip(coords, spans))
    for v, m in zip(coords, mins):
        if m > 0:
            num *= v.numerator ** m
            den *= v.denominator ** m
        elif m < 0:
            num *= v.denominator ** -m
            den *= v.numerator ** -m
    return Fraction(num, den)


def wide_poly(rng, max_terms=6):
    """Doubled exponents up to +-120; each column mixed, all negative, all positive or constant."""
    draws = {"mixed": lambda: 2 * rng.randint(-60, 60),
             "negative": lambda: -2 * rng.randint(1, 60),
             "positive": lambda: 2 * rng.randint(1, 60)}
    columns = []
    for _ in range(5):
        shape = rng.choice(("mixed", "negative", "positive", "constant"))
        if shape == "constant":
            value = 2 * rng.randint(-60, 60)
            columns.append(lambda value=value: value)
        else:
            columns.append(draws[shape])
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        vec = tuple(draw() for draw in columns)
        terms[vec] = terms.get(vec, 0) + rng.choice((1, -1)) * rng.randint(1, 10**6)
    return LaurentPoly(terms)


def wide_points(rng):
    """An integral, a rational, a float and a string point, with signs mixed."""
    def nonzero():
        v = rng.randint(-9, 8)
        return v if v < 0 else v + 1
    yield tuple(nonzero() for _ in range(5))
    yield tuple(Fraction(nonzero(), rng.randint(1, 9)) for _ in range(5))
    yield tuple(nonzero() / rng.choice((1, 2, 4, 8, 10)) for _ in range(5))
    yield tuple(f"{nonzero()}/{rng.randint(1, 9)}" for _ in range(5))


class TestOneEvaluationPath:
    """One integer sum over per-variable power tables at every kind of point."""

    def test_equals_the_two_path_reference(self):
        rng = random.Random(1980)
        shapes = set()
        for _ in range(150):
            p = wide_poly(rng)
            for column in zip(*p.terms):
                shapes.add("constant" if len(set(column)) == 1 else
                           "negative" if max(column) < 0 else
                           "positive" if min(column) > 0 else "mixed")
            for point in wide_points(rng):
                value = evaluate(p, point)
                assert type(value) is Fraction
                assert value == reference_evaluate(p, point), (p, point)
        assert shapes == {"constant", "negative", "positive", "mixed"}

    def test_factored_equals_the_reference_product(self):
        rng = random.Random(1979)
        for trial in range(40):
            factors = [wide_poly(rng, max_terms=3) for _ in range(rng.randint(1, 3))]
            if trial % 4 == 0:
                factors.insert(rng.randint(0, len(factors)), LaurentPoly.zero())
            factored = Factored(rng.choice((1, -1)), factors)
            for point in wide_points(rng):
                expected = Fraction(factored.sign)
                for factor in factors:
                    expected *= reference_evaluate(factor, point)
                value = factored.evaluate(point)
                assert type(value) is Fraction
                assert value == expected == evaluate(factored.expand(), point)
                if trial % 4 == 0:
                    assert value == 0

    @pytest.mark.parametrize("var", range(5))
    def test_one_odd_exponent_in_each_variable_is_refused(self, var):
        vec = [0] * 5
        vec[var] = 2 * var + 1  # the one odd doubled exponent
        p = LaurentPoly({exponents(a=1, x=-2): 3, tuple(vec): -1})
        assert p.has_half_exponents()
        for point in ((2, 3, 5, 7, 11), (Fraction(1, 2), -3, Fraction(5, 4), 7, Fraction(-1, 9))):
            with pytest.raises(HalfExponentError):
                evaluate(p, point)
            with pytest.raises(HalfExponentError):
                Factored(1, [X, p]).evaluate(point)


class TestCoefficientTypes:
    @pytest.mark.parametrize("coeff", (1.5, 2.0, Fraction(1, 2), Fraction(4), "3", None))
    def test_constant_and_monomial_refuse_non_integers(self, coeff):
        for build in (lambda: LaurentPoly.constant(coeff),
                      lambda: LaurentPoly.monomial(exponents(a=1), coeff),
                      lambda: LaurentPoly({exponents(a=1): coeff})):
            with pytest.raises(TypeError, match="is not an integer"):
                build()

    def test_integer_coefficients_are_kept(self):
        assert LaurentPoly.constant(0) == LaurentPoly.zero()
        assert LaurentPoly.constant(-4) == -4
        assert LaurentPoly.monomial(exponents(x=-1), 0) == LaurentPoly.zero()
        assert LaurentPoly.monomial([0, 0, 0, -2, 0], 3).terms == {exponents(x=-1): 3}


class TestRingAxioms:
    def test_ring_axioms_500_cases(self):
        rng = random.Random(2024)
        for _ in range(500):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_canonical_no_zero_coefficients(self):
        rng = random.Random(99)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            for result in (p + q, p - q, p * q):
                assert all(result.terms.values())

    def test_equality_is_term_map_identity(self):
        p = bracket(exponents(a=1)) * angle(exponents(a=1))
        q = bracket(exponents(a=2))  # [a]<a> = [a^2]
        assert p == q and p.terms == q.terms


class TestBracketIdentities:
    def test_identity_5_3(self):
        # [a]<x> = [ax] + [a/x] for random monomial pairs
        rng = random.Random(53)
        for _ in range(200):
            a_vec = random_monomial(rng)
            x_vec = random_monomial(rng)
            lhs = bracket(a_vec) * angle(x_vec)
            rhs = (bracket(tuple(p + q for p, q in zip(a_vec, x_vec)))
                   + bracket(tuple(p - q for p, q in zip(a_vec, x_vec))))
            assert lhs == rhs

    def test_identity_5_4(self):
        # [a][x] = <ax> - <a/x>
        rng = random.Random(54)
        for _ in range(200):
            a_vec = random_monomial(rng)
            x_vec = random_monomial(rng)
            lhs = bracket(a_vec) * bracket(x_vec)
            rhs = (angle(tuple(p + q for p, q in zip(a_vec, x_vec)))
                   - angle(tuple(p - q for p, q in zip(a_vec, x_vec))))
            assert lhs == rhs

    def test_key_identity_5_5_grid(self):
        # [Ax^2] - <x>[Ax] + [A] = 0 on a 200 x 50 grid of random monomials
        rng = random.Random(55)
        a_vecs = [random_monomial(rng) for _ in range(200)]
        x_vecs = [random_monomial(rng) for _ in range(50)]
        for a_vec in a_vecs:
            for x_vec in x_vecs:
                ax = tuple(p + q for p, q in zip(a_vec, x_vec))
                ax2 = tuple(p + 2 * q for p, q in zip(a_vec, x_vec))
                combo = bracket(ax2) - angle(x_vec) * bracket(ax) + bracket(a_vec)
                assert combo == LaurentPoly.zero()


class TestEvaluationHomomorphism:
    def test_homomorphism_on_integer_exponents(self):
        # On integer-exponent polynomials the per-variable square-root reading
        # never kicks in, so evaluation is a plain ring homomorphism.
        rng = random.Random(77)
        for _ in range(200):
            p, q = random_integer_poly(rng), random_integer_poly(rng)
            pt = random_point(rng)
            assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
            assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)


class TestSerialization:
    def test_records_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng)
            encoded = json.dumps(to_records(p))
            assert from_records(json.loads(encoded)) == p

    def test_string_round_trip(self):
        rng = random.Random(12)
        for _ in range(100):
            p = random_poly(rng)
            assert from_string(to_string(p)) == p

    def test_readable_string_form(self):
        p = LaurentPoly.monomial(exponents(a=1, b=2, c=Fraction(1, 2), x=-3))
        assert to_string(p) == "a*b^2*c^(1/2)*x^-3"
        assert to_string(LaurentPoly.zero()) == "0"

    def test_terms_serialized_in_lexicographic_order(self):
        p = bracket(exponents(a=1, x=1))
        recs = to_records(p)
        vecs = [tuple(int(2 * Fraction(e)) for e in r["exponents"]) for r in recs]
        assert vecs == sorted(vecs)

    def test_record_exponent_denominators(self):
        p = LaurentPoly.monomial(exponents(b=Fraction(3, 2), y=-2), coeff=7)
        (rec,) = to_records(p)
        assert rec["coefficient"] == 7
        assert rec["exponents"] == ["0", "3/2", "0", "0", "-2"]

    @pytest.mark.parametrize("text", ("x^", "x^(1/2", "x^2.0", "x^1/2", "x^(1/3)", "x^(1.0/2)",
                                      "x^()", "x^--1", "2*a^b", "a + x^(-3/2)*c^"))
    def test_malformed_exponent_string_refused(self, text):
        with pytest.raises(ValueError):
            from_string(text)

    def test_written_exponents_parse(self):
        assert from_string("x") == X
        assert from_string("x^-1") == LaurentPoly.monomial(exponents(x=-1))
        assert from_string("3*c^(-3/2)*x^12") == LaurentPoly.monomial(
            exponents(c=Fraction(-3, 2), x=12), 3)

    @pytest.mark.parametrize("count", (0, 1, 4, 6))
    def test_record_with_wrong_exponent_count_refused(self, count):
        with pytest.raises(ValueError, match="5 exponents"):
            from_records([{"coefficient": 1, "exponents": ["1"] * count}])


# -- reference printers: the term loops as they stood before the shared formatter


def reference_to_string(p):
    def power(name, d):
        if d % 2 == 0:
            return name if d // 2 == 1 else f"{name}^{d // 2}"
        return f"{name}^({d}/2)"

    if not p.terms:
        return "0"
    chunks = []
    for vec in sorted(p.terms):
        coeff = p.terms[vec]
        factors = [power(name, d) for name, d in zip("abcxy", vec) if d]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def reference_latex(p):
    if not p.terms:
        return "0"
    chunks = []
    for vec in sorted(p.terms):
        coeff = p.terms[vec]
        factors = []
        for name, d in zip("abcxy", vec):
            if not d:
                continue
            if d == 2:
                factors.append(name)
            elif d % 2 == 0:
                factors.append(f"{name}^{{{d // 2}}}")
            else:
                factors.append(f"{name}^{{{d}/2}}")
        mag = abs(coeff)
        body = " ".join(factors) if factors else ""
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag} {body}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+{body}" if coeff > 0 else f"-{body}")
    return "".join(chunks)


def printer_cases():
    """The zero polynomial, then random ones with every sign and exponent shape."""
    yield LaurentPoly.zero()
    rng = random.Random(31)
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                vec = (0,) * 5  # a constant term
            else:
                # odd doubled values are half-integer exponents; +-2 print bare or ^-1
                vec = tuple(rng.choice((0, 0, 1, -1, 2, -2, 3, -5, 4, -6)) for _ in range(5))
            terms[vec] = rng.choice((1, -1, rng.randint(2, 99), -rng.randint(2, 99)))
        yield LaurentPoly(terms)


class TestPrintersAgainstReferences:
    def test_cases_reach_every_branch(self):
        polys = list(printer_cases())
        vecs = [vec for p in polys for vec in p.terms]
        coeffs = {c for p in polys for c in p.terms.values()}
        assert any(d % 2 for vec in vecs for d in vec)
        assert (0,) * 5 in vecs and {1, -1} <= coeffs
        assert any(c > 1 for c in coeffs) and any(c < -1 for c in coeffs)

    def test_to_string(self):
        for p in printer_cases():
            assert to_string(p) == reference_to_string(p)

    def test_to_latex(self):
        for p in printer_cases():
            assert to_latex(p) == reference_latex(p)

    def test_latex_half_integer_exponent(self):
        p = LaurentPoly({exponents(b=Fraction(1, 2), c=Fraction(-3, 2)): -4, (0,) * 5: 1})
        assert to_latex(p) == "1-4 b^{1/2} c^{-3/2}"
