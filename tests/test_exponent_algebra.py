"""Tests for the exact Laurent-polynomial core."""

import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest

from spiraldet import exponent_algebra
from spiraldet.closed_forms import theorem
from spiraldet.determinant_engine import sample_point
from spiraldet.exponent_algebra import (
    Factored,
    LaurentPoly,
    ZeroCoordinateError,
    angle,
    bracket,
    evaluate,
    exponents,
    shared_evaluator,
    to_latex,
    to_records,
    to_string,
)
from spiraldet.spiral_builder import build_generalized_bracket


def random_poly(rng, max_terms=8, max_exp=3, max_coeff=100):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        vec = tuple(rng.randint(-max_exp, max_exp) for _ in range(5))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[vec] = terms.get(vec, 0) + coeff
    return LaurentPoly(terms)


def random_monomial(rng, max_exp=3):
    return tuple(rng.randint(-max_exp, max_exp) for _ in range(5))


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

    def test_new_keys_share_exponent_ints(self):
        # CPython caches only the ints -5..256, so each key would otherwise
        # hold its own -7
        product = bracket(exponents(x=7)) * bracket(exponents(b=1))
        first, second = (vec[3] for vec in product.terms if vec[3] == -7)
        assert first is second


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
        # x alone is 0 at x = 0; only a negative power of x has no value there
        assert evaluate(X, (1, 1, 1, 0, 1)) == 0
        with pytest.raises(ZeroCoordinateError):
            evaluate(X + LaurentPoly.monomial(exponents(x=-1)), (1, 1, 1, 0, 1))

    def test_non_integral_point_matches_termwise_fractions(self):
        rng = random.Random(13)
        for _ in range(300):
            p = random_poly(rng)
            point = tuple(Fraction(v, rng.randint(1, 9)) for v in random_point(rng))
            expected = Fraction(0)
            for vec, coeff in p.terms.items():
                term = Fraction(coeff)
                for i, d in enumerate(vec):
                    term *= point[i] ** d
                expected += term
            value = evaluate(p, point)
            assert type(value) is Fraction and value == expected

    def test_half_exponent_refused(self):
        # a coordinate is its variable's value, and (bc)^(1/2) has none at
        # b = 3, c = 2; an exponent is an int, so [(bc)^(1/2) x^2] is not built
        with pytest.raises(TypeError, match="exponents must be ints"):
            bracket(exponents(b=Fraction(1, 2), c=Fraction(1, 2), x=2))
        # its square bc x^4 - 2 + 1/(bc x^4), with integer exponents, is read directly
        square = angle(exponents(b=1, c=1, x=4)) - 2
        assert evaluate(square, (1, 9, 4, 5, 1)) == (Fraction(150) - Fraction(1, 150)) ** 2


def termwise_value(p, point):
    """Reference value: every term computed on its own with Fraction powers."""
    total = Fraction(0)
    for vec, coeff in p.terms.items():
        term = Fraction(coeff)
        for i, d in enumerate(vec):
            term *= Fraction(point[i]) ** d
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
    # terms with half-integer exponents in b and c, as (a, b, c, x, y): coefficient
    HALF_TERMS = (
        {(2, Fraction(-3, 2), Fraction(5, 2), -1, 0): 4},
        {(1, Fraction(-1, 2), 0, 2, 0): 3, (3, Fraction(-5, 2), 0, -1, -2): -1,
         (2, Fraction(3, 2), Fraction(1, 2), 0, -1): 2},
    )

    @staticmethod
    def assert_normalized_equal(p, point):
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

    @pytest.mark.parametrize("index", range(len(HALF_TERMS)))
    def test_half_exponent_variables(self, index):
        # a half-integer exponent is refused; at the squares of the
        # variables, every exponent doubled, the terms evaluate
        terms = self.HALF_TERMS[index]
        with pytest.raises(TypeError, match="exponents must be ints"):
            LaurentPoly(terms)
        p = LaurentPoly({tuple(int(2 * e) for e in vec): c for vec, c in terms.items()})
        for point in self.INTEGER_POINTS + self.RATIONAL_POINTS:
            self.assert_normalized_equal(p, point)

    def test_random_shifted_polys(self):
        rng = random.Random(271)
        for _ in range(200):
            shift = tuple(rng.randint(-4, 4) for _ in range(5))
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
            factors = [random_poly(rng, max_terms=4) for _ in range(rng.randint(0, 6))]
            expected = LaurentPoly.constant(sign)
            for factor in factors:
                expected = expected * factor
            assert Factored(sign, factors).expand() == expected

    def test_evaluate_equals_evaluate_of_expansion(self):
        rng = random.Random(12)
        for _ in range(50):
            factored = Factored(rng.choice((1, -1)),
                                [random_poly(rng, max_terms=4) for _ in range(3)])
            point = random_point(rng)
            rational = tuple(Fraction(v, rng.randint(1, 7)) for v in point)
            for pt in (point, rational):
                assert factored.evaluate(pt) == evaluate(factored.expand(), pt)

    def test_expansion_holds_no_partial_product_beside_the_result(self):
        # theorem 3 at size 8 peaks at 1.14 MB expanded pairwise, and at
        # 1.49 MB folded left to right
        factored = theorem(3, 8)
        tracemalloc.start()
        try:
            factored.expand()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3e6

    def test_empty_product(self):
        assert Factored(1, ()).expand() == LaurentPoly.one()
        assert Factored(-1, ()).evaluate((1, 2, 3, 4, 5)) == -1

    def test_half_exponent_factor_refused(self):
        # the factor [b^(1/2)] is refused where it is written, so no product holds it
        with pytest.raises(TypeError, match="exponents must be ints"):
            Factored(1, [X, bracket(exponents(b=Fraction(1, 2)))])

    def test_sign_must_be_unit(self):
        with pytest.raises(ValueError):
            Factored(2, [X])
        for sign in (True, 1.0, Fraction(-1)):  # equal to a unit, but not an int
            with pytest.raises(ValueError, match="sign must be 1 or -1"):
                Factored(sign, [X])

    def test_bad_point_raises_like_evaluate(self):
        for factors in ((), (X,)):
            with pytest.raises(ValueError):
                Factored(1, factors).evaluate((1, 2, 3))
        zero_x = (1, 1, 1, 0, 1)
        assert Factored(-1, ()).evaluate(zero_x) == -1
        assert Factored(1, (X,)).evaluate(zero_x) == 0
        # the product x * x^-1 is 1, but its factor x^-1 has no value at x = 0
        with pytest.raises(ZeroCoordinateError):
            Factored(1, (X, LaurentPoly.monomial(exponents(x=-1)))).evaluate(zero_x)


# -- reference evaluation: evaluate as it stood before the one integer sum, with
# an integral and a common-denominator path and a cache of powers per variable


def reference_evaluate(p, point):
    coords = [Fraction(v) for v in point]
    if not p.terms:
        return Fraction(0)
    mins = [min(vec[i] for vec in p.terms) for i in range(5)]
    if all(v.denominator == 1 for v in coords):
        spans = [0] * 5
    else:
        spans = [max(vec[i] for vec in p.terms) - mins[i] for i in range(5)]
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
        for i in range(5):
            e = vec[i] - mins[i]
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
    """Exponents up to +-60; each column mixed, all negative, all positive or constant."""
    draws = {"mixed": lambda: rng.randint(-60, 60),
             "negative": lambda: -rng.randint(1, 60),
             "positive": lambda: rng.randint(1, 60)}
    columns = []
    for _ in range(5):
        shape = rng.choice(("mixed", "negative", "positive", "constant"))
        if shape == "constant":
            value = rng.randint(-60, 60)
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


def zero_rule_reference(p, point):
    """p's value termwise, or ZeroCoordinateError where a zero coordinate has
    a negative exponent in its column."""
    for column, v in zip(zip(*p.terms), point):
        if v == 0 and min(column) < 0:
            return ZeroCoordinateError
    return termwise_value(p, point)


def points_with_zeros(rng):
    """An integral and a rational point, each with one to five zero coordinates."""
    zeros = rng.sample(range(5), rng.randint(1, 5))
    integral = [0 if i in zeros else v for i, v in enumerate(random_point(rng))]
    return tuple(integral), tuple(Fraction(v, rng.randint(1, 9)) for v in integral)


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except ZeroCoordinateError as exc:
        return type(exc)


class TestZeroCoordinates:
    """A zero coordinate is refused only where a negative power of it exists."""

    def test_evaluate_against_the_termwise_reference(self):
        rng = random.Random(1980)
        outcomes = set()
        for _ in range(400):
            p = random_poly(rng)
            for point in points_with_zeros(rng):
                expected = zero_rule_reference(p, point)
                outcomes.add(expected if isinstance(expected, type) else "value")
                assert value_or_error(evaluate, p, point) == expected, (p, point)
        assert outcomes == {"value", ZeroCoordinateError}

    def test_factored_against_the_reference_product(self):
        rng = random.Random(1981)
        outcomes = set()
        for _ in range(200):
            factors = [random_poly(rng, max_terms=3) for _ in range(rng.randint(0, 3))]
            factored = Factored(rng.choice((1, -1)), factors)
            for point in points_with_zeros(rng):
                expected = Fraction(factored.sign)
                for factor in factors:
                    value = zero_rule_reference(factor, point)
                    if isinstance(value, type):
                        expected = value
                        break
                    expected *= value
                outcomes.add(expected if isinstance(expected, type) else "value")
                assert value_or_error(factored.evaluate, point) == expected, (factors, point)
        assert outcomes == {"value", ZeroCoordinateError}

    def test_nonnegative_powers_take_zeros(self):
        # a^2 b - 3 c + 5 at a = 0 and c = 0
        p = A * A * LaurentPoly.variable("b") - 3 * LaurentPoly.variable("c") + 5
        assert evaluate(p, (0, 7, 0, 1, 1)) == 5
        assert evaluate(p, (0, 0, 0, 0, 0)) == 5


def table_value(p, coords):
    """Reference pair: ``_value`` as it stood with a table for every variable."""
    if not p.terms:
        return 0, 1
    num = den = 1
    tables = []
    for column, v in zip(map(set, zip(*p.terms)), coords):
        low, high = min(column), max(column)
        n, d = v.numerator, v.denominator
        if low < 0 and n == 0:
            raise ZeroCoordinateError()
        tables.append({e: n ** (e - low) * d ** (high - e) for e in column})
        num *= n ** max(low, 0) * d ** max(-high, 0)
        den *= n ** max(-low, 0) * d ** max(high, 0)
    ta, tb, tc, tx, ty = tables
    total = sum(coeff * ta[a] * tb[b] * tc[c] * tx[x] * ty[y]
                for (a, b, c, x, y), coeff in p.terms.items())
    return total * num, den


def shaped_poly(rng):
    """Each column all zero, one nonzero exponent in every term, or mixed."""
    shapes = [rng.choice(("zero", "single", "mixed")) for _ in range(5)]
    singles = [rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(5)]
    terms = {}
    for _ in range(rng.randint(1, 7)):
        vec = tuple(0 if shape == "zero" else single if shape == "single"
                    else rng.randint(-40, 40) for shape, single in zip(shapes, singles))
        terms[vec] = terms.get(vec, 0) + rng.choice((1, -1)) * rng.randint(1, 10**9)
    return LaurentPoly(terms), shapes


def shaped_points(rng):
    """An integral, a rational, a huge and a zero-coordinate point."""
    def nonzero():
        v = rng.randint(-30, 29)
        return v if v < 0 else v + 1
    yield tuple(nonzero() for _ in range(5))
    yield tuple(Fraction(nonzero(), rng.randint(1, 30)) for _ in range(5))
    yield tuple(Fraction(nonzero() * 10**40 + rng.randint(0, 99), 3 ** rng.randint(0, 60))
                for _ in range(5))
    zeros = rng.sample(range(5), rng.randint(1, 3))
    yield tuple(0 if i in zeros else Fraction(nonzero(), rng.randint(1, 5)) for i in range(5))


class TestValueWithoutTables:
    """``_value`` skips an all-zero column and tables no column of one exponent."""

    def test_same_pair_as_a_table_for_every_variable(self):
        rng = random.Random(3201)
        shapes, outcomes = set(), set()
        for _ in range(300):
            p, kinds = shaped_poly(rng)
            shapes.update(kinds)
            for point in shaped_points(rng):
                coords = exponent_algebra._coordinates(point)
                expected = value_or_error(table_value, p, coords)
                assert value_or_error(exponent_algebra._value, p, coords) == expected, (p, point)
                if expected is ZeroCoordinateError:
                    outcomes.add("refused")
                    assert zero_rule_reference(p, point) is ZeroCoordinateError
                else:
                    outcomes.add("value")
                    assert Fraction(*expected) == termwise_value(p, point), (p, point)
        assert shapes == {"zero", "single", "mixed"} and outcomes == {"value", "refused"}

    def test_constant_and_monomial(self):
        coords = exponent_algebra._coordinates((0, Fraction(2, 3), 5, -1, 7))
        assert exponent_algebra._value(LaurentPoly.constant(-4), coords) == (-4, 1)
        monomial = LaurentPoly.monomial(exponents(b=-3, c=2, x=5), 6)
        assert exponent_algebra._value(monomial, coords) == table_value(monomial, coords)
        assert evaluate(monomial, (0, Fraction(2, 3), 5, -1, 7)) == Fraction(-6 * 27 * 25, 8)
        with pytest.raises(ZeroCoordinateError):
            exponent_algebra._value(LaurentPoly.monomial(exponents(a=-1)), coords)


def spy_on_value(monkeypatch) -> list:
    """Record each polynomial that ``exponent_algebra._value`` values from now on."""
    valued = []
    real = exponent_algebra._value

    def value(p, coords):
        valued.append(p)
        return real(p, coords)

    monkeypatch.setattr(exponent_algebra, "_value", value)
    return valued


class TestSharedEvaluator:
    """Many formulas at one point, each distinct factor valued once."""

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_equals_each_formulas_value(self, k):
        rng = random.Random(30 + k)
        formulas = [theorem(k, n) for n in range(31)]
        integral = sample_point(60493, k)
        rational = tuple(Fraction(v * d + 1, d) for v, d in
                         zip(random_point(rng), (2, 3, 5, 7, 9)))  # never integral
        mixed = tuple(v if i % 2 else r for i, (v, r) in enumerate(zip(integral, rational)))
        for point in (integral, rational, mixed):
            values = shared_evaluator(formulas)(point)
            assert all(type(v) is Fraction for v in values)
            assert values == [f.evaluate(point) for f in formulas], point
            assert values == [f.sign * prod((evaluate(factor, point) for factor in f.factors),
                                            start=Fraction(1)) for f in formulas], point

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_zero_coordinate_raises_where_a_formula_does(self, k):
        formulas = [theorem(k, n) for n in range(13)]
        refused = set()
        for var in range(5):
            for base in ((3, -2, 5, -7, 4), (Fraction(3, 2), -2, Fraction(5, 7), -7, 4)):
                point = base[:var] + (0,) + base[var + 1:]
                each = [value_or_error(f.evaluate, point) for f in formulas]
                for top in range(len(formulas) + 1):
                    if ZeroCoordinateError in each[:top]:
                        refused.add(var)
                        with pytest.raises(ZeroCoordinateError):
                            shared_evaluator(formulas[:top])(point)
                    else:
                        assert shared_evaluator(formulas[:top])(point) == each[:top]
        # theorem 3 sets y = x, so its formulas have no y
        assert refused == (set() if k < 3 else {0, 1, 2, 3})

    def test_bad_point_raises_before_any_factor_is_valued(self, monkeypatch):
        valued = spy_on_value(monkeypatch)
        formulas = [theorem(3, n) for n in range(1, 6)]
        for bad in ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, "two", 4, 5), (1, 2, None, 4, 5)):
            with pytest.raises((ValueError, TypeError)) as expected:
                evaluate(X, bad)
            for batch in ([], formulas):
                with pytest.raises(expected.type) as raised:
                    shared_evaluator(batch)(bad)
                assert str(raised.value) == str(expected.value)
        assert valued == []

    def test_theorem_2_values_31_distinct_factors_per_point(self, monkeypatch):
        # 12 prefactors and the tails 1 - b^i c^i x^(i+1) y^(i+1), i = 0..18
        formulas = [theorem(2, n) for n in range(9, 21)]
        valued = spy_on_value(monkeypatch)
        values = shared_evaluator(formulas)
        assert valued == []
        for t in range(3):
            point = sample_point(60493, t)
            valued.clear()
            values(point)
            assert len(valued) == 31
            valued.clear()
            for formula in formulas:
                formula.evaluate(point)
            assert len(valued) == 174

    def test_equal_factors_are_shared_whatever_their_object(self, monkeypatch):
        p = 1 - X * X
        q = LaurentPoly({exponents(): 1, exponents(x=2): -1})
        assert p == q and p is not q and list(p.terms) != list(q.terms)
        valued = spy_on_value(monkeypatch)
        point = (2, 3, 5, 7, 11)
        assert shared_evaluator([Factored(1, [p, A]), Factored(-1, [q])])(point) == [-96, 48]
        assert valued == [p, A]


class TestCoefficientTypes:
    @pytest.mark.parametrize("coeff", (1.5, 2.0, Fraction(1, 2), Fraction(4), "3", None))
    def test_constant_and_monomial_refuse_non_integers(self, coeff):
        for build in (lambda: LaurentPoly.constant(coeff),
                      lambda: LaurentPoly.monomial(exponents(a=1), coeff),
                      lambda: LaurentPoly({exponents(a=1): coeff})):
            with pytest.raises(TypeError, match="is not an integer"):
                build()

    def test_bool_is_not_an_integer(self):
        # a bool would print as a^True and serialize as JSON true
        for build in (lambda: LaurentPoly.constant(True),
                      lambda: LaurentPoly({exponents(a=1): False})):
            with pytest.raises(TypeError, match="is not an integer"):
                build()
        for vec in ((True, 0, 0, 0, 0), (0, 0, 0, 0, False)):
            with pytest.raises(TypeError, match="exponents must be ints"):
                LaurentPoly.monomial(vec)
        # nor is a Fraction or a float an exponent, at any entry point
        for e in (Fraction(1, 2), 1.0, True):
            for build in (lambda: exponents(a=e),
                          lambda: LaurentPoly({(e, 0, 0, 0, 0): 1}),
                          lambda: LaurentPoly.monomial((0, e, 0, 0, 0)),
                          lambda: bracket((0, 0, e, 0, 0)),
                          lambda: angle((0, 0, 0, e, 0)),
                          lambda: build_generalized_bracket(2, ((0, 0, 0, 0, e),), ())):
                with pytest.raises(TypeError, match="exponents must be ints"):
                    build()

    def test_integer_coefficients_are_kept(self):
        assert LaurentPoly.constant(0) == LaurentPoly.zero()
        assert LaurentPoly.constant(-4) == -4
        assert LaurentPoly.monomial(exponents(x=-1), 0) == LaurentPoly.zero()
        assert LaurentPoly.monomial([0, 0, 0, -1, 0], 3).terms == {exponents(x=-1): 3}


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
        # each coordinate is its variable's value, so evaluation is a ring homomorphism
        rng = random.Random(77)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            pt = random_point(rng)
            assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
            assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)


class TestSerialization:
    def test_records_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng)
            records = json.loads(json.dumps(to_records(p)))
            assert {tuple(map(int, r["exponents"])): r["coefficient"] for r in records} == p.terms

    def test_readable_string_form(self):
        p = LaurentPoly.monomial(exponents(a=1, b=2, c=-1, x=-3))
        assert to_string(p) == "a*b^2*c^-1*x^-3"
        assert to_string(LaurentPoly.zero()) == "0"

    def test_terms_serialized_in_lexicographic_order(self):
        p = bracket(exponents(a=1, x=1))
        recs = to_records(p)
        vecs = [tuple(map(int, r["exponents"])) for r in recs]
        assert vecs == sorted(vecs)

    def test_record_exponent_denominators(self):
        # an exponent is an int, so its string carries no denominator
        p = LaurentPoly.monomial(exponents(b=3, y=-2), coeff=7)
        (rec,) = to_records(p)
        assert rec["coefficient"] == 7
        assert rec["exponents"] == ["0", "3", "0", "0", "-2"]


# -- reference printers: the term loops as they stood before the shared formatter


def reference_to_string(p):
    def power(name, d):
        return name if d == 1 else f"{name}^{d}"

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
            if d == 1:
                factors.append(name)
            else:
                factors.append(f"{name}^{{{d}}}")
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
                # exponent 1 prints bare, every other one as a power
                vec = tuple(rng.choice((0, 0, 1, -1, 2, -2, 3, -5, 4, -6)) for _ in range(5))
            terms[vec] = rng.choice((1, -1, rng.randint(2, 99), -rng.randint(2, 99)))
        yield LaurentPoly(terms)


class TestPrintersAgainstReferences:
    def test_cases_reach_every_branch(self):
        polys = list(printer_cases())
        vecs = [vec for p in polys for vec in p.terms]
        coeffs = {c for p in polys for c in p.terms.values()}
        assert any(d == 1 for vec in vecs for d in vec)
        assert any(d not in (0, 1) for vec in vecs for d in vec)
        assert (0,) * 5 in vecs and {1, -1} <= coeffs
        assert any(c > 1 for c in coeffs) and any(c < -1 for c in coeffs)

    def test_to_string(self):
        for p in printer_cases():
            assert to_string(p) == reference_to_string(p)

    def test_to_latex(self):
        for p in printer_cases():
            assert to_latex(p) == reference_latex(p)
