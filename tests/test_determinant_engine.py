"""Tests for the determinant engines, wedge elimination, and identity verification."""

import gc
import json
import math
import random
from fractions import Fraction
from itertools import repeat

import pytest

from spiraldet import determinant_engine, spiral_builder
from spiraldet.determinant_engine import (
    SizeGuardError,
    _pack,
    _unpack,
    _zero_cells,
    VerificationReport,
    WedgeNotZeroError,
    Witness,
    det_bareiss_rational,
    det_cofactor,
    leading_minor_residues,
    leading_minors,
    numeric_matrix,
    randomized_reports,
    sample_point,
    verify_identity,
    wedge_eliminate_even,
    wedge_eliminate_odd,
)
from spiraldet.closed_forms import (
    antidiagonal_entry_formulas,
    theorem,
    thm1_odd,
    thm3_even,
    thm3_odd,
)
from spiraldet.exponent_algebra import (
    Factored,
    LaurentPoly,
    ZeroCoordinateError,
    angle,
    bracket,
    evaluate,
    exponents,
)
from spiraldet.spiral_builder import (
    build_additive,
    build_bracket,
    build_bracket_xx,
    build_generalized_bracket,
    build_qpower,
    centre_cell,
    numeric_theorem_matrix,
    shell_ordered,
    step_counts,
    theorem_matrix,
)


def random_fraction_matrix(rng, n, lo=-9, hi=9):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)]


def fraction_bareiss(matrix):
    """Reference: fraction-free elimination carried out on Fractions throughout."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            head = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - head * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def generic_laplace(matrix):
    """Reference: the memoized Laplace expansion in plain ring arithmetic."""
    n = len(matrix)
    memo = {}

    def minor(mask):
        if mask == 0:
            return 1
        if mask not in memo:
            row = n - mask.bit_count()
            sign, total, rest = 1, 0, mask
            while rest:
                low = rest & -rest
                entry = matrix[row][low.bit_length() - 1]
                if entry:
                    total = total + sign * entry * minor(mask ^ low)
                sign = -sign
                rest ^= low
            memo[mask] = total
        return memo[mask]

    return minor((1 << n) - 1)


def random_entry_poly(rng, spread, max_terms=3):
    """A few terms with exponents in [-spread, spread]."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        vec = tuple(rng.randint(-spread, spread) for _ in range(5))
        terms[vec] = rng.choice((-3, -1, 1, 2))
    return LaurentPoly(terms)


def random_generalized_increments(rng, n):
    """Random (up, down) increments of size n with exponents in [-2, 2]."""
    counts = step_counts(n)

    def monomials(count):
        return tuple(tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(count))

    return monomials(counts["up"]), monomials(counts["down"])


_ANGLE_X = angle(exponents(x=1))


def mirrored_odd_zero_cells(n):
    """Reference: the 1-based wedge cells of the mirrored operation at size 2n+1."""
    big = 2 * n + 1
    for i in range(1, n + 1):
        for j in range(i, 2 * n - i + 1):
            yield i, j
    for i in range(n + 2, big + 1):
        for j in range(2 * n + 2 - i, min(i - 1, 2 * n - 1) + 1):
            yield i, j


def mirrored_wedge_eliminate_odd(z):
    """Reference (sign, corner, antidiagonal) of the paper's odd-size elimination.

    The operation is mirrored: C_j <- C_j - <x>*C_{j+1} + C_{j+2} for
    j = 1..N-2, the corner sits in the last two columns and the antidiagonal
    is read one column further left than at even sizes.
    """
    size = len(z)
    n = size // 2
    t = [[z[i][j] - _ANGLE_X * z[i][j + 1] + z[i][j + 2] if j <= size - 3 else z[i][j]
          for j in range(size)] for i in range(size)]
    for i, j in mirrored_odd_zero_cells(n):
        assert not t[i - 1][j - 1], (i, j)
    corner = z[0][size - 2] * z[size - 1][size - 1] - z[0][size - 1] * z[size - 1][size - 2]
    factors = tuple(t[i - 1][2 * n + 1 - i - 1] for i in range(2, 2 * n + 1))
    return (-1 if n % 2 else 1), corner, factors


def even_zero_cells(n):
    """Reference: the 1-based wedge cells of the 2n x 2n elimination, per parity."""
    big = 2 * n
    for i in range(1, n + 1):
        for j in range(max(3, i + 1), big + 1 - i + 1):
            yield i, j
    for i in range(n + 1, big + 1):
        for j in range(max(3, big - i + 3), min(i, big) + 1):
            yield i, j


def readout(fac):
    return fac.sign, fac.corner_factor, fac.antidiagonal_factors


class TestDetCofactor:
    def test_1x1(self):
        p = bracket(exponents(a=1))
        assert det_cofactor([[p]]) == p

    def test_2x2_formula(self):
        p, q, r, s = (LaurentPoly.variable(v) for v in "abcx")
        assert det_cofactor([[p, q], [r, s]]) == p * s - q * r

    def test_qpower_2(self):
        # 2x2 cofactor on the q-power entries: a^2*b*x^2*y - a^2*b*x
        expected = (LaurentPoly.monomial(exponents(a=2, b=1, x=2, y=1))
                    - LaurentPoly.monomial(exponents(a=2, b=1, x=1)))
        assert det_cofactor(build_qpower(2)) == expected

    def test_size_guard(self):
        eye9 = [[int(i == j) for j in range(9)] for i in range(9)]
        with pytest.raises(SizeGuardError):
            det_cofactor(eye9)
        assert det_cofactor(eye9, allow_large=True) == 1

    def test_memo_is_freed_without_the_cycle_collector(self):
        # the memoized minor is a recursive closure, a reference cycle that
        # det_cofactor breaks before it returns
        matrix = theorem_matrix(3, 6)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            det_cofactor(matrix)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_matches_bareiss_on_numeric(self):
        rng = random.Random(31337)
        for _ in range(100):
            n = rng.randint(1, 6)
            m = random_fraction_matrix(rng, n)
            assert Fraction(det_cofactor(m)) == det_bareiss_rational(m)


class TestPackedCofactor:
    """The packed-key kernel against the plain ring expansion it replaced."""

    @staticmethod
    def assert_matches(matrix):
        value = det_cofactor(matrix)
        expected = generic_laplace(matrix)
        assert value == expected
        if any(isinstance(e, LaurentPoly) for row in matrix for e in row):
            # the reference is an int when every nonzero entry it used was one
            if not isinstance(expected, LaurentPoly):
                expected = LaurentPoly.constant(expected)
            assert isinstance(value, LaurentPoly)
            assert all(value.terms.values())  # canonical: no zero coefficient
            assert value.terms == expected.terms
        return value

    @pytest.mark.parametrize("spread", (3, 5000))
    def test_random_laurent_matrices(self, spread):
        # spread 5000 makes H = n * max|d| reach 35,000 at n = 7, so B^5
        # is far past 2^64
        rng = random.Random(spread)
        for n in range(1, 8):
            for _ in range(3 if n < 6 else 1):
                # sizes 6 and 7 get fewer terms and some zeros to keep the
                # reference expansion affordable
                m = [[random_entry_poly(rng, spread, 3) if n < 6 else
                      rng.choice((0, 1, 2)) and random_entry_poly(rng, spread, 2)
                      for _ in range(n)] for _ in range(n)]
                self.assert_matches(m)

    def test_large_exponents_hit_the_packing_bound(self):
        big = exponents(a=2500, b=-2500, c=2499, x=-2500, y=2500)
        n = 5
        m = [[LaurentPoly.monomial(big) if i == j else
              LaurentPoly.monomial(tuple(-d for d in big)) if j == (i + 1) % n else 0
              for j in range(n)] for i in range(n)]
        # diagonal m plus a cyclic 1/m: det = m^5 + m^-5, both terms at |d| = H
        assert self.assert_matches(m) == (LaurentPoly.monomial(tuple(n * d for d in big))
                                          + LaurentPoly.monomial(tuple(-n * d for d in big)))

    def test_repeated_row_cancels_to_the_zero_polynomial(self):
        rng = random.Random(12)
        for n in range(2, 7):
            m = [[random_entry_poly(rng, 9) for _ in range(n)] for _ in range(n)]
            m[-1] = list(m[0])
            value = self.assert_matches(m)
            assert value.terms == {}

    def test_constant_only_polynomials(self):
        rng = random.Random(2)
        for n in range(1, 8):
            m = [[LaurentPoly.constant(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            self.assert_matches(m)

    def test_zero_entries_and_mixed_int_and_polynomial(self):
        rng = random.Random(99)
        for n in range(1, 8):
            for _ in range(3):
                m = [[rng.choice((0, 0, rng.randint(-5, 5), LaurentPoly.zero(),
                                  random_entry_poly(rng, 7, 2)))
                      for _ in range(n)] for _ in range(n)]
                m[rng.randrange(n)][rng.randrange(n)] = random_entry_poly(rng, 7)
                self.assert_matches(m)

    def test_numeric_matrices(self):
        rng = random.Random(404)
        for n in range(1, 8):
            ints = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            value = self.assert_matches(ints)
            assert type(value) is int
            fractions = random_fraction_matrix(rng, n)
            value = self.assert_matches(fractions)
            assert value == 0 or type(value) is Fraction

    def test_polynomial_matrix_refuses_a_fraction_entry(self):
        a = LaurentPoly.variable("a")
        with pytest.raises(TypeError):
            det_cofactor([[a, Fraction(1, 2)], [1, a]])

    def test_ragged_matrix_is_a_shape_error_beyond_the_guard(self):
        ragged = [[1] * 9 for _ in range(8)] + [[1] * 8]
        with pytest.raises(ValueError) as excinfo:
            det_cofactor(ragged)
        assert not isinstance(excinfo.value, SizeGuardError)
        with pytest.raises(ValueError, match="square"):
            det_cofactor([[1, 2], [3]])


def row_order_cofactor(matrix, counter=None):
    """Reference: the packed kernel as it expanded before, row by row in order.

    Its memo is keyed by column subsets, and the first row is the outermost
    level.  ``counter[0]`` collects the term pairs the expansion multiplies.
    """
    n = len(matrix)
    if n == 0:
        return 1
    symbolic = any(isinstance(entry, LaurentPoly) for row in matrix for entry in row)
    base = 1
    if symbolic:
        base = 2 * n * max((abs(d) for row in matrix for entry in row
                            if isinstance(entry, LaurentPoly)
                            for vec in entry.terms for d in vec), default=0) + 1
    packed = [[[(_pack(vec, base), c) for vec, c in entry.terms.items()]
               if isinstance(entry, LaurentPoly) else [(0, entry)] if entry else []
               for entry in row] for row in matrix]
    memo = {0: [(0, 1)]}

    def minor(mask):
        if mask in memo:
            return memo[mask]
        row = packed[n - mask.bit_count()]
        out = {}
        negative = False
        rest = mask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry:
                sub = minor(mask ^ low)
                if counter is not None:
                    counter[0] += len(entry) * len(sub)
                for u, cu in entry:
                    if negative:
                        cu = -cu
                    for v, cv in sub:
                        out[u + v] = out.get(u + v, 0) + cu * cv
            negative = not negative
            rest ^= low
        terms = [(w, c) for w, c in out.items() if c]
        memo[mask] = terms
        return terms

    terms = minor((1 << n) - 1)
    if symbolic:
        return LaurentPoly._raw({_unpack(key, base): c for key, c in terms})
    return terms[0][1] if terms else 0


def column_masses(matrix):
    return [sum(abs(d) for row in matrix if isinstance(row[j], LaurentPoly)
                for vec in row[j].terms for d in vec) for j in range(len(matrix))]


def permutation_sign(order):
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return -1 if inversions % 2 else 1


class TestColumnOrderCofactor:
    """det_cofactor expands along columns, heaviest first; the row-order kernel is the reference."""

    @staticmethod
    def assert_matches(matrix):
        value = det_cofactor(matrix, allow_large=True)
        expected = row_order_cofactor(matrix)
        assert isinstance(value, LaurentPoly)
        assert all(value.terms.values())  # canonical: no zero coefficient
        assert value.terms == expected.terms

    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_theorem_matrices(self, k, n):
        self.assert_matches(theorem_matrix(k, n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bracket_family(self, n):
        # the reference takes ~2.5M term pairs at n = 8, so it stops at 7
        self.assert_matches(build_bracket(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_generalized_family(self, n):
        rng = random.Random(70 + n)
        self.assert_matches(build_generalized_bracket(n, *random_generalized_increments(rng, n)))

    def test_distinct_column_masses_permute_with_both_signs(self):
        rng = random.Random(8128)
        signs = set()
        for n in range(2, 7):
            for _ in range(4):
                m = [[random_entry_poly(rng, 6) for _ in range(n)] for _ in range(n)]
                masses = column_masses(m)
                if len(set(masses)) < n:
                    continue
                order = sorted(range(n), key=masses.__getitem__, reverse=True)
                signs.add(permutation_sign(order))
                self.assert_matches(m)
        assert signs == {1, -1}

    def test_fewer_term_pairs_on_theorem_3(self):
        # the column-order expansion of m is the row-order expansion of the
        # transpose of m with its columns sorted heaviest first
        m = theorem_matrix(3, 7)
        order = sorted(range(7), key=column_masses(m).__getitem__, reverse=True)
        before, after = [0], [0]
        row_order_cofactor(m, before)
        row_order_cofactor([[row[j] for row in m] for j in order], after)
        assert (before[0], after[0]) == (137348, 17478)


def as_poly(value):
    """A number as a constant LaurentPoly, a Fraction keeping its coefficient."""
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly._raw({(0,) * 5: value} if value else {})


class TestCofactorLeadingMinors:
    """One expansion gives every leading minor's residue against its formula.

    ``leading_minor_residues`` is checked against det_cofactor on each block.
    """

    @staticmethod
    def assert_matches(matrix, signs):
        # each row with sign -1 is negated, as shell_ordered negates its even rows
        matrix = [[-v for v in row] if sign < 0 else row for sign, row in zip(signs, matrix)]
        n = len(matrix)
        dets = [det_cofactor(block) for block in leading_blocks(matrix)]
        formulas = [Factored(1, (as_poly(det),)) for det in dets]
        residues = list(leading_minor_residues(matrix, formulas))
        assert len(residues) == n
        for residue in residues:
            assert type(residue) is LaurentPoly and not residue.terms
        # formula = det - p leaves the residue p, exactly and canonical
        rng = random.Random(n)  # apart from the caller's, which draws the matrices
        perturbations = [random_entry_poly(rng, 7) for _ in range(n)]
        perturbed = [Factored(1, (formula.factors[0] - p,))
                     for formula, p in zip(formulas, perturbations)]
        residues = list(leading_minor_residues(matrix, perturbed))
        assert residues == perturbations[::-1]  # largest first
        for residue in residues:
            assert type(residue) is LaurentPoly and all(residue.terms.values())
        return dets

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_theorem_matrices_in_shell_order(self, k):
        matrix = shell_ordered(theorem_matrix(k, 8))
        dets = self.assert_matches(matrix, [1] * 8)
        assert dets == [theorem(k, n).expand() for n in range(1, 9)]
        formulas = [theorem(k, n) for n in range(1, 9)]
        assert not any(leading_minor_residues(matrix, formulas))
        # the opposite sign leaves det - (-det), through every factor's expansion
        negated = [Factored(-f.sign, f.factors) for f in formulas]
        assert list(leading_minor_residues(matrix, negated)) == \
            [2 * det for det in dets[::-1]]

    @pytest.mark.parametrize("shift_sign", (1, -1))
    def test_formula_exponents_past_the_matrix_bound_are_packed_apart(self, shift_sign):
        # a^(B0), with B0 = 2 * n * max|d| + 1 the base of the matrix alone,
        # would pack as b (or a^-B0 as 1/b) if the base did not cover the formula
        grid = theorem_matrix(3, 6)
        matrix = shell_ordered(grid)
        reach = max(abs(d) for row in grid for entry in row for vec in entry.terms
                    for d in vec)
        shift = LaurentPoly.monomial(exponents(a=shift_sign * (2 * 6 * reach + 1)))
        formulas = [Factored(f.sign, (*f.factors, shift))
                    for f in (theorem(3, n) for n in range(1, 7))]
        residues = list(leading_minor_residues(matrix, formulas))
        dets = [theorem(3, n).expand() for n in range(6, 0, -1)]
        assert residues == [det - det * shift for det in dets]

    def test_random_int_matrices_with_singular_leading_blocks(self):
        rng = random.Random(2718)
        for n in range(1, 9):
            for _ in range(4):
                m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                     for _ in range(n)]
                if n > 2:
                    m[1][:2] = [3 * v for v in m[0][:2]]  # the 2 x 2 block is singular
                signs = [rng.choice((1, -1)) for _ in range(n)]
                self.assert_matches(m, signs)
                self.assert_matches([[Fraction(v, rng.randint(1, 4)) for v in row] for row in m],
                                    [1] * n)

    def test_random_polynomial_matrices_with_zero_entries(self):
        rng = random.Random(1618)
        for n in range(1, 8):
            for _ in range(3):
                m = [[rng.choice((0, rng.randint(-5, 5), random_entry_poly(rng, 7, 2)))
                      for _ in range(n)] for _ in range(n)]
                m[rng.randrange(n)][rng.randrange(n)] = random_entry_poly(rng, 7)
                if n > 3:
                    m[2][:3] = list(m[0][:3])  # the 3 x 3 block cancels to 0
                self.assert_matches(m, [rng.choice((1, -1)) for _ in range(n)])

    def test_empty_matrix(self):
        assert list(leading_minor_residues([], [])) == []
        assert type(det_cofactor([])) is int and det_cofactor([]) == 1

    def test_size_guard_and_errors_are_det_cofactor_s(self, monkeypatch):
        one = Factored(1, ())
        eye9 = [[int(i == j) for j in range(9)] for i in range(9)]
        with pytest.raises(SizeGuardError):
            leading_minor_residues(eye9, [one] * 9)  # refused at the call
        a = LaurentPoly.variable("a")
        bad = [[a, Fraction(1, 2)], [1, a]]
        with pytest.raises(TypeError) as expected:
            det_cofactor(bad)
        with pytest.raises(TypeError) as raised:
            leading_minor_residues(bad, [one] * 2)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError, match="square"):
            leading_minor_residues([[1, 2], [3]], [one] * 2)

        def no_expansion(*args):
            raise AssertionError("expanded before the formula count was checked")

        monkeypatch.setattr(determinant_engine, "_expand_minors", no_expansion)
        with pytest.raises(ValueError, match=r"^need 2 formulas, got 1$"):
            leading_minor_residues([[1, 2], [3, 4]], [one])

    def test_memo_is_freed_without_the_cycle_collector(self):
        matrix = theorem_matrix(3, 6)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            residues = leading_minor_residues(matrix, [Factored(1, ())] * 6)
            assert gc.collect() == 0  # freed before the first residue is formed
            assert len(list(residues)) == 6
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestDetBareiss:
    def test_identity_matrices(self):
        for n in range(1, 21):
            eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            assert det_bareiss_rational(eye) == 1

    def test_empty_matrix(self):
        assert det_bareiss_rational([]) == 1

    def test_repeated_row_is_singular(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = random_fraction_matrix(rng, n)
            m[n - 1] = list(m[0])
            assert det_bareiss_rational(m) == 0

    def test_zero_pivot_row_swaps(self):
        assert det_bareiss_rational([[0, 1], [1, 0]]) == -1
        assert det_bareiss_rational([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert det_bareiss_rational([[0, 0], [0, 1]]) == 0

    def test_specialized_matrix_agrees_with_cofactor(self):
        m = numeric_theorem_matrix(1, 4, (16, -1, -1, -1, -1))
        assert det_bareiss_rational(m) == Fraction(det_cofactor(m))

    def test_row_scaling_multilinearity(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = random_fraction_matrix(rng, n)
            base = det_bareiss_rational(m)
            row = rng.randrange(n)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            scaled = [list(r) for r in m]
            scaled[row] = [scale * v for v in scaled[row]]
            assert det_bareiss_rational(scaled) == scale * base


class TestBareissContentRemoval:
    """The integer elimination on primitive rows against the Fraction reference."""

    def test_matches_fraction_reference(self):
        rng = random.Random(4049)
        for n in range(1, 9):
            for _ in range(25):
                m = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
                     for _ in range(n)]
                value = det_bareiss_rational(m)
                assert type(value) is Fraction and value == fraction_bareiss(m)

    def test_matches_reference_with_large_contents(self):
        # rows and columns carrying big common factors, as a q-power matrix does
        rng = random.Random(8)
        for n in range(1, 9):
            m = random_fraction_matrix(rng, n)
            rows = [Fraction(rng.choice((-1, 1)) * 7 ** rng.randint(0, 20), 3 ** rng.randint(0, 20))
                    for _ in range(n)]
            cols = [Fraction(5 ** rng.randint(0, 20), rng.choice((-2, 2)) ** rng.randint(0, 20))
                    for _ in range(n)]
            scaled = [[rows[i] * m[i][j] * cols[j] for j in range(n)] for i in range(n)]
            assert det_bareiss_rational(scaled) == fraction_bareiss(scaled)

    def test_zero_row_or_column(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for _ in range(5):
                m = random_fraction_matrix(rng, n)
                k = rng.randrange(n)
                with_row = [list(r) for r in m]
                with_row[k] = [Fraction(0)] * n
                with_col = [list(r) for r in m]
                for row in with_col:
                    row[k] = 0
                assert det_bareiss_rational(with_row) == 0
                assert det_bareiss_rational(with_col) == 0

    def test_negative_and_all_equal_content(self):
        assert det_bareiss_rational([[Fraction(-3, 7)]]) == Fraction(-3, 7)
        for n in range(2, 6):
            assert det_bareiss_rational([[Fraction(-3, 7)] * n for _ in range(n)]) == 0
        m = [[-6, -4], [-9, -3]]  # row contents -2 and -3 with a negative sign each
        assert det_bareiss_rational(m) == 18 - 36
        rng = random.Random(77)
        for n in range(1, 7):
            m = random_fraction_matrix(rng, n)
            negated = [[-(i + 2) * v / 5 for v in row] for i, row in enumerate(m)]
            assert det_bareiss_rational(negated) == fraction_bareiss(negated)

    def test_pivot_swap_after_content_removal(self):
        # the leading 2x2 block [[2, 4], [3, 6]] is singular, so the second
        # pivot is zero after one step and rows must be swapped
        base = [[2, 4, 6], [3, 6, 1], [5, 7, 11]]
        assert fraction_bareiss(base) == det_cofactor(base) != 0
        rows = (Fraction(7, 3), Fraction(-10, 9), Fraction(4, 25))
        m = [[rows[i] * v for v in row] for i, row in enumerate(base)]
        assert det_bareiss_rational(m) == rows[0] * rows[1] * rows[2] * det_cofactor(base)
        m = [[0, 6, 4], [3, 9, 0], [5, 0, 10]]  # zero first pivot
        assert det_bareiss_rational(m) == det_cofactor(m) == fraction_bareiss(m)

    def test_int_fraction_and_float_entries(self):
        ints = [[4, -2, 6], [1, 3, 5], [-7, 0, 2]]
        assert det_bareiss_rational(ints) == det_cofactor(ints)
        floats = [[0.5, 0.25, -1.5], [2.0, 0.1, 3.0], [-0.75, 1.0, 0.3]]
        assert det_bareiss_rational(floats) == fraction_bareiss(floats)
        mixed = [[1, Fraction(1, 3), 0.5], [Fraction(-2, 7), 4, 0.125], [3, 0.1, Fraction(5, 2)]]
        value = det_bareiss_rational(mixed)
        assert type(value) is Fraction and value == fraction_bareiss(mixed)

    @pytest.mark.parametrize("k,sizes", ((2, range(9, 21)), (3, range(9, 13))))
    def test_theorem_matrices_at_integer_and_rational_points(self, k, sizes):
        points = (sample_point(3, 0),
                  (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(7, 5), Fraction(-4, 3)))
        for n in sizes:
            matrix = theorem_matrix(k, n)
            formula = theorem(k, n)
            for pt in points:
                assert det_bareiss_rational(numeric_matrix(matrix, pt)) == formula.evaluate(pt), \
                    (k, n, pt)


def leading_blocks(matrix):
    return [[row[:k] for row in matrix[:k]] for k in range(1, len(matrix) + 1)]


def count_bareiss_sizes(monkeypatch):
    """Record the size of every det_bareiss_rational call."""
    sizes = []
    real = determinant_engine.det_bareiss_rational

    def counted(matrix):
        sizes.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(determinant_engine, "det_bareiss_rational", counted)
    return sizes


class TestLeadingMinors:
    def test_matches_each_leading_block(self):
        rng = random.Random(311)
        for n in range(1, 9):
            for _ in range(10):
                m = random_fraction_matrix(rng, n)
                rows = [Fraction(7 ** rng.randint(0, 12),
                                 rng.choice((-3, 3)) ** rng.randint(0, 12)) for _ in range(n)]
                scaled = [[rows[i] * v for v in row] for i, row in enumerate(m)]
                for matrix in (m, scaled):
                    minors = leading_minors(matrix)
                    assert all(type(v) is Fraction for v in minors)
                    assert minors == [det_bareiss_rational(b) for b in leading_blocks(matrix)]

    def test_empty_and_int_and_float_entries(self):
        assert leading_minors([]) == []
        assert leading_minors([[4, -2], [1, 3]]) == [4, 14]
        assert leading_minors([[0.5, 0.25], [2.0, 0.1]]) == [
            Fraction(0.5), Fraction(0.5) * Fraction(0.1) - Fraction(0.25) * Fraction(2.0)]

    def test_zero_pivot_makes_no_block_call(self, monkeypatch):
        sizes = count_bareiss_sizes(monkeypatch)
        assert leading_minors([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == [0, -1, -5]
        # a zero row: the minors from its size on are 0
        assert leading_minors([[2, 1, 1], [0, 0, 0], [1, 1, 3]]) == [2, 0, 0]
        assert sizes == []

    # Nearest-row pivoting against per-block cofactor expansion, which shares
    # no pivot rule with the elimination.
    @staticmethod
    def assert_per_block_minors(m):
        minors = leading_minors(m)
        assert minors == [det_cofactor(b) for b in leading_blocks(m)], m
        assert det_bareiss_rational(m) == minors[-1]
        return minors

    def test_every_01_matrix_of_size_3(self):
        for bits in range(1 << 9):
            self.assert_per_block_minors([[bits >> (3 * i + j) & 1 for j in range(3)]
                                          for i in range(3)])

    def test_random_sparse_sign_matrices(self):
        rng = random.Random(2024)
        inner_zero = 0
        for _ in range(2000):
            n = rng.randint(1, 8)
            minors = self.assert_per_block_minors(
                [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(n)])
            inner_zero += 0 in minors[:-1]
        assert inner_zero > 1000  # most of them meet a zero pivot before the last

    def test_second_swap_reaches_past_the_first(self):
        # step 0 swaps rows 0 and 2, and step 1 then swaps rows 1 and 3
        m = [[0, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]
        assert self.assert_per_block_minors(m) == [0, 0, 0, 1]

    def test_zero_column_and_zero_row(self):
        assert self.assert_per_block_minors([[1, 0, 2], [3, 0, 4], [5, 0, 6]]) == [1, 0, 0]
        assert self.assert_per_block_minors([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == [0, 0, 0]
        assert self.assert_per_block_minors([[1, 2, 3], [4, 5, 6], [0, 0, 0]]) == [1, -3, 0]
        assert self.assert_per_block_minors([[0, 0, 0], [0, 1, 2], [3, 4, 5]]) == [0, 0, 0]

    def test_no_bareiss_call_without_a_zero_pivot(self, monkeypatch):
        sizes = count_bareiss_sizes(monkeypatch)
        matrix = shell_ordered(numeric_theorem_matrix(2, 16, sample_point(0, 0)))
        assert 0 not in leading_minors(matrix) and sizes == []

    @pytest.mark.parametrize("k,n", ((1, 30), (2, 20), (3, 14)))
    def test_signed_minors_are_every_size_determinant(self, k, n):
        for t in range(3):
            point = sample_point(0, t)
            minors = leading_minors(shell_ordered(numeric_theorem_matrix(k, n, point)))
            for size in range(1, n + 1):
                own = det_bareiss_rational(numeric_theorem_matrix(k, size, point))
                assert minors[size - 1] == own == \
                    theorem(k, size).evaluate(point), (t, size)

    # Named points whose elimination meets a zero pivot: theorem 1 at seed 45,
    # trial 3 has a zero 15th leading minor, and theorem 3 at seed 11, trial 0
    # has x = -1, so [x] = 0 and every minor from the 2nd on is 0.
    @pytest.mark.parametrize("k,n,seed,trial,zero_at", ((1, 16, 45, 3, 15), (3, 12, 11, 0, 2)))
    def test_named_zero_pivots_no_block_call(self, k, n, seed, trial, zero_at, monkeypatch):
        point = sample_point(seed, trial)
        matrix = shell_ordered(numeric_theorem_matrix(k, n, point))
        sizes = count_bareiss_sizes(monkeypatch)
        minors = leading_minors(matrix)
        assert 0 not in minors[:zero_at - 1] and minors[zero_at - 1] == 0
        assert sizes == []
        for size in range(1, n + 1):
            assert minors[size - 1] == theorem(k, size).evaluate(point) == \
                det_bareiss_rational(numeric_theorem_matrix(k, size, point)), size


def small_prime_product(rng, most):
    return math.prod(rng.choice((2, 3, 5, 7)) for _ in range(rng.randint(0, most)))


def planted_matrix(rng, n, number):
    """A random matrix with a zero pivot, whose eliminated rows carry contents.

    M = L*W, with W = [[U, X], [0, T]], U upper triangular k x k with a
    nonzero diagonal, and L unit lower triangular with the identity as its
    lower-right block.  Gaussian elimination then reaches T's rows at step
    k.  Each is scaled by a product of small primes, and T[0][0] = 0, so the
    leading (k+1) x (k+1) block is singular and step k swaps rows; T's own
    zeros make more such steps.  Last, every row and column of M is scaled
    by a product of small primes (by a ratio of two such products when
    ``number`` is Fraction).
    """
    k = rng.randrange(n)

    def entry():
        return rng.choice((-2, -1, 0, 1, 3))

    w = [[rng.choice((-2, -1, 1, 3)) if i == j < k else entry() if j >= min(i, k) else 0
          for j in range(n)] for i in range(n)]
    w[k][k] = 0
    for i in range(k, n):
        w[i] = [small_prime_product(rng, 4) * v for v in w[i]]
    lower = [[entry() if j < min(i, k) else int(i == j) for j in range(n)] for i in range(n)]
    product = [[sum(lower[i][t] * w[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    def content():
        value = rng.choice((-1, 1)) * small_prime_product(rng, 6)
        return value if number is int else Fraction(value, small_prime_product(rng, 3))

    rows, cols = [content() for _ in range(n)], [content() for _ in range(n)]
    return [[rows[i] * product[i][j] * cols[j] for j in range(n)] for i in range(n)]


def integer_bareiss_rows(m):
    """Reference: Bareiss's rows k+1.. on columns k+1.. after each step k, without pivoting."""
    m = [list(row) for row in m]
    prev = 1
    for k in range(len(m) - 1):
        pivot = m[k][k]
        assert pivot
        for row in m[k + 1:]:
            head = row[k]
            row[k + 1:] = [(pivot * a - head * b) // prev for a, b in zip(row[k + 1:], m[k][k + 1:])]
        prev = pivot
        yield [row[k + 1:] for row in m[k + 1:]]


def gaussian_steps(m):
    """Reference: the Fraction matrix at each step k, after its nearest-row swap.

    Rows k.. on columns k.. are the Gaussian (Schur-complement) rows.  It
    stops where no row has a nonzero entry in the pivot column.
    """
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return
            m[k], m[i] = m[i], m[k]
        yield m
        for row in m[k + 1:]:
            factor = row[k] / m[k][k]
            row[k + 1:] = [a - factor * b for a, b in zip(row[k + 1:], m[k][k + 1:])]


class TestPrimitiveRows:
    """The elimination on primitive rows behind ``leading_minors`` and ``det_bareiss_rational``."""

    @staticmethod
    def planted_cases(seed, sizes, count):
        rng = random.Random(seed)
        for n in sizes:
            for number in (int, Fraction):
                for _ in range(count):
                    yield planted_matrix(rng, n, number)

    def test_planted_contents_against_per_block_cofactor(self):
        inner_zero = 0
        for m in self.planted_cases(3301, range(1, 9), 40):
            minors = leading_minors(m)
            assert minors == [det_cofactor(b) for b in leading_blocks(m)], m
            assert det_bareiss_rational(m) == minors[-1]
            inner_zero += 0 in minors[:-1] and minors[-1] != 0
        assert inner_zero > 300  # a singular leading block before a regular whole

    def test_planted_contents_against_fraction_bareiss(self):
        for m in self.planted_cases(3302, range(9, 15), 3):
            assert leading_minors(m) == [fraction_bareiss(b) for b in leading_blocks(m)], m

    def test_rows_are_their_scales_times_their_gaussian_rows(self):
        # at every step, after the swap: each row on the columns still to be
        # eliminated is primitive and is scale[i] times its Gaussian row
        unequal = 0
        for m in self.planted_cases(3304, range(2, 9), 10):
            rows = determinant_engine._cleared_rows(m)[0]
            reference = gaussian_steps([list(row) for row in rows])
            steps = determinant_engine._primitive_minors(rows)
            for k, (_, gaussian) in enumerate(zip(steps, reference)):
                scale = [Fraction(*pair) for pair in steps.gi_frame.f_locals["scale"]]
                unequal += len(set(scale[k:])) > 1  # the rows' scales differ
                for i in range(k, len(rows)):
                    assert math.gcd(*rows[i][k:]) in (0, 1)
                    assert rows[i][k:] == [scale[i] * v for v in gaussian[i][k:]], (m, k, i)
        assert unequal > 100

    def test_swapped_rows_keep_their_scales(self):
        # step 0 multiplies rows 1 and 2 by the pivot 4 over a gcd, and skips
        # row 3, whose head is 0; step 1 swaps rows 1 and 3, whose scales
        # then differ by 4, and the minors after it depend on which is which
        m = [[4, 0, 5, 0], [-1, 0, 0, 2], [6, 0, 0, 0], [0, 2, 0, 0]]
        assert leading_minors(m) == [det_cofactor(b) for b in leading_blocks(m)] == [4, 0, 0, 120]

    def test_raw_rows_are_made_primitive_before_the_first_step(self):
        # the elimination alone, on int rows that still carry their contents:
        # it divides them out itself, with each row's scale starting at 1/content
        rng = random.Random(3305)
        carried = 0
        for n in range(1, 9):
            for _ in range(20):
                m = planted_matrix(rng, n, int)
                carried += sum(math.gcd(*row) > 1 for row in m)
                rows = [list(row) for row in m]
                steps = determinant_engine._primitive_minors(rows)
                first = next(steps)
                assert all(math.gcd(*row) in (0, 1) for row in rows), m
                assert [first, *steps] == [det_cofactor(b) for b in leading_blocks(m)], m
        assert carried > 500

    @pytest.mark.parametrize("k,n", ((2, 40), (3, 24)))
    def test_every_leading_minor_of_a_large_spiral_is_its_formula(self, k, n):
        rational = (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(7, 5), Fraction(-4, 3))
        for point in (sample_point(0, 0), rational):
            minors = leading_minors(shell_ordered(numeric_theorem_matrix(k, n, point)))
            assert 0 not in minors
            assert minors == [theorem(k, size).evaluate(point) for size in range(1, n + 1)], point

    @pytest.mark.parametrize("k,n", ((1, 12), (2, 12), (3, 10)))
    def test_each_row_is_primitive_and_divides_bareiss_s_row(self, k, n):
        # without a zero pivot, step by step: every eliminated row is primitive
        # and Bareiss's row is an integer multiple of it, so no entry is larger
        rng = random.Random(3303)
        matrices = [shell_ordered(numeric_theorem_matrix(k, n, sample_point(0, 1)))] + [
            [[rng.randint(-99, 99) * rng.choice((1, 6, 35)) for _ in range(n)] for _ in range(n)]
            for _ in range(5)]
        for matrix in matrices:
            m = determinant_engine._cleared_rows(matrix)[0]
            rows = [list(row) for row in m]
            steps = determinant_engine._primitive_minors(rows)
            assert next(steps)
            for step, bareiss in enumerate(integer_bareiss_rows(m)):
                assert next(steps)  # the elimination's step has now run
                for row, theirs in zip((row[step + 1:] for row in rows[step + 1:]), bareiss):
                    assert math.gcd(*row) == 1
                    j = next(j for j, v in enumerate(row) if v)
                    assert theirs == [theirs[j] // row[j] * v for v in row]


class TestShellOrderedBlocks:
    """Each leading block of the shell-ordered spiral against that size's own matrix.

    Engine against engine, with no closed form: the block's determinant must
    be the size-k spiral's exactly, sign included.
    """

    @pytest.mark.parametrize("top", (7, 8))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_symbolic_blocks(self, k, top):
        grid = theorem_matrix(k, top)
        blocks = leading_blocks(shell_ordered(grid))
        assert grid == theorem_matrix(k, top)  # the rows are negated in a copy
        for size, block in enumerate(blocks, start=1):
            assert det_cofactor(block) == det_cofactor(theorem_matrix(k, size)), size

    @pytest.mark.parametrize("top", (9, 10, 11, 12))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_numeric_blocks(self, k, top):
        point = sample_point(5, top)
        grid = numeric_theorem_matrix(k, top, point)
        minors = leading_minors(shell_ordered(grid))
        assert grid == numeric_theorem_matrix(k, top, point)
        assert 0 not in minors
        assert minors == [det_bareiss_rational(numeric_theorem_matrix(k, size, point))
                          for size in range(1, top + 1)]


class TestIntWalk:
    """The walk's cells, ints at an integral point, against the same matrix as Fractions."""

    INTEGRAL = (sample_point(0, 0), sample_point(60493, 1))
    RATIONAL = ((Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(7, 5), Fraction(-4, 3)),)
    MIXED = ((-3, Fraction(5, 2), 7, Fraction(-2, 9), 4),)
    # theorems 1 and 2 take a zero coordinate; theorem 3 refuses it on both paths
    ZEROS = ((0, -1, -1, -1, -1), (2, 0, -3, 5, 0))

    @staticmethod
    def minors_both_ways(k, n, point):
        walked = numeric_theorem_matrix(k, n, point)
        as_fractions = [[Fraction(v) for v in row] for row in walked]
        return (leading_minors(shell_ordered(walked)),
                leading_minors(shell_ordered(as_fractions)))

    @pytest.mark.parametrize("k", (1, 2))
    def test_theorems_1_and_2_walk_on_ints_to_40(self, k):
        for n in (1, 2, 9, 16, 27, 40):
            for point in self.INTEGRAL + self.ZEROS:
                assert all(type(v) is int for row in numeric_theorem_matrix(k, n, point)
                           for v in row)
            for point in self.INTEGRAL + self.RATIONAL + self.MIXED + self.ZEROS:
                ints, fractions = self.minors_both_ways(k, n, point)
                assert all(type(v) is Fraction for v in ints)
                assert ints == fractions, (k, n, point)

    def test_theorem_3_keeps_fraction_cells_to_24(self):
        for n in (1, 2, 9, 24):
            points = self.INTEGRAL + self.RATIONAL + self.MIXED if n < 24 else self.INTEGRAL[:1]
            for point in points:
                assert all(type(v) is Fraction
                           for row in numeric_theorem_matrix(3, n, point) for v in row)
                ints, fractions = self.minors_both_ways(3, n, point)
                assert ints == fractions, (n, point)
            for point in self.ZEROS:
                if n == 1 and point[0]:  # the one cell is a - 1/a
                    continue
                with pytest.raises(ZeroCoordinateError):
                    numeric_theorem_matrix(3, n, point)

    def test_zero_point_minors_are_their_formulas(self):
        # theorem 1 at a = 0 starts on a zero pivot and swaps; theorem 2's
        # minors from size 2 on are 0 at a zero coordinate
        for k in (1, 2):
            for point in self.ZEROS:
                minors = leading_minors(shell_ordered(numeric_theorem_matrix(k, 12, point)))
                assert minors == [theorem(k, n).evaluate(point) for n in range(1, 13)]

    def test_int_rows_give_the_fraction_rows_triple(self):
        rng = random.Random(3205)
        kinds = set()
        for n in range(1, 10):
            for _ in range(30):
                common = rng.choice((1, 1, 2, 6, 35, 2 ** 70))
                m = [[common * rng.choice((0, 1, -1)) * rng.randint(0, 50) for _ in range(n)]
                     for _ in range(n)]
                if rng.random() < 0.3:
                    m[rng.randrange(n)] = [0] * n
                if rng.random() < 0.3:
                    j = rng.randrange(n)
                    for row in m:
                        row[j] = 0
                original = [list(row) for row in m]
                ints = determinant_engine._cleared_rows(m)
                fractions = determinant_engine._cleared_rows(
                    [[Fraction(v) for v in row] for row in m])
                assert ints == fractions == (original, [1] * n), m
                assert all(row is not copy for row, copy in zip(m, ints[0]))
                assert m == original  # the matrix is left unchanged
                kinds.update("zero row" if not any(row) else
                             "content 1" if math.gcd(*row) == 1 else "content > 1" for row in m)
                kinds.update("negative" for row in m if min(row) < 0)
        assert kinds == {"zero row", "content 1", "content > 1", "negative"}

    def test_mixed_rows(self):
        # an int row beside a Fraction row: each row takes its own route
        m = [[6, -4, 0], [Fraction(1, 2), Fraction(3, 4), 1], [0, 0, 0]]
        assert determinant_engine._cleared_rows(m) == determinant_engine._cleared_rows(
            [[Fraction(v) for v in row] for row in m]) == ([[6, -4, 0], [2, 3, 4], [0, 0, 0]],
                                                           [1, 4, 1])


class TestVerifyIdentity:
    def test_additive_3_against_formula(self):
        matrix = [[f.to_poly() for f in row] for row in build_additive(3)]
        report = verify_identity(lambda pt: numeric_matrix(matrix, pt),
                                 thm1_odd(1), trials=20, seed=42)
        assert report.failures == 0 and report.trials == 20

    def test_identical_sides_never_fail(self):
        p = thm1_odd(1)
        report = verify_identity(lambda pt: [[evaluate(p, pt)]], p, trials=10, seed=0)
        assert report.failures == 0

    def test_constant_perturbation_always_fails(self):
        p = thm1_odd(1)
        report = verify_identity(lambda pt: [[evaluate(p, pt)]], p + 1, trials=10, seed=0)
        assert report.failures == 10
        assert len(report.witnesses) == 10

    def test_deterministic_given_seed(self):
        p = thm1_odd(1)
        runs = [verify_identity(lambda pt: [[evaluate(p, pt)]], p + 1, 5, seed=9)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_point_sampling_range(self):
        for t in range(200):
            pt = sample_point(123, t)
            assert all(v != 0 and -50 <= v <= 50 for v in pt)

    def test_point_sampling_reaches_both_ends(self):
        values = {v for t in range(400) for v in sample_point(7, t)}
        assert min(values) == -50 and max(values) == 50 and 0 not in values

    def test_failures_count_the_witnesses(self):
        witness = Witness((1, 2, 3, 4, 5), 1, 2)
        assert VerificationReport(4, 3, ()).failures == 0
        report = VerificationReport(4, 3, (witness, witness))
        assert report.failures == 2 and report.to_json_dict()["failures"] == 2

    def test_factored_rhs_catches_a_wrong_sign(self):
        matrix = build_bracket_xx(9)
        formula = theorem(3, 9)
        report = verify_identity(lambda pt: numeric_matrix(matrix, pt), formula, 2, seed=5)
        assert report.failures == 0
        negated = Factored(-formula.sign, formula.factors)
        wrong = verify_identity(lambda pt: numeric_matrix(matrix, pt), negated, 2, seed=5)
        # the negation differs from the truth wherever the truth is nonzero
        assert wrong.failures == sum(formula.evaluate(sample_point(5, t)) != 0 for t in range(2))
        assert wrong.failures > 0

    def test_json_shape(self):
        p = thm1_odd(1)
        report = verify_identity(lambda pt: [[evaluate(p, pt)]], p + 1, 2, seed=3)
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert blob["failures"] == 2 and blob["seed"] == 3 and blob["trials"] == 2
        assert len(blob["witnesses"]) == 2
        assert set(blob["witnesses"][0]) == {"point", "lhs", "rhs"}


class TestRandomizedReports:
    def test_one_report_per_pair_with_a_witness_per_failed_trial(self):
        p = thm1_odd(1)

        def sides(point):
            value = evaluate(p, point)
            yield value, evaluate(p, point)
            yield value, value + 1

        true, false = randomized_reports(sides, 4, seed=17)
        assert (true.seed, true.trials, true.witnesses) == (17, 4, ())
        assert (false.seed, false.trials, false.failures) == (17, 4, 4)
        for t, witness in enumerate(false.witnesses):
            point = sample_point(17, t)
            assert witness == Witness(point, evaluate(p, point), evaluate(p, point) + 1)

    def test_witnesses_keep_only_the_failed_trials(self):
        # a pair that fails only at odd trials keeps those points, in order
        trial = iter(range(6))
        reports = randomized_reports(lambda point: [(next(trial) % 2, 0)], 6, seed=2)
        assert [w.point for w in reports[0].witnesses] == [sample_point(2, t) for t in (1, 3, 5)]

    def test_no_pairs_give_no_reports(self):
        assert randomized_reports(lambda point: [], 3, seed=0) == []

    @pytest.mark.parametrize("trials,seed,error,name", (
        (0, 0, ValueError, "trials must be >= 1"),
        (-2, 0, ValueError, "trials must be >= 1"),
        (2.0, 0, TypeError, "trials must be an int"),
        (True, 0, TypeError, "trials must be an int"),
        (1, "0", TypeError, "seed must be an int"),
        (1, 1.0, TypeError, "seed must be an int")))
    def test_arguments_refused_before_any_trial(self, trials, seed, error, name):
        calls = []

        def sides(point):
            calls.append(point)
            return [(0, 0)]

        with pytest.raises(error, match=name):
            randomized_reports(sides, trials, seed)
        assert calls == []

    @pytest.mark.parametrize("counts", ((1, 2), (2, 1), (0, 1)))
    def test_changing_pair_count_raises(self, counts):
        trial = iter(counts)
        with pytest.raises(ValueError):
            randomized_reports(lambda point: [(0, 0)] * next(trial), 2, seed=0)

    def test_verify_identity_is_the_one_pair_case(self):
        p = thm1_odd(1)
        report = verify_identity(lambda pt: [[evaluate(p, pt)]], p + 1, 3, seed=8)
        assert [report] == randomized_reports(
            lambda pt: [(det_bareiss_rational([[evaluate(p, pt)]]), evaluate(p + 1, pt))], 3, 8)

    def test_witness_json_is_the_report_record(self):
        witness = Witness((1, -2, 3, 4, 5), Fraction(7, 3), 2)
        assert witness.to_json_dict() == {"point": ["1", "-2", "3", "4", "5"],
                                          "lhs": "7/3", "rhs": "2"}
        report = VerificationReport(0, 1, (witness,))
        assert report.to_json_dict()["witnesses"] == [witness.to_json_dict()]


class TestHalfExponentRefusal:
    """A coordinate is its variable's value, so a half-integer power has none."""

    @staticmethod
    def doubled_increments():
        # a 4x4 spiral's up and down increments, each exponent doubled
        rng = random.Random(1)
        counts = step_counts(4)

        def monomials(count):
            return tuple(tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(count))

        return monomials(counts["up"]), monomials(counts["down"])

    def test_true_identity_is_refused_not_failed(self):
        # reading a coordinate as a square root in some entries and as a
        # value in others once failed this true identity on all 5 trials;
        # a half-integer increment is now refused before any check runs
        ups, downs = self.doubled_increments()
        half = [tuple(Fraction(d, 2) for d in vec) for vec in ups]
        assert any(e.denominator == 2 for vec in half for e in vec)
        with pytest.raises(TypeError, match="exponents must be ints"):
            build_generalized_bracket(4, half, downs)

    def test_identity_holds_at_the_squares(self):
        # with every exponent doubled the point's coordinates act as square
        # roots of the variables, and the identity passes: the centre a and
        # the horizontal step x become a^2 and x^2
        ups, downs = self.doubled_increments()
        x2 = repeat(exponents(x=2))
        grid = spiral_builder._walk(4, exponents(a=2), x2, ups, x2, downs)
        z = [[bracket(vec) for vec in row] for row in grid]
        report = verify_identity(lambda pt: numeric_matrix(z, pt), det_cofactor(z), 5, 0)
        assert report.failures == 0 and report.trials == 5

    def test_numeric_matrix_refuses_a_half_exponent_entry(self):
        x = LaurentPoly.variable("x")
        with pytest.raises(TypeError, match="exponents must be ints"):
            matrix = [[x, bracket(exponents(c=Fraction(3, 2)))], [LaurentPoly.one(), x]]
            numeric_matrix(matrix, (1, 2, 3, 4, 5))



class TestWedgeElimination:
    def test_even_4_factorization(self):
        z = build_bracket_xx(4)
        transformed, fac = wedge_eliminate_even(z)
        assert fac.product() == det_cofactor(z)
        # corner = [a^2 b^5 c^4 x^12][x] in closed form
        assert fac.corner_factor == bracket(exponents(a=2, b=5, c=4, x=12)) * bracket(
            exponents(x=1))
        first, second = antidiagonal_entry_formulas(2, 1)
        assert fac.antidiagonal_factors == (first, second)

    def test_even_6_factorization(self):
        z = build_bracket_xx(6)
        _, fac = wedge_eliminate_even(z)
        assert fac.product() == det_cofactor(z)
        # antidiagonal entries row by row: first(k=2), first(1), second(1), second(2)
        f2 = antidiagonal_entry_formulas(3, 2)
        f1 = antidiagonal_entry_formulas(3, 1)
        assert fac.antidiagonal_factors == (f2[0], f1[0], f1[1], f2[1])

    def test_even_2_trivial(self):
        z = build_bracket_xx(2)
        _, fac = wedge_eliminate_even(z)
        assert fac.sign == 1 and fac.antidiagonal_factors == ()
        assert fac.product() == det_cofactor(z)

    def test_odd_sizes(self):
        for n, expected in ((3, thm3_odd(1)), (5, thm3_odd(2))):
            z = build_bracket_xx(n)
            _, fac = wedge_eliminate_odd(z)
            assert fac.product() == det_cofactor(z) == expected

    @pytest.mark.parametrize("size", range(1, 12))
    def test_product_equals_theorem_3(self, size):
        # the zero map claims no antidiagonal cell at either parity
        # (TestZeroMap), so odd sizes read off theorem 3 as even ones do
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        expected = (thm3_odd if size % 2 else thm3_even)(size // 2)
        _, fac = eliminate(build_bracket_xx(size))
        assert fac.product() == expected

    def test_odd_1_single_entry(self):
        z = build_bracket_xx(1)
        _, fac = wedge_eliminate_odd(z)
        assert fac.sign == 1
        assert fac.corner_factor == z[0][0]
        assert fac.antidiagonal_factors == ()

    def test_unequal_horizontal_multipliers_rejected(self):
        with pytest.raises(WedgeNotZeroError) as excinfo:
            wedge_eliminate_even(build_bracket(4))
        assert 1 <= excinfo.value.row <= 4 and 3 <= excinfo.value.col <= 4
        with pytest.raises(WedgeNotZeroError) as excinfo:
            wedge_eliminate_odd(build_bracket(5))
        # the horizontal multipliers differ above the centre, so an upper
        # wedge cell fails first; no cell of columns 1-2 is ever claimed
        n, _ = centre_cell(5)
        assert 1 <= excinfo.value.row <= n and excinfo.value.col >= 3

    def test_column_operations_preserve_determinant(self):
        for n in (3, 4, 5):
            z = build_bracket_xx(n)
            eliminate = wedge_eliminate_even if n % 2 == 0 else wedge_eliminate_odd
            transformed, _ = eliminate(z)
            assert det_cofactor(transformed) == det_cofactor(z)

    def test_size_parity_validation(self):
        with pytest.raises(ValueError):
            wedge_eliminate_even(build_bracket_xx(3))
        with pytest.raises(ValueError):
            wedge_eliminate_odd(build_bracket_xx(4))

    @pytest.mark.parametrize("size", range(2, 41))
    def test_factorization_is_theorem_3_regrouped(self, size):
        # the corner is theorem 3's head times the first run bracket [x]; the
        # antidiagonal pairs run bracket 2k with angle k for k = n-1..1, then
        # reads the paired factors in order
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        _, fac = eliminate(build_bracket_xx(size))
        f = theorem(3, size)
        n, _ = centre_cell(size)
        runs, angles, paired = f.factors[1:n + 1], f.factors[n + 1:2 * n], f.factors[2 * n:]
        assert fac.sign == f.sign
        assert fac.corner_factor == f.factors[0] * f.factors[1]
        assert fac.antidiagonal_factors == tuple(
            runs[k] * angles[k - 1] for k in range(n - 1, 0, -1)) + tuple(paired)


def perfect_matchings(rows, cols, allowed):
    """Number of perfect matchings of rows onto cols using only allowed cells."""
    count = {0: 1}
    for i in rows:
        step = {}
        for mask, ways in count.items():
            for k, j in enumerate(cols):
                if not mask >> k & 1 and (i, j) in allowed:
                    step[mask | 1 << k] = step.get(mask | 1 << k, 0) + ways
        count = step
    return sum(count.values())


class TestZeroMap:
    """The cells the elimination checks are enough for the readout."""

    @pytest.mark.parametrize("size", range(3, 14))
    def test_cells_imply_the_readout(self, size):
        # rows 1 and N vanish from column 3 on, so the determinant is the
        # corner times the middle block's; the middle block has one perfect
        # matching left, its antidiagonal, so its determinant is that product
        zero = set(_zero_cells(size))
        assert {(i, j) for i in (1, size) for j in range(3, size + 1)} <= zero
        assert all(j >= 3 for _, j in zero)
        middle_rows, middle_cols = range(2, size), range(3, size + 1)
        allowed = {(i, j) for i in middle_rows for j in middle_cols} - zero
        assert perfect_matchings(middle_rows, middle_cols, allowed) == 1
        assert all((i, size + 2 - i) in allowed for i in middle_rows)

    @pytest.mark.parametrize("size", range(3, 16))
    def test_middle_block_keeps_cells_off_its_antidiagonal(self, size):
        # every cell of the zero map vanishes, and every other cell of the
        # middle block off its antidiagonal stays nonzero: (N-2)(N-3)/2 of them
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        t, _ = eliminate(build_bracket_xx(size))
        zero = set(_zero_cells(size))
        assert not any(t[i - 1][j - 1] for i, j in zero)
        off = {(i, j) for i in range(2, size) for j in range(3, size + 1) if j != size + 2 - i}
        nonzero = {(i, j) for i, j in off if t[i - 1][j - 1]}
        assert nonzero == off - zero
        assert len(nonzero) == (size - 2) * (size - 3) // 2
        if size == 8:
            assert len(nonzero) == 15 and {(3, 3), (3, 8)} <= nonzero

    @pytest.mark.parametrize("size", range(2, 39, 2))
    def test_even_sizes_keep_the_per_parity_map(self, size):
        assert list(_zero_cells(size)) == list(even_zero_cells(size // 2))


class TestMirroredReference:
    """The odd-size routine reads off what the paper's mirrored operation reads off."""

    @pytest.mark.parametrize("size", range(3, 12, 2))
    def test_bracket_spiral(self, size):
        z = build_bracket_xx(size)
        assert readout(wedge_eliminate_odd(z)[1]) == mirrored_wedge_eliminate_odd(z)

    @pytest.mark.parametrize("half", (False, True), ids=("integer", "half"))
    @pytest.mark.parametrize("size", range(3, 12, 2))
    def test_generalized_spirals(self, size, half):
        rng = random.Random(1200 + 2 * size + half)
        for _ in range(3):
            ups, downs = random_generalized_increments(rng, size)
            if half:
                # an increment exponent is an int, so halved ones are refused
                halved = tuple(tuple(Fraction(d, 2) for d in vec) for vec in ups)
                with pytest.raises(TypeError, match="exponents must be ints"):
                    build_generalized_bracket(size, halved, downs)
                continue
            z = build_generalized_bracket(size, ups, downs)
            assert readout(wedge_eliminate_odd(z)[1]) == mirrored_wedge_eliminate_odd(z)


class TestGeneralizedWedge:
    def test_random_increments_still_factor(self):
        # vertical increments are free; the horizontal-x relations alone
        # produce the wedges, so elimination succeeds and the product is exact
        rng = random.Random(6060)
        for n in (3, 4, 5):
            for _ in range(5):
                z = build_generalized_bracket(n, *random_generalized_increments(rng, n))
                eliminate = wedge_eliminate_even if n % 2 == 0 else wedge_eliminate_odd
                _, fac = eliminate(z)
                assert fac.product() == det_cofactor(z)

    @pytest.mark.parametrize("size", (7, 8))
    def test_product_equals_cofactor_past_the_index_pattern_change(self, size):
        rng = random.Random(7000 + size)
        z = build_generalized_bracket(size, *random_generalized_increments(rng, size))
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        _, fac = eliminate(z)
        assert fac.product() == det_cofactor(z)

    @pytest.mark.parametrize("size", range(2, 8))
    def test_left_steps_by_inverse_x_still_factor(self, size):
        # a horizontal run geometric with ratio 1/x instead of x keeps the wedges
        grid = spiral_builder._walk(size, spiral_builder._A, repeat(spiral_builder._X),
                                    repeat(spiral_builder._B), repeat(exponents(x=-1)),
                                    repeat(spiral_builder._C))
        z = [[bracket(vec) for vec in row] for row in grid]
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        _, fac = eliminate(z)
        assert fac.product() == det_cofactor(z)

    @pytest.mark.parametrize("size", (9, 10, 11))
    def test_numeric_determinants_beyond_the_symbolic_guard(self, size):
        # integer-exponent increments give integer-exponent factors, so the
        # product evaluates factor by factor
        rng = random.Random(9000 + size)
        z = build_generalized_bracket(size, *random_generalized_increments(rng, size))
        eliminate = wedge_eliminate_odd if size % 2 else wedge_eliminate_even
        transformed, fac = eliminate(z)
        product = Factored(fac.sign, (fac.corner_factor,) + fac.antidiagonal_factors)
        for t in range(2):
            pt = sample_point(3, t)  # no coordinate is +-1, so no bracket of x vanishes
            det_z = det_bareiss_rational(numeric_matrix(z, pt))
            assert det_z != 0
            assert det_bareiss_rational(numeric_matrix(transformed, pt)) == det_z
            assert product.evaluate(pt) == det_z


class TestAntidiagonalFormulas:
    def test_level_one_closed_forms(self):
        first, second = antidiagonal_entry_formulas(2, 1)
        assert first == bracket(exponents(b=1, c=1, x=3)) * angle(
            exponents(a=1, b=2, c=1, x=3))
        # the published [(bc)^(1/2) x^2] <a (bc)^(1/2) x>, in the squares of
        # the variables: every exponent doubled
        at_squares = LaurentPoly({tuple(2 * d for d in vec): c for vec, c in second.terms.items()})
        assert at_squares == bracket(exponents(b=1, c=1, x=4)) * angle(
            exponents(a=2, b=1, c=1, x=2))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            antidiagonal_entry_formulas(2, 0)
        with pytest.raises(IndexError):
            antidiagonal_entry_formulas(2, 2)
