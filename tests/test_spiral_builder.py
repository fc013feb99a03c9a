"""Tests for the spiral path and the matrix families, pinned to the standard displays."""

import random
from fractions import Fraction

import pytest

from spiraldet import spiral_builder
from spiraldet.closed_forms import qreduction_check, reduction, theorem, verify_reduction
from spiraldet.determinant_engine import numeric_matrix, sample_point, verify_identity
from spiraldet.exponent_algebra import LaurentPoly, ZeroCoordinateError, bracket, exponents
from spiraldet.funceq import FamilyKind, FamilySpec, check_relations, classify
from spiraldet.sequences import SequenceId, verify_sequence
from spiraldet.spiral_builder import (
    LengthMismatchError,
    build_additive,
    build_bracket,
    build_bracket_xx,
    build_generalized_bracket,
    build_qpower,
    centre_cell,
    matrix_to_json_dict,
    matrix_to_latex,
    matrix_to_text,
    numeric_theorem_matrix,
    shell_ordered,
    spiral_walk,
    step_counts,
    theorem_matrix,
)

# The canonical 4x4 and 5x5 additive displays, row by row.
M4_DISPLAY = [
    ["a+4b+2c+4x+5y", "a+4b+2c+4x+4y", "a+4b+2c+4x+3y", "a+4b+2c+4x+2y"],
    ["a+b+x+2y", "a+b+x+y", "a+b+x", "a+3b+2c+4x+2y"],
    ["a+b+c+x+2y", "a", "a+x", "a+2b+2c+4x+2y"],
    ["a+b+2c+x+2y", "a+b+2c+2x+2y", "a+b+2c+3x+2y", "a+b+2c+4x+2y"],
]

M5_DISPLAY = [
    ["a+4b+2c+4x+6y", "a+4b+2c+4x+5y", "a+4b+2c+4x+4y", "a+4b+2c+4x+3y", "a+4b+2c+4x+2y"],
    ["a+4b+3c+4x+6y", "a+b+x+2y", "a+b+x+y", "a+b+x", "a+3b+2c+4x+2y"],
    ["a+4b+4c+4x+6y", "a+b+c+x+2y", "a", "a+x", "a+2b+2c+4x+2y"],
    ["a+4b+5c+4x+6y", "a+b+2c+x+2y", "a+b+2c+2x+2y", "a+b+2c+3x+2y", "a+b+2c+4x+2y"],
    ["a+4b+6c+4x+6y", "a+4b+6c+5x+6y", "a+4b+6c+6x+6y", "a+4b+6c+7x+6y", "a+4b+6c+8x+6y"],
]

# The two classical integer spirals of size 4 and 5: 1..n^2 winding inwards
# (reached as a = n^2, b = c = x = y = -1) and winding outwards (all ones).
INWARD_4 = [[1, 2, 3, 4], [12, 13, 14, 5], [11, 16, 15, 6], [10, 9, 8, 7]]
INWARD_5 = [
    [1, 2, 3, 4, 5],
    [16, 17, 18, 19, 6],
    [15, 24, 25, 20, 7],
    [14, 23, 22, 21, 8],
    [13, 12, 11, 10, 9],
]
OUTWARD_4 = [[16, 15, 14, 13], [5, 4, 3, 12], [6, 1, 2, 11], [7, 8, 9, 10]]
OUTWARD_5 = [
    [17, 16, 15, 14, 13],
    [18, 5, 4, 3, 12],
    [19, 6, 1, 2, 11],
    [20, 7, 8, 9, 10],
    [21, 22, 23, 24, 25],
]


def step_counters(n):
    """Each additive cell's coefficients (e_b, e_c, e_x, e_y), as a grid."""
    return [[(f.e_b, f.e_c, f.e_x, f.e_y) for f in row] for row in build_additive(n)]


class TestPath:
    def test_centre_convention(self):
        assert centre_cell(5) == (2, 2)
        assert centre_cell(4) == (2, 1)

    def test_bijectivity_up_to_64(self):
        for n in range(1, 65):
            seen = {(r, c) for _, r, c in spiral_walk(n)}
            assert len(seen) == n * n
            assert all(0 <= r < n and 0 <= c < n for r, c in seen)

    def test_consecutive_cells_step_one_counter(self):
        exps = step_counters(7)
        cells = list(spiral_walk(7))
        for (_, r0, c0), (d, r1, c1) in zip(cells, cells[1:]):
            before, after = exps[r0][c0], exps[r1][c1]
            deltas = [y - x for x, y in zip(before, after)]
            assert sorted(deltas) == [0, 0, 0, 1]

    def test_exactly_one_centre_cell(self):
        for n in (1, 2, 5, 8):
            exps = step_counters(n)
            zeros = [(i, j) for i in range(n) for j in range(n)
                     if exps[i][j] == (0, 0, 0, 0)]
            assert zeros == [centre_cell(n)]

    def test_odd_nesting(self):
        # the centre-relative path of length (n-2)^2 is a prefix of the n^2 path
        for n in (3, 5, 7, 9):
            inner_centre, outer_centre = centre_cell(n - 2), centre_cell(n)
            inner = [(r - inner_centre[0], c - inner_centre[1])
                     for _, r, c in spiral_walk(n - 2)]
            outer = [(r - outer_centre[0], c - outer_centre[1])
                     for _, r, c in spiral_walk(n)]
            assert outer[:len(inner)] == inner


def inversion_sign(order):
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -1 if inversions % 2 else 1


class TestShellOrder:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_spiral_is_a_leading_block(self, n):
        # each label r*n + c + 1 names its cell and keeps the sign it is given
        ordered = shell_ordered([[r * n + c + 1 for c in range(n)] for r in range(n)])
        rows = [(abs(row[0]) - 1) // n for row in ordered]
        cols = [(abs(v) - 1) % n for v in ordered[0]]
        assert sorted(rows) == sorted(cols) == list(range(n))
        negated = [row[0] < 0 for row in ordered]
        assert ordered == [[(-1 if neg else 1) * (r * n + c + 1) for c in cols]
                           for r, neg in zip(rows, negated)]
        cells = [(r, c) for _, r, c in spiral_walk(n)]
        for k in range(1, n + 1):
            block = {(r, c) for r in rows[:k] for c in cols[:k]}
            assert len(set(cells[:k * k])) == k * k and set(cells[:k * k]) == block, k
            # the negated rows undo the sign of the two permutations
            assert (-1) ** sum(negated[:k]) == \
                inversion_sign(rows[:k]) * inversion_sign(cols[:k]), k

    def test_small_orders(self):
        assert shell_ordered([[7]]) == [[7]]
        # rows 2, 1, 3, 0 and columns 1, 2, 0, 3; the rows added at k = 2 and 4 negated
        assert shell_ordered([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12],
                              [13, 14, 15, 16]]) == [[10, 11, 9, 12], [-6, -7, -5, -8],
                                                     [14, 15, 13, 16], [-2, -3, -1, -4]]

    def test_empty_grid_is_empty(self):
        assert shell_ordered([]) == []

    @pytest.mark.parametrize("bad", ([[1, 2]], [[1], [2]], [[1, 2], [3]]),
                             ids=("wide", "tall", "ragged"))
    def test_refuses_a_grid_that_is_not_square(self, bad):
        with pytest.raises(ValueError, match="square"):
            shell_ordered(bad)


class TestSpiralExponents:
    def test_n1_single_cell(self):
        assert step_counters(1)[0][0] == (0, 0, 0, 0)

    def test_corner_tuples_from_displays(self):
        assert step_counters(4)[0][0] == (4, 2, 4, 5)
        assert step_counters(5)[4][4] == (4, 6, 8, 6)


class TestAdditive:
    def test_n1(self):
        (entry,), = build_additive(1)
        assert str(entry) == "a"

    def test_full_m4_display(self):
        assert [[str(e) for e in row] for row in build_additive(4)] == M4_DISPLAY

    def test_full_m5_display(self):
        assert [[str(e) for e in row] for row in build_additive(5)] == M5_DISPLAY

    def test_single_entries(self):
        assert str(build_additive(4)[2][0]) == "a+b+c+x+2y"
        assert str(build_additive(5)[1][0]) == "a+4b+3c+4x+6y"


class TestQPower:
    def test_n1(self):
        (entry,), = build_qpower(1)
        assert entry == LaurentPoly.variable("a")

    def test_n2_entries(self):
        q2 = build_qpower(2)
        assert q2[1][0] == LaurentPoly.variable("a")
        assert q2[1][1] == LaurentPoly.monomial(exponents(a=1, x=1))
        assert q2[0][1] == LaurentPoly.monomial(exponents(a=1, b=1, x=1))
        assert q2[0][0] == LaurentPoly.monomial(exponents(a=1, b=1, x=1, y=1))

    def test_n4_top_left(self):
        assert build_qpower(4)[0][0] == LaurentPoly.monomial(
            exponents(a=1, b=4, c=2, x=4, y=5))

    def test_all_ones_exponent_totals(self):
        # with every exponent parameter 1, the entries are q^1 .. q^(n^2)
        q4 = build_qpower(4)
        totals = {sum(vec) for row in q4 for entry in row for vec in entry.terms}
        assert totals == set(range(1, 17))


class TestBracket:
    def test_n1(self):
        (entry,), = build_bracket(1)
        assert entry == bracket(exponents(a=1))

    def test_z4_display_entries(self):
        z4 = build_bracket(4)
        assert z4[1][1] == bracket(exponents(a=1, b=1, x=1, y=1))
        assert z4[3][3] == bracket(exponents(a=1, b=1, c=2, x=4, y=2))

    def test_bracket_xx_equals_y_substitution(self):
        def set_y_to_x(p):
            """y := x, folding every y exponent onto x."""
            return sum((LaurentPoly.monomial((ea, eb, ec, ex + ey, 0), coeff)
                        for (ea, eb, ec, ex, ey), coeff in p.terms.items()), LaurentPoly())

        for n in (2, 3, 4, 5):
            direct = build_bracket_xx(n)
            substituted = [[set_y_to_x(entry) for entry in row] for row in build_bracket(n)]
            assert direct == substituted


class TestTheoremMatrix:
    def test_dispatch(self):
        for n in (1, 4, 7):
            assert theorem_matrix(1, n) == [[form.to_poly() for form in row]
                                            for row in build_additive(n)]
            assert theorem_matrix(2, n) == build_qpower(n)
            assert theorem_matrix(3, n) == build_bracket_xx(n)

    @pytest.mark.parametrize("theorem", (0, 4, True, 2.0))
    def test_unknown_theorem(self, theorem):
        with pytest.raises(ValueError, match="theorem must be 1, 2 or 3"):
            theorem_matrix(theorem, 3)


class TestGeneralized:
    def test_degenerate_equals_bracket_xx(self):
        for n in (2, 3, 4, 5):
            counts = step_counts(n)
            ups = [exponents(b=1)] * counts["up"]
            downs = [exponents(c=1)] * counts["down"]
            assert build_generalized_bracket(n, ups, downs) == build_bracket_xx(n)

    def test_n2_single_up_increment(self):
        g = build_generalized_bracket(2, (exponents(b=3),), ())
        assert g[1][0] == bracket(exponents(a=1))
        assert g[1][1] == bracket(exponents(a=1, x=1))
        assert g[0][1] == bracket(exponents(a=1, b=3, x=1))
        assert g[0][0] == bracket(exponents(a=1, b=3, x=2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            build_generalized_bracket(3, (exponents(b=1),), ())


# -- reference builders: the walks as they stood before the shared one


def reference_spiral_exponents(n):
    slot = {"up": 0, "down": 1, "right": 2, "left": 3}
    grid = [[None] * n for _ in range(n)]
    counters = [0, 0, 0, 0]
    for direction, r, c in spiral_walk(n):
        if direction is not None:
            counters[slot[direction]] += 1
        grid[r][c] = tuple(counters)
    return grid


def reference_generalized(n, ups, downs):
    grid = [[None] * n for _ in range(n)]
    accum = [1, 0, 0, 0, 0]
    n_up = n_down = 0
    for direction, r, c in spiral_walk(n):
        if direction in ("right", "left"):
            accum[3] += 1
        elif direction == "up":
            accum = [p + q for p, q in zip(accum, ups[n_up])]
            n_up += 1
        elif direction == "down":
            accum = [p + q for p, q in zip(accum, downs[n_down])]
            n_down += 1
        grid[r][c] = bracket(tuple(accum))
    return grid


class TestWalkAgainstReferences:
    SIZES = range(1, 13)

    def test_spiral_exponents(self):
        for n in self.SIZES:
            assert step_counters(n) == reference_spiral_exponents(n)

    def test_monomial_families(self):
        for n in self.SIZES:
            ref = reference_spiral_exponents(n)
            qpower = [[LaurentPoly.monomial((1, eb, ec, ex, ey))
                       for eb, ec, ex, ey in row] for row in ref]
            brackets = [[bracket((1, eb, ec, ex, ey)) for eb, ec, ex, ey in row] for row in ref]
            brackets_xx = [[bracket((1, eb, ec, ex + ey, 0))
                            for eb, ec, ex, ey in row] for row in ref]
            assert build_qpower(n) == qpower
            assert build_bracket(n) == brackets
            assert build_bracket_xx(n) == brackets_xx

    def test_generalized_random_increments(self):
        rng = random.Random(23)
        for n in self.SIZES:
            counts = step_counts(n)
            if n <= 2:
                assert counts["down"] == 0
            for _ in range(3):
                ups = tuple(tuple(rng.randint(-3, 3) for _ in range(5))
                            for _ in range(counts["up"]))
                downs = tuple(tuple(rng.randint(-3, 3) for _ in range(5))
                              for _ in range(counts["down"]))
                assert build_generalized_bracket(n, ups, downs) == reference_generalized(n, ups, downs)


class TestSpecialize:
    def test_inward_displays(self):
        assert numeric_theorem_matrix(1, 4, (16, -1, -1, -1, -1)) == [
            [Fraction(v) for v in row] for row in INWARD_4]
        # For odd n the path ends in the bottom-right corner, so the classical
        # display is the 180-degree rotation of the specialization; rotation
        # conjugates by the reversal permutation and preserves the determinant.
        rotated = [row[::-1] for row in numeric_theorem_matrix(1, 5, (25, -1, -1, -1, -1))][::-1]
        assert rotated == [[Fraction(v) for v in row] for row in INWARD_5]

    def test_outward_displays(self):
        assert numeric_theorem_matrix(1, 4, (1, 1, 1, 1, 1)) == [
            [Fraction(v) for v in row] for row in OUTWARD_4]
        assert numeric_theorem_matrix(1, 5, (1, 1, 1, 1, 1)) == [
            [Fraction(v) for v in row] for row in OUTWARD_5]

    def test_n1(self):
        assert numeric_theorem_matrix(1, 1, (1, 7, -3, 2, 9)) == [[Fraction(1)]]

    def test_commutes_with_entry_evaluation(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 6):
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5))
            direct = numeric_theorem_matrix(1, n, point)
            entrywise = [[reference_linear_form_value(form, point) for form in row]
                         for row in build_additive(n)]
            assert direct == entrywise

    @pytest.mark.parametrize("point", [
        (0, 0, 0, 0, 0),
        (3, 0, -2, 0, 5),
        ("1/2", -3, "7/3", 0, 1),
        (1.5, 2, -0.25, 4, -1),
    ])
    def test_walk_equals_form_evaluation_zeros_included(self, point):
        for n in range(1, 13):
            entrywise = [[reference_linear_form_value(form, point) for form in row]
                         for row in build_additive(n)]
            assert numeric_theorem_matrix(1, n, point) == entrywise

    def test_entries_are_fractions(self):
        # ints at an integral point, Fractions at a rational one
        for point in ((1, 2, 3, 4, 5), (1, 2, 3, 4, Fraction(5, 2))):
            matrix = numeric_theorem_matrix(1, 3, point)
            assert all(type(v) is walked_type(1, point) for row in matrix for v in row)


def walked_type(theorem, point):
    """The type of every walked cell: int for theorems 1 and 2 at an integral point."""
    integral = all(Fraction(v).denominator == 1 for v in point)
    return int if theorem < 3 and integral else Fraction


def reference_linear_form_value(form, point):
    """An additive entry's value at a point, term by term: the reference for the walk."""
    a, b, c, x, y = (Fraction(v) for v in point)
    return a + form.e_b * b + form.e_c * c + form.e_x * x + form.e_y * y


class TestNumericTheoremMatrix:
    """The walk against entrywise evaluation of the symbolic matrix."""

    POINTS = (sample_point(0, 0), sample_point(60493, 2),
              (Fraction(-3, 2), Fraction(5, 7), Fraction(-2, 9), Fraction(4, 3), Fraction(-7, 5)))

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_equals_numeric_matrix_up_to_20(self, theorem):
        for n in range(1, 21):
            symbolic = theorem_matrix(theorem, n)
            for point in self.POINTS:
                walked = numeric_theorem_matrix(theorem, n, point)
                assert walked == numeric_matrix(symbolic, point), (theorem, n, point)
                assert all(type(v) is walked_type(theorem, point) for row in walked for v in row)

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_bad_points_raise_as_numeric_matrix_does(self, theorem):
        # theorems 1 and 2 have no negative power, so a zero coordinate has a
        # value there; theorem 3's m - 1/m has none
        symbolic = theorem_matrix(theorem, 3)
        with pytest.raises(ValueError) as expected:
            numeric_matrix(symbolic, (1, 2, 3, 4))
        with pytest.raises(ValueError) as walked:
            numeric_theorem_matrix(theorem, 3, (1, 2, 3, 4))
        assert str(walked.value) == str(expected.value)
        for point in ((1, 2, 0, 4, 5), (1, 2, "0/3", 4, 5)):
            if theorem < 3:
                walked = numeric_theorem_matrix(theorem, 3, point)
                assert walked == numeric_matrix(symbolic, point)
                continue
            with pytest.raises(ZeroCoordinateError) as expected:
                numeric_matrix(symbolic, point)
            with pytest.raises(ZeroCoordinateError) as walked:
                numeric_theorem_matrix(theorem, 3, point)
            assert str(walked.value) == str(expected.value)

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_each_zero_coordinate_as_numeric_matrix(self, theorem):
        base = (Fraction(-3, 2), 5, Fraction(-2, 9), 4, Fraction(-7, 5))
        outcomes = set()
        for n in range(1, 9):
            symbolic = theorem_matrix(theorem, n)
            for var in range(5):
                point = base[:var] + (0,) + base[var + 1:]
                try:
                    expected = numeric_matrix(symbolic, point)
                except ZeroCoordinateError as exc:
                    with pytest.raises(ZeroCoordinateError) as walked:
                        numeric_theorem_matrix(theorem, n, point)
                    assert str(walked.value) == str(exc), (n, var)
                    outcomes.add("refused")
                else:
                    assert numeric_theorem_matrix(theorem, n, point) == expected, (n, var)
                    outcomes.add("value")
        # theorem 3 at n = 1 has only the centre a - 1/a, so b, c, x and y may be 0
        assert outcomes == ({"value"} if theorem < 3 else {"value", "refused"})

    # qspiral's point q = 2^K at n = 12 (2^30), huge against the sample range
    QSPIRAL = SequenceId.QSPIRAL.binding(12)[1]
    MIXED_POINTS = (
        QSPIRAL,
        (QSPIRAL[0], -QSPIRAL[0], 3, -(1 << 70), 1),
        (Fraction(-3, 2), Fraction(5, 7), Fraction(-2, 9), Fraction(4, 3), Fraction(-7, 5)),
        (Fraction(-3, 2), 5, Fraction(-2, 9), 4, Fraction(-7, 5)),
        (Fraction(8, 2), "-6/3", 2.0, Fraction(1, 3), QSPIRAL[0]),
        (0, 5, -2, 4, -7),
        (Fraction(-3, 2), 0, Fraction(-2, 9), 4, 0),
        (3, -1, 2, 0, Fraction(1, 2)),
    )

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_int_walk_equals_numeric_matrix_at_every_kind_of_point(self, theorem):
        # integral, rational and mixed coordinates, huge ones and zeros: the
        # walk gives the entries' values, or refuses where they do
        outcomes = set()
        for n in (1, 2, 3, 6, 9, 12):
            symbolic = theorem_matrix(theorem, n)
            for point in self.MIXED_POINTS:
                try:
                    expected = numeric_matrix(symbolic, point)
                except ZeroCoordinateError as exc:
                    with pytest.raises(ZeroCoordinateError) as walked:
                        numeric_theorem_matrix(theorem, n, point)
                    assert str(walked.value) == str(exc), (n, point)
                    outcomes.add("refused")
                    continue
                walked = numeric_theorem_matrix(theorem, n, point)
                assert walked == expected, (theorem, n, point)
                assert all(type(v) is walked_type(theorem, point) for row in walked for v in row)
                outcomes.add("value")
        assert outcomes == ({"value"} if theorem < 3 else {"value", "refused"})

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_an_integral_point_walks_on_ints(self, theorem, monkeypatch):
        walked = []
        real_spiral = spiral_builder._spiral

        def spiral(*args, **kwargs):
            grid = real_spiral(*args, **kwargs)
            walked.append({type(v) for row in grid for v in row})
            return grid

        monkeypatch.setattr(spiral_builder, "_spiral", spiral)
        # integral Fractions, strings and floats walk as ints too; a is in
        # every cell, so a rational a makes every cell a Fraction
        for point in (sample_point(0, 0), (Fraction(6, 3), 2, "4/2", 1.0, -1),
                      (Fraction(1, 2), 2, 3, 4, 5)):
            numeric_theorem_matrix(theorem, 6, point)
        assert walked == [{int}, {int}, {Fraction}]

    @pytest.mark.parametrize("theorem", (0, 4, True, 2.0))
    def test_unknown_theorem(self, theorem):
        with pytest.raises(ValueError, match="theorem must be 1, 2 or 3"):
            numeric_theorem_matrix(theorem, 3, (1, 2, 3, 4, 5))

    def test_size_below_one(self):
        with pytest.raises(ValueError):
            numeric_theorem_matrix(2, 0, (1, 2, 3, 4, 5))


class TestSizeArguments:
    """A size, trial or sample count or a seed is an int: True == 1 and 2.0 == 2,
    but neither is one."""

    @pytest.mark.parametrize("value", (True, 2.0, "3"))
    def test_non_int_is_refused(self, value):
        point = (1, 2, 3, 4, 5)
        for call, name in (
                (lambda: theorem(3, value), "size"),
                (lambda: theorem(1, value), "size"),
                (lambda: reduction(value), "size"),
                (lambda: qreduction_check(value), "size"),
                (lambda: theorem_matrix(2, value), "n"),
                (lambda: numeric_theorem_matrix(3, value, point), "n"),
                (lambda: step_counts(value), "n"),
                (lambda: build_generalized_bracket(value, (), ()), "n"),
                (lambda: list(spiral_walk(value)), "n"),
                (lambda: verify_reduction(3, value, 0), "trials"),
                (lambda: verify_identity(lambda pt: [[1]], LaurentPoly.one(), value, 0),
                 "trials"),
                (lambda: check_relations(FamilySpec(FamilyKind.ZERO), ["6.14"], value, 0),
                 "samples"),
                (lambda: classify(lambda x: x + 1 / x, value, 0), "samples"),
                (lambda: verify_identity(lambda pt: [[1]], LaurentPoly.one(), 1, value), "seed"),
                (lambda: verify_reduction(3, 1, value), "seed"),
                (lambda: verify_sequence(SequenceId.INWARD, 3, value), "seed"),
                (lambda: check_relations(FamilySpec(FamilyKind.ZERO), ["6.14"], 1, value),
                 "seed"),
                (lambda: classify(lambda x: x + 1 / x, 1, value), "seed")):
            with pytest.raises(TypeError, match=f"{name} must be an int"):
                call()


class TestSerialization:
    def test_latex_matches_display(self):
        latex = matrix_to_latex(build_additive(4))
        assert "a+4 b+2 c+4 x+5 y" in latex
        assert "a+b+c+x+2 y" in latex
        assert latex.startswith("\\begin{pmatrix}")

    def test_text_matches_display(self):
        assert matrix_to_text(build_additive(4)) == "".join(
            "  ".join(row) + "\n" for row in M4_DISPLAY)

    def test_text_and_latex_print_the_same_cells(self):
        # one cell printer: the styles differ only in separators and braces
        def bare(cell):
            return "".join(ch for ch in cell if ch not in " *{}")

        for matrix in (build_additive(3), build_bracket(3),
                       numeric_theorem_matrix(1, 3, (1, 2, 3, 4, 5))):
            text_cells = [line.split("  ") for line in matrix_to_text(matrix).splitlines()]
            latex_rows = matrix_to_latex(matrix).splitlines()[1:-1]
            latex_cells = [row.removesuffix(r" \\").split(" & ") for row in latex_rows]
            assert len(text_cells) == len(latex_cells) == 3
            for text_row, latex_row in zip(text_cells, latex_cells):
                assert len(text_row) == len(latex_row) == 3
                for text, latex in zip(text_row, latex_row):
                    assert bare(text) == bare(latex), (text, latex)

    def test_json_shapes(self):
        additive = matrix_to_json_dict(build_additive(2), "additive")
        assert additive["n"] == 2 and additive["family"] == "additive"
        assert additive["entries"][1][0] == {"e_b": 0, "e_c": 0, "e_x": 0, "e_y": 0}
        qpower = matrix_to_json_dict(build_qpower(2), "qpower")
        assert qpower["entries"][1][0] == [{"coefficient": 1,
                                            "exponents": ["1", "0", "0", "0", "0"]}]
        numeric = matrix_to_json_dict(
            numeric_theorem_matrix(1, 2, (1, 1, 1, 1, 1)), "additive")
        assert numeric["entries"][1][0] == "1"
