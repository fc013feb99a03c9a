"""Closed-form determinant formulas for the three spiral families, plus the
size-reduction step that proves the additive case and the row reduction of
the q-power case.

Each theorem is one formula in (n, m) = (N // 2, (N - 1) // 2), the
:func:`centre_cell` of the N x N spiral.  The paper states it once per parity:
its specializations are n = m at odd N = 2n+1 and n = m + 1 at even N = 2n.
Sizes 0 and 1 give the empty product and the single cell (a; [a] in theorem 3).

Theorem 1 (additive): det = (-1)^m Q prod_{i=1}^{N-2} (i(b+c) + (i+1)(x+y)), with
Q = ax + n^2 bx + n(n-1) cx + n^2 x^2 + ay + m^2 by + m(m+1) (cy + y^2) + n(2m+1) xy.
Odd N: (-1)^n and ... + n^2 by + n(n+1) (cy + y^2) + n(2n+1) xy; even N: (-1)^(n-1)
and ... + (n-1)^2 by + n(n-1) (cy + y^2) + n(2n-1) xy.

Theorem 2 (q-power, in the variables standing for q^a ... q^y):
det = (-1)^n a^N (bx)^B (cy)^C prod_{i=0}^{N-2} (1 - b^i c^i x^(i+1) y^(i+1)), with
B = S(n) + S(m), C = B - n(n-m) and S(k) = k(k+1)(2k+1)/6.  Odd N:
B = C = n(n+1)(2n+1)/3; even N: B = n(2n^2+1)/3 and C = 2(n-1)n(n+1)/3.

Theorem 3 (bracket, y = x): det = (-1)^m [a^2 b^(n^2+m^2) c^(2nm) x^(2n(2m+1))]
prod_{k=0}^{n-1} [(bc)^k x^(2k+1)] prod_{k=1}^{n-1} <a b^(k(k+1)) c^(k^2) x^(k(2k+1))>
prod_{k=1}^{m} [(bc)^((2k-1)/2) x^(2k)] <a b^((2k^2-2k+1)/2) c^((2k^2-1)/2) x^(k(2k-1))>.
The head is [a^2 (bc)^(2n^2) x^(2n(2n+1))] at odd N and
[a^2 b (bc)^(2n^2-2n) x^(2n(2n-1))] at even N.  The last product's factors are
built by [m]<m'> = [mm'] + [m/m'] as
[a b^(k^2) c^(k^2+k-1) x^(k(2k+1))] - [a b^((k-1)^2) c^(k(k-1)) x^(k(2k-3))],
so every factor has integer exponents only, and evaluates at a point.

:func:`theorem` builds each formula as a :class:`Factored` product, which
numeric checks evaluate factor by factor; the ``thm*`` functions expand it.
Its per-index factors, theorem 1's linear factor i, theorem 2's tail factor
i and theorem 3's run bracket, angle and paired factor k, are the same
polynomials at every size, so each is built once per process and shared by
every formula that holds it; a LaurentPoly is never mutated.

The additive proof reduces size N to N - 1 by one step, :func:`reduction`,
also written in (n, m): subtract the next row inward from the row on the side
where the walk ends (:func:`_last_side`), then clear that row with the column
in which that side begins.  :func:`qreduction_check` makes the same row
operation on the q-power spiral.

Theorem 1 polynomials reuse the LaurentPoly container with all exponents
nonnegative and the variables reinterpreted as additive indeterminates; there
is no separate dense-polynomial type.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .determinant_engine import VerificationReport, Witness, randomized_reports
from .exponent_algebra import (
    Factored,
    LaurentPoly,
    angle,
    bracket,
    evaluate,
    exponents,
)
from .spiral_builder import build_qpower, centre_cell, check_size, check_theorem

_A = LaurentPoly.variable("a")
_B = LaurentPoly.variable("b")
_C = LaurentPoly.variable("c")
_X = LaurentPoly.variable("x")
_Y = LaurentPoly.variable("y")


def theorem(k: int, size: int) -> Factored:
    """Closed-form determinant of the size x size matrix of theorem k, as factors.

    This is the single source of theorems 1-3: the ``thm*`` functions expand
    it, and randomized checks evaluate it factor by factor.
    """
    check_size(size, 0, "size")
    check_theorem(k)
    return (_thm1, _thm2, _thm3)[k - 1](size)


def _thm1(size: int) -> Factored:
    if size < 2:
        return Factored(1, (_A,) * size)
    n, m = centre_cell(size)
    quad = (_A * _X + n * n * _B * _X + n * (n - 1) * _C * _X + n * n * _X * _X
            + _A * _Y + m * m * _B * _Y + m * (m + 1) * _C * _Y
            + m * (m + 1) * _Y * _Y + n * (2 * m + 1) * _X * _Y)
    return Factored((-1) ** m, [quad, *map(_linear, range(1, size - 1))])


@functools.cache
def _linear(i: int) -> LaurentPoly:
    """i(b+c) + (i+1)(x+y), the i-th linear factor of theorem 1."""
    return i * (_B + _C) + (i + 1) * (_X + _Y)


def thm1_even(n: int) -> LaurentPoly:
    """Closed-form determinant of the 2n x 2n additive spiral matrix."""
    return theorem(1, 2 * n).expand()


def thm1_odd(n: int) -> LaurentPoly:
    """Closed-form determinant of the (2n+1) x (2n+1) additive spiral matrix."""
    return theorem(1, 2 * n + 1).expand()


def _square_sum(k: int) -> int:
    """1^2 + ... + k^2; 0 at k = -1."""
    return k * (k + 1) * (2 * k + 1) // 6


def _thm2(size: int) -> Factored:
    n, m = centre_cell(size)
    bx = _square_sum(n) + _square_sum(m)
    cy = bx - n * (n - m)
    prefactor = LaurentPoly.monomial(exponents(a=size, b=bx, c=cy, x=bx, y=cy))
    return Factored((-1) ** n, [prefactor, *map(_tail, range(size - 1))])


@functools.cache
def _tail(i: int) -> LaurentPoly:
    """1 - b^i c^i x^(i+1) y^(i+1), the i-th tail factor of theorem 2."""
    return 1 - LaurentPoly.monomial(exponents(b=i, c=i, x=i + 1, y=i + 1))


def thm2_even(n: int) -> LaurentPoly:
    """Closed-form determinant of the 2n x 2n q-power spiral matrix."""
    return theorem(2, 2 * n).expand()


def thm2_odd(n: int) -> LaurentPoly:
    """Closed-form determinant of the (2n+1) x (2n+1) q-power spiral matrix."""
    return theorem(2, 2 * n + 1).expand()


@functools.cache
def _run_bracket(k: int) -> LaurentPoly:
    """[(bc)^k x^(2k+1)], the k-th factor of the bracket run."""
    return bracket(exponents(b=k, c=k, x=2 * k + 1))


@functools.cache
def _angle_first(k: int) -> LaurentPoly:
    """<a b^(k(k+1)) c^(k^2) x^(k(2k+1))>, the k-th angle factor."""
    return angle(exponents(a=1, b=k * (k + 1), c=k * k, x=k * (2 * k + 1)))


@functools.cache
def _paired(k: int) -> LaurentPoly:
    """[(bc)^((2k-1)/2) x^(2k)] <a b^((2k^2-2k+1)/2) c^((2k^2-1)/2) x^(k(2k-1))>,
    written with integer exponents by [m]<m'> = [mm'] + [m/m']."""
    return (bracket(exponents(a=1, b=k * k, c=k * k + k - 1, x=k * (2 * k + 1)))
            - bracket(exponents(a=1, b=(k - 1) ** 2, c=k * (k - 1), x=k * (2 * k - 3))))


def antidiagonal_entry_formulas(n: int, k: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Closed forms F_k, S_k of the antidiagonal entries, for 1 <= k <= n-1 (size 2n).

    F_k is theorem 3's run bracket k times its angle k, S_k its paired factor k:

        F_k = [(bc)^k x^(2k+1)] <a b^(k(k+1)) c^(k^2) x^(k(2k+1))>
        S_k = [(bc)^((2k-1)/2) x^(2k)] <a b^((2k^2-2k+1)/2) c^((2k^2-1)/2) x^(k(2k-1))>
            = [a b^(k^2) c^(k^2+k-1) x^(k(2k+1))] - [a b^((k-1)^2) c^(k(k-1)) x^(k(2k-3))]

    At size N, with (n, m) = centre_cell(N), the antidiagonal rows 2..N-1
    read F_{n-1}, ..., F_1, S_1, ..., S_m.
    """
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return _run_bracket(k) * _angle_first(k), _paired(k)


def _thm3(size: int) -> Factored:
    if size < 2:
        return Factored(1, (bracket(exponents(a=1)),) * size)
    n, m = centre_cell(size)
    head = bracket(exponents(a=2, b=n * n + m * m, c=2 * n * m, x=2 * n * (2 * m + 1)))
    factors = [head, *(_run_bracket(k) for k in range(n))]
    factors += [_angle_first(k) for k in range(1, n)]
    factors += [_paired(k) for k in range(1, m + 1)]
    return Factored((-1) ** m, factors)


def thm3_even(n: int) -> LaurentPoly:
    """Closed-form determinant of the 2n x 2n bracket spiral with y = x.

    The published form pairs half-integer powers of b and c in a bracket and
    an angle; :func:`theorem` writes each pair as a difference of two brackets
    with integer exponents only.
    """
    return theorem(3, 2 * n).expand()


def thm3_odd(n: int) -> LaurentPoly:
    """Closed-form determinant of the (2n+1) x (2n+1) bracket spiral with y = x."""
    return theorem(3, 2 * n + 1).expand()


# -- reduction procedures ----------------------------------------------------


class ReductionData(namedtuple("ReductionData", "size centre_numerator pivot up_increment "
                                          "down_increment scalar_factor row_difference border")):
    """The step from the size x size additive determinant to size - 1.

    The determinant is scalar_factor times the determinant of the size - 1
    matrix with centre centre_numerator/pivot, up increment up_increment and
    down increment down_increment; x and y are unchanged.  The centre is kept
    as a numerator/pivot pair because it is not polynomial.

    On the matrix, the last side's row minus its next row (:func:`_last_side`)
    is row_difference in every column but the pivot column, where it is pivot;
    border is the pivot column's entry in the centre row.  A named tuple:
    size is an int, every other field a LaurentPoly.
    """

    __slots__ = ()


def _last_side(size: int) -> tuple[int, int, int]:
    """(row, next_row, pivot_col) of the side where the size x size spiral ends.

    The walk ends on the bottom row when n = m and on the top row otherwise,
    and the pivot column is the one in which that side begins; the reductions
    subtract the next row inward from the side's row.
    """
    n, m = centre_cell(size)
    return (size - 1, size - 2, 0) if n == m else (0, 1, size - 1)


def reduction(size: int) -> ReductionData:
    """The step N -> N - 1 of the additive determinant, for N = size >= 2.

    With (n, m) = centre_cell(N), the up and down increments of the smaller
    matrix are G = (N-1)(b+c+x+y) and b + c - G, in that order when n = m
    (pivot c) and swapped otherwise (pivot b).  The row difference is G minus
    the other one of b and c, the border is a + nm(b+c) + n^2 x + m(m+1) y,
    and the scalar factor is (-1)^(n-m) times the pivot.
    """
    check_size(size, 2, "size")
    n, m = centre_cell(size)
    grow = (size - 1) * (_B + _C + _X + _Y)
    shrink = _B + _C - grow
    pivot, other, up, down = (_C, _B, grow, shrink) if n == m else (_B, _C, shrink, grow)
    difference = grow - other
    border = _A + n * m * (_B + _C) + n * n * _X + m * (m + 1) * _Y
    return ReductionData(size, _A * pivot - difference * border, pivot, up, down,
                         (-1) ** (n - m) * pivot, difference, border)


def verify_reduction(size: int, trials: int, seed: int) -> VerificationReport:
    """Check the step of :func:`reduction` from size to size - 1 at random
    integer points with exact rationals; a size below 2 is refused first.

    The one pair that :func:`randomized_reports` compares at each point is
    the scalar factor times the smaller determinant, at the derived
    parameters, against the bigger determinant.  Theorem 1 is a polynomial
    identity, so it holds wherever a derived parameter of the smaller matrix
    is zero, and every sample point is checked.
    """
    data = reduction(size)
    small, big = theorem(1, size - 1), theorem(1, size)

    def sides(point):
        centre = evaluate(data.centre_numerator, point) / evaluate(data.pivot, point)
        derived = (centre, evaluate(data.up_increment, point),
                   evaluate(data.down_increment, point), point[3], point[4])
        yield evaluate(data.scalar_factor, point) * small.evaluate(derived), big.evaluate(point)

    report, = randomized_reports(sides, trials, seed)
    return report


def qreduction_check(size: int) -> VerificationReport:
    """Row subtraction on the q-power spiral leaves a boundary row with one nonzero entry.

    On the last side of :func:`_last_side`, the row minus the monomial-ratio
    multiple of the next row vanishes except in the pivot column: the first
    column when the walk ends on the bottom row, the last when it ends on the
    top row.  No column operations are needed.
    """
    check_size(size, 2, "size")
    q = build_qpower(size)

    def _mono(p: LaurentPoly):
        (vec, coeff), = p.terms.items()
        assert coeff == 1
        return vec

    row, next_row, pivot_col = _last_side(size)
    ref_col = size - 1 - pivot_col
    ratio = LaurentPoly.monomial(tuple(
        t - s for t, s in zip(_mono(q[row][ref_col]), _mono(q[next_row][ref_col]))))
    new_row = [q[row][j] - ratio * q[next_row][j] for j in range(size)]
    nonzero = [j for j, entry in enumerate(new_row) if entry]
    if nonzero == [pivot_col]:
        return VerificationReport(0, 1, ())
    witness = Witness((size,), f"nonzero columns {nonzero}", f"expected [{pivot_col}]")
    return VerificationReport(0, 1, (witness,))
