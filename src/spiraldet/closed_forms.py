"""Closed-form determinant formulas for the three spiral families, plus the
row/column reduction procedures that prove the additive and q-power cases.

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
[a^2 b (bc)^(2n^2-2n) x^(2n(2n-1))] at even N.  Some factors carry half-integer
exponents even though the expanded product never does.

:func:`theorem` builds each formula as a :class:`Factored` product, which
numeric checks evaluate factor by factor; the ``thm*`` functions expand it.

Theorem 1 polynomials reuse the LaurentPoly container with all exponents
nonnegative and the variables reinterpreted as additive indeterminates; there
is no separate dense-polynomial type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .determinant_engine import VerificationReport, Witness, sample_point
from .exponent_algebra import (
    Factored,
    LaurentPoly,
    angle,
    bracket,
    evaluate,
    exponents,
)
from .spiral_builder import build_qpower, centre_cell

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
    if size < 0:
        raise ValueError("size must be >= 0")
    if k == 1:
        return _thm1(size)
    if k == 2:
        return _thm2(size)
    if k == 3:
        return _thm3(size)
    raise ValueError(f"theorem must be 1, 2 or 3, got {k!r}")


def _thm1(size: int) -> Factored:
    if size < 2:
        return Factored(1, (_A,) * size)
    n, m = centre_cell(size)
    quad = (_A * _X + n * n * _B * _X + n * (n - 1) * _C * _X + n * n * _X * _X
            + _A * _Y + m * m * _B * _Y + m * (m + 1) * _C * _Y
            + m * (m + 1) * _Y * _Y + n * (2 * m + 1) * _X * _Y)
    linear = [i * (_B + _C) + (i + 1) * (_X + _Y) for i in range(1, size - 1)]
    return Factored((-1) ** m, [quad, *linear])


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
    tail = [1 - LaurentPoly.monomial(exponents(b=i, c=i, x=i + 1, y=i + 1))
            for i in range(size - 1)]
    return Factored((-1) ** n, [prefactor, *tail])


def thm2_even(n: int) -> LaurentPoly:
    """Closed-form determinant of the 2n x 2n q-power spiral matrix."""
    return theorem(2, 2 * n).expand()


def thm2_odd(n: int) -> LaurentPoly:
    """Closed-form determinant of the (2n+1) x (2n+1) q-power spiral matrix."""
    return theorem(2, 2 * n + 1).expand()


def _run_bracket(k: int) -> LaurentPoly:
    """[(bc)^(k/2) x^(k+1)], the k-th factor of the bracket run."""
    return bracket(exponents(b=Fraction(k, 2), c=Fraction(k, 2), x=k + 1))


def _angle_first(k: int) -> LaurentPoly:
    return angle(exponents(a=1, b=k * (k + 1), c=k * k, x=k * (2 * k + 1)))


def _angle_second(k: int) -> LaurentPoly:
    return angle(exponents(a=1, b=Fraction(2 * k * k - 2 * k + 1, 2),
                           c=Fraction(2 * k * k - 1, 2), x=k * (2 * k - 1)))


def antidiagonal_entry_formulas(n: int, k: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Closed forms F_k, S_k of the antidiagonal entries, for 1 <= k <= n-1 (size 2n).

    F_k is theorem 3's run bracket 2k times its angle k, S_k its paired factor k:

        F_k = [(bc)^k x^(2k+1)] <a b^(k(k+1)) c^(k^2) x^(k(2k+1))>
        S_k = [(bc)^((2k-1)/2) x^(2k)] <a b^((2k^2-2k+1)/2) c^((2k^2-1)/2) x^(k(2k-1))>

    At size N, with (n, m) = centre_cell(N), the antidiagonal rows 2..N-1
    read F_{n-1}, ..., F_1, S_1, ..., S_m.
    """
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return (_run_bracket(2 * k) * _angle_first(k),
            _run_bracket(2 * k - 1) * _angle_second(k))


def _thm3(size: int) -> Factored:
    if size < 2:
        return Factored(1, (bracket(exponents(a=1)),) * size)
    n, m = centre_cell(size)
    head = bracket(exponents(a=2, b=n * n + m * m, c=2 * n * m, x=2 * n * (2 * m + 1)))
    factors = [head, *(_run_bracket(2 * k) for k in range(n))]
    factors += [_angle_first(k) for k in range(1, n)]
    # The odd-k brackets of the run and every second angle carry odd doubled
    # exponents on exactly b and c.  Bracket 2k-1 is paired with angle k into
    # [m]<m'> = [mm'] + [m/m'], a 4-term factor with integer exponents, which
    # ``evaluate`` can value at a point; the run holds exactly one odd bracket
    # per second angle.
    factors += [_run_bracket(2 * k - 1) * _angle_second(k) for k in range(1, m + 1)]
    return Factored((-1) ** m, factors)


def thm3_even(n: int) -> LaurentPoly:
    """Closed-form determinant of the 2n x 2n bracket spiral with y = x.

    Some factors of the published form carry half-integer exponents of b and
    c; :func:`theorem` pairs them into factors with integer exponents only.
    """
    return theorem(3, 2 * n).expand()


def thm3_odd(n: int) -> LaurentPoly:
    """Closed-form determinant of the (2n+1) x (2n+1) bracket spiral with y = x."""
    return theorem(3, 2 * n + 1).expand()


# -- reduction procedures ----------------------------------------------------


@dataclass(frozen=True)
class ReductionData:
    """One size-reduction step of the additive family's determinant.

    The (2n+1) -> 2n step ("odd" parity) rewrites the determinant as
    scalar_factor times the determinant of the 2n-size matrix with new centre
    centre_numerator/pivot, new up increment up_increment and new down
    increment down_increment (x and y unchanged); the 2n -> 2n-1 step ("even")
    is analogous.  The centre is kept as an explicit numerator/pivot pair
    because it is not polynomial.
    """

    parity: str
    n: int
    centre_numerator: LaurentPoly
    pivot: LaurentPoly
    up_increment: LaurentPoly
    down_increment: LaurentPoly
    scalar_factor: LaurentPoly
    auxiliary: dict = field(default_factory=dict)


def _border_entries_odd(n: int) -> dict[str, LaurentPoly]:
    """The labelled border entries of the (2n+1)-size additive spiral."""
    return {
        "E1": _A + n * n * _B + n * n * _C + n * n * _X + n * (n + 1) * _Y,
        "E2": _A + n * n * _B + (n * n + n - 1) * _C + n * n * _X + n * (n + 1) * _Y,
        "E3": _A + (n - 1) ** 2 * _B + n * (n - 1) * _C + (n - 1) ** 2 * _X + n * (n - 1) * _Y,
        "E4": _A + (n - 1) ** 2 * _B + n * (n - 1) * _C + n * n * _X + n * (n - 1) * _Y,
        "E5": _A + n * n * _B + n * (n + 1) * _C + n * n * _X + n * (n + 1) * _Y,
        "E6": _A + n * n * _B + n * (n + 1) * _C + (n * n + 1) * _X + n * (n + 1) * _Y,
        "E7": _A + n * n * _B + n * (n + 1) * _C + n * (n + 2) * _X + n * (n + 1) * _Y,
    }


def reduce_odd(n: int) -> ReductionData:
    """Reduction of the (2n+1)-size additive determinant to size 2n.

    Subtracting the next-to-last row from the last row leaves a row that is
    constant except in the first column; eliminating it with the first column
    (pivot c) yields scalar_factor c and the new parameters below.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    borders = _border_entries_odd(n)
    d1 = (2 * n - 1) * _B + 2 * n * _C + 2 * n * _X + 2 * n * _Y
    b1 = 2 * n * (_B + _C + _X + _Y)
    c1 = -(2 * n - 1) * (_B + _C) - 2 * n * (_X + _Y)
    numerator = _A * _C - d1 * borders["E1"]
    auxiliary = {"D1": d1, **borders}
    return ReductionData("odd", n, numerator, _C, b1, c1, _C, auxiliary)


def reduce_even(n: int) -> ReductionData:
    """Reduction of the 2n-size additive determinant to size 2n-1.

    Subtracting the second row from the first leaves a row that is constant
    except in the last column; eliminating it with the last column (pivot b)
    yields scalar_factor -b and the new parameters below.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d2 = (2 * n - 1) * _B + (2 * n - 2) * _C + (2 * n - 1) * _X + (2 * n - 1) * _Y
    companion = _A + n * (n - 1) * _B + n * (n - 1) * _C + n * n * _X + n * (n - 1) * _Y
    b2 = -(2 * n - 2) * (_B + _C) - (2 * n - 1) * (_X + _Y)
    c2 = (2 * n - 1) * (_B + _C + _X + _Y)
    numerator = _A * _B - d2 * companion
    return ReductionData("even", n, numerator, _B, b2, c2, -_B, {"D2": d2, "E": companion})


class ReductionSkipError(ValueError):
    """Too many sample points of a reduction check were skipped."""

    def __init__(self, skipped: int, attempts: int):
        self.skipped = skipped
        self.attempts = attempts
        super().__init__(f"reduction check skipped {skipped} of {attempts} sample points "
                         "whose derived parameters hit zero")


def verify_reduction(parity: str, n: int, trials: int, seed: int) -> VerificationReport:
    """Check the reduction relation at random integer points with exact rationals.

    Points whose derived parameters hit zero (where the closed forms cannot be
    evaluated as Laurent polynomials) are skipped deterministically; after
    ``10 * trials + 100`` attempts :class:`ReductionSkipError` is raised.
    """
    if parity == "odd":
        data = reduce_odd(n)
        small, big = theorem(1, 2 * n), theorem(1, 2 * n + 1)
    elif parity == "even":
        data = reduce_even(n)
        small, big = theorem(1, 2 * n - 1), theorem(1, 2 * n)
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    witnesses = []
    done = 0
    attempt = 0
    max_attempts = 10 * trials + 100
    while done < trials:
        if attempt == max_attempts:
            raise ReductionSkipError(attempt - done, attempt)
        point = sample_point(seed, attempt)
        attempt += 1
        pivot = evaluate(data.pivot, point)
        centre = evaluate(data.centre_numerator, point) / pivot
        derived = (centre, evaluate(data.up_increment, point),
                   evaluate(data.down_increment, point), Fraction(point[3]), Fraction(point[4]))
        if any(v == 0 for v in derived):
            continue
        done += 1
        lhs = evaluate(data.scalar_factor, point) * small.evaluate(derived)
        rhs = big.evaluate(point)
        if lhs != rhs:
            witnesses.append(Witness(point, lhs, rhs))
    return VerificationReport(seed, trials, tuple(witnesses))


def qreduction_check(n: int) -> VerificationReport:
    """Row subtraction on the q-power spiral leaves a boundary row with one nonzero entry.

    For odd n the last row minus the monomial-ratio multiple of the
    next-to-last row vanishes except in the first column; for even n the
    first row minus the multiple of the second row vanishes except in the
    last column.  No column operations are needed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    q = build_qpower(n)

    def _mono(p: LaurentPoly):
        (vec, coeff), = p.terms.items()
        assert coeff == 1
        return vec

    if n % 2:
        target, source, ref_col, expect_col = n - 1, n - 2, 1, 0
    else:
        target, source, ref_col, expect_col = 0, 1, 0, n - 1
    ratio = LaurentPoly.monomial(tuple(
        t - s for t, s in zip(_mono(q[target][ref_col]), _mono(q[source][ref_col]))))
    new_row = [q[target][j] - ratio * q[source][j] for j in range(n)]
    nonzero = [j for j, entry in enumerate(new_row) if entry]
    if nonzero == [expect_col]:
        return VerificationReport(0, 1, ())
    witness = Witness((n,), f"nonzero columns {nonzero}", f"expected [{expect_col}]")
    return VerificationReport(0, 1, (witness,))
