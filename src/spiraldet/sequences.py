"""Integer-sequence specializations of the spiral determinant formulas.

Each sequence binds a theorem and a point (``SequenceId.binding``):

* inward  -- theorem 1 at a = n^2, b = c = x = y = -1: 1..n^2 winding inward;
* outward -- theorem 1 with all parameters 1: 1..n^2 winding from the centre out;
* qspiral -- theorem 2 at q = 2^K, every exponent parameter 1: polynomials in q.

A term is the closed form at the point, checked against the exact
determinant of the matrix walked there, never against an outside table.  A
qspiral determinant is a polynomial in q with nonnegative exponents, each
coefficient a sum of at most n! terms +-1, so with 2^(K-1) > n! its balanced
base-2^K digits are the coefficients: equal values mean equal polynomials.

Every brute-force term of one call comes from one elimination, two for
inward (``_oracles``).  In ``shell_ordered`` every size-n spiral is the
leading n x n block of the largest one, with its own determinant, so one
elimination of that matrix gives every size's determinant
(``leading_minors``: fraction-free on primitive rows, each minor the last
one times a pivot over its row's scale, no entry larger than Bareiss's).
Every binding's point is integral, so ``numeric_theorem_matrix`` walks the
matrix on ints, and it goes to the elimination as it is.

outward's point is the same at every size.  qspiral's is too, at the largest
size's K: that K also has 2^(K-1) > n! for every smaller n, so its digits
read back every row.  inward's point a = n^2 moves with n, but it is the one
coordinate that enters every entry, with coefficient 1, so each leading
block is M0 + a*J with J the all-ones matrix.  J has rank 1, so by the
matrix determinant lemma det(M0 + a*J) = det(M0) + a * 1^T adj(M0) 1 is
affine in a, and the two eliminations at a = 0 and a = 1 give row n as
d0 + n^2 * (d1 - d0).
"""

from __future__ import annotations

from enum import Enum
from math import factorial

from .closed_forms import theorem
from .determinant_engine import VerificationReport, Witness, leading_minors
from .exponent_algebra import _format_terms
from .spiral_builder import check_int, check_size, numeric_theorem_matrix, shell_ordered


class SequenceId(Enum):
    INWARD = "inward"
    OUTWARD = "outward"
    QSPIRAL = "qspiral"

    def binding(self, n: int) -> tuple[int, tuple[int, int, int, int, int]]:
        """The theorem whose matrix gives the n-th term, and its point (a, b, c, x, y)."""
        if self is SequenceId.INWARD:
            return 1, (n * n, -1, -1, -1, -1)
        if self is SequenceId.OUTWARD:
            return 1, (1,) * 5
        return 2, (1 << factorial(n).bit_length() + 1,) * 5


def balanced_digits(value: int, bits: int) -> dict[int, int]:
    """The nonzero digits of value in base 2^bits, each in [-2^(bits-1), 2^(bits-1)), by position.

    Reads back a q-series with all |coefficients| < 2^(bits-1) from its value at 2^bits; bits >= 2.
    """
    check_size(bits, 2, "bits")
    series, position, half = {}, 0, 1 << bits - 1
    while value:
        digit = (value + half) % (half << 1) - half
        if digit:
            series[position] = digit
        value = (value - digit) >> bits
        position += 1
    return series


def q_series_string(series: dict[int, int]) -> str:
    """Human-readable form like ``-q^-2 + 3 + 2*q``; powers in ascending order."""
    return _format_terms({(deg,): coeff for deg, coeff in series.items()}, ("q",),
                         "*", " ", "{}^{}")


def _read(seq: SequenceId, point: tuple, value):
    """The term a determinant value stands for: an int, or a q-power dict for qspiral."""
    if value.denominator != 1:
        raise ValueError(f"{seq.value}: specialized determinant {value} is not an integer")
    if seq is SequenceId.QSPIRAL:
        return balanced_digits(int(value), point[0].bit_length() - 1)
    return int(value)


def term(seq: SequenceId, n: int):
    """Formula value of the n-th term: an int, or a q-power dict for qspiral."""
    check_size(n, 1)
    k, point = seq.binding(n)
    return _read(seq, point, theorem(k, n).evaluate(point))


def _oracles(seq: SequenceId, count: int) -> list:
    """The brute-force terms for n = 1..count: one elimination, two for inward (see above)."""
    k, point = seq.binding(count)

    def minors(at):
        return leading_minors(shell_ordered(numeric_theorem_matrix(k, count, at)))

    if seq is SequenceId.INWARD:
        at0, at1 = minors((0,) + point[1:]), minors((1,) + point[1:])
        values = [d0 + n * n * (d1 - d0) for n, d0, d1 in zip(range(1, count + 1), at0, at1)]
    else:
        values = minors(point)
    return [_read(seq, point, value) for value in values]


def _rows(seq: SequenceId, count: int):
    """(n, formula term, brute-force oracle) for n = 1..count."""
    check_size(count, 1, "count")
    return ((n, term(seq, n), oracle) for n, oracle in enumerate(_oracles(seq, count), start=1))


def _text(seq: SequenceId):
    """How a term of the sequence prints, in witnesses and CSV rows alike."""
    return q_series_string if seq is SequenceId.QSPIRAL else str


def verify_sequence(seq: SequenceId, count: int, seed: int = 0) -> VerificationReport:
    """Compare formula terms against brute-force determinants for n = 1..count.

    The terms are deterministic; ``seed`` is only echoed in the report.
    """
    check_int(seed, "seed")
    text = _text(seq)
    witnesses = tuple(Witness((n,), text(expected), text(actual))
                      for n, expected, actual in _rows(seq, count) if expected != actual)
    return VerificationReport(seed, count, witnesses)


def sequence_csv(seq: SequenceId, count: int) -> str:
    """CSV rows: n, formula term, brute-force oracle, match flag."""
    text = _text(seq)
    return "n,term,oracle,match\n" + "".join(
        f"{n},{text(expected)},{text(actual)},{str(expected == actual).lower()}\n"
        for n, expected, actual in _rows(seq, count))
