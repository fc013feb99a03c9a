"""Integer-sequence specializations of the spiral determinant formulas.

Three fixed parameter bindings are supported:

* inward  -- centre a = n^2 and b = c = x = y = -1, which turns the additive
  spiral into the classical matrix with 1..n^2 winding from the outside in;
* outward -- all parameters 1, the matrix with 1..n^2 winding from the centre
  out;
* qspiral -- the q-power family with every exponent parameter 1, whose terms
  are Laurent polynomials in a single q.

Terms always come from the closed-form formulas; the verifier compares them
against a brute-force determinant of the specialized matrix, so no sequence
value is ever trusted from an outside table.
"""

from __future__ import annotations

from enum import Enum

from .closed_forms import theorem
from .determinant_engine import (
    VerificationReport,
    Witness,
    det_bareiss_rational,
    det_cofactor,
)
from .exponent_algebra import LaurentPoly, _format_terms
from .spiral_builder import check_int, check_size, numeric_theorem_matrix, theorem_matrix


class SequenceId(Enum):
    INWARD = "inward"
    OUTWARD = "outward"
    QSPIRAL = "qspiral"

    def additive_point(self, n: int) -> tuple[int, int, int, int, int]:
        """The fixed (a, b, c, x, y) of the additive spiral at size n."""
        if self is SequenceId.INWARD:
            return (n * n, -1, -1, -1, -1)
        if self is SequenceId.OUTWARD:
            return (1, 1, 1, 1, 1)
        raise ValueError(f"{self} has no additive parameter binding")


def q_series(p: LaurentPoly) -> dict[int, int]:
    """Collapse a polynomial onto powers of a single q."""
    out: dict[int, int] = {}
    for vec, coeff in p.terms.items():
        deg = sum(vec)
        total = out.get(deg, 0) + coeff
        if total:
            out[deg] = total
        else:
            out.pop(deg, None)
    return out


def q_series_string(series: dict[int, int]) -> str:
    """Human-readable form like ``-q^-2 + 3 + 2*q``; powers in ascending order."""
    return _format_terms({(deg,): coeff for deg, coeff in series.items()}, ("q",),
                         "*", " ", "{}^{}")


def term(seq: SequenceId, n: int):
    """Formula value of the n-th term: an int, or a q-power dict for qspiral."""
    check_size(n, 1)
    if seq is SequenceId.QSPIRAL:
        return q_series(theorem(2, n).expand())
    value = theorem(1, n).evaluate(seq.additive_point(n))
    assert value.denominator == 1, "specialized determinant must be an integer"
    return int(value)


def _oracle(seq: SequenceId, n: int):
    if seq is SequenceId.QSPIRAL:
        return q_series(det_cofactor(theorem_matrix(2, n)))
    value = det_bareiss_rational(numeric_theorem_matrix(1, n, seq.additive_point(n)))
    assert value.denominator == 1
    return int(value)


def _rows(seq: SequenceId, count: int):
    """(n, formula term, brute-force oracle) for n = 1..count."""
    check_size(count, 1, "count")
    return ((n, term(seq, n), _oracle(seq, n)) for n in range(1, count + 1))


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
