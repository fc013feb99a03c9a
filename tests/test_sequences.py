"""Tests for the integer-sequence specializations."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

from spiraldet import sequences
from spiraldet.closed_forms import theorem
from spiraldet.determinant_engine import det_bareiss_rational, det_cofactor
from spiraldet.exponent_algebra import exponents
from spiraldet.sequences import (
    SequenceId,
    balanced_digits,
    q_series_string,
    sequence_csv,
    term,
    verify_sequence,
)
from spiraldet.spiral_builder import numeric_theorem_matrix, theorem_matrix

INWARD = SequenceId.INWARD
OUTWARD = SequenceId.OUTWARD
QSPIRAL = SequenceId.QSPIRAL


def run_optimized(script):
    """The standard output of ``python -O -c script``, with this checkout's package importable."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestTerm:
    def test_first_terms_are_one(self):
        assert term(INWARD, 1) == 1
        assert term(OUTWARD, 1) == 1

    def test_inward_2x2(self):
        # [[1, 2], [4, 3]] has determinant -5
        assert term(INWARD, 2) == -5

    def test_inward_4_against_brute_force(self):
        expected = det_bareiss_rational(numeric_theorem_matrix(1, 4, (16, -1, -1, -1, -1)))
        assert term(INWARD, 4) == expected == 660

    def test_outward_4_against_brute_force(self):
        expected = det_bareiss_rational(numeric_theorem_matrix(1, 4, (1, 1, 1, 1, 1)))
        assert term(OUTWARD, 4) == expected == -1380

    def test_classical_display_values(self):
        # determinants of the displayed 5x5 integer spirals, computed by
        # brute force on the typed-in displays (rotation-invariant)
        assert term(INWARD, 5) == 11760
        assert term(OUTWARD, 5) == 31920

    def test_terms_are_integers(self):
        for spec in (INWARD, OUTWARD):
            for n in range(1, 11):
                assert isinstance(term(spec, n), int)

    def test_qspiral_has_no_additive_binding(self):
        # inward and outward bind theorem 1 (the additive spiral); qspiral
        # binds theorem 2 at five equal coordinates q = 2^K, where K leaves
        # room for every coefficient: 2^(K-1) > n!
        assert INWARD.binding(3) == (1, (9, -1, -1, -1, -1))
        assert OUTWARD.binding(3) == (1, (1, 1, 1, 1, 1))
        for n in range(1, 25):
            k, point = QSPIRAL.binding(n)
            q = point[0]
            assert k == 2 and point == (q,) * 5
            bits = q.bit_length() - 1
            assert q == 1 << bits and 1 << (bits - 1) > factorial(n)

    def test_qspiral_term_is_q_polynomial(self):
        # det of [[q^4, q^3], [q, q^2]] is q^6 - q^4
        series = term(QSPIRAL, 2)
        assert series == {4: -1, 6: 1}
        assert q_series_string(series) == "-q^4 + q^6"

    def test_q_series_refuses_a_half_integer_degree(self):
        # a half-integer degree is refused where its exponent is written
        with pytest.raises(TypeError, match="exponents must be ints"):
            exponents(b=Fraction(1, 2))

    def test_q_series_refuses_a_half_integer_degree_under_optimize(self):
        # python -O strips assert statements, so the check must not be one
        assert run_optimized("from fractions import Fraction\n"
                             "from spiraldet.exponent_algebra import exponents\n"
                             "try:\n"
                             "    exponents(b=Fraction(1, 2))\n"
                             "except TypeError:\n"
                             "    print('refused')\n") == "refused\n"


class TestOracles:
    @pytest.mark.parametrize("seq, count", ((INWARD, 40), (OUTWARD, 40), (QSPIRAL, 14)))
    def test_rows_equal_one_elimination_per_size(self, seq, count):
        # the reference walks and eliminates each size at its own binding;
        # the formula terms equal it too
        expected = []
        for n in range(1, count + 1):
            k, point = seq.binding(n)
            value = det_bareiss_rational(numeric_theorem_matrix(k, n, point))
            assert value.denominator == 1
            expected.append(balanced_digits(int(value), point[0].bit_length() - 1)
                            if seq is QSPIRAL else int(value))
        assert sequences._oracles(seq, count) == expected
        assert [term(seq, n) for n in range(1, count + 1)] == expected

    @pytest.mark.parametrize("seq", SequenceId)
    def test_non_integer_minor_is_refused(self, seq, monkeypatch):
        minors = sequences.leading_minors
        monkeypatch.setattr(sequences, "leading_minors",
                            lambda matrix: [*minors(matrix)[:-1], Fraction(1, 2)])
        with pytest.raises(ValueError, match="not an integer"):
            sequence_csv(seq, 3)

    def test_non_integer_minor_is_refused_under_optimize(self):
        # python -O strips assert statements, so the check must not be one
        assert run_optimized("from fractions import Fraction\n"
                             "from spiraldet.sequences import SequenceId, _read\n"
                             "try:\n"
                             "    _read(SequenceId.OUTWARD, (1,) * 5, Fraction(7, 2))\n"
                             "except ValueError:\n"
                             "    print('refused')\n") == "refused\n"


class TestVerify:
    def test_inward_8(self):
        assert verify_sequence(INWARD, 8).failures == 0

    def test_outward_8(self):
        assert verify_sequence(OUTWARD, 8).failures == 0

    def test_qspiral_5(self):
        assert verify_sequence(QSPIRAL, 5).failures == 0

    def test_qspiral_past_the_cofactor_guard(self):
        report = verify_sequence(QSPIRAL, 12)
        assert report.trials == 12 and report.failures == 0

    def test_bad_count(self):
        with pytest.raises(ValueError):
            verify_sequence(INWARD, 0)


def total_degree_series(p):
    """p at a = b = c = x = y = q, as a dict {degree: coefficient} without zeros."""
    series = {}
    for vec, coeff in p.terms.items():
        series[sum(vec)] = series.get(sum(vec), 0) + coeff
    return {deg: coeff for deg, coeff in series.items() if coeff}


class TestKroneckerRead:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_qspiral_equals_the_cofactor_expansion(self, n):
        expected = total_degree_series(det_cofactor(theorem_matrix(2, n), allow_large=True))
        assert term(QSPIRAL, n) == sequences._oracles(QSPIRAL, n)[n - 1] == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_qspiral_equals_the_expanded_product_form(self, n):
        expected = total_degree_series(theorem(2, n).expand())
        assert term(QSPIRAL, n) == sequences._oracles(QSPIRAL, n)[n - 1] == expected

    @pytest.mark.parametrize("bits", (2, 3, 8, 23, 64))
    def test_random_series_round_trip(self, bits):
        # every |coefficient| < 2^(bits-1), up to the extremes, with gaps
        # between the degrees and either sign at both ends
        rng = random.Random(bits)
        top = (1 << bits - 1) - 1
        for i in range(300):
            degrees = sorted(rng.sample(range(60), rng.randint(1, 8)))
            series = {deg: rng.choice((1, -1)) * rng.choice((1, top, rng.randint(1, top)))
                      for deg in degrees}
            if i % 3 == 0:
                series[degrees[0]] = -top
                series[degrees[-1]] = -rng.randint(1, top)
            value = sum(coeff * (1 << bits * deg) for deg, coeff in series.items())
            assert balanced_digits(value, bits) == series
        assert balanced_digits(0, bits) == {}

    @pytest.mark.parametrize("bits, error", ((1, ValueError), (0, ValueError),
                                             (2.0, TypeError), (True, TypeError)))
    def test_base_below_4_is_refused(self, bits, error):
        # with digits -1 and 0 a positive value never reaches 0
        with pytest.raises(error):
            balanced_digits(0, bits)


class TestCsv:
    def test_header_and_rows(self):
        csv_text = sequence_csv(INWARD, 4)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "n,term,oracle,match"
        assert lines[2] == "2,-5,-5,true"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_qspiral_rows_serialize_polynomials(self):
        lines = sequence_csv(QSPIRAL, 2).strip().splitlines()
        assert lines[2].startswith("2,-q^4 + q^6,")

    @pytest.mark.parametrize("count", (0, -1))
    def test_bad_count(self, count):
        # a bare header would be a result that checked nothing
        with pytest.raises(ValueError):
            sequence_csv(INWARD, count)

    def test_mismatch_shows_in_rows_and_report(self, monkeypatch):
        oracles = sequences._oracles
        monkeypatch.setattr(sequences, "_oracles", lambda spec, count: [
            value + (n == 3) for n, value in enumerate(oracles(spec, count), start=1)])
        lines = sequence_csv(INWARD, 4).splitlines()
        assert [line.endswith(",false") for line in lines[1:]] == [False, False, True, False]
        report = verify_sequence(INWARD, 4)
        assert report.failures == 1 and report.witnesses[0].point == (3,)
        assert report.witnesses[0].rhs == str(int(report.witnesses[0].lhs) + 1)

    def test_qspiral_witness_prints_as_the_csv_does(self, monkeypatch):
        # the oracle's q-series dict has its keys in the determinant kernel's
        # term order, so the witness must not print the dict itself
        oracles = sequences._oracles
        def plus_one_at_3(spec, count):
            rows = oracles(spec, count)
            rows[2] = {**rows[2], 0: rows[2].get(0, 0) + 1}
            return rows

        monkeypatch.setattr(sequences, "_oracles", plus_one_at_3)
        rows = [line.split(",") for line in sequence_csv(QSPIRAL, 4).splitlines()[1:]]
        assert [row[3] for row in rows] == ["true", "true", "false", "true"]
        report = verify_sequence(QSPIRAL, 4)
        assert report.failures == 1
        witness = report.witnesses[0]
        assert (witness.point, witness.lhs, witness.rhs) == ((3,), rows[2][1], rows[2][2])


def reference_q_series_string(series):
    """The q-series term loop as it stood before the shared formatter."""
    if not series:
        return "0"
    chunks = []
    for deg in sorted(series):
        coeff = series[deg]
        mag = abs(coeff)
        if deg == 0:
            body = str(mag)
        else:
            power = "q" if deg == 1 else f"q^{deg}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


class TestQSeriesString:
    def test_matches_reference(self):
        rng = random.Random(17)
        cases = [{}, {0: 1}, {0: -7}, {1: 1}, {1: -1}, {-1: 1}, {2: -3, 0: 5, -2: 1}]
        for _ in range(300):
            degrees = rng.sample(range(-6, 7), rng.randint(1, 5))
            cases.append({deg: rng.choice((1, -1, rng.randint(2, 50), -rng.randint(2, 50)))
                          for deg in degrees})
        for series in cases:
            assert q_series_string(series) == reference_q_series_string(series)

    def test_qspiral_terms_match_reference(self):
        for n in range(1, 7):
            series = term(QSPIRAL, n)
            assert q_series_string(series) == reference_q_series_string(series)
