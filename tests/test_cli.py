"""Tests for the spiraldet command-line frontend."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from spiraldet import closed_forms, determinant_engine, exponent_algebra, sequences, spiral_builder
from spiraldet.cli import _cmd_verify, build_parser, main
from spiraldet.exponent_algebra import Factored, LaurentPoly, exponents, to_records

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


class TestGen:
    def test_single_entry(self, capsys):
        code, out = run_cli(["gen", "--family", "additive", "--n", "1",
                             "--format", "text"], capsys)
        assert code == 0 and out.strip() == "a"

    def test_latex_matches_display(self, capsys):
        code, out = run_cli(["gen", "--family", "additive", "--n", "4",
                             "--format", "latex"], capsys)
        assert code == 0
        assert "a+4 b+2 c+4 x+5 y" in out
        assert "a+b+c+x+2 y" in out
        assert out.startswith("\\begin{pmatrix}")

    def test_json_envelope(self, capsys):
        code, blob = run_json(["gen", "--family", "qpower", "--n", "2"], capsys)
        assert code == 0
        assert blob["version"] == "1"
        assert blob["config"]["command"] == "gen"
        assert "seed" in blob["config"] and "trials" in blob["config"]
        assert blob["report"]["n"] == 2

    def test_generalized_family_is_seed_reproducible(self, capsys):
        _, first = run_cli(["gen", "--family", "generalized", "--n", "4",
                            "--seed", "5", "--format", "text"], capsys)
        _, second = run_cli(["gen", "--family", "generalized", "--n", "4",
                             "--seed", "5", "--format", "text"], capsys)
        assert first == second


class TestDet:
    def test_qpower_2_text(self, capsys):
        code, out = run_cli(["det", "--family", "qpower", "--n", "2",
                             "--format", "text"], capsys)
        assert code == 0
        assert out.strip() == "-a^2*b*x + a^2*b*x^2*y"

    def test_size_guard_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["det", "--family", "additive", "--n", "9"])
        assert excinfo.value.code == 2


class TestVerify:
    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_small_sizes_pass(self, theorem, capsys):
        code, blob = run_json(["verify", "--theorem", str(theorem),
                               "--n-max", "4"], capsys)
        assert code == 0
        assert blob["report"]["failures"] == 0
        assert len(blob["report"]["checks"]) == 4

    def test_randomized_mode_beyond_guard(self, capsys):
        code, blob = run_json(["verify", "--theorem", "1", "--n-max", "9",
                               "--trials", "3", "--seed", "11"], capsys)
        assert code == 0
        modes = {c["n"]: c["mode"] for c in blob["report"]["checks"]}
        assert modes[8] == "symbolic" and modes[9] == "randomized"

    def test_bracket_family_to_12(self, capsys):
        # the expansion at n = 12 has 249,911 terms; the factored form is
        # evaluated factor by factor instead
        code, blob = run_json(["verify", "--theorem", "3", "--n-max", "12",
                               "--trials", "2"], capsys)
        assert code == 0 and blob["report"]["failures"] == 0
        assert [c["n"] for c in blob["report"]["checks"]] == list(range(1, 13))

    @pytest.mark.parametrize("theorem,n_max,trials", ((3, 24, 1), (2, 40, 2)))
    def test_large_sizes_pass(self, theorem, n_max, trials, capsys):
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", str(n_max),
                               "--trials", str(trials)], capsys)
        assert code == 0 and blob["report"]["failures"] == 0
        checks = blob["report"]["checks"]
        assert [c["n"] for c in checks] == list(range(1, n_max + 1))
        assert all(c["match"] for c in checks)
        assert all(c["failures"] == 0 for c in checks if c["mode"] == "randomized")

    @pytest.mark.parametrize("theorem", (1, 3))
    def test_symbolic_mismatch_names_a_witness(self, theorem, capsys, monkeypatch):
        real = determinant_engine.leading_minor_residues
        # two terms no spiral determinant of size 2 carries; x^-1 is the lower
        extra = 3 * LaurentPoly.monomial(exponents(x=-1)) - 2 * LaurentPoly.monomial(
            exponents(a=5))

        def residues(matrix, formulas):
            # the residues come largest first
            for k, residue in zip(range(len(matrix), 0, -1), real(matrix, formulas)):
                yield residue + extra if k == 2 else residue

        monkeypatch.setattr(determinant_engine, "leading_minor_residues", residues)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", "3"], capsys)
        assert code == 1 and blob["report"]["failures"] == 1
        checks = blob["report"]["checks"]
        assert checks[1] == {"n": 2, "mode": "symbolic", "match": False,
                             "witness": {"coefficient": 3,
                                         "exponents": ["0", "0", "0", "-1", "0"]}}
        assert all("witness" not in c for c in (checks[0], checks[2]))

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_randomized_checks_walk_and_catch_a_wrong_formula(self, theorem, capsys,
                                                              monkeypatch):
        built = []
        real_matrix, real_theorem = spiral_builder.theorem_matrix, closed_forms.theorem

        def theorem_matrix(k, n):
            built.append(n)
            return real_matrix(k, n)

        def doubled(k, n):
            formula = real_theorem(k, n)
            if n <= 8:
                return formula
            return Factored(formula.sign, formula.factors + (LaurentPoly.constant(2),))

        monkeypatch.setattr(spiral_builder, "theorem_matrix", theorem_matrix)
        monkeypatch.setattr(closed_forms, "theorem", doubled)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", "10",
                               "--trials", "2"], capsys)
        assert built == [8]  # one symbolic matrix, none past the guard
        assert code == 1 and blob["report"]["failures"] == 2
        assert [(c["match"], c.get("failures")) for c in blob["report"]["checks"][8:]] == \
            [(False, 2), (False, 2)]

    # Seeds whose elimination meets a zero pivot: theorem 1's trial 3 at seed
    # 45 has a zero 15th leading minor, and theorem 3's trial 0 at seed 11 has
    # x = -1, where every minor from the 2nd on is 0.  The one elimination
    # swaps rows past a zero pivot, so no size takes a det_bareiss_rational.
    @pytest.mark.parametrize("theorem,n_max,trials,seed", (
        (1, 16, 4, 45), (3, 12, 1, 11)), ids=("thm1-seed45", "thm3-seed11"))
    def test_zero_pivot_seeds_pass_and_catch_a_wrong_formula(
            self, theorem, n_max, trials, seed, capsys, monkeypatch):
        argv = ["verify", "--theorem", str(theorem), "--n-max", str(n_max),
                "--trials", str(trials), "--seed", str(seed)]
        sizes = []
        real_bareiss, real_evaluator = (determinant_engine.det_bareiss_rational,
                                        exponent_algebra.shared_evaluator)

        def bareiss(matrix):
            sizes.append(len(matrix))
            return real_bareiss(matrix)

        monkeypatch.setattr(determinant_engine, "det_bareiss_rational", bareiss)
        code, blob = run_json(argv, capsys)
        assert sizes == []
        assert code == 0 and [c["match"] for c in blob["report"]["checks"]] == [True] * n_max

        def off_by_one(formulas):
            # each formula plus one differs from the determinant at every
            # point, also where the determinant is 0 and a doubled formula
            # would pass; only the randomized sizes past 8 evaluate formulas
            values = real_evaluator(formulas)
            return lambda point: [value + 1 for value in values(point)]

        monkeypatch.setattr(exponent_algebra, "shared_evaluator", off_by_one)
        code, blob = run_json(argv, capsys)
        assert code == 1 and blob["report"]["failures"] == n_max - 8
        assert [(c["match"], c["failures"]) for c in blob["report"]["checks"][8:]] == \
            [(False, trials)] * (n_max - 8)

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_failed_randomized_check_names_its_first_point(self, theorem, capsys,
                                                            monkeypatch):
        monkeypatch.delenv("SPIRALDET_SEED", raising=False)
        real_evaluator = exponent_algebra.shared_evaluator

        def off_by_one(formulas):
            # differs from the determinant at every point; only the
            # randomized sizes past 8 evaluate formulas
            values = real_evaluator(formulas)
            return lambda point: [value + 1 for value in values(point)]

        argv = ["verify", "--theorem", str(theorem), "--n-max", "10", "--trials", "2"]
        code, blob = run_json(argv, capsys)
        assert code == 0 and all("witness" not in c for c in blob["report"]["checks"])

        monkeypatch.setattr(exponent_algebra, "shared_evaluator", off_by_one)
        code, blob = run_json(argv, capsys)
        assert code == 1 and blob["report"]["failures"] == 2
        checks = blob["report"]["checks"]
        assert all("witness" not in c for c in checks[:8])
        point = determinant_engine.sample_point(0, 0)
        for check in checks[8:]:
            det = determinant_engine.det_bareiss_rational(
                spiral_builder.numeric_theorem_matrix(theorem, check["n"], point))
            assert check == {"n": check["n"], "mode": "randomized", "match": False,
                             "trials": 2, "failures": 2,
                             "witness": {"point": [str(v) for v in point],
                                         "lhs": str(det), "rhs": str(det + 1)}}

        code, text = run_cli(argv + ["--format", "text"], capsys)
        assert code == 1 and text == "".join(
            [f"theorem {theorem} n={n} [symbolic]: ok\n" for n in range(1, 9)]
            + [f"theorem {theorem} n={n} [randomized]: MISMATCH\n" for n in (9, 10)])

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_one_walk_and_no_per_size_elimination_per_trial(self, theorem, capsys, monkeypatch):
        # seed 0's first three points meet no zero pivot at size 12
        walks, eliminations = [], []
        real_walk, real_bareiss = (spiral_builder.numeric_theorem_matrix,
                                   determinant_engine.det_bareiss_rational)

        def walk(k, n, point):
            walks.append(n)
            return real_walk(k, n, point)

        def bareiss(matrix):
            eliminations.append(len(matrix))
            return real_bareiss(matrix)

        monkeypatch.setattr(spiral_builder, "numeric_theorem_matrix", walk)
        monkeypatch.setattr(determinant_engine, "det_bareiss_rational", bareiss)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", "12",
                               "--trials", "3", "--seed", "0"], capsys)
        assert code == 0 and len(blob["report"]["checks"]) == 12
        assert walks == [12, 12, 12] and eliminations == []

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_each_trial_values_each_distinct_factor_once(self, theorem, capsys, monkeypatch):
        # the formulas of sizes 9..12 share most of their factors
        builds, evaluations, valued = [], [], []
        real_evaluator, real_value = exponent_algebra.shared_evaluator, exponent_algebra._value

        def shared_evaluator(formulas):
            builds.append(len(formulas))
            values = real_evaluator(formulas)

            def evaluate(point):
                evaluations.append(point)
                return values(point)
            return evaluate

        def value(p, coords):
            valued.append(frozenset(p.terms.items()))
            return real_value(p, coords)

        monkeypatch.setattr(exponent_algebra, "shared_evaluator", shared_evaluator)
        monkeypatch.setattr(exponent_algebra, "_value", value)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", "12",
                               "--trials", "3", "--seed", "0"], capsys)
        assert code == 0 and len(blob["report"]["checks"]) == 12
        factors = [frozenset(factor.terms.items()) for n in range(9, 13)
                   for factor in closed_forms.theorem(theorem, n).factors]
        distinct = set(factors)
        assert len(distinct) < len(factors)
        assert builds == [4]
        assert evaluations == [determinant_engine.sample_point(0, t) for t in range(3)]
        per_trial = len(distinct)
        assert [set(valued[t * per_trial:(t + 1) * per_trial]) for t in range(3)] == [distinct] * 3
        assert len(valued) == 3 * per_trial

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    @pytest.mark.parametrize("n_max", (8, 5))
    def test_one_symbolic_matrix_and_one_expansion(self, theorem, n_max, capsys, monkeypatch):
        built, expansions, cofactors = [], [], []
        real_matrix, real_expand = (spiral_builder.theorem_matrix,
                                    determinant_engine._expand_minors)

        def theorem_matrix(k, n):
            built.append(n)
            return real_matrix(k, n)

        def expand(columns, masks):
            expansions.append(len(columns))
            return real_expand(columns, masks)

        monkeypatch.setattr(spiral_builder, "theorem_matrix", theorem_matrix)
        monkeypatch.setattr(determinant_engine, "_expand_minors", expand)
        monkeypatch.setattr(determinant_engine, "det_cofactor", cofactors.append)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", str(n_max)],
                              capsys)
        assert code == 0 and [c["n"] for c in blob["report"]["checks"]] == \
            list(range(1, n_max + 1))
        assert built == expansions == [n_max] and cofactors == []

    def test_symbolic_memory_peak_of_theorem_3(self):
        # tracemalloc peaks move with the interpreter's object layout, so the
        # bound is relative: the per-size det_cofactor loop this replaced,
        # measured in the same process.  On CPython 3.11 the two peak at 2.99
        # and 3.03 MB, and holding every size's determinant at once at 3.20 MB
        def traced_peak(run):
            gc.collect()  # so that no earlier cycle is freed inside the trace
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def per_size():
            # each determinant and expanded formula is freed before the next
            return [{"n": n, "mode": "symbolic",
                     "match": determinant_engine.det_cofactor(spiral_builder.theorem_matrix(3, n))
                     == closed_forms.theorem(3, n).expand()} for n in range(1, 9)]

        args = build_parser().parse_args(["verify", "--theorem", "3", "--n-max", "8"])
        (_, _, report, failures), peak = traced_peak(lambda: _cmd_verify(args, 0))
        checks, reference = traced_peak(per_size)
        assert failures == 0 and report["checks"] == checks
        assert peak <= 1.03 * reference

    @pytest.mark.parametrize("shift_sign", (1, -1))
    def test_formula_past_the_matrix_exponent_bound_mismatches_at_its_size(
            self, shift_sign, capsys, monkeypatch):
        # a^(B0), with B0 = 2 * 8 * max|d| + 1 the packing base of the matrix
        # alone, would pack as b (a^-B0 as 1/b) unless the base covers the formula
        real = closed_forms.theorem
        grid = spiral_builder.theorem_matrix(3, 8)
        reach = max(abs(d) for row in grid for entry in row for vec in entry.terms for d in vec)
        shift = LaurentPoly.monomial(exponents(a=shift_sign * (2 * 8 * reach + 1)))

        def theorem(k, n):
            formula = real(k, n)
            return Factored(formula.sign, (*formula.factors, shift)) if n == 5 else formula

        monkeypatch.setattr(closed_forms, "theorem", theorem)
        code, blob = run_json(["verify", "--theorem", "3", "--n-max", "8"], capsys)
        det = determinant_engine.det_cofactor(spiral_builder.theorem_matrix(3, 5))
        assert code == 1 and blob["report"]["failures"] == 1
        checks = blob["report"]["checks"]
        assert checks[4] == {"n": 5, "mode": "symbolic", "match": False,
                             "witness": to_records(det - det * shift)[0]}
        assert all(c["match"] for c in checks[:4] + checks[5:])

    @pytest.mark.parametrize("theorem", (1, 2, 3))
    def test_matching_symbolic_checks_unpack_and_expand_nothing(self, theorem, capsys,
                                                                monkeypatch):
        # both sides stay on packed keys; LaurentPoly.__mul__ is not counted,
        # since building theorem 1's quadratic factor calls it
        calls = {"_unpack": 0, "expand": 0}
        real_unpack, real_expand = determinant_engine._unpack, Factored.expand

        def unpack(key, base):
            calls["_unpack"] += 1
            return real_unpack(key, base)

        def expand(self):
            calls["expand"] += 1
            return real_expand(self)

        monkeypatch.setattr(determinant_engine, "_unpack", unpack)
        monkeypatch.setattr(Factored, "expand", expand)
        code, blob = run_json(["verify", "--theorem", str(theorem), "--n-max", "8"], capsys)
        assert code == 0 and blob["report"]["failures"] == 0
        assert calls == {"_unpack": 0, "expand": 0}

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--theorem", "1", "--n-max", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n_max", ("3", "9"))
    @pytest.mark.parametrize("trials", ("0", "-1"))
    def test_trials_below_one_is_usage_error(self, n_max, trials, capsys):
        # a symbolic-only range must refuse it too, not echo "trials": 0
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--theorem", "1", "--n-max", n_max, "--trials", trials])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --trials: must be >= 1" in captured.err


class TestReduce:
    def test_reduction_reports(self, capsys):
        code, blob = run_json(["reduce", "--n", "1", "--trials", "10",
                               "--seed", "3"], capsys)
        assert code == 0
        assert blob["report"]["odd"]["failures"] == 0
        assert blob["report"]["even"]["failures"] == 0

    def test_zero_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reduce", "--n", "1", "--trials", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n", ("0", "-1"))
    def test_n_below_one_is_usage_error(self, n, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reduce", "--n", n])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument --n: must be >= 1, got {n}" in captured.err


class TestSeq:
    def test_csv(self, capsys):
        code, out = run_cli(["seq", "--seq", "inward", "--n-max", "4",
                             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,term,oracle,match"
        assert lines[2] == "2,-5,-5,true"

    def test_json(self, capsys):
        code, blob = run_json(["seq", "--seq", "outward", "--n-max", "6"], capsys)
        assert code == 0 and blob["report"]["failures"] == 0

    def test_report_echoes_the_seed(self, capsys):
        code, blob = run_json(["seq", "--seq", "inward", "--n-max", "2", "--seed", "5"], capsys)
        assert code == 0 and blob["config"]["seed"] == blob["report"]["seed"] == 5

    def test_empty_range_is_usage_error(self, capsys):
        # the CSV format would otherwise print a bare header and exit 0
        with pytest.raises(SystemExit) as excinfo:
            main(["seq", "--seq", "inward", "--n-max", "0", "--format", "csv"])
        assert excinfo.value.code == 2

    def test_qspiral_past_the_cofactor_guard(self, capsys):
        code, out = run_cli(["seq", "--seq", "qspiral", "--n-max", "12", "--format", "csv"],
                            capsys)
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == 12
        assert all(row.startswith(f"{n},") and row.endswith(",true")
                   for n, row in enumerate(rows, start=1))

    def test_qspiral_to_16(self, capsys):
        code, out = run_cli(["seq", "--seq", "qspiral", "--n-max", "16", "--format", "csv"],
                            capsys)
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == 16
        assert all(row.startswith(f"{n},") and row.endswith(",true")
                   for n, row in enumerate(rows, start=1))

    @pytest.mark.parametrize("name, count", (("qspiral", 1), ("outward", 1), ("inward", 2)))
    def test_one_bareiss_elimination_per_call(self, name, count, capsys, monkeypatch):
        # every row is a leading minor of the largest matrix; inward's point
        # moves with n, so it takes two eliminations, at a = 0 and a = 1
        cofactors, expansions, eliminations, per_size = [], [], [], []
        real_minors, real_expand = determinant_engine.leading_minors, Factored.expand

        def minors(matrix):
            eliminations.append(len(matrix))
            return real_minors(matrix)

        def expand(self):
            expansions.append(self)
            return real_expand(self)

        assert not hasattr(sequences, "det_bareiss_rational")
        monkeypatch.setattr(sequences, "leading_minors", minors)
        monkeypatch.setattr(determinant_engine, "det_bareiss_rational", per_size.append)
        monkeypatch.setattr(determinant_engine, "det_cofactor", cofactors.append)
        monkeypatch.setattr(determinant_engine, "_expand_minors", cofactors.append)
        monkeypatch.setattr(Factored, "expand", expand)
        code, blob = run_json(["seq", "--seq", name, "--n-max", "8"], capsys)
        assert code == 0 and blob["report"]["failures"] == 0
        assert eliminations == [8] * count and per_size == cofactors == expansions == []


class TestFunceq:
    def test_all_relations_pass(self, capsys):
        code, blob = run_json(["funceq", "--alpha", "1.0", "--trials", "100"], capsys)
        assert code == 0
        assert blob["report"]["failures"] == 0
        assert len(blob["report"]["relations"]) == 5

    def test_impossible_tolerance_fails(self, capsys):
        code, _ = run_json(["funceq", "--alpha", "2.5", "--relation", "6.16",
                            "--trials", "50", "--tolerance", "1e-60"], capsys)
        assert code == 1

    def test_imaginary_flag(self, capsys):
        code, blob = run_json(["funceq", "--alpha", "1.3", "--imaginary",
                               "--trials", "100"], capsys)
        assert code == 0 and blob["config"]["imaginary"] is True

    @pytest.mark.parametrize("argv,message", (
        (["--alpha", "nan"], "argument --alpha: must be finite"),
        (["--alpha", "inf"], "argument --alpha: must be finite"),
        (["--alpha=-inf", "--imaginary"], "argument --alpha: must be finite"),
        (["--tolerance", "nan"], "argument --tolerance: must be finite"),
        (["--tolerance", "inf"], "argument --tolerance: must be finite"),
        (["--tolerance=-1e-9"], "argument --tolerance: must be >= 0"),
        (["--trials", "0"], "argument --trials: must be >= 1"),
        (["--trials", "-1"], "argument --trials: must be >= 1"),
    ))
    def test_non_finite_or_negative_arguments_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["funceq", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_zero_tolerance_is_accepted(self, capsys):
        code, blob = run_json(["funceq", "--alpha", "0", "--relation", "6.14",
                               "--trials", "10", "--tolerance", "0"], capsys)
        assert code == 0 and blob["report"]["failures"] == 0

    def test_non_finite_residual_fails(self, capsys):
        # a finite alpha whose residuals overflow a float must not pass
        code, blob = run_json(["funceq", "--alpha", "1e300", "--relation", "6.1",
                               "--trials", "1"], capsys)
        assert code == 1 and blob["report"]["failures"] == 1

    def test_non_finite_residual_is_strict_json(self, capsys):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out = run_cli(["funceq", "--alpha", "1e300", "--relation", "6.14",
                             "--trials", "1"], capsys)
        assert code == 1
        blob = json.loads(out, parse_constant=refuse)
        assert blob["report"]["relations"][0]["max_residual"] == "inf"
        assert blob["report"]["failures"] == 1


class TestBench:
    def test_csv_hashes_agree(self, capsys):
        code, out = run_cli(["bench", "--n-max", "6", "--trials", "1",
                             "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,method,median_ns,result_hash"
        by_n = {}
        for line in lines[1:]:
            n, method, _, digest = line.split(",")
            by_n.setdefault(n, set()).add(digest)
        assert all(len(digests) == 1 for digests in by_n.values())
        assert {m.split(",")[1] for m in lines[1:] if m.startswith("6,")} == \
            {"bareiss", "cofactor", "formula"}

    def test_numeric_methods_beyond_symbolic_guard(self, capsys):
        code, out = run_cli(["bench", "--n-max", "10", "--trials", "1",
                             "--seed", "2"], capsys)
        assert code == 0
        rows_10 = [line for line in out.strip().splitlines()
                   if line.startswith("10,")]
        assert {row.split(",")[1] for row in rows_10} == {"bareiss", "formula"}
        assert len({row.split(",")[3] for row in rows_10}) == 1

    def test_masked_output_is_pinned(self, capsys):
        # median_ns is a timing, so it is masked; every other byte is fixed
        def mask(text):
            return re.sub(r"^(\d+,\w+,)\d+,", r"\g<1>-,", text, flags=re.M)

        argv = ["bench", "--n-max", "9", "--trials", "1", "--seed", "0"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(mask(out).encode()).hexdigest() == \
            "02f63aade22eb1d3e119899a8f2a34fb70abbeb04dd6b6ba7ed0ab03a78ea1ed"
        code, blob = run_json(argv + ["--format", "json"], capsys)
        assert code == 0
        assert mask(blob["report"]["csv"]) == mask(out)

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--n-max", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("trials", ("0", "-1"))
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--n-max", "2", "--trials", trials])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --trials: must be >= 1" in captured.err


class TestFailureExitCodes:
    """A failed check in reduce, seq or bench exits 1 and shows in the output."""

    @pytest.mark.parametrize("fmt, shown", (
        ("json", '"failures": 1'),
        ("text", "reduction odd n=1: 1/5 failures\nreduction even n=1: 1/5 failures\n"),
    ))
    def test_reduce(self, fmt, shown, capsys, monkeypatch):
        argv = ["reduce", "--n", "1", "--trials", "5", "--seed", "3", "--format", fmt]
        assert run_cli(argv, capsys)[0] == 0
        witness = determinant_engine.Witness((1, 2, 3, 4, 5), 6, 7)
        monkeypatch.setattr(
            closed_forms, "verify_reduction", lambda size, trials, seed:
            determinant_engine.VerificationReport(seed, trials, (witness,)))
        code, out = run_cli(argv, capsys)
        assert code == 1 and shown in out

    @pytest.mark.parametrize("fmt, shown", (
        ("csv", "2,-5,-4,false\n"),
        ("json", '"failures": 4'),
        ("text", "inward: 4/4 failures\n"),
    ))
    def test_seq(self, fmt, shown, capsys, monkeypatch):
        argv = ["seq", "--seq", "inward", "--n-max", "4", "--format", fmt]
        assert run_cli(argv, capsys)[0] == 0
        oracles = sequences._oracles
        monkeypatch.setattr(sequences, "_oracles",
                            lambda spec, count: [value + 1 for value in oracles(spec, count)])
        code, out = run_cli(argv, capsys)
        assert code == 1 and shown in out

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_bench(self, fmt, capsys, monkeypatch):
        argv = ["bench", "--n-max", "3", "--trials", "1", "--seed", "2", "--format", fmt]
        assert run_cli(argv, capsys)[0] == 0
        bareiss = determinant_engine.det_bareiss_rational
        monkeypatch.setattr(determinant_engine, "det_bareiss_rational",
                            lambda matrix: bareiss(matrix) + 1)
        code, out = run_cli(argv, capsys)
        assert code == 1
        csv_text = json.loads(out)["report"]["csv"] if fmt == "json" else out
        digests = {}
        for line in csv_text.splitlines()[1:]:
            n, _, _, digest = line.split(",")
            digests.setdefault(n, set()).add(digest)
        assert sorted(digests) == ["1", "2", "3"]
        assert all(len(found) == 2 for found in digests.values())
        if fmt == "json":
            assert json.loads(out)["report"]["failures"] == 3


# sha256 of the default output of calls whose bytes the CLI contract fixes.
# Recompute these only for an intended change of output, never for a
# change of engine.
GOLDEN_DIGESTS = {
    "det --family additive --n 6 --seed 3":
        "a616ef9f29efad8019ae810e0cd6339c1dde11c89fc5e9fa6a7052752cdb97b3",
    "det --family qpower --n 6 --seed 3":
        "750d71d881bfd77dd515eee9420382a2155853366ff9c6d3178328b6d9075b91",
    "det --family bracket --n 6 --seed 3":
        "007a433afde672e29fa13dd2cf58a858ffa86b32f2f232a3af8f7891ef24d73b",
    "det --family generalized --n 6 --seed 3":
        "e8a36140d4730de1399f9bbc9024ce617ef7e5a00b8a921f08340a43b626b608",
    "verify --theorem 1 --n-max 8 --seed 0":
        "aae011d76562b84c33b3c1dc8f2080e143ec7cc7f136dee10dcc35dba39a6b0f",
    "verify --theorem 2 --n-max 8 --seed 0":
        "ae28f0e737cba39b45e5761fd02bff5926668369691e14608cc6a12a70bec146",
    "verify --theorem 3 --n-max 8 --seed 0":
        "cd22aeb7fa56a9c97bb94a6fbf9940c3eb465d89712b19b852bea3007e7e8caf",
    "seq --seq qspiral --n-max 8 --seed 0":
        "654780c3744e6367aab66b5837992830eac069cbfa2ebb2e2ad719e17b711a14",
    "seq --seq qspiral --n-max 8 --seed 0 --format csv":
        "f939393e06d1f44795553a65f8267a2163ce015e8da00df417a1a83285a19531",
    "gen --family qpower --n 5 --seed 3 --format latex":
        "5de1f8a407654d5e328112b007914dc0d92c68dd9e987a8ac3336b0d503157f6",
    "gen --family qpower --n 5 --seed 3 --format text":
        "349cda246127c8bd45434fedb073939ac2df155697ad5194f09451902480323a",
    "gen --family bracket --n 5 --seed 3 --format latex":
        "df5483a3a24747e74dba019ddd541b1e1fa16b13733fd62c5eb98fbdba35faec",
    "gen --family bracket --n 5 --seed 3 --format text":
        "0335ef6aebdfaafbaa9d8badc3ab84d509367b2468822b4f649f3ea0a798b095",
    "gen --family generalized --n 5 --seed 3 --format latex":
        "a3a45c241471d6acbcaff75098af02612c23f8b252f8d6cb3a1d153d624ea495",
    "gen --family generalized --n 5 --seed 3 --format text":
        "3c7bea43e9659bd2b88a9812ebb51e76ef94604f4e590f73da70149f8aa318e9",
    # the randomized checks past the symbolic guard (n >= 9)
    "verify --theorem 1 --n-max 12 --trials 3 --seed 0":
        "89d0de82738bfbc8a84237008a24709f873ed1ac9a0c1f06d4a2a8365cb8934d",
    "verify --theorem 2 --n-max 12 --trials 3 --seed 0":
        "3a8b837bd4366c4cf66b2e52270d25a9fdaf3fa958867e86e106166a3530af98",
    "verify --theorem 3 --n-max 12 --trials 3 --seed 0":
        "e6faf399446bb227f11a5dba2549d183263a05eb8712407e46cfa3e2416ab3da",
    "verify --theorem 2 --n-max 20 --trials 3 --seed 0":
        "28a78816ab1e1cd6c8b4cc23fecc21d2b753dc7185d287a78ab2694c17a3bd12",
    "verify --theorem 1 --n-max 16 --trials 2 --seed 0":
        "b9ef12138e9880675f3f369c9a9317e8402478e898cf2bd886ab4d2f23431e3d",
    "verify --theorem 3 --n-max 16 --trials 2 --seed 0":
        "f2f6408aab849c012355fc06e9b27fc81b37d1ad4df897ff483ec142b80befb8",
    # every family's cells in each format, the additive sequences, reduce
    # and funceq
    "gen --family additive --n 5 --seed 3 --format json":
        "490a3295fed4f08bdc76152d6e5994a19c6911bbbcc420cfa51aae194e6102e5",
    "gen --family additive --n 5 --seed 3 --format latex":
        "fbe51002c4a63265ffc5626a279d39bec9c81fff8154f07f0b35be3c7151af22",
    "gen --family additive --n 5 --seed 3 --format text":
        "302de68f2bb90319409fe0f3136981a0f85079e2a78d8c6a53b032a6663a4a45",
    "gen --family qpower --n 5 --seed 3":
        "4413753079550a36e8c520c745ead3c946106eff44864010e896189fcb62963d",
    "gen --family bracket --n 5 --seed 3":
        "d03dcd83488d081a5932382562933214ea5c37ca987de0b3a2ce3b27d4cbbd62",
    "gen --family generalized --n 5 --seed 3":
        "4e340f1c0e991224b31b98600f9597537277f5e737b628ca2ea9c02d76eef26a",
    "seq --seq inward --n-max 8 --seed 0 --format csv":
        "ab76019478543fd0a50357da24a56dc2435f9dfec371543fd08b5892c92c559e",
    "seq --seq outward --n-max 8 --seed 0 --format csv":
        "c11ca09094581d35c67af6ced5bed53d85061732d841bed691ac04618f3ff4fa",
    "reduce --n 2 --trials 10 --seed 3":
        "c4dc5d74f38cb8dbe2e187932ce06268581de5081bca2d08ba82c8cb6e2e2c47",
    "reduce --n 7 --trials 10 --seed 3":
        "6a162223de76644bd4326b3c1a1b70cc7955440827d723f24870b8b8f8f57f8d",
    "funceq --alpha 1.5 --trials 50 --seed 1":
        "e14ea988dfbab3c8f30b72f367c23a7b8187f8a0857f619da53ac8485a5ad326",
    "funceq --alpha 0.7 --imaginary --trials 50 --seed 2":
        "17fdaf5293f937b4987508f65891e68d5f30ade699b5db03f9df89b74b734575",
    # the text formats of det, verify, reduce, seq and funceq, and seq's JSON
    "det --family qpower --n 4 --seed 3 --format text":
        "956eddb8df8874852d62c4b752a051201df4bd7ecee7bc1eb8bf12894482c1d8",
    "verify --theorem 2 --n-max 10 --trials 2 --seed 0 --format text":
        "d9f844b7186c3d2abfc9493444795a43a5c395d9c275461bdb52c83d033b0913",
    "reduce --n 2 --trials 10 --seed 3 --format text":
        "8e4b5bf96f0f1b86a52e83584063c479fe826139cec95cdbe3a5ded708565d24",
    "reduce --n 12 --trials 10 --seed 3 --format text":
        "224d170366dd9f5e03ea483b984eccc1f621eb12654144c283828690a2db218b",
    "seq --seq inward --n-max 8 --seed 0 --format text":
        "bba91e28f097f8908db3e6a0da107ad44c9fa3c42421f10f3bcf7a6317634c99",
    "seq --seq outward --n-max 8 --seed 0":
        "2e1d6805f66ffe58b71084caa0664b56327ac0711d6e1dd257dd82570f9c78d2",
    "funceq --alpha 1.5 --trials 50 --seed 1 --format text":
        "f9ae8c55cc87c76589c112a66c5d89bca93d57d40762176beeceb64e4a5844d0",
    # funceq's two benchmark specs at full size, and the mpf_pow branches of a
    # general alpha and a negative integer one
    "funceq --alpha 1.5 --trials 1000 --seed 60493":
        "787f7edb4e3fc74d798c63c20b61cccd7a77bdb360bcb073b2216ea7a44c11c2",
    "funceq --alpha 0.75 --imaginary --trials 1000 --seed 60493":
        "be396dc51740d073e2ef2765e9104ec491db483c95b9ff2f7d8852d825803fe1",
    "funceq --alpha 0.3 --trials 200 --seed 5":
        "4f5cf197299053c108ff25df8be9d55cde6cf92bcb1182b168cbe9354c5d3489",
    "funceq --alpha -3 --relation 6.16 --trials 200 --seed 5":
        "f9559b25cc11f453edb965adb2cafcd874a5b88b3ffba26e46bdf42e5747443c",
}


class TestContract:
    @pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
    def test_golden_digest(self, command, capsys):
        code, out = run_cli(command.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify"])  # --theorem is required
        assert excinfo.value.code == 2

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_byte_identical_output(self, capsys):
        argv = ["verify", "--theorem", "2", "--n-max", "3", "--seed", "7"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run_cli(["verify", "--theorem", "1", "--n-max", "2",
                             "--out", str(path)], capsys)
        assert code == 0 and out == ""
        blob = json.loads(path.read_text())
        assert blob["report"]["failures"] == 0

    def test_env_seed_default_and_flag_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPIRALDET_SEED", "99")
        _, blob = run_json(["verify", "--theorem", "1", "--n-max", "2"], capsys)
        assert blob["config"]["seed"] == 99
        _, blob = run_json(["verify", "--theorem", "1", "--n-max", "2",
                            "--seed", "4"], capsys)
        assert blob["config"]["seed"] == 4

    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPIRALDET_SEED", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--theorem", "1", "--n-max", "2"])
        assert excinfo.value.code == 2
        assert "SPIRALDET_SEED" in capsys.readouterr().err

    def test_one_parser_serves_every_call_of_a_process(self, capsys, monkeypatch):
        # each call in one process prints what the same call prints alone,
        # in a fresh interpreter, a usage error between them included
        calls = (["verify", "--theorem", "2", "--n-max", "10", "--trials", "2"],
                 ["verify", "--theorem", "4"],
                 ["seq", "--seq", "inward", "--n-max", "6", "--format", "csv"],
                 ["funceq", "--trials", "50", "--format", "text"])
        monkeypatch.delenv("SPIRALDET_SEED", raising=False)
        build_parser.cache_clear()
        together = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            together.append((code, captured.out, captured.err))
        assert build_parser.cache_info().misses == 1
        env = dict(os.environ, PYTHONPATH=SRC)
        alone = [subprocess.run([sys.executable, "-m", "spiraldet", *argv], capture_output=True,
                                text=True, env=env) for argv in calls]
        assert together == [(proc.returncode, proc.stdout, proc.stderr) for proc in alone]
        assert [code for code, _, _ in together] == [0, 2, 0, 0]

    def test_cli_import_leaves_mpmath_unloaded(self):
        # only funceq.check_relations uses mpmath, and imports it when called
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import spiraldet.cli; "
                "spiraldet.cli.build_parser(); print('mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "False\n"

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "spiraldet", "seq", "--seq", "inward",
             "--n-max", "3", "--format", "csv"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,term,oracle,match")
