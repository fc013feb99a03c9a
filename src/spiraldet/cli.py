"""Command-line frontend: generation, determinants, identity verification,
reductions, sequences, functional-equation checks, and benchmarks.

JSON outputs carry a top-level {"version": "1", "config": {...}, "report":
{...}} envelope; the seed and trial count in effect are always echoed in the
config.  Exit code 0 means zero failures, 1 means a verification failure, 2 a
usage error.  SPIRALDET_SEED provides a default seed; an explicit --seed wins.

Importing this module and building the parser loads only what every command
needs: ``bench`` imports hashlib and statistics, and ``funceq`` mpmath, when
it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import closed_forms, determinant_engine, exponent_algebra, funceq, sequences, spiral_builder
from .exponent_algebra import to_records, to_string

_FAMILIES = ("additive", "bracket", "generalized", "qpower")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPIRALDET_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SPIRALDET_SEED must be an integer, got {env!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _build_family_matrix(family: str, n: int, seed: int):
    if family == "additive":
        return spiral_builder.build_additive(n)
    if family == "qpower":
        return spiral_builder.build_qpower(n)
    if family == "bracket":
        return spiral_builder.build_bracket(n)
    # generalized: reproducible random monomial increments, the up steps drawn first
    rng = random.Random(f"gen:{seed}")
    counts = spiral_builder.step_counts(n)
    ups, downs = ([tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(counts[d])]
                  for d in ("up", "down"))
    return spiral_builder.build_generalized_bracket(n, ups, downs)


def _cmd_gen(args, seed: int):
    matrix = _build_family_matrix(args.family, args.n, seed)
    fields = {"family": args.family, "n": args.n}
    if args.format == "latex":
        return fields, 0, spiral_builder.matrix_to_latex(matrix) + "\n", 0
    if args.format == "text":
        return fields, 0, spiral_builder.matrix_to_text(matrix), 0
    return fields, 0, spiral_builder.matrix_to_json_dict(matrix, args.family), 0


def _cmd_det(args, seed: int):
    if args.family == "additive":
        matrix = spiral_builder.theorem_matrix(1, args.n)
    else:
        matrix = _build_family_matrix(args.family, args.n, seed)
    det = determinant_engine.det_cofactor(matrix)
    fields = {"family": args.family, "n": args.n}
    if args.format == "text":
        return fields, 0, to_string(det) + "\n", 0
    return fields, 0, {"determinant": to_records(det), "string": to_string(det)}, 0


def _symbolic_checks(theorem: int, top: int) -> list[dict]:
    """The symbolic check of every size 1..top, from one cofactor expansion.

    In ``shell_ordered`` every size-k spiral is the leading k x k block of
    the size-top one, with its own determinant, so the leading minors of
    that one matrix give every size's determinant.  Each comes back, largest
    first, as its residue det - formula, empty on a match; a mismatch names
    the lowest exponent vector of the residue and its coefficient.
    """
    residues = determinant_engine.leading_minor_residues(
        spiral_builder.shell_ordered(spiral_builder.theorem_matrix(theorem, top)),
        [closed_forms.theorem(theorem, n) for n in range(1, top + 1)])
    checks = []
    for n, residue in zip(range(top, 0, -1), residues):
        check = {"n": n, "mode": "symbolic", "match": not residue}
        if residue:
            check["witness"] = to_records(residue)[0]
        checks.append(check)
    return checks[::-1]


def _randomized_checks(theorem: int, sizes: range, trials: int, seed: int) -> list[dict]:
    """The randomized check of every size, from one walk, one elimination and one
    evaluation of the formulas per trial.

    In ``shell_ordered`` every size-k spiral is the leading k x k block of
    the largest one, with its own determinant, and the trial's point is the
    same at every size, so the leading minors of the largest matrix give
    every size's determinant.  The walk's cells go to the elimination as
    they are: ints at the integral sample point for theorems 1 and 2.  The
    formulas of neighbouring sizes share most of their factors;
    ``shared_evaluator`` finds the distinct ones once and values each once
    per point.  A failed check names its first failing point and both
    values.
    """
    formulas = exponent_algebra.shared_evaluator([closed_forms.theorem(theorem, n)
                                                  for n in sizes])

    def sides(point):
        minors = determinant_engine.leading_minors(spiral_builder.shell_ordered(
            spiral_builder.numeric_theorem_matrix(theorem, sizes[-1], point)))
        return [(minors[n - 1], value) for n, value in zip(sizes, formulas(point))]

    checks = []
    for n, report in zip(sizes, determinant_engine.randomized_reports(sides, trials, seed)):
        check = {"n": n, "mode": "randomized", "match": not report.failures,
                 "trials": trials, "failures": report.failures}
        if report.witnesses:
            check["witness"] = report.witnesses[0].to_json_dict()
        checks.append(check)
    return checks


def _cmd_verify(args, seed: int):
    guard = determinant_engine.COFACTOR_SIZE_GUARD
    checks = _symbolic_checks(args.theorem, min(args.n_max, guard))
    sizes = range(guard + 1, args.n_max + 1)
    if sizes:
        checks += _randomized_checks(args.theorem, sizes, args.trials, seed)
    fields = {"theorem": args.theorem, "n_max": args.n_max}
    failures = sum(not check["match"] for check in checks)
    if args.format == "text":
        return fields, args.trials, "".join(
            f"theorem {args.theorem} n={c['n']} [{c['mode']}]: "
            f"{'ok' if c['match'] else 'MISMATCH'}\n" for c in checks), failures
    return fields, args.trials, {"checks": checks, "failures": failures}, failures


def _cmd_reduce(args, seed: int):
    reports = {parity: closed_forms.verify_reduction(size, args.trials, seed)
               for parity, size in (("odd", 2 * args.n + 1), ("even", 2 * args.n))}
    failures = sum(rep.failures for rep in reports.values())
    if args.format == "text":
        return {"n": args.n}, args.trials, "".join(
            f"reduction {parity} n={args.n}: {rep.failures}/{rep.trials} failures\n"
            for parity, rep in reports.items()), failures
    report = {parity: rep.to_json_dict() for parity, rep in reports.items()}
    return {"n": args.n}, args.trials, report, failures


def _cmd_seq(args, seed: int):
    seq = sequences.SequenceId(args.seq)
    fields = {"seq": args.seq, "n_max": args.n_max}
    if args.format == "csv":
        report = sequences.sequence_csv(seq, args.n_max)
        return fields, args.n_max, report, report.count(",false")
    rep = sequences.verify_sequence(seq, args.n_max, seed)
    summary = f"{args.seq}: {rep.failures}/{rep.trials} failures\n"
    report = summary if args.format == "text" else rep.to_json_dict()
    return fields, args.n_max, report, rep.failures


def _cmd_funceq(args, seed: int):
    spec = funceq.FamilySpec(funceq.FamilyKind.POWER_SYMMETRIC,
                             alpha=args.alpha, imaginary=args.imaginary)
    relations = [args.relation] if args.relation else list(funceq.RELATIONS)
    reports = funceq.check_relations(spec, relations, args.trials, seed)
    # a NaN residual compares false with everything, so test for a pass
    failures = sum(1 for rep in reports if not rep.max_residual <= args.tolerance)
    fields = {"alpha": args.alpha, "imaginary": args.imaginary, "tolerance": args.tolerance}
    if args.format == "text":
        return fields, args.trials, "".join(
            f"{rep.relation}: max residual {rep.max_residual:.3e}\n" for rep in reports), failures
    report = {"relations": [rep.to_json_dict() for rep in reports], "failures": failures}
    return fields, args.trials, report, failures


def _cmd_bench(args, seed: int):
    import hashlib, statistics  # only here, so no other command loads them

    rows = []
    failures = 0
    for n in range(1, args.n_max + 1):
        point = determinant_engine.sample_point(seed, n)
        matrix = spiral_builder.numeric_theorem_matrix(1, n, point)  # ints, as verify eliminates
        formula = closed_forms.theorem(1, n)
        methods = {"bareiss": lambda: determinant_engine.det_bareiss_rational(matrix),
                   "formula": lambda: formula.evaluate(point)}
        if n <= determinant_engine.COFACTOR_SIZE_GUARD:
            methods["cofactor"] = lambda: determinant_engine.det_cofactor(matrix)
        results = {}
        for name, fn in methods.items():
            times = []
            for _ in range(args.trials):
                t0 = time.perf_counter_ns()
                value = fn()
                times.append(time.perf_counter_ns() - t0)
            results[name] = (int(statistics.median(times)), Fraction(value))
        values = {v for _, v in results.values()}
        if len(values) != 1:
            failures += 1
        for name, (median_ns, value) in sorted(results.items()):
            digest = hashlib.sha256(str(value).encode()).hexdigest()[:16]
            rows.append(f"{n},{name},{median_ns},{digest}")
    report = "n,method,median_ns,result_hash\n" + "\n".join(rows) + "\n"
    if args.format == "json":
        report = {"csv": report, "failures": failures}
    return {"n_max": args.n_max}, args.trials, report, failures


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built at the first call, read-only after it."""
    parser = argparse.ArgumentParser(
        prog="spiraldet",
        description="Spiral-matrix determinant identities, verified in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default_format="json"):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $SPIRALDET_SEED or 0)")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", type=str, default=None, help="write output to a file")

    p = sub.add_parser("gen", help="emit a spiral matrix")
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--family", choices=_FAMILIES, default="additive")
    common(p, ("json", "latex", "text"))

    p = sub.add_parser("det", help="symbolic determinant of a spiral matrix")
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--family", choices=_FAMILIES, default="additive")
    common(p, ("json", "text"))

    p = sub.add_parser("verify", help="check a determinant formula against the matrices")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n-max", type=_positive_int, default=4)
    p.add_argument("--trials", type=_positive_int, default=20,
                   help="random trials per size beyond the symbolic guard")
    common(p, ("json", "text"))

    p = sub.add_parser("reduce", help="check the size-reduction relations")
    p.add_argument("--n", type=_positive_int, default=1, help="reduction index")
    p.add_argument("--trials", type=_positive_int, default=50)
    common(p, ("json", "text"))

    p = sub.add_parser("seq", help="verify integer-sequence specializations")
    p.add_argument("--seq", choices=[s.value for s in sequences.SequenceId],
                   default="inward")
    p.add_argument("--n-max", type=_positive_int, default=8)
    common(p, ("json", "csv", "text"))

    p = sub.add_parser("funceq", help="check the functional-equation relations")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--imaginary", action="store_true",
                   help="treat --alpha as the imaginary magnitude t")
    p.add_argument("--relation", choices=funceq.RELATIONS, default=None,
                   help="single relation (default: all)")
    p.add_argument("--trials", type=_positive_int, default=1000, help="sample count")
    p.add_argument("--tolerance", type=_tolerance, default=1e-9)
    common(p, ("json", "text"))

    p = sub.add_parser("bench", help="time the determinant engines against each other")
    p.add_argument("--n-max", type=_positive_int, default=6)
    p.add_argument("--trials", type=_positive_int, default=3, help="timing repeats per method")
    common(p, ("csv", "json"), default_format="csv")

    return parser


# Each handler returns (fields, trials, report, failures): the config keys
# that go between "command" and "seed", the trial count the config echoes,
# a dict for the JSON envelope or text printed as is, and the failed checks.
_HANDLERS = {
    "gen": _cmd_gen,
    "det": _cmd_det,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "seq": _cmd_seq,
    "funceq": _cmd_funceq,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args)
        fields, trials, report, failures = _HANDLERS[args.command](args, seed)
    except ValueError as exc:  # SizeGuardError and LengthMismatchError among them
        parser.error(str(exc))
    if isinstance(report, str):
        output = report
    else:
        config = {"command": args.command, **fields, "seed": seed, "trials": trials,
                  "format": args.format}
        output = json.dumps({"version": "1", "config": config, "report": report},
                            indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
