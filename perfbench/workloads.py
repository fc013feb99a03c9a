"""The benchmark's four workloads, their verdict checks and negative controls.

Every workload drives spiraldet in-process, mostly through the stable CLI
surface ``spiraldet.cli.main([..., "--out", path])``, and checks each verdict
against the known answer: the theorems, sequences, reductions and relations
are all true, so every check must match.  A verdict is

* ok      -- the program returned the known answer;
* wrong   -- it returned something else (a mismatch, a missing or extra
  check, a vacuous pass, or an exit code that disagrees with its report);
* refused -- it raised instead of answering (a typed error or a crash).

Wrong and refused verdicts both count as failed operations; only a wrong one
makes the run incorrect.  The timed workloads hold no call that fails at the
commit that added this benchmark.  A call that is known to fail there runs in
an untimed probe instead, whose outcome every run prints.  Names are looked up
on the modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Tally:
    ok: int = 0
    wrong: int = 0
    refused: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ok + self.wrong + self.refused

    @property
    def failed(self) -> int:
        return self.wrong + self.refused

    def add(self, good: bool, what: str) -> None:
        if good:
            self.ok += 1
        else:
            self.wrong += 1
            self.notes.append(f"wrong: {what}")

    def refuse(self, count: int, what: str) -> None:
        self.refused += count
        self.notes.append(f"refused: {what}")


@dataclass(frozen=True)
class Workload:
    steps: Callable  # (seed) -> list of step(spiraldet, tally, out_path)
    control: Callable  # (spiraldet, seed, tally) -> None
    probe: Callable | None = None  # (spiraldet) -> Tally of a known defect


def _cli_step(argv: list[str], verdicts: int, check: Callable):
    """One CLI call; ``check(code, text)`` returns one (good, what) per verdict."""
    command = " ".join(argv)

    def step(sd, tally, out):
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)  # never read a stale report
        try:
            code = sd.cli.main(argv + ["--out", out])
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
        except SystemExit as exc:  # argparse usage error
            tally.refuse(verdicts, f"{command}: usage error, exit {exc.code}")
            return
        except Exception:  # a crash is a refused answer; keep the run going
            tally.refuse(verdicts, f"{command}: {traceback.format_exc(limit=3)}")
            return
        try:
            results = check(code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            results = [(False, f"{command}: malformed output: {exc!r}")] * verdicts
        for good, what in results:
            tally.add(good, what)
    return step


def _verify(theorem: int, n_max: int, trials: int, seed: int):
    def check(code, text):
        report = json.loads(text)["report"]
        checks = report["checks"]
        by_n = {c["n"]: c for c in checks}
        # A vacuous or inconsistent report fails every verdict of the call.
        call_ok = code == 0 and report["failures"] == 0 and len(checks) == n_max
        return [(call_ok and n in by_n and by_n[n]["match"] is True
                 and ("trials" not in by_n[n]
                      or (by_n[n]["trials"] == trials and by_n[n]["failures"] == 0)),
                 f"verify --theorem {theorem} n={n} (exit {code})")
                for n in range(1, n_max + 1)]

    argv = ["verify", "--theorem", str(theorem), "--n-max", str(n_max),
            "--trials", str(trials), "--seed", str(seed)]
    return _cli_step(argv, n_max, check)


def _seq(name: str, n_max: int, seed: int):
    def check(code, text):
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        call_ok = code == 0 and lines[:1] == ["n,term,oracle,match"] and len(rows) == n_max
        if not call_ok:
            return [(False, f"seq {name}: exit {code}, {len(rows)} rows")] * n_max
        # Each row is n, formula term, brute-force oracle, match flag.
        return [(len(row) == 4 and row[0] == str(n) and row[1] == row[2] and row[3] == "true",
                 f"seq {name} n={n}") for n, row in enumerate(rows, start=1)]

    argv = ["seq", "--seq", name, "--n-max", str(n_max), "--format", "csv", "--seed", str(seed)]
    return _cli_step(argv, n_max, check)


def _reduce(n: int, trials: int, seed: int):
    def check(code, text):
        report = json.loads(text)["report"]
        return [(code == 0 and report[parity]["trials"] == trials
                 and report[parity]["failures"] == 0, f"reduce --n {n} {parity} (exit {code})")
                for parity in ("odd", "even")]

    argv = ["reduce", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    return _cli_step(argv, 2, check)


def _funceq(alpha: float, imaginary: bool, samples: int, seed: int):
    relations = ("6.1", "6.14", "6.15", "6.16", "6.17")
    tolerance = 1e-9  # the CLI default

    def check(code, text):
        report = json.loads(text)["report"]
        by_relation = {rep["relation"]: rep for rep in report["relations"]}
        call_ok = (code == 0 and report["failures"] == 0
                   and len(report["relations"]) == len(relations))
        return [(call_ok and by_relation[r]["samples"] == samples
                 and by_relation[r]["max_residual"] <= tolerance,
                 f"funceq alpha={alpha} imaginary={imaginary} {r} (exit {code})")
                for r in relations]

    argv = ["funceq", "--alpha", str(alpha), "--trials", str(samples), "--seed", str(seed)]
    return _cli_step(argv + (["--imaginary"] if imaginary else []), len(relations), check)


def _wedge(sd, tally, size: int) -> None:
    """Wedge elimination on the theorem-3 matrix of one size, compared with theorem 3."""
    engine, forms = sd.determinant_engine, sd.closed_forms
    z = sd.spiral_builder.build_bracket_xx(size)
    if size % 2:
        eliminate, expected = engine.wedge_eliminate_odd, forms.thm3_odd
    else:
        eliminate, expected = engine.wedge_eliminate_even, forms.thm3_even
    try:
        _, factorization = eliminate(z)
        good = factorization.product() == expected(size // 2)
    except Exception as exc:
        tally.refuse(1, f"wedge size {size}: {type(exc).__name__}: {exc}"[:200])
        return
    tally.add(good, f"wedge size {size}")


def _wedges(sizes):
    def step(sd, tally, out):
        for size in sizes:
            _wedge(sd, tally, size)
    return step


#: Wedge sizes that raise WedgeNotZeroError at the commit that added this
#: benchmark (the lower-wedge bound of the odd elimination, ROADMAP item 1).
KNOWN_WEDGE_REFUSALS = (7, 9)


def _wedge_probe(sd) -> Tally:
    """The known wedge refusals, once per run and untimed."""
    tally = Tally()
    for size in KNOWN_WEDGE_REFUSALS:
        _wedge(sd, tally, size)
    return tally


# -- negative controls: a wrong right-hand side must be caught every time --------
#
# The wrong right-hand side is the formula plus one.  It differs from the true
# value at every point; the negated formula does not where the determinant
# vanishes, as it does at some sample points.


def _theorem(sd, theorem: int, n: int):
    build, forms = sd.spiral_builder, sd.closed_forms
    if theorem == 1:
        matrix = [[form.to_poly() for form in row] for row in build.build_additive(n)]
    else:
        matrix = build.build_qpower(n) if theorem == 2 else build.build_bracket_xx(n)
    formula = getattr(forms, f"thm{theorem}_{'odd' if n % 2 else 'even'}")(n // 2)
    return matrix, formula


def _cofactor_control(sd, seed, tally):
    for theorem in (1, 2, 3):
        matrix, formula = _theorem(sd, theorem, 6)
        caught = sd.determinant_engine.det_cofactor(matrix) != formula + 1
        tally.add(caught, f"control: det_cofactor accepted thm{theorem} + 1 at n=6")


def _randomized_control(theorem: int, n: int, trials: int):
    def control(sd, seed, tally):
        engine = sd.determinant_engine
        matrix, formula = _theorem(sd, theorem, n)
        report = engine.verify_identity(
            lambda point: engine.numeric_matrix(matrix, point), formula + 1, trials, seed)
        caught = report.failures
        for i in range(trials):
            tally.add(i < caught, f"control: verify_identity passed thm{theorem} + 1 at n={n} "
                                  f"on {trials - caught} of {trials} trials")
    return control


def _aux_control(sd, seed, tally):
    _randomized_control(1, 9, 3)(sd, seed, tally)
    _, factorization = sd.determinant_engine.wedge_eliminate_even(
        sd.spiral_builder.build_bracket_xx(6))
    tally.add(factorization.product() != sd.closed_forms.thm3_even(3) + 1,
              "control: wedge product equals thm3 + 1 at size 6")


# Why each workload exists is recorded in BENCHMARK.json at the repository root.
WORKLOADS = {
    # All 24 checks are symbolic cofactor checks; never evaluate or Bareiss.
    "symbolic": Workload(
        lambda seed: [_verify(k, 8, 1, seed) for k in (1, 2, 3)], _cofactor_control),
    # Few, huge evaluations (22k and 54k terms) after the symbolic prefix.
    "bracket_random": Workload(
        lambda seed: [_verify(3, 10, 5, seed)], _randomized_control(3, 9, 2)),
    # Bareiss on 2k-17k-bit determinants and ~8,000 one-term evaluations.
    "qpower_large": Workload(
        lambda seed: [_verify(2, 20, 3, seed)], _randomized_control(2, 16, 3)),
    # The layers no verify call reaches.  The wedge sizes that are refused
    # today run in the untimed probe, not in the passes.
    "aux_checks": Workload(
        lambda seed: [_seq("inward", 24, seed), _seq("outward", 24, seed),
                      _seq("qspiral", 8, seed), _reduce(2, 50, seed), _reduce(6, 50, seed),
                      _funceq(1.5, False, 1000, seed), _funceq(0.75, True, 1000, seed),
                      _wedges([n for n in range(1, 10) if n not in KNOWN_WEDGE_REFUSALS])],
        _aux_control, _wedge_probe),
}
