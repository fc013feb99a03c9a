"""Tests for the functional-equation verification and classification."""

import json
import math
import random
import re
from collections import Counter

import mpmath
import pytest
from mpmath import libmp

from spiraldet import funceq
from spiraldet.funceq import (
    RELATIONS,
    DomainError,
    FamilyKind,
    FamilySpec,
    UnclassifiableError,
    UnknownRelationError,
    check_relations,
    classify,
    eval_f,
    eval_g,
)

POWER = FamilyKind.POWER_SYMMETRIC

ACCEPTED_SPECS = {
    "alpha=0": FamilySpec(POWER, alpha=0.0),
    "alpha=1": FamilySpec(POWER, alpha=1.0),
    "alpha=2.5": FamilySpec(POWER, alpha=2.5),
    "imaginary t=1.3": FamilySpec(POWER, alpha=1.3, imaginary=True),
    "log-affine": FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0),
    "zero": FamilySpec(FamilyKind.ZERO),
}


# Real and imaginary exponents, c1/c2 != 1, exponents past the float range and
# non-finite ones, the log-affine and the zero family.
REFERENCE_SPECS = {
    **{f"alpha={alpha}": FamilySpec(POWER, alpha=alpha, c1=0.3, c2=-1.7)
       for alpha in (0.0, -2.5, 20.0, 400.0, math.nan, math.inf)},
    # each branch of mpf_pow: +-1/2, integers, general exponents, and a
    # half-integer past the default digits (7.5 works at 43)
    **{f"alpha={alpha}": FamilySpec(POWER, alpha=alpha, c1=0.3, c2=-1.7)
       for alpha in (0.5, -0.5, 1.0, -3.0, 0.3, -1.7, 7.5)},
    "alpha=1.5": FamilySpec(POWER, alpha=1.5),
    "alpha=2.5 c2=-1": FamilySpec(POWER, alpha=2.5, c2=-1.0),
    **{f"imaginary t={t}": FamilySpec(POWER, alpha=t, imaginary=True, c1=1.0, c2=2.5)
       for t in (0.75, 2.7, 50.0, math.nan)},
    "imaginary t=-1.3": FamilySpec(POWER, alpha=-1.3, imaginary=True),
    "log-affine": FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0),
    "log-affine c1=-0.5": FamilySpec(FamilyKind.LOG_AFFINE, c1=-0.5, c2=3.0),
    "zero": FamilySpec(FamilyKind.ZERO),
}


def _reference_g(spec, x, lib):
    """g as a formula of its own, separate from f."""
    if spec.kind is POWER:
        if spec.imaginary:
            return 2 * lib.cos(spec.alpha * lib.log(x))
        return x ** spec.alpha + x ** -spec.alpha
    return 2.0


def _reference_f(spec, x, lib):
    """f as a formula of its own, separate from g."""
    if spec.kind is FamilyKind.ZERO:
        return 0.0
    if spec.kind is FamilyKind.LOG_AFFINE:
        return spec.c1 + spec.c2 * lib.log(x)
    if spec.imaginary:
        t = spec.alpha * lib.log(x)
        return spec.c1 * lib.cos(t) + spec.c2 * lib.sin(t)
    return spec.c1 * x ** spec.alpha + spec.c2 * x ** -spec.alpha


def _reference_residual(spec, relation, a, x):
    g = lambda v: _reference_g(spec, v, mpmath)
    f = lambda v: _reference_f(spec, v, mpmath)
    if relation == "6.1":
        return f(a) * g(x) - f(a * x) - f(a / x)
    if relation == "6.14":
        return g(x) - g(1 / x)
    if relation == "6.15":
        return g(x * x) - (g(x) ** 2 - 2)
    if relation == "6.16":
        return g(x ** 3) - (g(x) ** 3 - 3 * g(x))
    return g(a) * g(x) - g(a * x) - g(a / x)


def _reference_check(spec, relation, samples, seed):
    """One relation at a time: its own draw of every sample, f and g recomputed per term."""
    worst, argmax = -1.0, ()
    with mpmath.workdps(funceq._working_digits(spec)):
        for i in range(samples):
            a, x = funceq._sample_log_uniform(seed, i)
            r = abs(_reference_residual(spec, relation, mpmath.mpf(a), mpmath.mpf(x)))
            if not r <= worst and (r > worst or math.isfinite(worst)):
                worst = float(r)
                argmax = (a, x) if relation in ("6.1", "6.17") else (x,)
    return funceq.ResidualReport(relation, samples, worst, argmax)


def _outcome(fn, *args):
    """repr of the value, or the exception's type name: equal only when bit-identical."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


class TestEvalG:
    def test_alpha_zero_is_two(self):
        assert eval_g(FamilySpec(POWER, alpha=0.0), 7.3) == 2.0

    def test_alpha_one(self):
        assert eval_g(FamilySpec(POWER, alpha=1.0), 3.0) == pytest.approx(10 / 3, abs=1e-15)

    def test_imaginary_at_one(self):
        assert eval_g(FamilySpec(POWER, alpha=1.3, imaginary=True), 1.0) == 2.0

    def test_g_at_one_is_two_for_nonzero_families(self):
        for spec in ACCEPTED_SPECS.values():
            assert eval_g(spec, 1.0) == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_g(FamilySpec(POWER, alpha=1.0), 0.0)
        with pytest.raises(DomainError):
            eval_g(FamilySpec(POWER, alpha=1.0), -2.0)


class TestEvalF:
    def test_zero_kind(self):
        assert eval_f(FamilySpec(FamilyKind.ZERO), 5.0) == 0.0

    def test_log_affine_at_e(self):
        spec = FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0)
        assert eval_f(spec, math.e) == pytest.approx(3.0, abs=1e-12)

    def test_power_symmetric(self):
        assert eval_f(FamilySpec(POWER, alpha=1.0), 2.0) == 2.5

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_f(FamilySpec(POWER, alpha=1.0), -1.0)


class TestCheckRelation:
    def test_pointwise_instance_6_1(self):
        # f(x) = x - 1/x, g(x) = x + 1/x: f(2)g(3) = f(6) + f(2/3) = 5
        spec = FamilySpec(POWER, alpha=1.0, c1=1.0, c2=-1.0)
        f = lambda v: eval_f(spec, v)
        g = lambda v: eval_g(spec, v)
        assert f(2.0) * g(3.0) == pytest.approx(5.0, abs=1e-12)
        assert f(6.0) + f(2 / 3) == pytest.approx(5.0, abs=1e-12)

    def test_pointwise_instance_6_17(self):
        spec = FamilySpec(POWER, alpha=1.0)
        g = lambda v: eval_g(spec, v)
        assert g(2.0) * g(3.0) == pytest.approx(g(6.0) + g(2 / 3), abs=1e-12)

    def test_constant_g_relation_6_15(self):
        # g = 2 everywhere: 2 = 4 - 2 with zero residual
        report = check_relations(FamilySpec(FamilyKind.LOG_AFFINE), ["6.15"], 100, seed=4)[0]
        assert report.max_residual == 0.0

    def test_all_specs_all_relations(self):
        for name, spec in ACCEPTED_SPECS.items():
            for relation in RELATIONS:
                report = check_relations(spec, [relation], 200, seed=10)[0]
                assert report.max_residual < 1e-9, (name, relation)

    def test_deterministic(self):
        spec = FamilySpec(POWER, alpha=2.5)
        a = check_relations(spec, ["6.16"], 50, seed=3)[0]
        b = check_relations(spec, ["6.16"], 50, seed=3)[0]
        assert a == b

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            check_relations(FamilySpec(FamilyKind.ZERO), ["6.2"], 10, seed=0)

    def test_report_json_shape(self):
        report = check_relations(FamilySpec(POWER, alpha=1.0), ["6.17"], 25, seed=1)[0]
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert set(blob) == {"relation", "samples", "max_residual", "argmax"}
        assert blob["samples"] == 25
        assert len(blob["argmax"]) == 2  # two-argument relation


class TestCheckRelations:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS)
    def test_equals_the_per_relation_reference(self, spec):
        for seed in (0, 7):
            expected = [repr(_reference_check(spec, rel, 30, seed)) for rel in RELATIONS]
            assert [repr(rep) for rep in check_relations(spec, RELATIONS, 30, seed)] == expected
            assert [repr(check_relations(spec, [rel], 30, seed)[0])
                    for rel in RELATIONS] == expected

    @pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS)
    def test_eval_f_and_g_equal_the_separate_formulas(self, spec):
        rng = random.Random(5)
        for _ in range(300):
            x = 10.0 ** rng.uniform(-3.0, 3.0)
            assert _outcome(eval_f, spec, x) == _outcome(_reference_f, spec, x, math), x
            assert _outcome(eval_g, spec, x) == _outcome(_reference_g, spec, x, math), x

    @pytest.mark.parametrize("spec", (FamilySpec(POWER, alpha=1.5),
                                      FamilySpec(POWER, alpha=0.75, imaginary=True)),
                             ids=("real", "imaginary"))
    def test_benchmark_specs_equal_the_reference(self, spec):
        # the two specs perfbench's aux_checks runs, with the CLI's c1 = c2 = 1
        expected = [repr(_reference_check(spec, rel, 200, 60493)) for rel in RELATIONS]
        assert [repr(rep) for rep in check_relations(spec, RELATIONS, 200, 60493)] == expected

    @pytest.mark.parametrize("spec", (FamilySpec(POWER, alpha=1.5, c1=0.3, c2=-1.7),
                                      FamilySpec(POWER, alpha=0.3),
                                      FamilySpec(POWER, alpha=0.75, imaginary=True),
                                      FamilySpec(FamilyKind.LOG_AFFINE, c1=1.0, c2=2.0)),
                             ids=("half-integer", "general", "imaginary", "log-affine"))
    def test_reports_ignore_the_callers_mpmath_context(self, spec):
        reports = []
        for dps in (15, 100):
            with mpmath.workdps(dps):
                before = (mpmath.mp.prec, mpmath.mp.dps, tuple(mpmath.mp._prec_rounding))
                reports.append([repr(rep) for rep in check_relations(spec, RELATIONS, 20, 4)])
                assert (mpmath.mp.prec, mpmath.mp.dps, tuple(mpmath.mp._prec_rounding)) == before
        assert reports[0] == reports[1]

    # one alpha per branch of mpf_pow that _mp_arithmetic's powers follows:
    # integer, +-1/2, other half-integers, general, zero and the non-finite
    POWER_BRANCHES = {
        "integer": (1.0, 2.0, -3.0, 20.0), "half": (0.5, -0.5),
        "half-integer": (1.5, -1.5, 7.5, -2.5), "general": (0.3, -1.7, 0.75, 1e-300),
        "zero": (0.0,), "non-finite": (math.inf, -math.inf, math.nan),
    }

    @pytest.mark.parametrize("dps", (40, 120))
    @pytest.mark.parametrize("branch", POWER_BRANCHES)
    def test_powers_equal_mpf_pow(self, branch, dps):
        prec = libmp.dps_to_prec(dps)
        powers = funceq._mp_arithmetic(prec).powers
        with mpmath.workdps(dps):
            for alpha in self.POWER_BRANCHES[branch]:
                for x in (0.1, 0.5, 1.0, 2.0, 3.7, 9.99, 1e-300, 1e300):
                    x_mp, alpha_mp = mpmath.mpf(x), mpmath.mpf(alpha)
                    up, down = powers(x_mp._mpf_, alpha_mp._mpf_)
                    # mpf's ** operator, and the libmp call it makes
                    assert (up, down) == ((x_mp ** alpha_mp)._mpf_, (x_mp ** -alpha_mp)._mpf_)
                    assert (up, down) == (
                        libmp.mpf_pow(x_mp._mpf_, alpha_mp._mpf_, prec, libmp.round_nearest),
                        libmp.mpf_pow(x_mp._mpf_, libmp.mpf_neg(alpha_mp._mpf_), prec,
                                      libmp.round_nearest)), (alpha, x)

    @pytest.mark.parametrize("dps", (funceq._MP_DPS, 3 * funceq._MP_DPS))
    def test_imaginary_fg_equals_separate_cos_and_sin(self, dps):
        # one cos_sin rounds each value as mpmath.cos and mpmath.sin do, also
        # at t = 0 (x = 1) and below 2^-(prec+10), where mpf_cos_sin branches
        with mpmath.workdps(dps):
            tiny = mpmath.mpf(2) ** -(mpmath.mp.prec + 20)
            special = 0
            arithmetic = funceq._mp_arithmetic(mpmath.mp.prec)
            for alpha in (0.75, -1.3, 2.7, 50.0, 1e-300, tiny):
                spec = FamilySpec(POWER, alpha=mpmath.mpf(alpha), imaginary=True,
                                  c1=mpmath.mpf(0.3), c2=mpmath.mpf(-1.7))
                raw = FamilySpec(POWER, alpha=spec.alpha._mpf_, imaginary=True,
                                 c1=spec.c1._mpf_, c2=spec.c2._mpf_)
                for x in map(mpmath.mpf, (1, 0.1, 0.5, 2, 9.99)):
                    t = spec.alpha * mpmath.log(x)
                    special += abs(t) < mpmath.mpf(2) ** -(mpmath.mp.prec + 10)
                    cos, sin = mpmath.cos(t), mpmath.sin(t)
                    expected = (spec.c1 * cos + spec.c2 * sin, 2 * cos)
                    assert list(funceq._fg(raw, x._mpf_, arithmetic)) == \
                        [v._mpf_ for v in expected], (alpha, x)
            # t = 0 at x = 1 for each of 6 alphas, and tiny at the last two alphas
            assert special == 6 + 2 * 4

    def test_reports_follow_the_given_order(self):
        spec = FamilySpec(POWER, alpha=2.5)
        reports = check_relations(spec, ("6.17", "6.15", "6.17"), 20, seed=3)
        assert [rep.relation for rep in reports] == ["6.17", "6.15", "6.17"]
        assert reports[0] == reports[2] == check_relations(spec, ["6.17"], 20, seed=3)[0]

    @pytest.mark.parametrize("spec", (FamilySpec(POWER, alpha=1.5, c1=0.3, c2=-1.7),
                                      FamilySpec(POWER, alpha=0.75, imaginary=True)),
                             ids=("real", "imaginary"))
    @pytest.mark.parametrize("relations,points", (
        (RELATIONS, lambda a, x: [a, x, a * x, a / x, 1 / x, x * x, x ** 3]),
        (["6.15"], lambda a, x: [x, x * x]),
    ), ids=("all", "6.15"))
    def test_each_point_is_evaluated_once(self, monkeypatch, spec, relations, points):
        seen = []
        real = funceq._fg

        def spy(family, v, m):
            seen.append(v)
            return real(family, v, m)

        monkeypatch.setattr(funceq, "_fg", spy)
        check_relations(spec, relations, 1, seed=3)
        with mpmath.workdps(funceq._working_digits(spec)):
            a, x = map(mpmath.mpf, funceq._sample_log_uniform(3, 0))
            expected = [v._mpf_ for v in points(a, x)]
        assert len(set(expected)) == len(expected)
        # g(x^2) is evaluated at x^2, never derived from g(x)
        assert Counter(seen) == Counter(expected)

    @pytest.mark.parametrize("relations", (
        ["6.2"], ["6.2", "6.1"], ["6.1", "6.2", "6.17"], [*RELATIONS, "6.2"], ["6.1", 6.1]))
    def test_unknown_relation_anywhere_is_refused_before_sampling(self, monkeypatch, relations):
        def draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(funceq, "_sample_log_uniform", draw)
        with pytest.raises(UnknownRelationError):
            check_relations(FamilySpec(POWER, alpha=1.0), relations, 10, seed=0)

    def test_bare_string_is_refused_naming_the_list_form(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(funceq, "_sample_log_uniform", draw)
        with pytest.raises(TypeError, match=re.escape('["6.15"]')):
            check_relations(FamilySpec(POWER, alpha=1.0), "6.15", 3, seed=0)

    @pytest.mark.parametrize("relations", ([], ()))
    def test_empty_relation_list_is_refused(self, relations):
        with pytest.raises(ValueError) as excinfo:
            check_relations(FamilySpec(POWER, alpha=1.0), relations, 10, seed=0)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("samples", (0, -1))
    def test_samples_below_one_are_refused(self, samples):
        with pytest.raises(ValueError) as excinfo:
            check_relations(FamilySpec(POWER, alpha=1.0), RELATIONS, samples, seed=0)
        assert excinfo.type is ValueError
        with pytest.raises(ValueError):
            check_relations(FamilySpec(POWER, alpha=1.0), ["6.15"], samples, seed=0)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            classify(lambda x: x + 1 / x, samples, seed=0)

    def test_exported_from_the_package(self):
        import spiraldet

        assert spiraldet.check_relations is check_relations


class TestLargeAlpha:
    """Terms reach 10^(3*alpha) on the sampling box; the residuals must not."""

    @pytest.mark.parametrize("imaginary", (False, True))
    @pytest.mark.parametrize("alpha", (20.0, 50.0, -20.0))
    def test_every_relation_passes(self, alpha, imaginary):
        spec = FamilySpec(POWER, alpha=alpha, imaginary=imaginary)
        for relation in RELATIONS:
            report = check_relations(spec, [relation], 200, seed=0)[0]
            assert report.max_residual <= 1e-9, (alpha, imaginary, relation)

    def test_cli_alpha_20_exits_0(self, capsys):
        from spiraldet.cli import main

        assert main(["funceq", "--alpha", "20", "--trials", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["failures"] == 0

    @pytest.mark.parametrize("relation,off_by_one", (
        # g(x ** 3) + 1 - (g(x) ** 3 - 3 * g(x))
        ("6.16", lambda f, g, a, x, m: m.sub(
            m.add(g(m.pow_int(x, 3)), m.from_int(1)),
            m.sub(m.pow_int(g(x), 3), m.mul_int(g(x), 3)))),
        # f(a) * g(x) + 1 - f(a * x) - f(a / x)
        ("6.1", lambda f, g, a, x, m: m.sub(
            m.sub(m.add(m.mul(f(a), g(x)), m.from_int(1)), f(m.mul(a, x))),
            f(m.div(a, x)))),
    ))
    def test_wrong_relation_still_fails(self, monkeypatch, relation, off_by_one):
        monkeypatch.setitem(funceq._RESIDUALS, relation, off_by_one)
        report = check_relations(FamilySpec(POWER, alpha=20.0), [relation], 200, seed=0)[0]
        assert not report.max_residual <= 1e-9
        # the +1 survives next to terms of size 10^60
        assert abs(report.max_residual - 1) < 1e-9

    @pytest.mark.parametrize("alpha", (0.0, 1.5, 6.0, -6.0, 6.5))
    def test_digits_unchanged_up_to_alpha_6(self, alpha):
        assert funceq._working_digits(FamilySpec(POWER, alpha=alpha)) == 40
        assert funceq._working_digits(FamilySpec(POWER, alpha=alpha * 10, imaginary=True)) == 40

    @pytest.mark.parametrize("alpha,digits", ((7.0, 41), (-20.0, 80), (50.0, 170), (326.5, 1000)))
    def test_digits_grow_with_alpha(self, alpha, digits):
        assert funceq._working_digits(FamilySpec(POWER, alpha=alpha)) == digits

    @pytest.mark.parametrize("alpha", (327.0, -400.0, 1e300, math.nan, math.inf))
    def test_unresolvable_alpha_keeps_the_default_digits(self, alpha):
        assert funceq._working_digits(FamilySpec(POWER, alpha=alpha)) == 40


class TestNonFiniteResiduals:
    @pytest.mark.parametrize("alpha", (math.nan, math.inf))
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_non_finite_alpha_reports_a_non_finite_maximum(self, alpha, relation):
        report = check_relations(FamilySpec(POWER, alpha=alpha), [relation], 20, seed=4)[0]
        assert not math.isfinite(report.max_residual)
        assert not report.max_residual <= 1e-9
        assert report.argmax  # the first non-finite sample is the witness

    @pytest.mark.parametrize("residual,text", ((math.nan, "nan"), (math.inf, "inf")))
    def test_non_finite_maximum_serializes_as_a_string(self, residual, text):
        report = funceq.ResidualReport("6.15", 5, residual, (2.0,))
        blob = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert blob == {"relation": "6.15", "samples": 5, "max_residual": text,
                        "argmax": [2.0]}

    def test_nan_after_finite_samples_is_the_maximum(self, monkeypatch):
        real = funceq._RESIDUALS["6.15"]
        calls = []

        def residual(f, g, a, x, m):
            calls.append(x)
            return libmp.fnan if len(calls) == 4 else real(f, g, a, x, m)

        monkeypatch.setitem(funceq._RESIDUALS, "6.15", residual)
        report = check_relations(FamilySpec(POWER, alpha=1.0), ["6.15"], 10, seed=2)[0]
        assert math.isnan(report.max_residual)
        assert report.argmax == (libmp.to_float(calls[3]),)

    @pytest.mark.parametrize("oracle", (
        lambda x: math.nan,
        lambda x: math.inf,
        lambda x: 2.0 if x == 2.0 else math.nan,
        lambda x: x + 1 / x if x < 5 else math.nan,
    ))
    def test_non_finite_oracle_unclassifiable(self, oracle):
        with pytest.raises(UnclassifiableError):
            classify(oracle, 200, seed=0)

    def test_nan_tolerance_never_classifies(self):
        with pytest.raises(UnclassifiableError):
            classify(lambda x: x + 1 / x, 50, seed=0, tolerance=math.nan)


class TestClassify:
    def test_power_two(self):
        fitted = classify(lambda x: x * x + 1 / (x * x), 200, seed=8)
        assert not fitted.imaginary
        assert abs(fitted.alpha - 2.0) < 1e-12

    def test_constant_two_gives_alpha_zero(self):
        fitted = classify(lambda x: 2.0, 100, seed=8)
        assert fitted.alpha == 0.0 and not fitted.imaginary

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.5))
    def test_real_alpha_recovery(self, alpha):
        oracle = lambda x: math.pow(x, alpha) + math.pow(x, -alpha)
        fitted = classify(oracle, 300, seed=8)
        assert abs(fitted.alpha - alpha) < 1e-9 and not fitted.imaginary

    @pytest.mark.parametrize("t", (0.3, 1.3))
    def test_imaginary_recovery(self, t):
        oracle = lambda x: 2.0 * math.cos(t * math.log(x))
        fitted = classify(oracle, 300, seed=8)
        assert fitted.imaginary and abs(fitted.alpha - t) < 1e-9

    def test_fitted_spec_satisfies_6_17(self):
        fitted = classify(lambda x: math.pow(x, 1.7) + math.pow(x, -1.7), 300, seed=8)
        report = check_relations(fitted, ["6.17"], 1000, seed=8)[0]
        assert report.max_residual < 1e-9

    def test_below_minus_two_unclassifiable(self):
        with pytest.raises(UnclassifiableError):
            classify(lambda x: -3.0, 50, seed=0)

    def test_off_family_oracle_unclassifiable(self):
        with pytest.raises(UnclassifiableError):
            classify(lambda x: x ** 3 + x, 200, seed=0)

    def test_fit_beyond_the_float_range_unclassifiable(self):
        # g(2) = 2^400 fits alpha = 400, and x^400 overflows a float on [0.1, 10]
        with pytest.raises(UnclassifiableError):
            classify(lambda x: 2.0 ** 400 if x == 2.0 else 1.0, 200, seed=0)
