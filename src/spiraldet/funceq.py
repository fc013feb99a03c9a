"""Verification and classification for the bracket-generalizing functional equations.

The families of continuous solutions of  f(a)g(x) = f(ax) + f(a/x)  on the
positive reals are: f identically zero; f = c1 + c2*log(x) with g = 2; and
f = c1*x^alpha + c2*x^(-alpha) with g(x) = x^alpha + x^(-alpha) for a real or
purely imaginary alpha.  A purely imaginary alpha = i*t is kept in real
arithmetic via g(x) = 2*cos(t*log x) (and f = c1*cos + c2*sin of t*log x).

Relations are referred to by the fixed identifiers

    6.1   f(a)g(x) = f(ax) + f(a/x)
    6.14  g(x) = g(1/x)
    6.15  g(x^2) = g(x)^2 - 2
    6.16  g(x^3) = g(x)^3 - 3g(x)
    6.17  g(a)g(x) = g(ax) + g(a/x)

check_relations evaluates residuals of these identities at log-uniform sample
points; _RESIDUALS writes each relation's lhs - rhs once.  The closed forms are
exact identities, so residuals are computed in extended precision (mpmath);
plain double evaluation leaves libm noise of order 1e-8 at the large end of
the sampling box, which would drown the 1e-9 verification tolerance.

Several relations are checked in one pass.  Each sample (a, x) is drawn once,
and f and g are evaluated once per distinct point of it (a, x, ax, a/x, 1/x,
x^2, x^3), shared by every relation that reads them.  This keeps each
relation's evaluations independent: f and g are pure, so a shared value is
the one the relation would compute alone, and every term is still evaluated
at its own argument (g(x^2) at x^2, never derived from g(x), which
would make 6.15 hold by construction).  At each point f and g share their
work too: for an imaginary alpha, one cos_sin gives the cosine and sine of
t*log x, rounded exactly as separate cos and sin calls round them.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import Callable

from .spiral_builder import check_int, check_size

# lhs - rhs of each relation, with f and g the family's functions
_RESIDUALS = {
    "6.1": lambda f, g, a, x: f(a) * g(x) - f(a * x) - f(a / x),
    "6.14": lambda f, g, a, x: g(x) - g(1 / x),
    "6.15": lambda f, g, a, x: g(x * x) - (g(x) ** 2 - 2),
    "6.16": lambda f, g, a, x: g(x ** 3) - (g(x) ** 3 - 3 * g(x)),
    "6.17": lambda f, g, a, x: g(a) * g(x) - g(a * x) - g(a / x),
}
RELATIONS = tuple(_RESIDUALS)
_TWO_ARG = {"6.1", "6.17"}

_MP_DPS = 40
_MAX_DPS = 1000


class FamilyKind(Enum):
    ZERO = "zero"
    LOG_AFFINE = "log_affine"
    POWER_SYMMETRIC = "power_symmetric"


class DomainError(ValueError):
    """Argument outside the positive reals."""


class UnknownRelationError(ValueError):
    """Relation identifier not in RELATIONS."""


class UnclassifiableError(ValueError):
    """The oracle is outside the characterized solution families."""


@dataclass(frozen=True)
class FamilySpec:
    """One solution family; alpha is the exponent (magnitude t when imaginary)."""

    kind: FamilyKind
    alpha: float = 0.0
    imaginary: bool = False
    c1: float = 1.0
    c2: float = 1.0


@dataclass(frozen=True)
class ResidualReport:
    relation: str
    samples: int
    max_residual: float
    argmax: tuple[float, ...]

    def to_json_dict(self) -> dict:
        """JSON-ready fields; a non-finite residual is the string "inf" or "nan"."""
        residual = self.max_residual
        return {
            "relation": self.relation,
            "samples": self.samples,
            "max_residual": residual if math.isfinite(residual) else str(residual),
            "argmax": list(self.argmax),
        }


def _check_positive(x: float) -> float:
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x!r}")
    return x


# The two functions _fg calls on its library, in doubles; the module mpmath has both
_FLOAT = SimpleNamespace(log=math.log, cos_sin=lambda t: (math.cos(t), math.sin(t)))


def _fg(spec: FamilySpec, x, lib):
    """(f(x), g(x)), computed with ``lib``: ``_FLOAT`` for doubles or the module ``mpmath``.

    The pair shares x^alpha and x^(-alpha), or log x and t = alpha*log x
    with cos t and sin t from one ``cos_sin``.  mpmath's computes both in
    one ``mpf_cos_sin`` and rounds each exactly as its ``cos`` and ``sin``.
    """
    if spec.kind is FamilyKind.ZERO:
        return 0.0, 2.0
    if spec.kind is FamilyKind.LOG_AFFINE:
        return spec.c1 + spec.c2 * lib.log(x), 2.0
    if spec.imaginary:
        cos, sin = lib.cos_sin(spec.alpha * lib.log(x))
        return spec.c1 * cos + spec.c2 * sin, 2 * cos
    up, down = x ** spec.alpha, x ** -spec.alpha
    return spec.c1 * up + spec.c2 * down, up + down


def eval_g(spec: FamilySpec, x: float) -> float:
    """x^alpha + x^(-alpha), 2*cos(t*log x) for imaginary alpha, else 2."""
    return _fg(spec, _check_positive(x), _FLOAT)[1]


def eval_f(spec: FamilySpec, x: float) -> float:
    """The f member of the family at x."""
    return _fg(spec, _check_positive(x), _FLOAT)[0]


def _sample_log_uniform(seed: int, index: int) -> tuple[float, float]:
    """A per-sample pair of points in [0.1, 10], depending only on (seed, index)."""
    rng = random.Random(f"funceq:{seed}:{index}")
    return 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0)


def _working_digits(spec: FamilySpec) -> int:
    """Digits that keep a residual's rounding far below 1e-9 at every sample.

    A real power family's largest term is x^(3*alpha) in 6.16, up to
    10^(3*|alpha|) on the sampling box, so the digits grow with it.  Past
    _MAX_DPS (|alpha| > 326) no affordable precision resolves the residual,
    and the default is kept; the other families' terms stay bounded.
    """
    if spec.kind is FamilyKind.POWER_SYMMETRIC and not spec.imaginary:
        digits = 20 + 3 * abs(spec.alpha)  # inf or nan for a non-finite alpha
        if _MP_DPS < digits <= _MAX_DPS:
            return math.ceil(digits)
    return _MP_DPS


def check_relations(spec: FamilySpec, relations, samples: int,
                    seed: int) -> list[ResidualReport]:
    """Max |lhs - rhs| of each named relation over log-uniform samples in [0.1, 10].

    One report per relation, in order, from one pass: each sample is drawn
    once, and f and g are evaluated once per distinct point of it, shared by
    every relation, so each residual equals the one its relation gives alone.
    A NaN or infinite residual is the maximum, so no tolerance passes it; the
    first such sample is the reported argmax.  ``relations`` is a list of
    identifiers: a bare string such as "6.15" is refused, write ["6.15"].
    """
    if isinstance(relations, str):
        raise TypeError(f'relations must be a list of identifiers, '
                        f'such as ["{relations}"], not a string')
    relations = list(relations)
    for relation in relations:
        if relation not in RELATIONS:
            raise UnknownRelationError(f"unknown relation {relation!r}")
    if not relations:
        raise ValueError("relations must not be empty")
    check_size(samples, 1, "samples")
    check_int(seed, "seed")
    import mpmath  # only here, so importing spiraldet does not load it

    worst = [-1.0] * len(relations)
    argmax: list[tuple[float, ...]] = [()] * len(relations)
    with mpmath.workdps(_working_digits(spec)):
        # a double converts exactly at any working precision
        family = replace(spec, alpha=mpmath.mpf(spec.alpha),
                         c1=mpmath.mpf(spec.c1), c2=mpmath.mpf(spec.c2))
        for i in range(samples):
            a, x = _sample_log_uniform(seed, i)
            fg = functools.cache(lambda v: _fg(family, v, mpmath))
            f, g = (lambda v: fg(v)[0]), (lambda v: fg(v)[1])
            a_mp, x_mp = mpmath.mpf(a), mpmath.mpf(x)
            for j, relation in enumerate(relations):
                r = abs(_RESIDUALS[relation](f, g, a_mp, x_mp))
                # NaN compares false, so a NaN r enters here, and a non-finite
                # worst is never replaced
                if not r <= worst[j] and (r > worst[j] or math.isfinite(worst[j])):
                    worst[j] = float(r)
                    argmax[j] = (a, x) if relation in _TWO_ARG else (x,)
    return [ResidualReport(relation, samples, w, arg)
            for relation, w, arg in zip(relations, worst, argmax)]


def classify(oracle: Callable[[float], float], samples: int, seed: int,
             tolerance: float = 1e-9) -> FamilySpec:
    """Fit a FamilySpec to a black-box g assumed to satisfy relations 6.14-6.16.

    alpha is estimated from g at the base point x0 = 2: for g(x0) >= 2 the
    real exponent is the base-2 log of the larger root of z^2 - g*z + 1 = 0;
    for |g(x0)| < 2 the smallest t >= 0 with 2*cos(t*log 2) = g(x0) is used.
    The fitted spec is validated against the oracle on sample points and via
    check_relations on 6.17.  alpha (or t) is normalised to be >= 0, matching
    the evenness of x^alpha + x^(-alpha).  A NaN or infinite oracle value, or
    a fitted g that leaves the float range on the samples, is unclassifiable.
    """
    check_size(samples, 1, "samples")
    check_int(seed, "seed")
    x0 = 2.0
    g0 = oracle(x0)
    if not math.isfinite(g0):
        raise UnclassifiableError(f"g({x0}) = {g0} is not finite")
    if g0 < -2.0:
        raise UnclassifiableError(f"g({x0}) = {g0} < -2 is outside the characterized class")
    if g0 >= 2.0:
        z = (g0 + math.sqrt(g0 * g0 - 4.0)) / 2.0
        fitted = FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=math.log(z) / math.log(x0))
    else:
        t = math.acos(g0 / 2.0) / math.log(x0)
        fitted = FamilySpec(FamilyKind.POWER_SYMMETRIC, alpha=t, imaginary=True)
    mismatch = 0.0
    for i in range(samples):
        x, _ = _sample_log_uniform(seed, i)
        try:
            fitted_g = eval_g(fitted, x)
        except OverflowError:
            raise UnclassifiableError(f"fitted g({x}) leaves the float range") from None
        deviation = abs(oracle(x) - fitted_g)
        if deviation > mismatch or math.isnan(deviation):  # max() would skip a NaN
            mismatch = deviation
    if not mismatch <= tolerance:
        raise UnclassifiableError(
            f"fitted family deviates from the oracle by {mismatch:.3g} > {tolerance:.3g}")
    report, = check_relations(fitted, ["6.17"], samples, seed)
    if not report.max_residual <= tolerance:
        raise UnclassifiableError(
            f"fitted family violates 6.17 by {report.max_residual:.3g}")
    return fitted
