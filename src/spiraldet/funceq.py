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

The sample loop runs on raw mpmath.libmp values (``_mpf_`` tuples) rather
than ``mpf`` objects: at 40 digits about half of an ``mpf`` operation's time
is its operator dispatch and object creation, not the arithmetic.  _RESIDUALS
and _fg are written once against an arithmetic namespace, _FLOAT (Python
float operators, for eval_f and eval_g) or _mp_arithmetic (libmp at the
working precision).  Each of the latter's functions is the exact libmp call
the matching ``mpf`` operator makes (``x ** 3`` is mpf_pow_int, ``1 / x`` is
mpf_rdiv_int, ``3 * g`` is mpf_mul_int), so every residual is the one the
``mpf`` formula gives, bit for bit, and every term is still its relation's
own.  The one value shared beyond a point's f and g is inside x^alpha and
x^(-alpha): mpf_pow takes both from the same square root (half-integer alpha)
or the same log x (general alpha), and _mp_arithmetic computes that once,
rounded as mpf_pow rounds it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import Callable

from .spiral_builder import check_int, check_size

# lhs - rhs of each relation, with f and g the family's functions and m the
# arithmetic namespace (_FLOAT or _mp_arithmetic); each formula is in the
# comment above it
_RESIDUALS = {
    # f(a) * g(x) - f(a * x) - f(a / x)
    "6.1": lambda f, g, a, x, m: m.sub(m.sub(m.mul(f(a), g(x)), f(m.mul(a, x))),
                                       f(m.div(a, x))),
    # g(x) - g(1 / x)
    "6.14": lambda f, g, a, x, m: m.sub(g(x), g(m.rdiv_int(1, x))),
    # g(x * x) - (g(x) ** 2 - 2)
    "6.15": lambda f, g, a, x, m: m.sub(g(m.mul(x, x)),
                                        m.sub(m.pow_int(g(x), 2), m.from_int(2))),
    # g(x ** 3) - (g(x) ** 3 - 3 * g(x))
    "6.16": lambda f, g, a, x, m: m.sub(g(m.pow_int(x, 3)),
                                        m.sub(m.pow_int(g(x), 3), m.mul_int(g(x), 3))),
    # g(a) * g(x) - g(a * x) - g(a / x)
    "6.17": lambda f, g, a, x, m: m.sub(m.sub(m.mul(g(a), g(x)), g(m.mul(a, x))),
                                        g(m.div(a, x))),
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


# The functions _fg calls, as Python's float operators; _mp_arithmetic has
# them, and the ones _RESIDUALS calls, in libmp
_FLOAT = SimpleNamespace(
    add=operator.add, mul=operator.mul, mul_int=operator.mul, from_int=float,
    log=math.log, cos_sin=lambda t: (math.cos(t), math.sin(t)),
    powers=lambda x, alpha: (x ** alpha, x ** -alpha))


def _mp_arithmetic(prec: int) -> SimpleNamespace:
    """_fg's and _RESIDUALS' arithmetic on raw mpf tuples at ``prec`` bits.

    Each function is the libmp call, rounding to nearest, that ``mpf``'s
    operator or function makes at that precision (``mul_int(g, 3)`` is
    ``3 * g``, ``rdiv_int(1, x)`` is ``1 / x``), so a formula gives the value
    it gives on ``mpf`` objects.  ``powers(x, alpha)`` is mpf_pow's
    (x^alpha, x^(-alpha)), sharing the value both powers take from x.
    """
    from mpmath import libmp  # only here, so importing spiraldet does not load it

    rnd = libmp.round_nearest
    add, sub, mul, div = libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div
    mpf_pow, pow_int, neg = libmp.mpf_pow, libmp.mpf_pow_int, libmp.mpf_neg
    sqrt, log, exp = libmp.mpf_sqrt, libmp.mpf_log, libmp.mpf_exp

    def powers(x, alpha):
        sign, man, power, _ = alpha
        if power == -1 and man != 1:
            # alpha = n/2 with |n| > 1: mpf_pow raises one sqrt(x) to n and -n
            root = sqrt(x, prec + 10, rnd)
            n = -man if sign else man
            return pow_int(root, n, prec, rnd), pow_int(root, -n, prec, rnd)
        if power < -1:
            # general alpha (also inf and nan): exp(+-alpha * log x), one log
            c = log(x, prec + 10, rnd)
            return (exp(mul(alpha, c), prec, rnd),
                    exp(mul(neg(alpha, prec, rnd), c), prec, rnd))
        # an integer or +-1/2: the two powers share nothing
        return mpf_pow(x, alpha, prec, rnd), mpf_pow(x, neg(alpha, prec, rnd), prec, rnd)

    return SimpleNamespace(
        add=lambda s, t: add(s, t, prec, rnd),
        sub=lambda s, t: sub(s, t, prec, rnd),
        mul=lambda s, t: mul(s, t, prec, rnd),
        div=lambda s, t: div(s, t, prec, rnd),
        mul_int=lambda s, n: libmp.mpf_mul_int(s, n, prec, rnd),
        pow_int=lambda s, n: pow_int(s, n, prec, rnd),
        rdiv_int=lambda n, s: libmp.mpf_rdiv_int(n, s, prec, rnd),
        from_int=libmp.from_int,
        log=lambda s: log(s, prec, rnd),
        cos_sin=lambda t: libmp.mpf_cos_sin(t, prec, rnd),
        powers=powers)


def _fg(spec: FamilySpec, x, m):
    """(f(x), g(x)) in the arithmetic namespace ``m``: ``_FLOAT`` or ``_mp_arithmetic``.

    The pair shares x^alpha and x^(-alpha), or log x and t = alpha*log x
    with cos t and sin t from one ``cos_sin``.  libmp's mpf_cos_sin rounds
    each exactly as mpmath's ``cos`` and ``sin`` do.  Under ``_mp_arithmetic``
    x and the spec's numbers are raw mpf tuples.
    """
    if spec.kind is FamilyKind.ZERO:
        return m.from_int(0), m.from_int(2)
    if spec.kind is FamilyKind.LOG_AFFINE:
        return m.add(spec.c1, m.mul(spec.c2, m.log(x))), m.from_int(2)
    if spec.imaginary:
        cos, sin = m.cos_sin(m.mul(spec.alpha, m.log(x)))
        return m.add(m.mul(spec.c1, cos), m.mul(spec.c2, sin)), m.mul_int(cos, 2)
    up, down = m.powers(x, spec.alpha)
    return m.add(m.mul(spec.c1, up), m.mul(spec.c2, down)), m.add(up, down)


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
    from mpmath import libmp  # only here, so importing spiraldet does not load it

    prec, rnd = libmp.dps_to_prec(_working_digits(spec)), libmp.round_nearest
    m = _mp_arithmetic(prec)
    from_float, le, gt = libmp.from_float, libmp.mpf_le, libmp.mpf_gt
    # a double converts exactly at any working precision
    family = replace(spec, alpha=from_float(spec.alpha),
                     c1=from_float(spec.c1), c2=from_float(spec.c2))
    memo: dict = {}  # (f, g) at each point of the current sample, keyed on the tuple

    def fg(v):
        pair = memo.get(v)
        if pair is None:
            pair = memo[v] = _fg(family, v, m)
        return pair

    f, g = (lambda v: fg(v)[0]), (lambda v: fg(v)[1])
    worst = [-1.0] * len(relations)
    worst_mp = [from_float(-1.0)] * len(relations)  # each worst, converted once
    argmax: list[tuple[float, ...]] = [()] * len(relations)
    for i in range(samples):
        a, x = _sample_log_uniform(seed, i)
        memo.clear()
        a_mp, x_mp = from_float(a), from_float(x)
        for j, relation in enumerate(relations):
            r = libmp.mpf_abs(_RESIDUALS[relation](f, g, a_mp, x_mp, m), prec, rnd)
            # NaN compares false, so a NaN r enters here, and a non-finite
            # worst is never replaced
            if not le(r, worst_mp[j]) and (gt(r, worst_mp[j]) or math.isfinite(worst[j])):
                worst[j] = libmp.to_float(r, rnd=rnd)
                worst_mp[j] = from_float(worst[j])
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
