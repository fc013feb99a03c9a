"""Exact sparse Laurent-polynomial arithmetic in the variables a, b, c, x, y.

Exponents live in half-integer units: every exponent is stored as a *doubled*
integer, so the monomial b**(1/2) has the doubled vector (0, 1, 0, 0, 0) and an
ordinary integer exponent is an even doubled value.  This keeps all arithmetic
in plain Python integers while still admitting the half-integer powers that
show up inside bracket/angle factorisations.  Such a polynomial has no value
at a rational point, and :func:`evaluate` refuses it.

:func:`evaluate` is one integer sum over per-variable power tables, reduced
once, at integral and rational points alike.

A polynomial is a dict mapping exponent vectors (5-tuples of doubled ints) to
nonzero arbitrary-precision integer coefficients; the zero polynomial is the
empty dict.  Every operation returns a canonical value (no zero coefficient is
ever stored), so two polynomials are equal iff their term dicts are equal.
Values are never mutated after construction and all operations are pure, so
everything here is safe to use from concurrent threads.

The two building blocks used throughout the package are

    bracket(m) = m - 1/m        angle(m) = m + 1/m

for a monomial m, which satisfy  bracket(a)*angle(x) = bracket(a*x) +
bracket(a/x)  and  bracket(a)*bracket(x) = angle(a*x) - angle(a/x).

:class:`Factored` keeps a product of polynomials unexpanded and evaluates it
factor by factor, multiplying the factors' integer pairs and reducing once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log2
from operator import add as _add
from typing import Iterable, Mapping, Sequence, Union

VARIABLES = ("a", "b", "c", "x", "y")
NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

#: Exponent vector: 5 doubled-integer exponents, ordered as VARIABLES.
#: Plain tuples are used so that lexicographic comparison (canonical term
#: order) and hashing come for free.
ExponentVector = tuple

ZERO_VECTOR: ExponentVector = (0,) * NVARS

ExponentLike = Union[int, Fraction]


class ZeroCoordinateError(ValueError):
    """An evaluation point contains a zero coordinate."""


class HalfExponentError(ValueError):
    """A polynomial with a half-integer exponent has no value at a rational point."""


def exponents(a: ExponentLike = 0, b: ExponentLike = 0, c: ExponentLike = 0,
              x: ExponentLike = 0, y: ExponentLike = 0) -> ExponentVector:
    """Build an exponent vector from true exponents (ints or half-integer Fractions).

    >>> exponents(a=1, b=Fraction(1, 2))
    (2, 1, 0, 0, 0)
    """
    vec = []
    for e in (a, b, c, x, y):
        d = 2 * Fraction(e)
        if d.denominator != 1:
            raise ValueError(f"exponent {e!r} is not an integer or half-integer")
        vec.append(int(d))
    return tuple(vec)


def as_exponent_vector(seq: Iterable[int]) -> ExponentVector:
    """Validate and normalise a raw doubled-exponent sequence."""
    vec = tuple(seq)
    if len(vec) != NVARS:
        raise ValueError(f"exponent vector must have {NVARS} entries, got {len(vec)}")
    if not all(isinstance(d, int) for d in vec):
        raise TypeError("doubled exponents must be ints")
    return vec


def _negate(vec: ExponentVector) -> ExponentVector:
    return tuple(-d for d in vec)


class LaurentPoly:
    """Canonical sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExponentVector, int] | None = None):
        clean: dict[ExponentVector, int] = {}
        if terms:
            for vec, coeff in terms.items():
                vec = as_exponent_vector(vec)
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an integer")
                if coeff:
                    clean[vec] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[ExponentVector, int]) -> "LaurentPoly":
        """Wrap an already-canonical term dict without re-validating."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({ZERO_VECTOR: 1})

    @classmethod
    def constant(cls, value: int) -> "LaurentPoly":
        return cls.monomial(ZERO_VECTOR, value)

    @classmethod
    def monomial(cls, vec: ExponentVector, coeff: int = 1) -> "LaurentPoly":
        return cls({as_exponent_vector(vec): coeff})

    @classmethod
    def variable(cls, name: str) -> "LaurentPoly":
        vec = [0] * NVARS
        vec[_VAR_INDEX[name]] = 2
        return cls._raw({tuple(vec): 1})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {ZERO_VECTOR: other})
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for vec, coeff in other.terms.items():
            s = out.get(vec, 0) + coeff
            if s:
                out[vec] = s
            else:
                out.pop(vec, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({vec: -c for vec, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly._raw({vec: c * other for vec, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[ExponentVector, int] = {}
        # A new key shares its exponent ints with the keys made before it.
        # CPython caches only ints up to 256, so a large product would
        # otherwise hold a separate int object per big exponent per term.
        share = {}.setdefault
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = tuple(map(_add, u, v))
                s = out.get(w)
                if s is None:
                    out[tuple(map(share, w, w))] = cu * cv
                else:
                    s += cu * cv
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    # -- structure queries -------------------------------------------------

    def has_half_exponents(self) -> bool:
        return any(d % 2 for vec in self.terms for d in vec)

    def set_y_to_x(self) -> "LaurentPoly":
        """Substitute y := x (fold every y exponent onto x)."""
        out: dict[ExponentVector, int] = {}
        for (ea, eb, ec, ex, ey), coeff in self.terms.items():
            vec = (ea, eb, ec, ex + ey, 0)
            s = out.get(vec, 0) + coeff
            if s:
                out[vec] = s
            else:
                out.pop(vec, None)
        return LaurentPoly._raw(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({to_string(self)})"

    __str__ = __repr__


def bracket(vec: ExponentVector) -> LaurentPoly:
    """m - 1/m for the monomial m with the given exponents; 0 for the empty monomial."""
    vec = as_exponent_vector(vec)
    if vec == ZERO_VECTOR:
        return LaurentPoly.zero()
    return LaurentPoly._raw({vec: 1, _negate(vec): -1})


def angle(vec: ExponentVector) -> LaurentPoly:
    """m + 1/m for the monomial m with the given exponents; 2 for the empty monomial."""
    vec = as_exponent_vector(vec)
    if vec == ZERO_VECTOR:
        return LaurentPoly.constant(2)
    return LaurentPoly._raw({vec: 1, _negate(vec): 1})


def _coordinates(point: Sequence[ExponentLike]) -> list[Fraction]:
    """The point as 5 nonzero Fractions; raises on a wrong length or a zero."""
    coords = [Fraction(v) for v in point]
    if len(coords) != NVARS:
        raise ValueError(f"evaluation point must have {NVARS} coordinates")
    for v in coords:
        if v == 0:
            raise ZeroCoordinateError("evaluation point has a zero coordinate")
    return coords


def _value(p: LaurentPoly, coords: Sequence[Fraction]) -> tuple[int, int]:
    """p's value at the coordinates as an unreduced integer pair (num, den).

    With v = n/d a coordinate and [low, high] the range of its variable's
    exponents, v^e = n^(e-low) * d^(high-e) * n^low / d^high.  One table per
    variable maps each exponent of its column (doubled, as stored) to the
    integer n^(e-low) * d^(high-e), so the terms add up as one integer sum and
    the common n^low / d^high goes on the pair once, at integral and rational
    points alike.  An odd doubled exponent raises HalfExponentError.
    """
    if not p.terms:
        return 0, 1
    num = den = 1
    tables = []
    for column, v in zip(map(set, zip(*p.terms)), coords):
        if any(e % 2 for e in column):
            raise HalfExponentError("cannot evaluate a polynomial with a half-integer exponent")
        low, high = min(column) // 2, max(column) // 2
        n, d = v.numerator, v.denominator
        tables.append({e: n ** (e // 2 - low) * d ** (high - e // 2) for e in column})
        num *= n ** max(low, 0) * d ** max(-high, 0)
        den *= n ** max(-low, 0) * d ** max(high, 0)
    ta, tb, tc, tx, ty = tables
    total = sum(coeff * ta[a] * tb[b] * tc[c] * tx[x] * ty[y]
                for (a, b, c, x, y), coeff in p.terms.items())
    return total * num, den


def evaluate(p: LaurentPoly, point: Sequence[ExponentLike]) -> Fraction:
    """Exact rational value of p at a point of 5 nonzero rationals.

    Each coordinate is its variable's value, so evaluation is a ring
    homomorphism: the value of p*q is the product of the values.  A
    polynomial with a half-integer exponent raises HalfExponentError.
    """
    return Fraction(*_value(p, _coordinates(point)))


class Factored:
    """A product sign * factors[0] * factors[1] * ..., kept unexpanded.

    A closed-form determinant is a product of O(n) factors of a few terms
    each, while its expansion grows exponentially in n.  Evaluating the
    factors one by one and multiplying the values gives the expansion's value
    at a fraction of the cost.
    """

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: Iterable[LaurentPoly]):
        if sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        factors = tuple(factors)
        for factor in factors:
            if not isinstance(factor, LaurentPoly):
                raise TypeError(f"factor {factor!r} is not a LaurentPoly")
        self.sign = sign
        self.factors = factors

    def expand(self) -> LaurentPoly:
        """The product as one canonical polynomial.

        The factors are multiplied in two runs whose term-count bounds are
        about equal, and then the two runs together.  Multiplying one by one
        would hold a partial product of nearly the final size beside the
        result: for theorem 3 at sizes 9-11 the peak memory is then 24-44%
        higher, though 16-45% fewer term pairs are multiplied.
        """
        weights = [log2(len(factor.terms)) if factor.terms else 0.0
                   for factor in self.factors]
        budget = sum(weights) / 2
        head = LaurentPoly.constant(self.sign)
        k = 0
        while k < len(self.factors) and budget > 0:
            head = head * self.factors[k]
            budget -= weights[k]
            k += 1
        if k == len(self.factors):
            return head
        tail = self.factors[k]
        for factor in self.factors[k + 1:]:
            tail = tail * factor
        return head * tail

    def evaluate(self, point: Sequence[ExponentLike]) -> Fraction:
        """Exact value at the point; equals ``evaluate(self.expand(), point)``.

        A factor with a half-integer exponent raises HalfExponentError, even
        where the product has integer exponents only.
        """
        coords = _coordinates(point)  # a bad point raises even with no factors
        num, den = self.sign, 1
        for factor in self.factors:
            n, d = _value(factor, coords)
            num, den = num * n, den * d
        return Fraction(num, den)


# -- serialization ----------------------------------------------------------


def to_records(p: LaurentPoly) -> list[dict]:
    """Structured form: one record per term, in lexicographic exponent order."""
    records = []
    for vec in sorted(p.terms):
        records.append({
            "coefficient": p.terms[vec],
            "exponents": [str(Fraction(d, 2)) for d in vec],
        })
    return records


def from_records(records: Iterable[Mapping]) -> LaurentPoly:
    terms: dict[ExponentVector, int] = {}
    for rec in records:
        exps = list(rec["exponents"])
        if len(exps) != NVARS:
            raise ValueError(f"a record needs {NVARS} exponents, got {len(exps)}")
        vec = exponents(*exps)
        coeff = rec["coefficient"]
        if not isinstance(coeff, int):
            raise TypeError(f"coefficient {coeff!r} is not an integer")
        terms[vec] = terms.get(vec, 0) + coeff
    return LaurentPoly(terms)


def _format_terms(terms: Mapping[ExponentVector, int], names: Sequence[str], times: str,
                  gap: str, power: str, half_power: str) -> str:
    """Terms in ascending exponent order, such as ``3 - 2*a*x^-1``.

    ``times`` joins a term's magnitude and factors, ``gap`` surrounds the sign
    between terms, and ``power``/``half_power`` format a factor from the name
    and the exponent / doubled exponent, with exponent 1 printed bare.
    """
    chunks = []
    for vec in sorted(terms):
        coeff = terms[vec]
        factors = [name if d == 2 else
                   power.format(name, d // 2) if d % 2 == 0 else
                   half_power.format(name, d)
                   for name, d in zip(names, vec) if d]
        mag = abs(coeff)
        # the magnitude is left out only when it is 1 and there are factors
        body = times.join(factors if factors and mag == 1 else [str(mag), *factors])
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coeff > 0 else '-'}{gap}{body}")
    return gap.join(chunks) or "0"


def to_string(p: LaurentPoly) -> str:
    """Human-readable form like ``a*b^2*c^(1/2)*x^-3``; terms in canonical order."""
    return _format_terms(p.terms, VARIABLES, "*", " ", "{}^{}", "{}^({}/2)")


def to_latex(p: LaurentPoly) -> str:
    """LaTeX form like ``-x^{-3}+2 a b^{2} c^{1/2}``; terms in canonical order."""
    return _format_terms(p.terms, VARIABLES, " ", "", "{}^{{{}}}", "{}^{{{}/2}}")


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Split on top-level +/- (ignoring signs inside parens and after '^')."""
    parts: list[tuple[int, str]] = []
    sign, start, depth = 1, 0, 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            prev = s[:i].rstrip()
            if prev and not prev.endswith("^"):
                parts.append((sign, s[start:i]))
                sign = 1 if ch == "+" else -1
                start = i + 1
            elif not prev:
                sign = 1 if ch == "+" else -1
                start = i + 1
        i += 1
    parts.append((sign, s[start:]))
    return parts


def from_string(s: str) -> LaurentPoly:
    """Parse the output of :func:`to_string` back into a polynomial."""
    s = s.strip()
    if not s or s == "0":
        return LaurentPoly.zero()
    terms: dict[ExponentVector, int] = {}
    for sign, chunk in _split_terms(s):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {s!r}")
        coeff = sign
        vec = [0] * NVARS
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor[0] not in _VAR_INDEX:
                coeff *= int(factor)
                continue
            name, caret, exp = factor.partition("^")
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}")
            doubled = 2
            if caret:
                # the exponents to_string writes: ``-3`` or ``(-3/2)``
                match = re.fullmatch(r"(-?\d+)|\((-?\d+)/2\)", exp.strip())
                if match is None:
                    raise ValueError(f"malformed exponent {exp!r} in {factor!r}")
                whole, half = match.groups()
                doubled = 2 * int(whole) if half is None else int(half)
            vec[_VAR_INDEX[name]] += doubled
        key = tuple(vec)
        total = terms.get(key, 0) + coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return LaurentPoly._raw(terms)
