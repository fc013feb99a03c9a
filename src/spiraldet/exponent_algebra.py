"""Exact sparse Laurent-polynomial arithmetic in the variables a, b, c, x, y.

:func:`evaluate` is one integer sum over per-variable power tables, reduced
once, at integral and rational points alike.

A polynomial is a dict mapping exponent vectors (5-tuples of ints) to
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
factor by factor, multiplying the factors' integer pairs and reducing once;
:func:`shared_evaluator` values many such products at a point, each
distinct factor once.

Serialization is write-only: :func:`to_records`, :func:`to_string` and
:func:`to_latex` write a polynomial for the CLI's JSON, text and LaTeX
output, and nothing reads either form back.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add as _add, itemgetter, mul as _mul

VARIABLES = ("a", "b", "c", "x", "y")
NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

#: Exponent vector: 5 integer exponents, ordered as VARIABLES.
#: Plain tuples are used so that lexicographic comparison (canonical term
#: order) and hashing come for free.
ExponentVector = tuple

ZERO_VECTOR: ExponentVector = (0,) * NVARS
# the i-th of these reads variable i's exponent off an exponent vector
_EXPONENT_GETTERS = tuple(map(itemgetter, range(NVARS)))


class ZeroCoordinateError(ValueError):
    """A polynomial with a negative power of a variable has no value where it is zero."""

    def __init__(self, message: str = "a negative power of a zero coordinate has no value"):
        super().__init__(message)


def exponents(a: int = 0, b: int = 0, c: int = 0, x: int = 0, y: int = 0) -> ExponentVector:
    """The exponent vector of a^a b^b c^c x^x y^y.

    >>> exponents(a=1, x=-2)
    (1, 0, 0, -2, 0)
    """
    return as_exponent_vector((a, b, c, x, y))


def as_exponent_vector(seq: Iterable[int]) -> ExponentVector:
    """Validate a sequence of 5 int exponents as a tuple."""
    vec = tuple(seq)
    if len(vec) != NVARS:
        raise ValueError(f"exponent vector must have {NVARS} entries, got {len(vec)}")
    # a bool is an int, but would print and serialize as True/False
    if not all(type(d) is int for d in vec):
        raise TypeError("exponents must be ints")
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
                if type(coeff) is not int:
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
        vec[_VAR_INDEX[name]] = 1
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
        # CPython caches only the ints -5..256, so each exponent below -5,
        # the 1/m half of every bracket (down to -192 in theorem 3 at size
        # 9), would otherwise be a separate int object per term.  Without the
        # sharing, perfbench aux_checks peaked at 36.3 MB RSS instead of 34.3
        # (2-core KVM guest, CPython 3.11).
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


def _coordinates(point: Sequence) -> list[Fraction]:
    """The point as 5 Fractions, zeros included; raises on a wrong length or type.

    Whether a zero coordinate has a value is the polynomial's question, so
    :func:`_value` alone decides it.
    """
    coords = [Fraction(v) for v in point]
    if len(coords) != NVARS:
        raise ValueError(f"evaluation point must have {NVARS} coordinates")
    return coords


def _value(p: LaurentPoly, coords: Sequence[Fraction]) -> tuple[int, int]:
    """p's value at the coordinates as an unreduced integer pair (num, den).

    With v = n/d a coordinate and [low, high] the range of its variable's
    exponents, v^e = n^(e-low) * d^(high-e) * n^low / d^high.  One table per
    variable maps each exponent of its column to the integer
    n^(e-low) * d^(high-e), so the terms add up as one integer sum and the
    common n^low / d^high goes on the pair once, at integral and rational
    points alike.  A variable with one exponent e in every term needs no
    table: v^e goes on the pair alone, and e = 0 leaves it as it is.  Each
    term's product of table entries is built lazily and summed once, with
    each exponent read off the term's key, so no column of exponents is
    held beside the terms.  A zero coordinate whose column has a negative
    exponent raises
    ZeroCoordinateError, the variables checked in order; a zero with no
    negative power is n = 0 in the same tables, with 0^0 = 1.
    """
    terms = p.terms
    if not terms:
        return 0, 1
    num = den = 1
    products = terms.values()
    for exponent, v in zip(_EXPONENT_GETTERS, coords):
        exps = set(map(exponent, terms))
        low, high = min(exps), max(exps)
        n, d = v.numerator, v.denominator
        if low < 0:
            if n == 0:
                raise ZeroCoordinateError()
            den *= n ** -low
        elif low:
            num *= n ** low
        if high < 0:
            num *= d ** -high
        elif high:
            den *= d ** high
        if low != high:
            table = {e: n ** (e - low) * d ** (high - e) for e in exps}
            products = map(_mul, products, map(table.__getitem__, map(exponent, terms)))
    return sum(products) * num, den


def evaluate(p: LaurentPoly, point: Sequence) -> Fraction:
    """Exact rational value of p at a point of 5 rationals.

    Each coordinate is its variable's value, so evaluation is a ring
    homomorphism: the value of p*q is the product of the values.  A zero
    coordinate is refused, with ZeroCoordinateError, only where p has a
    negative power of its variable.
    """
    return Fraction(*_value(p, _coordinates(point)))


def pairwise_product(items: list, mul: Callable):
    """items[0] * items[1] * ... under ``mul``, for a nonempty list.

    Neighbours are multiplied pairwise, round by round, an odd one out
    carrying to the next round.  A left-to-right fold would hold a partial
    product of nearly the final size beside the result.
    """
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = [mul(p, q) for p, q in zip(items[::2], items[1::2])] + odd
    return items[0]


class Factored:
    """A product sign * factors[0] * factors[1] * ..., kept unexpanded.

    A closed-form determinant is a product of O(n) factors of a few terms
    each, while its expansion grows exponentially in n.  Evaluating the
    factors one by one and multiplying the values gives the expansion's value
    at a fraction of the cost.
    """

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: Iterable[LaurentPoly]):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        factors = tuple(factors)
        for factor in factors:
            if not isinstance(factor, LaurentPoly):
                raise TypeError(f"factor {factor!r} is not a LaurentPoly")
        self.sign = sign
        self.factors = factors

    def expand(self) -> LaurentPoly:
        """The product as one canonical polynomial, multiplied by ``pairwise_product``."""
        return pairwise_product([LaurentPoly.constant(self.sign), *self.factors], _mul)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at the point; equals ``evaluate(self.expand(), point)``.

        A factor with a negative power of a zero coordinate raises
        ZeroCoordinateError, even where the product has no negative power of
        that variable.
        """
        coords = _coordinates(point)  # a wrong length or type raises even with no factors
        return _product(self.sign, [_value(factor, coords) for factor in self.factors])


def shared_evaluator(formulas: Sequence[Factored]) -> Callable[[Sequence], list[Fraction]]:
    """A function of a point giving each formula's exact value there.

    The formulas of neighbouring sizes share most of their factors, as
    separate but equal polynomials, so the distinct factors are found once,
    here, by their terms and not by object.  Each call then values each
    distinct factor once, and each formula multiplies its factors' integer
    pairs and reduces once, as ``Factored.evaluate`` does.  A bad point
    raises before any factor is valued, and a zero coordinate raises
    ZeroCoordinateError exactly where some formula's ``evaluate`` would.
    """
    distinct: dict[frozenset, int] = {}
    factors, plans = [], []
    for formula in formulas:
        slots = []
        for factor in formula.factors:
            key = frozenset(factor.terms.items())
            if key not in distinct:
                distinct[key] = len(factors)
                factors.append(factor)
            slots.append(distinct[key])
        plans.append((formula.sign, slots))

    def values(point: Sequence) -> list[Fraction]:
        coords = _coordinates(point)  # a wrong length or type raises even with no formulas
        pairs = [_value(factor, coords) for factor in factors]
        return [_product(sign, [pairs[i] for i in slots]) for sign, slots in plans]

    return values


def _product(sign: int, pairs: Iterable[tuple[int, int]]) -> Fraction:
    """``sign`` times the product of the fractions num/den, reduced once."""
    num, den = sign, 1
    for n, d in pairs:
        num, den = num * n, den * d
    return Fraction(num, den)


# -- serialization ----------------------------------------------------------


def to_records(p: LaurentPoly) -> list[dict]:
    """Structured form: one record per term, in lexicographic exponent order."""
    records = []
    for vec in sorted(p.terms):
        records.append({
            "coefficient": p.terms[vec],
            "exponents": [str(d) for d in vec],
        })
    return records


def _format_terms(terms: Mapping[ExponentVector, int], names: Sequence[str], times: str,
                  gap: str, power: str) -> str:
    """Terms in ascending exponent order, such as ``3 - 2*a*x^-1``.

    ``times`` joins a term's magnitude and factors, ``gap`` surrounds the sign
    between terms, and ``power`` formats a factor from the name and the
    exponent, with exponent 1 printed bare.
    """
    chunks = []
    for vec in sorted(terms):
        coeff = terms[vec]
        factors = [name if d == 1 else power.format(name, d)
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
    """Human-readable form like ``a*b^2*x^-3``; terms in canonical order."""
    return _format_terms(p.terms, VARIABLES, "*", " ", "{}^{}")


def to_latex(p: LaurentPoly) -> str:
    """LaTeX form like ``-x^{-3}+2 a b^{2}``; terms in canonical order."""
    return _format_terms(p.terms, VARIABLES, " ", "", "{}^{{{}}}")
