"""Exact determinants, wedge elimination, and one randomized identity-checking loop.

Two determinant engines cross-check each other: a memoized cofactor expansion
along columns, heaviest first, over packed monomial keys (used symbolically on
Laurent-polynomial matrices, guarded to n <= 8), and, for numeric work at any
size, fraction-free elimination on primitive rows of plain ints.  Every row
is divided by the gcd of its entries, before the first step and after every
update, so it divides Bareiss's row entry by entry and no entry exceeds
Bareiss's; a spiral's minors carry the closed form's large monomial head,
which Bareiss's rows carry and these do not.

Both engines give every leading principal minor at the cost of the full
determinant.  In ``spiral_builder.shell_ordered`` every smaller spiral is a
leading block of the largest, with its own determinant, so one call serves
every size that ``verify`` checks.  The cofactor memo is keyed by row
subsets, each minor taking the trailing columns of the expansion order, so
with the columns expanded last to first the minor on the first k rows is the
leading k x k block, columns reversed.  ``leading_minor_residues`` compares
each such minor with its closed form on the packed keys: the formula's
factors are packed with the same base, which covers both sides, and
multiplied there, so a match unpacks nothing and a mismatch unpacks only
det - formula.  The elimination reads every leading minor off its pivots
(``leading_minors``): each row's scale is the factor between it and its
Gaussian row, and minor_{k+1} = minor_k * pivot_k / scale_k, up to the sign
of its row swaps.  A zero pivot swaps in the nearest row below with a
nonzero entry in its column, and the blocks that swap skips over are
singular.  The determinant (``det_bareiss_rational``) is the last of these
minors.  Its public name stays: the elimination refines Bareiss's, with the
same zeros and row swaps and every row divided by its content.

Every randomized check runs one sampling loop (``randomized_reports``): it
checks the trial count and seed once, draws each trial's point, and keeps
one report per compared pair, with the point and both values of each failed
trial.  ``verify_identity`` is its one-pair case; ``closed_forms``'
reduction check and the CLI's ``verify`` past the size guard use it too.

The wedge elimination implements the column-operation proof of the bracket
family's determinant factorization: at every size, replacing C_j by
C_j - <x>*C_{j-1} + C_{j-2} zeroes two triangular wedges, after which the
determinant reads off as a signed 2x2 corner factor times the product of an
antidiagonal.  The paper mirrors the operation at odd sizes; the unmirrored
one reads off the same corner and factors.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .exponent_algebra import (
    NVARS,
    ExponentVector,
    Factored,
    LaurentPoly,
    angle,
    evaluate,
    exponents,
    pairwise_product,
)
from .spiral_builder import _check_square, centre_cell, check_int, check_size

COFACTOR_SIZE_GUARD = 8
_SAMPLE_RANGE = (-50, 49)  # a sample coordinate v >= 0 then moves to v + 1

_ANGLE_X = angle(exponents(x=1))


class SizeGuardError(ValueError):
    """Symbolic determinant requested beyond the size guard without override."""


class WedgeNotZeroError(ValueError):
    """A wedge cell failed to vanish, so the input is outside the elimination's hypotheses."""

    def __init__(self, row: int, col: int, value):
        self.row = row  # 1-based
        self.col = col
        self.value = value
        super().__init__(f"wedge cell ({row}, {col}) is nonzero: {value!r}")


# An exponent vector d packs into the one int sum d[i] * base**i, with an odd
# base = 2*H + 1.  Every digit in [-H, H] is recovered, so the packing is
# injective on vectors whose entries all lie in that range, and it is
# additive: multiplying two monomials is adding their keys.


def _pack(vec: ExponentVector, base: int) -> int:
    key = 0
    for d in reversed(vec):
        key = key * base + d
    return key


def _unpack(key: int, base: int) -> ExponentVector:
    reach = base // 2
    vec = []
    for _ in range(NVARS):
        digit = (key + reach) % base - reach
        vec.append(digit)
        key = (key - digit) // base
    return tuple(vec)


def _reach(poly: LaurentPoly) -> int:
    """max |d| over the exponents of the polynomial's terms."""
    return max((abs(d) for vec in poly.terms for d in vec), default=0)


def _packed_columns(matrix: Sequence[Sequence], allow_large: bool, reach: int = 0):
    """(symbolic, base, columns) of a matrix that ``det_cofactor`` accepts.

    ``columns[j][i]`` is entry (i, j) packed into (key, coefficient) pairs:
    the key of a monomial with exponents d is sum d[i] * B**i with
    B = ``base`` = 2*H + 1 and H = max(n * max|d| over all entries, reach),
    and a number is the constant key 0.  A term of a k-row minor has
    exponents of size at most k * max|d| <= H, so no two monomials an
    expansion meets share a key, and keys add as exponents do; ``reach``
    widens H to cover what a caller compares the minors with.  Refuses
    n > 8 unless ``allow_large`` is set, and a polynomial matrix with a
    nonzero entry that is not an int.
    """
    n = _check_square(matrix)
    if n > COFACTOR_SIZE_GUARD and not allow_large:
        raise SizeGuardError(f"n={n} exceeds the size guard {COFACTOR_SIZE_GUARD}")
    symbolic = any(isinstance(entry, LaurentPoly) for row in matrix for entry in row)
    if symbolic:
        for row in matrix:
            for entry in row:
                if entry and not isinstance(entry, (LaurentPoly, int)):
                    raise TypeError(f"entry {entry!r} of a polynomial matrix is not an int")
        reach = max(reach, n * max((_reach(entry) for row in matrix for entry in row
                                    if isinstance(entry, LaurentPoly)), default=0))
    base = 2 * reach + 1
    columns = [[[(_pack(vec, base), c) for vec, c in entry.terms.items()]
                if isinstance(entry, LaurentPoly) else [(0, entry)] if entry else []
                for entry in (row[j] for row in matrix)] for j in range(n)]
    return symbolic, base, columns


def _expand_minors(columns: list, masks: Sequence[int]) -> list[list[tuple[int, object]]]:
    """The packed terms of the minor on the rows of each mask, from one memoized expansion.

    The minor on the p rows set in a mask takes the last p of ``columns``,
    in their order, and is expanded along the first of them: the memo is
    keyed by row subsets alone, so one expansion serves every mask.  Each
    minor accumulates its entry-times-cofactor products into one dict of
    keys, dropping zero coefficients once per minor.  The memo is freed
    before the terms are returned.
    """
    n = len(columns)

    @functools.cache
    def minor(mask: int) -> list[tuple[int, object]]:
        if not mask:
            return [(0, 1)]
        column = columns[n - mask.bit_count()]
        out = {}
        get = out.get
        negative = False
        rest = mask
        while rest:
            low = rest & -rest
            entry = column[low.bit_length() - 1]
            if entry:
                sub = minor(mask ^ low)
                for u, cu in entry:
                    if negative:
                        cu = -cu
                    for v, cv in sub:
                        w = u + v
                        out[w] = get(w, 0) + cu * cv
            negative = not negative
            rest ^= low
        return [(w, c) for w, c in out.items() if c]

    terms = [minor(mask) for mask in masks]
    del minor  # break the closure's reference cycle so the cache is freed now
    return terms


def det_cofactor(matrix: Sequence[Sequence], *, allow_large: bool = False):
    """Exact determinant by Laplace expansion along columns, memoized over row subsets.

    The cost of a memoized expansion is the number of term pairs its minors
    multiply, so it is set by how many terms those minors hold.  The columns
    are therefore expanded heaviest first, the mass of a column being the
    total |exponent| over its entries' terms, and the memoized minors are
    those of the lightest columns.  On a spiral these are the central
    columns, whose minors have the fewest terms: theorem 3 at n = 8
    multiplies 62,528 term pairs instead of the 964,460 of a row-by-row
    expansion.  Ties keep the column order, so a numeric matrix is expanded
    left to right.  The result is multiplied by the sign of the column
    permutation.

    Entries are LaurentPoly, int, Fraction or float, each packed once into
    integer keys (see ``_packed_columns``), and the minors are expanded by
    ``_expand_minors``.  A matrix with any LaurentPoly entry returns a
    canonical LaurentPoly (its other nonzero entries must be ints);
    otherwise the number comes back, with a zero determinant as the int 0.
    O(n * 2^n) subproblems; refuses n > 8 unless ``allow_large`` is set.
    """
    symbolic, base, columns = _packed_columns(matrix, allow_large)
    n = len(columns)

    def mass(j: int) -> int:
        return sum(abs(d) for row in matrix if isinstance(row[j], LaurentPoly)
                   for vec in row[j].terms for d in vec)

    order = sorted(range(n), key=mass, reverse=True)  # stable: ties keep column order
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    terms, = _expand_minors([columns[j] for j in order], [(1 << n) - 1])
    sign = -1 if inversions % 2 else 1
    if symbolic:
        return LaurentPoly._raw({_unpack(key, base): sign * c for key, c in terms})
    return sign * terms[0][1] if terms else 0


def leading_minor_residues(matrix: Sequence[Sequence],
                           formulas: Sequence[Factored]) -> Iterator[LaurentPoly]:
    """det(leading k x k block) - ``formulas[k-1]`` for each k, largest first.

    One expansion serves every block.  With the columns expanded last to
    first, the minor on rows 0..k-1 takes columns k-1, ..., 0: it is the
    leading k x k block with its columns reversed, of sign (-1)^(k(k-1)/2).
    All blocks share one memo (a zero diagonal entry only means a block's
    minor is not reached from the next larger one), and the memo is freed
    before this returns.  Each residue is then formed on the packed keys
    (``_packed_residue``), k = n down to 1, each minor's packed terms
    released as they are: a caller that drops each residue before taking
    the next never holds two.  A residue is an empty LaurentPoly where the
    formula matches.

    The base packs both sides: H also covers, for each formula, the sum
    over its factors of their max |d|, which bounds every exponent of the
    formula's products.  Entries and their errors are those of
    ``det_cofactor``, n > 8 is always refused, and there must be one
    formula per size; all are checked before any expansion.
    """
    reach = max((sum(map(_reach, formula.factors)) for formula in formulas), default=0)
    _, base, columns = _packed_columns(matrix, False, reach)
    n = len(columns)
    if len(formulas) != n:
        raise ValueError(f"need {n} formulas, got {len(formulas)}")
    minors = _expand_minors(columns[::-1], [(1 << k) - 1 for k in range(1, n + 1)])
    return (_packed_residue(minors.pop(), (-1) ** (k * (k - 1) // 2), formulas[k - 1], base)
            for k in range(n, 0, -1))


def _packed_product(p: dict, q: dict) -> dict:
    """The product of two polynomials packed with one base, zero terms kept."""
    out = {}
    get = out.get
    for u, cu in p.items():
        for v, cv in q.items():
            w = u + v
            out[w] = get(w, 0) + cu * cv
    return out


def _packed_residue(terms: list[tuple[int, object]], sign: int, formula: Factored,
                    base: int) -> LaurentPoly:
    """sign times the determinant whose packed terms these are, minus the formula.

    The formula's factors are packed with the same base and multiplied
    pairwise on their keys, starting from -formula.sign; the determinant's
    terms are added into that product in place, and only its nonzero
    terms are unpacked.
    """
    factors = [{_pack(vec, base): c for vec, c in factor.terms.items()}
               for factor in formula.factors]
    out = pairwise_product([{0: -formula.sign}, *factors], _packed_product)
    get = out.get
    for w, c in terms:
        out[w] = get(w, 0) + sign * c
    return LaurentPoly._raw({_unpack(w, base): c for w, c in out.items() if c})


def _cleared_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row as integers, with the denominator it was multiplied by.

    A row of Fractions (or of floats, taken exactly) is multiplied by the
    lcm of its denominators.  A row of ints is copied as it is, with
    denominator 1, the pair the same row of Fractions gives.  So the leading
    k x k minor of the matrix is that of the integer one over
    prod(dens[:k]).  The matrix is left unchanged.
    """
    m, dens = [], []
    for row in matrix:
        if all(type(v) is int for v in row):
            den = 1
            row = list(row)
        else:
            row = [v if type(v) is Fraction else Fraction(v) for v in row]
            den = lcm(*(v.denominator for v in row))
            row = [v.numerator * (den // v.denominator) for v in row]
        m.append(row)
        dens.append(den)
    return m, dens


def _primitive(row: list[int]) -> tuple[list[int], int]:
    """The row divided by the gcd of its entries, and that gcd; a zero row has content 1."""
    content = gcd(*row) or 1
    return ([x // content for x in row] if content > 1 else row), content


def _primitive_minors(m: list[list[int]]) -> Iterator[int]:
    """The leading 1 x 1, ..., n x n minors of the integer matrix, from one elimination in place.

    Fraction-free elimination on primitive rows.  Every row is first divided
    by the gcd of its entries (``_primitive``).  At step k, with pivot p and
    h = gcd(p, head), each row i > k with a nonzero head (its entry in
    column k) becomes (p/h)*row_i - (head/h)*row_k and is divided by the gcd
    of its entries again, as in Collins's primitive remainder sequences
    ("Subresultants and reduced polynomial remainder sequences", JACM 14,
    1967).  ``scale[i]`` is row i over its Gaussian (Schur-complement) row,
    kept as a reduced pair of ints (numerator, denominator > 0): it starts
    at (1, content), the update multiplies it by p/h and the division
    divides it by the content.  The Gaussian pivot is p/scale[k], so
    minor_{k+1} = minor_k * p / scale[k], an exact division.

    Bareiss's row at step k is the k-th leading minor times the Gaussian
    row (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968), an integer vector in the
    same direction as the primitive row, which therefore divides it entry
    by entry: no entry here exceeds Bareiss's.  A spiral's minors carry the
    closed form's large monomial head, which Bareiss's rows carry too and
    these rows do not; a q-power row's common monomial goes with its
    content before step 0.

    Every row is a nonzero multiple of its Gaussian row, so it has the same
    zeros.  At a zero pivot in step k, the nearest row i > k with a nonzero
    entry in column k is swapped in, with its scale.  Every block of size
    k+1..i is singular: by Sylvester's identity its determinant is a
    multiple of that of its rows' eliminated entries, whose column k is
    zero.  Every larger block holds both swapped rows, so it keeps its
    determinant up to the sign of the swaps made so far.  With no such
    row, every block from size k+1 on is singular and the elimination
    stops.
    """
    n = len(m)
    scale = []
    for i in range(n):
        m[i], content = _primitive(m[i])
        scale.append((1, content))
    sign = minor = 1
    singular_to = 0  # the block of each step k < singular_to is singular
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                yield from [0] * (n - k)
                return
            m[k], m[i] = m[i], m[k]
            scale[k], scale[i] = scale[i], scale[k]
            sign = -sign
            singular_to = max(singular_to, i)
        pivot = m[k][k]
        num, den = scale[k]
        minor = minor * pivot * den // num
        yield 0 if k < singular_to else sign * minor
        tail_k = m[k][k + 1:]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            if not head:
                continue
            h = gcd(pivot, head)
            a, b = pivot // h, head // h
            row_i[k + 1:], content = _primitive([a * x - b * y
                                                 for x, y in zip(row_i[k + 1:], tail_k)])
            num, den = scale[i]
            num, den = num * a, den * content
            g = gcd(num, den)
            scale[i] = num // g, den // g


def det_bareiss_rational(matrix: Sequence[Sequence]) -> Fraction:
    """Exact rational determinant of a matrix of ints, Fractions or floats.

    The last of ``leading_minors``: the determinant of the row-cleared
    integer matrix (``_cleared_rows``), from its one elimination on
    primitive rows (``_primitive_minors``), over the product of the
    denominators.  The name stays public; the elimination refines
    Bareiss's, with the same zeros and row swaps and every row divided by
    its content.
    """
    _check_square(matrix)
    m, dens = _cleared_rows(matrix)
    det = 1
    for det in _primitive_minors(m):
        pass
    return Fraction(det, prod(dens))


def leading_minors(matrix: Sequence[Sequence]) -> list[Fraction]:
    """The determinants of the leading 1 x 1, 2 x 2, ..., n x n blocks, in one elimination.

    Each row's denominators are cleared (``_cleared_rows``), and the integer
    matrix is eliminated once on primitive rows (``_primitive_minors``,
    which swaps in the nearest nonzero row at a zero pivot and divides every
    row by its content before step 0 and after every update, so no entry
    exceeds Bareiss's).  Minor k is scaled back by the running product of
    the first k denominators.  Entries are ints, Fractions or floats; a row
    of ints, such as a spiral walked at an integral point
    (``spiral_builder.numeric_theorem_matrix``), goes to the integer matrix
    without a Fraction.  The last minor is ``det_bareiss_rational(matrix)``.
    """
    _check_square(matrix)
    m, dens = _cleared_rows(matrix)
    minors = []
    den = 1
    for k, minor in enumerate(_primitive_minors(m)):
        den *= dens[k]
        minors.append(Fraction(minor, den))
    return minors


def numeric_matrix(matrix: Sequence[Sequence[LaurentPoly]], point) -> list[list[Fraction]]:
    """Evaluate every polynomial entry at the point, each cell a Fraction.

    The reference that ``spiral_builder.numeric_theorem_matrix``, which walks
    the spiral at the point instead, is cross-checked against.
    """
    return [[evaluate(entry, point) for entry in row] for row in matrix]


# -- randomized identity verification ---------------------------------------


@dataclass(frozen=True)
class Witness:
    point: tuple
    lhs: object
    rhs: object

    def to_json_dict(self) -> dict:
        return {"point": [str(v) for v in self.point], "lhs": str(self.lhs), "rhs": str(self.rhs)}


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    trials: int
    witnesses: tuple[Witness, ...]

    @property
    def failures(self) -> int:
        return len(self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failures,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def sample_point(seed: int, index: int) -> tuple[int, ...]:
    """Deterministic per-trial point of 5 nonzero integers; independent of trial order."""
    rng = random.Random(f"{seed}:{index}")
    point = []
    for _ in range(5):
        v = rng.randint(*_SAMPLE_RANGE)
        point.append(v if v < 0 else v + 1)
    return tuple(point)


def randomized_reports(sides: Callable[[tuple], Iterable[tuple]], trials: int,
                       seed: int) -> list[VerificationReport]:
    """One report per (lhs, rhs) pair that ``sides(point)`` yields, over ``trials`` points.

    ``trials`` (an int >= 1) and ``seed`` (an int) are checked before any
    trial.  Trial t draws ``sample_point(seed, t)``, which depends on the
    seed and t alone.  ``sides`` yields its pairs in one order and as many
    at every point, or ``ValueError`` is raised; each trial at which a pair
    differs adds its ``Witness`` to that pair's report.
    """
    check_size(trials, 1, "trials")
    check_int(seed, "seed")
    outcomes = []
    for t in range(trials):
        point = sample_point(seed, t)
        outcomes.append([None if lhs == rhs else Witness(point, lhs, rhs)
                         for lhs, rhs in sides(point)])
    return [VerificationReport(seed, trials, tuple(w for w in column if w))
            for column in zip(*outcomes, strict=True)]


def verify_identity(lhs_gen: Callable[[tuple], Sequence[Sequence]],
                    rhs: LaurentPoly | Factored, trials: int, seed: int) -> VerificationReport:
    """Compare det(lhs_gen(point)) against rhs evaluated at the same random points.

    The one pair of :func:`randomized_reports` is ``det_bareiss_rational``
    of the matrix against rhs's value.  A Factored rhs is evaluated factor
    by factor and never expanded.  All arithmetic is exact, so every
    recorded mismatch is a genuine counterexample.
    """
    value = rhs.evaluate if isinstance(rhs, Factored) else functools.partial(evaluate, rhs)
    report, = randomized_reports(
        lambda point: [(det_bareiss_rational(lhs_gen(point)), value(point))], trials, seed)
    return report


# -- wedge elimination -------------------------------------------------------


@dataclass(frozen=True)
class WedgeFactorization:
    """sign * corner_factor * prod(antidiagonal_factors) equals the determinant."""

    sign: int
    corner_factor: LaurentPoly
    antidiagonal_factors: tuple[LaurentPoly, ...]

    def product(self) -> LaurentPoly:
        return Factored(self.sign, (self.corner_factor, *self.antidiagonal_factors)).expand()


def _zero_cells(size: int):
    """1-based wedge cells of the transformed N x N matrix, N = size, that must vanish.

    With (n, m) = centre_cell(size), the upper wedge is in rows 1..n and the
    lower in rows n+1..N; neither reaches columns 1-2.
    """
    n, m = centre_cell(size)
    for i in range(1, n + 1):
        for j in range(max(3, i + 2 + m - n), size + 2 - i):
            yield i, j
    for i in range(n + 1, size + 1):
        for j in range(max(3, size + 3 - i), min(i + 1 + m - n, size) + 1):
            yield i, j


def _eliminate(z) -> tuple[list[list[LaurentPoly]], WedgeFactorization]:
    """C_j <- C_j - <x>*C_{j-1} + C_{j-2} for j = 3..N; a nonzero zero-map cell raises.

    Rows 1 and N then vanish from column 3 on, so det z is, up to sign, the
    2x2 corner of rows 1/N and columns 1-2 times the determinant of the
    middle block, rows 2..N-1 and columns 3..N.  That block is not
    antidiagonal: on the bracket spiral (N-2)(N-3)/2 of its cells off the
    antidiagonal stay nonzero, the cells the zero map does not claim.  But
    the zero map leaves the block one perfect matching, its antidiagonal,
    so its determinant is that product up to sign.  The sign is set to
    theorem 3's (-1)^m, not derived.
    """
    size = len(z)
    t = [[z[i][j] - _ANGLE_X * z[i][j - 1] + z[i][j - 2] if j >= 2 else z[i][j]
          for j in range(size)] for i in range(size)]
    for i, j in _zero_cells(size):
        if t[i - 1][j - 1]:
            raise WedgeNotZeroError(i, j, t[i - 1][j - 1])
    corner = z[0][0] * z[size - 1][1] - z[0][1] * z[size - 1][0]
    factors = tuple(t[i][size - i] for i in range(1, size - 1))
    return t, WedgeFactorization((-1) ** centre_cell(size)[1], corner, factors)


def wedge_eliminate_even(z) -> tuple[list[list[LaurentPoly]], WedgeFactorization]:
    """The transformed matrix and factorization of an even size >= 2 (see ``_eliminate``)."""
    size = _check_square(z)
    if size % 2 or size < 2:
        raise ValueError("even-size elimination needs an even matrix of size >= 2")
    return _eliminate(z)


def wedge_eliminate_odd(z) -> tuple[list[list[LaurentPoly]], WedgeFactorization]:
    """The transformed matrix and factorization of an odd size; a 1x1 matrix is its own corner."""
    size = _check_square(z)
    if size % 2 == 0:
        raise ValueError("odd-size elimination needs an odd matrix")
    if size == 1:
        return [list(z[0])], WedgeFactorization(1, z[0][0], ())
    return _eliminate(z)
