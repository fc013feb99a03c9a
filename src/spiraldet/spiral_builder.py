"""Spiral path generation and the matrix families laid out along it.

The path starts at the centre cell of an n x n grid and winds outwards
counterclockwise with the direction cycle right, up, left, down and run
lengths 1, 1, 2, 2, 3, 3, ..., truncated after n^2 - 1 steps.  The centre is
row m+1, column m+1 (1-based) for n = 2m+1 and row m+1, column m for n = 2m;
this convention reproduces the standard displays of all families.

Four families share the path:

* qpower    -- the monomial a * b^e_b * c^e_c * x^e_x * y^e_y, where the
  step counters e_* record how many up/down/right/left steps reach the cell;
* additive  -- the same exponents read additively: a + e_b*b + e_c*c +
  e_x*x + e_y*y (the five variables stand for q^a, ..., q^y, so the q-power
  entry is q to the additive entry);
* bracket   -- the bracket m - 1/m of that monomial;
* generalized bracket -- like bracket, but each up/down step multiplies by a
  caller-chosen monomial; horizontal steps multiply by x in both directions.

``numeric_theorem_matrix`` walks the same path at a point, on ints where the
point is integral and in the rationals elsewhere, and ``shell_ordered``
orders a grid's rows and columns so that every smaller spiral is a leading
block with its own determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from .exponent_algebra import (
    ExponentVector,
    LaurentPoly,
    ZeroCoordinateError,
    _coordinates,
    as_exponent_vector,
    bracket,
    exponents,
    to_latex,
    to_records,
    to_string,
)

_DIRS = {"right": (0, 1), "up": (-1, 0), "left": (0, -1), "down": (1, 0)}
_ORDER = ("right", "up", "left", "down")
# the monomials a, b, c, x and y as exponent vectors
_A, _B, _C, _X, _Y = (exponents(a=1), exponents(b=1), exponents(c=1),
                      exponents(x=1), exponents(y=1))


class LengthMismatchError(ValueError):
    """Increment sequences do not match the path's up/down step counts."""


def centre_cell(n: int) -> tuple[int, int]:
    """0-based (row, col) of the path start.

    The closed forms of theorems 1-3 are written in the same pair: the number
    of rows above the centre and the number of columns to its left.
    """
    return n // 2, (n - 1) // 2


def spiral_walk(n: int) -> Iterator[tuple[str | None, int, int]]:
    """Yield (step direction, row, col) for every path cell; centre first with direction None."""
    check_size(n, 1)
    r, c = centre_cell(n)
    yield None, r, c
    remaining = n * n - 1
    run = 0
    while remaining:
        direction = _ORDER[run % 4]
        dr, dc = _DIRS[direction]
        for _ in range(min(run // 2 + 1, remaining)):
            r += dr
            c += dc
            yield direction, r, c
        remaining -= min(run // 2 + 1, remaining)
        run += 1


def shell_ordered(grid: Sequence[Sequence]) -> list[list]:
    """The grid's rows and columns in the order the spiral's shells add them, even rows negated.

    The size-k spiral is the first k^2 cells of the walk: the block of rows
    from n//2 - k//2 and columns from (n-1)//2 - (k-1)//2.  Going from size
    k - 1 to k, an even k adds a top row and a right column, an odd k a
    bottom row and a left column.  So in the returned order every size-k
    spiral is the leading k x k block.

    That block's rows and columns are out of grid order: a new top row or
    left column precedes the k - 1 rows or columns placed before it, a new
    bottom row or right column none.  So the sign of the two permutations
    flips at each even k, and the k-th row is negated there: the leading
    k x k block's determinant is then exactly the size-k spiral's.  The
    grid is left unchanged; a non-square one raises ValueError.
    """
    n = _check_square(grid)
    row, col = centre_cell(n)
    shifts = [k // 2 if k % 2 else -(k // 2) for k in range(1, n + 1)]  # odd k: below, left
    ordered = []
    for d in shifts:
        cells = [grid[row + d][col - e] for e in shifts]
        ordered.append([-v for v in cells] if d < 0 else cells)
    return ordered


def step_counts(n: int) -> dict[str, int]:
    """Number of path steps taken in each direction."""
    counts = {d: 0 for d in _ORDER}
    for direction, _, _ in spiral_walk(n):
        if direction is not None:
            counts[direction] += 1
    return counts


def _vector_add(u: ExponentVector, v: ExponentVector) -> ExponentVector:
    return tuple(map(add, u, v))


def _walk(n: int, start, right: Iterable, up: Iterable, left: Iterable, down: Iterable,
          combine: Callable = _vector_add) -> list[list]:
    """Values accumulated along the path, as an n x n grid.

    The centre holds ``start``; the k-th step in a direction combines the
    running value with the k-th item of that direction's increments
    (``repeat(v)`` for a constant one).  ``combine`` adds exponent vectors by
    default; ``operator.add`` or ``operator.mul`` walk numbers instead.
    """
    steps = {"right": iter(right), "up": iter(up), "left": iter(left), "down": iter(down)}
    cells = spiral_walk(n)
    _, r, c = next(cells)  # the centre; a bad size raises here, before the grid
    grid: list[list] = [[None] * n for _ in range(n)]
    grid[r][c] = accum = start
    for direction, r, c in cells:
        accum = combine(accum, next(steps[direction]))
        grid[r][c] = accum
    assert all(cell is not None for row in grid for cell in row)
    return grid


def _spiral(n: int, a=_A, b=_B, c=_C, x=_X, y=_Y, combine: Callable = _vector_add) -> list[list]:
    """The walk from a by x right, b up, y left and c down; by default the q-power exponents."""
    return _walk(n, a, repeat(x), repeat(b), repeat(y), repeat(c), combine)


@dataclass(frozen=True)
class LinearForm:
    """The additive entry a + e_b*b + e_c*c + e_x*x + e_y*y."""

    e_b: int
    e_c: int
    e_x: int
    e_y: int

    def to_poly(self) -> LaurentPoly:
        poly = LaurentPoly.variable("a")
        for coeff, name in ((self.e_b, "b"), (self.e_c, "c"), (self.e_x, "x"), (self.e_y, "y")):
            if coeff:
                poly = poly + coeff * LaurentPoly.variable(name)
        return poly

    def _render(self, sep: str) -> str:
        parts = ["a"]
        for coeff, name in ((self.e_b, "b"), (self.e_c, "c"), (self.e_x, "x"), (self.e_y, "y")):
            if coeff == 0:
                continue
            parts.append(f"+{name}" if coeff == 1 else f"+{coeff}{sep}{name}")
        return "".join(parts)

    def __str__(self) -> str:
        return self._render("")


def build_additive(n: int) -> list[list[LinearForm]]:
    # each coefficient is the q-power exponent of b, c, x or y
    return [[LinearForm(*vec[1:]) for vec in row] for row in _spiral(n)]


def build_qpower(n: int) -> list[list[LaurentPoly]]:
    return [[LaurentPoly.monomial(vec) for vec in row] for row in _spiral(n)]


def build_bracket(n: int) -> list[list[LaurentPoly]]:
    return [[bracket(vec) for vec in row] for row in _spiral(n)]


def build_bracket_xx(n: int) -> list[list[LaurentPoly]]:
    """Bracket family with equal horizontal multipliers (y set to x)."""
    return [[bracket(vec) for vec in row] for row in _spiral(n, y=_X)]


def check_int(value, name: str) -> None:
    """Refuse anything but an int; a bool or float is refused too."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def check_size(value, minimum: int, name: str = "n") -> None:
    """Refuse anything but an int >= minimum."""
    check_int(value, name)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_square(z) -> int:
    size = len(z)
    if any(len(row) != size for row in z):
        raise ValueError("matrix must be square")
    return size


def check_theorem(theorem) -> None:
    """Refuse anything but the int 1, 2 or 3; a bool or float is refused too."""
    if type(theorem) is not int or theorem not in (1, 2, 3):
        raise ValueError(f"theorem must be 1, 2 or 3, got {theorem!r}")


def theorem_matrix(theorem: int, n: int) -> list[list[LaurentPoly]]:
    """The n x n matrix whose determinant theorem 1, 2 or 3 gives in closed form.

    Theorem 1 is the additive family (entries as polynomials), theorem 2 the
    q-power family and theorem 3 the bracket family with y set to x.
    """
    check_theorem(theorem)
    if theorem == 1:
        return [[form.to_poly() for form in row] for row in build_additive(n)]
    if theorem == 2:
        return build_qpower(n)
    return build_bracket_xx(n)


def numeric_theorem_matrix(theorem: int, n: int, point: Sequence) -> list[list]:
    """``theorem_matrix(theorem, n)`` at a point (a, b, c, x, y) of 5 rationals, as walked.

    Walks the spiral at the point instead of evaluating each entry: a
    running sum for theorem 1, a running product for theorem 2 and, for
    theorem 3, a running product m with y set to x, each cell then m - 1/m.
    At a point whose coordinates are all integral the walk is on ints, so
    every cell of theorems 1 and 2 is an int; otherwise every coordinate
    walks as its Fraction, and a theorem-3 cell is always a Fraction.
    ``leading_minors`` takes the cells as they are.  A point raises exactly
    as ``numeric_matrix`` does: theorems 1 and 2 have no negative power and
    take zero coordinates, and a theorem-3 cell whose running product is 0
    has 1/m at a zero coordinate, so it raises ZeroCoordinateError.
    """
    check_theorem(theorem)
    coords = _coordinates(point)
    if all(v.denominator == 1 for v in coords):
        coords = [v.numerator for v in coords]
    a, b, c, x, y = coords
    if theorem < 3:
        return _spiral(n, a, b, c, x, y, add if theorem == 1 else mul)
    grid = _spiral(n, a, b, c, x, x, mul)
    if any(0 in row for row in grid):
        raise ZeroCoordinateError()
    return [[m - Fraction(1, m) for m in row] for row in grid]  # 1 / m of an int is a float


def build_generalized_bracket(n: int, up_increments: Iterable,
                              down_increments: Iterable) -> list[list[LaurentPoly]]:
    """Bracket spiral whose k-th up/down step multiplies by a chosen monomial.

    Horizontal steps multiply by x in both directions, and only the vertical
    increments are parameters.  The wedge elimination needs each horizontal
    run to be geometric with ratio x or 1/x: left steps by 1/x keep it (the
    product of its factors is still the determinant), but a free left
    multiplier breaks it.
    """
    counts = step_counts(n)
    ups = tuple(map(as_exponent_vector, up_increments))
    downs = tuple(map(as_exponent_vector, down_increments))
    if len(ups) != counts["up"] or len(downs) != counts["down"]:
        raise LengthMismatchError(
            f"need {counts['up']} up / {counts['down']} down increments, "
            f"got {len(ups)} / {len(downs)}")
    grid = _walk(n, _A, repeat(_X), ups, repeat(_X), downs)
    return [[bracket(vec) for vec in row] for row in grid]


# -- serialization ----------------------------------------------------------


def _cell_json(cell):
    if isinstance(cell, LinearForm):
        return {"e_b": cell.e_b, "e_c": cell.e_c, "e_x": cell.e_x, "e_y": cell.e_y}
    if isinstance(cell, LaurentPoly):
        return to_records(cell)
    return str(Fraction(cell))


def matrix_to_json_dict(matrix, family: str) -> dict:
    return {
        "n": len(matrix),
        "family": family,
        "entries": [[_cell_json(cell) for cell in row] for row in matrix],
    }


def _cell_string(cell, latex: bool) -> str:
    """One cell as text or LaTeX; a number prints as a reduced fraction."""
    if isinstance(cell, LinearForm):
        return cell._render(" " if latex else "")
    if isinstance(cell, LaurentPoly):
        return to_latex(cell) if latex else to_string(cell)
    return str(Fraction(cell))


def matrix_to_text(matrix) -> str:
    """One line per row, cells separated by two spaces."""
    return "\n".join("  ".join(_cell_string(cell, False) for cell in row)
                     for row in matrix) + "\n"


def matrix_to_latex(matrix) -> str:
    """pmatrix emission; additive entries match the displayed layout entrywise."""
    lines = [" & ".join(_cell_string(cell, True) for cell in row) + r" \\" for row in matrix]
    return "\\begin{pmatrix}\n" + "\n".join(lines) + "\n\\end{pmatrix}"
