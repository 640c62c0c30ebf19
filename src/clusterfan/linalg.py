"""Exact linear algebra over the rationals.

Everything funnels through fraction-free (Bareiss) elimination on
integer-scaled rows: each row of a rational matrix is multiplied by the lcm
of its denominators, which preserves rank and, for solving, the solution set
of the augmented system.  Intermediate entries stay integers.  Each Bareiss
division step and each back-substitution step must be exact; one that is not
raises InexactElimination, a check that holds under any interpreter flag.
Callers with integer data can stay in the integers: `solve_fraction_free`
returns a solution as a reduced homogeneous point.  Cone membership needs no
solve here: the wall walk in `assoc` keeps an integer dual basis per cluster.

Two helpers stay in the integers by unimodular row operations instead, which
divide nothing: Euclid's algorithm down each column brings integer rows to
an echelon form.  `left_kernel` reads a left kernel basis off the echelon
form of a matrix beside an identity block, and `kernel_size_mod` counts the
solutions of A x = 0 modulo m from the echelon form of the columns of A
together with m times the unit vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

Rows = Sequence[Sequence[Fraction | int]]


class SingularMatrix(ValueError):
    """Raised when a square system has no unique solution."""


class InexactElimination(ArithmeticError):
    """An integer division that fraction-free elimination guarantees exact
    left a remainder: a bug in the elimination, never bad input."""


def _scaled_int_row(row: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm.  A row made
    only of ints is already scaled and skips the Fraction round trip."""
    if all(type(x) is int for x in row):
        return list(row), 1
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs], scale


def clear_denominators(row: Sequence[Fraction | int]) -> list[int]:
    """The positive integer multiple of a rational row by the lcm of its
    denominators."""
    return _scaled_int_row(row)[0]


def _scaled_int_rows(rows: Rows) -> list[list[int]]:
    return [clear_denominators(row) for row in rows]


def _exact(value: int, divisor: int, step: str) -> int:
    q, rem = divmod(value, divisor)
    if rem:
        raise InexactElimination(f"{step} {value} / {divisor} left remainder {rem}")
    return q


def _eliminate(rows: list[list[int]], row: int, col: int, prev: int) -> None:
    """Clear column `col` below the pivot rows[row][col] in place, each new
    entry divided exactly by the previous pivot `prev`."""
    lead = rows[row]
    for below in rows[row + 1 :]:
        for c in range(col + 1, len(lead)):
            value = lead[col] * below[c] - below[col] * lead[c]
            below[c] = _exact(value, prev, "Bareiss step")
        below[col] = 0


def _bareiss(rows: list[list[int]]) -> tuple[int, int, list[int]]:
    """In-place fraction-free elimination.

    Returns (rank, sign of row swaps, pivot column list).  After the call the
    matrix is upper echelon with integer entries.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    sign = 1
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        pivot = next((r for r in range(row, m) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            rows[row], rows[pivot] = rows[pivot], rows[row]
            sign = -sign
        _eliminate(rows, row, col, prev)
        prev = rows[row][col]
        pivots.append(col)
        row += 1
    return row, sign, pivots


def matrix_rank(rows: Rows) -> int:
    """Exact rank of a rational matrix."""
    work = _scaled_int_rows(rows)
    if not work or not work[0]:
        return 0
    rank, _, _ = _bareiss(work)
    return rank


def det(rows: Rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scaled = [_scaled_int_row(row) for row in rows]
    work = [row for row, _ in scaled]
    rank, sign, _ = _bareiss(work)
    if rank < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1], prod(scale for _, scale in scaled))


def _solve_rows(work: list[list[int]]) -> tuple[int, int, list[list[int]]]:
    """Solve A X = B from the integer rows [A | B] (n rows, n + r columns),
    which are overwritten.  Returns (sign, D, N) with X = N / D, where D is
    the last Bareiss pivot and sign * D = det A.  By Cramer's rule D times
    any solution entry is an integer, so back substitution runs on the
    numerators N over D; the empty system has D = 1.  Raises SingularMatrix."""
    n = len(work)
    if not n:
        return 1, 1, []
    rank, sign, pivots = _bareiss(work)
    if rank < n or pivots != list(range(n)):
        raise SingularMatrix(f"matrix of rank {rank} < {n} has no unique solution")
    denominator = work[n - 1][n - 1]
    numerators = [[0] * (len(work[0]) - n) for _ in range(n)]
    for col in range(len(work[0]) - n):
        for i in range(n - 1, -1, -1):
            acc = denominator * work[i][n + col]
            for j in range(i + 1, n):
                acc -= work[i][j] * numerators[j][col]
            numerators[i][col] = _exact(acc, work[i][i], "back substitution")
    return sign, denominator, numerators


def _square(matrix: Rows, rhs_length: int | None = None) -> int:
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("solving needs a square matrix")
    if rhs_length is not None and rhs_length != n:
        raise ValueError(f"rhs length {rhs_length} does not match matrix size {n}")
    return n


def solve_linear(matrix: Rows, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve a square rational system exactly.

    Raises SingularMatrix when the matrix has no inverse.
    """
    _square(matrix, len(rhs))
    augmented = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    _, denominator, numerators = _solve_rows(_scaled_int_rows(augmented))
    return [Fraction(x, denominator) for x, in numerators]


def solve_fraction_free(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Solve a square integer system without leaving the integers.

    Returns the solution as a reduced homogeneous point (x, d): the solution
    is x / d, d > 0 and gcd(x, d) = 1, so equal solutions give equal
    points.  Raises SingularMatrix when the matrix has no inverse.
    """
    _square(matrix, len(rhs))
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    _, denominator, numerators = _solve_rows(work)
    common = gcd(denominator, *(x for x, in numerators))
    if denominator < 0:
        common = -common
    return tuple(x // common for x, in numerators), denominator // common


def leading_principal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the leading principal k-by-k submatrices, k = 1..n,
    up to the first zero one: without row swaps, the k-th pivot of
    fraction-free elimination is the k-th leading minor (Bareiss, Math.
    Comp. 22, 1968), and past a zero pivot it cannot go on."""
    work = [list(row) for row in rows]
    minors = [1]
    for k in range(len(work)):
        minors.append(work[k][k])
        if not minors[-1]:
            break
        _eliminate(work, k, k, minors[-2])
    return minors[1:]


def _euclid_echelon(work: list[list[int]], width: int) -> list[int]:
    """Bring the first `width` columns of the integer rows to echelon form in
    place, by unimodular row operations only: swaps, and subtracting an
    integer multiple of one row from another, Euclid's algorithm down each
    column.  Returns the pivot column of each nonzero row, top down."""
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        while True:
            live = [r for r in range(top, len(work)) if work[r][col]]
            if not live:
                break
            pivot = min(live, key=lambda r: abs(work[r][col]))
            work[top], work[pivot] = work[pivot], work[top]
            lead, p = work[top], work[top][col]
            cleared = True
            for r in range(top + 1, len(work)):
                q = work[r][col] // p
                if q:
                    work[r] = [a - q * b for a, b in zip(work[r], lead)]
                cleared = cleared and not work[r][col]
            if cleared:
                pivots.append(col)
                break
    return pivots


def left_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """An integer basis of the left kernel {z : z A = 0} of an integer
    matrix A.  The echelon form U A of [A | I] has U unimodular; the rows of
    U beside the zero rows of U A are the basis, and their number is the
    number of rows of A minus its rank."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    rank = len(_euclid_echelon(work, n))
    return [row[n:] for row in work[rank:]]


def kernel_size_mod(rows: Sequence[Sequence[int]], modulus: int) -> int:
    """The number of x in (Z/modulus)^k with A x = 0 modulo `modulus`, for an
    integer matrix A with r rows and k columns.

    With m = modulus, the image of A is (L + m Z^r) / m Z^r, L the lattice
    spanned by the columns of A, so it has m^r / [Z^r : L + m Z^r] elements
    and the count is m^(k - r) times that index.  The columns of A and m
    times the unit vectors span L + m Z^r; as rows in echelon form they are
    a basis, and the index is the product of their pivots."""
    r = len(rows)
    k = len(rows[0]) if r else 0
    work = [list(column) for column in zip(*rows)]
    work += [[modulus * (i == j) for j in range(r)] for i in range(r)]
    pivots = _euclid_echelon(work, r)
    index = prod(abs(work[i][col]) for i, col in enumerate(pivots))
    return modulus**k * index // modulus**r
