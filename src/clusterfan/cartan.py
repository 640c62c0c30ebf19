"""Cartan matrices of finite type: validation, symmetrizers, classification,
all read off a matrix's Dynkin diagram in one pass (`Diagram`).

The sign convention throughout the package: the simple reflection s_i sends
alpha_j to alpha_j - a_ij alpha_i, i.e. a_ij pairs alpha_j against the i-th
simple coroot.  Finite type means a_ii = 2, off-diagonal entries are
nonpositive with symmetric zero pattern, some positive diagonal integer
matrix D makes DA symmetric, and DA is positive definite.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Real
from typing import Sequence

from .linalg import leading_principal_minors

Entries = tuple[tuple[int, ...], ...]
DynkinType = tuple[tuple[str, int], ...]
Forest = list[list[tuple[int, int | None]]]


class NotCartanShape(ValueError):
    """The matrix violates the basic Cartan shape conditions."""


class NotSymmetrizable(ValueError):
    """No positive diagonal matrix symmetrizes the given matrix."""


class NotSkewSymmetrizable(ValueError):
    """An exchange matrix admits no skew-symmetrizer: it is not m-by-n with
    m >= n, or its top square part has a nonzero diagonal entry, a broken
    zero or sign pattern, or inconsistent ratios around a cycle."""


class UnrecognizedDiagram(ValueError):
    """The diagram is not one of the finite Dynkin diagrams."""


# the most characters of a refused text that its error message repeats
ECHO = 64


def _shown(text: str) -> str:
    """repr(text), cut to its first ECHO characters when it is longer."""
    if len(text) <= ECHO:
        return repr(text)
    return f"{text[:ECHO]!r}... ({len(text)} characters)"


# A rank-n system has up to n^2 positive roots and its validation takes
# O(n^3) steps, so a larger rank is refused first; A128 (8,256 positive
# roots) is the largest A_n admitted.
MAX_RANK = 128


class BudgetExceeded(RuntimeError):
    """An input is over a budget of the package (exit code 3).  Here: a rank
    over MAX_RANK, refused for a type name before its matrix is built and
    for a root system before it is validated or closed."""


def check_rank(n: int) -> None:
    if n > MAX_RANK:
        raise BudgetExceeded(
            f"rank {n} is over the bound of {MAX_RANK} simple roots"
        )


def as_entries(rows: Sequence[Sequence[int]]) -> Entries:
    """Rows as tuples of ints; raises NotCartanShape on an entry that is not
    an integral number (an integral float such as 2.0 is accepted)."""
    return tuple(
        tuple(x if type(x) is int else _integer(x) for x in row) for row in rows
    )


def _integer(x) -> int:
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        value = None
    if isinstance(x, bool) or not isinstance(x, Real) or value != x:
        raise NotCartanShape(f"entry {x!r} is not an integer")
    return value


def check_shape(rows: Sequence[Sequence[int]]) -> Entries:
    """Validate the basic shape: square, 2 on the diagonal, nonpositive
    off-diagonal integers with a symmetric zero pattern."""
    entries = as_entries(rows)
    n = len(entries)
    for i, row in enumerate(entries):
        if len(row) != n:
            raise NotCartanShape(f"row {i} has length {len(row)}, expected {n}")
        if row[i] != 2:
            raise NotCartanShape(f"diagonal entry a[{i}][{i}] = {row[i]}, expected 2")
        for j, a in enumerate(row):
            if i == j:
                continue
            if a > 0:
                raise NotCartanShape(f"off-diagonal a[{i}][{j}] = {a} is positive")
            if (a == 0) != (entries[j][i] == 0):
                raise NotCartanShape(
                    f"zero pattern broken at ({i},{j}): {a} vs {entries[j][i]}"
                )
    return entries


def _forest(entries: Sequence[Sequence[int]]) -> Forest:
    """A spanning forest of the Dynkin diagram (the nonzero off-diagonal
    pattern, symmetric by the caller's guarantee): one tree per component,
    rooted at its lowest index and listed breadth first as (node, the node
    it was reached from) pairs, the root's parent None."""
    n = len(entries)
    seen = [False] * n
    forest = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        tree: list[tuple[int, int | None]] = [(root, None)]
        for i, _ in tree:  # the loop reads the nodes it appends
            row = entries[i]
            for j in range(n):
                if not seen[j] and row[j] != 0 and j != i:
                    seen[j] = True
                    tree.append((j, i))
        forest.append(tree)
    return forest


def _propagate(
    entries: Sequence[Sequence[int]], forest: Forest, sign: int, error: type[ValueError]
) -> tuple[int, ...]:
    """Minimal positive integers d with d_i m_ij = sign d_j m_ji.

    Sets d_j = sign d_i m_ij / m_ji along the edges of the spanning forest,
    rescales each tree to coprime integers, then checks the equation on
    every nonzero entry.  The caller guarantees that m_ij and m_ji vanish
    together and that sign m_ij m_ji > 0 otherwise, so every ratio is
    positive; an entry off the forest that breaks the equation (a cycle
    forcing inconsistent ratios) raises `error`.
    """
    n = len(entries)
    d = [0] * n
    for tree in forest:
        ratio = {tree[0][0]: Fraction(1)}
        for j, i in tree[1:]:
            ratio[j] = ratio[i] * (sign * entries[i][j]) / entries[j][i]
        scale = lcm(*(r.denominator for r in ratio.values()))
        values = {i: int(r * scale) for i, r in ratio.items()}
        g = gcd(*values.values())
        for i, v in values.items():
            d[i] = v // g
    for i in range(n):
        for j in range(i + 1, n):
            if entries[i][j] and d[i] * entries[i][j] != sign * d[j] * entries[j][i]:
                raise error(f"inconsistent symmetrizer ratio at edge ({i},{j})")
    return tuple(d)


def skew_symmetrizer(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i b_ij = -d_j b_ji for a square
    integer matrix with zero diagonal; raises NotSkewSymmetrizable if none
    exist."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            raise NotSkewSymmetrizable(
                f"diagonal entry b[{i}][{i}] = {rows[i][i]} nonzero"
            )
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotSkewSymmetrizable(f"zero pattern broken at ({i},{j})")
            if rows[i][j] * rows[j][i] > 0:
                raise NotSkewSymmetrizable(f"entries at ({i},{j}) share a sign")
    return _propagate(rows, _forest(rows), -1, NotSkewSymmetrizable)


class Diagram:
    """The Dynkin diagram of a Cartan matrix: its shape is checked and its
    spanning forest walked once, one tree per component; the readings below
    are taken off them on first use and kept."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.entries = check_shape(rows)
        self.forest = _forest(self.entries)
        self.components = [sorted(node for node, _ in tree) for tree in self.forest]

    @cached_property
    def symmetrizer(self) -> tuple[int, ...]:
        """Minimal positive integer diagonal D with D A symmetric; raises
        NotSymmetrizable when a cycle forces inconsistent ratios."""
        return _propagate(self.entries, self.forest, 1, NotSymmetrizable)

    @cached_property
    def finite_type(self) -> DynkinType | None:
        """The Dynkin type, or None when the symmetrization is not positive
        definite (Sylvester's criterion); raises NotSymmetrizable when there
        is no symmetrizer."""
        entries, d = self.entries, self.symmetrizer
        n = len(entries)
        sym = [[d[i] * entries[i][j] for j in range(n)] for i in range(n)]
        if not all(m > 0 for m in leading_principal_minors(sym)):
            return None
        return tuple(sorted(_classify_component(entries, comp) for comp in self.components))

    def classify(self) -> DynkinType:
        """The Dynkin type; UnrecognizedDiagram when it is not finite."""
        if self.finite_type is None:
            raise UnrecognizedDiagram("matrix is not of finite type (not positive definite)")
        return self.finite_type

    @cached_property
    def parts(self) -> tuple[frozenset[int], frozenset[int]]:
        """The two colours along the spanning forest; the lowest index of
        each component goes into the first (plus) part.  An edge whose ends
        share a colour (an odd cycle) raises UnrecognizedDiagram."""
        entries = self.entries
        n = len(entries)
        color = [0] * n
        for tree in self.forest:
            for j, i in tree[1:]:
                color[j] = 1 - color[i]
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] and color[i] == color[j]:
                    raise UnrecognizedDiagram("diagram contains an odd cycle")
        plus = frozenset(i for i in range(n) if color[i] == 0)
        minus = frozenset(i for i in range(n) if color[i] == 1)
        return plus, minus


def validate_finite_type(rows: Sequence[Sequence[int]]) -> bool:
    """True when the matrix is a Cartan matrix of finite type.

    Shape violations raise NotCartanShape and unsymmetrizable input raises
    NotSymmetrizable; a symmetrizable matrix whose symmetrization is not
    positive definite is reported as False.
    """
    return finite_type(rows) is not None


def finite_type(rows: Sequence[Sequence[int]]) -> DynkinType | None:
    """The Dynkin type of a Cartan matrix of finite type, or None when its
    symmetrization is not positive definite; raises as
    `validate_finite_type` does."""
    return Diagram(rows).finite_type


def _classify_component(entries: Entries, comp: list[int]) -> tuple[str, int]:
    n = len(comp)
    edges = []
    for a in comp:
        for b in comp:
            if a < b and entries[a][b] != 0:
                edges.append((a, b))
    if len(edges) != n - 1:
        raise UnrecognizedDiagram("diagram component is not a tree")
    degree = {v: 0 for v in comp}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1

    multi = [(a, b) for a, b in edges if entries[a][b] * entries[b][a] > 1]
    if not multi:
        if n == 1:
            return ("A", 1)
        branch = [v for v in comp if degree[v] > 2]
        if not branch:
            return ("A", n)
        if len(branch) > 1 or degree[branch[0]] != 3:
            raise UnrecognizedDiagram("too many branch points for finite type")
        center = branch[0]
        arms = []
        for start in (v for v in comp if entries[center][v] != 0 and v != center):
            length = 1
            prev, cur = center, start
            while True:
                nxt = [v for v in comp if entries[cur][v] != 0 and v not in (prev, cur)]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return ("D", n)
        if arms == [1, 2, 2]:
            return ("E", 6)
        if arms == [1, 2, 3]:
            return ("E", 7)
        if arms == [1, 2, 4]:
            return ("E", 8)
        raise UnrecognizedDiagram(f"branch arms {arms} are not of finite type")

    if len(multi) > 1:
        raise UnrecognizedDiagram("more than one multiple edge")
    a, b = multi[0]
    weight = entries[a][b] * entries[b][a]
    if weight == 3:
        if n != 2:
            raise UnrecognizedDiagram("triple edge only occurs at rank 2")
        return ("G", 2)
    if weight != 2:
        raise UnrecognizedDiagram(f"edge weight {weight} is not of finite type")
    if any(degree[v] > 2 for v in comp):
        raise UnrecognizedDiagram("branch point with a double edge")
    if n == 2:
        return ("B", 2)
    # short end s receives the -2: a_sl = -2 pairs the long root against the
    # short coroot, so d_l = 2 d_s
    s, l = (a, b) if entries[a][b] == -2 else (b, a)
    if degree[s] == 1:
        return ("B", n)
    if degree[l] == 1:
        return ("C", n)
    if n == 4:
        return ("F", 4)
    raise UnrecognizedDiagram("interior double edge only occurs at rank 4")


def classify(rows: Sequence[Sequence[int]]) -> DynkinType:
    """Dynkin type of a finite-type Cartan matrix, as a sorted tuple of
    (family letter, rank) factors, e.g. (("A", 2),) or (("A", 1), ("A", 1))."""
    return Diagram(rows).classify()


def dynkin_name(dtype: DynkinType) -> str:
    return "+".join(f"{letter}{rank}" for letter, rank in dtype)


def bipartition(rows: Sequence[Sequence[int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Two-color the Dynkin diagram along its spanning forest (`Diagram.parts`)."""
    return Diagram(rows).parts


def b_matrix(rows: Sequence[Sequence[int]]) -> Entries:
    """Skew-symmetrizable exchange matrix built from a Cartan matrix and its
    diagram bipartition: zero diagonal, row i copies a_ij for i in the plus
    part and -a_ij for i in the minus part."""
    plus, _ = bipartition(rows)
    return tuple(
        tuple(0 if i == j else (a if i in plus else -a) for j, a in enumerate(row))
        for i, row in enumerate(as_entries(rows))
    )


# -- builtin table ----------------------------------------------------------


def _path(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for i in range(n - 1):
        rows[i][i + 1] = -1
        rows[i + 1][i] = -1
    return rows


def standard_cartan(letter: str, rank: int) -> Entries:
    """The builtin Cartan matrix for one irreducible family.

    Numbering: A is a path; B puts its short root first; C puts its long
    root first except C3, which is numbered with the long root last so the
    associahedron support constants come out in index order; D hangs the two
    leaf nodes 1,2 on node 3; E types are a path 1..n-1 with node n attached
    to node 3; F4 follows the same orientation as B (a_32 = -2); G2 carries
    the triple edge on its first row.
    """
    letter = letter.upper()
    if rank < 1:
        raise UnrecognizedDiagram(f"rank {rank} out of range")
    if letter == "A":
        return as_entries(_path(rank))
    if letter == "B":
        if rank < 2:
            raise UnrecognizedDiagram("B requires rank >= 2")
        rows = _path(rank)
        rows[0][1] = -2
        return as_entries(rows)
    if letter == "C":
        if rank < 3:
            raise UnrecognizedDiagram("C requires rank >= 3")
        rows = _path(rank)
        if rank == 3:
            rows[1][2] = -2
        else:
            rows[0][1] = -1
            rows[1][0] = -2
        return as_entries(rows)
    if letter == "D":
        if rank < 4:
            raise UnrecognizedDiagram("D requires rank >= 4")
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2
        for i in range(2, rank - 1):
            rows[i][i + 1] = rows[i + 1][i] = -1
        rows[0][2] = rows[2][0] = -1
        rows[1][2] = rows[2][1] = -1
        return as_entries(rows)
    if letter == "E":
        if rank not in (6, 7, 8):
            raise UnrecognizedDiagram("E requires rank 6, 7 or 8")
        rows = _path(rank)
        rows[rank - 1][rank - 1] = 2
        rows[rank - 2][rank - 1] = rows[rank - 1][rank - 2] = 0
        rows[2][rank - 1] = rows[rank - 1][2] = -1
        return as_entries(rows)
    if letter == "F":
        if rank != 4:
            raise UnrecognizedDiagram("F requires rank 4")
        rows = _path(4)
        rows[2][1] = -2
        return as_entries(rows)
    if letter == "G":
        if rank != 2:
            raise UnrecognizedDiagram("G requires rank 2")
        return as_entries([[2, -3], [-1, 2]])
    raise UnrecognizedDiagram(f"unknown family {letter!r}")


def parse_type_name(name: str) -> DynkinType:
    """Parse "A3" or a composite like "A1+A1"."""
    factors = []
    for piece in name.split("+"):
        piece = piece.strip()
        try:
            # isdigit would admit digits such as '²' that int refuses, and
            # int refuses more digits than sys.get_int_max_str_digits()
            if len(piece) < 2 or not piece[1:].isdecimal():
                raise ValueError
            factors.append((piece[0].upper(), int(piece[1:])))
        except ValueError:
            raise UnrecognizedDiagram(
                f"cannot parse type name {_shown(piece)}"
            ) from None
    return tuple(sorted(factors))


def cartan_for_type(dtype: DynkinType | str) -> Entries:
    """Block-diagonal builtin Cartan matrix for a (possibly composite) type.
    The total rank is read off the type first: over MAX_RANK no block is
    built."""
    if isinstance(dtype, str):
        dtype = parse_type_name(dtype)
    check_rank(sum(rank for _, rank in dtype))
    blocks = [standard_cartan(letter, rank) for letter, rank in dtype]
    total = sum(len(b) for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, a in enumerate(row):
                rows[offset + i][offset + j] = a
        offset += len(block)
    return as_entries(rows)


def parse_cartan_text(text: str) -> Entries:
    """The matrix that a matrix file holds, surrounding whitespace ignored:
    "type:NAME" gives the Cartan matrix of a Dynkin type name such as A3 or
    A2+B2 (`cartan_for_type`); "matrix:[[2,-1],[-1,2]]" and the JSON rows
    "[[2,-1],[-1,2]]" alone give those rows.  Rows must be a nonempty list of
    nonempty lists of integers (an integral float such as 2.0 is accepted);
    their shape is checked where they are used, by `RootSystem` as a Cartan
    matrix or by `ExchangeMatrix` as an exchange matrix.  Bad JSON (nested
    past the recursion limit included), rows of another shape, an entry that
    is not an integer and text of no form raise NotCartanShape, whose
    message repeats at most ECHO characters of the text."""
    text = text.strip()
    if text.startswith("type:"):
        return cartan_for_type(text[len("type:"):].strip())
    prefixed = text.startswith("matrix:")
    try:
        rows = json.loads(text[len("matrix:"):].strip() if prefixed else text)
    except RecursionError:
        raise NotCartanShape("bad matrix JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        if prefixed:
            raise NotCartanShape(f"bad matrix JSON: {exc}") from None
        raise NotCartanShape(
            f"expected 'type:NAME' or 'matrix:[[...]]', got {_shown(text)}"
        ) from None
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) and row for row in rows
    ):
        raise NotCartanShape("matrix must be a nonempty list of nonempty rows")
    return as_entries(rows)
