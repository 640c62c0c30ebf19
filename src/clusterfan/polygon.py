"""Triangulated convex polygons and their exchange combinatorics.

Vertices of an m-gon are numbered 0..m-1 counterclockwise.  Edges are sorted
pairs; two diagonals cross exactly when their endpoints strictly interleave
around the polygon.  The module provides triangulation enumeration, diagonal
flips with label tracking, the signed edge-adjacency matrix of a labeled
triangulation, Ptolemy expansion of diagonal values by a sweep over the
exchange relations of the C(m, 4) quadrilaterals, and the check that values
propagated from 2-by-2 minors are minors again.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

from .cartan import BadInput, CheckFailed
from .laurent import LaurentPoly
from .mutation import ExchangeMatrix

Edge = tuple[int, int]


def polygon_sides(m: int) -> tuple[Edge, ...]:
    return tuple((i, i + 1) for i in range(m - 1)) + ((0, m - 1),)


def all_diagonals(m: int) -> tuple[Edge, ...]:
    sides = set(polygon_sides(m))
    return tuple(
        (a, b)
        for a in range(m)
        for b in range(a + 1, m)
        if (a, b) not in sides
    )


def crossing(d: Edge, e: Edge) -> bool:
    """Strict interleaving test; edges sharing an endpoint never cross."""
    a, b = d
    c, f = e
    return (a < c < b < f) or (c < a < f < b)


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of pairwise non-crossing diagonals of an m-gon."""

    m: int
    diagonals: tuple[Edge, ...]

    def __post_init__(self):
        diags = tuple(sorted(tuple(sorted(d)) for d in self.diagonals))
        object.__setattr__(self, "diagonals", diags)
        if self.m < 3:
            raise ValueError("need at least a triangle")
        sides = set(polygon_sides(self.m))
        for d in diags:
            a, b = d
            if not (0 <= a < b < self.m) or d in sides:
                raise BadInput(f"{d} is not a diagonal of an {self.m}-gon")
        if len(set(diags)) != self.m - 3:
            raise ValueError(
                f"a triangulation of an {self.m}-gon has {self.m - 3} diagonals"
            )
        for i, d in enumerate(diags):
            for e in diags[i + 1 :]:
                if crossing(d, e):
                    raise ValueError(f"diagonals {d} and {e} cross")

    def edges(self) -> set[Edge]:
        return set(polygon_sides(self.m)) | set(self.diagonals)

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles, as sorted vertex triples.  In a convex polygon every
        3-cycle of non-crossing edges bounds a face, so a membership test over
        vertex triples is enough."""
        present = self.edges()
        out = []
        for a in range(self.m):
            for b in range(a + 1, self.m):
                if (a, b) not in present:
                    continue
                for c in range(b + 1, self.m):
                    if (a, c) in present and (b, c) in present:
                        out.append((a, b, c))
        if len(out) != self.m - 2:
            raise CheckFailed(
                f"{len(out)} triangles in an {self.m}-gon, expected {self.m - 2}"
            )
        return out

    def quad_around(self, d: Edge) -> tuple[int, int, int, int]:
        """The four vertices of the quadrilateral formed by the two triangles
        on either side of the diagonal d, in cyclic (= sorted) order.  The
        apexes are the common neighbours of d's endpoints: every 3-cycle of
        non-crossing edges bounds a face, and a diagonal borders two faces."""
        if d not in self.diagonals:
            raise BadInput(f"{d} not in triangulation")
        a, b = d
        present = self.edges()
        apexes = [
            v
            for v in range(self.m)
            if (min(a, v), max(a, v)) in present and (min(b, v), max(b, v)) in present
        ]
        if len(apexes) != 2:
            raise CheckFailed(f"diagonal {d} borders {len(apexes)} triangles")
        return tuple(sorted([a, b, *apexes]))  # type: ignore[return-value]


def flipped_diagonal(tri: Triangulation, d: Edge) -> Edge:
    p, q, r, s = tri.quad_around(d)
    return (q, s) if d == (p, r) else (p, r)


def _chord_sets(vs: tuple[int, ...]) -> Iterator[tuple[Edge, ...]]:
    if len(vs) < 3:
        yield ()
        return
    a, z = vs[0], vs[-1]
    for i in range(1, len(vs) - 1):
        w = vs[i]
        extra: tuple[Edge, ...] = ()
        if i > 1:
            extra += ((a, w),)
        if i < len(vs) - 2:
            extra += ((w, z),)
        for left in _chord_sets(vs[: i + 1]):
            for right in _chord_sets(vs[i:]):
                yield left + right + extra


def triangulations_of(m: int) -> list[Triangulation]:
    """All triangulations of the m-gon, by ear decomposition along the side
    (0, m-1); the apex choice makes the recursion duplicate-free."""
    return [Triangulation(m, chords) for chords in _chord_sets(tuple(range(m)))]


def enumerate_triangulations(n: int) -> list[Triangulation]:
    """Triangulations of the (n+3)-gon; there are Catalan-many of them."""
    if n > 10:
        raise ValueError("Catalan growth: n capped at 10")
    return triangulations_of(n + 3)


# -- labels and the signed adjacency matrix --------------------------------------


@dataclass(frozen=True)
class LabeledTriangulation:
    """A triangulation with numbered edges: diagonals carry labels 1..n (the
    label k edge is diagonals[k-1]) and sides carry labels n+1..2n+3."""

    m: int
    diagonals: tuple[Edge, ...]
    sides: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "diagonals", tuple(tuple(sorted(d)) for d in self.diagonals)
        )
        object.__setattr__(
            self, "sides", tuple(tuple(sorted(s)) for s in self.sides)
        )
        Triangulation(self.m, self.diagonals)  # validates
        if sorted(self.sides) != sorted(polygon_sides(self.m)):
            raise ValueError("side labels must cover every side exactly once")

    @staticmethod
    def default(tri: Triangulation) -> "LabeledTriangulation":
        return LabeledTriangulation(tri.m, tri.diagonals, polygon_sides(tri.m))

    @property
    def n(self) -> int:
        return self.m - 3

    def underlying(self) -> Triangulation:
        return Triangulation(self.m, self.diagonals)

    def label_of(self, edge: Edge) -> int:
        edge = tuple(sorted(edge))
        if edge in self.diagonals:
            return self.diagonals.index(edge) + 1
        if edge in self.sides:
            return self.n + 1 + self.sides.index(edge)
        raise KeyError(f"{edge} is not an edge of the triangulation")

    def flip(self, k: int) -> "LabeledTriangulation":
        """Flip the diagonal labeled k; the label transfers to the new
        diagonal, all other labels stay put."""
        if not 1 <= k <= self.n:
            raise BadInput(f"no diagonal labeled {k}")
        tri = self.underlying()
        new = flipped_diagonal(tri, self.diagonals[k - 1])
        diags = list(self.diagonals)
        diags[k - 1] = new
        return LabeledTriangulation(self.m, tuple(diags), self.sides)


def adjacency_matrix(lt: LabeledTriangulation) -> ExchangeMatrix:
    """The (2n+3)-by-n signed edge-adjacency matrix (`adjacency_rows`),
    validated as an extended exchange matrix."""
    return ExchangeMatrix(adjacency_rows(lt), lt.n)


def adjacency_rows(lt: LabeledTriangulation) -> tuple[tuple[int, ...], ...]:
    """The rows of the (2n+3)-by-n signed edge-adjacency matrix: rows indexed
    by all edge labels, columns by diagonal labels; entry +1 when the column
    edge follows the row edge in the clockwise traversal of a shared
    triangle, -1 for the counterclockwise direction.  Not validated: rows
    equal to a mutation of a validated matrix need no check of their own."""
    n = lt.n
    rows = [[0] * n for _ in range(2 * n + 3)]
    for a, b, c in lt.underlying().triangles():
        # clockwise boundary a -> c -> b -> a (vertex numbering is ccw)
        cycle = [lt.label_of((a, c)), lt.label_of((b, c)), lt.label_of((a, b))]
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            if j <= n:
                rows[i - 1][j - 1] += 1
            if i <= n:
                rows[j - 1][i - 1] -= 1
    return tuple(tuple(r) for r in rows)


# -- Ptolemy expansion -------------------------------------------------------------


def _quad_relation(quad: tuple[int, int, int, int], value_of) -> LaurentPoly:
    """The exchange relation of the quadrilateral p < q < r < s: its
    diagonals (p, r) and (q, s) multiply to (one pair of opposite sides)
    + (the other pair).  Returns that right-hand side."""
    p, q, r, s = quad
    return value_of((p, q)) * value_of((r, s)) + value_of((q, r)) * value_of(
        (p, s)
    )


def ptolemy_values(
    start: Triangulation,
    diagonal_values: Mapping[Edge, LaurentPoly],
    side_values: Mapping[Edge, LaurentPoly],
) -> dict[Edge, LaurentPoly]:
    """Values of every diagonal of the polygon, computed from the values on
    one triangulation by sweeping the exchange relations of the polygon's
    C(m, 4) quadrilaterals.

    Every flip exchanges the two diagonals of one quadrilateral, and every
    4-subset of vertices is the quadrilateral of some flip, so these are all
    the exchange relations there are.  The sweep repeats until no relation
    is left waiting.  A quadrilateral whose four sides and one diagonal have
    values defines the other diagonal by one exact division.  One whose six
    edges all have values is checked by multiplying back, value(p, r) *
    value(q, s) == product, which in the Laurent ring (an integral domain) is
    the same test without a division.  A mismatch raises CheckFailed.
    Each relation is evaluated once.
    """
    values: dict[Edge, LaurentPoly] = {
        tuple(sorted(d)): v for d, v in diagonal_values.items()
    }
    if set(values) != set(start.diagonals):
        raise ValueError("initial values must cover the starting diagonals")
    sides = {tuple(sorted(s)): v for s, v in side_values.items()}
    if set(sides) != set(polygon_sides(start.m)):
        raise ValueError("side values must cover every side")
    known = {**sides, **values}

    waiting = list(combinations(range(start.m), 4))
    while waiting:
        still_waiting = []
        for quad in waiting:
            p, q, r, s = quad
            d, e = ((p, r), (q, s)) if (p, r) in known else ((q, s), (p, r))
            if d not in known or not all(
                side in known for side in ((p, q), (q, r), (r, s), (p, s))
            ):
                still_waiting.append(quad)
                continue
            product = _quad_relation(quad, known.__getitem__)
            stored = known.get(e)
            if stored is None:
                known[e] = values[e] = product.exact_div(known[d])
            elif stored * known[d] != product:
                raise CheckFailed(
                    f"diagonal {e}: {stored.text()}"
                    f" != ({product.text()}) / ({known[d].text()})"
                )
        if len(still_waiting) == len(waiting):
            break
        waiting = still_waiting
    if len(values) != len(all_diagonals(start.m)):
        raise CheckFailed(
            f"propagation reached {len(values)} of"
            f" {len(all_diagonals(start.m))} diagonals"
        )
    return values


def standard_chart(
    tri: Triangulation,
) -> tuple[dict[Edge, LaurentPoly], dict[Edge, LaurentPoly]]:
    """Generator values for a starting triangulation: one variable per
    starting diagonal (y1..yn) and one per side (q1..q(n+3))."""
    sides = polygon_sides(tri.m)
    k = len(tri.diagonals)
    gens = LaurentPoly.ring(
        [f"y{i+1}" for i in range(k)] + [f"q{i+1}" for i in range(len(sides))]
    )
    return dict(zip(tri.diagonals, gens[:k])), dict(zip(sides, gens[k:]))


def plucker_verify(n: int) -> dict:
    """Check the three-term minor identity for a symbolic 2-row matrix and
    whether Ptolemy propagation started from minor values stays on minors
    for every diagonal of the (n+3)-gon.  The verdicts are reported under
    "identity_holds" and "all_equal_minors"; nothing is asserted."""
    if n > 5:
        raise ValueError("symbolic minor check capped at n=5")
    m = n + 3
    ambient = tuple(f"a{i+1}" for i in range(m)) + tuple(f"b{i+1}" for i in range(m))
    a = [LaurentPoly.variable(ambient, f"a{i+1}") for i in range(m)]
    b = [LaurentPoly.variable(ambient, f"b{i+1}") for i in range(m)]

    def minor(k: int, l: int) -> LaurentPoly:
        return a[k] * b[l] - a[l] * b[k]

    quadruples = 0
    identity_holds = True
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(k + 1, m):
                    lhs = minor(i, k) * minor(j, l)
                    rhs = minor(i, j) * minor(k, l) + minor(i, l) * minor(j, k)
                    identity_holds = identity_holds and lhs == rhs
                    quadruples += 1

    fan = Triangulation(m, tuple((0, j) for j in range(2, m - 1)))
    diag_vals = {d: minor(*d) for d in fan.diagonals}
    side_vals = {s: minor(*s) for s in polygon_sides(m)}
    values = ptolemy_values(fan, diag_vals, side_vals)
    return {
        "n": n,
        "quadruples_checked": quadruples,
        "identity_holds": identity_holds,
        "diagonals_checked": len(values),
        "all_equal_minors": all(v == minor(*d) for d, v in values.items()),
    }
