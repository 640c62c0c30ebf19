"""Four independent counts that all land on the same generalized Catalan
number: antichains in the root poset, noncrossing-partition lattice elements,
orbits of the Weyl group on a discrete torus, and positive regions of the Shi
arrangement.  The module computes each observation from scratch so that the
cross-interpretation equalities are genuine checks, not restatements.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .assoc import n_phi, narayana
from .cartan import dynkin_name
from .coxeter import AbsoluteInterval, BudgetExceeded, WeylGroup
from .coxeter import absolute_interval, coxeter_element
from .linalg import SingularMatrix, solve_linear
from .roots import RootPoset, RootSystem, coxeter_data


def count_antichains(poset: RootPoset) -> tuple[int, tuple[int, ...]]:
    """Total number of antichains (the empty one included) and the count per
    size, by backtracking over pairwise incomparability."""
    n = poset.rs.n
    sizes = [0] * (n + 1)
    sizes[0] = 1

    def grow(last: int, members: list[int]):
        for nxt in range(last + 1, poset.size):
            if all(poset.incomparable(m, nxt) for m in members):
                sizes[len(members) + 1] += 1
                grow(nxt, members + [nxt])

    grow(-1, [])
    return sum(sizes), tuple(sizes)


class CountCheckFailed(RuntimeError):
    """An enumeration broke one of its own structural invariants."""


def nc_lattice_stats(interval: AbsoluteInterval) -> dict:
    """Element and rank counts of the interval below a Coxeter element in
    absolute order (the noncrossing partition lattice of the type)."""
    total = len(interval.elements)
    if sum(interval.rank_counts) != total or interval.rank_counts[0] != 1:
        raise CountCheckFailed(
            f"rank counts {interval.rank_counts} do not partition {total} elements"
            " with one bottom"
        )
    return {"total": total, "rank_counts": interval.rank_counts}


# largest torus (points mod h+1) whose orbits are counted
TORUS_BUDGET = 10**7


def torus_orbits(
    rs: RootSystem, generators: str = "simple", budget: int = TORUS_BUDGET
) -> int:
    """Number of Weyl orbits on the coordinate lattice modulo h+1.

    A point is coded by its base-(h+1) digits.  A reflection changes only the
    coordinates where its matrix row differs from the identity (for a simple
    reflection, one coordinate, by a sparse Cartan row), so each image code
    is the point's code plus delta * (h+1)^i per changed coordinate i.
    Orbits are walked with a stack over a bytearray of visited codes.  With
    generators="all" every reflection is used, which must not change the
    count.
    """
    n = rs.n
    h = coxeter_data(rs).coxeter_number
    mod = h + 1
    size = mod**n
    if size > budget:
        raise BudgetExceeded(f"torus has {size} points, budget {budget}")

    if generators == "simple":
        roots = rs.simple_index
    elif generators == "all":
        roots = range(rs.num_positive)
    else:
        raise ValueError("generators must be 'simple' or 'all'")
    # per reflection: (i, mod**i, nonzero entries of row i) for each row i
    # that is not the identity row
    moves = []
    for root in roots:
        matrix = rs.reflection_matrix(root)
        moves.append(
            [
                (i, mod**i, [(j, a) for j, a in enumerate(row) if a])
                for i, row in enumerate(matrix)
                if any(a != (i == j) for j, a in enumerate(row))
            ]
        )

    visited = bytearray(size)
    orbits = 0
    point = [0] * n
    for start in range(size):
        if visited[start]:
            continue
        orbits += 1
        visited[start] = 1
        stack = [start]
        while stack:
            code = stack.pop()
            value = code
            for i in range(n):
                value, point[i] = divmod(value, mod)
            for move in moves:
                image = code
                for i, weight, row in move:
                    coordinate = sum(a * point[j] for j, a in row) % mod
                    image += (coordinate - point[i]) * weight
                if not visited[image]:
                    visited[image] = 1
                    stack.append(image)
    return orbits


# -- Shi arrangement, rank <= 3 ------------------------------------------------------


@dataclass(frozen=True)
class _Region:
    """An open region, described by strict inequalities a.t < b and carrying
    the vertex set of its closure for fast side tests."""

    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    vertices: tuple[tuple[Fraction, ...], ...]


def _enumerate_vertices(
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...], n: int
) -> tuple[tuple[Fraction, ...], ...]:
    vertices = set()
    for subset in combinations(range(len(constraints)), n):
        matrix = [list(constraints[i][0]) for i in subset]
        rhs = [constraints[i][1] for i in subset]
        try:
            point = solve_linear(matrix, rhs)
        except SingularMatrix:
            continue
        if all(
            sum(a * t for a, t in zip(coeffs, point)) <= b
            for coeffs, b in constraints
        ):
            vertices.add(tuple(point))
    return tuple(sorted(vertices))


def _split(region: _Region, normal: tuple[Fraction, ...], n: int) -> list[_Region]:
    values = [
        sum(a * t for a, t in zip(normal, v)) - 1 for v in region.vertices
    ]
    if all(v <= 0 for v in values) or all(v >= 0 for v in values):
        return [region]
    out = []
    for side in (
        (normal, Fraction(1)),
        (tuple(-a for a in normal), Fraction(-1)),
    ):
        constraints = region.constraints + (side,)
        vertices = _enumerate_vertices(constraints, n)
        if not vertices:
            continue
        centroid = [
            sum(v[i] for v in vertices) / len(vertices) for i in range(n)
        ]
        strict = all(
            sum(a * t for a, t in zip(coeffs, centroid)) < b
            for coeffs, b in constraints
        )
        if strict:
            out.append(_Region(constraints, vertices))
    if len(out) != 2:
        raise CountCheckFailed("a genuinely cut region must leave two full pieces")
    return out


def shi_positive_regions(rs: RootSystem) -> int:
    """Count the regions of the doubled arrangement that lie in the cone
    where all simple-root pairings are positive.

    In the coordinates t_i = (pairing of x with the i-th simple root) the
    positive cone is the open orthant, the zero hyperplanes miss it, and the
    level-one hyperplane of a root is the locus (root coordinates).t = 1.
    Regions are grown by inserting hyperplanes one at a time inside the box
    0 < t_i < 2(h+1), which contains every vertex of the arrangement.
    """
    n = rs.n
    if n > 3:
        raise ValueError("exact region enumeration supported through rank 3")
    h = coxeter_data(rs).coxeter_number
    bound = Fraction(2 * (h + 1))
    base: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for i in range(n):
        base.append(
            (tuple(Fraction(-1 if j == i else 0) for j in range(n)), Fraction(0))
        )
        base.append(
            (tuple(Fraction(1 if j == i else 0) for j in range(n)), bound)
        )
    start = tuple(base)
    regions = [_Region(start, _enumerate_vertices(start, n))]
    for root in rs.positive_roots():
        normal = tuple(Fraction(c) for c in root.coords)
        regions = [r for region in regions for r in _split(region, normal, n)]
    return len(regions)


# -- the consolidated report ----------------------------------------------------------


def enumeration_report(rs: RootSystem, group: WeylGroup | None = None) -> list[dict]:
    """One row per (interpretation, statistic): observed against expected.

    Expected values come from the exponent product formula and the closed
    Narayana forms; every interpretation is computed independently of them.
    The noncrossing rows, read off the absolute interval below the bipartite
    Coxeter element, need the Weyl group and appear only when it is given.
    """
    expected_total = n_phi(rs)
    expected_profile = narayana(rs)
    rows: list[dict] = []

    name = dynkin_name(rs.dynkin)

    def add(interpretation: str, k, observed, expected):
        rows.append(
            {
                "type": name,
                "interpretation": interpretation,
                "k": k,
                "observed": observed,
                "expected": expected,
                "match": observed == expected,
            }
        )

    total, profile = count_antichains(RootPoset(rs))
    add("antichains", "total", total, expected_total)
    for k, size in enumerate(profile):
        add("antichains", k, size, expected_profile[k])

    if group is not None:
        stats = nc_lattice_stats(absolute_interval(group, coxeter_element(group)))
        add("noncrossing", "total", stats["total"], expected_total)
        for k, size in enumerate(stats["rank_counts"]):
            add("noncrossing", k, size, expected_profile[k])

    h = coxeter_data(rs).coxeter_number
    if (h + 1) ** rs.n <= TORUS_BUDGET:
        add("torus_orbits", "total", torus_orbits(rs), expected_total)

    if rs.n <= 3:
        add("shi_positive", "total", shi_positive_regions(rs), expected_total)

    return rows


def report_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["type", "interpretation", "k", "observed", "expected", "match"],
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
