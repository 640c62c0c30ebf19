"""Four independent counts that all land on the same generalized Catalan
number: antichains in the root poset, noncrossing-partition lattice elements,
orbits of the Weyl group on a discrete torus, and positive regions of the Shi
arrangement.  The module computes each observation from scratch so that the
cross-interpretation equalities are genuine checks, not restatements.

The noncrossing partitions are the interval [1, c] in absolute order below a
Coxeter element c; `coxeter.absolute_interval` walks it down from c one
reflection length at a time, reading the children of u off the moved space
im(u - 1), and builds no Weyl group.  Only the torus count builds the group:
by Burnside's lemma the orbits are the mean number of fixed points, counted
once per conjugacy class as the solutions of (w - 1) x = 0 modulo h+1.  The
exponent product formula gives only the expected column.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations, product
from math import lcm
from operator import mul

from .assoc import n_phi, narayana
from .cartan import dynkin_name
from .coxeter import absolute_interval, build_group, conjugacy_classes, moved_matrix
from .linalg import SingularMatrix, kernel_size_mod, solve_fraction_free
from .roots import RootPoset, RootSystem, coxeter_data, weyl_group_order


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


# largest Weyl group whose torus orbits are counted; it selects the types
# that the old walk over at most 10^7 torus points did (A7, B6, D6 and E6 in,
# A8 and E7 out)
TORUS_BUDGET = 10**5


def torus_orbits(rs: RootSystem, budget: int = TORUS_BUDGET) -> int:
    """Number of Weyl orbits on the coordinate lattice modulo h+1, by
    Burnside's lemma: the mean over W of the number of fixed points.

    The fixed points of w are the x in (Z/(h+1))^n with (w - 1) x = 0, a
    class function, so it is counted once per conjugacy class, on w - 1 for
    the class's shortest representative, by `kernel_size_mod`.
    The group is built under `budget` elements (BudgetExceeded above it).
    Raises CountCheckFailed unless every class size divides |W| and so does
    the sum of size times fixed points.
    """
    group = build_group(rs, budget=budget)
    order = len(group)
    mod = coxeter_data(rs).coxeter_number + 1
    total = 0
    for rep, size in conjugacy_classes(group):
        if order % size:
            raise CountCheckFailed(
                f"conjugacy class of element {rep} has {size} elements,"
                f" which does not divide |W| = {order}"
            )
        moved = moved_matrix(rs, rs.word_perm(group.reduced_word(rep)))
        total += size * kernel_size_mod(moved, mod)
    orbits, rest = divmod(total, order)
    if rest:
        raise CountCheckFailed(
            f"Burnside sum {total} over the classes is not a multiple of |W| = {order}"
        )
    return orbits


# -- Shi arrangement, rank <= 3 ------------------------------------------------------


@dataclass(frozen=True)
class _Region:
    """A region of the arrangement inside the box: the closed integer
    inequalities a.t <= b that cut it out, and the vertices of its closure
    as reduced homogeneous integer points (x, d), d > 0, standing for
    t = x / d."""

    constraints: tuple[tuple[tuple[int, ...], int], ...]
    vertices: tuple[tuple[tuple[int, ...], int], ...]


def _excess(constraint: tuple[tuple[int, ...], int], point) -> int:
    """d * (a.t - b) at the point t = x / d, d > 0: its sign tells on which
    side of the constraint's hyperplane the point lies."""
    (a, b), (x, d) = constraint, point
    return sum(map(mul, a, x)) - b * d


def _vertices_on(region: _Region, cut: tuple[tuple[int, ...], int], n: int) -> set:
    """The vertices that the hyperplane a.t = b of `cut` adds to either piece
    of the region: each solves the cut together with n - 1 of the region's
    constraints and satisfies all of them."""
    normal, level = cut
    found = set()
    for subset in combinations(region.constraints, n - 1):
        try:
            point = solve_fraction_free(
                [a for a, _ in subset] + [normal], [b for _, b in subset] + [level]
            )
        except SingularMatrix:
            continue
        if all(_excess(c, point) <= 0 for c in region.constraints):
            found.add(point)
    return found


def _centroid_inside(constraints, vertices, n: int) -> bool:
    """Whether the centroid of the vertices satisfies every constraint
    strictly, that is, whether they span a full-dimensional piece."""
    scale = lcm(*(d for _, d in vertices))
    total = tuple(sum(x[i] * (scale // d) for x, d in vertices) for i in range(n))
    centroid = (total, scale * len(vertices))
    return all(_excess(c, centroid) < 0 for c in constraints)


def _split(region: _Region, normal: tuple[int, ...], n: int) -> list[_Region]:
    """Cut the region by the hyperplane normal.t = 1.  Each closed piece's
    vertices are the region's vertices on its side, the hyperplane included,
    plus the vertices on the hyperplane, which both pieces share and which
    are solved once."""
    below, above = (normal, 1), (tuple(-a for a in normal), -1)
    sides = [_excess(below, v) for v in region.vertices]
    if all(side <= 0 for side in sides) or all(side >= 0 for side in sides):
        return [region]
    shared = _vertices_on(region, below, n)
    out = []
    for cut, sign in ((below, 1), (above, -1)):
        constraints = region.constraints + (cut,)
        vertices = shared.union(
            v for v, side in zip(region.vertices, sides) if sign * side <= 0
        )
        if _centroid_inside(constraints, vertices, n):
            out.append(_Region(constraints, tuple(sorted(vertices))))
    if len(out) != 2:
        raise CountCheckFailed("a genuinely cut region must leave two full pieces")
    return out


def shi_regions(rs: RootSystem) -> list[_Region]:
    """The regions of the doubled arrangement that lie in the cone where all
    simple-root pairings are positive, in a fixed order.

    In the coordinates t_i = (pairing of x with the i-th simple root) the
    positive cone is the open orthant, the zero hyperplanes miss it, and the
    level-one hyperplane of a root is the locus (root coordinates).t = 1.
    Regions are grown by inserting hyperplanes one at a time inside the box
    0 < t_i < 2(h+1), which contains every vertex of the arrangement.  All
    constraints have integer coefficients and right-hand sides 0, 1, -1 or
    2(h+1), and vertices are integer homogeneous points, so every side test
    is an integer dot product.
    """
    n = rs.n
    if n > 3:
        raise ValueError("exact region enumeration supported through rank 3")
    bound = 2 * (coxeter_data(rs).coxeter_number + 1)
    box = []
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        box.append((tuple(-a for a in unit), 0))
        box.append((unit, bound))
    corners = sorted((corner, 1) for corner in product((0, bound), repeat=n))
    regions = [_Region(tuple(box), tuple(corners))]
    for root in rs.positive_roots():
        regions = [r for region in regions for r in _split(region, root.coords, n)]
    return regions


def shi_positive_regions(rs: RootSystem) -> int:
    """Count the positive regions of the Shi arrangement (see shi_regions)."""
    return len(shi_regions(rs))


# -- the consolidated report ----------------------------------------------------------


def enumeration_report(rs: RootSystem) -> list[dict]:
    """One row per (interpretation, statistic): observed against expected.

    Expected values come from the exponent product formula and the closed
    Narayana forms; every interpretation is computed independently of them.
    The noncrossing rows are read off the absolute interval below the
    bipartite Coxeter element; it is taken first, so a type whose interval
    is over its budget is refused before any count runs.
    """
    expected_total = n_phi(rs)
    expected_profile = narayana(rs)
    interval = absolute_interval(rs)
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

    add("noncrossing", "total", len(interval.elements), expected_total)
    for k, size in enumerate(interval.rank_counts):
        add("noncrossing", k, size, expected_profile[k])

    if weyl_group_order(rs) <= TORUS_BUDGET:
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
