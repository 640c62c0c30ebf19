"""Four independent enumerations agreeing with the exponent product formula:
root poset antichains, noncrossing partition lattices, torus orbit counts,
and positive Shi regions.

The torus orbits were first counted by a union-find over every point, joined
to its image under each full reflection matrix, and then by a stack walk
over a bytearray of visited points.  Both are kept below: the union-find as
the oracle for the walk, and the walk as the oracle for the Burnside count
over conjugacy classes.  So is the first Shi region growth, which solved
every n-subset of a piece's constraints over the rationals, as the oracle
for the integer growth that solves only the vertices a new hyperplane
adds."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from clusterfan.catalan import (
    count_antichains,
    enumeration_report,
    report_csv,
    shi_positive_regions,
    shi_regions,
    torus_orbits,
)
from clusterfan.coxeter import BudgetExceeded, absolute_interval
from clusterfan.linalg import SingularMatrix, solve_linear
from clusterfan.roots import RootPoset, coxeter_data, root_system

from test_roots import oracle_reflection_matrix


def union_find_torus_orbits(rs, generators):
    mod = coxeter_data(rs).coxeter_number + 1
    n = rs.n
    size = mod**n
    if generators == "simple":
        matrices = [oracle_reflection_matrix(rs, rs.roots[s]) for s in rs.simple_index]
    else:
        matrices = [oracle_reflection_matrix(rs, root) for root in rs.positive_roots()]
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    weights = [mod**i for i in range(n)]
    groups = size
    for code in range(size):
        point = [code // w % mod for w in weights]
        for matrix in matrices:
            image = sum(
                sum(map(int.__mul__, row, point)) % mod * w
                for row, w in zip(matrix, weights)
            )
            a, b = find(code), find(image)
            if a != b:
                parent[a] = b
                groups -= 1
    return groups


def walk_torus_orbits(rs, generators="simple"):
    """Number of Weyl orbits on the coordinate lattice modulo h+1, by a walk
    over every point.

    A point is coded by its base-(h+1) digits.  A reflection changes only the
    coordinates where its matrix row differs from the identity (for a simple
    reflection, one coordinate, by a sparse Cartan row), so each image code
    is the point's code plus delta * (h+1)^i per changed coordinate i.
    Orbits are walked with a stack over a bytearray of visited codes.  With
    generators="all" every reflection is used, which must not change the
    count.
    """
    n = rs.n
    mod = coxeter_data(rs).coxeter_number + 1
    size = mod**n
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
        matrix = oracle_reflection_matrix(rs, rs.roots[root])
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


TOTALS = {"A2": 5, "A3": 14, "B2": 6, "B3": 20, "G2": 8}
PROFILES = {
    "A2": (1, 3, 1),
    "A3": (1, 6, 6, 1),
    "B2": (1, 4, 1),
    "B3": (1, 9, 9, 1),
    "G2": (1, 6, 1),
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_antichain_totals_and_profiles(name):
    total, profile = count_antichains(RootPoset(root_system(name)))
    assert total == TOTALS[name]
    assert profile == PROFILES[name]


def test_antichains_d4():
    total, profile = count_antichains(RootPoset(root_system("D4")))
    assert total == 50
    assert sum(profile) == 50


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_noncrossing_totals_and_rank_profiles(name):
    interval = absolute_interval(root_system(name))
    assert len(interval.elements) == TOTALS[name]
    assert interval.rank_counts == PROFILES[name]


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_torus_orbit_counts(name):
    assert torus_orbits(root_system(name)) == TOTALS[name]


def test_torus_orbit_documented_moduli():
    # A2 on (Z/4)^2 gives 5 orbits, B2 on (Z/5)^2 gives 6
    assert torus_orbits(root_system("A2")) == 5
    assert torus_orbits(root_system("B2")) == 6


def test_torus_orbits_all_reflections_agree():
    for name in ("A2", "B2", "G2"):
        simple = walk_torus_orbits(root_system(name), generators="simple")
        full = walk_torus_orbits(root_system(name), generators="all")
        assert simple == full


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]
)
@pytest.mark.parametrize("generators", ["simple", "all"])
def test_torus_orbits_match_union_find(name, generators):
    rs = root_system(name)
    assert walk_torus_orbits(rs, generators) == union_find_torus_orbits(rs, generators)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "D5"]
    + ["F4", "G2"],
)
def test_burnside_matches_the_walk(name):
    rs = root_system(name)
    assert torus_orbits(rs) == walk_torus_orbits(rs)


def test_burnside_e6():
    # the walk would visit 13^6 = 4,826,809 points
    assert torus_orbits(root_system("E6")) == 833


def test_torus_orbits_budget():
    # the budget counts group elements: |W(A3)| = 24
    with pytest.raises(BudgetExceeded, match="24 elements, over the budget of 23"):
        torus_orbits(root_system("A3"), budget=23)
    assert torus_orbits(root_system("A3"), budget=24) == 14


SABOTAGED_BURNSIDE = """
import sys
from clusterfan import catalan
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
rs = root_system("B2")
count, classes = catalan.kernel_size_mod, catalan.conjugacy_classes
# one fixed-point count off by one: the identity's, the first one counted
calls = []
def off_by_one(rows, m):
    calls.append(rows)
    return count(rows, m) + (len(calls) == 1)
catalan.kernel_size_mod = off_by_one
try:
    catalan.torus_orbits(rs)
except catalan.CountCheckFailed as exc:
    print("FAIL", exc)
catalan.kernel_size_mod = count
# the identity's class swallows the next one: 1 + 2 elements, |W(B2)| = 8
def merged(group):
    (rep, size), (_, other), *rest = classes(group)
    return [(rep, size + other), *rest]
catalan.conjugacy_classes = merged
try:
    catalan.torus_orbits(rs)
except catalan.CountCheckFailed as exc:
    print("FAIL", exc)
"""


def test_sabotaged_burnside_fails_without_asserts():
    # python -O strips assert statements; the Burnside checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", SABOTAGED_BURNSIDE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL Burnside sum 49 over the classes is not a multiple of |W| = 8",
        "FAIL conjugacy class of element 0 has 3 elements, which does not divide |W| = 8",
    ], result.stderr


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_shi_positive_region_counts(name):
    assert shi_positive_regions(root_system(name)) == TOTALS[name]


def fraction_vertices(constraints, n):
    vertices = set()
    for subset in combinations(range(len(constraints)), n):
        matrix = [list(constraints[i][0]) for i in subset]
        rhs = [constraints[i][1] for i in subset]
        try:
            point = solve_linear(matrix, rhs)
        except SingularMatrix:
            continue
        if all(sum(a * t for a, t in zip(coeffs, point)) <= b for coeffs, b in constraints):
            vertices.add(tuple(point))
    return tuple(sorted(vertices))


def fraction_split(region, normal, n):
    constraints, vertices = region
    values = [sum(a * t for a, t in zip(normal, v)) - 1 for v in vertices]
    if all(v <= 0 for v in values) or all(v >= 0 for v in values):
        return [region]
    out = []
    for side in ((normal, Fraction(1)), (tuple(-a for a in normal), Fraction(-1))):
        pieces = constraints + (side,)
        corners = fraction_vertices(pieces, n)
        centroid = [sum(v[i] for v in corners) / len(corners) for i in range(n)]
        if all(sum(a * t for a, t in zip(c, centroid)) < b for c, b in pieces):
            out.append((pieces, corners))
    assert len(out) == 2
    return out


def fraction_shi_regions(rs):
    """(constraints, vertices) per region, all rational, in growth order."""
    n = rs.n
    bound = Fraction(2 * (coxeter_data(rs).coxeter_number + 1))
    box = []
    for i in range(n):
        box.append((tuple(Fraction(-(j == i)) for j in range(n)), Fraction(0)))
        box.append((tuple(Fraction(int(j == i)) for j in range(n)), bound))
    regions = [(tuple(box), fraction_vertices(tuple(box), n))]
    for root in rs.positive_roots():
        normal = tuple(Fraction(c) for c in root.coords)
        regions = [r for region in regions for r in fraction_split(region, normal, n)]
    return regions


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_shi_regions_match_fraction_oracle(name):
    rs = root_system(name)
    regions = shi_regions(rs)
    oracle = fraction_shi_regions(rs)
    assert len(regions) == len(oracle)
    for region, (constraints, vertices) in zip(regions, oracle):
        assert region.constraints == constraints
        rational = {tuple(Fraction(c, d) for c in x) for x, d in region.vertices}
        assert rational == set(vertices)
        assert len(region.vertices) == len(vertices)


def test_shi_region_rank_limit():
    with pytest.raises(ValueError):
        shi_positive_regions(root_system("D4"))


def test_enumeration_report_all_match():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        rows = enumeration_report(rs)
        assert rows, "report must not be empty"
        assert all(row["match"] for row in rows)
        interpretations = {row["interpretation"] for row in rows}
        assert interpretations == {
            "antichains",
            "noncrossing",
            "torus_orbits",
            "shi_positive",
        }


@pytest.mark.parametrize("name", ["A1", "A2", "C4", "D5"])
def test_enumeration_report_always_has_noncrossing_rows(name):
    rs = root_system(name)
    rows = [r for r in enumeration_report(rs) if r["interpretation"] == "noncrossing"]
    assert [r["k"] for r in rows] == ["total", *range(rs.n + 1)]
    assert all(row["match"] for row in rows)


def test_report_csv_header_and_rows():
    rows = enumeration_report(root_system("A2"))
    text = report_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "type,interpretation,k,observed,expected,match"
    assert len(lines) == len(rows) + 1
    assert lines[1].startswith("A2,antichains,total,5,5,True")
