"""Polygon triangulations, flips, Ptolemy propagation, and the two polygon
models (snake labeling for type A, centrally symmetric for type B).

The two models, and the flip graph of plain triangulations, live here as
oracles: they check `assoc.compatibility` and the exchange graph of
`mutation.explore` from the polygon side.  The first Ptolemy propagation,
which divided every exchange relation it met and compared the quotient with
the stored value, is kept below as the oracle for the multiply-back check,
and so is the first quad lookup, which scanned every triangle of the
triangulation."""

import itertools
import math
import subprocess
import sys

import networkx as nx
import pytest

from clusterfan.assoc import almost_positive, cluster_complex, compatibility
from clusterfan.cartan import b_matrix, cartan_for_type
from clusterfan.laurent import LaurentPoly
from clusterfan.mutation import ExchangeMatrix, explore, initial_seed
from clusterfan.polygon import (
    LabeledTriangulation,
    MonodromyDetected,
    NotADiagonal,
    Triangulation,
    adjacency_matrix,
    adjacency_rows,
    all_diagonals,
    crossing,
    enumerate_triangulations,
    flipped_diagonal,
    plucker_verify,
    polygon_sides,
    ptolemy_values,
    standard_chart,
)
from clusterfan.roots import root_system


def test_diagonal_and_side_counts():
    assert len(polygon_sides(5)) == 5
    assert len(all_diagonals(5)) == 5
    assert len(all_diagonals(6)) == 9
    assert (0, 1) not in all_diagonals(6)


def test_crossing_is_strict():
    assert crossing((0, 2), (1, 3))
    assert not crossing((0, 2), (2, 4))
    assert not crossing((0, 2), (0, 3))


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_catalan_counts(n, count):
    assert len(enumerate_triangulations(n)) == count


def test_triangulation_validates():
    with pytest.raises(ValueError):
        Triangulation(6, ((0, 2), (1, 3), (0, 4)))  # crossing diagonals
    with pytest.raises(NotADiagonal):
        Triangulation(5, ((0, 1), (0, 3)))
    with pytest.raises(ValueError):
        Triangulation(6, ((0, 2),))  # not enough diagonals


def test_triangles_partition():
    tri = Triangulation(6, ((0, 2), (2, 5), (2, 4)))
    faces = tri.triangles()
    assert len(faces) == 4
    assert (0, 1, 2) in faces


def flip_edge(tri, d):
    rest = tuple(e for e in tri.diagonals if e != d)
    return Triangulation(tri.m, rest + (flipped_diagonal(tri, d),))


def flip_graph(tris):
    index = {t.diagonals: i for i, t in enumerate(tris)}
    return {i: {index[flip_edge(t, d).diagonals] for d in t.diagonals} for i, t in enumerate(tris)}


def test_flip_moves_one_diagonal():
    tri = Triangulation(5, ((0, 2), (0, 3)))
    assert flipped_diagonal(tri, (0, 2)) == (1, 3)
    moved = flip_edge(tri, (0, 2))
    assert set(moved.diagonals) == {(1, 3), (0, 3)}
    assert flip_edge(moved, (1, 3)).diagonals == tri.diagonals


def test_flip_graph_regular_of_degree_n():
    for n in (2, 3):
        tris = enumerate_triangulations(n)
        adjacency = flip_graph(tris)
        assert all(len(nbrs) == n for nbrs in adjacency.values())


def test_flip_graph_isomorphic_to_exchange_graph():
    # the pentagon/hexagon flip graphs are the A2/A3 exchange graphs
    for name, n in (("A2", 2), ("A3", 3)):
        tris = enumerate_triangulations(n)
        flips = nx.Graph()
        for i, nbrs in flip_graph(tris).items():
            flips.add_edges_from((i, j) for j in nbrs)
        names = tuple(f"x{i+1}" for i in range(n))
        graph = explore(initial_seed(b_matrix(cartan_for_type(name)), names))
        exchange = nx.Graph()
        exchange.add_edges_from((u, v) for u, _, v in graph.edges)
        assert nx.is_isomorphic(flips, exchange)


def test_labeled_flip_transfers_label():
    lt = LabeledTriangulation.default(Triangulation(6, ((0, 2), (0, 3), (0, 4))))
    k = lt.label_of((0, 3))
    moved = lt.flip(k)
    assert moved.label_of((2, 4)) == k
    assert moved.underlying().diagonals == Triangulation(
        6, ((0, 2), (2, 4), (0, 4))
    ).diagonals
    with pytest.raises(NotADiagonal):
        lt.flip(0)


def test_adjacency_matrix_shape_and_commutation():
    # exhaustive over all labeled triangulations of the hexagon: flipping then
    # reading the matrix equals reading the matrix then mutating
    for tri in enumerate_triangulations(3):
        lt = LabeledTriangulation.default(tri)
        matrix = adjacency_matrix(lt)
        assert matrix.n == 3
        assert matrix.m == 3 + 6
        for k in range(3):
            # diagonal labels are 1-based, matrix indices 0-based
            flipped = adjacency_matrix(lt.flip(k + 1))
            mutated = matrix.mutate(k)
            assert flipped.rows == mutated.rows


@pytest.mark.parametrize("n", range(1, 7))
def test_adjacency_rows_pass_full_validation(n):
    # criterion 06 validates only the starting matrices; a flipped one is
    # compared with the mutation of a validated matrix instead
    for tri in enumerate_triangulations(n):
        lt = LabeledTriangulation.default(tri)
        for labeled in [lt] + [lt.flip(k) for k in range(1, n + 1)]:
            rows = adjacency_rows(labeled)
            assert ExchangeMatrix(rows, n).rows == rows


def test_pentagon_ptolemy_expansions():
    fan = Triangulation(5, ((0, 2), (0, 3)))
    diag_vals, side_vals = standard_chart(fan)
    ambient = diag_vals[(0, 2)].variables
    y1, y2, q1, q2, q3, q4, q5 = (
        LaurentPoly.variable(ambient, v) for v in ("y1", "y2", "q1", "q2", "q3", "q4", "q5")
    )
    values = ptolemy_values(fan, diag_vals, side_vals)
    assert values[(1, 3)] * y1 == q1 * q3 + q2 * y2
    assert values[(2, 4)] * y2 == y1 * q4 + q3 * q5
    assert values[(1, 4)] * (y1 * y2) == q1 * q4 * y1 + q1 * q3 * q5 + q2 * q5 * y2


def test_ptolemy_values_all_laurent_positive():
    fan = Triangulation(7, ((0, 2), (0, 3), (0, 4), (0, 5)))
    diag_vals, side_vals = standard_chart(fan)
    values = ptolemy_values(fan, diag_vals, side_vals)
    assert len(values) == len(all_diagonals(7))
    for v in values.values():
        assert all(c > 0 for c in v.coefficients())


def test_ptolemy_expand_single_target():
    fan = Triangulation(5, ((0, 2), (0, 3)))
    values = ptolemy_values(fan, *standard_chart(fan))
    assert values[(1, 3)].fraction_text() == "(y2*q2+q1*q3)/y1"


def triangle_scan_quad_around(tri, d):
    a, b = d
    apexes = [
        v
        for (p, q, r) in tri.triangles()
        if a in (p, q, r) and b in (p, q, r)
        for v in (p, q, r)
        if v not in (a, b)
    ]
    assert len(apexes) == 2
    return tuple(sorted([a, b, *apexes]))


def divide_and_compare_ptolemy_values(start, diagonal_values, side_values):
    values = dict(diagonal_values)

    def value_of(edge):
        return side_values[edge] if edge in side_values else values[edge]

    seen = {start.diagonals}
    queue = [start]
    while queue:
        tri = queue.pop()
        for d in tri.diagonals:
            p, q, r, s = triangle_scan_quad_around(tri, d)
            e = (q, s) if d == (p, r) else (p, r)
            product = value_of((p, q)) * value_of((r, s)) + value_of((q, r)) * value_of((p, s))
            candidate = product.exact_div(values[d])
            if e in values:
                assert values[e] == candidate, e
            values[e] = candidate
            moved = Triangulation(tri.m, tuple(x for x in tri.diagonals if x != d) + (e,))
            if moved.diagonals not in seen:
                seen.add(moved.diagonals)
                queue.append(moved)
    return values


def test_quad_around_matches_triangle_scan():
    checked = 0
    for n in range(1, 5):
        for tri in enumerate_triangulations(n):
            for d in tri.diagonals:
                assert tri.quad_around(d) == triangle_scan_quad_around(tri, d)
                checked += 1
    assert checked == 1 * 2 + 2 * 5 + 3 * 14 + 4 * 42


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ptolemy_values_match_divide_and_compare_oracle(n):
    for tri in enumerate_triangulations(n):
        diag_vals, side_vals = standard_chart(tri)
        expected = divide_and_compare_ptolemy_values(tri, diag_vals, side_vals)
        assert ptolemy_values(tri, diag_vals, side_vals) == expected


def test_octagon_ptolemy_values_match_divide_and_compare_oracle():
    fan = Triangulation(8, tuple((0, j) for j in range(2, 7)))
    diag_vals, side_vals = standard_chart(fan)
    values = ptolemy_values(fan, diag_vals, side_vals)
    assert len(values) == len(all_diagonals(8))
    assert values == divide_and_compare_ptolemy_values(fan, diag_vals, side_vals)


POLYGON_CHECKS = """
import sys
from clusterfan import polygon
print("optimize", sys.flags.optimize)
pentagon = polygon.Triangulation(5, ((0, 2), (0, 3)))
# a hexagon 'triangulation' with a diagonal taken away leaves a quadrilateral
broken = polygon.Triangulation(6, ((0, 2), (0, 3), (0, 4)))
object.__setattr__(broken, "diagonals", ((0, 2), (0, 4)))
# propagation is told of one diagonal more than it can reach
all_diagonals = polygon.all_diagonals
polygon.all_diagonals = lambda m: all_diagonals(m) + ((0, 0),)
checks = (
    lambda: broken.triangles(),
    lambda: broken.quad_around((0, 4)),
    lambda: polygon.ptolemy_values(pentagon, *polygon.standard_chart(pentagon)),
)
for check in checks:
    try:
        check()
    except polygon.PolygonCheckFailed as exc:
        print("FAIL", exc)
    else:
        print("PASS")
"""


def test_polygon_checks_fail_without_asserts():
    # python -O strips assert statements; the structural checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", POLYGON_CHECKS]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL 2 triangles in an 6-gon, expected 4",
        "FAIL diagonal (0, 4) borders 1 triangles",
        "FAIL propagation reached 5 of 6 diagonals",
    ], result.stderr


def test_monodromy_check_fires_on_corrupted_relation(monkeypatch):
    # consistency of propagation is a theorem, so the defensive check can
    # only be exercised by corrupting one exchange relation: here the one
    # that defines the diagonal (1, 4)
    from clusterfan import polygon as polygon_mod

    fan = Triangulation(5, ((0, 2), (0, 3)))
    diag_vals, side_vals = standard_chart(fan)
    original = polygon_mod._quad_relation
    hits = []

    def corrupt(quad, value_of):
        product = original(quad, value_of)
        p, q, r, s = quad
        if (1, 4) in ((p, r), (q, s)) and not hits:
            hits.append(quad)
            # scale by a unit so every later division stays exact
            product = product * value_of((0, 1))
        return product

    monkeypatch.setattr(polygon_mod, "_quad_relation", corrupt)
    with pytest.raises(MonodromyDetected):
        ptolemy_values(fan, diag_vals, side_vals)
    assert hits


def test_monodromy_check_fires_on_corrupted_checking_relation(monkeypatch):
    # the last relation evaluated comes after every division, so it can only
    # check values already stored; corrupting it must still be caught
    from clusterfan import polygon as polygon_mod

    fan = Triangulation(7, ((0, 2), (0, 3), (0, 4), (0, 5)))
    diag_vals, side_vals = standard_chart(fan)
    original_relation = polygon_mod._quad_relation
    original_div = LaurentPoly.exact_div
    calls = []
    divisions = []

    def exact_div(self, divisor):
        divisions.append(divisor)
        return original_div(self, divisor)

    def corrupt(quad, value_of):
        product = original_relation(quad, value_of)
        calls.append(quad)
        if len(calls) == math.comb(7, 4):
            assert len(divisions) == len(all_diagonals(7)) - 4
            product = product * value_of((0, 1))
        return product

    monkeypatch.setattr(LaurentPoly, "exact_div", exact_div)
    monkeypatch.setattr(polygon_mod, "_quad_relation", corrupt)
    with pytest.raises(MonodromyDetected):
        ptolemy_values(fan, diag_vals, side_vals)
    assert len(calls) == math.comb(7, 4)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
@pytest.mark.parametrize("start", ["fan", "snake"])
def test_each_exchange_relation_evaluated_once(monkeypatch, m, start):
    # one relation per 4-subset of vertices, and one division per diagonal
    # that the starting triangulation does not already carry
    from clusterfan import polygon as polygon_mod

    if start == "fan":
        tri = Triangulation(m, tuple((0, j) for j in range(2, m - 1)))
    else:
        tri = Triangulation(m, snake_diagonals(m - 3))
    diag_vals, side_vals = standard_chart(tri)
    original_relation = polygon_mod._quad_relation
    original_div = LaurentPoly.exact_div
    quads = []
    divisions = []

    def relation(quad, value_of):
        quads.append(quad)
        return original_relation(quad, value_of)

    def exact_div(self, divisor):
        divisions.append(divisor)
        return original_div(self, divisor)

    monkeypatch.setattr(polygon_mod, "_quad_relation", relation)
    monkeypatch.setattr(LaurentPoly, "exact_div", exact_div)
    values = ptolemy_values(tri, diag_vals, side_vals)
    assert len(values) == len(all_diagonals(m))
    assert len(quads) == math.comb(m, 4)
    assert sorted(quads) == list(itertools.combinations(range(m), 4))
    assert len(divisions) == len(all_diagonals(m)) - (m - 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plucker_minors(n):
    report = plucker_verify(n)
    assert report["identity_holds"]
    assert report["all_equal_minors"]
    assert report["diagonals_checked"] == len(all_diagonals(n + 3))


# -- the snake and type-A compatibility ------------------------------------------


def snake_diagonals(n):
    """The zigzag triangulation of the (n+3)-gon that anchors the labeling of
    diagonals by almost-positive roots."""
    return tuple((i // 2, n + 1 - (i - 1) // 2) for i in range(1, n + 1))


def snake_labeling(n):
    """Diagonal of the (n+3)-gon -> almost-positive root of A_n in simple-root
    coordinates: the i-th snake diagonal gets -alpha_i, and any other
    diagonal, which crosses a run i..j of snake diagonals, gets
    alpha_i + ... + alpha_j."""
    snake = snake_diagonals(n)
    root_of = {}
    for d in all_diagonals(n + 3):
        crossed = [i for i, s in enumerate(snake) if crossing(d, s)]
        if d in snake:
            root_of[d] = tuple(-int(s == d) for s in snake)
        else:
            assert crossed == list(range(crossed[0], crossed[-1] + 1)), (d, crossed)
            root_of[d] = tuple(int(crossed[0] <= j <= crossed[-1]) for j in range(n))
    assert len(set(root_of.values())) == len(root_of) == n * (n + 3) // 2
    return root_of


def test_snake_shape():
    assert snake_diagonals(2) == ((0, 3), (1, 3))
    assert snake_diagonals(3) == ((0, 4), (1, 4), (1, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_snake_labeling_matches_root_compatibility(n):
    root_of = snake_labeling(n)
    rs = root_system(f"A{n}")
    rel = compatibility(almost_positive(rs))
    for d1, d2 in itertools.combinations(root_of, 2):
        by_roots = rel.compatible(rs.index[root_of[d1]], rs.index[root_of[d2]])
        assert by_roots == (not crossing(d1, d2)), (d1, d2)


def test_snake_labeling_counts():
    roots = set(snake_labeling(3).values())
    negatives = [r for r in roots if min(r) < 0]
    assert len(roots) == 9
    assert len(negatives) == 3


# -- centrally symmetric triangulations (type B model) ----------------------------


def antipodal_orbit(d, m):
    return tuple(sorted({d, tuple(sorted((v + m // 2) % m for v in d))}))


def symmetric_triangulations(n):
    """The centrally symmetric triangulations of the (2n+2)-gon, each with its
    diagonals grouped into antipodal orbits: one diameter, the rest pairs."""
    m = 2 * n + 2
    out = []
    for tri in enumerate_triangulations(m - 3):
        orbits = sorted({antipodal_orbit(d, m) for d in tri.diagonals})
        if sum(map(len, orbits)) == len(tri.diagonals):
            assert [len(o) for o in orbits].count(1) == 1
            out.append((tri, orbits))
    return out


def flip_orbit(tri, orbit):
    """Flip every diagonal of one orbit: a diameter flips to the other
    diameter of its symmetric quad, an antipodal pair member by member."""
    for d in orbit:
        tri = flip_edge(tri, d)
    return tri


@pytest.mark.parametrize("n,count", [(2, 6), (3, 20)])
def test_symmetric_triangulation_counts(n, count):
    assert len(symmetric_triangulations(n)) == count


def test_symmetric_flip_graph_regular():
    # a flipped orbit is symmetric again: the lookup finds it
    sym = symmetric_triangulations(3)
    index = {tri.diagonals: i for i, (tri, _) in enumerate(sym)}
    for tri, orbits in sym:
        assert len({index[flip_orbit(tri, o).diagonals] for o in orbits}) == 3


def test_symmetric_orbits_model_type_b():
    # orbit classes of the octagon under the antipodal map are the almost
    # positive roots of B3; symmetric triangulations are the clusters.  Two
    # classes are compatible when no member of one crosses one of the other
    n = 3
    classes = sorted({antipodal_orbit(d, 2 * n + 2) for d in all_diagonals(2 * n + 2)})
    assert len(classes) == n * (n + 1)
    compat = nx.Graph()
    compat.add_nodes_from(range(len(classes)))
    for i, j in itertools.combinations(range(len(classes)), 2):
        if not any(crossing(d, e) for d in classes[i] for e in classes[j]):
            compat.add_edge(i, j)
    cliques = [c for c in nx.enumerate_all_cliques(compat) if len(c) == n]
    assert len(cliques) == len(symmetric_triangulations(n)) == 20

    rs = root_system("B3")
    rel = compatibility(almost_positive(rs))
    facets = cluster_complex(rel).facets
    root_graph = nx.Graph()
    root_graph.add_nodes_from(rel.ap.indices)
    for a in rel.ap.indices:
        for b in rel.ap.indices:
            if a < b and rel.compatible(a, b):
                root_graph.add_edge(a, b)
    assert nx.is_isomorphic(compat, root_graph)
    assert len(facets) == 20


def test_symmetric_flip_orbit_structure():
    tri, orbits = symmetric_triangulations(2)[0]
    assert sorted(len(o) for o in orbits) == [1, 2]
    assert flip_orbit(tri, orbits[0]).diagonals != tri.diagonals
