"""Almost-positive roots, the tau involutions, cluster complexes, and the
generalized associahedron as an exact rational polytope.

The first cone solver, which returned a vector's rational coefficients over
a cone's columns, is kept below as the oracle for the wall walk's integer
dual bases.  So is the first refinement check, which pushed the cones
through rational fundamental weights and reflected each chamber's rays
letter by letter, as the oracle for the integer one.  So is the first
compatibility test, which walked both alternation
starts of every pair for 2(h+2)+1 steps, as the oracle for the walk over
orbits of pairs.  So are the first cluster complex, which backtracked over
frozensets and took a determinant of every facet, and the first polytope,
which solved one linear system per vertex, as the oracles for the bitmask
backtracking and the wall walk with its integer pivots.  So is the first
convexity check, which paired every vertex with every almost-positive root,
as the oracle for the one inequality per wall.  So is the first wall walk,
which kept each dual basis as n*n signed bytes through `struct` and pivoted
it with n dot products over lists, as the oracle for the walk on packed
ints."""

import json
import math
import operator
import random
import struct
import subprocess
import sys
from array import array
from bisect import bisect
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfan import assoc, linalg
from clusterfan.assoc import (
    AssocCheckFailed,
    almost_positive,
    build_polytope,
    cluster_complex,
    compatibility,
    fan_checks,
    n_phi,
    narayana,
    polytope_json,
    polytope_off,
    refinement_check,
    support_function,
    tau_orbits,
    tau_order,
    wall_pairing,
)
from clusterfan.coxeter import build_group
from clusterfan.linalg import det, solve_linear
from clusterfan.packing import layout
from clusterfan.roots import NotIrreducible, root_system


def complex_for(name):
    rs = root_system(name)
    return cluster_complex(compatibility(almost_positive(rs)))


def test_almost_positive_ordering():
    rs = root_system("B2")
    ap = almost_positive(rs)
    assert len(ap.indices) == rs.num_positive + rs.n
    # negated simples first, in simple order, then the positives
    for i in range(rs.n):
        assert ap.negative_simple(ap.indices[i]) == i
    for idx in ap.indices[rs.n :]:
        assert rs.is_positive(idx)


def test_tau_involutions():
    for name in ("A3", "B3", "G2"):
        ap = almost_positive(root_system(name))
        for sign in (1, -1):
            for idx in ap.indices:
                assert ap.tau(sign, ap.tau(sign, idx)) == idx


def test_tau_fixes_opposite_part_negated_simples():
    rs = root_system("A2")
    ap = almost_positive(rs)
    plus, minus = ap.rs.diagram.parts
    for i in minus:
        assert ap.tau(1, rs.negate(rs.simple_index[i])) == rs.negate(rs.simple_index[i])
    for i in plus:
        assert ap.tau(-1, rs.negate(rs.simple_index[i])) == rs.negate(rs.simple_index[i])


def test_a2_alternation_walks_the_pentagon():
    rs = root_system("A2")
    ap = almost_positive(rs)
    # -a1 -> a1 -> a1+a2 -> a2 -> -a2 under alternating applications
    walk = [rs.index[(-1, 0)]]
    for sign in (1, -1, 1, -1):
        walk.append(ap.tau(sign, walk[-1]))
    coords = [rs.roots[idx].coords for idx in walk]
    assert coords == [(-1, 0), (1, 0), (1, 1), (0, 1), (0, -1)]


TAU_ORDERS = {
    "A1": 2, "A2": 5, "A3": 6, "A4": 7,
    "B2": 3, "B3": 4, "C3": 4, "D4": 4, "G2": 4,
}


@pytest.mark.parametrize("name,order", sorted(TAU_ORDERS.items()))
def test_tau_product_order(name, order):
    rs = root_system(name)
    ap = almost_positive(rs)
    assert tau_order(ap) == order


def test_every_orbit_meets_negated_simples():
    for name in ("A4", "B3", "D4", "F4"):
        rs = root_system(name)
        ap = almost_positive(rs)
        negatives = {rs.negate(rs.simple_index[i]) for i in range(rs.n)}
        for orbit in tau_orbits(ap):
            assert negatives & set(orbit)


def test_compatibility_symmetric_and_reflexive_free():
    rs = root_system("B2")
    rel = compatibility(almost_positive(rs))
    for a in rel.ap.indices:
        assert not rel.compatible(a, a)
        for b in rel.ap.indices:
            assert rel.compatible(a, b) == rel.compatible(b, a)


def test_negated_simples_pairwise_compatible():
    rs = root_system("D4")
    rel = compatibility(almost_positive(rs))
    negatives = [rs.negate(rs.simple_index[i]) for i in range(rs.n)]
    for i, a in enumerate(negatives):
        for b in negatives[i + 1 :]:
            assert rel.compatible(a, b)


def decide_pairs(ap):
    """Compatible position pairs, each decided on its own by alternating the
    involutions from both starts and reading the support rule wherever a
    member is a negated simple root."""
    rs = ap.rs
    cap = 2 * (2 * rs.num_positive // rs.n + 2)

    def support_verdicts(a, b):
        out = []
        for x, y in ((a, b), (b, a)):
            i = ap.negative_simple(x)
            if i is not None:
                out.append(rs.roots[y].coords[i] == 0)
        return out

    def decide(a, b):
        verdicts = []
        for first in (1, -1):
            x, y = a, b
            sign = first
            for _ in range(cap + 1):
                verdicts.extend(support_verdicts(x, y))
                x, y = ap.tau(sign, x), ap.tau(sign, y)
                sign = -sign
            assert verdicts, (a, b)
        assert all(v == verdicts[0] for v in verdicts), (a, b)
        return verdicts[0]

    return {
        (p, q)
        for p in range(len(ap.indices))
        for q in range(p + 1, len(ap.indices))
        if decide(ap.indices[p], ap.indices[q])
    }


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
     "D4", "D5", "G2", "F4", "E6", "E7", "E8", "A2+B2", "A1+A1+A1"],
)
def test_compatibility_orbits_match_per_pair_walk(name):
    ap = almost_positive(root_system(name))
    assert compatibility(ap).pairs == decide_pairs(ap)


FACET_COUNTS = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42,
    "B2": 6, "B3": 20, "C3": 20, "D4": 50, "F4": 105, "G2": 8,
}


@pytest.mark.parametrize("name,count", sorted(FACET_COUNTS.items()))
def test_facet_counts_match_closed_form(name, count):
    data = complex_for(name)
    assert len(data.facets) == count
    assert n_phi(root_system(name)) == count


def test_f_and_h_vectors():
    a3 = complex_for("A3")
    assert a3.f_vector == (1, 9, 21, 14)
    assert a3.h_vector == (1, 6, 6, 1)
    b3 = complex_for("B3")
    assert b3.f_vector == (1, 12, 30, 20)
    assert b3.h_vector == (1, 9, 9, 1)


def test_h_vector_equals_narayana():
    for name in ("A2", "A3", "A4", "B2", "B3", "D4", "G2"):
        data = complex_for(name)
        assert data.h_vector == narayana(root_system(name))


@pytest.mark.parametrize("name", ["A1+A1", "A2+B2"])
def test_narayana_refuses_a_reducible_system(name):
    with pytest.raises(NotIrreducible) as info:
        narayana(root_system(name))
    assert str(info.value) == f"narayana needs an irreducible system, got {name}"
    assert isinstance(info.value, ValueError)


def test_facets_unimodular():
    for name in ("A3", "B3", "G2"):
        rs = root_system(name)
        data = complex_for(name)
        for facet in data.facets:
            rows = [list(rs.roots[idx].coords) for idx in facet]
            assert abs(det(rows)) == 1


def oracle_complex(rel):
    """Facets in lexicographic position order, by backtracking over frozensets
    of compatible positions, each facet checked by its determinant; and the
    f-vector counted on the way."""
    ap = rel.ap
    n, count = ap.n, len(ap.indices)
    neighbors = [
        frozenset(q for q in range(count) if (min(p, q), max(p, q)) in rel.pairs)
        for p in range(count)
    ]
    sizes = [1] + [0] * n
    facets = []

    def grow(current, greater):
        if len(current) == n:
            facets.append(tuple(ap.indices[p] for p in current))
            return
        for p in sorted(greater):
            sizes[len(current) + 1] += 1
            grow(current + [p], frozenset(q for q in greater if q > p and q in neighbors[p]))

    grow([], frozenset(range(count)))
    for facet in facets:
        assert abs(det([ap.rs.roots[idx].coords for idx in facet])) == 1, facet
    return tuple(facets), tuple(sizes)


def oracle_h_vector(f_vector):
    """h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_(i-1)."""
    n = len(f_vector) - 1
    return tuple(
        sum((-1) ** (k - i) * math.comb(n - i, k - i) * f_vector[i] for i in range(k + 1))
        for k in range(n + 1)
    )


def assert_strictly_inside(poly):
    """The global check the per-wall one replaced: every vertex pairs with
    every root outside its cluster strictly below that root's support
    value.  Vertices and support values are scaled once by their common
    denominator, so every pairing is an integer dot product."""
    indices = poly.ap.indices
    support = [poly.support(idx) for idx in indices]
    values = {x for vertex in poly.vertices for x in vertex}
    scale = math.lcm(*(x.denominator for x in support), *(x.denominator for x in values))
    scaled = {x: int(x * scale) for x in values}
    bounds = [int(b * scale) for b in support]
    coords = [poly.ap.rs.roots[idx].coords for idx in indices]
    for facet, vertex in zip(poly.facets, poly.vertices):
        point = [scaled[x] for x in vertex]
        for idx, root, bound in zip(indices, coords, bounds):
            if idx not in facet:
                assert sum(map(operator.mul, root, point)) < bound, (facet, idx)


def oracle_vertices(data):
    """One linear system per cluster: its roots paired with the vertex give
    their support values."""
    rs = data.ap.rs
    support = support_function(data.ap)
    return tuple(
        tuple(
            solve_linear(
                [list(rs.roots[idx].coords) for idx in facet], [support(idx) for idx in facet]
            )
        )
        for facet in data.facets
    )


WALK_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "D6", "F4", "G2", "E6", "E7", "A1+A2", "B2+G2", "A1+A1+A1",
]


@pytest.mark.parametrize("name", WALK_TYPES)
def test_wall_walk_matches_determinant_and_solve_oracles(name):
    rel = compatibility(almost_positive(root_system(name)))
    data = cluster_complex(rel)
    facets, f_vector = oracle_complex(rel)
    assert data.facets == facets
    assert data.f_vector == f_vector
    assert data.h_vector == oracle_h_vector(f_vector)
    poly = build_polytope(data)
    assert poly.vertices == oracle_vertices(data)
    assert_strictly_inside(poly)


def oracle_lex_negatives(columns):
    """How many columns have a negative first nonzero entry."""
    zero = (0,) * len(columns[0])
    if zero in columns:
        raise AssocCheckFailed("a dual basis vector is zero")
    return sum(map(zero.__gt__, columns))


def oracle_pivot(columns, j, gamma):
    """D'_j = -D_j and D'_k = D_k + (gamma . D_k) D_j, over lists."""
    leaving = columns[j]
    out = []
    for k, column in enumerate(columns):
        if k == j:
            out.append([-x for x in leaving])
            continue
        c = sum(map(operator.mul, gamma, column))
        out.append([x + c * y for x, y in zip(column, leaving)] if c else column)
    return out


def oracle_walk(ap, masks, facets):
    """The first wall walk: the same breadth-first order and checks, each
    dual basis kept as n*n signed bytes, column by column, and each pivot
    made over lists.  `struct` refuses an entry a byte cannot hold."""
    n, top = ap.n, len(ap.indices) - 1
    size = n * n
    bytes_ = struct.Struct(f"{size}b")
    coords = [ap.rs.roots[idx].coords for idx in ap.indices]
    position = ap.position
    keys = [sum(1 << (top - position[idx]) for idx in facet) for facet in facets]
    index = {key: i for i, key in enumerate(keys)}
    everything = (2 << top) - 1
    duals = array("b", [0]) * (len(keys) * size)
    bytes_.pack_into(duals, 0, *[-int(i == k) for k in range(n) for i in range(n)])
    entering = array("H", [0]) * (len(keys) * n)
    rising = [0] * (n + 1)
    seen = bytearray(len(keys))
    seen[0] = 1
    queue = deque([0])
    while queue:
        i = queue.popleft()
        key = keys[i]
        flat = bytes_.unpack_from(duals, i * size)
        columns = [flat[k : k + n] for k in range(0, size, n)]
        rising[oracle_lex_negatives(columns)] += 1
        positions = [position[idx] for idx in facets[i]]
        for j, p in enumerate(positions):
            common = everything ^ key
            for other in positions:
                if other != p:
                    common &= masks[other]
            assert common and not common & (common - 1)
            q = top - (common.bit_length() - 1)
            entering[i * n + j] = q
            assert sum(map(operator.mul, coords[q], columns[j])) == -1
            target = index[key ^ (1 << (top - p)) | common]
            if seen[target]:
                continue
            seen[target] = 1
            new_columns = oracle_pivot(columns, j, coords[q])
            new_columns.insert(bisect(positions, q) - (q > p), new_columns.pop(j))
            bytes_.pack_into(
                duals, target * size, *[x for column in new_columns for x in column]
            )
            queue.append(target)
    assert all(seen)
    return duals, entering, rising


@pytest.mark.parametrize("name", WALK_TYPES + ["E8", "A1+A1+A1+A1+A1"])
def test_packed_walk_matches_list_walk(name):
    rel = compatibility(almost_positive(root_system(name)))
    data = cluster_complex(rel)
    n = rel.ap.n
    duals, entering, rising = oracle_walk(rel.ap, data.masks, data.facets)
    walked = assoc._walk(rel.ap, data.masks, len(data.facets))
    assert walked[0] == data.facets and walked[2:] == (entering, rising)
    assert data.entering == entering
    flat = duals.tolist()
    for i in range(len(data.facets)):
        expected = [flat[(i * n + k) * n : (i * n + k + 1) * n] for k in range(n)]
        assert data.dual_basis(i) == expected, i


@pytest.mark.parametrize("name", WALK_TYPES)
def test_every_wall_is_crossed_back(name):
    # no oracle: across the wall opposite slot j of facet i, p leaves and q
    # enters; the facet reached must be listed, and across its wall opposite
    # q, p must enter again
    data = complex_for(name)
    ap, n = data.ap, data.ap.n
    index = {facet: i for i, facet in enumerate(data.facets)}
    for i, facet in enumerate(data.facets):
        positions = [ap.position[idx] for idx in facet]
        for j, p in enumerate(positions):
            q = data.entering[i * n + j]
            far = sorted(positions[:j] + positions[j + 1 :] + [q])
            t = index[tuple(ap.indices[x] for x in far)]
            assert data.entering[t * n + far.index(q)] == p, (name, i, j)


def test_walk_refuses_pairings_its_fields_cannot_hold(monkeypatch):
    # six copies of E8: 48 * 128 * 6 >= 2^15, so a field of D G_gamma could
    # leave its 16 bits; Cat(W) = 25,080^6 is far over the budget, which is
    # lifted here to reach the walk
    monkeypatch.setattr(assoc, "FACET_BUDGET", math.inf)
    ap = almost_positive(root_system("+".join(["E8"] * 6)))
    with pytest.raises(AssocCheckFailed, match="rank 48 with root coordinates up to 6"):
        assoc._walk(ap, [], 0)


def pack_columns(columns):
    """Column 0 most significant, entry 0 of each column first: 16-bit
    balanced fields, written out independently of the walk."""
    flat = [x for column in columns for x in column]
    return sum(x << (16 * (len(flat) - 1 - f)) for f, x in enumerate(flat))


def unpack_columns(dual, n):
    flat = layout(n * n).unpack(dual)
    return [list(flat[k : k + n]) for k in range(0, n * n, n)]


def assert_same_negatives(dual, columns, shape):
    try:
        negatives = oracle_lex_negatives([tuple(column) for column in columns])
    except AssocCheckFailed:
        with pytest.raises(AssocCheckFailed, match="a dual basis vector is zero"):
            assoc._lex_negatives(dual, shape)
    else:
        assert assoc._lex_negatives(dual, shape) == negatives


@st.composite
def pivots(draw):
    """A dual basis D over up to 15 simple roots with entries in
    [-128, 128), a root-sized gamma and a slot j with gamma . D_j = -1.
    gamma_i = +-1 at one i, and D_j[i] is solved for; D_j's other entries
    lie in [-1, 1], so that D_j[i] stays in range."""
    n = draw(st.integers(1, 15))
    bound = draw(st.sampled_from([1, 4, 32, 128]))
    entries = st.lists(st.integers(-bound, bound - 1), min_size=n, max_size=n)
    columns = draw(st.lists(entries, min_size=n, max_size=n))
    gamma = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    j, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    gamma[i] = draw(st.sampled_from([-1, 1]))
    leaving = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    leaving[i] = 0
    leaving[i] = -(1 + sum(map(operator.mul, gamma, leaving))) * gamma[i]
    columns[j] = leaving
    return columns, gamma, j


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(pivots())
def test_packed_pivot_and_move_match_list_pivot(case):
    columns, gamma, j = case
    n = len(columns)
    shape = assoc._DualLayout(n)
    dual = pack_columns(columns)
    assert unpack_columns(dual, n) == columns
    assert_same_negatives(dual, columns, shape)
    expected = oracle_pivot(columns, j, gamma)
    product = dual * shape.lift(gamma) + shape.bias
    if not all(-128 <= x < 128 for column in expected for x in column):
        with pytest.raises(AssocCheckFailed, match=r"outside \[-128, 128\)"):
            assoc._pivot(dual, j, product, shape)
        return
    pivoted = assoc._pivot(dual, j, product, shape)
    assert unpack_columns(pivoted, n) == [list(column) for column in expected]
    # every slot pair: the column at a moves to b, the ones between shift
    for a in range(n):
        for b in range(n):
            moved = [list(column) for column in expected]
            moved.insert(b, moved.pop(a))
            assert unpack_columns(assoc._move(pivoted, a, b, shape), n) == moved
    assert_same_negatives(pivoted, expected, shape)


OUT_OF_RANGE = """
from clusterfan import assoc
from clusterfan.packing import layout
shape = assoc._DualLayout(2)
# D_0 = (0, -1) and gamma = (2, 1) give gamma . D_0 = -1 and
# D'_1 = (x, y - c_1) with c_1 = 2x + y: (64, 0) reaches -128 and is kept,
# (100, 0) reaches -200 after the multiply-add, and (127, 127) has
# c_1 = 381, refused before it
for column in ((64, 0), (100, 0), (127, 127)):
    dual = sum(x << (16 * (3 - f)) for f, x in enumerate((0, -1) + column))
    product = dual * shape.lift((2, 1)) + shape.bias
    try:
        print("kept", layout(4).unpack(assoc._pivot(dual, 0, product, shape)))
    except assoc.AssocCheckFailed as exc:
        print("FAIL", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_out_of_range_dual_entry_is_refused(flags):
    # the byte bound is an explicit check, not an assert or a struct.error
    command = [sys.executable, *flags, "-c", OUT_OF_RANGE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "kept (0, 1, 64, -128)",
        "FAIL a dual basis entry is outside [-128, 128)",
        "FAIL a dual basis entry is outside [-128, 128)",
    ], result.stderr


def test_polytope_and_refinement_read_the_one_walk(monkeypatch):
    data = complex_for("B3")
    group = build_group(data.ap.rs)

    def refuse(*args, **kwargs):
        raise RuntimeError("the wall walk ran again")

    monkeypatch.setattr(assoc, "_walk", refuse)
    with pytest.raises(RuntimeError):
        assoc._walk(data.ap, data.masks, len(data.facets))
    assert build_polytope(data).vertices == oracle_vertices(data)
    assert refinement_check(data, group) == oracle_refinement(data, group)


def test_e8_complex_matches_narayana():
    rs = root_system("E8")
    data = cluster_complex(compatibility(almost_positive(rs)))
    assert len(data.facets) == n_phi(rs) == 25080
    assert data.h_vector == narayana(rs)


def test_assoc_needs_no_determinant_or_solve(monkeypatch):
    # the root system checks its Cartan matrix by determinants, so it is
    # built before they are refused
    rel = compatibility(almost_positive(root_system("E6")))

    def refuse(*args, **kwargs):
        raise RuntimeError("the associahedron layer called a determinant or a solve")

    for module in (linalg, assoc):
        for name in ("det", "solve_linear"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    with pytest.raises(RuntimeError):
        linalg.det([[1]])
    data = cluster_complex(rel)
    poly = build_polytope(data)
    assert len(data.facets) == len(poly.vertices) == 833


def test_support_function_constants():
    rs = root_system("A3")
    ap = almost_positive(rs)
    support = support_function(ap)
    values = tuple(support(rs.negate(rs.simple_index[i])) for i in range(3))
    assert values == (Fraction(3, 2), Fraction(2), Fraction(3, 2))

    rs = root_system("C3")
    ap = almost_positive(rs)
    support = support_function(ap)
    values = tuple(support(rs.negate(rs.simple_index[i])) for i in range(3))
    assert values == (Fraction(5, 2), Fraction(4), Fraction(9, 2))


def test_a2_polytope_is_the_pentagon():
    rs = root_system("A2")
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    assert sorted(poly.vertices) == [
        (Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
    ]


@pytest.mark.parametrize("name,vertices", [("A3", 14), ("B3", 20), ("C3", 20)])
def test_polytope_vertex_counts(name, vertices):
    rs = root_system(name)
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    assert len(poly.vertices) == vertices
    assert len(set(poly.vertices)) == vertices


def test_polytope_simple_three_edges_per_vertex():
    rs = root_system("A3")
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    degree = {v: 0 for v in range(len(poly.vertices))}
    for a, b in poly.edges():
        degree[a] += 1
        degree[b] += 1
    assert set(degree.values()) == {3}


def test_wall_pairing():
    for name in ("A3", "B3", "G2"):
        report = wall_pairing(complex_for(name))
        assert report["all_paired"]
        assert not report["violations"]


def test_wall_counts():
    assert wall_pairing(complex_for("A2"))["walls"] == 5
    assert wall_pairing(complex_for("A3"))["walls"] == 21


def fraction_cone_solver(columns):
    n = len(columns)
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    inverse_cols = [
        solve_linear(matrix, [1 if i == k else 0 for i in range(n)]) for k in range(n)
    ]

    def solve(vector):
        return tuple(sum(inverse_cols[k][j] * vector[k] for k in range(n)) for j in range(n))

    return solve


def signs(values):
    return tuple((v > 0) - (v < 0) for v in values)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3"])
def test_cone_solver_signs_match_fraction_oracle(name):
    # the cone solver is the wall walk's dual basis: a vector's coefficients
    # over a cluster are its pairings with the dual basis vectors
    data = complex_for(name)
    roots = data.ap.rs.roots
    n = data.ap.n
    rng = random.Random(7)
    checked = 0
    for i, facet in enumerate(data.facets):
        dual = data.dual_basis(i)
        # each column also gets a random positive rational scale: the cone
        # stays the same and so must every sign
        scales = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in facet]
        columns = [
            [c * scale for c in roots[idx].coords] for idx, scale in zip(facet, scales)
        ]
        exact = fraction_cone_solver([roots[idx].coords for idx in facet])
        oracle = fraction_cone_solver(columns)
        for _ in range(20):
            vector = [rng.randint(-9, 9) for _ in range(n)]
            coefficients = tuple(sum(x * d for x, d in zip(vector, col)) for col in dual)
            assert coefficients == exact(vector)
            assert signs(coefficients) == signs(oracle(vector))
            checked += 1
    assert checked == 20 * len(data.facets)


def oracle_refinement(data, group):
    """Every cluster cone pushed through alpha_i -> sigma_i omega_i over
    Fractions, in simple-root coordinates, and each chamber's rays found by
    reflecting the fundamental weights along a reduced word."""
    ap = data.ap
    rs, n = ap.rs, ap.n
    plus, _ = ap.rs.diagram.parts
    weights = [solve_linear(rs.cartan, [int(j == i) for j in range(n)]) for i in range(n)]

    def push(coords):
        return [
            sum((1 if i in plus else -1) * coords[i] * weights[i][j] for i in range(n))
            for j in range(n)
        ]

    def reflect(i, vector):
        out = list(vector)
        out[i] = vector[i] - sum(rs.cartan[i][j] * vector[j] for j in range(n))
        return out

    solvers = [
        fraction_cone_solver([push(rs.roots[idx].coords) for idx in facet])
        for facet in data.facets
    ]
    members = {}
    per_cone = {}
    for w in range(len(group)):
        common = set(range(len(solvers)))
        for weight in weights:
            ray = weight
            for i in reversed(group.reduced_word(w)):
                ray = reflect(i, ray)
            key = tuple(ray)
            if key not in members:
                members[key] = {
                    c for c, solve in enumerate(solvers) if all(x >= 0 for x in solve(ray))
                }
            common &= members[key]
        if len(common) != 1:
            raise AssocCheckFailed(f"chamber {w} lies in cones {common}")
        home = common.pop()
        per_cone[home] = per_cone.get(home, 0) + 1
    return {
        "cones_used": len(per_cone),
        "cones_total": len(data.facets),
        "regions": len(group),
        "max_regions_in_cone": max(per_cone.values()),
        "regions_per_cone": dict(sorted(per_cone.items())),
    }


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
     "A1+A2", "B2+G2"],
)
def test_refinement_matches_fraction_oracle(name):
    data = complex_for(name)
    group = build_group(data.ap.rs)
    assert refinement_check(data, group) == oracle_refinement(data, group)


def test_refinement_by_coxeter_fan():
    for name in ("A2", "B2", "A3", "G2"):
        rs = root_system(name)
        group = build_group(rs)
        report = refinement_check(complex_for(name), group)
        assert report["regions"] == len(group)
        assert report["cones_used"] == report["cones_total"]


def test_fan_checks_bundle():
    rs = root_system("A2")
    group = build_group(rs)
    report = fan_checks(complex_for("A2"), group)
    assert list(report) == ["wall_pairing", "refinement"]
    assert report["wall_pairing"]["all_paired"]
    assert report["refinement"]["regions"] == 6


def test_polytope_json_structure():
    rs = root_system("A2")
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    payload = json.loads(polytope_json(poly))
    assert len(payload["facets"]) == 5
    assert len(payload["vertices"]) == 5
    assert all(len(cluster) == 2 for cluster in payload["incidence"])


def test_polytope_off_header():
    rs = root_system("A3")
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    text = polytope_off(poly)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "14 9 21"
    assert len(lines) == 2 + 14 + 9


def test_polytope_off_rejects_wrong_rank():
    rs = root_system("A2")
    ap = almost_positive(rs)
    data = cluster_complex(compatibility(ap))
    poly = build_polytope(data)
    with pytest.raises(ValueError):
        polytope_off(poly)


ASSOC_CHECKS = """
import dataclasses, sys
from clusterfan import assoc
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
ap = assoc.almost_positive(root_system("A2"))
rel = assoc.compatibility(ap)
# a tau that moves every root one place along the almost-positive order
# no longer preserves compatibility, so the verdicts along a pair's orbit
# disagree
tau = assoc.AlmostPositive.tau
def shifted(self, sign, idx):
    position = (self.position[tau(self, sign, idx)] + 1) % len(self.indices)
    return self.indices[position]
assoc.AlmostPositive.tau = shifted
try:
    assoc.compatibility(ap)
except assoc.AssocCheckFailed as exc:
    print("FAIL", str(exc).split(" [")[0])
assoc.AlmostPositive.tau = tau
# dropping every pair of -alpha_1 leaves it a maximal face of size 1: on
# A2 a ridge, checked where the ridges are counted; on A3 a face below the
# ridges, checked where it is visited
rel3 = assoc.compatibility(assoc.almost_positive(root_system("A3")))
for relation in (rel, rel3):
    pairs = frozenset(pair for pair in relation.pairs if 0 not in pair)
    try:
        assoc.cluster_complex(dataclasses.replace(relation, pairs=pairs))
    except assoc.AssocCheckFailed as exc:
        print("FAIL", exc)
# one extra pair, -alpha_2 with the highest root, puts a chord into the
# pentagon: the complex stays pure, but -alpha_2 lies in three clusters
pairs = rel.pairs | {(1, 4)}
try:
    assoc.cluster_complex(dataclasses.replace(rel, pairs=pairs))
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
# the pair of the two negated simple roots dropped: the complex stays pure,
# a path of four edges, but the walk has no cluster to start from
try:
    assoc.cluster_complex(dataclasses.replace(rel, pairs=rel.pairs - {(0, 1)}))
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
# a pivot that keeps the leaving root's dual vector instead of negating it:
# twice the leaving column added back at its own slot
pivot = assoc._pivot
def unsigned(dual, j, product, shape):
    out = pivot(dual, j, product, shape)
    return out + (2 * shape.column(dual, j) << shape.offsets[j])
assoc._pivot = unsigned
try:
    assoc.cluster_complex(rel)
except assoc.NonUnimodularCluster as exc:
    print("FAIL NonUnimodularCluster", exc)
assoc._pivot = pivot
data = assoc.cluster_complex(rel)
count = len(data.facets)
# one facet more than the face count: the walk reaches one fewer
try:
    assoc._walk(ap, data.masks, count + 1)
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
# half the face count: the walk numbers more facets than that
try:
    assoc._walk(ap, data.masks, count // 2)
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
# a sign rule that calls every column negative puts every cone in the
# last bin of the h-vector count
negatives = assoc._lex_negatives
assoc._lex_negatives = lambda dual, shape: shape.n
try:
    assoc.cluster_complex(rel)
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
assoc._lex_negatives = negatives
# a support value doubled at alpha_2 (index 0) moves the vertex of a cluster
# without alpha_2 onto the hyperplane of root 2
support = assoc.support_function
def doubled(ap):
    function = support(ap)
    values = dict(function.values)
    values[0] *= 2
    return dataclasses.replace(function, values=values)
assoc.support_function = doubled
try:
    assoc.build_polytope(data)
except assoc.InequalityViolation as exc:
    print("FAIL InequalityViolation", exc)
# a support value of 0 at alpha_1 + alpha_2 puts two pairs of adjacent
# vertices on one point, so two walls meet their wall-crossing inequality
# with equality and none is violated: the check must be strict
def tight(ap):
    function = support(ap)
    values = dict(function.values)
    values[ap.rs.index[(1, 1)]] = 0
    return dataclasses.replace(function, values=values)
assoc.support_function = tight
try:
    assoc.build_polytope(data)
except assoc.InequalityViolation as exc:
    print("FAIL InequalityViolation", exc)
assoc.support_function = support
# the lowest node of the plus part moved to the minus part: the pushed cones
# no longer hold the chambers
from clusterfan.coxeter import build_group
group = build_group(ap.rs)
plus, minus = ap.rs.diagram.parts
ap.rs.diagram.parts = (plus - {min(plus)}, minus | {min(plus)})
try:
    assoc.refinement_check(data, group)
except assoc.AssocCheckFailed as exc:
    print("FAIL", exc)
"""


def test_assoc_checks_fail_without_asserts():
    # python -O strips assert statements; the verdict-agreement, purity,
    # wall, start, pivot, reach, face-count, h-vector, strict-inequality
    # (violated and tight) and refinement checks must not be asserts
    command = [sys.executable, "-O", "-c", ASSOC_CHECKS]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL pair 4,3 got disagreeing verdicts",
        "FAIL maximal face of size 1 < 2: not pure",
        "FAIL maximal face of size 1 < 3: not pure",
        "FAIL wall (3,) lies in 3 clusters, not 2",
        "FAIL the negated simple roots are not pairwise compatible",
        "FAIL NonUnimodularCluster root 0 enters facet (1, 2) at slot 0"
        " with coefficient 1, not -1",
        "FAIL the wall walk reached 5 of 6 facets",
        "FAIL the wall walk found more than 2 facets",
        "FAIL a generic vector meets the cones with h-vector (0, 0, 5),"
        " the f-vector gives (1, 3, 1)",
        "FAIL InequalityViolation vertex of (4, 0) pairs to 1 against root 2",
        "FAIL InequalityViolation vertex of (4, 0) pairs to 0 against root 2",
        "FAIL chamber 5 lies in cones set()",
    ], result.stderr
