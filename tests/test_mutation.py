"""Seed mutation: rank-2 chains, Laurentness, finite-type detection, and
the exchange-graph walk on packed g-vectors.

The oracle for that walk (`tropical_mutate`, `g_key`, `oracle_walk`)
mutates the whole tropical data of every seed in every direction and knows
a seed by its sorted g-vectors together with its matrix permuted the same
way, so it does not rest on a cluster determining its seed.  The denominator
map (`denominator_root`) is the algebra's own oracle for the cluster
complex: its clusters, read as root sets, are the complex's facets."""

import json
import random
import subprocess
import sys
import time
from itertools import permutations, product

import pytest

from clusterfan import cli, mutation, wiring

from clusterfan.assoc import almost_positive, cluster_complex, compatibility
from clusterfan.cartan import (
    Diagram,
    NotCartanShape,
    NotSkewSymmetrizable,
    NotSymmetrizable,
    b_matrix,
    cartan_for_type,
    classify,
    dynkin_name,
    skew_symmetrizer,
    validate_finite_type,
)
from clusterfan.coxeter import BudgetExceeded
from clusterfan.laurent import LaurentPoly
from clusterfan.linalg import matrix_rank
from clusterfan.mutation import (
    ExchangeMatrix,
    Inconclusive,
    MutationBudgetExceeded,
    MutationGraph,
    NotFiniteType,
    NotFullRank,
    Seed,
    alternating_chain,
    canonical_key,
    detect_finite_type,
    exchange_counts,
    explore,
    graph_to_dict,
    graph_to_dot,
    initial_seed,
    _cartan_companion,
    _units,
    c_vector_sign,
    matrix_mutate,
    observe_positivity,
    seed_mutate,
    seed_to_dict,
)
from clusterfan.packing import LIMIT, ExponentOverflow, layout
from clusterfan.roots import catalan_number, root_system
from clusterfan.verify import QUICK_TYPES

from test_cli import path_rows
from test_laurent import parse_laurent


def test_matrix_mutation_is_involutive():
    rows = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    for k in range(3):
        assert matrix_mutate(matrix_mutate(rows, k), k) == rows


def entrywise_mutate(rows, k):
    """Matrix mutation entry by entry, the rule as stated."""
    out = []
    for i in range(len(rows)):
        row = []
        for j in range(len(rows[0])):
            b = rows[i][j]
            if i == k or j == k:
                row.append(-b)
            elif rows[i][k] * rows[k][j] > 0:
                row.append(b + abs(rows[i][k]) * rows[k][j])
            else:
                row.append(b)
        out.append(tuple(row))
    return tuple(out)


def random_extended_matrix(rng):
    """A random skew-symmetrizable n x n block, d_i b_ij = -d_j b_ji, over
    0-3 random frozen rows; zeros are common so that rows are skipped."""
    n = rng.randint(1, 6)
    d = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.choice((0, 0, 0, 1, -1, 2, -2))
            rows[i][j], rows[j][i] = c * d[j], -c * d[i]
    rows += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    return tuple(tuple(row) for row in rows)


def test_matrix_mutation_matches_entrywise_rule():
    rng = random.Random(500)
    for _ in range(500):
        rows = random_extended_matrix(rng)
        for k in range(len(rows[0])):
            image = matrix_mutate(rows, k)
            assert image == entrywise_mutate(rows, k), (rows, k)
            # rows with b_ik = 0 are the same objects
            for i, row in enumerate(rows):
                if i != k and row[k] == 0:
                    assert image[i] is row
    assert matrix_mutate([[0, 1], [-1, 0]], 0) == ((0, -1), (1, 0))


def test_mutated_matrices_pass_full_validation():
    # mutate and explore build their matrices unchecked: mutation keeps a
    # skew-symmetrizer and the rank of the extended matrix
    rng = random.Random(77)
    for _ in range(400):
        rows = random_extended_matrix(rng)
        try:
            matrix = ExchangeMatrix(rows, len(rows[0]))
        except NotFullRank:
            continue
        current = matrix
        for _ in range(4):
            for k in range(matrix.n):
                image = current.mutate(k)
                assert ExchangeMatrix(image.rows, matrix.n) == image, (current, k)
            current = current.mutate(rng.randrange(matrix.n))


def test_explored_seed_matrices_pass_full_validation():
    rng = random.Random(78)
    seeds = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = random_exchange_matrix(rng, n)
        rows += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        try:
            matrix = ExchangeMatrix(rows, n)
        except NotFullRank:
            continue
        names = [f"x{i}" for i in range(n)]
        frozen = [f"y{i}" for i in range(matrix.m - n)]
        seed = initial_seed(matrix.rows, names, frozen)
        try:
            record = explore(seed, budget=40)
        except (MutationBudgetExceeded, NotFiniteType) as stopped:
            record = stopped.partial
        for child in record.seeds:
            assert ExchangeMatrix(child.matrix.rows, n) == child.matrix, matrix
        seeds += len(record.seeds)
    assert seeds > 500, seeds


def test_exchange_matrix_rejects_dependent_columns():
    with pytest.raises(NotFullRank):
        ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0), (1, 0, -1)), 3)


def test_exchange_matrix_rejects_non_skew_symmetrizable():
    with pytest.raises(ValueError):
        ExchangeMatrix(((0, 1), (1, 0)), 2)
    with pytest.raises(ValueError):
        ExchangeMatrix(((1, 0), (0, 1)), 2)


def test_exchange_matrix_rejects_fractional_entries():
    with pytest.raises(NotSkewSymmetrizable, match="1.9 is not an integer"):
        ExchangeMatrix(((0, 1.9), (-1, 0)), 2)
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeMatrix(((0, 1), (-1, 0), (0.5, 1)), 2)
    # integral floats are still integers
    assert ExchangeMatrix(((0, 1.0), (-1, 0)), 2).rows == ((0, 1), (-1, 0))


def test_seed_mutation_is_involutive():
    seed = initial_seed(b_matrix(cartan_for_type("A3")), ("x1", "x2", "x3"))
    for k in range(3):
        back = seed_mutate(seed_mutate(seed, k), k)
        assert canonical_key(back) == canonical_key(seed)


@pytest.mark.parametrize("name,period", [("A2", 5), ("B2", 6), ("G2", 8)])
def test_rank2_chain_periods(name, period):
    seeds, variables = alternating_chain(b_matrix(cartan_for_type(name)))
    assert len(seeds) == period
    assert len(variables) == period


def test_a2_chain_exact_variables():
    seeds, variables = alternating_chain(b_matrix(cartan_for_type("A2")))
    assert len(seeds) == 5
    texts = [v.fraction_text() for v in variables]
    assert texts == ["x", "y", "(y+1)/x", "(x+y+1)/(xy)", "(x+1)/y"]


def test_b2_exchange_recurrence_chain():
    # z_{m+1} z_{m-1} = z_m^c + 1 with c alternating 1, 2 closes with period 6
    x, y = LaurentPoly.ring(("x", "y"))
    one = LaurentPoly.one(("x", "y"))
    chain = [x, y]
    for m in range(1, 7):
        c = 1 if m % 2 else 2
        chain.append((chain[-1] ** c + one).exact_div(chain[-2]))
    assert chain[6] == chain[0]
    assert chain[7] == chain[1]
    expected = [
        (x, one),
        (y, one),
        (y + one, x),
        (x**2 + (y + one) ** 2, x**2 * y),
        (x**2 + y + one, x * y),
        (x**2 + one, y),
    ]
    for value, (numerator, denominator) in zip(chain[:6], expected):
        assert value * denominator == numerator


def test_chain_positivity():
    for name in ("A2", "B2", "G2"):
        _, variables = alternating_chain(b_matrix(cartan_for_type(name)))
        report = observe_positivity(variables)
        assert report["all_positive"]
        assert report["negative_examples"] == []


def test_explore_a3_exchange_graph():
    seed = initial_seed(b_matrix(cartan_for_type("A3")), ("x1", "x2", "x3"))
    graph = explore(seed)
    assert graph.closed
    assert len(graph.seeds) == 14
    assert len(graph.edges) == 21
    assert len(graph.cluster_variables()) == 9


def test_explore_b2():
    seed = initial_seed(b_matrix(cartan_for_type("B2")), ("x", "y"))
    graph = explore(seed)
    assert len(graph.seeds) == 6
    assert len(graph.cluster_variables()) == 6


def test_explore_budget():
    seed = initial_seed(b_matrix(cartan_for_type("A3")), ("x1", "x2", "x3"))
    with pytest.raises(MutationBudgetExceeded) as info:
        explore(seed, budget=3)
    assert info.value.partial is not None
    assert not info.value.partial.closed


def test_mutation_preserves_principal_rank():
    # the principal part stays skew-symmetric and the extended matrix keeps
    # full column rank (Cluster algebras III, Lemma 3.2)
    matrix = ExchangeMatrix(((0, 1), (-1, 0), (1, 0), (0, 1)), 2)
    current = matrix
    for k in (0, 1, 0, 1, 0):
        current = current.mutate(k)
        (a, b), (c, d) = current.rows[:2]
        assert (a, d, b + c) == (0, 0, 0) and b
        assert matrix_rank(current.rows) == 2


class NotAlmostPositive(ValueError):
    """A denominator vector is neither a positive root nor a negated simple."""


def denominator_root(variable, rs):
    """Index (in rs.roots) of the almost-positive root given by the
    denominator vector of a cluster variable with respect to the initial
    cluster (the first rs.n ambient variables)."""
    coords = tuple(-m for m in variable.min_exponents()[: rs.n])
    if all(c >= 0 for c in coords) and any(coords):
        idx = rs.index.get(coords)
        if idx is not None and rs.is_positive(idx):
            return idx
        raise NotAlmostPositive(f"denominator vector {coords} is not a positive root")
    negatives = [i for i, c in enumerate(coords) if c < 0]
    if len(negatives) == 1 and coords[negatives[0]] == -1 and sum(map(abs, coords)) == 1:
        return rs.negate(rs.simple_index[negatives[0]])
    raise NotAlmostPositive(f"denominator vector {coords} is not almost positive")


@pytest.mark.parametrize("name", QUICK_TYPES + ("E6",))
def test_denominator_vectors_biject_with_almost_positive_roots(name):
    # Fomin-Zelevinsky, Cluster algebras II, Thm 1.9: from the bipartite
    # seed, denominator vectors biject the cluster variables onto the almost
    # positive roots, and the clusters onto the facets of the cluster complex
    rs = root_system(name)
    names = tuple(f"x{i + 1}" for i in range(rs.n))
    graph = explore(initial_seed(b_matrix(rs.cartan), names))
    root_of = {v: denominator_root(v, rs) for v in graph.cluster_variables()}
    # every almost-positive root appears exactly once: the n negated simples
    # followed by all positive roots
    expected = sorted([rs.negate(rs.simple_index[i]) for i in range(rs.n)]
                      + list(range(rs.num_positive)))
    assert sorted(root_of.values()) == expected
    clusters = {tuple(sorted(root_of[v] for v in seed.cluster)) for seed in graph.seeds}
    assert len(clusters) == len(graph.seeds)
    facets = cluster_complex(compatibility(almost_positive(rs))).facets
    assert clusters == {tuple(sorted(facet)) for facet in facets}


def test_denominator_root_rejects_garbage():
    rs = root_system("A2")
    x, y = LaurentPoly.ring(("x", "y"))
    one = LaurentPoly.one(("x", "y"))
    with pytest.raises(NotAlmostPositive):
        denominator_root((one + y).exact_div(x * x), rs)


@pytest.mark.parametrize(
    "name", ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "A2+B2"]
)
def test_detect_finite_type_from_b_matrix(name):
    rows = b_matrix(cartan_for_type(name))
    dtype = detect_finite_type(rows)
    assert dtype is not None
    assert dynkin_name(dtype) == name


def test_detect_infinite_type_returns_none():
    # the Markov quiver mutates forever
    markov = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
    assert detect_finite_type(markov) is None


def test_detect_finite_type_gives_up_past_its_budget(monkeypatch):
    # A3's mutation class has 14 seeds; past 3 the walk has met no witness
    # of either kind, so detection is inconclusive
    monkeypatch.setattr(mutation, "DETECT_BUDGET", 3)
    with pytest.raises(Inconclusive, match="mutation class exceeded 3 seeds"):
        detect_finite_type(b_matrix(cartan_for_type("A3")))


def test_seed_roundtrip_through_dict():
    # the text of each variable parses back to it (`parse_laurent`, the
    # oracle of the text form)
    seed = initial_seed(((0, 1), (-1, 0), (1, 0)), ("x", "y"), ("c",))
    moved = seed_mutate(seed, 0)
    data = json.loads(json.dumps(seed_to_dict(moved)))
    assert (data["m"], data["n"], data["variables"]) == (3, 2, ["x", "y", "c"])

    def parse(texts):
        return tuple(parse_laurent(data["variables"], text) for text in texts)

    matrix = ExchangeMatrix(tuple(map(tuple, data["btilde"])), 2)
    back = Seed(matrix, parse(data["cluster"]), parse(data["frozen"]))
    assert canonical_key(back) == canonical_key(moved)
    assert back.cluster == moved.cluster
    assert back.frozen == moved.frozen


def test_graph_serialization():
    seed = initial_seed(b_matrix(cartan_for_type("A2")), ("x", "y"))
    graph = explore(seed)
    dot = graph_to_dot(graph)
    assert dot.startswith("graph")
    assert dot.count("--") == len(graph.edges)
    data = graph_to_dict(graph)
    assert data["closed"] is True
    assert len(data["seeds"]) == 5


def test_frozen_row_changes_variables():
    # one frozen coefficient row: mutation produces variables involving c
    btilde = ((0, 1), (-1, 0), (1, 0))
    seed = initial_seed(btilde, ("x", "y"), ("c",))
    moved = seed_mutate(seed, 0)
    x, y, c = LaurentPoly.ring(("x", "y", "c"))
    assert moved.cluster[0] * x == y + c


# -- g-vector exploration against the Laurent-keyed oracle ---------------------


def laurent_explore(seed, budget=10**5):
    """Reference BFS: every seed mutated in every direction in the Laurent
    ring, seeds identified by canonical_key."""
    record = MutationGraph([seed], [], {}, False)
    index = {canonical_key(seed): 0}
    for v in seed.cluster:
        record.variables.setdefault(v.text(), v)
    frontier = [0]
    while frontier:
        fresh = []
        for u in frontier:
            for k in range(seed.matrix.n):
                image = seed_mutate(record.seeds[u], k)
                v = index.setdefault(canonical_key(image), len(record.seeds))
                if v == len(record.seeds):
                    if v >= budget:
                        raise MutationBudgetExceeded("budget", partial=record)
                    record.seeds.append(image)
                    fresh.append(v)
                    for var in image.cluster:
                        record.variables.setdefault(var.text(), var)
                if u <= v:
                    record.edges.append((u, k, v))
        frontier = fresh
    record.closed = True
    return record


def graph_bytes(record):
    data = json.dumps(graph_to_dict(record), indent=2, sort_keys=True)
    return data, graph_to_dot(record), list(record.variables)


def exchange_rows(name, frozen="none"):
    """Bipartite exchange matrix of a type with no frozen rows ("none"),
    principal coefficients ("principal") or the given frozen rows."""
    rows = [list(r) for r in b_matrix(cartan_for_type(name))]
    n = len(rows)
    if frozen == "none":
        return rows
    if frozen == "principal":
        return rows + [[int(i == j) for j in range(n)] for i in range(n)]
    return rows + [list(r) for r in frozen]


def relabeled(rows, perm, sign):
    """Conjugate the top block by perm, move frozen columns along, negate."""
    n = len(perm)
    top = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    frozen = [[row[p] for p in perm] for row in rows[n:]]
    return [[sign * x for x in row] for row in top + frozen]


def seed_of(rows):
    n = len(rows[0])
    names = [f"x{i + 1}" for i in range(n)]
    return initial_seed(rows, names, [f"c{i + 1}" for i in range(len(rows) - n)])


# the Laurent oracle costs about 4 s for F4 and 2 s for D5 with principal
# coefficients; those two run coefficient-free only
ORACLE_CASES = [
    (name, frozen)
    for name in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
                 "D4", "D5", "G2", "F4")
    for frozen in ("none", "principal")
    if not (frozen == "principal" and name in ("D5", "F4"))
]


@pytest.mark.parametrize("name,frozen", ORACLE_CASES)
def test_explore_matches_laurent_oracle(name, frozen):
    seed = seed_of(exchange_rows(name, frozen))
    assert graph_bytes(explore(seed)) == graph_bytes(laurent_explore(seed))


RELABELED_CASES = [
    ("A3", [(1, 0, 2)], (2, 0, 1), -1),
    ("B3", [(0, -1, 1), (2, 0, 0)], (1, 2, 0), 1),
    ("C3", "principal", (2, 1, 0), -1),
    ("D4", [(1, -2, 0, 1), (0, 1, 0, -1)], (3, 1, 0, 2), -1),
    ("G2", [(-2, 1)], (1, 0), -1),
    ("A4", [(0, 1, -1, 2), (1, 0, 0, -1)], (2, 3, 1, 0), 1),
    ("B4", "none", (3, 0, 2, 1), -1),
]


@pytest.mark.parametrize("name,frozen,perm,sign", RELABELED_CASES)
def test_explore_matches_oracle_on_relabeled_inputs(name, frozen, perm, sign):
    seed = seed_of(relabeled(exchange_rows(name, frozen), perm, sign))
    assert graph_bytes(explore(seed)) == graph_bytes(laurent_explore(seed))


def refusals(seed, budget):
    """The partial records of explore and the Laurent oracle, both refused
    under `budget`."""
    with pytest.raises(MutationBudgetExceeded) as ours:
        explore(seed, budget=budget)
    with pytest.raises(MutationBudgetExceeded) as theirs:
        laurent_explore(seed, budget=budget)
    return ours.value.partial, theirs.value.partial


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 41])
def test_budget_partial_record_matches_oracle(budget):
    # Cat(A4) = 42 is read off the start seed, so every budget below it is
    # refused there; the partial record holds the seeds met so far, in the
    # order of the oracle's BFS
    ours, theirs = refusals(seed_of(exchange_rows("A4", "principal")), budget)
    assert not ours.closed
    seeds = [seed_to_dict(s) for s in ours.seeds]
    assert seeds == [seed_to_dict(s) for s in theirs.seeds[: len(seeds)]]
    assert ours.edges == theirs.edges[: len(ours.edges)]
    assert list(ours.variables) == list(theirs.variables)[: len(ours.variables)]


def gl3_seed():
    """The GL(3) seed of the double wiring diagrams: its counterpart is the
    affine 4-cycle, and the walk types its 7th seed (D4)."""
    graph = wiring.enumerate_classes(3)
    return wiring._seed_from_class(graph, graph.class_of(wiring.FOUR_MOVE_WORD))[0]


@pytest.mark.parametrize("budget", [1, 3, 6, 7])
def test_budget_partial_record_is_exact_until_the_type_is_read(budget):
    # below 7 the seed budget stops the walk before any seed is typed; at 7
    # the 7th seed is typed and Cat(D4) = 50 refuses it, as it is recorded
    ours, theirs = refusals(gl3_seed(), budget)
    assert len(ours.seeds) == budget
    assert graph_bytes(ours) == graph_bytes(theirs)


def test_e6_exchange_graph():
    seed = seed_of(exchange_rows("E6"))
    graph = explore(seed)
    assert (len(graph.seeds), len(graph.edges), len(graph.variables)) == (833, 2499, 42)


# -- the packed walk against the walk keyed by sorted g-vectors ---------------


def tropical_mutate(btilde, c_rows, gvectors, k):
    """Mutate the integer data of a seed in direction k.

    The C-matrix (given by rows; its columns are the c-vectors) mutates as
    the bottom block of the extended matrix stacked over it.  Only the k-th
    g-vector moves: g'_k = -g_k + sum_i [-eps_k b_ik]_+ g_i, where eps_k is
    the sign of the k-th c-vector (Nakanishi-Zelevinsky, Prop 1.3).
    Returns the new (extended matrix, C rows, g-vectors).
    """
    m = len(btilde)
    stacked = matrix_mutate(tuple(btilde) + tuple(c_rows), k)
    eps = c_vector_sign(c_rows, k)
    g = [-x for x in gvectors[k]]
    for i, gi in enumerate(gvectors):
        b = -eps * btilde[i][k]
        if b > 0:
            g = [a + b * x for a, x in zip(g, gi)]
    moved = list(gvectors)
    moved[k] = tuple(g)
    return stacked[:m], stacked[m:], tuple(moved)


def g_key(btilde, gvectors):
    """Seed key: sorted g-vectors with the top block of the matrix conjugated
    the same way; frozen rows keep their place, their columns move."""
    order = sorted(range(len(gvectors)), key=gvectors.__getitem__)
    top = tuple(tuple(btilde[i][j] for j in order) for i in order)
    frozen = tuple(tuple(row[j] for j in order) for row in btilde[len(order):])
    return tuple(gvectors[i] for i in order), top + frozen


def oracle_walk(rows):
    """BFS over the exchange graph of a finite type: every seed's tropical
    data mutated in every direction, seeds known by g_key and numbered in
    order of discovery.  Yields (u, k, v, image, new) per edge."""
    n = len(rows[0])
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    tropical = [(rows, identity, identity)]
    index = {g_key(rows, identity): 0}
    frontier = [0]
    while frontier:
        fresh = []
        for u in frontier:
            for k in range(n):
                image = tropical_mutate(*tropical[u], k)
                key = g_key(image[0], image[2])
                new = key not in index
                if new:
                    index[key] = len(tropical)
                    tropical.append(image)
                    fresh.append(index[key])
                yield u, k, index[key], image, new
        frontier = fresh


WALK_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6", "D4", "D5", "D6", "E6", "F4", "G2",
]


@pytest.mark.parametrize("name", WALK_TYPES)
@pytest.mark.parametrize("frozen", ["none", "principal"])
@pytest.mark.parametrize("relabel", [False, True])
def test_walk_matches_g_key_oracle(name, frozen, relabel):
    # the same edges in the same order, and the same data on every new seed
    rows = exchange_rows(name, frozen)
    n = len(rows[0])
    if relabel:
        perm = list(range(n))
        random.Random(f"{name} {frozen}").shuffle(perm)
        rows = relabeled(rows, perm, -1)
    rows = tuple(tuple(row) for row in rows)
    ours = [
        (u, k, v, new, image and (image[0], image[1], tuple(map(layout(n).unpack, image[2]))))
        for u, k, v, image, new in mutation._walk(rows, 10**5)
    ]
    theirs = [
        (u, k, v, new, image if new else None) for u, k, v, image, new in oracle_walk(rows)
    ]
    assert ours == theirs


def test_packing_is_faithful_up_to_the_width_check():
    # the extreme fields the bound check lets through pack one-to-one, and
    # the walk's packed units are the shared codec's
    top = LIMIT - 1
    vectors = [(top, -top, 0), (-top, top, -top), (top, top, top), (0, 0, -top), (-LIMIT, 0, top)]
    codec = layout(3)
    packed = [sum(g * unit for g, unit in zip(vector, _units(3))) for vector in vectors]
    assert packed == [codec.pack(vector) for vector in vectors]
    assert [codec.unpack(p) for p in packed] == vectors
    assert len(set(packed)) == len(vectors)
    codec.check(packed)
    with pytest.raises(ExponentOverflow, match=f"outside \\[-{LIMIT}, {LIMIT}\\)"):
        codec.check([codec.pack((top, 0, 0)) + _units(3)[0]])


PACKED_RANGE = """
import sys
from clusterfan import coxeter, mutation
from clusterfan.packing import LIMIT
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
# every g-vector update of the A2 walk claims a field bound of LIMIT - 1,
# then LIMIT; its own g-vectors have fields of at most 1
g_mutate = mutation._g_mutate
for bound in (LIMIT - 1, LIMIT):
    mutation._g_mutate = lambda *args: (g_mutate(*args)[0], bound)
    try:
        print("walk", mutation.exchange_counts(((0, 1), (-1, 0)))[:2])
    except mutation.WalkCheckFailed as exc:
        print("FAIL", exc)
mutation._g_mutate = g_mutate
# A3 read with a largest exponent of LIMIT - 1, then LIMIT: the first passes
# the range check and fails on the level sizes, the second is refused
for top in (LIMIT - 1, LIMIT):
    coxeter._component_exponents = lambda rs: [[1, 1, top]]
    try:
        coxeter.count_elements(root_system("A3"))
    except coxeter.GroupCheckFailed as exc:
        print("FAIL", str(exc).split(" [")[0])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_g_vector_and_weight_at_the_packed_limit(flags):
    # python -O strips assert statements; the range checks must not be ones
    command = [sys.executable, *flags, "-c", PACKED_RANGE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "walk (5, 5)",
        f"FAIL a g-vector field may reach {LIMIT}, outside the packed range [-{LIMIT}, {LIMIT})",
        "FAIL length counts must be the Poincare polynomial",
        f"FAIL a weight field may reach {LIMIT}, outside the packed range",
    ], result.stderr


SABOTAGED_REVISIT = """
import sys
from clusterfan import mutation
from clusterfan.cartan import b_matrix, cartan_for_type
print("optimize", sys.flags.optimize)
mutate = mutation.matrix_mutate
made = []


def corrupted(rows, k):
    # the third seed made (mu_3 of the start) keeps its C-matrix with
    # column k doubled, which leaves that c-vector sign-coherent; the edge
    # back in direction 3 finds it
    image = mutate(rows, k)
    made.append(k)
    if len(made) == 3:
        n = len(rows[0])
        image = image[:n] + tuple(
            row[:k] + (2 * row[k],) + row[k + 1 :] for row in image[n:]
        )
    return image


mutation.matrix_mutate = corrupted
for name in ("A3", "B3"):
    made.clear()
    try:
        mutation.exchange_counts(b_matrix(cartan_for_type(name)))
    except mutation.WalkCheckFailed as exc:
        print("FAIL", exc)
"""


def test_sabotaged_revisit_fails_without_asserts():
    # python -O strips assert statements; the revisit check must not be one
    command = [sys.executable, "-O", "-c", SABOTAGED_REVISIT]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL a revisited seed disagrees with column 3 of the seed before it",
        "FAIL a revisited seed disagrees with column 3 of the seed before it",
    ], result.stderr


SABOTAGED_NEW_SEED = """
import sys
from clusterfan import mutation
from clusterfan.cartan import b_matrix, cartan_for_type
print("optimize", sys.flags.optimize)
mutate = mutation.matrix_mutate
made = []


def corrupted(rows, k):
    # the third stacked matrix made (mu_3 of the start) has the first
    # nonzero entry of column k in its exchange block negated; explore's
    # own matrix mutations (m rows, no C rows below) are left alone
    image = mutate(rows, k)
    n = len(rows[0])
    if len(rows) > n:
        made.append(k)
        if len(made) == 3:
            i = next(i for i in range(n) if image[i][k])
            flipped = image[i][:k] + (-image[i][k],) + image[i][k + 1 :]
            image = image[:i] + (flipped,) + image[i + 1 :]
    return image


mutation.matrix_mutate = corrupted
for name in ("A3", "B3"):
    rows = b_matrix(cartan_for_type(name))
    seed = mutation.initial_seed(rows, ["x1", "x2", "x3"])
    for walk in (lambda: mutation.exchange_counts(rows), lambda: mutation.explore(seed)):
        made.clear()
        try:
            walk()
        except mutation.WalkCheckFailed as exc:
            print("FAIL", exc)
"""


def test_sabotaged_new_seed_fails_without_asserts():
    # the reverse of the edge that made a seed is never computed, so the
    # new seed's column k is checked when it is made, under -O too
    command = [sys.executable, "-O", "-c", SABOTAGED_NEW_SEED]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        *["FAIL a revisited seed disagrees with column 3 of the seed before it"] * 4,
    ], result.stderr


@pytest.mark.parametrize("name", ["A5", "B4", "D5", "F4", "E6"])
@pytest.mark.parametrize("frozen", ["none", "principal"])
@pytest.mark.parametrize("relabel", [False, True])
def test_each_edge_is_computed_once(monkeypatch, name, frozen, relabel):
    # the exchange graph is n-regular: n * seeds / 2 edges, each computed
    # from one end only
    rows = exchange_rows(name, frozen)
    n = len(rows[0])
    if relabel:
        perm = list(range(n))
        random.Random(f"{name} {frozen}").shuffle(perm)
        rows = relabeled(rows, perm, -1)
    calls = []
    g_mutate = mutation._g_mutate

    def counted(*args):
        calls.append(args)
        return g_mutate(*args)

    monkeypatch.setattr(mutation, "_g_mutate", counted)
    seeds, _, _ = exchange_counts(rows)
    assert 2 * len(calls) == n * seeds


def test_edge_to_a_finished_seed_is_refused(monkeypatch):
    # a revisit recorded at the wrong slot leaves the true reverse edge to
    # be computed after its far end's turn is over, whose data is gone
    check = mutation._check_revisit

    def shifted(stacked, moved, k, target):
        return (check(stacked, moved, k, target) + 1) % len(moved)

    monkeypatch.setattr(mutation, "_check_revisit", shifted)
    with pytest.raises(mutation.WalkCheckFailed, match="reached a seed whose turn is over"):
        exchange_counts(exchange_rows("A3"))


# -- one walk per question: counts without Laurent values ----------------------


def counts_matching_explore(rows):
    """exchange_counts(rows), checked against explore and detection."""
    record = explore(seed_of(rows))
    counts = exchange_counts(rows)
    assert counts == (len(record.seeds), len(record.variables), record.detected)
    n = len(rows[0])
    assert record.detected == detect_finite_type([row[:n] for row in rows[:n]])
    return counts


@pytest.mark.parametrize(
    "name,frozen",
    [
        (name, frozen)
        for name in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3",
                     "D4", "D5", "G2", "F4", "E6")
        for frozen in ("none", "principal")
    ],
)
def test_counts_match_explore(name, frozen):
    # distinct g-vectors are distinct cluster variables
    _, _, detected = counts_matching_explore(exchange_rows(name, frozen))
    assert dynkin_name(detected) == name


@pytest.mark.parametrize("name,frozen,perm,sign", RELABELED_CASES)
def test_counts_match_explore_on_relabeled_inputs(name, frozen, perm, sign):
    counts_matching_explore(relabeled(exchange_rows(name, frozen), perm, sign))


@pytest.fixture
def walks(monkeypatch):
    """The start matrix of every exchange-graph walk taken."""
    calls = []
    original = mutation._walk

    def counted(rows, *args, **kwargs):
        calls.append(rows)
        return original(rows, *args, **kwargs)

    monkeypatch.setattr(mutation, "_walk", counted)
    return calls


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_mutate_walks_once(walks, capsys, fmt):
    assert cli.main(["mutate", "--type", "D4", "--format", fmt]) == 0
    assert len(walks) == 1
    assert capsys.readouterr().out


def test_gl3_cell_walks_once(walks):
    assert wiring.gl3_cell()["detected_type"] == "D4"
    assert len(walks) == 1


# -- the walk reads the type: Cartan counterpart, Cat(W) and the rank bound ----


def orientations(name):
    """Every orientation of the Dynkin diagram of `name` as an exchange
    matrix: each edge {i, j} gets a sign s, b_ij = s |a_ij| and
    b_ji = -s |a_ji|, skew-symmetrized by the Cartan symmetrizer."""
    cartan = cartan_for_type(name)
    n = len(cartan)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if cartan[i][j]]
    for signs in product((1, -1), repeat=len(edges)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), s in zip(edges, signs):
            rows[i][j], rows[j][i] = -s * cartan[i][j], s * cartan[j][i]
        assert skew_symmetrizer(rows) == Diagram(cartan).symmetrizer
        yield rows


@pytest.mark.parametrize("name", QUICK_TYPES)
def test_every_orientation_is_typed_at_the_start(monkeypatch, name):
    # a Dynkin forest's counterpart 2I - |B| is its Cartan matrix whatever
    # the orientation, so the walk types the start seed and no other, and
    # closes with Cat(W) seeds and |Phi+| + n cluster variables
    rs = root_system(name)
    typed = []
    cluster_type = mutation._cluster_type

    def counted(stacked, *args):
        typed.append(stacked)
        return cluster_type(stacked, *args)

    monkeypatch.setattr(mutation, "_cluster_type", counted)
    expected = (catalan_number(rs), rs.num_positive + rs.n, rs.dynkin)
    for rows in orientations(name):
        typed.clear()
        assert exchange_counts(rows) == expected, rows
        assert explore(seed_of(rows)).detected == rs.dynkin
        assert [[list(row) for row in t[: rs.n]] for t in typed] == [rows, rows]


def test_walk_checks_its_seed_count_against_cat_w(monkeypatch):
    # Cat(A3) = 14: a walk told 15 closes with 14 seeds and fails
    monkeypatch.setattr(mutation, "catalan_number", lambda rs: catalan_number(rs) + 1)
    rows = exchange_rows("A3")
    with pytest.raises(mutation.WalkCheckFailed, match=r"met 14 seeds, not Cat\(A3\) = 15"):
        exchange_counts(rows)
    with pytest.raises(mutation.WalkCheckFailed):
        explore(seed_of(rows))


def test_e8_detection_is_refused_by_its_catalan_number(monkeypatch):
    # Cat(E8) = 25,080 is over DETECT_BUDGET: refused before any edge
    calls = []
    monkeypatch.setattr(mutation, "_g_mutate", lambda *args: calls.append(args))
    with pytest.raises(Inconclusive, match=f"exceeded {mutation.DETECT_BUDGET} seeds"):
        detect_finite_type(b_matrix(cartan_for_type("E8")))
    assert calls == []


@pytest.mark.parametrize(
    "rows", [[[0] * 129] * 129, path_rows(129, cycle=True)], ids=["zero", "cycle"]
)
def test_walk_refuses_more_columns_than_the_rank_bound(monkeypatch, rows):
    # the rank is read before anything else: the zero matrix is A1^129, and
    # the cycle's counterpart is never finite
    monkeypatch.setattr(mutation, "_cluster_type", None)
    message = "rank 129 is over the bound of 128 simple roots"
    for walk in (exchange_counts, detect_finite_type, lambda r: explore(seed_of(r))):
        with pytest.raises(BudgetExceeded, match=message):
            walk(rows)


INFINITE_TYPES = [
    ((0, 2, -2), (-2, 0, 2), (2, -2, 0)),  # Markov quiver
    ((0, 2), (-3, 0)),
    # an acyclic triangle (affine A); the witness is one mutation away
    ((0, 1, 1), (-1, 0, 1), (-1, -1, 0)),
]


@pytest.mark.parametrize("rows", INFINITE_TYPES)
def test_explore_refuses_infinite_type_at_the_first_witness(rows):
    start = time.perf_counter()
    with pytest.raises(NotFiniteType, match="not of finite type") as info:
        explore(seed_of(rows))
    assert time.perf_counter() - start < 1
    partial = info.value.partial
    assert partial is not None and not partial.closed and partial.detected is None
    assert partial.seeds[0].matrix.rows == rows
    with pytest.raises(NotFiniteType):
        exchange_counts(rows)
    assert detect_finite_type(rows) is None


def test_explore_rejects_repeated_initial_variables():
    x = LaurentPoly.variable(("x", "y"), "x")
    seed = Seed(ExchangeMatrix(((0, 1), (-1, 0)), 2), (x, x), ())
    with pytest.raises(ValueError, match="distinct"):
        explore(seed)


# -- finite-type detection against the matrix-class oracle ---------------------


def _least_relabeling(rows):
    """The least flattening of rows over all n! relabelings and negation."""
    n = len(rows)
    best = None
    for perm in permutations(range(n)):
        flat = tuple(rows[perm[i]][perm[j]] for i in range(n) for j in range(n))
        for candidate in (flat, tuple(-x for x in flat)):
            if best is None or candidate < best:
                best = candidate
    return best


def matrix_class_detect(rows, budget=10**4):
    """Reference detection: BFS over the mutation class of the matrix, each
    member known by its least relabeling, with the verdict rules of
    detect_finite_type (budget counted in matrix classes)."""
    start = tuple(tuple(r) for r in rows)
    n = len(start)
    seen = {_least_relabeling(start)}
    frontier = [start]
    matrices = [start]
    while frontier:
        fresh = []
        for matrix in frontier:
            for k in range(n):
                image = matrix_mutate(matrix, k)
                if any(
                    abs(image[i][j] * image[j][i]) > 3
                    for i in range(n)
                    for j in range(i + 1, n)
                ):
                    return None
                key = _least_relabeling(image)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > budget:
                        raise Inconclusive("budget")
                    fresh.append(image)
                    matrices.append(image)
        frontier = fresh
    for matrix in matrices:
        candidate = _cartan_companion(matrix)
        try:
            if validate_finite_type(candidate):
                return classify(candidate)
        except (NotCartanShape, NotSymmetrizable):
            continue
    raise Inconclusive("no finite Cartan companion")


def random_exchange_matrix(rng, n):
    """b_ij = c_ij d_j and b_ji = -c_ij d_i for a random symmetrizer d, so
    that d_i b_ij = -d_j b_ji.  About 1.5 edges per vertex keep both
    finite and infinite types common up to rank 5."""
    d = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 1.5 / n:
                c = rng.choice((-2, -1, -1, 1, 1, 2))
                rows[i][j], rows[j][i] = c * d[j], -c * d[i]
    return rows


def test_detection_matches_oracle_on_random_matrices():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(2, 5)
        rows = random_exchange_matrix(rng, n)
        expected = matrix_class_detect(rows)
        assert detect_finite_type(rows) == expected, rows
        verdicts.add((n, expected is None))
    # both verdicts occur at every rank
    assert len(verdicts) == 8


FINITE_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "G2", "F4", "A1+A1", "A1+A2", "A2+B2", "A1+G2", "A1+A1+A1",
]


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_detection_matches_oracle_across_the_mutation_class(name):
    rng = random.Random(name)
    rows = b_matrix(cartan_for_type(name))
    n = len(rows)
    for _ in range(rng.randint(5, 15)):
        rows = matrix_mutate(rows, rng.randrange(n))
    perm = list(range(n))
    rng.shuffle(perm)
    sign = rng.choice((1, -1))
    rows = [[sign * rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert detect_finite_type(rows) == matrix_class_detect(rows)
    assert dynkin_name(detect_finite_type(rows)) == name


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_mutate_output_is_sized_before_it_is_rendered(monkeypatch, capsys, fmt):
    # A3 has 14 seeds of 3 variables; its texts sum to some hundred characters
    record = explore(seed_of(b_matrix(cartan_for_type("A3"))))
    size = sum(len(v.text()) for s in record.seeds for v in s.cluster)
    monkeypatch.setattr(mutation, "RENDER_BUDGET", size)
    assert graph_to_dot(record) and graph_to_dict(record)
    monkeypatch.setattr(mutation, "RENDER_BUDGET", size - 1)
    for render in (graph_to_dot, graph_to_dict):
        with pytest.raises(BudgetExceeded, match=f"takes {size} characters"):
            render(record)
    assert cli.main(["mutate", "--type", "A3", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert f"takes {size} characters of variable text, over {size - 1}" in captured.err
