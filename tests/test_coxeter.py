"""Weyl groups on their Cayley tables: orders, words, weak order, and the
noncrossing interval in absolute order.

The first group construction (a frontier BFS composing permutation tuples),
the greedy reduced word over left descents found through the inverse
permutation, the reduced-word count over sorted lengths and right descents,
and the weak-order meet found by scanning all of W with a multiplying `leq`
are kept below as oracles for the table-based versions, and the first
lattice check, a meet for every pair read off down-set bitmasks, as the
oracle for the local check on inversion sets.  So is the first absolute
interval, a BFS over all of W with every reflection (the
reflections checked against their intrinsic characterization), as the
oracle for the group-free walk down from c, and the second one, which ran a
rank computation on every candidate u*t, as the oracle for the walk that
reads the children off Mov(u).
"""

import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest

from clusterfan import cli, coxeter
from clusterfan.assoc import narayana
from clusterfan.cartan import CheckFailed, bipartition
from clusterfan.coxeter import (
    BudgetExceeded,
    _levels,
    absolute_interval,
    build_group,
    conjugacy_classes,
    count_elements,
    count_reduced_words,
    coxeter_element,
    hasse_dot,
    inversion_sets,
    reflection_length,
    stanley_formula,
    weak_order,
)
from clusterfan.roots import coxeter_element as root_coxeter_element
from clusterfan.roots import root_system


class NotCoxeterElement(ValueError):
    """The element is not a product of all simple reflections in any order."""


class OracleGroup:
    """The group by a frontier BFS with tuple products, and the weak order
    by a scan over all elements."""

    def __init__(self, rs):
        self.rs = rs
        size = len(rs.roots)
        identity = tuple(range(size))
        self.generators = [rs.simple_perm(i) for i in range(rs.n)]
        self.elements = [identity]
        self.index = {identity: 0}
        self.length = [0]
        frontier = [identity]
        depth = 0
        while frontier:
            depth += 1
            fresh = []
            for p in frontier:
                for g in self.generators:
                    q = tuple(p[g[r]] for r in range(size))
                    if q not in self.index:
                        self.index[q] = len(self.elements)
                        self.elements.append(q)
                        self.length.append(depth)
                        fresh.append(q)
            frontier = fresh

    def mult(self, u, v):
        pu, pv = self.elements[u], self.elements[v]
        return self.index[tuple(pu[pv[r]] for r in range(len(pu)))]

    def inverse(self, u):
        inv = [0] * len(self.elements[u])
        for r, image in enumerate(self.elements[u]):
            inv[image] = r
        return self.index[tuple(inv)]

    def times_generator(self, u, i):
        p, g = self.elements[u], self.generators[i]
        return self.index[tuple(p[g[r]] for r in range(len(p)))]

    def generator_times(self, i, u):
        g, p = self.generators[i], self.elements[u]
        return self.index[tuple(g[p[r]] for r in range(len(p)))]

    def right_descents(self, u):
        p, npos = self.elements[u], self.rs.num_positive
        return [i for i, s in enumerate(self.rs.simple_index) if p[s] >= npos]

    def left_descents(self, u):
        return self.right_descents(self.inverse(u))

    def reduced_word(self, u):
        """Lexicographically minimal reduced word, built greedily from the
        smallest left descent."""
        word = []
        while u != 0:
            i = min(self.left_descents(u))
            word.append(i)
            u = self.generator_times(i, u)
        return tuple(word)

    def count_reduced_words(self, u):
        counts = {0: 1}
        order = sorted(range(len(self.elements)), key=lambda i: self.length[i])
        for idx in order:
            if idx == 0:
                continue
            counts[idx] = sum(
                counts[self.times_generator(idx, i)] for i in self.right_descents(idx)
            )
            if idx == u:
                break
        return counts[u]

    def leq(self, a, b):
        gap = self.length[b] - self.length[a]
        if gap < 0:
            return False
        return self.length[self.mult(self.inverse(a), b)] == gap

    def meet(self, a, b):
        lower = [t for t in range(len(self.elements)) if self.leq(t, a) and self.leq(t, b)]
        best = max(lower, key=lambda t: self.length[t])
        assert sum(self.length[t] == self.length[best] for t in lower) == 1
        assert all(self.leq(t, best) for t in lower)
        return best

    def reflections(self):
        """Positive-root index -> reflection, checked against the intrinsic
        characterization: the involutions sending exactly one positive root
        to its own negative."""
        rs, npos = self.rs, self.rs.num_positive
        table = {b: self.index[rs.reflection_perm(b)] for b in range(npos)}
        intrinsic = {
            idx
            for idx, p in enumerate(self.elements)
            if sum(p[b] == rs.negate(b) for b in range(npos)) == 1
            and self.mult(idx, idx) == 0
        }
        assert set(table.values()) == intrinsic and len(intrinsic) == npos
        return table

    def coxeter_element(self, order=None):
        if order is None:
            plus, minus = bipartition(self.rs.cartan)
            order = sorted(plus) + sorted(minus)
        return self.index[self.rs.word_perm(order)]

    def absolute_interval(self, c):
        """{element: reflection length} over [1, c], from reflection-length
        distances over all of W."""
        n = self.rs.n
        if not any(
            self.rs.word_perm(order) == self.elements[c] for order in permutations(range(n))
        ):
            raise NotCoxeterElement(self.elements[c])
        reflections = sorted(set(self.reflections().values()))
        distance = [-1] * len(self.elements)
        distance[0] = 0
        frontier = [0]
        while frontier:
            fresh = []
            for u in frontier:
                for t in reflections:
                    v = self.mult(u, t)
                    if distance[v] < 0:
                        distance[v] = distance[u] + 1
                        fresh.append(v)
            frontier = fresh
        assert min(distance) >= 0 and distance[c] == n
        return {
            self.elements[w]: distance[w]
            for w in range(len(self.elements))
            if distance[w] + distance[self.mult(self.inverse(w), c)] == n
        }

def rank_walk_absolute_interval(rs):
    """(elements, ranks, rank_counts) of [1, c] from the walk down from c
    that keeps each candidate u*t of reflection length one less than u."""
    c = root_coxeter_element(rs)
    reflections = [rs.reflection_perm(b) for b in range(rs.num_positive)]
    levels = [[c]]
    for rank in range(rs.n - 1, -1, -1):
        lengths = {}
        for u in levels[-1]:
            for t in reflections:
                v = tuple(map(u.__getitem__, t))
                if v not in lengths:
                    lengths[v] = reflection_length(rs, v)
        levels.append([v for v, length in lengths.items() if length == rank])
    assert levels[-1] == [tuple(range(len(rs.roots)))]
    levels.reverse()
    elements = tuple(w for level in levels for w in level)
    ranks = tuple(rank for rank, level in enumerate(levels) for _ in level)
    return elements, ranks, tuple(len(level) for level in levels)


GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384, "C3": 48,
    "D4": 192, "F4": 1152, "G2": 12,
}


@pytest.mark.parametrize("name,order", sorted(GROUP_ORDERS.items()))
def test_group_orders(name, order):
    group = build_group(root_system(name))
    assert len(group.elements) == order


def test_longest_element_length_is_num_positive():
    for name in ("A3", "B3", "G2"):
        group = build_group(root_system(name))
        assert group.length[group.w0] == group.rs.num_positive
        assert max(group.length) == group.rs.num_positive
        # w0 is an involution: w0 times its own word is the identity
        u = group.w0
        for i in group.reduced_word(group.w0):
            u = group.right[u][i]
        assert u == 0


def test_w0_negates_all_roots_when_minus_one():
    # -1 is in the group exactly for these quick-suite types
    for name, central in (("A1", True), ("A2", False), ("A3", False),
                          ("B2", True), ("B3", True), ("C3", True),
                          ("D4", True), ("F4", True), ("G2", True)):
        oracle = OracleGroup(root_system(name))
        rs = oracle.rs
        w0 = oracle.elements[build_group(rs).w0]
        negates = all(w0[idx] == rs.negate(idx) for idx in range(len(rs.roots)))
        assert negates == central


def test_reduced_word_is_reduced_and_correct():
    group = build_group(root_system("B3"))
    for u in range(len(group)):
        word = group.reduced_word(u)
        assert len(word) == group.length[u]
        e = 0
        for i in word:
            e = group.right[e][i]
        assert e == u


def test_reduced_word_counts_for_longest_element():
    # Frozen values; the A-family column equals the hook-style product formula
    expected = {"A1": 1, "A2": 2, "A3": 16, "A4": 768, "A5": 292864}
    for name, count in expected.items():
        assert count_reduced_words(root_system(name)) == count
        n = int(name[1])
        assert stanley_formula(n) == count


def test_stanley_formula_a5():
    assert stanley_formula(5) == 292864


def test_reduced_word_count_b2_g2():
    assert count_reduced_words(root_system("B2")) == 2
    assert count_reduced_words(root_system("G2")) == 2


def square_tableaux(n):
    """Standard Young tableaux of the n x n square by the hook-length
    formula: cell (i, j) has hook length (n - i) + (n - j) - 1."""
    return factorial(n * n) // prod(2 * n - i - j - 1 for i in range(n) for j in range(n))


def test_square_tableaux_by_hook_lengths():
    assert [square_tableaux(n) for n in (2, 3, 4, 5)] == [2, 42, 24024, 701149020]


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "C3", "C4", "C5"])
def test_reduced_words_of_w0_in_types_b_c_are_square_tableaux(name):
    # Haiman (Dual equivalence with applications, 1992): the reduced words
    # of w0 in B_n and C_n are as many as the standard Young tableaux of
    # the n x n square
    assert count_reduced_words(root_system(name)) == square_tableaux(int(name[1]))


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A5", "B3", "D4", "F4", "G2", "A1+A2", "A1+A1+A1", "A2+B2"]
)
def test_half_walk_count_matches_oracle(name):
    # l(w0) is odd on A2, A5, B3, A1+A1+A1 and A2+B2 (two middle levels),
    # even on the others (one)
    rs = root_system(name)
    oracle = OracleGroup(rs)
    w0 = max(range(len(oracle.elements)), key=oracle.length.__getitem__)
    assert count_reduced_words(rs) == oracle.count_reduced_words(w0)


@pytest.mark.parametrize("name", ["A2", "A5", "B4", "E6", "A2+B2"])
def test_count_walks_only_to_the_middle(name, monkeypatch):
    # the count reads the levels up to N - floor(N/2) and never resumes
    # the walk past them
    levels = coxeter._levels
    sizes = []

    def recording(rs, budget, right=None):
        for level, counts in levels(rs, budget, right):
            sizes.append(len(level))
            yield level, counts

    monkeypatch.setattr(coxeter, "_levels", recording)
    rs = root_system(name)
    count_reduced_words(rs)
    assert len(sizes) == rs.num_positive - rs.num_positive // 2 + 1
    assert sum(sizes) < count_elements(rs)


def test_descent_sets():
    group = build_group(root_system("A3"))
    oracle = OracleGroup(group.rs)
    length = group.length

    def descents(table, u):
        return [i for i, v in enumerate(table[u]) if length[v] < length[u]]

    assert descents(group.right, 0) == descents(group.left, 0) == []
    assert descents(group.right, group.w0) == descents(group.left, group.w0) == [0, 1, 2]
    for u in range(len(group)):
        assert descents(group.right, u) == oracle.right_descents(u)
        assert descents(group.left, u) == oracle.left_descents(u)


def test_reflections_biject_with_positive_roots():
    for name in ("A3", "B3", "G2"):
        oracle = OracleGroup(root_system(name))
        refl = oracle.reflections()
        assert len(refl) == oracle.rs.num_positive
        for idx, t in refl.items():
            assert oracle.mult(t, t) == 0
            assert oracle.elements[t][idx] == oracle.rs.negate(idx)


def test_weak_order_lattice_and_cover_count():
    group = build_group(root_system("A3"))
    data = weak_order(group)
    # the cover count |W| n / 2 is checked per type below; here each cover's
    # defining property
    for lo, i, hi in data.covers:
        assert group.right[lo][i] == hi
        assert group.length[hi] == group.length[lo] + 1
    bottoms = {lo for lo, _, _ in data.covers}
    tops = {hi for _, _, hi in data.covers}
    assert 0 in bottoms
    assert group.w0 in tops
    assert group.w0 not in bottoms


def test_hasse_dot_output():
    group = build_group(root_system("A2"))
    data = weak_order(group)
    dot = hasse_dot(group, data)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(data.covers)
    assert '"e"' in dot


def test_coxeter_element_and_absolute_interval():
    rs = root_system("A3")
    interval = absolute_interval(rs)
    # the bipartite Coxeter element s1 s3 s2
    assert interval.coxeter == coxeter_element(rs) == rs.word_perm([0, 2, 1])
    assert reflection_length(rs, interval.coxeter) == 3
    # noncrossing partition counts for A3: ranks 1,6,6,1 totalling 14
    assert interval.rank_counts == (1, 6, 6, 1)
    assert interval.elements[0] == tuple(range(len(rs.roots)))
    assert interval.elements[-1] == interval.coxeter
    assert list(interval.ranks) == sorted(interval.ranks)
    assert len(set(interval.elements)) == 14


def test_coxeter_element_custom_order():
    oracle = OracleGroup(root_system("A2"))
    c1 = oracle.coxeter_element(order=[0, 1])
    c2 = oracle.coxeter_element(order=[1, 0])
    assert c1 != c2
    for c in (c1, c2):
        ranks = sorted(oracle.absolute_interval(c).values())
        assert ranks == [0, 1, 1, 1, 2]


def test_absolute_interval_rejects_non_coxeter():
    oracle = OracleGroup(root_system("A2"))
    with pytest.raises(NotCoxeterElement):
        oracle.absolute_interval(0)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "A1+A2"],
)
def test_absolute_interval_matches_group_bfs(name):
    rs = root_system(name)
    interval = absolute_interval(rs)
    oracle = OracleGroup(rs)
    assert interval.coxeter == oracle.elements[oracle.coxeter_element()]
    expected = oracle.absolute_interval(oracle.coxeter_element())
    assert dict(zip(interval.elements, interval.ranks)) == expected
    assert len(interval.elements) == len(expected)
    counts = [0] * (rs.n + 1)
    for rank in expected.values():
        counts[rank] += 1
    assert interval.rank_counts == tuple(counts)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "D5"]
    + ["F4", "G2", "E6"],
)
def test_absolute_interval_matches_rank_walk(name):
    rs = root_system(name)
    interval = absolute_interval(rs)
    elements, ranks, counts = rank_walk_absolute_interval(rs)
    assert interval.elements == elements
    assert interval.ranks == ranks
    assert interval.rank_counts == counts


@pytest.mark.parametrize("name", ["D5", "B5", "E6"])
def test_absolute_interval_ranks_are_narayana(name):
    rs = root_system(name)
    assert absolute_interval(rs).rank_counts == narayana(rs)


def test_oversized_interval_refused_before_the_walk():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="25080 elements, over the budget of 10000"):
        absolute_interval(root_system("E8"))
    assert time.perf_counter() - start < 5


SABOTAGED_WALK = """
import sys
from clusterfan import coxeter
from clusterfan.cartan import CheckFailed
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
rs = root_system("A3")
length = coxeter.reflection_length
# a rank helper that gives c reflection length 0
coxeter.reflection_length = lambda rs, w: 0
try:
    coxeter.absolute_interval(rs)
except CheckFailed as exc:
    print("FAIL", exc)
coxeter.reflection_length = length
# a kernel helper that loses one basis vector: below c every level reads
# one rank too high
kernel = coxeter.left_kernel
coxeter.left_kernel = lambda rows: kernel(rows)[1:]
try:
    coxeter.absolute_interval(rs)
except CheckFailed as exc:
    print("FAIL", exc)
coxeter.left_kernel = kernel
# reflections that all act as the identity: the walk never gets below c
for name in ("A3", "A1"):
    rs = root_system(name)
    rs.reflection_perm = lambda b: tuple(range(len(rs.roots)))
    try:
        coxeter.absolute_interval(rs)
    except CheckFailed as exc:
        print("FAIL", exc)
"""


def test_sabotaged_walk_fails_without_asserts():
    # python -O strips assert statements; the interval checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", SABOTAGED_WALK]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL the Coxeter element must have reflection length n",
        "FAIL an element of the level at rank 2 has reflection length 3",
        # on A3, c stays the only element of the level at rank 2
        "FAIL an element of the level at rank 2 has reflection length 3",
        # on A1 the level below c is the last, and it holds c
        "FAIL the walk down from c must end at the identity alone",
    ], result.stderr


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "G2", "D4", "A1+A2"])
def test_conjugacy_classes_match_oracle(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    size = len(oracle.elements)
    expected = []
    seen = set()
    for u in range(size):
        if u not in seen:
            members = {
                oracle.mult(oracle.mult(g, u), oracle.inverse(g)) for g in range(size)
            }
            seen |= members
            expected.append((u, len(members)))
    # the two number the elements alike (test_orbit_search_matches_frontier_bfs)
    assert conjugacy_classes(group) == expected


@pytest.mark.parametrize("name,count", [("B4", 20), ("D4", 13), ("F4", 25), ("E6", 25)])
def test_conjugacy_class_counts(name, count):
    group = build_group(root_system(name))
    classes = conjugacy_classes(group)
    assert len(classes) == count
    assert sum(size for _, size in classes) == len(group)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        build_group(root_system("A4"), budget=20)


def test_oversized_group_refused_before_the_search():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2903040 elements"):
        build_group(root_system("E7"))
    with pytest.raises(BudgetExceeded, match="48 elements"):
        build_group(root_system("A2+B2"), budget=47)
    assert time.perf_counter() - start < 5
    assert len(build_group(root_system("A2+B2"), budget=48)) == 48


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "G2", "A1+A2", "D4"])
def test_group_matches_frontier_bfs(name):
    # the equal numbering and the right table are checked in
    # test_orbit_search_matches_frontier_bfs
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    assert group.left == [
        tuple(oracle.generator_times(i, u) for i in range(group.n))
        for u in range(len(oracle.elements))
    ]
    # u*v walks u along the right table by a word of v
    for u in range(0, len(group), 7):
        for v in range(0, len(group), 5):
            product = u
            for i in group.reduced_word(v):
                product = group.right[product][i]
            assert product == oracle.mult(u, v)


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "F4", "D5", "A1+A2"])
def test_reduced_word_matches_permutation_oracle(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    assert group.length == oracle.length
    for u in range(len(group)):
        assert group.reduced_word(u) == oracle.reduced_word(u)


@pytest.mark.parametrize("name", ["B3", "A4"])
def test_reduced_word_counts_match_oracle(name):
    rs = root_system(name)
    oracle = OracleGroup(rs)
    counts = [words for _, level in _levels(rs, 10**6) for words in level]
    assert counts == [oracle.count_reduced_words(u) for u in range(len(oracle.elements))]


def bitset_meet(down, a, b):
    """The meet of a and b in a poset whose elements are indexed along a
    linear extension, given the down-set bitmask of every element.

    The common lower bounds are down[a] & down[b]; the highest of them is
    the only candidate, and it is the meet iff its own down-set is all of
    them.  Raises CheckFailed otherwise (also when there is no
    common lower bound: best is then -1, the last element).
    """
    common = down[a] & down[b]
    best = common.bit_length() - 1
    if down[best] != common:
        raise CheckFailed(f"no unique maximal lower bound for ({a},{b})")
    return best


def down_sets(size, covers):
    """Bit t of down[u] is set iff t <= u.  Covers come in index order of
    their lower end, and index order is length order, so down[u] is
    complete when u's own covers are read."""
    down = [1 << u for u in range(size)]
    for lower, _, upper in covers:
        down[upper] |= down[lower]
    return down


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "C3"])
def test_bitset_meets_match_scan(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    size = len(group)
    down = down_sets(size, weak_order(group).covers)
    for a in range(size):
        for b in range(a, size):
            assert bitset_meet(down, a, b) == oracle.meet(a, b), (a, b)


def test_bitset_meet_rejects_a_bowtie():
    # 0 < 1, 2 < 3, 4 < 5: the minimal upper pair 3, 4 has two maximal
    # common lower bounds, 1 and 2
    below = {0: [], 1: [0], 2: [0], 3: [1, 2], 4: [1, 2], 5: [3, 4]}
    down = [0] * 6
    for u in range(6):
        down[u] = 1 << u
        for t in below[u]:
            down[u] |= down[t]
    assert bitset_meet(down, 1, 2) == 0
    assert bitset_meet(down, 3, 5) == 3
    with pytest.raises(CheckFailed, match=r"no unique maximal lower bound for \(3,4\)"):
        bitset_meet(down, 3, 4)
    # two elements with no common lower bound at all
    with pytest.raises(CheckFailed, match=r"no unique maximal lower bound for \(0,1\)"):
        bitset_meet([0b01, 0b10], 0, 1)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3", "G2", "A4", "B4", "D4", "F4", "A1+A2"])
def test_inversion_sets_give_the_weak_order(name):
    group = build_group(root_system(name))
    size = len(group)
    down = down_sets(size, weak_order(group).covers)
    sets = inversion_sets(group)
    for w, top in enumerate(sets):
        below = sum(1 << u for u, t in enumerate(sets) if t | top == top)
        assert below == down[w], w


# m_ij, the order of s_i s_j, by a_ij a_ji
DIHEDRAL_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@pytest.mark.parametrize(
    "name,pairs",
    [("A2", 1), ("G2", 1), ("B3", 26), ("A4", 150), ("D4", 240), ("F4", 1392),
     ("D5", 4160), ("A1+A2", 8)],
)
def test_weak_order_checks_one_pair_per_rank_two_coset(name, pairs):
    # each coset of W_ij = <s_i, s_j> has one minimal element z, and z is
    # the one element of the coset that ascends by both s_i and s_j
    rs = root_system(name)
    group = build_group(rs)
    a = rs.cartan
    expected = sum(
        len(group) // (2 * DIHEDRAL_ORDER[a[i][j] * a[j][i]])
        for i in range(rs.n)
        for j in range(i + 1, rs.n)
    )
    data = weak_order(group)
    assert data.checked_pairs == expected == pairs
    assert len(data.covers) == len(group) * rs.n // 2


SABOTAGED_LATTICE = """
import sys
from clusterfan import coxeter
from clusterfan.cartan import CheckFailed
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
a3 = coxeter.build_group(root_system("A3"))
sets = coxeter.inversion_sets
def flipped(u, bits):
    def sabotaged(group):
        out = sets(group)
        out[u] ^= bits
        return out
    return sabotaged
# alpha_2 (bit 1) added to T_L(e) = {}, which is then too large; and in
# T_L(s_1 s_3) = {alpha_1, alpha_3}, element 5, alpha_1 (bit 2) swapped for
# alpha_2, which keeps the size but breaks the edge s_3 * s_1, from element 1
for u, bits in ((0, 0b010), (5, 0b110)):
    coxeter.inversion_sets = flipped(u, bits)
    try:
        coxeter.weak_order(a3)
    except CheckFailed as exc:
        print("FAIL", exc)
coxeter.inversion_sets = sets
# s_1 s_2 read in the right table, once the left table is built from it,
# as the identity, where the alternating words from s_1 and s_2 fall, and as
# s_2 s_1, element 4, where they meet too early
for wrong in (0, 4):
    a2 = coxeter.build_group(root_system("A2"))
    a2.left
    a2.right[1] = (0, wrong)
    try:
        coxeter.weak_order(a2)
    except CheckFailed as exc:
        print("FAIL", exc)
# with no root a sum of two others, alpha_1 + alpha_2 cannot be grown from
# T_L(s_1) and T_L(s_2) inside T_L(w0)
coxeter._root_sums = lambda rs: [[] for _ in range(rs.num_positive)]
for name in ("A2", "A3"):
    try:
        coxeter.weak_order(coxeter.build_group(root_system(name)))
    except CheckFailed as exc:
        print("FAIL", exc)
"""


def test_sabotaged_lattice_check_fails_without_asserts():
    # python -O strips assert statements; the lattice checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", SABOTAGED_LATTICE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL the inversion set of element 0 must have 0 roots",
        "FAIL the inversion set of s_3*u must be alpha_3 and s_3 of that of u, for u = 1",
        "FAIL the words alternating s_1 and s_2 from element 0 must rise to a common element",
        "FAIL the inversion set of element 4 must hold those of 1 and 2",
        # the join of s_1 and s_2 is w0 on A2 and s_1 s_2 s_1 on A3
        "FAIL each root the inversion set of element 5 adds to those of 1 and 2"
        " must be a sum of two roots held",
        "FAIL each root the inversion set of element 9 adds to those of 1 and 2"
        " must be a sum of two roots held",
    ], result.stderr


@pytest.mark.parametrize(
    "name", ["A1", "A3", "B3", "C3", "G2", "A1+A2", "D4", "A2+B2", "A1+A1+A1"]
)
def test_orbit_search_matches_frontier_bfs(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    assert group.length == oracle.length
    assert group.right == [
        tuple(oracle.times_generator(u, i) for i in range(group.n))
        for u in range(len(oracle.elements))
    ]
    assert group.w0 == max(range(len(oracle.elements)), key=oracle.length.__getitem__)


# exponents by component, written out rather than read off the root heights
EXPONENTS = {
    "A3": (1, 2, 3), "B3": (1, 3, 5), "G2": (1, 5), "D4": (1, 3, 3, 5),
    "F4": (1, 5, 7, 11), "E6": (1, 4, 5, 7, 8, 11), "A2+B2": (1, 2, 1, 3),
    "A1+A1+A1": (1, 1, 1),
}


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_length_counts_are_the_poincare_polynomial(name):
    coeffs = [1]
    for e in EXPONENTS[name]:
        coeffs = [
            sum(coeffs[d - t] for t in range(e + 1) if 0 <= d - t < len(coeffs))
            for d in range(len(coeffs) + e)
        ]
    counts = Counter(build_group(root_system(name)).length)
    assert [counts[l] for l in range(len(coeffs))] == coeffs
    assert sum(counts.values()) == sum(coeffs) == count_elements(root_system(name))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_group_output_builds_no_permutations(fmt, monkeypatch, capsys):
    # text and JSON count the reduced words of w0 on the two-level walk and
    # build no group, so neither Cayley table
    built = []
    init = coxeter.WeylGroup.__init__

    def recording(self, rs, budget=10**6):
        built.append(rs)
        init(self, rs, budget)

    monkeypatch.setattr(coxeter.WeylGroup, "__init__", recording)
    assert cli.main(["group", "--type", "E6", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "51840" in out and "1266633313578528" in out
    assert built == []


MIRROR_SABOTAGE = """
import sys
from clusterfan import coxeter
from clusterfan.cartan import CheckFailed
from clusterfan.packing import layout
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
# start the walk at rho + omega_1, a regular weight whose orbit has the
# levels of the Poincare polynomial but is not mapped to its negation by
# w0 on A2 and A3
packing = coxeter._packing
def sabotaged(rs):
    steps, rho = packing(rs)
    return steps, rho + layout(rs.n).pack((1,) + (0,) * (rs.n - 1))
coxeter._packing = sabotaged
for name in ("A2", "A3"):
    for walk in (coxeter.count_reduced_words, coxeter.build_group):
        try:
            walk(root_system(name))
        except CheckFailed as exc:
            print("FAIL", exc)
"""


def test_mirror_check_fails_without_asserts():
    command = [sys.executable, "-O", "-c", MIRROR_SABOTAGE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL the negation of every weight of length 1 must have length 2",
        "FAIL the negation of every weight of length 1 must have length 2",
        "FAIL the negation of every weight of length 3 must have length 3",
        "FAIL the negation of every weight of length 3 must have length 3",
    ], result.stderr


def test_left_table_is_built_on_first_use():
    group = build_group(root_system("E6"))
    assert len(group.elements) == len(group) == 51840
    assert "left" not in vars(group)
    # reading one word builds the whole left table, checked as it is built
    word = group.reduced_word(group.w0)
    assert group.rs.word_perm(word) == group.rs.longest_element()
    assert "left" in vars(group)


SABOTAGED_SEARCH = """
import sys
from clusterfan import coxeter
from clusterfan.cartan import CheckFailed
from clusterfan.packing import layout
from clusterfan.roots import root_system
print("optimize", sys.flags.optimize)
# alpha_1 with one more in its second coordinate: steps along s_1 leave the
# orbit of rho
packing = coxeter._packing
def sabotaged(rs):
    (shift, alpha), *steps = packing(rs)[0]
    alpha += layout(rs.n).pack((0, 1) + (0,) * (rs.n - 2))
    return [(shift, alpha)] + steps, packing(rs)[1]
coxeter._packing = sabotaged
try:
    coxeter.build_group(root_system("A3"))
except CheckFailed as exc:
    print("FAIL", exc)
coxeter._packing = packing
# exponents 1, 1, 5 give |W| = 24 as A3's 1, 2, 3 do, but another polynomial
rs = root_system("A3")
rs.exponents = [[1, 1, 5]]
try:
    coxeter.build_group(rs)
except CheckFailed as exc:
    print("FAIL", exc)
# element 3 = s1 s2 of A2 with s1 s2 s1 read as the identity, then as s1:
# the left table built along the right one first moves a length by other
# than one, then stops being an involution
for row in [(0, 1), (1, 1)]:
    group = coxeter.build_group(root_system("A2"))
    group.right[3] = row
    try:
        group.reduced_word(group.w0)
    except CheckFailed as exc:
        print("FAIL", exc)
"""


def test_sabotaged_search_fails_without_asserts():
    # python -O strips assert statements; the group checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", SABOTAGED_SEARCH]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL length must move by the sign of mu_1 = 0 from element 4",
        "FAIL length counts must be the Poincare polynomial"
        " [1, 3, 4, 4, 4, 4, 3, 1] of the exponents",
        "FAIL s_1 from the left must move the length of element 4 by one",
        "FAIL s_1 from the left must be an involution on element 4",
    ], result.stderr
