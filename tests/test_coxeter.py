"""Weyl groups as permutation groups on roots: orders, words, weak order.

The first group construction (a frontier BFS composing permutation tuples),
the reduced-word count over sorted lengths and right descents, and the
weak-order meet found by scanning all of W with a multiplying `leq` are kept
below as oracles for the table- and bitset-based versions.
"""

import time

import pytest

from clusterfan.coxeter import (
    BudgetExceeded,
    LatticeCheckFailed,
    NotCoxeterElement,
    absolute_interval,
    bitset_meet,
    build_group,
    count_reduced_words,
    coxeter_element,
    hasse_dot,
    stanley_formula,
    weak_order,
)
from clusterfan.roots import root_system


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

    def right_descents(self, u):
        p, npos = self.elements[u], self.rs.num_positive
        return [i for i, s in enumerate(self.rs.simple_index) if p[s] >= npos]

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
        # w0 is an involution
        assert group.mult(group.w0, group.w0) == 0


def test_w0_negates_all_roots_when_minus_one():
    # -1 is in the group exactly for these quick-suite types
    for name, central in (("A1", True), ("A2", False), ("A3", False),
                          ("B2", True), ("B3", True), ("C3", True),
                          ("D4", True), ("F4", True), ("G2", True)):
        group = build_group(root_system(name))
        rs = group.rs
        negates = all(group.apply(group.w0, idx) == rs.negate(idx)
                      for idx in range(len(rs.roots)))
        assert negates == central


def test_reduced_word_is_reduced_and_correct():
    group = build_group(root_system("B3"))
    for u in range(len(group.elements)):
        word = group.reduced_word(u)
        assert len(word) == group.length[u]
        e = 0
        for i in word:
            e = group.times_generator(e, i)
        assert e == u


def test_reduced_word_counts_for_longest_element():
    # Frozen values; the A-family column equals the hook-style product formula
    expected = {"A1": 1, "A2": 2, "A3": 16, "A4": 768}
    for name, count in expected.items():
        group = build_group(root_system(name))
        assert count_reduced_words(group, group.w0) == count
        n = int(name[1])
        assert stanley_formula(n) == count


def test_stanley_formula_a5():
    assert stanley_formula(5) == 292864


def test_reduced_word_count_b2_g2():
    assert count_reduced_words(build_group(root_system("B2")),
                               build_group(root_system("B2")).w0) == 2
    group = build_group(root_system("G2"))
    assert count_reduced_words(group, group.w0) == 2


def test_descent_sets():
    group = build_group(root_system("A2"))
    assert group.right_descents(0) == []
    assert sorted(group.right_descents(group.w0)) == [0, 1]
    assert sorted(group.left_descents(group.w0)) == [0, 1]


def test_reflections_biject_with_positive_roots():
    for name in ("A3", "B3", "G2"):
        group = build_group(root_system(name))
        refl = group.reflections()
        assert len(refl) == group.rs.num_positive
        for idx, t in refl.items():
            assert group.mult(t, t) == 0
            assert group.apply(t, idx) == group.rs.negate(idx)


def test_weak_order_lattice_and_cover_count():
    group = build_group(root_system("A3"))
    data = weak_order(group)
    assert data.exhaustive
    # covers out of each element = number of non-descents summed over group;
    # total cover count equals (number of elements) * n / 2 ... not in general,
    # so check the defining property instead
    for lo, i, hi in data.covers:
        assert group.times_generator(lo, i) == hi
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
    group = build_group(root_system("A3"))
    c = coxeter_element(group)
    interval = absolute_interval(group, c)
    # noncrossing partition counts for A3: ranks 1,6,6,1 totalling 14
    assert interval.rank_counts == (1, 6, 6, 1)


def test_coxeter_element_custom_order():
    group = build_group(root_system("A2"))
    c1 = coxeter_element(group, order=[0, 1])
    c2 = coxeter_element(group, order=[1, 0])
    assert c1 != c2
    assert absolute_interval(group, c1).rank_counts == (1, 3, 1)
    assert absolute_interval(group, c2).rank_counts == (1, 3, 1)


def test_absolute_interval_rejects_non_coxeter():
    group = build_group(root_system("A2"))
    with pytest.raises(NotCoxeterElement):
        absolute_interval(group, 0)


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
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    assert group.elements == oracle.elements
    assert group.length == oracle.length
    for u in range(len(group)):
        for i in range(group.n):
            assert group.right[u][i] == oracle.times_generator(u, i)
            assert group.times_generator(u, i) == group.right[u][i]
    for u in range(0, len(group), 7):
        for v in range(0, len(group), 5):
            assert group.mult(u, v) == oracle.mult(u, v)


@pytest.mark.parametrize("name", ["B3", "A4"])
def test_reduced_word_counts_match_oracle(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    for u in range(len(group)):
        assert count_reduced_words(group, u) == oracle.count_reduced_words(u)


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "C3"])
def test_bitset_meets_match_scan(name):
    group = build_group(root_system(name))
    oracle = OracleGroup(group.rs)
    data = weak_order(group)
    size = len(group)
    assert data.exhaustive and data.checked_pairs == size * (size - 1) // 2
    for a in range(size):
        for b in range(a, size):
            assert bitset_meet(data.down, a, b) == oracle.meet(a, b), (a, b)


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
    with pytest.raises(LatticeCheckFailed):
        bitset_meet(down, 3, 4)
    # two elements with no common lower bound at all
    with pytest.raises(LatticeCheckFailed):
        bitset_meet([0b01, 0b10], 0, 1)


def test_weak_order_exhaustive_up_to_4000_elements():
    data = weak_order(build_group(root_system("D5")))
    assert data.exhaustive
    assert data.checked_pairs == 1920 * 1919 // 2
    assert len(data.covers) == 1920 * 5 // 2
