"""Weyl groups as explicit permutation groups on the roots.

Elements are tuples: position r holds the index of the image of root r.
Multiplication w*v composes as functions, (w*v)(r) = w(v(r)), so extending a
word on the right means acting first by the new letter.  Lengths, reduced
words, the two partial orders (weak and absolute) and the longest element
are all computed from this permutation action.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .roots import RootSystem
from . import cartan as cartan_mod

Perm = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    """A search outgrew its element budget."""


class LatticeCheckFailed(RuntimeError):
    """A meet computation found no unique maximal common lower bound."""


class NotCoxeterElement(ValueError):
    """The element is not a product of all simple reflections in any order."""


class WeylGroup:
    def __init__(self, rs: RootSystem, budget: int = 10**6):
        self.rs = rs
        self.n = rs.n
        size = len(rs.roots)
        self.identity: Perm = tuple(range(size))
        self.generators: list[Perm] = [rs.simple_perm(i) for i in range(rs.n)]

        elements: list[Perm] = [self.identity]
        index: dict[Perm, int] = {self.identity: 0}
        lengths: list[int] = [0]
        frontier = [self.identity]
        depth = 0
        while frontier:
            depth += 1
            fresh: list[Perm] = []
            for p in frontier:
                for g in self.generators:
                    q = tuple(p[g[r]] for r in range(size))
                    if q not in index:
                        index[q] = len(elements)
                        elements.append(q)
                        lengths.append(depth)
                        fresh.append(q)
                        if len(elements) > budget:
                            raise BudgetExceeded(
                                f"group exceeded budget of {budget} elements"
                            )
            frontier = fresh
        self.elements = elements
        self.element_index = index
        self.length = lengths

        # Cayley depth must agree with the inversion count
        npos = rs.num_positive
        for p, l in zip(elements, lengths):
            inversions = sum(1 for b in range(npos) if p[b] >= npos)
            assert inversions == l, "BFS depth must equal inversion count"

        longest = max(range(len(elements)), key=lambda i: self.length[i])
        assert (
            sum(1 for i in range(len(elements)) if self.length[i] == self.length[longest])
            == 1
        ), "longest element must be unique"
        self.w0 = longest

        self._reflections: dict[int, int] | None = None
        self._words: dict[int, tuple[int, ...]] = {}

    # -- basic operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def mult(self, u: int, v: int) -> int:
        pu, pv = self.elements[u], self.elements[v]
        return self.element_index[tuple(pu[pv[r]] for r in range(len(pu)))]

    def inverse(self, u: int) -> int:
        p = self.elements[u]
        inv = [0] * len(p)
        for r, image in enumerate(p):
            inv[image] = r
        return self.element_index[tuple(inv)]

    def apply(self, u: int, root_idx: int) -> int:
        return self.elements[u][root_idx]

    def times_generator(self, u: int, i: int) -> int:
        """Right multiplication by s_i."""
        p, g = self.elements[u], self.generators[i]
        return self.element_index[tuple(p[g[r]] for r in range(len(p)))]

    def generator_times(self, i: int, u: int) -> int:
        """Left multiplication by s_i."""
        p, g = self.elements[u], self.generators[i]
        return self.element_index[tuple(g[p[r]] for r in range(len(p)))]

    def right_descents(self, u: int) -> list[int]:
        p = self.elements[u]
        npos = self.rs.num_positive
        return [i for i, s in enumerate(self.rs.simple_index) if p[s] >= npos]

    def left_descents(self, u: int) -> list[int]:
        inv = self.inverse(u)
        return self.right_descents(inv)

    def reduced_word(self, u: int) -> tuple[int, ...]:
        """Lexicographically minimal reduced word (0-based generator indices),
        built greedily from the smallest left descent."""
        cached = self._words.get(u)
        if cached is not None:
            return cached
        word = []
        current = u
        while current != 0:
            i = min(self.left_descents(current))
            word.append(i)
            current = self.generator_times(i, current)
        result = tuple(word)
        self._words[u] = result
        return result

    def act_rational(self, u: int, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Apply an element to a rational coordinate vector over the simple
        roots, letter by letter."""
        vec = tuple(Fraction(v) for v in vector)
        for i in reversed(self.reduced_word(u)):
            vec = self.rs.reflect_rational(i, vec)
        return vec

    # -- reflections -----------------------------------------------------------

    def reflections(self) -> dict[int, int]:
        """Map from positive-root index to the reflection through that root.

        Verified against the intrinsic characterization: the reflections are
        exactly the involutions sending exactly one positive root to its own
        negative.
        """
        if self._reflections is None:
            npos = self.rs.num_positive
            table = {
                b: self.element_index[self.rs.reflection_perm(b)] for b in range(npos)
            }
            by_sigma = set(table.values())
            intrinsic = set()
            for idx, p in enumerate(self.elements):
                negated = sum(1 for b in range(npos) if p[b] == self.rs.negate(b))
                if negated == 1 and self.mult(idx, idx) == 0:
                    intrinsic.add(idx)
            assert by_sigma == intrinsic, "reflection characterizations disagree"
            assert len(by_sigma) == npos
            self._reflections = table
        return self._reflections


def build_group(rs: RootSystem, budget: int = 10**6) -> WeylGroup:
    return WeylGroup(rs, budget=budget)


# -- reduced word counting ----------------------------------------------------


def count_reduced_words(group: WeylGroup, u: int) -> int:
    """Number of reduced words, by summing over right descents."""
    counts: dict[int, int] = {0: 1}
    order = sorted(range(len(group.elements)), key=lambda i: group.length[i])
    for idx in order:
        if idx == 0:
            continue
        total = 0
        for i in group.right_descents(idx):
            total += counts[group.times_generator(idx, i)]
        counts[idx] = total
        if idx == u:
            break
    return counts[u]


def stanley_formula(n: int) -> int:
    """Closed form for the number of reduced words of the longest element in
    the symmetric group on n+1 letters: binom(n+1,2)! / (1^n 3^(n-1) ... (2n-1)^1)."""
    from math import comb, factorial

    numerator = factorial(comb(n + 1, 2))
    denominator = 1
    for k, odd in enumerate(range(1, 2 * n, 2)):
        denominator *= odd ** (n - k)
    assert numerator % denominator == 0
    return numerator // denominator


# -- weak order ----------------------------------------------------------------


@dataclass(frozen=True)
class WeakOrderData:
    covers: tuple[tuple[int, int, int], ...]  # (lower, generator, upper)
    checked_pairs: int
    exhaustive: bool


SAMPLE_SEED = 7


def weak_order(group: WeylGroup) -> WeakOrderData:
    """Right weak order: covers u < u s_i when the length goes up.

    Performs the lattice check: every pair has a unique maximal common lower
    bound that dominates all others.  Exhaustive up to 1000 elements,
    sampling 2000 pairs (seeded by SAMPLE_SEED) above.  Raises
    LatticeCheckFailed on any failure.
    """
    size = len(group.elements)
    covers = []
    for u in range(size):
        for i in range(group.n):
            v = group.times_generator(u, i)
            if group.length[v] == group.length[u] + 1:
                covers.append((u, i, v))

    def leq(a: int, b: int) -> bool:
        gap = group.length[b] - group.length[a]
        if gap < 0:
            return False
        link = group.mult(group.inverse(a), b)
        return group.length[link] == gap

    def meet(a: int, b: int) -> int:
        lower = [t for t in range(size) if leq(t, a) and leq(t, b)]
        best = max(lower, key=lambda t: group.length[t])
        ties = [t for t in lower if group.length[t] == group.length[best]]
        if len(ties) != 1:
            raise LatticeCheckFailed(f"no unique maximal lower bound for ({a},{b})")
        for t in lower:
            if not leq(t, best):
                raise LatticeCheckFailed(
                    f"common lower bound {t} incomparable with meet of ({a},{b})"
                )
        return best

    exhaustive = size <= 1000
    if exhaustive:
        pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    else:
        rng = random.Random(SAMPLE_SEED)
        pairs = [
            (rng.randrange(size), rng.randrange(size)) for _ in range(2000)
        ]
    for a, b in pairs:
        meet(a, b)
    return WeakOrderData(tuple(covers), len(pairs), exhaustive)


def hasse_dot(group: WeylGroup, data: WeakOrderData) -> str:
    """DOT digraph of the weak-order Hasse diagram; nodes carry the
    lexicographically minimal reduced word (1-based letters)."""

    def label(u: int) -> str:
        word = group.reduced_word(u)
        return "e" if not word else "".join(str(i + 1) for i in word)

    lines = ["digraph weak_order {", "  rankdir=BT;"]
    for u in range(len(group.elements)):
        lines.append(f'  n{u} [label="{label(u)}"];')
    for lower, i, upper in data.covers:
        lines.append(f'  n{lower} -> n{upper} [label="{i + 1}"];')
    lines.append("}")
    return "\n".join(lines)


# -- absolute order -------------------------------------------------------------


def coxeter_element(group: WeylGroup, order: Sequence[int] | None = None) -> int:
    """Product of all simple reflections, by default in bipartite order
    (plus part first, each part ascending)."""
    if order is None:
        plus, minus = cartan_mod.bipartition(group.rs.cartan)
        order = sorted(plus) + sorted(minus)
    if sorted(order) != list(range(group.n)):
        raise ValueError(f"{order!r} is not an ordering of the {group.n} generators")
    return group.element_index[group.rs.word_perm(order)]


@dataclass(frozen=True)
class AbsoluteInterval:
    coxeter: int
    elements: tuple[int, ...]
    ranks: tuple[int, ...]  # aligned with elements
    rank_counts: tuple[int, ...]  # index = reflection length


def absolute_interval(group: WeylGroup, c: int) -> AbsoluteInterval:
    """The interval [identity, c] in absolute order, with reflection-length
    ranks.  c must be a Coxeter element."""
    target = group.elements[c]
    if not any(
        group.rs.word_perm(order) == target for order in permutations(range(group.n))
    ):
        raise NotCoxeterElement(
            "element is not a product of all simple reflections in any order"
        )

    reflection_elems = sorted(set(group.reflections().values()))
    size = len(group.elements)
    distance = [-1] * size
    distance[0] = 0
    frontier = [0]
    while frontier:
        fresh = []
        for u in frontier:
            for t in reflection_elems:
                v = group.mult(u, t)
                if distance[v] < 0:
                    distance[v] = distance[u] + 1
                    fresh.append(v)
        frontier = fresh
    assert all(d >= 0 for d in distance)
    assert distance[c] == group.n, "Coxeter element must have reflection length n"

    members = []
    ranks = []
    for w in range(size):
        if distance[w] + distance[group.mult(group.inverse(w), c)] == group.n:
            members.append(w)
            ranks.append(distance[w])
    counts = [0] * (group.n + 1)
    for r in ranks:
        counts[r] += 1
    return AbsoluteInterval(c, tuple(members), tuple(ranks), tuple(counts))
