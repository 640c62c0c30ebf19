"""Finite crystallographic root systems in simple-root coordinates.

A root is stored as its integer coordinate vector c over the simple roots
and its pairing vector p = A c, the numbers <beta, alpha_i^vee>, which are
its fundamental-weight coordinates.  With (alpha_i, alpha_j) = d_i a_ij, D
the minimal symmetrizer, every root datum is read off p in O(n) and stays
exact: s_i beta = beta - p_i alpha_i, (beta, beta) = sum_i c_i d_i p_i, and
the reflection through beta sends r to r - (beta^vee . p(r)) beta.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

from . import cartan as cartan_mod
from .cartan import DynkinType, Entries

# A rank-n system has up to n^2 positive roots and its validation takes
# O(n^3) steps, so a larger rank is refused first; A128 (8,256 positive
# roots) is the largest A_n admitted.
MAX_RANK = 128


class ClosureBudgetExceeded(RuntimeError):
    """The rank is over MAX_RANK: the root system is refused before it is
    validated or closed."""


class NotIrreducible(ValueError):
    """A computation defined for irreducible systems got a composite one."""


class RootCheckFailed(RuntimeError):
    """A root datum broke an identity that holds for every finite
    crystallographic root system: a bug, never bad input."""


@dataclass(frozen=True)
class Root:
    coords: tuple[int, ...]
    pairing: tuple[int, ...]  # <root, alpha_i^vee> = (A coords)_i
    coroot_coords: tuple[int, ...]
    length_half_square: int  # (alpha, alpha) / 2

    @property
    def height(self) -> int:
        return sum(self.coords)


class RootSystem:
    """Roots, indexed positives-first; all group-theoretic actions are
    expressed as permutations of the index range or as integer matrices."""

    def __init__(self, entries: Entries):
        entries = cartan_mod.check_shape(entries)
        self.cartan = entries
        self.n = len(entries)
        if self.n > MAX_RANK:
            raise ClosureBudgetExceeded(
                f"rank {self.n} is over the bound of {MAX_RANK} simple roots"
            )
        self.symmetrizer = cartan_mod.symmetrizer(entries)
        self.dynkin = cartan_mod.classify(entries)
        positives = sorted(self._closure().items(), key=lambda r: (sum(r[0]), r[0]))
        self.num_positive = len(positives)
        negatives = [(tuple(-x for x in c), tuple(-x for x in p)) for c, p in positives]
        self.roots = [self._make_root(c, p) for c, p in positives + negatives]
        self.index = {r.coords: i for i, r in enumerate(self.roots)}
        self.simple_index = [
            self.index[tuple(1 if j == i else 0 for j in range(self.n))]
            for i in range(self.n)
        ]

    # -- construction ------------------------------------------------------

    def _closure(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The positive roots, each mapped to its pairing vector, closed from
        the simples under the s_i with p_i < 0, which raise the height and
        take p to p - p_i (column i of A).  They reach every positive root:
        one that is not simple has some p_i > 0, as sum c_i d_i p_i > 0, and
        s_i lowers it to a positive root (Humphreys, Introduction to Lie
        Algebras and Representation Theory, 10.2, Lemma B)."""
        columns = list(zip(*self.cartan))
        found = {
            tuple(1 if j == i else 0 for j in range(self.n)): columns[i]
            for i in range(self.n)
        }
        frontier = list(found)
        while frontier:
            fresh = []
            for coords in frontier:
                pairing = found[coords]
                for i, p in enumerate(pairing):
                    if p < 0:
                        image = _reflect_simple(coords, i, p)
                        if image not in found:
                            found[image] = tuple(
                                x - p * a for x, a in zip(pairing, columns[i])
                            )
                            fresh.append(image)
            frontier = fresh
        return found

    def _make_root(self, coords: tuple[int, ...], pairing: tuple[int, ...]) -> Root:
        # (beta, beta) = sum_ij c_i c_j d_i a_ij = sum_i c_i d_i p_i
        square = sum(c * d * p for c, d, p in zip(coords, self.symmetrizer, pairing))
        if square <= 0 or square % 2:
            raise RootCheckFailed(f"root {coords} has squared length {square}")
        half = square // 2
        coroot = []
        for c, d in zip(coords, self.symmetrizer):
            if c * d % half:
                raise RootCheckFailed(f"coroot of {coords} is not integral")
            coroot.append(c * d // half)
        return Root(coords, pairing, tuple(coroot), half)

    # -- geometry ----------------------------------------------------------

    def _reflect(self, beta: Root, root: Root) -> tuple[int, ...]:
        """The coordinates of s_beta root = root - (beta^vee . p(root)) beta."""
        k = sum(map(operator.mul, beta.coroot_coords, root.pairing))
        if not k:
            return root.coords
        return tuple(x - k * b for x, b in zip(root.coords, beta.coords))

    # -- permutations ------------------------------------------------------

    @cached_property
    def _simple_perms(self) -> list[tuple[int, ...]]:
        """s_1, ..., s_n as permutations of the root indices, computed once."""
        return [
            tuple(
                self.index[_reflect_simple(r.coords, i, r.pairing[i])] for r in self.roots
            )
            for i in range(self.n)
        ]

    def simple_perm(self, i: int) -> tuple[int, ...]:
        return self._simple_perms[i]

    def reflection_perm(self, root_idx: int) -> tuple[int, ...]:
        beta = self.roots[root_idx]
        return tuple(self.index[self._reflect(beta, r)] for r in self.roots)

    def word_perm(self, word: Sequence[int]) -> tuple[int, ...]:
        """The product s_{w1} ... s_{wk} of simple reflections as a
        permutation of the root indices (position r holds the index of the
        image of root r)."""
        perm = tuple(range(len(self.roots)))
        generators = self._simple_perms
        for i in word:
            perm = tuple(perm[x] for x in generators[i])
        return perm

    def longest_element(self) -> tuple[int, ...]:
        """The longest Weyl group element w0 as a permutation of the root
        indices (position r holds the index of w0(root r)).

        Right multiplication by s_i lengthens w exactly when w sends alpha_i
        to a positive root, so extending the identity that way until no
        simple root stays positive reaches w0 in |positives| steps, without
        enumerating the group."""
        perm = tuple(range(len(self.roots)))
        generators = self._simple_perms
        while True:
            ascents = [
                i for i, s in enumerate(self.simple_index) if self.is_positive(perm[s])
            ]
            if not ascents:
                return perm
            g = generators[ascents[0]]
            perm = tuple(perm[g[r]] for r in range(len(perm)))

    def is_positive(self, idx: int) -> bool:
        return idx < self.num_positive

    def negate(self, idx: int) -> int:
        return idx + self.num_positive if idx < self.num_positive else idx - self.num_positive

    def positive_roots(self) -> list[Root]:
        return self.roots[: self.num_positive]


def _reflect_simple(coords: tuple[int, ...], i: int, p: int) -> tuple[int, ...]:
    """s_i beta = beta - p_i alpha_i, for beta given by coords and p_i = p."""
    return coords[:i] + (coords[i] - p,) + coords[i + 1 :]


def root_system(source: Entries | str | DynkinType) -> RootSystem:
    """Build a root system from a Cartan matrix, a type name like "A3", or a
    parsed Dynkin type."""
    if isinstance(source, str):
        source = cartan_mod.cartan_for_type(source)
    elif source and isinstance(source[0][0], str):
        source = cartan_mod.cartan_for_type(source)  # DynkinType
    return RootSystem(cartan_mod.as_entries(source))


# -- root poset --------------------------------------------------------------


class RootPoset:
    """Componentwise order on positive roots: beta <= gamma iff gamma - beta
    has nonnegative coordinates."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        pos = rs.positive_roots()
        self.size = len(pos)
        self._leq = [
            [
                all(b >= a for a, b in zip(pos[i].coords, pos[j].coords))
                for j in range(self.size)
            ]
            for i in range(self.size)
        ]

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.size):
            for j in range(self.size):
                if i != j and self._leq[i][j]:
                    if not any(
                        k not in (i, j) and self._leq[i][k] and self._leq[k][j]
                        for k in range(self.size)
                    ):
                        out.append((i, j))
        return out

    def incomparable(self, i: int, j: int) -> bool:
        return not (self._leq[i][j] or self._leq[j][i])


# -- numerical invariants ----------------------------------------------------


@dataclass(frozen=True)
class CoxeterData:
    coxeter_number: int
    exponents: tuple[int, ...]
    group_order: int


def _exponents(heights: Iterable[int]) -> list[int]:
    """Exponents of an irreducible system, as the dual partition of the
    height histogram of its positive roots."""
    histogram: dict[int, int] = {}
    for height in heights:
        histogram[height] = histogram.get(height, 0) + 1
    exponents: list[int] = []
    for h in range(1, max(histogram) + 1):
        multiplicity = histogram.get(h, 0) - histogram.get(h + 1, 0)
        if multiplicity < 0:
            raise RootCheckFailed("height histogram must be non-increasing")
        exponents.extend([h] * multiplicity)
    return exponents


def _component_exponents(rs: RootSystem) -> list[list[int]]:
    """The exponents of every irreducible component, read off the root
    heights.  A positive root's support lies in one component."""
    component = {}
    for k, nodes in enumerate(cartan_mod.components(rs.cartan)):
        component.update(dict.fromkeys(nodes, k))
    heights: dict[int, list[int]] = {}
    for root in rs.positive_roots():
        first = next(i for i, c in enumerate(root.coords) if c)
        heights.setdefault(component[first], []).append(root.height)
    return [_exponents(part) for part in heights.values()]


def weyl_group_order(rs: RootSystem) -> int:
    """|W| as the product of (e_i + 1) over the exponents of every
    irreducible component, without building the group."""
    return prod(e + 1 for part in _component_exponents(rs) for e in part)


def catalan_number(rs: RootSystem) -> int:
    """Cat(W), the product over every irreducible component of
    prod (e_i + h + 1) / (e_i + 1), where h - 1 is the largest exponent.
    It counts the antichains of the root poset and the noncrossing
    partitions, among others."""
    total = 1
    for part in _component_exponents(rs):
        h = max(part) + 1
        count, rem = divmod(prod(e + h + 1 for e in part), prod(e + 1 for e in part))
        if rem:
            raise RootCheckFailed(f"Catalan product over exponents {part} is not integral")
        total *= count
    return total


def coxeter_element(rs: RootSystem) -> tuple[int, ...]:
    """The bipartite Coxeter element: the product of all simple reflections,
    plus part first, each part ascending."""
    plus, minus = cartan_mod.bipartition(rs.cartan)
    return rs.word_perm(sorted(plus) + sorted(minus))


def coxeter_data(rs: RootSystem) -> CoxeterData:
    """Coxeter number, exponents and Weyl group order of an irreducible
    system.

    Exponents come from the dual partition of the height histogram of the
    positive roots; the Coxeter number is the order of a bipartite Coxeter
    element as a permutation of the roots; |W| = prod(e_i + 1).  The
    classical cross-identities n h = 2 |positives| and sum(e_i) = |positives|
    are checked (RootCheckFailed).
    """
    if len(rs.dynkin) != 1:
        raise NotIrreducible(
            f"coxeter_data needs an irreducible system, got {cartan_mod.dynkin_name(rs.dynkin)}"
        )
    exponents = _exponents(root.height for root in rs.positive_roots())

    perm = coxeter_element(rs)
    order = 1
    power = perm
    identity = tuple(range(len(rs.roots)))
    while power != identity:
        power = tuple(perm[power[r]] for r in range(len(power)))
        order += 1

    if len(exponents) != rs.n:
        raise RootCheckFailed(f"{len(exponents)} exponents for rank {rs.n}")
    if rs.n * order != 2 * rs.num_positive:
        raise RootCheckFailed(f"n h = {rs.n * order} != 2 |positives| {2 * rs.num_positive}")
    if sum(exponents) != rs.num_positive:
        raise RootCheckFailed(f"exponents sum to {sum(exponents)}, not |positives|")
    return CoxeterData(order, tuple(exponents), weyl_group_order(rs))


def coroot_half_sum(rs: RootSystem) -> tuple[Fraction, ...]:
    """The half-sum of the positive coroots, in simple-coroot coordinates."""
    total = [0] * rs.n
    for idx in range(rs.num_positive):
        for i, c in enumerate(rs.roots[idx].coroot_coords):
            total[i] += c
    return tuple(Fraction(t, 2) for t in total)


def to_json_dict(rs: RootSystem) -> dict:
    """JSON-ready summary; rationals are rendered as "p/q" strings."""
    data = {
        "type": cartan_mod.dynkin_name(rs.dynkin),
        "rank": rs.n,
        "roots": [list(r.coords) for r in rs.roots],
        "positive_roots": [list(r.coords) for r in rs.positive_roots()],
        "cartan": [list(row) for row in rs.cartan],
        "symmetrizer": list(rs.symmetrizer),
    }
    if len(rs.dynkin) == 1:
        cox = coxeter_data(rs)
        data["h"] = cox.coxeter_number
        data["exponents"] = list(cox.exponents)
        data["group_order"] = cox.group_order
    else:
        data["h"] = None
        data["exponents"] = None
        data["group_order"] = None
    return data
