"""Generalized associahedra over a finite crystallographic root system.

The chain runs: the almost-positive roots carry two involutions built from
the bipartition of the Dynkin diagram; alternating them reduces any pair of
roots to one involving a negated simple root, which decides compatibility;
the clique complex of the compatibility graph is the cluster complex; a
tau-invariant support function turns it into an explicit simple polytope
whose normal fan refines into the Coxeter fan after one linear change of
coordinates.  Everything is exact: one walk across the walls of the complex
keeps each cluster's dual basis as an integer matrix, changed by one integer
pivot per flip, so every cluster is a basis of the root lattice and every
vertex is rational; counts are compared to the product formula over the
exponents.  The dual bases are the one cone representation: a vector's
coefficients over a cluster are its pairings with them.  The complex stores
them with the root entering across each wall, so the vertices, their
convexity (one inequality per wall) and the refinement by the Coxeter fan
all read them, nothing walks twice, and nothing is inverted.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import struct
from array import array
from bisect import bisect
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import cartan as cartan_mod
from .coxeter import BudgetExceeded, WeylGroup
from .roots import (
    NotIrreducible,
    RootSystem,
    catalan_number,
    coroot_half_sum,
    coxeter_data,
)


class OrbitEscape(RuntimeError):
    """An orbit of pairs under the involutions holds no negated simple root;
    indicates a bug, not bad input."""


class OrbitConflict(RuntimeError):
    """Two propagation paths assigned different support values to one root."""


class NonUnimodularCluster(RuntimeError):
    """A flip's entering root has a coefficient other than -1 on the leaving
    root: the new cluster is not a basis of the root lattice, or it lies on
    the same side of the wall as the old one."""


class InequalityViolation(RuntimeError):
    """A polytope vertex missed a facet of its own cluster, or landed on or
    outside a facet it should avoid."""


class AssocCheckFailed(RuntimeError):
    """A structural invariant of the cluster complex, the polytope or the
    fan failed: a bug, never bad input."""


@dataclass(frozen=True)
class AlmostPositive:
    """The almost-positive roots (negated simples first, then all positive
    roots) together with the two involutions indexed by the bipartition."""

    rs: RootSystem
    parts: tuple[frozenset[int], frozenset[int]]
    indices: tuple[int, ...]
    position: Mapping[int, int]
    tau_plus: Mapping[int, int]
    tau_minus: Mapping[int, int]

    @property
    def n(self) -> int:
        return self.rs.n

    def negative_simple(self, idx: int) -> int | None:
        """The simple index i when idx is the root -alpha_i, else None."""
        coords = self.rs.roots[idx].coords
        if sum(coords) == -1 and min(coords) == -1:
            return coords.index(-1)
        return None

    def tau(self, sign: int, idx: int) -> int:
        return self.tau_plus[idx] if sign > 0 else self.tau_minus[idx]


def almost_positive(rs: RootSystem) -> AlmostPositive:
    parts = cartan_mod.bipartition(rs.cartan)
    negatives = tuple(rs.negate(rs.simple_index[i]) for i in range(rs.n))
    positives = tuple(i for i in range(len(rs.roots)) if rs.is_positive(i))
    indices = negatives + positives
    position = {idx: p for p, idx in enumerate(indices)}

    def build(part: frozenset[int], fixed: frozenset[int]) -> dict[int, int]:
        """tau over one part: the product of its (commuting) simple
        reflections, except that it fixes -alpha_i for i in the other part."""
        perm = rs.word_perm(sorted(part))
        table = {}
        for idx in indices:
            coords = rs.roots[idx].coords
            if sum(coords) == -1 and min(coords) == -1 and coords.index(-1) in fixed:
                table[idx] = idx
            else:
                table[idx] = perm[idx]
        for idx, image in table.items():
            if image not in position or table[image] != idx:
                raise AssocCheckFailed(
                    f"tau must be an involution of the almost-positive roots, not at {idx}"
                )
        return table

    plus, minus = parts
    return AlmostPositive(
        rs,
        parts,
        indices,
        position,
        build(plus, minus),
        build(minus, plus),
    )


def tau_orbits(ap: AlmostPositive) -> list[tuple[int, ...]]:
    """Orbits of the group generated by the two involutions."""
    seen: set[int] = set()
    orbits = []
    for idx in ap.indices:
        if idx in seen:
            continue
        orbit = {idx}
        frontier = [idx]
        while frontier:
            x = frontier.pop()
            for image in (ap.tau_plus[x], ap.tau_minus[x]):
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append(tuple(sorted(orbit, key=lambda i: ap.position[i])))
    return orbits


def tau_order(ap: AlmostPositive) -> int:
    """Order of the composite involution pair, checked against the closed
    form: (h+2)/2 when the longest element is -1, else h+2."""
    composite = {idx: ap.tau_minus[ap.tau_plus[idx]] for idx in ap.indices}
    order = 1
    for start in ap.indices:
        length = 1
        x = composite[start]
        while x != start:
            x = composite[x]
            length += 1
        order = math.lcm(order, length)
    h = coxeter_data(ap.rs).coxeter_number
    w0 = ap.rs.longest_element()
    w0_is_minus_one = all(
        w0[idx] == ap.rs.negate(idx) for idx in range(len(ap.rs.roots))
    )
    expected = (h + 2) // 2 if w0_is_minus_one else h + 2
    if order != expected:
        raise AssocCheckFailed(f"tau order {order}, the closed form gives {expected}")
    return order


@dataclass(frozen=True)
class CompatibilityRelation:
    ap: AlmostPositive
    pairs: frozenset[tuple[int, int]]  # positions, ordered

    def compatible(self, idx1: int, idx2: int) -> bool:
        p, q = self.ap.position[idx1], self.ap.position[idx2]
        if p == q:
            return False
        return (min(p, q), max(p, q)) in self.pairs


def compatibility(ap: AlmostPositive) -> CompatibilityRelation:
    """Decide compatibility on the orbits of pairs under the two involutions,
    acting diagonally, each pair visited once.  The support rule is read off
    every pair of an orbit that holds a negated simple root; those verdicts
    must agree, and an orbit without such a pair is a fatal inconsistency."""
    rs, indices = ap.rs, ap.indices
    size = len(indices)
    taus = [[ap.position[ap.tau(sign, idx)] for idx in indices] for sign in (1, -1)]
    simple = [ap.negative_simple(idx) for idx in indices]
    coords = [rs.roots[idx].coords for idx in indices]

    def support_verdicts(p: int, q: int) -> list[bool]:
        out = []
        for x, y in ((p, q), (q, p)):
            i = simple[x]
            if i is not None:
                out.append(coords[y][i] == 0)
        return out

    seen = bytearray(size * size)  # p * size + q for the pair p < q
    pairs: set[tuple[int, int]] = set()
    for start in itertools.combinations(range(size), 2):
        if seen[start[0] * size + start[1]]:
            continue
        seen[start[0] * size + start[1]] = 1
        orbit = [start]
        verdicts: list[bool] = []
        for p, q in orbit:
            verdicts.extend(support_verdicts(p, q))
            for tau in taus:
                a, b = sorted((tau[p], tau[q]))
                if not seen[a * size + b]:
                    seen[a * size + b] = 1
                    orbit.append((a, b))
        a, b = indices[start[0]], indices[start[1]]
        if not verdicts:
            raise OrbitEscape(f"pair {a},{b} never met a negated simple root")
        if any(v != verdicts[0] for v in verdicts):
            raise AssocCheckFailed(f"pair {a},{b} got disagreeing verdicts {verdicts}")
        if verdicts[0]:
            pairs.update(orbit)
    return CompatibilityRelation(ap, frozenset(pairs))


# the largest cluster complex built: Cat(E8) = 25,080 and Cat(A10) = 58,786
# fit, Cat(A11) = 208,012 does not
FACET_BUDGET = 60_000


@dataclass(frozen=True)
class ClusterComplexData:
    ap: AlmostPositive
    facets: tuple[tuple[int, ...], ...]  # root indices, each of size n
    f_vector: tuple[int, ...]
    h_vector: tuple[int, ...]
    # Per position p, the positions q compatible with it, as the bits top - q
    # where top is the last position.  Read this way, a set of positions is
    # the larger the earlier it comes in lexicographic order.
    masks: tuple[int, ...]
    # What the wall walk keeps of facet i: its dual basis D from offset
    # i * n * n on, as n columns of n entries with root k of the facet
    # paired to column l as delta_kl; and from offset i * n on, per slot j,
    # the position of the root that enters across the wall opposite slot j.
    duals: array  # signed bytes
    entering: array  # unsigned shorts

    def dual_basis(self, i: int) -> list[list[int]]:
        """The columns of the dual basis of facet i."""
        n = self.ap.n
        flat = self.duals[i * n * n : (i + 1) * n * n].tolist()
        return [flat[k : k + n] for k in range(0, n * n, n)]


def _h_from_f(f_vector: Sequence[int], n: int) -> tuple[int, ...]:
    """Reverse-Pascal conversion: expand sum_i f_(i-1) (q-1)^(n-i)."""
    coeffs = [0] * (n + 1)
    for i, f in enumerate(f_vector):  # f_(i-1) multiplies (q-1)^(n-i)
        power = n - i
        for j in range(power + 1):
            coeffs[j] += f * math.comb(power, j) * (-1) ** (power - j)
    if any(c < 0 for c in coeffs):
        raise AssocCheckFailed(f"f-vector {tuple(f_vector)} gives a negative h-vector")
    return tuple(reversed(coeffs))


def cluster_complex(rel: CompatibilityRelation) -> ClusterComplexData:
    """All pairwise-compatible root sets, by backtracking over the bitmasks
    of compatible positions, in lexicographic position order.  The complex
    must be pure of dimension n-1.  The wall walk `_walk` then certifies a
    complete simplicial fan of unimodular cones: every wall lies in exactly
    two facets, adjacent cones lie on opposite sides of it, and the signs of
    one generic vector against the dual bases count the h-vector, whose
    h_0 = 1 puts that vector in exactly one cone.  The complex keeps the
    walk's dual bases and entering roots, so nothing walks again.

    The number of facets, Cat(W), is read off the exponents first; over
    FACET_BUDGET the complex is refused with BudgetExceeded."""
    ap = rel.ap
    size = catalan_number(ap.rs)
    if size > FACET_BUDGET:
        raise BudgetExceeded(
            f"cluster complex has {size} facets, over the budget of {FACET_BUDGET}"
        )
    n = ap.n
    top = len(ap.indices) - 1
    masks = [0] * (top + 1)
    for p, q in rel.pairs:
        masks[p] |= 1 << (top - q)
        masks[q] |= 1 << (top - p)
    sizes = [0] * (n + 1)
    sizes[0] = 1
    facets: list[tuple[int, ...]] = []

    def grow(current: list[int], greater: int, extensions: int):
        """greater drives duplicate-free enumeration; extensions holds every
        vertex compatible with the whole current face, which is what purity
        is about."""
        size = len(current)
        if size == n:
            facets.append(tuple(ap.indices[p] for p in current))
            return
        if size and not extensions:
            raise AssocCheckFailed(f"maximal face of size {size} < {n}: not pure")
        sizes[size + 1] += greater.bit_count()
        while greater:
            bit = greater.bit_length() - 1
            greater ^= 1 << bit
            p = top - bit
            grow(current + [p], greater & masks[p], extensions & masks[p])

    everything = (2 << top) - 1
    grow([], everything, everything)
    f_vector = tuple(sizes)
    if f_vector[n] != len(facets):
        raise AssocCheckFailed(f"f_{n - 1} = {f_vector[n]} but {len(facets)} facets")
    h_vector = _h_from_f(f_vector, n)
    duals, entering, rising = _walk(ap, masks, facets)
    if tuple(rising) != h_vector:
        raise AssocCheckFailed(
            f"a generic vector meets the cones with h-vector {tuple(rising)},"
            f" the f-vector gives {h_vector}"
        )
    return ClusterComplexData(
        ap, tuple(facets), f_vector, h_vector, tuple(masks), duals, entering
    )


def _lex_negatives(columns: Sequence[tuple[int, ...]]) -> int:
    """How many columns pair negatively with x = (1, e, e^2, ...) for every
    small enough e > 0: a generic vector, fixed once for all clusters, that
    pairs to zero with no nonzero column.  A column pairs with it as its
    first nonzero entry, so negatively exactly when the column comes before
    the zero column in lexicographic order."""
    zero = (0,) * len(columns[0])
    if zero in columns:
        raise AssocCheckFailed("a dual basis vector is zero")
    return sum(map(zero.__gt__, columns))


def _pivot(
    columns: Sequence[Sequence[int]], j: int, gamma: Sequence[int]
) -> list[Sequence[int]]:
    """The dual basis after the root at slot j leaves and gamma enters at the
    same slot, given gamma . D_j = -1: D'_j = -D_j and
    D'_k = D_k + (gamma . D_k) D_j."""
    leaving = columns[j]
    out = []
    for k, column in enumerate(columns):
        if k == j:
            out.append([-x for x in leaving])
            continue
        c = sum(map(operator.mul, gamma, column))
        out.append([x + c * y for x, y in zip(column, leaving)] if c else column)
    return out


def _walk(
    ap: AlmostPositive, masks: Sequence[int], facets: Sequence[tuple[int, ...]]
) -> tuple[array, array, list[int]]:
    """Walk the facets breadth-first across their walls and keep, laid out
    as in ClusterComplexData, each facet's dual basis D (integer columns
    with root i of the facet paired to column k as delta_ik) and the
    position of the root entering at each slot.  The third result counts
    the facets by how many columns of D pair negatively with the generic
    vector of `_lex_negatives`.

    The walk starts at the negated simple roots, where D = -I.  Across the
    wall opposite slot j, the entering root gamma is the one position left
    in the intersection of the other n-1 compatibility masks besides the
    leaving root; none or two or more mean the wall does not lie in exactly
    two clusters.  gamma . D_j = -1 says at once that gamma lies on the other
    side of the wall and that the new cluster is again a lattice basis; the
    new D is one integer pivot away (`_pivot`), so B . D = I with D integral
    holds on every cluster reached.  Every flip must land on one of
    `facets`, each listed in ascending position order, and the walk must
    reach all of them.

    An entry of D is a simple root's coefficient over a cluster.  The
    largest under FACET_BUDGET is 6, on E8, so a signed byte holds it;
    `struct` refuses with struct.error any that a byte could not hold."""
    n, top = ap.n, len(ap.indices) - 1
    size = n * n
    layout = struct.Struct(f"{size}b")  # one dual basis, column by column
    coords = [ap.rs.roots[idx].coords for idx in ap.indices]
    position = ap.position
    # a facet's key has the bits of its positions, as in the masks
    keys = [sum(1 << (top - position[idx]) for idx in facet) for facet in facets]
    index = {key: i for i, key in enumerate(keys)}
    everything = (2 << top) - 1
    if keys[0] != everything ^ (everything >> n):  # positions 0..n-1
        raise AssocCheckFailed("the negated simple roots do not form the first facet")
    duals = array("b", [0]) * (len(keys) * size)
    layout.pack_into(duals, 0, *[-int(i == k) for k in range(n) for i in range(n)])
    entering = array("H", [0]) * (len(keys) * n)
    rising = [0] * (n + 1)
    seen = bytearray(len(keys))
    seen[0] = 1
    reached = 1
    # A facet's dual basis is stored when the walk first reaches it, so the
    # queue holds facet indices alone.
    queue = deque([0])
    while queue:
        i = queue.popleft()
        key = keys[i]
        flat = layout.unpack_from(duals, i * size)
        columns = [flat[k : k + n] for k in range(0, size, n)]
        rising[_lex_negatives(columns)] += 1
        positions = [position[idx] for idx in facets[i]]
        # the masks of the slots after j, intersected outside the facet
        after = [everything ^ key]
        for q in reversed(positions[1:]):
            after.append(after[-1] & masks[q])
        before = -1  # the masks of the slots before j
        for j, p in enumerate(positions):
            common = before & after[n - 1 - j]
            before &= masks[p]
            if not common or common & (common - 1):
                wall = tuple(ap.indices[q] for q in positions if q != p)
                raise AssocCheckFailed(
                    f"wall {wall} lies in {1 + common.bit_count()} clusters, not 2"
                )
            q = top - (common.bit_length() - 1)
            entering[i * n + j] = q
            gamma = coords[q]
            c = sum(map(operator.mul, gamma, columns[j]))
            if c != -1:
                raise NonUnimodularCluster(
                    f"root {ap.indices[q]} enters facet {facets[i]} at slot {j}"
                    f" with coefficient {c}, not -1"
                )
            target = index.get(key ^ (1 << (top - p)) | common)
            if target is None:
                raise AssocCheckFailed(f"a flip of facet {facets[i]} left the complex")
            if seen[target]:
                continue
            seen[target] = 1
            reached += 1
            new_columns = _pivot(columns, j, gamma)
            new_columns.insert(bisect(positions, q) - (q > p), new_columns.pop(j))
            layout.pack_into(
                duals, target * size, *[x for column in new_columns for x in column]
            )
            queue.append(target)
    if reached != len(keys):
        raise AssocCheckFailed(f"the wall walk reached {reached} of {len(keys)} facets")
    return duals, entering, rising


def n_phi(rs: RootSystem) -> int:
    """The product formula over the exponents of an irreducible system."""
    if len(rs.dynkin) != 1:
        raise NotIrreducible(
            f"n_phi needs an irreducible system, got {cartan_mod.dynkin_name(rs.dynkin)}"
        )
    return catalan_number(rs)


_FIXED_NARAYANA = {
    "E6": (1, 36, 204, 351, 204, 36, 1),
    "E7": (1, 63, 546, 1470, 1470, 546, 63, 1),
    "E8": (1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1),
    "F4": (1, 24, 55, 24, 1),
    "G2": (1, 6, 1),
}


def narayana(rs: RootSystem) -> tuple[int, ...]:
    """Closed forms per irreducible family (types B and C share a Weyl group
    and hence a vector)."""
    dtype = cartan_mod.classify(rs.cartan)
    if len(dtype) != 1:
        raise ValueError("closed forms cover irreducible systems only")
    family, n = dtype[0]
    if family == "A":
        out = tuple(
            math.comb(n + 1, k) * math.comb(n + 1, k + 1) // (n + 1)
            for k in range(n + 1)
        )
    elif family in ("B", "C"):
        out = tuple(math.comb(n, k) ** 2 for k in range(n + 1))
    elif family == "D":
        middle = []
        for k in range(1, n):
            term, rem = divmod(n * math.comb(n - 1, k - 1) * math.comb(n - 1, k), n - 1)
            if rem:
                raise AssocCheckFailed(f"D{n} Narayana term {k} is not integral")
            middle.append(math.comb(n, k) ** 2 - term)
        out = (1, *middle, 1)
    else:
        out = _FIXED_NARAYANA[f"{family}{n}"]
    if sum(out) != n_phi(rs):
        raise AssocCheckFailed(f"Narayana numbers {out} do not sum to N(Phi)")
    return out


# -- support function and the polytope ----------------------------------------------


@dataclass(frozen=True)
class SupportFunctionF:
    ap: AlmostPositive
    values: Mapping[int, Fraction]

    def __call__(self, idx: int) -> Fraction:
        return self.values[idx]


def support_function(ap: AlmostPositive) -> SupportFunctionF:
    """Seed F on the negated simples with the coroot half-sum coefficients,
    then spread it over the involution orbits.  The seed must be invariant
    under the diagram symmetry induced by the longest element, and strictly
    positive against every Cartan column."""
    rs = ap.rs
    rho = coroot_half_sum(rs)

    w0 = rs.longest_element()
    for i in range(rs.n):
        image = w0[rs.simple_index[i]]
        i_star = rs.roots[rs.negate(image)].coords.index(1)
        if rho[i] != rho[i_star]:
            raise AssocCheckFailed(f"seed is not (-w0)-invariant at node {i}")
    for j, s in enumerate(rs.simple_index):
        column = sum(map(operator.mul, rho, rs.roots[s].pairing))
        if column <= 0:
            raise AssocCheckFailed(f"column {j} fails strict positivity")

    values: dict[int, Fraction] = {}
    for orbit in tau_orbits(ap):
        anchors = [ap.negative_simple(idx) for idx in orbit]
        seeds = {rho[i] for i in anchors if i is not None}
        if not seeds:
            raise OrbitEscape(f"orbit {orbit} misses the negated simples")
        if len(seeds) > 1:
            raise OrbitConflict(f"orbit {orbit} received values {seeds}")
        value = seeds.pop()
        for idx in orbit:
            values[idx] = value
    return SupportFunctionF(ap, values)


@dataclass(frozen=True)
class AssociahedronPolytope:
    """One vertex per cluster, one linear inequality per almost-positive
    root.  Coordinates live in the dual space: the j-th coordinate of z is
    its pairing with the j-th simple root, so a root with simple-basis
    coordinates c pairs with z as the dot product c . z."""

    ap: AlmostPositive
    support: SupportFunctionF
    facets: tuple[tuple[int, ...], ...]  # clusters, aligned with vertices
    vertices: tuple[tuple[Fraction, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(len(self.facets)):
            si = set(self.facets[i])
            for j in range(i + 1, len(self.facets)):
                if len(si & set(self.facets[j])) == self.ap.n - 1:
                    out.append((i, j))
        return out


def build_polytope(complex_data: ClusterComplexData) -> AssociahedronPolytope:
    """One vertex per cluster, cut out by the support function b of the
    complex's almost-positive roots.  Scaled by one common denominator, the
    support values become integers, and the vertex of a cluster F is
    v_F = sum_k b_k D_k over the dual basis D stored with the complex: an
    integer point, `scale` times the vertex.  Each root of F must pair with
    it to its own bound.

    That v_F lies strictly below b on every other root is checked one wall
    at a time, the step of Chapoton-Fomin-Zelevinsky (math/0202004).  The
    root gamma entering F across the wall opposite slot j has coefficients
    c_k = gamma . D_k over F, with c_j = -1, so the check gamma . v_F <
    b_gamma is their wall-crossing inequality
    b_gamma + b_(beta_j) > sum_(k != j) c_k b_(beta_k).  It says that the
    function which is linear on each cone and takes the value b_beta at
    each ray beta is strictly convex across the wall.  The walk of
    `cluster_complex` has certified that the cones form a complete
    simplicial fan.  On a line that meets no cone of codimension two, the
    function is then piecewise linear in one variable with a strict bend
    at every break, so it is strictly convex along the line; such lines
    are dense, so it is strictly convex everywhere.  It is therefore the
    maximum of the linear functions x -> x . v_F, each attained on its own
    cone alone.  A root rho outside F spans a ray of the fan outside the
    cone of F, so rho . v_F < b_rho: every vertex lies strictly inside
    every facet inequality but its own n."""
    ap = complex_data.ap
    n = ap.n
    support = support_function(ap)
    scale = math.lcm(*(support(idx).denominator for idx in ap.indices))
    bounds = [int(support(idx) * scale) for idx in ap.indices]  # by position
    coords = [ap.rs.roots[idx].coords for idx in ap.indices]
    entering = complex_data.entering
    points = []  # scale times the vertices
    for i, facet in enumerate(complex_data.facets):
        own = [ap.position[idx] for idx in facet]
        b = [bounds[p] for p in own]
        columns = complex_data.dual_basis(i)
        point = tuple([sum(map(operator.mul, b, row)) for row in zip(*columns)])
        for p in own:
            if sum(map(operator.mul, coords[p], point)) != bounds[p]:
                raise InequalityViolation(
                    f"vertex of {facet} misses facet {ap.indices[p]}"
                )
        for q in entering[i * n : (i + 1) * n]:
            pairing = sum(map(operator.mul, coords[q], point))
            if pairing >= bounds[q]:
                raise InequalityViolation(
                    f"vertex of {facet} pairs to {Fraction(pairing, scale)}"
                    f" against root {ap.indices[q]}"
                )
        points.append(point)
    if len(set(points)) != len(points):
        raise AssocCheckFailed("two clusters share a vertex")
    # the points share few distinct coordinates; each becomes a Fraction once
    fraction = {x: Fraction(x, scale) for x in set(itertools.chain.from_iterable(points))}
    vertices = tuple(tuple(map(fraction.__getitem__, point)) for point in points)
    return AssociahedronPolytope(ap, support, complex_data.facets, vertices)


# -- fan checks ---------------------------------------------------------------------


def wall_pairing(complex_data: ClusterComplexData) -> dict:
    """Every wall (an (n-1)-subset of a cluster) must lie in exactly two
    clusters; this is the pseudomanifold property of a complete simplicial
    fan."""
    counts: dict[tuple[int, ...], int] = {}
    for facet in complex_data.facets:
        for drop in range(len(facet)):
            wall = facet[:drop] + facet[drop + 1 :]
            counts[wall] = counts.get(wall, 0) + 1
    bad = {w: c for w, c in counts.items() if c != 2}
    return {"walls": len(counts), "all_paired": not bad, "violations": bad}


def refinement_check(
    complex_data: ClusterComplexData, group: WeylGroup
) -> dict:
    """The Coxeter fan refines the cluster fan after the linear map sending
    the i-th simple root to sigma_i times the i-th fundamental weight, with
    sigma_i = 1 on the plus part of the bipartition and -1 on the minus
    part (Fomin-Zelevinsky): each Weyl chamber lies inside a single image
    cone.

    Everything is read in fundamental-weight coordinates, where the map is
    y -> sigma y, coordinate by coordinate.  A ray y lies in the image of a
    cluster's cone exactly when (sigma y) . D_k >= 0 for every column D_k
    of the dual basis that the complex keeps for the cluster.  The rays of
    the chamber of u are the u(omega_k), the integer columns of a matrix
    M[u].  Since s_j omega_k = omega_k - delta_jk alpha_j and alpha_j is
    the pairing vector p of the j-th simple root, M[u s_j] differs from M[u]
    in column j alone, which becomes col_j - sum_k p_k col_k; so the
    matrices are walked along the discoverer chain of the Cayley table."""
    ap = complex_data.ap
    n = ap.n
    alphas = [ap.rs.roots[s].pairing for s in ap.rs.simple_index]
    plus, _ = ap.parts
    sigma = [1 if i in plus else -1 for i in range(n)]
    # each cone as the rows sigma D_k, which pair with a ray like D_k with sigma y
    cones = [
        [[s * x for s, x in zip(sigma, column)] for column in complex_data.dual_basis(c)]
        for c in range(len(complex_data.facets))
    ]
    members: dict[tuple[int, ...], int] = {}  # ray -> bitmask of the cones holding it

    def cones_holding(ray: tuple[int, ...]) -> int:
        mask = members.get(ray)
        if mask is None:
            mask = members[ray] = sum(
                1 << c
                for c, rows in enumerate(cones)
                if all(sum(map(operator.mul, row, ray)) >= 0 for row in rows)
            )
        return mask

    per_cone: dict[int, int] = {}
    chambers = [tuple(tuple(int(i == k) for i in range(n)) for k in range(n))]
    for u, row in enumerate(group.right):
        rays = chambers[u]
        chambers[u] = None  # no later row of the table reads M[u]
        common = -1
        for ray in rays:
            common &= cones_holding(ray)
        if not common or common & (common - 1):
            held = {c for c in range(len(cones)) if common >> c & 1}
            raise AssocCheckFailed(f"chamber {u} lies in cones {held}")
        home = common.bit_length() - 1
        per_cone[home] = per_cone.get(home, 0) + 1
        for j, v in enumerate(row):
            if v == len(chambers):
                column = tuple(
                    x - sum(map(operator.mul, alphas[j], entries))
                    for x, entries in zip(rays[j], zip(*rays))
                )
                chambers.append(rays[:j] + (column,) + rays[j + 1 :])
    return {
        "cones_used": len(per_cone),
        "cones_total": len(complex_data.facets),
        "regions": len(group),
        "max_regions_in_cone": max(per_cone.values()),
        "regions_per_cone": dict(sorted(per_cone.items())),
    }


def fan_checks(complex_data: ClusterComplexData, group: WeylGroup | None = None) -> dict:
    """The wall pairing and, given the Weyl group, the refinement by the
    Coxeter fan.  That the cones cover the space without overlap needs no
    probe here: `cluster_complex` has already walked the walls, and the
    h_0 = 1 count puts one generic vector in exactly one cone."""
    report: dict = {"wall_pairing": wall_pairing(complex_data)}
    if group is not None:
        report["refinement"] = refinement_check(complex_data, group)
    return report


# -- export -------------------------------------------------------------------------


def polytope_json(poly: AssociahedronPolytope) -> str:
    rs = poly.ap.rs
    facet_rows = [
        {
            "root": list(rs.roots[idx].coords),
            "rhs": str(poly.support(idx)),
        }
        for idx in poly.ap.indices
    ]
    incidence = []
    for cluster in poly.facets:
        incidence.append([poly.ap.position[idx] for idx in cluster])
    return json.dumps(
        {
            "facets": facet_rows,
            "vertices": [[str(q) for q in v] for v in poly.vertices],
            "incidence": incidence,
        },
        indent=1,
    )


def polytope_off(poly: AssociahedronPolytope) -> str:
    """OFF text for the three-dimensional polytopes; float coordinates are
    fine here because the format is for external viewers only."""
    if poly.ap.n != 3:
        raise ValueError("OFF export is for 3-dimensional polytopes")
    verts = [[float(q) for q in v] for v in poly.vertices]
    faces = []
    for idx in poly.ap.indices:
        ring = [v for v, cluster in enumerate(poly.facets) if idx in cluster]
        normal = poly.ap.rs.roots[idx].coords
        center = [sum(verts[v][k] for v in ring) / len(ring) for k in range(3)]
        u = [verts[ring[0]][k] - center[k] for k in range(3)]
        w = [
            normal[1] * u[2] - normal[2] * u[1],
            normal[2] * u[0] - normal[0] * u[2],
            normal[0] * u[1] - normal[1] * u[0],
        ]
        ring.sort(
            key=lambda v: math.atan2(
                sum((verts[v][k] - center[k]) * w[k] for k in range(3)),
                sum((verts[v][k] - center[k]) * u[k] for k in range(3)),
            )
        )
        faces.append(ring)
    edge_count = len(poly.edges())
    lines = ["OFF", f"{len(verts)} {len(faces)} {edge_count}"]
    for v in verts:
        lines.append(" ".join(f"{x:.6f}" for x in v))
    for ring in faces:
        lines.append(" ".join(str(x) for x in [len(ring), *ring]))
    return "\n".join(lines) + "\n"
