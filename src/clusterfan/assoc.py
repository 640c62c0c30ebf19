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
coefficients over a cluster are its pairings with them, so the vertices and
the refinement by the Coxeter fan both read them, and nothing is inverted.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from bisect import bisect, bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import cartan as cartan_mod
from .coxeter import WeylGroup
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
    must be pure of dimension n-1.  The wall walk `_flips` then certifies a
    complete simplicial fan of unimodular cones: every wall lies in exactly
    two facets, adjacent cones lie on opposite sides of it, and the signs of
    one generic vector against the dual bases count the h-vector, whose
    h_0 = 1 puts that vector in exactly one cone."""
    ap = rel.ap
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
    data = ClusterComplexData(
        ap, tuple(facets), f_vector, _h_from_f(f_vector, n), tuple(masks)
    )
    rising = [0] * (n + 1)
    for _, columns in _flips(data):
        rising[sum(_lex_sign(column) < 0 for column in columns)] += 1
    if tuple(rising) != data.h_vector:
        raise AssocCheckFailed(
            f"a generic vector meets the cones with h-vector {tuple(rising)},"
            f" the f-vector gives {data.h_vector}"
        )
    return data


def _lex_sign(column: Sequence[int]) -> int:
    """The sign of x . column for x = (1, e, e^2, ...) and every small enough
    e > 0: a generic vector, fixed once for all clusters, that pairs to zero
    with no nonzero column."""
    for entry in column:
        if entry:
            return 1 if entry > 0 else -1
    raise AssocCheckFailed("a dual basis vector is zero")


def _pivot(columns: list[list[int]], j: int, gamma: Sequence[int]) -> list[list[int]]:
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


def _flips(data: ClusterComplexData):
    """Walk the facets breadth-first across their walls and yield each once,
    as (its index in data.facets, its dual basis D): integer columns with
    root i of the facet paired to column k as delta_ik.

    The walk starts at the negated simple roots, where D = -I.  Across the
    wall opposite slot j, the entering root gamma is the one position left
    in the intersection of the other n-1 compatibility masks besides the
    leaving root; none or two or more mean the wall does not lie in exactly
    two clusters.  gamma . D_j = -1 says at once that gamma lies on the other
    side of the wall and that the new cluster is again a lattice basis; the
    new D is one integer pivot away (`_pivot`), so B . D = I with D integral
    holds on every cluster reached.  Every flip must land on a facet of the
    complex, and the walk must reach all of them."""
    ap, masks = data.ap, data.masks
    n, top = ap.n, len(ap.indices) - 1
    coords = [ap.rs.roots[idx].coords for idx in ap.indices]
    # A facet's key has the bits of its positions, as in the masks.  The
    # facets come in lexicographic order, so their negated keys ascend and
    # bisection finds a key's facet.
    keys = [
        -sum(1 << (top - ap.position[idx]) for idx in facet) for facet in data.facets
    ]
    everything = (2 << top) - 1
    key = everything ^ (everything >> n)  # the negated simples, positions 0..n-1
    if keys[0] != -key:
        raise AssocCheckFailed("the negated simple roots do not form the first facet")
    seen = bytearray(len(keys))
    seen[0] = 1
    reached = 1
    # A queued facet is its index, its key and its dual basis as one flat
    # list.  Lists, unlike the small tuples the walk would otherwise make by
    # the thousand, are not kept on the interpreter's free lists once freed.
    queue = deque([(0, key, [-int(i == k) for k in range(n) for i in range(n)])])
    while queue:
        i, key, flat = queue.popleft()
        columns = [flat[k : k + n] for k in range(0, n * n, n)]
        positions = []
        rest = key
        while rest:
            bit = rest.bit_length() - 1
            positions.append(top - bit)
            rest ^= 1 << bit
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
            gamma = coords[q]
            c = sum(map(operator.mul, gamma, columns[j]))
            if c != -1:
                raise NonUnimodularCluster(
                    f"root {ap.indices[q]} enters facet {data.facets[i]} at slot {j}"
                    f" with coefficient {c}, not -1"
                )
            new_key = key ^ (1 << (top - p)) | common
            target = bisect_left(keys, -new_key)
            if target == len(keys) or keys[target] != -new_key:
                raise AssocCheckFailed(f"a flip of facet {data.facets[i]} left the complex")
            if seen[target]:
                continue
            seen[target] = 1
            reached += 1
            new_columns = _pivot(columns, j, gamma)
            new_columns.insert(bisect(positions, q) - (q > p), new_columns.pop(j))
            queue.append((target, new_key, [x for col in new_columns for x in col]))
        yield i, columns
    if reached != len(keys):
        raise AssocCheckFailed(f"the wall walk reached {reached} of {len(keys)} facets")


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
    for j in range(rs.n):
        column = sum(rho[i] * rs.cartan[i][j] for i in range(rs.n))
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
    """One vertex per cluster, cut out by the support function of the
    complex's almost-positive roots.  Scaled by one common denominator, the
    support values b become integers, and the vertex of a cluster is
    sum_k b_k D_k over the dual basis D that the wall walk keeps for it: an
    integer point, `scale` times the vertex.  Every vertex is then paired
    with every almost-positive root as an integer dot product: equal to the
    bound on its own cluster, strictly below it on every other root."""
    ap = complex_data.ap
    rs = ap.rs
    support = support_function(ap)
    scale = math.lcm(*(support(idx).denominator for idx in ap.indices))
    bounds = {idx: int(support(idx) * scale) for idx in ap.indices}
    inequalities = [(rs.roots[idx].coords, idx, bounds[idx]) for idx in ap.indices]
    vertices: list = [None] * len(complex_data.facets)
    for i, columns in _flips(complex_data):
        facet = complex_data.facets[i]
        b = [bounds[idx] for idx in facet]
        point = [sum(map(operator.mul, b, row)) for row in zip(*columns)]
        in_facet = set(facet)
        for coords, idx, bound in inequalities:
            pairing = sum(map(operator.mul, coords, point))
            if idx in in_facet:
                if pairing != bound:
                    raise InequalityViolation(f"vertex of {facet} misses facet {idx}")
            elif pairing >= bound:
                raise InequalityViolation(
                    f"vertex of {facet} pairs to {Fraction(pairing, scale)}"
                    f" against root {idx}"
                )
        vertices[i] = tuple(Fraction(x, scale) for x in point)
    if len(set(vertices)) != len(vertices):
        raise AssocCheckFailed("two clusters share a vertex")
    return AssociahedronPolytope(
        ap, support, complex_data.facets, tuple(vertices)
    )


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
    of the dual basis that the wall walk keeps for the cluster.  The rays of
    the chamber of u are the u(omega_k), the integer columns of a matrix
    M[u].  Since s_j omega_k = omega_k - delta_jk alpha_j and alpha_j is
    column j of the Cartan matrix, M[u s_j] differs from M[u] in column j
    alone, which becomes col_j - sum_k cartan[k][j] col_k; so the matrices
    are walked along the discoverer chain of the Cayley table."""
    ap = complex_data.ap
    n = ap.n
    alphas = list(zip(*ap.rs.cartan))  # alpha_j in fundamental-weight coordinates
    plus, _ = ap.parts
    sigma = [1 if i in plus else -1 for i in range(n)]
    # each cone as the rows sigma D_k, which pair with a ray like D_k with sigma y
    cones: list = [None] * len(complex_data.facets)
    for c, columns in _flips(complex_data):
        cones[c] = [[s * x for s, x in zip(sigma, column)] for column in columns]
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
