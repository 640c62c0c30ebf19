"""Generalized associahedra over a finite crystallographic root system.

The chain runs: the almost-positive roots carry two involutions built from
the bipartition of the Dynkin diagram; alternating them reduces any pair of
roots to one involving a negated simple root, which decides compatibility;
the clique complex of the compatibility graph is the cluster complex; a
tau-invariant support function turns it into an explicit simple polytope
whose normal fan refines into the Coxeter fan after one linear change of
coordinates.  Everything is exact.  A backtracking over the compatible
positions counts the faces of the complex and checks that it is pure; it
lists no face.  One walk across the walls from the negated simple roots then
lists the facets, each wall computed from one side only, and keeps each
cluster's dual basis as an integer matrix, changed by one integer pivot per
flip, so every cluster is a basis of the root lattice and every vertex is
rational; it must reach exactly the counted number of facets, which are then
sorted to lexicographic order, and counts are compared to the product
formula over the exponents.  The dual bases are the one cone
representation: a vector's coefficients over a cluster are its pairings
with them.  The complex stores them with the root entering across each wall,
so the vertices, their convexity (one inequality per wall) and the
refinement by the Coxeter fan all read them, nothing walks twice, and
nothing is inverted.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from array import array
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cartan import BudgetExceeded, CheckFailed
from .coxeter import WeylGroup
from .packing import FIELD, SIGN, WIDTH, layout
from .roots import RootSystem, _irreducible, catalan_number, coroot_half_sum, coxeter_data


@dataclass(frozen=True)
class AlmostPositive:
    """The almost-positive roots (negated simples first, then all positive
    roots) together with the two involutions indexed by the bipartition."""

    rs: RootSystem
    indices: tuple[int, ...]
    position: Mapping[int, int]
    tau_plus: Mapping[int, int]
    tau_minus: Mapping[int, int]

    @property
    def n(self) -> int:
        return self.rs.n

    def negative_simple(self, idx: int) -> int | None:
        """The simple index i when idx is the root -alpha_i, else None:
        -alpha_i sits at position i."""
        p = self.position[idx]
        return p if p < self.rs.n else None

    def tau(self, sign: int, idx: int) -> int:
        return self.tau_plus[idx] if sign > 0 else self.tau_minus[idx]


# the largest cluster complex built: Cat(E8) = 25,080 and Cat(A10) = 58,786
# fit, Cat(A11) = 208,012 does not
FACET_BUDGET = 60_000


def almost_positive(rs: RootSystem) -> AlmostPositive:
    """The almost-positive roots of rs and the two involutions.  The number
    of clusters, Cat(W), is read off the exponents first; over FACET_BUDGET
    no complex is built, and BudgetExceeded refuses it before any root is
    listed or paired."""
    size = catalan_number(rs.exponents)
    if size > FACET_BUDGET:
        raise BudgetExceeded(
            f"cluster complex has {size} facets, over the budget of {FACET_BUDGET}"
        )
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
            p = position[idx]
            if p < rs.n and p in fixed:  # -alpha_p sits at position p
                table[idx] = idx
            else:
                table[idx] = perm[idx]
        for idx, image in table.items():
            if image not in position or table[image] != idx:
                raise CheckFailed(
                    f"tau must be an involution of the almost-positive roots, not at {idx}"
                )
        return table

    plus, minus = rs.diagram.parts
    return AlmostPositive(rs, indices, position, build(plus, minus), build(minus, plus))


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
        raise CheckFailed(f"tau order {order}, the closed form gives {expected}")
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
            raise CheckFailed(f"pair {a},{b} never met a negated simple root")
        if any(v != verdicts[0] for v in verdicts):
            raise CheckFailed(f"pair {a},{b} got disagreeing verdicts {verdicts}")
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
    # What the wall walk keeps of facet i: its dual basis D as duals[i], n
    # columns of n entries with root k of the facet paired to column l as
    # delta_kl, packed into one int by `packing`'s balanced 16-bit fields,
    # column 0 most significant (see `_DualLayout`); and from offset i * n
    # on, per slot j, the position of the root that enters across the wall
    # opposite slot j.  An entry lies in [-128, 128), so a field of D times
    # a root's lift never leaves its 16 bits: `_walk` has the argument.
    duals: tuple[int, ...]
    entering: array  # unsigned shorts

    def dual_basis(self, i: int) -> list[list[int]]:
        """The columns of the dual basis of facet i."""
        n = self.ap.n
        flat = layout(n * n).unpack(self.duals[i])
        return [list(flat[k : k + n]) for k in range(0, n * n, n)]


def _h_from_f(f_vector: Sequence[int], n: int) -> tuple[int, ...]:
    """Reverse-Pascal conversion: expand sum_i f_(i-1) (q-1)^(n-i)."""
    coeffs = [0] * (n + 1)
    for i, f in enumerate(f_vector):  # f_(i-1) multiplies (q-1)^(n-i)
        power = n - i
        for j in range(power + 1):
            coeffs[j] += f * math.comb(power, j) * (-1) ** (power - j)
    if any(c < 0 for c in coeffs):
        raise CheckFailed(f"f-vector {tuple(f_vector)} gives a negative h-vector")
    return tuple(reversed(coeffs))


def cluster_complex(rel: CompatibilityRelation) -> ClusterComplexData:
    """The clique complex of the compatibility relation, which must be pure
    of dimension n-1, counted face by face; the wall walk `_walk` then lists
    its facets and certifies a complete simplicial fan of unimodular cones:
    every wall lies in exactly two facets, adjacent cones lie on opposite
    sides of it, and the signs of one generic vector against the dual bases
    count the h-vector, whose h_0 = 1 puts that vector in exactly one cone.
    The complex keeps the walk's facets, in lexicographic position order,
    with their dual bases and entering roots, so nothing walks again.  The
    number of facets was held to FACET_BUDGET by `almost_positive`."""
    ap = rel.ap
    n = ap.n
    top = len(ap.indices) - 1
    masks = [0] * (top + 1)
    for p, q in rel.pairs:
        masks[p] |= 1 << (top - q)
        masks[q] |= 1 << (top - p)
    sizes = [0] * (n + 1)
    sizes[0] = 1

    def grow(size: int, greater: int, extensions: int):
        """Count the faces that contain a face of the given size, whose
        later positions compatible with all of it are greater (which keeps
        the enumeration free of duplicates) and whose positions compatible
        with all of it are extensions (which is what purity is about).  A
        face of size n - 2 checks that each ridge over it extends and counts
        the facets over that ridge, so no ridge or facet is visited."""
        if size and not extensions:
            raise CheckFailed(f"maximal face of size {size} < {n}: not pure")
        sizes[size + 1] += greater.bit_count()
        while greater:
            bit = greater.bit_length() - 1
            greater ^= 1 << bit
            mask = masks[top - bit]
            if size + 2 < n:
                grow(size + 1, greater & mask, extensions & mask)
            elif extensions & mask:
                sizes[n] += (greater & mask).bit_count()
            else:
                raise CheckFailed(f"maximal face of size {n - 1} < {n}: not pure")

    everything = (2 << top) - 1
    if n > 1:
        grow(0, everything, everything)
    else:  # the one ridge is the empty face, and every root is a facet
        sizes[1] = top + 1
    f_vector = tuple(sizes)
    h_vector = _h_from_f(f_vector, n)
    facets, duals, entering, rising = _walk(ap, masks, f_vector[n])
    if tuple(rising) != h_vector:
        raise CheckFailed(
            f"a generic vector meets the cones with h-vector {tuple(rising)},"
            f" the f-vector gives {h_vector}"
        )
    return ClusterComplexData(
        ap, facets, f_vector, h_vector, tuple(masks), duals, entering
    )


# A dual basis entry is a simple root's coefficient over a cluster.  The
# largest under FACET_BUDGET is 6, on E8; the walk refuses any entry outside
# [-ENTRY, ENTRY).
ENTRY = 128


class _DualLayout:
    """The shifts and masks of the packed dual bases over n simple roots.

    A dual basis D packs to sum_(k,i) D[k][i] 2^(W (n^2 - 1 - k n - i)),
    W = WIDTH: the column-by-column vector of `packing.layout(n * n)`, with
    column 0 most significant and balanced fields.  Column k is the block of
    n W bits from offsets[k] on, itself the packed int
    D_k = sum_i D[k][i] 2^(W (n - 1 - i)).  A root gamma lifts to
    G = sum_i gamma_i 2^(W i).  In the product D G, entry i of column k meets
    gamma_i at field offsets[k] / W + n - 1, and every other gamma_i' at
    another field.  No other column reaches that field, so it holds
    gamma . D_k, and shifted down by `below` it lies at the bottom of column
    k.  A field of D G collects at most n products D[k][i] gamma_i'."""

    __slots__ = ("n", "width", "offsets", "units", "below", "bias", "half", "ones")

    def __init__(self, n: int):
        self.n = n
        self.width = WIDTH * n
        self.offsets = tuple(range((n - 1) * self.width, -1, -self.width))
        self.units = sum(1 << offset for offset in self.offsets)
        self.below = WIDTH * (n - 1)
        # 2^(W-1) added to each of the n^2 + n - 1 fields of D G makes every
        # field plain, so a shift and a mask read it with no borrow
        self.bias = SIGN * sum(1 << (WIDTH * f) for f in range(n * n + n - 1))
        # 2^(nW-1) added to each column makes it a plain block, whose top bit
        # is set exactly when the column is nonnegative: its first nonzero
        # entry decides its sign, as in `packing`
        self.half = self.units << (self.width - 1)
        self.ones = sum(1 << (WIDTH * f) for f in range(n * n))

    def lift(self, gamma: Sequence[int]) -> int:
        return sum(g << (WIDTH * i) for i, g in enumerate(gamma))

    def negated_identity(self) -> int:
        """-I: entry k of column k is the field W (n - 1 - k) into its block."""
        shifts = range(WIDTH * (self.n - 1), -1, -WIDTH)
        return -sum(1 << (offset + shift) for offset, shift in zip(self.offsets, shifts))

    def column(self, dual: int, j: int) -> int:
        """The packed column D_j."""
        block = 1 << self.width
        return ((dual + self.half) >> self.offsets[j] & block - 1) - (block >> 1)


def _outside(key: int, units: int, bound: int) -> bool:
    """Whether a field of a key with balanced fields, at the bits of units,
    leaves [-bound, bound), bound a power of two: as in `packing`, exactly
    when key + bound * units has a bit at or above 2 bound in that field."""
    return bool((key + bound * units) & (FIELD ^ (2 * bound - 1)) * units)


def _lex_negatives(dual: int, shape: _DualLayout) -> int:
    """How many columns of a packed dual basis pair negatively with
    x = (1, e, e^2, ...) for every small enough e > 0: a generic vector,
    fixed once for all clusters, that pairs to zero with no nonzero column.
    A column pairs with it as its first nonzero entry, so negatively exactly
    when the packed column is negative: when the top bit of its plain block
    is clear.  With one taken from each block, the top bit is set exactly
    when the column is positive, so the two counts differ by the zero
    columns."""
    plain = dual + shape.half
    nonnegative = (plain & shape.half).bit_count()
    if ((plain - shape.units) & shape.half).bit_count() != nonnegative:
        raise CheckFailed("a dual basis vector is zero")
    return shape.n - nonnegative


def _pivot(dual: int, j: int, product: int, shape: _DualLayout) -> int:
    """The dual basis after the root at slot j leaves and gamma enters at the
    same slot, given gamma . D_j = -1 and product = D G + shape.bias, G the
    lift of gamma: D'_j = -D_j and D'_k = D_k + c_k D_j with c_k = gamma . D_k.
    With C = sum_k c_k 2^offsets[k], read off product at once, that is the
    one multiply-add D' = D + D_j (C - 2^offsets[j]).

    CheckFailed refuses any entry of D' outside [-ENTRY, ENTRY).  A
    coefficient |c_k| >= 2 ENTRY puts some entry of c_k D_j at 2 ENTRY or
    more (D_j is not zero) and so one of D'_k outside; it is refused first.
    Below it, every entry of D' lies within ENTRY + (2 ENTRY - 1) ENTRY =
    2^(W-1) of zero, and below 2^(W-1) since D's entries do, so it is a
    balanced field of D' and the check reads it exactly."""
    units = shape.units
    coefficients = (product >> shape.below & FIELD * units) - SIGN * units
    if not _outside(coefficients, units, 2 * ENTRY):
        out = dual + shape.column(dual, j) * (coefficients - (1 << shape.offsets[j]))
        if not _outside(out, shape.ones, ENTRY):
            return out
    raise CheckFailed(f"a dual basis entry is outside [-{ENTRY}, {ENTRY})")


def _move(dual: int, j: int, s: int, shape: _DualLayout) -> int:
    """The packed dual basis with column j moved to slot s and the columns
    between them moved one slot toward j: a turn of the window of columns
    min(j, s)..max(j, s), made on the plain blocks of dual + shape.half."""
    if j == s:
        return dual
    width = shape.width
    top = shape.offsets[min(j, s)] + width
    bottom = shape.offsets[max(j, s)]
    window = (1 << top) - (1 << bottom)
    plain = dual + shape.half
    part = plain & window
    turn = top - bottom - width
    if s > j:  # column j leaves the top of the window for its bottom
        part = part << width | part >> turn
    else:  # column j leaves the bottom of the window for its top
        part = part >> width | part << turn
    return (plain & ~window | part & window) - shape.half


# An entry of `entering` that no wall has written yet: no position reaches
# it, since FACET_BUDGET keeps the roots far fewer.
UNSET = 0xFFFF


def _walk(
    ap: AlmostPositive, masks: Sequence[int], count: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], array, list[int]]:
    """List the `count` facets by a walk across their walls from the negated
    simple roots, and keep, laid out as in ClusterComplexData, each facet's
    dual basis D (integer columns with root i of the facet paired to column
    k as delta_ik) and the position of the root entering at each slot.  The
    last result counts the facets by how many columns of D pair negatively
    with the generic vector of `_lex_negatives`.

    The walk starts at the negated simple roots, which must be pairwise
    compatible, where D = -I.  Across the wall opposite slot j, the entering
    root gamma is the one position left in the intersection of the other
    n-1 compatibility masks besides the leaving root; none or two or more
    mean the wall does not lie in exactly two clusters.  gamma . D_j = -1
    says at once that gamma lies on the other side of the wall and that the
    new cluster is again a lattice basis; the new D is one integer pivot
    away (`_pivot`), so B . D = I with D integral holds on every cluster
    reached.  Facets are numbered when the walk first reaches them and take
    their turns in that order; more than `count` of them, or fewer at the
    end, refute the face count.  At the end the facets, each in ascending
    position order, are sorted to lexicographic position order, and their
    dual bases and entering roots with them.

    Each wall is computed once, from the end whose turn comes first: the
    wall opposite slot j of facet i, with p leaving and q entering, leaves
    entering[t n + s] = p for the far facet t, q at its slot s, and at t's
    turn slot s is skipped.  That is what the computation would find.  The
    wall is the same n-1 roots from both ends, whose common compatible
    positions outside the wall are p and q alone, so p is the one left
    outside facet t.  Both D_j of facet i and column s of facet t pair to
    zero with the wall's roots, and the pivot sets the latter to -D_j, so
    once q . D_j = -1, p . (-D_j) = -1 as well (p . D_j = 1).  A computed
    wall can reach no facet whose turn is over: that facet would have
    computed the wall at its turn and left this slot written; such a
    meeting raises CheckFailed.

    Each D is one int in the layout of `_DualLayout`, and every computed
    wall costs one product D G_gamma, whose fields hold gamma . D_k for
    every k.  A new facet takes the pivot's one multiply-add and a turn of
    its columns (`_move`) that puts the entering root's column at its sorted
    slot.  The fields of D G_gamma are exact while each stays under
    2^(W-1) = 2^15 in size.  Cat(W) is the product, over the exponents e_i
    of each irreducible component with Coxeter number h, of
    (h + e_i + 1) / (e_i + 1), each factor at least 2 since e_i < h.  So
    Cat(W) >= 2^n, and FACET_BUDGET < 2^16 puts n <= 15.  A root coordinate
    is at most 6 (E8's highest root), and `_pivot` keeps every entry of D in
    [-128, 128), so a field is at most 15 * 128 * 6 = 11,520 in size.  The
    walk checks n * 128 * (largest coordinate) < 2^15 before it starts."""
    n, top = ap.n, len(ap.indices) - 1
    shape = _DualLayout(n)
    coords = [ap.rs.roots[idx].coords for idx in ap.indices]
    largest = max(abs(x) for gamma in coords for x in gamma)
    if n * ENTRY * largest >= SIGN:
        raise CheckFailed(
            f"rank {n} with root coordinates up to {largest}"
            " overflows the packed pairings"
        )
    lifts = [shape.lift(gamma) for gamma in coords]
    bias = shape.bias
    reads = [offset + shape.below for offset in shape.offsets]
    indices, position = ap.indices, ap.position
    # a facet's key has the bits of its positions, as in the masks
    everything = (2 << top) - 1
    start = everything ^ (everything >> n)  # positions 0..n-1
    if any(start & ~masks[p] != 1 << (top - p) for p in range(n)):
        raise CheckFailed("the negated simple roots are not pairwise compatible")
    keys = [start]
    index = {start: 0}
    facets = [indices[:n]]
    duals = [shape.negated_identity()]
    entering = array("H", [UNSET]) * (count * n)
    rising = [0] * (n + 1)
    i = 0
    while i < len(keys):
        key, facet, dual = keys[i], facets[i], duals[i]
        rising[_lex_negatives(dual, shape)] += 1
        positions = [position[idx] for idx in facet]
        # the masks of the slots after j, intersected outside the facet
        after = [everything ^ key]
        for q in reversed(positions[1:]):
            after.append(after[-1] & masks[q])
        before = -1  # the masks of the slots before j
        at = i * n
        for j, p in enumerate(positions):
            common = before & after[n - 1 - j]
            before &= masks[p]
            if entering[at + j] != UNSET:  # computed from the far end
                continue
            if not common or common & (common - 1):
                wall = facet[:j] + facet[j + 1 :]
                raise CheckFailed(
                    f"wall {wall} lies in {1 + common.bit_count()} clusters, not 2"
                )
            q = top - (common.bit_length() - 1)
            entering[at + j] = q
            product = dual * lifts[q] + bias
            c = (product >> reads[j] & FIELD) - SIGN
            if c != -1:
                raise CheckFailed(
                    f"root {indices[q]} enters facet {facet} at slot {j}"
                    f" with coefficient {c}, not -1"
                )
            far = key ^ (1 << (top - p)) | common
            s = bisect(positions, q) - (q > p)
            t = index.get(far)
            if t is None:
                t = len(keys)
                if t == count:
                    raise CheckFailed(
                        f"the wall walk found more than {count} facets"
                    )
                index[far] = t
                keys.append(far)
                wall = facet[:j] + facet[j + 1 :]
                facets.append(wall[:s] + (indices[q],) + wall[s:])
                duals.append(_move(_pivot(dual, j, product, shape), j, s, shape))
            elif t < i:
                raise CheckFailed(
                    f"a wall of facet {facet} reached a facet whose turn is over"
                )
            entering[t * n + s] = p
        i += 1
    if len(keys) != count:
        raise CheckFailed(f"the wall walk reached {len(keys)} of {count} facets")
    del index  # freed for the sort, which would otherwise add to the peak
    order = sorted(range(count), key=keys.__getitem__, reverse=True)
    ordered = array("H")
    for i in order:
        ordered += entering[i * n : (i + 1) * n]
    facets = tuple(facets[i] for i in order)
    return facets, tuple(duals[i] for i in order), ordered, rising


def n_phi(rs: RootSystem) -> int:
    """The product formula over the exponents of an irreducible system."""
    _irreducible(rs, "n_phi")
    return catalan_number(rs.exponents)


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
    family, n = _irreducible(rs, "narayana")
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
                raise CheckFailed(f"D{n} Narayana term {k} is not integral")
            middle.append(math.comb(n, k) ** 2 - term)
        out = (1, *middle, 1)
    else:
        out = _FIXED_NARAYANA[f"{family}{n}"]
    if sum(out) != n_phi(rs):
        raise CheckFailed(f"Narayana numbers {out} do not sum to N(Phi)")
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
            raise CheckFailed(f"seed is not (-w0)-invariant at node {i}")
    for j, s in enumerate(rs.simple_index):
        column = sum(map(operator.mul, rho, rs.roots[s].pairing))
        if column <= 0:
            raise CheckFailed(f"column {j} fails strict positivity")

    values: dict[int, Fraction] = {}
    for orbit in tau_orbits(ap):
        anchors = [ap.negative_simple(idx) for idx in orbit]
        seeds = {rho[i] for i in anchors if i is not None}
        if not seeds:
            raise CheckFailed(f"orbit {orbit} misses the negated simples")
        if len(seeds) > 1:
            raise CheckFailed(f"orbit {orbit} received values {seeds}")
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
                raise CheckFailed(
                    f"vertex of {facet} misses facet {ap.indices[p]}"
                )
        for q in entering[i * n : (i + 1) * n]:
            pairing = sum(map(operator.mul, coords[q], point))
            if pairing >= bounds[q]:
                raise CheckFailed(
                    f"vertex of {facet} pairs to {Fraction(pairing, scale)}"
                    f" against root {ap.indices[q]}"
                )
        points.append(point)
    if len(set(points)) != len(points):
        raise CheckFailed("two clusters share a vertex")
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
    plus, _ = ap.rs.diagram.parts
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
            raise CheckFailed(f"chamber {u} lies in cones {held}")
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


def fan_checks(complex_data: ClusterComplexData, group: WeylGroup) -> dict:
    """The wall pairing and the refinement by the Coxeter fan of `group`.
    That the cones cover the space without overlap needs no probe here:
    `cluster_complex` has already walked the walls, and the h_0 = 1 count
    puts one generic vector in exactly one cone."""
    return {
        "wall_pairing": wall_pairing(complex_data),
        "refinement": refinement_check(complex_data, group),
    }


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
