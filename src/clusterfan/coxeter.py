"""Weyl groups as integer Cayley tables, found on the orbit of rho.

W acts simply transitively on the orbit of the regular weight rho, so the
search keys element u by mu = u^-1 rho in fundamental-weight coordinates.
The n coordinates are packed into one int by `clusterfan.packing`, which is
linear and one-to-one on fields in [-LIMIT, LIMIT), so the key of -mu is
-key; |mu_k| <= h - 1, the largest exponent, is checked below LIMIT before
the walk.  Right multiplication by s_i is mu -> s_i mu = mu - mu_i alpha_i,
one subtraction on the packed int, where alpha_i is column i of the Cartan
matrix packed the same way.  Since u(alpha_i) > 0 exactly when mu_i > 0,
u*s_i is one longer than u when mu_i > 0 and one shorter when mu_i < 0, so
the search walks the orbit one length at a time and keeps only the level
below and the level above.
Element indices run in length order, and `right[u][i]` is the index of
u*s_i.  The same walk counts the reduced words of every element along its
ascents.  The count for w0 needs neither a Cayley table nor the upper half
of the orbit: w0 rho = -rho, so u -> w0*u maps key mu to -mu and length j
to N - j, N = l(w0), and R(w0) is the sum over the elements v of length
floor(N/2) of R(v) R(w0 v), both read off the walk stopped at length
N - floor(N/2).  Lengths, the weak order and the longest element are read
from the table.

These checks hold the search to the group, none of them an assert: mu_i
is never 0 and every descent lands in the level below; each level's size is
the coefficient of the Poincare polynomial prod [e_i + 1]_q over the
exponents, which are read off the root heights, not off the search; the
negation of every weight at length floor(N/2) is found at length
N - floor(N/2); nothing turns up past the |W| the exponents give; and the
walk ends at a unique longest element.

The left Cayley table, `left[u][i]` the index of s_i*u, is built on first
use along the same discoverer chain: if v first turns up in `right`, read in
index order, as p*s_j, then s_i*v = (s_i*p)*s_j, so row v is row p pushed
through column j of `right`.  Two checks hold it to the group: every entry
moves the length by exactly one, and s_i is an involution from the left,
s_i*(s_i*u) = u.  The left descents of u are the i with s_i*u shorter than
u, so the lexicographically minimal reduced word is one walk down the left
table.  The left inversion sets T_L(u) = {beta > 0 : u^-1 beta < 0}, one
N-bit int each, are filled along the left table, and u <= w in the right
weak order iff T_L(u) is contained in T_L(w).  The weak order's lattice
property is checked locally on them, by Bjorner, Edelman and Ziegler: every
two elements z*s_i and z*s_j covering a common z must have a join, the top
c of their rank-2 coset, with every root of T_L(c) grown from theirs as
sums of two roots.

The noncrossing interval [1, c] in absolute order needs no group.  By
Carter's lemma the reflection length of w is rank(w - 1) on simple-root
coordinates, and by Brady and Watt (A partial order on the orthogonal group,
Comm. Algebra 2002) a reflection t lies below u exactly when its root lies
in the moved space Mov(u) = im(u - 1).  So the interval is walked down from
the bipartite Coxeter element c one reflection length at a time: one integer
basis of the left kernel of u - 1 cuts out Mov(u), a dot product with each
positive root picks the children u*t, and no element outside the interval is
ever built.  Elements of the interval are permutations of the root indices:
position r holds the index of the image of root r.

The conjugacy classes are the components of the graph that joins u to
s_i*u*s_i, read off the two Cayley tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import mul

from .cartan import BudgetExceeded, CheckFailed
from .linalg import left_kernel, matrix_rank
from .packing import FIELD, LIMIT, SIGN, layout
from .roots import RootSystem, catalan_number, coxeter_element, weyl_group_order

Perm = tuple[int, ...]

# the largest Weyl group walked: |W(E6)| = 51,840 fits, |W(E7)| = 2,903,040
# does not
GROUP_BUDGET = 10**6


def _poincare_polynomial(exponents: Sequence[int]) -> list[int]:
    """Coefficients of prod (1 + q + ... + q^e) over the exponents."""
    coeffs = [1]
    for e in exponents:
        out = [0] * (len(coeffs) + e)
        for d, c in enumerate(coeffs):
            for t in range(d, d + e + 1):
                out[t] += c
        coeffs = out
    return coeffs


def _packing(rs: RootSystem) -> tuple[list[tuple[int, int]], int]:
    """The steps (shift, packed alpha_i) of the walk, and packed rho =
    (1, ..., 1), packed by `clusterfan.packing`.  alpha_i in fundamental-
    weight coordinates is the simple root's pairing vector."""
    packing = layout(rs.n)
    alphas = [packing.pack(rs.roots[s].pairing) for s in rs.simple_index]
    return list(zip(packing.shifts, alphas)), packing.pack((1,) * rs.n)


def _levels(rs: RootSystem, budget: int, right: list[tuple[int, ...]] | None = None):
    """Walk the orbit of rho one length at a time, yielding each level as
    soon as it is complete: the dict from packed weight to element index,
    and the reduced-word counts in index order.  When `right` is a list,
    each level's rows of the right Cayley table are appended to it as the
    walk goes on from that level.

    Element indices run in discovery order, level by level, and a row holds
    the indices of u*s_1, ..., u*s_n.  Only two levels are kept, as dicts
    from packed weight to index: u*s_i is one longer than u when mu_i > 0
    and one shorter when mu_i < 0, so an ascent is looked up in, or added
    to, the level above, and a descent must be found in the level below.
    The count of u*s_i gains the count of u along every ascent, so it is
    complete when its level is reached: the number of reduced words is the
    sum of the counts one right descent below.

    An ascent is never looked up among shorter elements.  If one landed on
    a shorter element w, its copy one level up would share w's weight and
    so w's descents; their images are at least two levels down, and the
    lookup in the level below fails.  Only w = 1 has no descent, and then
    the walk would repeat the group from the copy up, past the levels of
    the Poincare polynomial.

    The levels above the middle are the mirror image of those below under
    u -> w0*u.  Since w0 rho = -rho, the key of w0*u is u^-1 w0 rho =
    -mu(u); w0*u lies on level N - j when u lies on level j, N = l(w0);
    and an ascent of u by s_i (mu_i > 0) is a descent of w0*u by s_i, as
    the i-th field of -mu(u) is -mu_i.  So the upper half repeats the
    checked lower half negated, and the mirror check joins the two: once
    level N - k is complete, k = floor(N/2), the negation of every weight
    on level k must be on it.  It fails when the walk did not start at a
    weight that w0 negates, or when N is not the length of the walk's
    longest element.  A walk stopped there has run every check on every
    level it holds.

    Raises BudgetExceeded before the walk when |W|, read off `rs.exponents`,
    is over the budget.  Raises CheckFailed before the walk when the
    largest exponent is LIMIT or more, and then when a level's size is not
    its coefficient of the Poincare polynomial prod [e_i + 1]_q, when a
    negated middle weight is not on level N - k, when mu_i = 0 or a descent
    is not found in the level below, when an element turns up past the |W|
    the exponents give, or when the walk ends short of |W| or with more
    than one longest element.
    """
    exponents = [e for part in rs.exponents for e in part]
    order = weyl_group_order(rs.exponents)
    if order > budget:
        raise BudgetExceeded(f"group has {order} elements, over the budget of {budget}")
    poincare = _poincare_polynomial(exponents)
    middle = rs.num_positive // 2
    mirror = rs.num_positive - middle

    # |mu_k| <= h - 1, the largest exponent, on the orbit of rho
    if max(exponents) >= LIMIT:
        raise CheckFailed(
            f"a weight field may reach {max(exponents)},"
            f" outside the packed range [-{LIMIT}, {LIMIT})"
        )
    steps, rho = _packing(rs)
    signs, mask, bias = layout(rs.n).signs, FIELD, SIGN  # locals for the loop
    table = right is not None  # rows are built only for a recorded table

    below: dict[int, int] = {}
    level = {rho: 0}
    counts = [1]
    first = length = 0  # the level's first index, and its length
    while level:
        if len(level) != (poincare[length] if length < len(poincare) else 0):
            raise CheckFailed(
                f"length counts must be the Poincare polynomial {poincare} of the exponents"
            )
        if length == mirror:
            halfway = level if mirror == middle else below
            if any(-code not in level for code in halfway):
                raise CheckFailed(
                    f"the negation of every weight of length {middle} must have length {mirror}"
                )
        yield level, counts
        following = first + len(level)  # the index of the next level's first
        above: dict[int, int] = {}
        above_counts: list[int] = []
        for u, (code, words) in enumerate(zip(level, counts), first):
            biased = code + signs
            row = []
            for i, (shift, alpha) in enumerate(steps):
                m = ((biased >> shift) & mask) - bias
                image = code - m * alpha
                if m > 0:
                    v = above.get(image)
                    if v is None:
                        v = above[image] = following + len(above_counts)
                        if v == order:
                            raise CheckFailed(
                                f"search found more than the {order} elements the exponents give"
                            )
                        above_counts.append(words)
                    else:
                        above_counts[v - following] += words
                else:
                    v = below.get(image) if m else None
                    if v is None:
                        raise CheckFailed(
                            f"length must move by the sign of mu_{i + 1} = {m} from element {u}"
                        )
                if table:
                    row.append(v)
            if table:
                right.append(tuple(row))
        below, level, counts, first = level, above, above_counts, following
        length += 1
    if first != order:
        raise CheckFailed(f"search found {first} elements, the exponents give {order}")
    if len(below) != 1:
        raise CheckFailed("longest element must be unique")


class WeylGroup:
    def __init__(self, rs: RootSystem, budget: int = GROUP_BUDGET):
        self.rs = rs
        self.n = rs.n
        self.right: list[tuple[int, ...]] = []
        self.length: list[int] = []
        for length, (level, _) in enumerate(_levels(rs, budget, self.right)):
            self.length += [length] * len(level)
        self.w0 = len(self.right) - 1

    def __len__(self) -> int:
        return len(self.right)

    @property
    def elements(self) -> range:
        """The element indices, in length order."""
        return range(len(self))

    @cached_property
    def left(self) -> list[tuple[int, ...]]:
        """The left Cayley table: `left[u][i]` is the index of s_i*u.  The
        first time v turns up in `right`, read in index order, it is p*s_j
        for its discoverer p, and s_i*v = (s_i*p)*s_j."""
        right, length = self.right, self.length
        left = [right[0]]
        for p, row in enumerate(right):
            for j, v in enumerate(row):
                if v == len(left):
                    left.append(tuple(right[t][j] for t in left[p]))
        for u, row in enumerate(left):
            for i, v in enumerate(row):
                if abs(length[v] - length[u]) != 1:
                    raise CheckFailed(
                        f"s_{i + 1} from the left must move the length of element {u} by one"
                    )
                if left[v][i] != u:
                    raise CheckFailed(
                        f"s_{i + 1} from the left must be an involution on element {u}"
                    )
        return left

    def reduced_word(self, u: int) -> tuple[int, ...]:
        """Lexicographically minimal reduced word (0-based generator indices):
        at each step the smallest left descent is taken off."""
        left, length = self.left, self.length
        word = []
        while u:
            row, lu = left[u], length[u]
            i = next(i for i, v in enumerate(row) if length[v] < lu)
            word.append(i)
            u = row[i]
        return tuple(word)


def conjugacy_classes(group: WeylGroup) -> list[tuple[int, int]]:
    """(representative, size) per conjugacy class, in index order.  The
    classes are the components of the graph joining u to s_i*u*s_i =
    `left[right[u][i]][i]`, since every conjugation is a chain of those; the
    representative is the class's first index, so one of its shortest
    elements."""
    left, right = group.left, group.right
    seen = bytearray(len(group))
    classes = []
    for start in group.elements:
        if seen[start]:
            continue
        seen[start] = 1
        stack, size = [start], 1
        while stack:
            u = stack.pop()
            for i, v in enumerate(right[u]):
                w = left[v][i]
                if not seen[w]:
                    seen[w] = 1
                    size += 1
                    stack.append(w)
        classes.append((start, size))
    return classes


def build_group(rs: RootSystem, budget: int = GROUP_BUDGET) -> WeylGroup:
    return WeylGroup(rs, budget=budget)


# -- reduced word counting ----------------------------------------------------


def count_reduced_words(rs: RootSystem) -> int:
    """Number of reduced words of w0, from the orbit of rho walked only to
    its middle, with no Cayley table.

    A reduced word of w0 is a maximal chain 1 -> w0 in the right weak
    order, and it passes exactly one element v of length k = floor(N/2),
    N = l(w0).  Up to v it is one of the R(v) reduced words of v; from v on
    it is a reduced word of v^-1 w0, and there are R(w0 v) of those, since
    inverting reverses a word and w0 is an involution.  w0*v is keyed by
    -mu(v) on level N - k (see `_levels`), so R(w0) is the sum over level
    k of R(v) R(-mu(v)).  Both levels are complete, and the walk's mirror
    check has paired them, once the levels below N - k are walked; the walk
    stops there.  GROUP_BUDGET still counts all of |W|, read off the
    exponents before any walk.
    """
    levels = _levels(rs, GROUP_BUDGET)
    # level k, then level N - k, the same level when N is even
    level, counts = next(islice(levels, rs.num_positive // 2, None))
    halfway = dict(zip(level, counts))
    if rs.num_positive % 2:
        level, counts = next(levels)
    return sum(words * halfway[-code] for code, words in zip(level, counts))


def count_elements(rs: RootSystem) -> int:
    """|W| as the number of elements met by one whole walk of the orbit of
    rho, with every check of `_levels` and no Cayley table."""
    return sum(len(level) for level, _ in _levels(rs, GROUP_BUDGET))


def stanley_formula(n: int) -> int:
    """Closed form for the number of reduced words of the longest element in
    the symmetric group on n+1 letters: binom(n+1,2)! / (1^n 3^(n-1) ... (2n-1)^1)."""
    from math import comb, factorial

    numerator = factorial(comb(n + 1, 2))
    denominator = 1
    for k, odd in enumerate(range(1, 2 * n, 2)):
        denominator *= odd ** (n - k)
    if numerator % denominator:
        raise CheckFailed(f"Stanley's formula is not integral for n = {n}")
    return numerator // denominator


# -- weak order ----------------------------------------------------------------


@dataclass(frozen=True)
class WeakOrderData:
    covers: tuple[tuple[int, int, int], ...]  # (lower, generator, upper)
    checked_pairs: int  # pairs z*s_i, z*s_j covering a common z, each joined


CHUNK = 12  # bits of a root set read per lookup in a lift table
MASK = (1 << CHUNK) - 1


def _lift_tables(rs: RootSystem) -> list[list[tuple[int, list[int]]]]:
    """T -> {alpha_i} + s_i T on sets of positive roots not holding alpha_i,
    each an N-bit int with bit r for positive root r: per generator, the
    (shift, table) of each CHUNK-bit slice, the table giving the image of
    every pattern of the slice.  s_i permutes the positive roots other than
    alpha_i; the first slice's table adds alpha_i to every image."""
    n_pos = rs.num_positive
    tables = []
    for i in range(rs.n):
        image = [1 << r if r < n_pos else 0 for r in rs.simple_perm(i)[:n_pos]]
        slices = []
        for shift in range(0, n_pos, CHUNK):
            table = [0 if shift else 1 << rs.simple_index[i]]
            for bit in image[shift : shift + CHUNK]:
                table += [t | bit for t in table]
            slices.append((shift, table))
        tables.append(slices)
    return tables


def _lift(slices: list[tuple[int, list[int]]], t: int) -> int:
    image = 0
    for shift, table in slices:
        image |= table[(t >> shift) & MASK]
    return image


def _root_sums(rs: RootSystem) -> list[list[int]]:
    """Per positive root, the masks of the pairs of positive roots summing
    to it."""
    n_pos = rs.num_positive
    sums: list[list[int]] = [[] for _ in range(n_pos)]
    for a in range(n_pos):
        coords = rs.roots[a].coords
        for b in range(a + 1, n_pos):
            r = rs.index.get(tuple(x + y for x, y in zip(coords, rs.roots[b].coords)))
            if r is not None:
                sums[r].append(1 << a | 1 << b)
    return sums


def inversion_sets(group: WeylGroup) -> list[int]:
    """T_L(u) = {beta > 0 : u^-1 beta < 0} for every element u, as an
    N-bit int, bit r for positive root r.  Filled in index order along one
    left descent of each element: when s_i*p is longer than p,
    T_L(s_i*p) = {alpha_i} + s_i T_L(p)."""
    left, length = group.left, group.length
    tables = _lift_tables(group.rs)
    sets = [0]
    for u in group.elements[1:]:
        row, lu = left[u], length[u]
        i = next(i for i, v in enumerate(row) if length[v] < lu)
        sets.append(_lift(tables[i], sets[row[i]]))
    return sets


def weak_order(group: WeylGroup) -> WeakOrderData:
    """Right weak order: covers u < u s_i when the length goes up.

    Performs an exact lattice check, raising CheckFailed on any
    failure.  u <= w iff T_L(u) is contained in T_L(w) (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, Prop. 3.1.3), so the check
    reads the order off the inversion sets.  Those are checked first: T_L(u)
    has l(u) roots, and T_L(s_i*u) = {alpha_i} + s_i T_L(u) on every
    edge of the left table that raises the length.

    By Bjorner, Edelman and Ziegler (Hyperplane arrangements with a lattice
    of regions, DCG 1990, Lemma 2.1), a finite bounded poset is a lattice
    when every two elements covering a common one have a join.  For each z
    and right ascents i < j, x = z*s_i and y = z*s_j, the alternating words
    in s_i and s_j from x and from y must rise one length a step until they
    meet at c.  T_L(c) must hold T_L(x) and T_L(y), and each of its other
    roots, taken by height, must be the sum of two roots already held.
    Every inversion set is closed under root sums, as
    w^-1(beta + gamma) = w^-1 beta + w^-1 gamma, so any common upper bound
    of x and y holds T_L(c) and lies above c: c is the join.
    """
    right, length = group.right, group.length
    tables = _lift_tables(group.rs)
    sets = inversion_sets(group)
    for u, row in enumerate(group.left):
        t, lu = sets[u], length[u]
        if t.bit_count() != lu:
            raise CheckFailed(f"the inversion set of element {u} must have {lu} roots")
        for i, v in enumerate(row):
            if length[v] > lu and sets[v] != _lift(tables[i], t):
                raise CheckFailed(
                    f"the inversion set of s_{i + 1}*u must be alpha_{i + 1} and"
                    f" s_{i + 1} of that of u, for u = {u}"
                )

    sums = _root_sums(group.rs)
    covers = []
    checked = 0
    for z, row in enumerate(right):
        above = length[z] + 1
        ascents = [i for i, v in enumerate(row) if length[v] == above]
        covers += [(z, i, row[i]) for i in ascents]
        for k, i in enumerate(ascents):
            for j in ascents[k + 1 :]:
                x = a = row[i]
                y = b = row[j]
                step, s, t = above, j, i
                while a != b:
                    a, b, step = right[a][s], right[b][t], step + 1
                    if length[a] != step or length[b] != step:
                        raise CheckFailed(
                            f"the words alternating s_{i + 1} and s_{j + 1} from element {z}"
                            " must rise to a common element"
                        )
                    s, t = t, s
                held, top = sets[x] | sets[y], sets[a]
                if held & ~top:
                    raise CheckFailed(
                        f"the inversion set of element {a} must hold those of {x} and {y}"
                    )
                missing = top ^ held
                while missing:
                    low = missing & -missing
                    if not any(held & pair == pair for pair in sums[low.bit_length() - 1]):
                        raise CheckFailed(
                            f"each root the inversion set of element {a} adds to those of"
                            f" {x} and {y} must be a sum of two roots held"
                        )
                    held |= low
                    missing ^= low
                checked += 1
    return WeakOrderData(tuple(covers), checked)


def hasse_dot(group: WeylGroup, data: WeakOrderData) -> str:
    """DOT digraph of the weak-order Hasse diagram; nodes carry the
    lexicographically minimal reduced word (1-based letters).  In index
    order that word is the smallest left descent i followed by the word of
    s_i*u, which is shorter, so each label is one join on an earlier one."""
    left, length = group.left, group.length
    words = [""]
    for u in group.elements[1:]:
        row, lu = left[u], length[u]
        i = next(i for i, v in enumerate(row) if length[v] < lu)
        words.append(str(i + 1) + words[row[i]])

    lines = ["digraph weak_order {", "  rankdir=BT;"]
    for u, word in enumerate(words):
        lines.append(f'  n{u} [label="{word or "e"}"];')
    for lower, i, upper in data.covers:
        lines.append(f'  n{lower} -> n{upper} [label="{i + 1}"];')
    lines.append("}")
    return "\n".join(lines)


# -- absolute order -------------------------------------------------------------

# largest noncrossing interval walked; Cat(E7) = 4160 fits, Cat(E8) = 25080 not
INTERVAL_BUDGET = 10**4


@dataclass(frozen=True)
class AbsoluteInterval:
    coxeter: Perm
    elements: tuple[Perm, ...]  # in rank order, the identity first
    ranks: tuple[int, ...]  # aligned with elements
    rank_counts: tuple[int, ...]  # index = reflection length


def moved_matrix(rs: RootSystem, w: Perm) -> list[list[int]]:
    """w - 1 on simple-root coordinates: column j is the coordinate vector
    of w(alpha_j) minus the j-th unit vector."""
    columns = [rs.roots[w[s]].coords for s in rs.simple_index]
    return [[columns[j][i] - (i == j) for j in range(rs.n)] for i in range(rs.n)]


def reflection_length(rs: RootSystem, w: Perm) -> int:
    """l_T(w) = rank(w - 1) (Carter's lemma)."""
    return matrix_rank(moved_matrix(rs, w))


def absolute_interval(rs: RootSystem) -> AbsoluteInterval:
    """The interval [1, c] in absolute order below the bipartite Coxeter
    element c, with reflection-length ranks.

    The walk starts at c and goes down one reflection length at a time: the
    children of u are the products u*t_beta over the positive roots beta in
    Mov(u) = im(u - 1), which are exactly the reflections t with
    l_T(u*t) = l_T(u) - 1 (Brady-Watt).  A root lies in im(u - 1) when every
    vector z of an integer basis of the left kernel of u - 1 has z.beta = 0,
    so a permutation is composed only for a real child.  Every element below
    c is below one a rank higher, so the levels are exactly the ranks of the
    interval, taken in the order the walk first meets them.  Its size,
    Cat(W), is read off the exponents first; over INTERVAL_BUDGET the walk is
    refused with BudgetExceeded.  Raises CheckFailed unless l_T(c) = n,
    every element of a level has the level's rank n - |basis|, and the
    bottom level is the identity alone.
    """
    size = catalan_number(rs.exponents)
    if size > INTERVAL_BUDGET:
        raise BudgetExceeded(
            f"noncrossing interval has {size} elements,"
            f" over the budget of {INTERVAL_BUDGET}"
        )
    c = coxeter_element(rs)
    if reflection_length(rs, c) != rs.n:
        raise CheckFailed("the Coxeter element must have reflection length n")
    roots = [root.coords for root in rs.positive_roots()]
    reflections = [rs.reflection_perm(b) for b in range(rs.num_positive)]
    levels = [[c]]
    for rank in range(rs.n - 1, -1, -1):
        children: dict[Perm, None] = {}
        for u in levels[-1]:
            kernel = left_kernel(moved_matrix(rs, u))
            if rs.n - len(kernel) != rank + 1:
                raise CheckFailed(
                    f"an element of the level at rank {rank + 1} has"
                    f" reflection length {rs.n - len(kernel)}"
                )
            for beta, t in zip(roots, reflections):
                if all(sum(map(mul, z, beta)) == 0 for z in kernel):
                    children[tuple(map(u.__getitem__, t))] = None
        levels.append(list(children))
    if levels[-1] != [tuple(range(len(rs.roots)))]:
        raise CheckFailed("the walk down from c must end at the identity alone")

    levels.reverse()
    elements = tuple(w for level in levels for w in level)
    ranks = tuple(rank for rank, level in enumerate(levels) for _ in level)
    counts = tuple(len(level) for level in levels)
    return AbsoluteInterval(c, elements, ranks, counts)
