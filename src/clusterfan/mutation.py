"""Seed mutation: exchange matrices, clusters of Laurent polynomials, and
breadth-first exploration of the exchange graph.

A seed couples an m-by-n extended exchange matrix with n cluster variables
and m-n frozen variables, all living in one ambient Laurent ring.  Mutation
in direction k replaces the k-th cluster variable via the exchange relation
(product over positive column entries plus product over negative ones,
divided exactly by the old variable) and transforms the matrix.

One breadth-first walk of the exchange graph, on integer data, serves both
exploration and finite-type detection.  The walk runs on the extended
matrix stacked over the C-matrix, which starts at I, so the stacked matrix
has full column rank, and mutation keeps that rank (Berenstein-Fomin-
Zelevinsky, Cluster algebras III, Lemma 3.2).  Each seed also carries its
g-vectors (Fomin-Zelevinsky, Cluster algebras IV; Nakanishi-Zelevinsky,
tropical dualities), each packed into one int by `clusterfan.packing`,
which is linear and one-to-one on fields in [-LIMIT, LIMIT); only the k-th
moves under mutation in direction k, by int arithmetic.  A seed is known
by its cluster alone, the set of its packed g-vectors held as a sorted
tuple, and for the stacked matrix that is sound:
  - a g-vector determines its cluster variable (conjectured in Cluster
    algebras IV, proven by Gross-Hacking-Keel-Kontsevich);
  - a seed whose extended matrix has full rank is determined by its
    cluster (Gekhtman-Shapiro-Vainshtein, On the properties of the
    exchange graph of a cluster algebra, 2008; in finite type also
    Fomin-Zelevinsky, Cluster algebras II).
So the matrices are mutated only when a new seed appears.  Each edge is
computed once, from the end whose turn comes first, and the walk checks
what it fixes: the seed it reaches, new or not, holds the new g-vector,
and its column at that slot is minus column k of the seed it left
(mutation in direction k negates column k), the rows matched through the
g-vectors.  A computed edge also checks its c-vector for sign-coherence
and bounds the new g-vector's fields inside [-LIMIT, LIMIT).  The reverse
edge is read, not computed.  Its column at the new slot is minus column
k, C rows included, so its c-vector is minus a checked one: sign-coherent,
with the sign negated.  So the Nakanishi-Zelevinsky sum is unchanged and
the g-vector returns to g_k; the revisit equation from the far end is the
same equation (`_walk` gives the argument in full).
`explore` computes each cluster variable in the Laurent ring once, when
its g-vector first appears.  The Laurent-level canonical form
(`canonical_key`) sorts the cluster by text instead; the two keys agree
whenever the initial cluster is algebraically independent, as the
generators from `initial_seed` are.
The walk stops at the first seed matrix with |b_ij b_ji| > 3 (the 2-finite
criterion, Fomin-Zelevinsky, Cluster algebras II); once it closes, the
Dynkin type is read off the first seed matrix, in the order of the walk,
with a finite Cartan companion.  `exchange_counts` counts cluster
variables as distinct g-vectors, with no Laurent arithmetic and no stored
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cartan as cartan_mod
from .cartan import DynkinType, NotSkewSymmetrizable, skew_symmetrizer
from .coxeter import BudgetExceeded
from .laurent import LaurentPoly
from .linalg import matrix_rank
from .packing import LIMIT, layout


class _WalkStopped(RuntimeError):
    """The exchange-graph walk stopped early; the partial record is attached."""

    def __init__(self, message: str, partial: "MutationGraph | None" = None):
        super().__init__(message)
        self.partial = partial


class MutationBudgetExceeded(_WalkStopped):
    """Exploration hit its seed budget."""


class NotFiniteType(_WalkStopped):
    """A seed matrix has an entry pair |b_ij b_ji| > 3: the graph is infinite."""


class Inconclusive(RuntimeError):
    """Finite-type detection ran out of budget without a witness."""


class NotFullRank(ValueError):
    """An extended exchange matrix (m > n) whose columns are dependent."""


class NotSignCoherent(ArithmeticError):
    """A c-vector has entries of both signs (or none).  Sign-coherence is a
    theorem (Gross-Hacking-Keel-Kontsevich), so this signals a bug."""


class WalkCheckFailed(RuntimeError):
    """A g-vector outgrew its packing, a seed disagrees with the edge that
    reached it, or an edge reached a seed whose turn is over; each signals
    a bug."""


@dataclass(frozen=True)
class ExchangeMatrix:
    """An m-by-n extended exchange matrix; the top n-by-n principal part must
    be skew-symmetrizable, and every entry must be an integer (an integral
    float such as 2.0 is accepted, 1.9 is refused).

    A genuinely extended matrix (m > n) must in addition have full column
    rank, so that the frozen rows pin down the coefficients.  Square matrices
    are exempt: a skew-symmetrizable matrix of odd size is always singular,
    and coefficient-free seeds such as the one attached to a rank-3 Cartan
    matrix are still perfectly good starting points for mutation."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        try:
            rows = cartan_mod.as_entries(self.rows)
        except cartan_mod.NotCartanShape as exc:
            raise NotSkewSymmetrizable(str(exc)) from None
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if m < self.n or any(len(r) != self.n for r in rows):
            raise NotSkewSymmetrizable(f"need an m>=n matrix with {self.n} columns")
        skew_symmetrizer([r[: self.n] for r in rows[: self.n]])
        if m > self.n and matrix_rank(rows) != self.n:
            raise NotFullRank("extended exchange matrix must have full column rank")

    @classmethod
    def _make(cls, rows: tuple[tuple[int, ...], ...], n: int) -> "ExchangeMatrix":
        """Build, without validation, a matrix reached by mutation from a
        validated one.  Mutation keeps a skew-symmetrizer (Fomin-Zelevinsky,
        Cluster algebras I, Prop 4.5) and the rank of the extended matrix
        (Berenstein-Fomin-Zelevinsky, Cluster algebras III, Lemma 3.2), so
        such a matrix would pass; the caller passes rows as int tuples."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        return self

    @property
    def m(self) -> int:
        return len(self.rows)

    def principal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r[: self.n] for r in self.rows[: self.n])

    def mutate(self, k: int) -> "ExchangeMatrix":
        return ExchangeMatrix._make(matrix_mutate(self.rows, k), self.n)


def matrix_mutate(
    rows: Sequence[Sequence[int]], k: int
) -> tuple[tuple[int, ...], ...]:
    """Matrix mutation in direction k (0-based): entries in row or column k
    flip sign; an entry b_ij with b_ik b_kj > 0 moves by |b_ik| b_kj.  A row
    with b_ik = 0 is unchanged and kept as it is."""
    n = len(rows[0])
    if not 0 <= k < n:
        raise ValueError(f"direction {k} out of range for {n} columns")
    pivot = rows[k]
    out = []
    for i, row in enumerate(rows):
        b_ik = row[k]
        if i == k:
            out.append(tuple(-b for b in row))
        elif b_ik == 0:
            out.append(tuple(row))
        else:
            step = abs(b_ik)
            new = [b + step * p if b_ik * p > 0 else b for b, p in zip(row, pivot)]
            new[k] = -b_ik
            out.append(tuple(new))
    return tuple(out)


def c_vector_sign(c_rows: Sequence[Sequence[int]], k: int) -> int:
    """Sign of the k-th c-vector (column k of the C-matrix given by rows);
    raises NotSignCoherent unless its entries are nonzero of one sign."""
    column = [row[k] for row in c_rows]
    if any(column):
        if min(column) >= 0:
            return 1
        if max(column) <= 0:
            return -1
    raise NotSignCoherent(f"c-vector {k + 1} is {tuple(column)}")


@dataclass(frozen=True)
class Seed:
    matrix: ExchangeMatrix
    cluster: tuple[LaurentPoly, ...]
    frozen: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.cluster) != self.matrix.n:
            raise ValueError("cluster size must equal the number of columns")
        if len(self.frozen) != self.matrix.m - self.matrix.n:
            raise ValueError("frozen count must equal m - n")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.cluster[0].variables


def initial_seed(
    btilde: Sequence[Sequence[int]],
    cluster_names: Sequence[str],
    frozen_names: Sequence[str] = (),
) -> Seed:
    """Fresh seed whose cluster and frozen variables are the generators of
    the ambient Laurent ring named by the given identifiers."""
    ambient = tuple(cluster_names) + tuple(frozen_names)
    gens = LaurentPoly.ring(ambient)
    n = len(cluster_names)
    return Seed(
        ExchangeMatrix(tuple(tuple(r) for r in btilde), n),
        gens[:n],
        gens[n:],
    )


def seed_mutate(seed: Seed, k: int) -> Seed:
    """Mutate a seed in direction k via the exchange relation."""
    n = seed.matrix.n
    if not 0 <= k < n:
        raise ValueError(f"direction {k} out of range")
    ambient = seed.variables
    pos = LaurentPoly.one(ambient)
    neg = LaurentPoly.one(ambient)
    for i, row in enumerate(seed.matrix.rows):
        b = row[k]
        if b == 0:
            continue
        factor = seed.cluster[i] if i < n else seed.frozen[i - n]
        if b > 0:
            pos = pos * factor**b
        else:
            neg = neg * factor ** (-b)
    new_var = (pos + neg).exact_div(seed.cluster[k])
    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(seed.matrix.mutate(k), tuple(cluster), seed.frozen)


def canonical_key(seed: Seed) -> tuple:
    """Canonical form: cluster sorted by canonical text, with the same
    permutation applied to matrix columns and the top n rows (frozen rows
    keep their order, their columns are permuted)."""
    texts = [v.text() for v in seed.cluster]
    _check_distinct(texts)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return (tuple(texts[i] for i in order), _permuted(seed.matrix.rows, order))


def _check_distinct(cluster: Sequence) -> None:
    """Raise ValueError unless the variables (or their texts) are distinct."""
    if len(set(cluster)) != len(cluster):
        raise ValueError("cluster variables within a seed must be distinct")


def _permuted(matrix: Sequence[Sequence[int]], order: Sequence[int]) -> tuple:
    """Conjugate the top square block by `order`; frozen rows keep their
    place, their columns move."""
    n = len(order)
    top = tuple(tuple(matrix[i][j] for j in order) for i in order)
    return top + tuple(tuple(row[j] for j in order) for row in matrix[n:])


@dataclass
class MutationGraph:
    seeds: list[Seed]
    edges: list[tuple[int, int, int]]  # (seed index, direction, seed index)
    variables: dict[str, LaurentPoly]  # canonical text -> value
    closed: bool
    detected: DynkinType | None = None  # set once the walk closes

    def cluster_variables(self) -> list[LaurentPoly]:
        return list(self.variables.values())


def _check_witness(rows: Sequence[Sequence[int]], n: int, partial) -> None:
    """Raise NotFiniteType if the top n-by-n block has |b_ij b_ji| > 3."""
    if any(abs(rows[i][j] * rows[j][i]) > 3 for i in range(n) for j in range(i + 1, n)):
        message = "exchange matrix is not of finite type; its exchange graph is infinite"
        raise NotFiniteType(message, partial)


# -- the exchange-graph walk on packed g-vectors ----------------------------------

def _units(n: int) -> tuple[int, ...]:
    """The packed unit vectors: the g-vectors of the initial cluster."""
    return tuple(layout(n).pack([int(i == j) for i in range(n)]) for j in range(n))


def _g_mutate(
    rows: Sequence[Sequence[int]], gvectors: Sequence[int], k: int, eps: int
) -> tuple[int, int]:
    """The packed g'_k = -g_k + sum_i [-eps b_ik]_+ g_i, where eps is the sign
    of the k-th c-vector (Nakanishi-Zelevinsky, Prop 1.3), and 1 plus the sum
    of the coefficients: with every field of the g_i at most N in absolute
    value, every field of g'_k is at most N times that number."""
    packed = -gvectors[k]
    total = 1
    for row, g in zip(rows, gvectors):
        b = -eps * row[k]
        if b > 0:
            packed += b * g
            total += b
    return packed, total


def _check_revisit(
    stacked: Sequence[Sequence[int]],
    moved: Sequence[int],
    k: int,
    target: tuple[Sequence[Sequence[int]], Sequence[int]],
) -> int:
    """Mutation in direction k negates column k of the stacked matrix.  The
    target (stacked rows, g-vectors) of an edge must hold, at the slot t of
    g'_k, minus column k of the source, its top rows matched to the
    source's through the g-vectors and its lower rows in place.  Returns t."""
    rows, gvectors = target
    n = len(gvectors)
    slot = {g: j for j, g in enumerate(gvectors)}
    t = slot[moved[k]]
    for i, row in enumerate(stacked):
        if rows[slot[moved[i]] if i < n else i][t] != -row[k]:
            raise WalkCheckFailed(
                f"a revisited seed disagrees with column {k + 1} of the seed before it"
            )
    return t


def _walk(rows: Sequence[Sequence[int]], budget: int, partial=None):
    """BFS over the exchange graph of the seed with extended matrix `rows`,
    on integer data alone; seeds are numbered in order of discovery.

    Each seed is its stacked matrix, the extended matrix over the C-matrix
    (I at the start), and its packed g-vectors, and it is known by the
    sorted tuple of them.  Mutating seed u in direction k computes g'_k alone
    (`_g_mutate`), with the sign of the k-th c-vector, checked for
    sign-coherence, and checks that g'_k fits the packing.  The stacked
    matrix is mutated only when the image is a new seed v, whose top block
    must show no witness of infinite type.  New or not, v must hold minus
    column k of u at the slot t of g'_k (`_check_revisit`).

    Each edge is computed once, from the end whose turn comes first: the
    edge from u in direction k leaves pending[v n + t] = u, and at v's turn
    direction t yields u with nothing computed.  That is what the
    computation would find.  Column t of v is minus column k of u, C rows
    included, so the c-vector at t is the negation of a sign-coherent one
    and its sign is -eps.  Every term [-eps' b'_it]_+ g'_i of the
    Nakanishi-Zelevinsky sum is then the term [-eps b_ik]_+ g_i of u for
    the same g-vector (b'_tt = b_kk = 0), so the sum S is unchanged and
    g'' = -g'_k + S = g_k: v mutated at t has the g-vectors of u, all held
    in the packing already.  The check from v's end, column k of u minus
    column t of v, is the same equation.  On the reverse of the edge that
    made v, that check was the only one of the column `matrix_mutate`
    wrote, so a new seed runs it once itself.  Seeds take their turns in
    the order they are numbered.  A computed edge can meet no seed whose
    turn is over: that seed's edge at t was computed or popped already,
    and it would have left its entry for u at k.  So a seed's data is
    dropped when its turn ends, and such a meeting raises WalkCheckFailed.

    Yields (u, k, v, image, new) per edge, where new says whether v was
    met just now and image, for a new v only (None otherwise), is its
    (extended matrix, C rows, packed g-vectors).  Raises, with `partial`
    attached, MutationBudgetExceeded if more than `budget` seeds appear
    and NotFiniteType at the first seed, the start included, with a
    witness."""
    n = len(rows[0])
    m = len(rows)
    unpack = layout(n).unpack
    _check_witness(rows, n, partial)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    start = _units(n)
    seeds = [(tuple(rows) + identity, start)]
    index = {tuple(sorted(start)): 0}
    blank = [None] * n
    pending = blank[:]  # pending[v * n + t]: the seed whose edge reached v at slot t
    norm = 1  # the largest |field| of any g-vector met so far
    frontier = [0]
    while frontier:
        fresh = []
        for u in frontier:
            stacked, gvectors = seeds[u]
            c_rows = stacked[m:]
            at = u * n
            for k in range(n):
                w = pending[at + k]
                if w is not None:
                    yield u, k, w, None, False
                    continue
                g, total = _g_mutate(stacked, gvectors, k, c_vector_sign(c_rows, k))
                if norm * total >= LIMIT:
                    raise WalkCheckFailed(
                        f"a g-vector field may reach {norm * total},"
                        f" outside the packed range [-{LIMIT}, {LIMIT})"
                    )
                # g'_k is -g_k plus the other g_i, so det G changes sign
                # alone: the g-vectors stay a basis, n distinct ints
                moved = gvectors[:k] + (g,) + gvectors[k + 1 :]
                key = tuple(sorted(moved))
                v = index.get(key)
                if v is not None:
                    if v <= u:
                        raise WalkCheckFailed(
                            f"the edge in direction {k + 1} reached a seed whose turn is over"
                        )
                    pending[v * n + _check_revisit(stacked, moved, k, seeds[v])] = u
                    yield u, k, v, None, False
                    continue
                v = len(seeds)
                if v >= budget:
                    raise MutationBudgetExceeded(
                        f"exchange graph exceeded {budget} seeds", partial
                    )
                image = matrix_mutate(stacked, k)
                _check_revisit(stacked, moved, k, (image, moved))
                _check_witness(image, n, partial)
                norm = max(norm, *map(abs, unpack(g)))
                index[key] = v
                seeds.append((image, moved))
                pending += blank
                pending[v * n + k] = u
                fresh.append(v)
                yield u, k, v, (image[:m], image[m:], moved), True
            seeds[u] = None  # no edge reads a seed whose turn is over
        frontier = fresh


def explore(seed: Seed, budget: int = 10**5) -> MutationGraph:
    """BFS over the exchange graph from `seed`, on integer data (`_walk`).

    The g-vector key agrees with `canonical_key` when the cluster of `seed`
    is algebraically independent, which holds for `initial_seed`.  A
    cluster variable is computed by `seed_mutate` only when a new seed
    brings an unseen g-vector; every stored seed must still have distinct
    variables (ValueError otherwise).

    Raises MutationBudgetExceeded or NotFiniteType as `_walk` does, with
    the partial graph attached; a closed graph has its Dynkin type set.
    """
    n = seed.matrix.n
    values = dict(zip(_units(n), seed.cluster))  # packed g-vector -> variable
    _check_distinct(seed.cluster)
    record = MutationGraph([seed], [], {}, False)
    for v in seed.cluster:
        record.variables.setdefault(v.text(), v)
    detected = _finite_type(seed.matrix.principal())
    for u, k, v, image, new in _walk(seed.matrix.rows, budget, record):
        if new:
            rows, _, gvectors = image
            g = gvectors[k]
            parent = record.seeds[u]
            if g in values:
                cluster = list(parent.cluster)
                cluster[k] = values[g]
                child = Seed(ExchangeMatrix._make(rows, n), tuple(cluster), parent.frozen)
            else:
                child = seed_mutate(parent, k)
                values[g] = child.cluster[k]
                record.variables.setdefault(values[g].text(), values[g])
            _check_distinct(child.cluster)
            record.seeds.append(child)
            if detected is None:
                detected = _finite_type(child.matrix.principal())
        if u <= v:
            record.edges.append((u, k, v))
    record.closed = True
    record.detected = _closed_type(detected)
    return record


def exchange_counts(
    rows: Sequence[Sequence[int]], budget: int = 10**5
) -> tuple[int, int, DynkinType]:
    """Seeds, cluster variables (distinct g-vectors, the initial ones
    included) and Dynkin type of the exchange graph of `rows`, from one
    `_walk` and no Laurent arithmetic.  The type is read off the first
    seed matrix with a finite Cartan companion as the walk goes, and no
    matrix is kept.  Raises as `_walk` does."""
    n = len(rows[0])
    seeds = 1
    gvectors = set(_units(n))
    detected = _finite_type(rows[:n])
    for _, k, _, image, new in _walk(rows, budget):
        if new:
            seeds += 1
            gvectors.add(image[2][k])
            if detected is None:
                detected = _finite_type(image[0][:n])
    return seeds, len(gvectors), _closed_type(detected)


def alternating_chain(
    btilde: Sequence[Sequence[int]], names: Sequence[str] = ("x", "y")
) -> tuple[list[Seed], list[LaurentPoly]]:
    """Mutate a rank-2 seed alternately in directions 0,1,0,1,... until the
    canonical form returns to the start.  Returns the seed cycle (start
    included once) and every distinct variable in order of first appearance."""
    seed = initial_seed(btilde, names)
    if seed.matrix.n != 2:
        raise ValueError("alternating_chain needs a rank-2 seed")
    start = canonical_key(seed)
    seeds = [seed]
    appeared: list[LaurentPoly] = list(seed.cluster)
    direction = 0
    while True:
        seed = seed_mutate(seed, direction)
        direction = 1 - direction
        if canonical_key(seed) == start:
            break
        seeds.append(seed)
        for v in seed.cluster:
            if all(v != w for w in appeared):
                appeared.append(v)
        if len(seeds) > 1000:
            raise MutationBudgetExceeded("rank-2 chain failed to close")
    return seeds, appeared


# -- finite type detection ----------------------------------------------------


def _cartan_companion(rows: tuple[tuple[int, ...], ...]):
    """If every row is uniformly signed off the diagonal, build the Cartan
    matrix candidate 2I - |B| and return it, else None."""
    n = len(rows)
    for i in range(n):
        signs = {1 if x > 0 else -1 for x in rows[i] if x}
        if len(signs) > 1:
            return None
    return tuple(
        tuple(2 if i == j else -abs(rows[i][j]) for j in range(n)) for i in range(n)
    )


def detect_finite_type(
    rows: Sequence[Sequence[int]] | ExchangeMatrix, budget: int = 10**4
) -> DynkinType | None:
    """Classify the mutation class of a square exchange matrix.

    Walks the coefficient-free exchange graph (`exchange_counts`), whose
    seed matrices make up the mutation class.  Returns None at the first
    infinite-type witness and, once the walk closes, the Dynkin type.
    Raises Inconclusive if more than `budget` seeds appear first.
    """
    if isinstance(rows, ExchangeMatrix):
        rows = rows.principal()
    start = tuple(tuple(int(x) for x in r) for r in rows)
    skew_symmetrizer(start)  # validates shape
    try:
        return exchange_counts(start, budget)[2]
    except NotFiniteType:
        return None
    except MutationBudgetExceeded:
        raise Inconclusive(f"mutation class exceeded {budget} seeds") from None


def _finite_type(matrix: Sequence[Sequence[int]]) -> DynkinType | None:
    """Dynkin type of a square matrix built from a finite-type Cartan
    matrix, else None."""
    candidate = _cartan_companion(matrix)
    if candidate is None:
        return None
    try:
        return cartan_mod.finite_type(candidate)
    except (cartan_mod.NotCartanShape, cartan_mod.NotSymmetrizable):
        return None


def _closed_type(detected: DynkinType | None) -> DynkinType:
    """The type found by a closed walk; Inconclusive if it met no seed
    matrix with a finite Cartan companion."""
    if detected is None:
        raise Inconclusive(
            "mutation class closed without a finite Cartan companion; "
            "this contradicts the finite-type classification"
        )
    return detected


# -- positivity -----------------------------------------------------------------


def observe_positivity(variables: Iterable[LaurentPoly] | MutationGraph) -> dict:
    """Report (never assert) the positivity of coefficients."""
    if isinstance(variables, MutationGraph):
        variables = variables.cluster_variables()
    negatives = []
    count = 0
    for v in variables:
        count += 1
        if any(c < 0 for c in v.coefficients()):
            negatives.append(v.text())
    return {
        "variables": count,
        "all_positive": not negatives,
        "negative_examples": negatives[:10],
    }


# -- serialization ----------------------------------------------------------------


def seed_to_dict(seed: Seed) -> dict:
    return {
        "m": seed.matrix.m,
        "n": seed.matrix.n,
        "btilde": [list(r) for r in seed.matrix.rows],
        "cluster": [v.text() for v in seed.cluster],
        "frozen": [v.text() for v in seed.frozen],
        "variables": list(seed.variables),
    }


# The most characters of cluster and frozen variable text, summed over the
# seeds, that graph_to_dot and graph_to_dict render.  E7 comes to 33 million
# (38 MB of JSON) and passes; E8 to about 3.6 billion.
RENDER_BUDGET = 10**8


def _check_render_size(record: MutationGraph) -> None:
    """Raise BudgetExceeded if the seeds' variable texts, each rendered
    once and kept by its variable, sum past RENDER_BUDGET characters."""
    size = sum(len(v.text()) for seed in record.seeds for v in seed.cluster + seed.frozen)
    if size > RENDER_BUDGET:
        raise BudgetExceeded(
            f"rendering the exchange graph takes {size} characters of variable"
            f" text, over {RENDER_BUDGET}"
        )


def graph_to_dot(record: MutationGraph) -> str:
    _check_render_size(record)
    lines = ["graph exchange {"]
    for i, seed in enumerate(record.seeds):
        label = ", ".join(sorted(v.text() for v in seed.cluster))
        lines.append(f'  s{i} [label="{label}"];')
    for u, k, v in record.edges:
        lines.append(f'  s{u} -- s{v} [label="{k + 1}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_dict(record: MutationGraph) -> dict:
    _check_render_size(record)
    return {
        "seeds": [seed_to_dict(s) for s in record.seeds],
        "edges": [list(e) for e in record.edges],
        "variables": sorted(record.variables),
        "closed": record.closed,
    }
