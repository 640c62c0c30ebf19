"""Double wiring diagrams for GL(n) and the open double Bruhat cell.

A double wiring diagram superimposes two wiring diagrams of the braid
arrangement, one per color, each a reduced word for the longest permutation.
Chambers carry minors of a generic n-by-n matrix, local moves exchange one
bounded chamber minor at a time subject to the three-term identity
A*C + B*D = Y*Z, and for n = 3 the resulting exchange structure generates
the cluster algebra of the open double Bruhat cell in GL(3).

Conventions, fixed once and used everywhere: the thick family is numbered
by right endpoints (so reading the left edge bottom to top gives n..1), the
thin family by left endpoints (left edge reads 1..n).  The chamber label at
a given horizontal slice and level k is the pair (thick labels in rows
1..k, thin labels in rows 1..k), and the attached minor takes rows from the
thick set and columns from the thin set.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import matrix_rank
from .mutation import Seed, explore, initial_seed
from .cartan import dynkin_name

THICK = "T"
THIN = "t"

Letter = tuple[str, int]
Label = tuple[tuple[int, ...], tuple[int, ...]]


class NoMoveAvailable(ValueError):
    """The requested chamber cannot be flipped in this diagram's class."""


class MoveIdentityFailed(ArithmeticError):
    """A move's three-term identity A*C + B*D = Y*Z does not hold."""


class WiringCheckFailed(RuntimeError):
    """A diagram, its exchange seed or the GL(3) report broke one of its own
    structural invariants (a chamber count, an exchange relation, the
    match between cluster variables and minors)."""


def parse_word(text: str) -> tuple[Letter, ...]:
    """Parse an interleaved word such as "T2 t1 t2 T1 T2 t1"."""
    letters = []
    for token in text.split():
        family, height = token[0], token[1:]
        if family not in (THICK, THIN) or not height.isdigit():
            raise ValueError(f"bad letter {token!r}")
        letters.append((family, int(height)))
    return tuple(letters)


def word_text(word: tuple[Letter, ...]) -> str:
    return " ".join(f"{family}{height}" for family, height in word)


# The two diagrams drawn in full in the source figures: the first admits
# four local moves, the second only three.
FOUR_MOVE_WORD = parse_word("T2 t1 t2 T1 T2 t1")
THREE_MOVE_WORD = parse_word("T1 T2 T1 t1 t2 t1")


def reduced_words_longest(n: int) -> list[tuple[int, ...]]:
    """All reduced words for the order-reversing permutation of 1..n."""

    def grow(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
        if all(perm[i] == i + 1 for i in range(n)):
            return [()]
        words = []
        for i in range(n - 1):
            if perm[i] > perm[i + 1]:
                child = list(perm)
                child[i], child[i + 1] = child[i + 1], child[i]
                words.extend((i + 1,) + rest for rest in grow(tuple(child)))
        return words

    return grow(tuple(range(n, 0, -1)))


@dataclass(frozen=True)
class DoubleWiringDiagram:
    """A shuffle of one thick and one thin reduced word for the reversal."""

    n: int
    word: tuple[Letter, ...]

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        for family in (THICK, THIN):
            heights = [h for f, h in self.word if f == family]
            if len(heights) != expected:
                raise ValueError(
                    f"family {family!r} has {len(heights)} crossings, "
                    f"expected {expected}"
                )
            rows = list(range(self.n, 0, -1))
            for h in heights:
                if not 1 <= h < self.n:
                    raise ValueError(f"height {h} out of range for n={self.n}")
                rows[h - 1], rows[h] = rows[h], rows[h - 1]
            if rows != list(range(1, self.n + 1)):
                raise ValueError(
                    f"family {family!r} word does not realize the reversal"
                )

    def text(self) -> str:
        return word_text(self.word)


def diagram(source: str | tuple[Letter, ...], n: int = 3) -> DoubleWiringDiagram:
    word = parse_word(source) if isinstance(source, str) else tuple(source)
    return DoubleWiringDiagram(n, word)


def _sweep(d: DoubleWiringDiagram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Row occupancies (thick, thin) at every slice, left edge first.

    Row index 0 is the bottom row.  Thick labels are right endpoints, so
    the sweep starts at n..1 and must end at 1..n; thin labels start 1..n.
    """
    thick = list(range(d.n, 0, -1))
    thin = list(range(1, d.n + 1))
    slices = [(tuple(thick), tuple(thin))]
    for family, height in d.word:
        rows = thick if family == THICK else thin
        rows[height - 1], rows[height] = rows[height], rows[height - 1]
        slices.append((tuple(thick), tuple(thin)))
    if slices[-1] != (tuple(range(1, d.n + 1)), tuple(range(d.n, 0, -1))):
        raise WiringCheckFailed(f"the sweep ends at {slices[-1]}, not at both reversals")
    return slices


def chamber_label(d: DoubleWiringDiagram, slice_index: int, level: int) -> Label:
    """Label of the chamber at the given slice spanning rows 1..level."""
    thick, thin = _sweep(d)[slice_index]
    return (tuple(sorted(thick[:level])), tuple(sorted(thin[:level])))


@dataclass(frozen=True)
class Chamber:
    level: int
    start: int
    end: int
    label: Label
    bounded: bool


def chambers(d: DoubleWiringDiagram) -> tuple[Chamber, ...]:
    """All n*n chambers, swept left to right within each level."""
    slices = _sweep(d)
    last = len(d.word)
    found = []
    for level in range(1, d.n + 1):
        cuts = [p for p, (_, h) in enumerate(d.word) if h == level]
        starts = [0] + [p + 1 for p in cuts]
        ends = cuts + [last]
        for start, end in zip(starts, ends):
            thick, thin = slices[start]
            label = (tuple(sorted(thick[:level])), tuple(sorted(thin[:level])))
            found.append(
                Chamber(level, start, end, label, 0 < start and end < last)
            )
    if len(found) != d.n * d.n:
        raise WiringCheckFailed(f"{len(found)} chambers, expected {d.n * d.n}")
    return tuple(found)


def chamber_collection(d: DoubleWiringDiagram) -> frozenset[Label]:
    labels = frozenset(c.label for c in chambers(d))
    if len(labels) != d.n * d.n:
        raise WiringCheckFailed(
            f"{len(labels)} distinct chamber labels, expected {d.n * d.n}"
        )
    return labels


def label_text(label: Label) -> str:
    thick, thin = label
    return "".join(map(str, thick)) + "," + "".join(map(str, thin))


@lru_cache(maxsize=None)
def _matrix_ring(n: int) -> tuple[LaurentPoly, ...]:
    names = [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return LaurentPoly.ring(names)


@lru_cache(maxsize=None)
def minor_poly(rows: tuple[int, ...], cols: tuple[int, ...], n: int) -> LaurentPoly:
    """The minor with the given row and column sets of a generic n-by-n
    matrix of indeterminates x11..xnn, as an exact polynomial.  Empty sets
    give the constant 1."""
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    gens = _matrix_ring(n)
    names = [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    total = LaurentPoly.constant(names, 0)
    for perm in itertools.permutations(range(len(rows))):
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        term = LaurentPoly.constant(names, sign)
        for r, c in zip(rows, (cols[p] for p in perm)):
            term = term * gens[(r - 1) * n + (c - 1)]
        total = total + term
    return total


def chamber_minors(d: DoubleWiringDiagram) -> dict[Label, LaurentPoly]:
    return {
        c.label: minor_poly(c.label[0], c.label[1], d.n) for c in chambers(d)
    }


@dataclass(frozen=True)
class Move:
    """A local move: "swap" exchanges adjacent opposite-color crossings of
    equal height at positions (p, p+1); "braid" reverses three same-color
    crossings at heights (a, b, a), |a-b| = 1, at positions (p, p+1, p+2)."""

    kind: str
    position: int


def word_moves(word: tuple[Letter, ...]) -> list[Move]:
    moves = []
    for p in range(len(word) - 1):
        (f1, h1), (f2, h2) = word[p], word[p + 1]
        if f1 != f2 and h1 == h2:
            moves.append(Move("swap", p))
    for p in range(len(word) - 2):
        (f1, h1), (f2, h2), (f3, h3) = word[p : p + 3]
        if f1 == f2 == f3 and h1 == h3 and abs(h1 - h2) == 1:
            moves.append(Move("braid", p))
    return moves


def apply_move(word: tuple[Letter, ...], move: Move) -> tuple[Letter, ...]:
    out = list(word)
    p = move.position
    if move.kind == "swap":
        out[p], out[p + 1] = out[p + 1], out[p]
    elif move.kind == "braid":
        (family, a), (_, b), _ = word[p : p + 3]
        out[p : p + 3] = [(family, b), (family, a), (family, b)]
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return tuple(out)


def move_chambers(d: DoubleWiringDiagram, move: Move) -> dict:
    """The six chamber labels around a move, following the figure: Y is the
    flipped bounded chamber, Z its replacement, A/C flank Y at its level,
    and B/D sit above and below (D is None when the move hugs the bottom).
    """
    word = d.word
    moved = DoubleWiringDiagram(d.n, apply_move(word, move))
    p = move.position
    if move.kind == "swap":
        level = word[p][1]
        record = {
            "Y": chamber_label(d, p + 1, level),
            "Z": chamber_label(moved, p + 1, level),
            "A": chamber_label(d, p, level),
            "C": chamber_label(d, p + 2, level),
            "B": chamber_label(d, p + 1, level + 1),
            "D": chamber_label(d, p + 1, level - 1) if level > 1 else None,
        }
    else:
        a, b = word[p][1], word[p + 1][1]
        record = {
            "Y": chamber_label(d, p + 1, a),
            "Z": chamber_label(moved, p + 1, b),
            "A": chamber_label(d, p, a),
            "D": chamber_label(d, p + 3, a),
            "B": chamber_label(d, p, b),
            "C": chamber_label(d, p + 3, b),
        }
    record["diagram"] = moved
    return record


def check_move_identity(d: DoubleWiringDiagram, move: Move) -> dict:
    """Verify A*C + B*D = Y*Z symbolically for one move.  Returns the move
    record with the outcome under "holds"."""
    record = move_chambers(d, move)

    def value(key: str) -> LaurentPoly:
        label = record[key]
        if label is None:
            return minor_poly((), (), d.n)
        return minor_poly(label[0], label[1], d.n)

    left = value("A") * value("C") + value("B") * value("D")
    right = value("Y") * value("Z")
    record["holds"] = left == right
    return record


@dataclass(frozen=True)
class IsotopyClass:
    """All shuffles sharing one chamber collection; the collection is the
    canonical form."""

    n: int
    labels: tuple[Label, ...]
    words: tuple[tuple[Letter, ...], ...]

    def representative(self) -> DoubleWiringDiagram:
        return DoubleWiringDiagram(self.n, self.words[0])


@dataclass
class MoveGraph:
    n: int
    classes: list[IsotopyClass]
    edges: list[tuple[int, int]]

    def degree(self, index: int) -> int:
        return sum(1 for u, v in self.edges if index in (u, v))

    def class_of(self, word: tuple[Letter, ...]) -> int:
        collection = chamber_collection(DoubleWiringDiagram(self.n, word))
        key = tuple(sorted(collection))
        for i, cls in enumerate(self.classes):
            if cls.labels == key:
                return i
        raise ValueError("word does not belong to any enumerated class")

    def to_dot(self) -> str:
        lines = ["graph moves {"]
        for i, cls in enumerate(self.classes):
            caption = " ".join(
                label_text(c.label)
                for c in chambers(cls.representative())
                if c.bounded
            )
            lines.append(f'  c{i} [label="{caption}"];')
        for u, v in self.edges:
            lines.append(f"  c{u} -- c{v};")
        lines.append("}")
        return "\n".join(lines)


def all_words(n: int) -> list[tuple[Letter, ...]]:
    """Every shuffle of a thick with a thin reduced word for the reversal."""
    half = n * (n - 1) // 2
    single = reduced_words_longest(n)
    words = []
    for thick_word, thin_word in itertools.product(single, repeat=2):
        for thick_slots in itertools.combinations(range(2 * half), half):
            slot_set = set(thick_slots)
            letters: list[Letter] = []
            i = j = 0
            for p in range(2 * half):
                if p in slot_set:
                    letters.append((THICK, thick_word[i]))
                    i += 1
                else:
                    letters.append((THIN, thin_word[j]))
                    j += 1
            words.append(tuple(letters))
    return words


def enumerate_classes(n: int) -> MoveGraph:
    """Group all shuffles into isotopy classes and link them by moves."""
    if n > 3:
        raise ValueError("full enumeration is only supported for n <= 3")
    members: dict[tuple[Label, ...], list[tuple[Letter, ...]]] = {}
    for word in all_words(n):
        key = tuple(sorted(chamber_collection(DoubleWiringDiagram(n, word))))
        members.setdefault(key, []).append(word)
    keys = sorted(members)
    index = {key: i for i, key in enumerate(keys)}
    classes = [
        IsotopyClass(n, key, tuple(sorted(members[key]))) for key in keys
    ]
    edges = set()
    for i, cls in enumerate(classes):
        for word in cls.words:
            for move in word_moves(word):
                moved = apply_move(word, move)
                key = tuple(
                    sorted(chamber_collection(DoubleWiringDiagram(n, moved)))
                )
                j = index[key]
                if j == i:
                    raise WiringCheckFailed(
                        f"a move of {word_text(word)} keeps its collection"
                    )
                edges.add((min(i, j), max(i, j)))
    return MoveGraph(n, classes, sorted(edges))


def verify_move_identities(graph: MoveGraph) -> int:
    """Check A*C + B*D = Y*Z on one witness per move found anywhere in the
    enumeration; returns the number of checks performed and raises
    MoveIdentityFailed at the first identity that does not hold."""
    checked = 0
    for cls in graph.classes:
        for word in cls.words:
            d = DoubleWiringDiagram(graph.n, word)
            for move in word_moves(word):
                if not check_move_identity(d, move)["holds"]:
                    raise MoveIdentityFailed(
                        f"identity failed at {word_text(word)} move {move}"
                    )
                checked += 1
    return checked


def local_move(d: DoubleWiringDiagram, label: Label) -> dict:
    """Flip the bounded chamber with the given label, searching the whole
    isotopy class of the diagram for a word presenting the move.  Returns
    the move record (with the moved diagram and verified identity)."""
    collection = chamber_collection(d)
    seen = {d.word}
    frontier = [d.word]
    while frontier:
        fresh = []
        for word in frontier:
            candidate = DoubleWiringDiagram(d.n, word)
            if chamber_collection(candidate) != collection:
                raise WiringCheckFailed(
                    f"sliding reached {word_text(word)} in another class"
                )
            for move in word_moves(word):
                record = check_move_identity(candidate, move)
                if record["Y"] == label:
                    if not record["holds"]:
                        raise MoveIdentityFailed(
                            f"identity failed at {word_text(word)} move {move}"
                        )
                    return record
            for p in range(len(word) - 1):
                (f1, h1), (f2, h2) = word[p], word[p + 1]
                same_family = f1 == f2
                if (same_family and abs(h1 - h2) >= 2) or (
                    not same_family and h1 != h2
                ):
                    slid = list(word)
                    slid[p], slid[p + 1] = slid[p + 1], slid[p]
                    key = tuple(slid)
                    if key not in seen:
                        seen.add(key)
                        fresh.append(key)
        frontier = fresh
    raise NoMoveAvailable(f"no move flips chamber {label_text(label)}")


def jacobian_rank(d: DoubleWiringDiagram) -> int:
    """Exact rank of the Jacobian of all chamber minors at one fixed point,
    the Pascal matrix x_ij = binomial(i+j-2, i-1), which is totally positive.

    The rank at any point is at most the generic rank, which is at most the
    number n*n of variables.  So a rank of n*n at this one point proves that
    the chamber minors are algebraically independent; a smaller value
    proves nothing either way."""
    point = {
        f"x{i}{j}": Fraction(math.comb(i + j - 2, i - 1))
        for i in range(1, d.n + 1)
        for j in range(1, d.n + 1)
    }
    names = list(point)
    rows = []
    for label in sorted(chamber_collection(d)):
        poly = minor_poly(label[0], label[1], d.n)
        rows.append([poly.derivative(name).evaluate(point) for name in names])
    return matrix_rank(rows)


def chamber_name(label: Label) -> str:
    thick, thin = label
    return "m" + "".join(map(str, thick)) + "_" + "".join(map(str, thin))


def hidden_polynomials(n: int = 3) -> tuple[LaurentPoly, LaurentPoly]:
    """The two cluster variables of the GL(3) cell that are not minors."""
    g = {name: poly for name, poly in zip(
        [f"x{i}{j}" for i in range(1, 4) for j in range(1, 4)], _matrix_ring(3)
    )}
    shared = g["x12"] * g["x23"] * g["x31"] + g["x13"] * g["x21"] * g["x32"]
    first = g["x12"] * g["x21"] * g["x33"] - shared + g["x13"] * g["x22"] * g["x31"]
    second = g["x11"] * g["x23"] * g["x32"] - shared + g["x13"] * g["x22"] * g["x31"]
    return first, second


def _seed_from_class(
    graph: MoveGraph, index: int
) -> tuple[Seed, list[Label], list[Label]]:
    """Derive the exchange seed of one isotopy class: cluster variables are
    the bounded chamber minors, frozen the unbounded ones, and each column
    of the extended exchange matrix is read off the move relation flipping
    that chamber, with signs fixed by skew-symmetry of the principal part."""
    cls = graph.classes[index]
    rep = cls.representative()
    bounded = sorted(c.label for c in chambers(rep) if c.bounded)
    unbounded = sorted(c.label for c in chambers(rep) if not c.bounded)
    relations: dict[Label, tuple[frozenset, frozenset]] = {}
    for word in cls.words:
        d = DoubleWiringDiagram(graph.n, word)
        for move in word_moves(word):
            record = move_chambers(d, move)
            plus = frozenset({record["A"], record["C"]})
            minus = frozenset({record["B"], record["D"]} - {None})
            if relations.setdefault(record["Y"], (plus, minus)) != (plus, minus):
                raise WiringCheckFailed(
                    f"two exchange relations for chamber {label_text(record['Y'])}"
                )
    if set(relations) != set(bounded):
        raise WiringCheckFailed("every bounded chamber must admit a move in this class")
    order = bounded + unbounded
    row_of = {label: i for i, label in enumerate(order)}
    k = len(bounded)
    columns = []
    for label in bounded:
        plus, minus = relations[label]
        column = [0] * len(order)
        for other in plus:
            column[row_of[other]] = 1
        for other in minus:
            column[row_of[other]] = -1
        columns.append(column)
    consistent = []
    for signs in itertools.product((1, -1), repeat=k):
        rows = [
            [signs[j] * columns[j][i] for j in range(k)]
            for i in range(len(order))
        ]
        if all(
            rows[i][j] == -rows[j][i] for i in range(k) for j in range(k)
        ):
            consistent.append(rows)
    if not consistent:
        raise WiringCheckFailed("no sign choice makes the principal part skew-symmetric")
    rows = consistent[0]
    seed = initial_seed(
        rows,
        [chamber_name(label) for label in bounded],
        [chamber_name(label) for label in unbounded],
    )
    return seed, bounded, unbounded


def gl3_cell(budget: int = 10**4, graph: MoveGraph | None = None) -> dict:
    """Build the GL(3) double Bruhat cell cluster structure from wiring
    diagrams and cross-check it against the matrix minors.  Returns a
    JSON-ready report.  `graph` is `enumerate_classes(3)`, computed here
    unless the caller already has it."""
    if graph is None:
        graph = enumerate_classes(3)
    start = graph.class_of(FOUR_MOVE_WORD)
    seed, bounded, unbounded = _seed_from_class(graph, start)
    record = explore(seed, budget=budget)

    substitution = {
        chamber_name(label): minor_poly(label[0], label[1], 3)
        for label in bounded + unbounded
    }
    all_minors = {}
    for size in (1, 2, 3):
        for rows in itertools.combinations(range(1, 4), size):
            for cols in itertools.combinations(range(1, 4), size):
                all_minors[minor_poly(rows, cols, 3).text()] = (rows, cols)
    first_hidden, second_hidden = hidden_polynomials()
    hidden_texts = {first_hidden.text(): 0, second_hidden.text(): 1}
    frozen_texts = {
        minor_poly(label[0], label[1], 3).text() for label in unbounded
    }

    matched_minors = []
    matched_hidden = []
    image_text = {}  # cluster variable -> text of its image in the minors
    for variable in record.cluster_variables():
        numerator, denominators = variable.substitute_laurent(substitution).separate()
        text = numerator.text()
        if any(denominators):
            raise WiringCheckFailed(f"cluster variable {text} is not a polynomial")
        image_text[variable] = text
        if text in hidden_texts:
            matched_hidden.append(text)
        elif text not in all_minors:
            raise WiringCheckFailed(f"unrecognized cluster variable {text}")
        elif text in frozen_texts:
            raise WiringCheckFailed(f"frozen minor {text} appeared as mutable")
        else:
            matched_minors.append(all_minors[text])
    if not len(matched_hidden) == len(hidden_texts) == 2:
        raise WiringCheckFailed(f"{len(matched_hidden)} hidden variables, expected 2")
    if len(matched_minors) + len(frozen_texts) != len(all_minors):
        raise WiringCheckFailed(
            f"{len(matched_minors)} mutable and {len(frozen_texts)} frozen minors,"
            f" expected {len(all_minors)} in all"
        )

    cluster_sets = {frozenset(image_text[v] for v in s.cluster) for s in record.seeds}
    if len(cluster_sets) != len(record.seeds):
        raise WiringCheckFailed(
            f"{len(record.seeds)} seeds give {len(cluster_sets)} distinct clusters"
        )
    embedded = 0
    for cls in graph.classes:
        rep = cls.representative()
        texts = frozenset(
            minor_poly(c.label[0], c.label[1], 3).text()
            for c in chambers(rep)
            if c.bounded
        )
        if texts not in cluster_sets:
            raise WiringCheckFailed("wiring cluster missing from the graph")
        embedded += 1
    if embedded >= len(cluster_sets):
        raise WiringCheckFailed("the embedding should be strict")

    rank = jacobian_rank(graph.classes[start].representative())

    return {
        "n": 3,
        "seed_word": word_text(graph.classes[start].words[0]),
        "isotopy_classes": len(graph.classes),
        "cluster_variable_count": len(record.variables),
        "cluster_count": len(record.seeds),
        "detected_type": dynkin_name(record.detected),
        "frozen_minors": sorted(label_text(label) for label in unbounded),
        "minor_variables": sorted(
            label_text(pair) for pair in matched_minors
        ),
        "hidden_variables": sorted(hidden_texts, key=hidden_texts.get),
        "wiring_clusters_embedded": embedded,
        "jacobian_rank": rank,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
