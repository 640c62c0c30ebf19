"""Root system closure, invariants, the longest element, the root poset, and
the coroot half-sum."""

from fractions import Fraction

import pytest

from clusterfan import cartan as cartan_mod
from clusterfan.cartan import MAX_RANK, ClosureBudgetExceeded
from clusterfan.coxeter import build_group
from clusterfan.roots import (
    RootPoset,
    coroot_half_sum,
    coxeter_data,
    root_system,
    to_json_dict,
)

# positives, coxeter number, exponents, |W|, all cross-checked against the
# classical closed forms (binomial counts, n!, 2^{n-1} n!, ...).
INVARIANTS = {
    "A1": (1, 2, (1,), 2),
    "A2": (3, 3, (1, 2), 6),
    "A3": (6, 4, (1, 2, 3), 24),
    "A4": (10, 5, (1, 2, 3, 4), 120),
    "A5": (15, 6, (1, 2, 3, 4, 5), 720),
    "B2": (4, 4, (1, 3), 8),
    "B3": (9, 6, (1, 3, 5), 48),
    "B4": (16, 8, (1, 3, 5, 7), 384),
    "C3": (9, 6, (1, 3, 5), 48),
    "D4": (12, 6, (1, 3, 3, 5), 192),
    "F4": (24, 12, (1, 5, 7, 11), 1152),
    "G2": (6, 6, (1, 5), 12),
}


@pytest.mark.parametrize("name", sorted(INVARIANTS))
def test_invariant_table(name):
    rs = root_system(name)
    positives, h, exponents, order = INVARIANTS[name]
    assert rs.num_positive == positives
    assert len(rs.roots) == 2 * positives
    data = coxeter_data(rs)
    assert data.coxeter_number == h
    assert data.exponents == exponents
    assert data.group_order == order
    # nh = 2|positive roots| and sum of exponents = |positive roots|
    assert rs.n * h == 2 * positives
    assert sum(exponents) == positives


# every type whose whole Weyl group the suite can afford to build
GROUP_ORACLE_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
    "C3", "C4", "D4", "D5", "G2", "F4", "E6",
)


@pytest.mark.parametrize("name", GROUP_ORACLE_TYPES)
def test_longest_element_matches_group(name):
    rs = root_system(name)
    group = build_group(rs)
    assert rs.longest_element() == rs.word_perm(group.reduced_word(group.w0))


@pytest.mark.parametrize("name", GROUP_ORACLE_TYPES + ("E7", "E8"))
def test_longest_element_structure(name):
    rs = root_system(name)
    w0 = rs.longest_element()
    size = len(rs.roots)
    # sends every positive root to a negative one and back
    assert all(rs.is_positive(w0[r]) != rs.is_positive(r) for r in range(size))
    assert all(w0[w0[r]] == r for r in range(size))
    # -w0 permutes the simple roots by a symmetry of the Dynkin diagram
    star = [rs.simple_index.index(rs.negate(w0[s])) for s in rs.simple_index]
    assert sorted(star) == list(range(rs.n))
    assert all(
        rs.cartan[star[i]][star[j]] == rs.cartan[i][j]
        for i in range(rs.n)
        for j in range(rs.n)
    )


def test_roots_ordered_positives_first():
    rs = root_system("B3")
    for idx in range(rs.num_positive):
        assert rs.is_positive(idx)
        assert not rs.is_positive(rs.negate(idx))
        root = rs.roots[idx]
        assert all(c >= 0 for c in root.coords)
        assert tuple(-c for c in root.coords) == rs.roots[rs.negate(idx)].coords


def test_simple_roots_sit_at_their_index():
    rs = root_system("C3")
    for i in range(rs.n):
        idx = rs.simple_index[i]
        coords = rs.roots[idx].coords
        assert coords == tuple(1 if j == i else 0 for j in range(rs.n))


def test_reflection_permutes_roots():
    rs = root_system("G2")
    for i in range(rs.n):
        perm = rs.simple_perm(i)
        assert sorted(perm) == list(range(len(rs.roots)))
        # s_i negates alpha_i and permutes the remaining positives
        assert perm[rs.simple_index[i]] == rs.negate(rs.simple_index[i])
        moved = [idx for idx in range(rs.num_positive)
                 if idx != rs.simple_index[i] and not rs.is_positive(perm[idx])]
        assert moved == []


def test_reflection_perm_is_involutive():
    rs = root_system("B3")
    for idx in range(rs.num_positive):
        perm = rs.reflection_perm(idx)
        for j in range(len(rs.roots)):
            assert perm[perm[j]] == j


def test_root_lengths_two_values():
    rs = root_system("G2")
    lengths = {root.length_half_square for root in rs.positive_roots()}
    assert lengths == {Fraction(1), Fraction(3)}
    rs = root_system("B2")
    lengths = {root.length_half_square for root in rs.positive_roots()}
    assert lengths == {Fraction(1), Fraction(2)}


def test_highest_root_heights():
    # height of the highest root is h - 1
    for name in ("A3", "B3", "D4", "G2", "F4"):
        rs = root_system(name)
        h = coxeter_data(rs).coxeter_number
        assert max(r.height for r in rs.positive_roots()) == h - 1


def test_root_poset_ranks_by_height():
    rs = root_system("A3")
    poset = RootPoset(rs)
    covers = poset.covers()
    for lo, hi in covers:
        assert rs.roots[hi].height == rs.roots[lo].height + 1
        assert min(map(int.__sub__, rs.roots[hi].coords, rs.roots[lo].coords)) >= 0
    # A3 Hasse diagram: 5 + 4 edges between heights (3,2,1) = (1,2,3) counts
    by_height = {}
    for idx in range(rs.num_positive):
        by_height.setdefault(rs.roots[idx].height, []).append(idx)
    assert {h: len(v) for h, v in by_height.items()} == {1: 3, 2: 2, 3: 1}


def test_root_poset_simple_roots_minimal():
    rs = root_system("B3")
    poset = RootPoset(rs)
    # no cover ends at a simple root, and each of them starts one
    simple = set(rs.simple_index)
    covers = poset.covers()
    assert not simple & {hi for _, hi in covers}
    assert simple <= {lo for lo, _ in covers}


def test_weight_data_pairings():
    rs = root_system("C3")
    # half-sum of positive coroots, recomputed from scratch
    total = [Fraction(0)] * rs.n
    for idx in range(rs.num_positive):
        for k, c in enumerate(rs.roots[idx].coroot_coords):
            total[k] += c
    assert coroot_half_sum(rs) == tuple(t / 2 for t in total)


def test_json_summary_shape():
    rs = root_system("G2")
    data = to_json_dict(rs)
    assert data["type"] == "G2"
    assert data["rank"] == 2
    assert len(data["roots"]) == 12
    assert len(data["positive_roots"]) == 6
    assert data["h"] == 6
    assert data["exponents"] == [1, 5]
    assert data["group_order"] == 12


def test_reducible_system():
    rs = root_system("A1+A1")
    assert rs.num_positive == 2
    data = to_json_dict(rs)
    assert data["h"] is None


# -- the quadratic-form oracle -------------------------------------------------
#
# The root data as they were computed before every root carried its pairing
# vector: the closure applies every simple reflection s_i beta = beta -
# (sum_j a_ij c_j) alpha_i and keeps the positive images, (beta, beta) is the
# double sum of c_i c_j d_i a_ij, and a reflection matrix pairs each simple
# root with beta^vee through the bilinear form.


def oracle_reflect(cartan, i, coords):
    out = list(coords)
    out[i] = coords[i] - sum(cartan[i][j] * coords[j] for j in range(len(coords)))
    return tuple(out)


def oracle_positive_roots(cartan):
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for coords in frontier:
            for i in range(n):
                image = oracle_reflect(cartan, i, coords)
                if image not in seen and all(x >= 0 for x in image):
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return sorted(seen, key=lambda c: (sum(c), c))


def oracle_coroot(cartan, symmetrizer, coords):
    """(coroot coordinates, (beta, beta) / 2) from the quadratic form."""
    n = len(coords)
    square = sum(
        coords[i] * coords[j] * symmetrizer[i] * cartan[i][j]
        for i in range(n)
        for j in range(n)
    )
    assert square > 0 and square % 2 == 0
    half = square // 2
    assert all(coords[i] * symmetrizer[i] % half == 0 for i in range(n))
    return tuple(coords[i] * symmetrizer[i] // half for i in range(n)), half


def oracle_coroot_pairing(rs, coords, beta):
    """<alpha, beta^vee> for alpha given by coords, through the form."""
    total = 0
    for i in range(rs.n):
        if coords[i]:
            acc = sum(rs.cartan[i][j] * beta.coords[j] for j in range(rs.n))
            total += coords[i] * rs.symmetrizer[i] * acc
    pairing, rem = divmod(total, beta.length_half_square)
    assert rem == 0
    return pairing


def oracle_reflection_matrix(rs, beta):
    cols = []
    for j in range(rs.n):
        unit = tuple(1 if k == j else 0 for k in range(rs.n))
        pairing = oracle_coroot_pairing(rs, unit, beta)
        cols.append([(1 if k == j else 0) - pairing * beta.coords[k] for k in range(rs.n)])
    return [[cols[j][i] for j in range(rs.n)] for i in range(rs.n)]


def oracle_reflection_perms(rs, simple_perms):
    """The reflection through every root as a permutation, walked from the
    simple reflections by s_{s_i beta} = s_i s_beta s_i."""
    perms = {s: simple_perms[i] for i, s in enumerate(rs.simple_index)}
    queue = list(perms)
    for beta in queue:
        for s in simple_perms:
            image = s[beta]
            if image not in perms:
                perms[image] = tuple(s[perms[beta][s[r]]] for r in range(len(s)))
                queue.append(image)
    return [perms[idx] for idx in range(len(rs.roots))]


ORACLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A30", "B12", "C12", "D16", "A2+G2"]
)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_root_data_match_quadratic_form_oracle(name):
    rs = root_system(name)
    cartan, d, n = rs.cartan, rs.symmetrizer, rs.n
    positives = oracle_positive_roots(cartan)
    assert [r.coords for r in rs.roots] == positives + [
        tuple(-x for x in c) for c in positives
    ]
    for root in rs.roots:
        assert root.pairing == tuple(
            sum(cartan[i][j] * root.coords[j] for j in range(n)) for i in range(n)
        )
        assert (root.coroot_coords, root.length_half_square) == oracle_coroot(
            cartan, d, root.coords
        )
    simple_perms = [
        tuple(rs.index[oracle_reflect(cartan, i, r.coords)] for r in rs.roots)
        for i in range(n)
    ]
    assert [rs.simple_perm(i) for i in range(n)] == simple_perms
    reflection_perms = oracle_reflection_perms(rs, simple_perms)
    for idx, root in enumerate(rs.roots):
        perm = rs.reflection_perm(idx)
        assert perm == reflection_perms[idx]
        # the images of the simple roots are the columns of the matrix
        columns = [rs.roots[perm[s]].coords for s in rs.simple_index]
        assert [list(row) for row in zip(*columns)] == oracle_reflection_matrix(rs, root)


def test_rank_bound_refuses_before_validation(monkeypatch):
    def never(*args):
        raise AssertionError("validated a matrix over the rank bound")

    monkeypatch.setattr(cartan_mod, "leading_principal_minors", never)
    with pytest.raises(ClosureBudgetExceeded, match=f"bound of {MAX_RANK} simple roots"):
        root_system(f"A{MAX_RANK + 1}")


def test_largest_admitted_a_n_has_every_interval_root():
    # the positive roots of A_n are the sums alpha_i + ... + alpha_j
    n = MAX_RANK
    rs = root_system(f"A{n}")
    intervals = [
        tuple(int(i <= k <= j) for k in range(n)) for i in range(n) for j in range(i, n)
    ]
    assert [r.coords for r in rs.positive_roots()] == sorted(
        intervals, key=lambda c: (sum(c), c)
    )
