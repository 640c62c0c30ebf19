"""Property tests: mutation is an involution on matrices, tropical data and
seeds, c-vectors stay sign-coherent, g-vectors are the degrees of the
cluster variables, exact division inverts multiplication, and the linear
algebra gives the same answers on int rows as on Fraction rows."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterfan.cartan import b_matrix, cartan_for_type
from clusterfan.laurent import LaurentPoly
from clusterfan.linalg import SingularMatrix, det, matrix_rank, solve_linear
from clusterfan.mutation import (
    c_vector_sign,
    initial_seed,
    matrix_mutate,
    seed_mutate,
    tropical_mutate,
)

FINITE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")
SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")

quick = settings(deadline=None, max_examples=60, database=None)
slow = settings(deadline=None, max_examples=25, database=None)


@st.composite
def walks(draw, types, max_steps):
    """A finite-type exchange matrix, maybe with random frozen rows of full
    column rank, and a random direction walk."""
    rows = [list(r) for r in b_matrix(cartan_for_type(draw(st.sampled_from(types))))]
    n = len(rows)
    if draw(st.booleans()):
        entry = st.integers(-2, 2)
        extra = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
        assume(matrix_rank(rows + extra) == n)
        rows += extra
    steps = draw(st.lists(st.integers(0, n - 1), max_size=max_steps))
    return tuple(tuple(r) for r in rows), steps


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@quick
@given(walks(FINITE_TYPES, 12))
def test_tropical_mutation_is_an_involution_and_sign_coherent(case):
    rows, steps = case
    n = len(rows[0])
    state = (rows, identity(n), identity(n))
    for step in steps + [0]:
        for k in range(n):
            c_vector_sign(state[1], k)  # raises unless sign-coherent
            assert tropical_mutate(*tropical_mutate(*state, k), k) == state
            assert matrix_mutate(matrix_mutate(state[0], k), k) == state[0]
        state = tropical_mutate(*state, step)


@slow
@given(walks(SMALL_TYPES, 5))
def test_seed_mutation_is_an_involution(case):
    rows, steps = case
    n = len(rows[0])
    seed = initial_seed(rows, [f"x{i}" for i in range(n)], [f"c{i}" for i in range(len(rows) - n)])
    for step in steps:
        seed = seed_mutate(seed, step)
    for k in range(n):
        back = seed_mutate(seed_mutate(seed, k), k)
        assert back.cluster == seed.cluster
        assert back.matrix == seed.matrix


@slow
@given(walks(SMALL_TYPES, 5))
def test_g_vectors_are_principal_degrees(case):
    # with principal coefficients every cluster variable is homogeneous for
    # deg x_i = e_i, deg y_j = -(column j of the initial B); its degree is
    # its g-vector (Fomin-Zelevinsky, Cluster algebras IV, Prop 6.1)
    rows, steps = case
    n = len(rows[0])
    top = rows[:n]
    principal = top + identity(n)
    seed = initial_seed(principal, [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)])
    state = (principal, identity(n), identity(n))
    for step in steps:
        seed = seed_mutate(seed, step)
        state = tropical_mutate(*state, step)
        for variable, g in zip(seed.cluster, state[2]):
            for exps, _ in variable.terms():
                degree = tuple(
                    exps[i] - sum(top[i][j] * exps[n + j] for j in range(n)) for i in range(n)
                )
                assert degree == g


@st.composite
def laurent_polys(draw, names, nonzero=False):
    exponent = st.tuples(*[st.integers(-2, 2) for _ in names])
    coeff = st.integers(-3, 3).filter(bool)
    terms = draw(st.dictionaries(exponent, coeff, min_size=1 if nonzero else 0, max_size=4))
    return LaurentPoly(names, terms)


@quick
@given(st.data())
def test_exact_division_inverts_multiplication(data):
    names = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
    p = data.draw(laurent_polys(names))
    q = data.draw(laurent_polys(names, nonzero=True))
    assert (p * q).exact_div(q) == p


@st.composite
def int_systems(draw):
    """A small square integer matrix, sometimes singular, and a right-hand
    side."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return rows, rhs


def as_fractions(values):
    return [Fraction(x) for x in values]


@quick
@given(int_systems())
def test_int_rows_agree_with_fraction_rows(system):
    rows, rhs = system
    fraction_rows = [as_fractions(row) for row in rows]
    assert det(rows) == det(fraction_rows)
    assert matrix_rank(rows) == matrix_rank(fraction_rows)
    assert matrix_rank(rows[:-1]) == matrix_rank(fraction_rows[:-1])
    if det(rows) == 0:
        for matrix, vector in ((rows, rhs), (fraction_rows, as_fractions(rhs))):
            with pytest.raises(SingularMatrix):
                solve_linear(matrix, vector)
    else:
        solution = solve_linear(rows, rhs)
        assert solution == solve_linear(fraction_rows, as_fractions(rhs))
        assert all(type(x) is Fraction for x in solution)
        assert [sum(a * x for a, x in zip(row, solution)) for row in rows] == rhs
