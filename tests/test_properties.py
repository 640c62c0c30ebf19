"""Property tests: mutation is an involution on matrices, tropical data and
seeds, c-vectors stay sign-coherent, g-vectors are the degrees of the
cluster variables, the packed g-vector update of the exchange-graph walk
unpacks to the Nakanishi-Zelevinsky update, Laurent polynomials form a ring, exact division inverts
multiplication and agrees with division over the rationals, and the linear
algebra gives the same answers on int rows as on Fraction rows.  The two
unimodular eliminations are checked against brute force: the left kernel
basis against the rank, and the count of solutions modulo m against every
point of (Z/m)^k.

The first Laurent division, which divided over the rationals and then
demanded an integral quotient, is kept below as the oracle for the
division over the integers."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterfan.cartan import b_matrix, cartan_for_type
from clusterfan.laurent import LaurentPoly, NonExactDivision
from clusterfan.linalg import (
    SingularMatrix,
    det,
    kernel_size_mod,
    left_kernel,
    matrix_rank,
    solve_fraction_free,
    solve_linear,
)
from clusterfan.mutation import (
    _g_mutate,
    _units,
    c_vector_sign,
    initial_seed,
    matrix_mutate,
    seed_mutate,
)
from clusterfan.packing import layout
from test_mutation import tropical_mutate

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


@quick
@given(walks(FINITE_TYPES, 12))
def test_packed_g_vector_update_unpacks_to_the_tropical_one(case):
    # the walk's update of packed g-vectors against tropical_mutate on
    # g-vector tuples, in every direction of every seed along the walk
    rows, steps = case
    n = len(rows[0])
    state = (rows, identity(n), identity(n))
    packed = _units(n)
    unpack = layout(n).unpack
    for step in steps + [0]:
        for k in range(n):
            g, _ = _g_mutate(state[0], packed, k, c_vector_sign(state[1], k))
            assert unpack(g) == tropical_mutate(*state, k)[2][k]
        g, _ = _g_mutate(state[0], packed, step, c_vector_sign(state[1], step))
        packed = packed[:step] + (g,) + packed[step + 1 :]
        state = tropical_mutate(*state, step)
        assert tuple(map(unpack, packed)) == state[2]


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


def no_zero_terms(*polys):
    return all(0 not in p._terms.values() for p in polys)


@quick
@given(st.data())
def test_laurent_ring_axioms(data):
    names = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
    p, q, r = (data.draw(laurent_polys(names)) for _ in range(3))
    zero, one = LaurentPoly.zero(names), LaurentPoly.one(names)
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p - p == zero and (p - p).is_zero()
    assert p + zero == p and zero + p == p
    assert p * one == p and one * p == p
    assert (p * zero).is_zero()
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    assert -(-p) == p and p - q == p + (-q)


@quick
@given(st.data())
def test_laurent_operations_store_no_zero_coefficient(data):
    names = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
    p = data.draw(laurent_polys(names))
    q = data.draw(laurent_polys(names, nonzero=True))
    shift = data.draw(st.tuples(*[st.integers(-2, 2) for _ in names]))
    # the cross terms of (p + q) * (p - q) cancel
    difference_of_squares = (p + q) * (p - q)
    results = [p + q, p - q, q - p, -p, p * q, p.shift(shift), p - p, difference_of_squares]
    results.append((p * q).exact_div(q))
    assert no_zero_terms(*results)
    assert difference_of_squares == p * p - q * q


def fraction_exact_div(numerator, divisor):
    """Division over the rationals with graded-lex leading terms; raises
    NonExactDivision on a remainder or a fractional quotient."""
    num_shift = numerator.min_exponents()
    den_shift = divisor.min_exponents()
    work = {
        tuple(a - b for a, b in zip(e, num_shift)): Fraction(c) for e, c in numerator.terms()
    }
    den = {tuple(a - b for a, b in zip(e, den_shift)): c for e, c in divisor.terms()}
    grlex = lambda e: (sum(e), e)
    lead_den = max(den, key=grlex)
    quotient = {}
    remainder = {}
    while work:
        lead = max(work, key=grlex)
        coeff = work.pop(lead)
        step = tuple(a - b for a, b in zip(lead, lead_den))
        if any(e < 0 for e in step):
            remainder[lead] = coeff
            continue
        factor = coeff / den[lead_den]
        quotient[step] = quotient.get(step, Fraction(0)) + factor
        for e, c in den.items():
            if e != lead_den:
                target = tuple(a + b for a, b in zip(step, e))
                work[target] = work.get(target, Fraction(0)) - factor * c
                if not work[target]:
                    del work[target]
    if remainder or any(c.denominator != 1 for c in quotient.values()):
        raise NonExactDivision("not exact over the integers")
    back = tuple(a - b for a, b in zip(num_shift, den_shift))
    return LaurentPoly(
        numerator.variables,
        {tuple(a + b for a, b in zip(e, back)): c for e, c in quotient.items()},
    )


@quick
@given(st.data())
def test_exact_div_agrees_with_fraction_division(data):
    # p * q is divisible by q; a non-monic divisor k * q, or an added r,
    # makes most pairs fail, some with a remainder and some with a
    # fractional quotient
    names = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
    p = data.draw(laurent_polys(names, nonzero=True))
    q = data.draw(laurent_polys(names, nonzero=True))
    r = data.draw(st.one_of(st.just(LaurentPoly.zero(names)), laurent_polys(names)))
    k = data.draw(st.sampled_from((1, -1, 2, 3)))
    numerator, divisor = p * q + r, k * q
    try:
        expected = fraction_exact_div(numerator, divisor)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            numerator.exact_div(divisor)
    else:
        quotient = numerator.exact_div(divisor)
        assert quotient == expected
        assert quotient * divisor == numerator
        assert no_zero_terms(quotient)


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
        point, denominator = solve_fraction_free(rows, rhs)
        assert [Fraction(x, denominator) for x in point] == solution
        assert denominator == lcm(*(x.denominator for x in solution))
        assert [sum(a * x for a, x in zip(row, solution)) for row in rows] == rhs


@st.composite
def small_int_matrices(draw):
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    return draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))


@quick
@given(small_int_matrices())
def test_left_kernel_is_a_basis(rows):
    kernel = left_kernel(rows)
    assert len(kernel) == len(rows) - matrix_rank(rows)
    for z in kernel:
        for j in range(len(rows[0])):
            assert sum(a * row[j] for a, row in zip(z, rows)) == 0
    if kernel:
        assert matrix_rank(kernel) == len(kernel)


@quick
@given(small_int_matrices(), st.integers(1, 6))
def test_kernel_size_mod_counts_every_point(rows, modulus):
    k = len(rows[0])
    brute = sum(
        all(sum(map(int.__mul__, row, x)) % modulus == 0 for row in rows)
        for x in product(range(modulus), repeat=k)
    )
    assert kernel_size_mod(rows, modulus) == brute
