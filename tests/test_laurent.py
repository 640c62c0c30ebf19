"""Exact Laurent arithmetic and the fraction-free linear algebra kernel.

The tuple-keyed Laurent multiply, division and text form are kept below as
the oracle for the packed kernel, and a parser of the text form
(`parse_laurent`) as the round-trip oracle for `LaurentPoly.text()`."""

import doctest
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clusterfan import laurent, packing
from clusterfan.laurent import LaurentPoly, NonExactDivision
from clusterfan.linalg import (
    SingularMatrix,
    det,
    leading_principal_minors,
    matrix_rank,
    solve_fraction_free,
    solve_linear,
)


def test_doctests():
    failures, _ = doctest.testmod(laurent)
    assert failures == 0


def gens():
    return LaurentPoly.ring(("x", "y"))


def test_canonical_text_ordering():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    poly = y + x**2 + one + x * y
    assert poly.text() == "x^2 + x*y + y + 1"


def test_negative_coefficients_render_with_minus():
    x, y = gens()
    assert (x - y).text() == "x - y"
    assert (-x).text() == "-x"


def test_fraction_text_single_letter_juxtaposes():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    chain = (x + y + one).exact_div(x * y)
    assert chain.fraction_text() == "(x+y+1)/(xy)"


def test_fraction_text_multichar_names_keep_stars():
    a, b = LaurentPoly.ring(("y1", "y2"))
    one = LaurentPoly.one(("y1", "y2"))
    value = (a + b + one).exact_div(a * b)
    assert value.fraction_text() == "(y1+y2+1)/(y1*y2)"


def test_exact_div_roundtrip():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    numerator = x**3 * y + x**2 + x * y
    quotient = numerator.exact_div(x)
    assert quotient * x == numerator
    assert quotient.text() == "x^2*y + x + y"
    assert (one + x).exact_div(one + x) == one


def test_monomial_division_always_exact():
    # units of the Laurent ring are the monomials
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    assert (x + one).exact_div(y) == x * y**-1 + y**-1


def test_exact_div_failure_raises():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    with pytest.raises(NonExactDivision):
        (x + one).exact_div(y + one)
    with pytest.raises(NonExactDivision):
        (x**2 + y).exact_div(x + y)


def test_laurent_exponents_divide_cleanly():
    x, y = gens()
    value = (y + LaurentPoly.one(("x", "y"))).exact_div(x)
    assert value * x == y + LaurentPoly.one(("x", "y"))
    back = value.exact_div(x**-1)
    assert back == y + LaurentPoly.one(("x", "y"))


def parse_laurent(variables, source):
    """Parse the text form back: a signed sum of terms, each a '*'-separated
    product of an integer and var or var^int factors."""
    variables = tuple(variables)
    text = source.replace(" ", "").replace("^-", "^~")  # no split in exponents
    terms = re.findall(r"([+-]?)([^+-]+)", text)
    assert "".join(map("".join, terms)) == text, source
    result = LaurentPoly.zero(variables)
    for sign, body in terms:
        coeff, exps = -1 if sign == "-" else 1, [0] * len(variables)
        for factor in body.split("*"):
            name, _, power = factor.replace("~", "-").partition("^")
            if name.isdigit():
                coeff *= int(name)
            else:
                exps[variables.index(name)] += int(power or 1)
        result = result + LaurentPoly(variables, {tuple(exps): coeff})
    return result


def test_parse_roundtrip():
    x, y = gens()
    poly = 3 * x**2 * y**-1 + x - 7 * y
    parsed = parse_laurent(("x", "y"), poly.text())
    assert parsed == poly
    assert parse_laurent(("x", "y"), "2*x*y^-1 - 3").text() == "2*x*y^-1 - 3"


def test_substitute_laurent_composes():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    third = (y + one).exact_div(x)
    a, b = LaurentPoly.ring(("a", "b"))
    image = third.substitute_laurent({"x": a, "y": a * b})
    assert image == b + a**-1


def test_substitute_laurent_detects_non_laurent_image():
    x, y = gens()
    one = LaurentPoly.one(("x", "y"))
    third = (y + one).exact_div(x)
    a, b = LaurentPoly.ring(("a", "b"))
    with pytest.raises(NonExactDivision):
        third.substitute_laurent({"x": a + b, "y": a * b})


def test_derivative_and_evaluate():
    x, y = gens()
    poly = x**2 * y + 3 * x
    assert poly.derivative("x") == 2 * x * y + 3 * LaurentPoly.one(("x", "y"))
    point = {"x": Fraction(2), "y": Fraction(1, 2)}
    assert poly.evaluate(point) == Fraction(8)


def test_coefficients_listing():
    x, y = gens()
    poly = 2 * x - 5 * y
    assert sorted(poly.coefficients()) == [-5, 2]


def test_matrix_rank_and_det():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, -1], [1, 0]]) == 2
    assert det([[2, -1], [-1, 2]]) == 3
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_solve_linear_exact():
    solution = solve_linear([[2, 1], [1, 3]], [5, 10])
    assert solution == [Fraction(1), Fraction(3)]
    with pytest.raises(SingularMatrix):
        solve_linear([[1, 1], [2, 2]], [1, 2])


def test_solve_fraction_free_gives_reduced_points():
    assert solve_fraction_free([[2, 1], [1, 3]], [5, 10]) == ((1, 3), 1)
    # x = -1/4, y = 1/2 over the common denominator 4
    assert solve_fraction_free([[0, 2], [4, 0]], [1, -1]) == ((-1, 2), 4)
    assert solve_fraction_free([[-2]], [4]) == ((-2,), 1)
    # the empty system has the empty solution, as det([]) is 1
    assert det([]) == 1
    assert solve_fraction_free([], []) == ((), 1)
    assert solve_linear([], []) == []
    with pytest.raises(SingularMatrix):
        solve_fraction_free([[1, 1], [2, 2]], [1, 2])


NON_INTEGER_ELIMINATION = """
import sys
from fractions import Fraction
from clusterfan import linalg
print("optimize", sys.flags.optimize)
# a Bareiss step divides exactly only on integer rows
try:
    linalg._bareiss([[Fraction(1, 2), 1], [1, 1]])
except linalg.InexactElimination as exc:
    print("FAIL", exc)
# a corrupted right-hand side after elimination breaks back substitution
bareiss = linalg._bareiss
def corrupt(rows):
    result = bareiss(rows)
    rows[0][-1] += 1
    return result
linalg._bareiss = corrupt
try:
    linalg.solve_linear([[2, 1], [1, 3]], [5, 10])
except linalg.InexactElimination as exc:
    print("FAIL", exc)
"""


def test_inexact_elimination_fails_without_asserts():
    # python -O strips assert statements; the exactness checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", NON_INTEGER_ELIMINATION]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL Bareiss step -1/2 / 1 left remainder 1/2",
        "FAIL back substitution 15 / 2 left remainder 1",
    ], result.stderr


def test_leading_principal_minors():
    cartan = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert leading_principal_minors(cartan) == [2, 3, 4]


square_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(square_int_matrices)
@example([[0, 1], [1, 0]])
@example([[1, 2, 0], [2, 4, 1], [0, 1, 3]])
def test_leading_principal_minors_match_det(rows):
    # one elimination reads every minor up to the first zero one, where a
    # row swap would be needed to go on
    expected = []
    for k in range(1, len(rows) + 1):
        expected.append(det([row[:k] for row in rows[:k]]))
        if not expected[-1]:
            break
    assert leading_principal_minors(rows) == expected


# -- the packed kernel against tuple-keyed arithmetic ----------------------------
#
# The tuple-keyed multiply, division and text below are the arithmetic the
# packed kernel replaced; they are the oracle for it.


def grlex_key(exponents):
    return (sum(exponents), exponents)


def oracle_mul(p_terms, q_terms):
    terms = {}
    for e1, c1 in p_terms.items():
        for e2, c2 in q_terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def oracle_exact_div(num_terms, den_terms):
    """("quotient", terms), ("fractional", None) or ("remainder", terms),
    by single-divisor division of the shifted operands over the integers."""
    num_shift = tuple(map(min, zip(*num_terms)))
    den_shift = tuple(map(min, zip(*den_terms)))
    back = tuple(a - b for a, b in zip(num_shift, den_shift))
    work = {tuple(a - b for a, b in zip(e, num_shift)): c for e, c in num_terms.items()}
    den = {tuple(a - b for a, b in zip(e, den_shift)): c for e, c in den_terms.items()}
    lead_den = max(den, key=grlex_key)
    lead_den_coeff = den.pop(lead_den)
    quotient, remainder = {}, {}
    while work:
        lead = max(work, key=grlex_key)
        coeff = work.pop(lead)
        step = tuple(a - b for a, b in zip(lead, lead_den))
        if min(step, default=0) < 0:
            remainder[tuple(a + b for a, b in zip(lead, back))] = coeff
            continue
        factor, rest = divmod(coeff, lead_den_coeff)
        if rest:
            return "fractional", None
        quotient[tuple(a + b for a, b in zip(step, back))] = factor
        for e, c in den.items():
            target = tuple(a + b for a, b in zip(step, e))
            value = work.get(target, 0) - factor * c
            if value:
                work[target] = value
            else:
                del work[target]
    if remainder:
        return "remainder", remainder
    return "quotient", quotient


def oracle_text(variables, terms):
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, key=grlex_key, reverse=True):
        coeff = terms[exps]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if coeff > 0 else ' - '}{body}")
    return "".join(pieces)


def packed_division(num, den):
    try:
        return "quotient", dict(num.exact_div(den).terms())
    except NonExactDivision as exc:
        if exc.remainder is None:
            return "fractional", None
        return "remainder", dict(exc.remainder.terms())


derandomized = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def term_dicts(draw, n, max_size=5):
    exponents = st.tuples(*[st.integers(-3, 3) for _ in range(n)])
    coeff = st.integers(-4, 4).filter(bool)
    return draw(st.dictionaries(exponents, coeff, min_size=1, max_size=max_size))


@derandomized
@given(st.data())
def test_packed_order_is_grlex_order(data):
    n = data.draw(st.integers(1, 4))
    layout = packing.layout(n)
    field = st.tuples(*[st.integers(-laurent.LIMIT, laurent.LIMIT - 1) for _ in range(n)])
    a, b, c, d = (data.draw(field) for _ in range(4))
    for u, v in ((a, b), (a, a)):
        assert (layout.pack(u) < layout.pack(v)) == (grlex_key(u) < grlex_key(v))
        assert layout.unpack(layout.pack(u)) == u
    # sums of two stored vectors, the keys a multiply forms, keep the order
    s = tuple(x + y for x, y in zip(a, b))
    t = tuple(x + y for x, y in zip(c, d))
    packed_s = layout.pack(a) + layout.pack(b)
    packed_t = layout.pack(c) + layout.pack(d)
    assert (packed_s < packed_t) == (grlex_key(s) < grlex_key(t))
    assert (packed_s == packed_t) == (s == t)
    assert layout.unpack(packed_s) == s


@derandomized
@given(st.data())
def test_packed_arithmetic_matches_tuple_oracle(data):
    n = data.draw(st.integers(1, 4))
    names = ("x", "y", "z", "w")[:n]
    p_terms = data.draw(term_dicts(n))
    q_terms = data.draw(term_dicts(n))
    r_terms = data.draw(st.one_of(st.just({}), term_dicts(n, max_size=2)))
    k = data.draw(st.sampled_from((1, -1, 2, 3)))
    p, q, r = (LaurentPoly(names, t) for t in (p_terms, q_terms, r_terms))
    product = p * q
    expected = oracle_mul(p_terms, q_terms)
    assert dict(product.terms()) == expected
    assert product.text() == oracle_text(names, expected)
    assert p.text() == oracle_text(names, p_terms)
    assert parse_laurent(names, product.text()) == product
    # exact, fractional and remainder cases, the remainder compared term by term
    numerator = p * q + r
    num_terms = dict(numerator.terms())
    assume(num_terms)
    den_terms = {e: k * c for e, c in q_terms.items()}
    assert packed_division(numerator, k * q) == oracle_exact_div(num_terms, den_terms)
    assert packed_division(p, q) == oracle_exact_div(p_terms, q_terms)


LIMIT_CASES = """
import sys
from clusterfan.laurent import LIMIT, ExponentOverflow, LaurentPoly
print("optimize", sys.flags.optimize)
x, y = LaurentPoly.ring(("x", "y"))
top = x ** (LIMIT - 1)
bottom = LaurentPoly(("x", "y"), {(0, -LIMIT): 1})
print("top", top.text())
print("bottom", bottom.text())
print("shift", top.shift((0, -LIMIT)).text())
print("divide", (top * y).exact_div(y).text())
# a shift may leave [-LIMIT, LIMIT) as long as its result does not
print("separate", bottom.separate())
print("wide shift", bottom.shift((0, 2 * LIMIT - 1)).text())
cases = (
    ("power", lambda: x ** LIMIT),
    ("constructor", lambda: LaurentPoly(("x", "y"), {(0, -LIMIT - 1): 1})),
    ("multiply", lambda: top * x),
    ("shift", lambda: bottom.shift((0, -1))),
    ("shift step", lambda: bottom.shift((0, 2 * LIMIT))),
    ("divide", lambda: top.exact_div(x ** -1)),
    # shifted by x^-LIMIT y^-LIMIT, the numerator is x^(2 LIMIT - 1) y^(2 LIMIT - 1) + 1;
    # its first quotient term x^(2 LIMIT - 1) y^(2 LIMIT - 3), times the
    # divisor's x, makes a working term with x^(2 LIMIT)
    ("working term", lambda: (top * y ** (LIMIT - 1) + (x * y) ** -LIMIT).exact_div(y * y + x)),
)
for name, case in cases:
    try:
        case()
    except ExponentOverflow as exc:
        print("overflow", name, str(exc).split()[0])
    else:
        print("no overflow", name)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_exponents_at_the_width_limit_and_past_it(flags):
    # python -O strips assert statements; the width check must not be one
    command = [sys.executable, *flags, "-c", LIMIT_CASES]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    limit = laurent.LIMIT
    assert result.stdout.splitlines() == [
        f"optimize {len(flags)}",
        f"top x^{limit - 1}",
        f"bottom y^-{limit}",
        f"shift x^{limit - 1}*y^-{limit}",
        f"divide x^{limit - 1}",
        f"separate (LaurentPoly('1'), (0, {limit}))",
        f"wide shift y^{limit - 1}",
        "overflow power exponent",
        "overflow constructor exponent",
        "overflow multiply exponent",
        "overflow shift exponent",
        "overflow shift step exponent",
        "overflow divide exponent",
        # refused as the working term is made, not once the quotient is done
        "overflow working term dividing",
    ], result.stderr


def test_text_is_rendered_once():
    x, y = gens()
    poly = (x + y) ** 3
    assert poly.text() is poly.text()
    assert poly.text() == "x^3 + 3*x^2*y + 3*x*y^2 + y^3"
