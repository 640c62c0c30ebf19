"""Exact Laurent arithmetic and the fraction-free linear algebra kernel."""

import doctest
import subprocess
import sys
from fractions import Fraction

import pytest

from clusterfan import laurent
from clusterfan.laurent import LaurentPoly, NonExactDivision, parse_laurent
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


def test_parse_roundtrip():
    x, y = gens()
    poly = 3 * x**2 * y**-1 + x - 7 * y
    parsed = parse_laurent(("x", "y"), poly.text())
    assert parsed == poly


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
