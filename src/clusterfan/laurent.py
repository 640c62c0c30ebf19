"""Integer-coefficient Laurent polynomials with a canonical text form.

Terms are kept in a dict mapping packed exponent vectors to nonzero integer
coefficients.  The canonical ordering is graded lexicographic, highest
first: terms are compared by total degree and then lexicographically on the
exponent vector.  The text form produced by ``text()`` is the equality
witness used throughout the test suite, so its format is deliberately rigid.

Packed monomials.  Each monomial is keyed by its exponent vector packed
into one int by `clusterfan.packing`, whose docstring gives the argument:
on the keys the arithmetic forms, int order is graded-lex order, a
monomial multiply is one int add, and a stored exponent outside
[-LIMIT, LIMIT) raises ExponentOverflow, also under python -O.

Exact division is the workhorse for exchange relations: ``exact_div`` shifts
numerator and denominator into honest polynomials and runs single-divisor
division over the integers, stopping at the first quotient coefficient that
is not an integer and demanding a zero remainder.  After the shift every
working field lies in [0, 2 LIMIT): each quotient term checks, with one
masked add against the divisor's fieldwise maximum, that the terms it
brings stay there.  So "the lead of the divisor divides the lead" is one
masked subtract: the difference has its sign bit 2^(W-1) set in some field
exactly when that field is negative.  Each new working term is step + e
for a divisor term e below the divisor's lead, so below the lead it came
from: the leads strictly decrease, and they are popped from a heap of
negated keys, an entry whose term has cancelled since being pushed skipped
when it comes up (Monagan-Pearce, Sparse polynomial division using a heap,
J. Symbolic Comput. 46, 2011).  Quotient and remainder terms, shifted
back, have balanced fields and are checked like any other key.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .packing import LIMIT, ExponentOverflow, layout as _layout


class NonExactDivision(ArithmeticError):
    """Raised when a Laurent division leaves a remainder or a non-integer
    quotient.  The integer remainder (a LaurentPoly) is attached as
    ``remainder`` when the division ran to the end; it is None when the
    division stopped at a quotient coefficient that is not an integer."""

    def __init__(self, message: str, remainder: "LaurentPoly | None" = None):
        super().__init__(message)
        self.remainder = remainder


class LaurentPoly:
    """A Laurent polynomial over a fixed, ordered tuple of variable names.

    >>> x, y = LaurentPoly.ring(("x", "y"))
    >>> print((x + 1) * (x - 1))
    x^2 - 1
    >>> print(x + (y + 1))
    x + y + 1
    >>> print((x * x - 1).exact_div(x - 1))
    x + 1
    """

    __slots__ = ("variables", "_terms", "_layout", "_hash", "_text")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        layout = _layout(len(variables))
        clean: dict[int, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps!r} does not match {len(variables)} variables"
                )
            if isinstance(coeff, Fraction):
                if coeff.denominator != 1:
                    raise ValueError(f"non-integer coefficient {coeff}")
                coeff = coeff.numerator
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            if coeff:
                key = layout.pack(exps)
                value = clean.get(key, 0) + coeff
                if value:
                    clean[key] = value
                else:
                    del clean[key]
        _set_variables(self, variables)
        _set_terms(self, clean)
        _set_layout(self, layout)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def _make(self, terms: dict[int, int]) -> "LaurentPoly":
        """A result of ring arithmetic in the ring of self, built without
        validation.  The caller guarantees checked keys and nonzero int
        coefficients only: ``==`` and ``hash`` compare the term dicts.
        The hash and the text slots stay empty until first asked for."""
        result = _new(LaurentPoly)
        _set_variables(result, self.variables)
        _set_terms(result, terms)
        _set_layout(result, self._layout)
        return result

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "LaurentPoly":
        return LaurentPoly(variables, {})

    @staticmethod
    def constant(variables: Sequence[str], value: int) -> "LaurentPoly":
        n = len(tuple(variables))
        return LaurentPoly(variables, {(0,) * n: value})

    @staticmethod
    def one(variables: Sequence[str]) -> "LaurentPoly":
        return LaurentPoly.constant(variables, 1)

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "LaurentPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return LaurentPoly(variables, {exps: 1})

    @staticmethod
    def ring(variables: Sequence[str]) -> tuple["LaurentPoly", ...]:
        """Generators of the Laurent ring, in variable order."""
        variables = tuple(variables)
        return tuple(LaurentPoly.variable(variables, v) for v in variables)

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical (descending graded-lex) order."""
        unpack = self._layout.unpack
        return [(unpack(key), c) for key, c in sorted(self._terms.items(), reverse=True)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> int:
        if not self._terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self._terms.values()))

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        if not self._terms:
            return (0,) * len(self.variables)
        return tuple(map(min, zip(*map(self._layout.unpack, self._terms))))

    def coefficients(self) -> list[int]:
        return [c for _, c in self.terms()]

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.variables, other)
        return NotImplemented

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, dropping every coefficient that cancels."""
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            value = terms.get(key, 0) + sign * coeff
            if value:
                terms[key] = value
            else:
                del terms[key]
        return self._make(terms)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return self._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        outer, inner = self._terms, other._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        terms: dict[int, int] = {}
        get = terms.get
        for k1, c1 in outer.items():
            for k2, c2 in inner.items():
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        terms = {key: c for key, c in terms.items() if c}
        self._layout.check(terms)
        return self._make(terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise TypeError(f"exponent must be an int, got {power!r}")
        if power < 0:
            if len(self._terms) == 1:
                (key, coeff), = self._terms.items()
                if abs(coeff) == 1:
                    sign = 1 if coeff == 1 or power % 2 == 0 else -1
                    exps = self._layout.unpack(key)
                    return LaurentPoly(self.variables, {tuple(e * power for e in exps): sign})
            raise ValueError(f"negative power {power} of non-unit {self}")
        result = LaurentPoly.one(self.variables)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def shift(self, exponents: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        exponents = tuple(exponents)
        if len(exponents) != len(self.variables):
            raise ValueError(
                f"exponent vector {exponents!r} does not match"
                f" {len(self.variables)} variables"
            )
        # a shift in [-2 LIMIT, 2 LIMIT) keeps the fields of key + step
        # balanced; check() then holds the result to [-LIMIT, LIMIT)
        step = self._layout.pack(exponents, 2 * LIMIT)
        terms = {key + step: c for key, c in self._terms.items()}
        self._layout.check(terms)
        return self._make(terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.variables, tuple(sorted(self._terms.items()))))
            _set_hash(self, h)
            return h

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor: "LaurentPoly | int") -> "LaurentPoly":
        """Exact Laurent division, over the integers.

        Both operands are shifted by their componentwise minimum exponents to
        honest polynomials, then divided with graded-lex leading terms.  The
        leading terms of the working polynomial strictly decrease, so every
        quotient monomial is met once.  A quotient coefficient that the
        divisor's leading coefficient does not divide raises NonExactDivision
        at once; so does a nonzero remainder, once the division has run out.
        """
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("divisor must be a LaurentPoly or int")
        if divisor.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return self

        layout = self._layout
        num_shift = layout.pack(self.min_exponents())
        den_exps = [layout.unpack(key) for key in divisor._terms]
        den_shift = layout.pack(tuple(map(min, zip(*den_exps))))
        # every working term step + e lies fieldwise below step + den_reach
        den_reach = layout.pack(tuple(map(max, zip(*den_exps)))) - den_shift
        back = num_shift - den_shift
        work = {key - num_shift: c for key, c in self._terms.items()}
        den = {key - den_shift: c for key, c in divisor._terms.items()}
        lead_den = max(den)
        lead_den_coeff = den.pop(lead_den)
        den_terms = tuple(den.items())
        signs, high = layout.signs, layout.high

        heap = [-key for key in work]
        heapify(heap)
        quotient: dict[int, int] = {}
        remainder: dict[int, int] = {}
        get = work.get
        while heap:
            lead = -heappop(heap)
            coeff = work.pop(lead, 0)
            if not coeff:
                continue  # cancelled after it was pushed
            step = lead - lead_den
            if step & signs:
                remainder[lead + back] = coeff
                continue
            factor, rest = divmod(coeff, lead_den_coeff)
            if rest:
                raise NonExactDivision(
                    f"quotient of ({self}) by ({divisor}) has fractional coefficients"
                )
            if (step + den_reach) & high:
                raise ExponentOverflow(
                    f"dividing ({self}) by ({divisor}) makes a shifted working"
                    f" exponent of {2 * LIMIT} or more"
                )
            quotient[step + back] = factor
            for e, c in den_terms:
                target = step + e
                value = get(target)
                if value is None:
                    work[target] = -factor * c
                    heappush(heap, -target)
                else:
                    value -= factor * c
                    if value:
                        work[target] = value
                    else:
                        del work[target]

        if remainder:
            layout.check(remainder)
            raise NonExactDivision(
                f"({self}) is not divisible by ({divisor})",
                remainder=self._make(remainder),
            )
        layout.check(quotient)
        return self._make(quotient)

    # -- substitution ------------------------------------------------------

    def _items(self) -> Iterable[tuple[tuple[int, ...], int]]:
        """(exponent vector, coefficient) pairs in no particular order."""
        unpack = self._layout.unpack
        return ((unpack(key), c) for key, c in self._terms.items())

    def separate(self) -> tuple["LaurentPoly", tuple[int, ...]]:
        """Write self as N / monomial: returns (N, d) with N an honest
        polynomial and self == N * prod(v_i^-d_i), all d_i >= 0."""
        shift = self.min_exponents()
        d = tuple(-min(e, 0) for e in shift)
        return self.shift(d), d

    def substitute(self, values: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute polynomials for variables.

        Every variable of self must be mapped; exponents of self must be
        nonnegative (use separate() first for genuine Laurent input).  The
        values must share one common variable tuple, which becomes the
        variable tuple of the result.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"no substitution given for {missing}")
        targets = {values[v].variables for v in self.variables}
        if len(targets) != 1:
            raise ValueError("substitution values live in different rings")
        target_vars = next(iter(targets))
        result = LaurentPoly.zero(target_vars)
        power_cache: dict[tuple[str, int], LaurentPoly] = {}
        for exps, coeff in self._items():
            term = LaurentPoly.constant(target_vars, coeff)
            for var, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if e < 0:
                    raise ValueError(
                        f"negative exponent {e} of {var}; separate() the input first"
                    )
                key = (var, e)
                if key not in power_cache:
                    power_cache[key] = values[var] ** e
                term = term * power_cache[key]
            result = result + term
        return result

    def substitute_laurent(self, values: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute into a genuine Laurent polynomial: splits off the
        monomial denominator, substitutes into the numerator, and divides
        exactly by the substituted denominator."""
        numerator, dens = self.separate()
        image = numerator.substitute(values)
        for var, e in zip(self.variables, dens):
            if e:
                image = image.exact_div(values[var] ** e)
        return image

    def derivative(self, name: str) -> "LaurentPoly":
        """Formal partial derivative with respect to one variable."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        terms: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            key = tuple(new)
            terms[key] = terms.get(key, 0) + coeff * e
        return LaurentPoly(self.variables, terms)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a rational point (all variables must be assigned and
        nonzero wherever a negative exponent occurs)."""
        total = Fraction(0)
        for exps, coeff in self._items():
            value = Fraction(coeff)
            for var, e in zip(self.variables, exps):
                if e:
                    value *= Fraction(point[var]) ** e
            total += value
        return total

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: terms in descending graded-lex order, joined
        by " + " / " - ", with unit coefficients and zero exponents omitted.
        It is rendered once and kept, like the hash.

        >>> x, y = LaurentPoly.ring(("x", "y"))
        >>> (2 * x * y ** 0 - y + 1).text()
        '2*x - y + 1'
        >>> (x.shift((-2, 0))).text()
        'x^-1'
        """
        try:
            return self._text
        except AttributeError:
            text = self._render()
            _set_text(self, text)
            return text

    def _render(self) -> str:
        return _signed_sum(self.variables, self.terms(), "*", " + ")

    def fraction_text(self) -> str:
        """Display form numerator/denominator with a monomial denominator.

        Single-character variable names are juxtaposed, matching the
        familiar handwritten form:

        >>> x, y = LaurentPoly.ring(("x", "y"))
        >>> (x + y + 1).exact_div(x * y).fraction_text()
        '(x+y+1)/(xy)'
        >>> ((y + 1).exact_div(x)).fraction_text()
        '(y+1)/x'
        """
        numerator, dens = self.separate()
        sep = "" if all(len(v) == 1 for v in self.variables) else "*"
        num_text = _signed_sum(self.variables, numerator.terms(), sep, "+")
        if not any(dens):
            return num_text
        den_text = _signed_sum(self.variables, [(dens, 1)], sep, "+")
        if len(numerator) > 1:
            num_text = f"({num_text})"
        if sum(1 for e in dens if e) > 1:
            den_text = f"({den_text})"
        return f"{num_text}/{den_text}"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


def _signed_sum(
    variables: Sequence[str],
    terms: Iterable[tuple[Sequence[int], int]],
    times: str,
    plus: str,
) -> str:
    """The terms (exponents, coefficient) as a signed sum of monomials, with
    `times` between the factors of a monomial and `plus`, or `plus` with its
    "+" made "-", before each term after the first; unit coefficients and
    zero exponents are omitted, and no terms give "0"."""
    minus = plus.replace("+", "-")
    pieces: list[str] = []
    for exps, coeff in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        body = times.join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{plus if coeff > 0 else minus}{body}")
    return "".join(pieces) or "0"


_new = object.__new__
# LaurentPoly refuses attribute assignment; its slots are filled through
# their descriptors
_set_variables = LaurentPoly.variables.__set__
_set_terms = LaurentPoly._terms.__set__
_set_layout = LaurentPoly._layout.__set__
_set_hash = LaurentPoly._hash.__set__
_set_text = LaurentPoly._text.__set__
