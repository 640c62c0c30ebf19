"""Short integer vectors packed into one int.

Laurent exponent vectors, g-vectors and the weights in the orbit of rho
are each kept as one int.  Over n coordinates, (e_0, ..., e_{n-1}) packs to

    key = d * 2^(nW) + sum_i e_i * 2^((n-1-i)W),    d = e_0 + ... + e_{n-1},

with fields of W = WIDTH bits, e_0 the most significant, under the total
degree d.  The sum is an integer identity, so a field may be negative: it is
a balanced digit in [-2^(W-1), 2^(W-1)).  A stored coordinate lies in
[-LIMIT, LIMIT), LIMIT = 2^(W-3); every key formed from stored keys by a
sum of two, or from a stored key and a shift in [-2 LIMIT, 2 LIMIT), has
balanced fields, and on keys with balanced fields:
  - the key is linear in the vector, so a Laurent monomial multiply, a
    g-vector mutation and a step along a simple root are int arithmetic.
  - int order is graded-lex order.  Two balanced fields differ by at most
    2^W - 1, so all the fields below field i together move a difference of
    keys by at most (2^W - 1)(1 + 2^W + ... + 2^((n-2-i)W)) = 2^((n-1-i)W) - 1,
    less than one unit of field i: the first field that differs decides,
    and the degree field sits above them all.  So keys are also distinct
    exactly when vectors are, and `unpack` reads each field back.
  - a field leaves [-LIMIT, LIMIT) exactly when key + LIMIT * (1, ..., 1)
    has a bit at or above 2 LIMIT in some field: the lowest such field
    borrows nothing from below, and holds e + LIMIT or, if that is
    negative, e + LIMIT + 2^W.  `check` raises ExponentOverflow on such a
    key; it is not an assert and survives python -O.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct
from typing import Iterable, Sequence

WIDTH = 16  # bits per field, read back as signed 16-bit ints
LIMIT = 1 << (WIDTH - 3)  # stored coordinates lie in [-LIMIT, LIMIT)
FIELD = (1 << WIDTH) - 1
SIGN = 1 << (WIDTH - 1)


class ExponentOverflow(OverflowError):
    """A coordinate left its packed field: a stored exponent must lie in
    [-LIMIT, LIMIT), and a working exponent of a division, shifted to be
    nonnegative, below 2 LIMIT."""


class Layout:
    """Field offsets and masks of the packing over n coordinates."""

    __slots__ = ("top", "shifts", "signs", "bias", "high", "low", "fields", "size")

    def __init__(self, n: int):
        self.top = n * WIDTH
        self.shifts = tuple(range((n - 1) * WIDTH, -1, -WIDTH))
        ones = sum(1 << shift for shift in self.shifts)
        self.signs = SIGN * ones
        self.bias = LIMIT * ones
        self.high = (FIELD ^ (2 * LIMIT - 1)) * ones
        self.low = (1 << self.top) - 1
        # adding the sign bits makes each balanced field e a plain one,
        # e + 2^(W-1), read at its shift; flipping them back leaves e in
        # W-bit two's complement
        self.fields = Struct(f">{n}h")
        self.size = self.fields.size

    def pack(self, vector: Sequence[int], limit: int = LIMIT) -> int:
        """The key of a vector with entries in [-limit, limit); limit is at
        most 4 LIMIT, so that the fields stay balanced."""
        key = 0
        for e in vector:
            if not -limit <= e < limit:
                raise ExponentOverflow(
                    f"exponent {e} of {tuple(vector)!r} is outside [-{limit}, {limit})"
                )
            key = (key << WIDTH) + e
        return key + (sum(vector) << self.top)

    def unpack(self, key: int) -> tuple[int, ...]:
        """The vector of a key with balanced fields."""
        signs = self.signs
        plain = ((key + signs) ^ signs) & self.low
        return self.fields.unpack(plain.to_bytes(self.size, "big"))

    def check(self, keys: Iterable[int]) -> None:
        """Raise ExponentOverflow unless every key, with balanced fields,
        has all its coordinates in [-LIMIT, LIMIT)."""
        bias, high = self.bias, self.high
        for key in keys:
            if (key + bias) & high:
                raise ExponentOverflow(
                    f"exponent vector {self.unpack(key)!r} is outside [-{LIMIT}, {LIMIT})"
                )


@lru_cache(maxsize=None)
def layout(n: int) -> Layout:
    """The packing over n coordinates, built once per n."""
    return Layout(n)
