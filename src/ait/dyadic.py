"""Exact nonnegative dyadic rationals (numerator / 2**exponent).

Every measure value, interval endpoint, and Kraft sum in this package is a
dyadic rational kept in canonical form (numerator odd, or zero with exponent
zero).  No floating point is used anywhere: comparisons, sums, and the
integer-log helpers below are all bit-exact.

Serialized form is ``"numerator/2^exponent"``, e.g. ``"3/2^3"`` for 3/8.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """A nonnegative rational whose denominator is a power of two."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num < 0:
            raise ValueError("dyadic rationals are nonnegative")
        if exp < 0:
            num <<= -exp
            exp = 0
        while num and exp and num % 2 == 0:
            num //= 2
            exp -= 1
        if num == 0:
            exp = 0
        self.num = num
        self.exp = exp

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Dyadic":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "Dyadic":
        return cls(1, 0)

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**k for any integer k (negative k gives 1/2**|k|)."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        num_s, sep, den_s = text.partition("/")
        if not sep or not den_s.startswith("2^"):
            raise ValueError(f"not a dyadic literal: {text!r}")
        return cls(int(num_s), int(den_s[2:]))

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return (self.num << (e - self.exp), other.num << (e - other.exp), e)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        if a < b:
            raise ValueError("dyadic subtraction went negative")
        return Dyadic(a - b, e)

    def shifted(self, k: int) -> "Dyadic":
        """self * 2**k, exactly."""
        return Dyadic(self.num, self.exp - k)

    def halved(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    # -- comparisons (total order) -------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dyadic) and self.num == other.num and self.exp == other.exp

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    # -- views ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


def dyadic_sum(values) -> Dyadic:
    total = Dyadic.zero()
    for v in values:
        total = total + v
    return total


def _neg_log2(q: Dyadic | Fraction) -> tuple[int, bool]:
    """(floor(-log2 q), whether q is a power of two) for a rational 0 < q <= 1,
    a Dyadic or a Fraction, from its numerator and denominator alone.

    A zero argument is rejected: a measure-zero set has no finite log-weight.
    """
    num, den = (q.num, 1 << q.exp) if isinstance(q, Dyadic) else (q.numerator, q.denominator)
    if num <= 0:
        raise ValueError("-log q is undefined for q <= 0")
    if num > den:
        raise ValueError("argument exceeds 1")
    k = den.bit_length() - num.bit_length()  # den < num << (k + 1) already
    if num << k > den:
        k -= 1
    return k, num << k == den


def ceil_neg_log2(q: Dyadic | Fraction) -> int:
    """The unique k with 2**-k <= q < 2**-(k-1), for 0 < q <= 1."""
    k, exact = _neg_log2(q)
    return k if exact else k + 1


def floor_neg_log2(q: Dyadic | Fraction) -> int:
    """The unique k with 2**-(k+1) < q <= 2**-k, for 0 < q <= 1."""
    return _neg_log2(q)[0]
