"""Bit-level primitives: bit strings and their Kraft sums, self-delimiting
codes, prefix-free sets, and the canonical encodings shared by every module.

Bit strings are plain Python ``str`` over the alphabet ``{'0', '1'}``; the
empty string is a first-class value.  Fixed conventions, documented once and
used everywhere:

* natural numbers map to bit strings as binary without leading zeros, with
  0 mapping to the empty string (1 -> "1", 2 -> "10", 3 -> "11", ...);
* the self-delimiting code of a string x is ``1^len(x) 0 x``;
* canonical order on strings is length-then-lexicographic;
* a finite string set encodes as the count code followed by each member's
  self-delimiting code, members in canonical order;
* an elementary measure with dyadic weights encodes as the count code
  followed by, per support element in canonical order, the element's code,
  the numerator's code, and the exponent's code (numerator/2^exponent).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional

from .dyadic import Dyadic


class DecodeError(ValueError):
    """A bit stream does not parse under the canonical encodings."""


# ---------------------------------------------------------------------------
# bit-string basics
# ---------------------------------------------------------------------------

def assert_bits(x: str) -> str:
    if x.strip("01"):
        raise ValueError(f"not a bit string: {x!r}")
    return x


def canon_key(x: str) -> tuple[int, str]:
    """Sort key for the canonical length-then-lexicographic order."""
    return (len(x), x)


def canonical_sorted(strings: Iterable[str]) -> list[str]:
    return sorted(set(strings), key=canon_key)


def strings_of_length(n: int) -> Iterator[str]:
    """Every bit string of length n in lexicographic order (2^n of them)."""
    if not n:
        return iter(("",))
    return map(format, range(1 << n), repeat(f"0{n}b"))


def all_strings_upto(n: int) -> Iterator[str]:
    """Every bit string of length <= n in canonical order (2^(n+1)-1 of them)."""
    for length in range(n + 1):
        yield from strings_of_length(length)


def kraft_sum(strings: Iterable[str]) -> Dyadic:
    """The Kraft sum of 2^-len(s) over the strings, repeats counted: integers
    on the grid of the longest string, one Dyadic at the end."""
    lengths = [len(s) for s in strings]
    top = max(lengths, default=0)
    return Dyadic(sum(1 << (top - n) for n in lengths), top)


def nat_to_bits(n: int) -> str:
    if n < 0:
        raise ValueError("negative natural")
    return "" if n == 0 else format(n, "b")


def bits_to_nat(x: str) -> int:
    """Inverse of nat_to_bits; rejects non-canonical forms (leading zero)."""
    if x == "":
        return 0
    if x[0] == "0":
        raise DecodeError(f"non-canonical natural: {x!r}")
    return int(x, 2)


# ---------------------------------------------------------------------------
# the fixture stream
# ---------------------------------------------------------------------------

class Lcg:
    """The package's one pseudo-random stream: a fixed-seed 64-bit
    linear-congruential generator, a fixture constant and never entropy."""

    def __init__(self, seed: int):
        self.state = (2 * seed + 1) & ((1 << 64) - 1)

    def next(self, bound: int) -> int:
        """The next draw, reduced to range(bound)."""
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 33) % bound


# ---------------------------------------------------------------------------
# self-delimiting codes
# ---------------------------------------------------------------------------

def encode_self_delim(x: str) -> str:
    """1^len(x) 0 x; the image over all strings is prefix-free."""
    assert_bits(x)
    return "1" * len(x) + "0" + x


def self_delim_at(s: str, pos: int = 0) -> tuple[str, int]:
    """The self-delimiting code at s[pos], as (payload, index past it).
    Never raises: the index passes len(s) when s ends inside the code."""
    z = s.find("0", pos)
    if z < 0:
        return "", len(s) + 1
    end = 2 * z + 1 - pos
    return s[z + 1:end], end


def decode_self_delim_from(s: str, pos: int = 0) -> tuple[str, int]:
    x, end = self_delim_at(s, pos)
    if end > len(s):
        if s.find("0", pos) < 0:
            raise DecodeError("unterminated unary header")
        raise DecodeError("truncated payload")
    return x, end


def encode_nat(n: int) -> str:
    return encode_self_delim(nat_to_bits(n))


def decode_nat_from(s: str, pos: int = 0) -> tuple[int, int]:
    bits, end = decode_self_delim_from(s, pos)
    return bits_to_nat(bits), end


# ---------------------------------------------------------------------------
# string sets
# ---------------------------------------------------------------------------

def encode_string_set(members: Iterable[str]) -> str:
    """Count code then each member's code, members canonicalized first."""
    ordered = canonical_sorted(assert_bits(m) for m in members)
    return encode_nat(len(ordered)) + "".join(encode_self_delim(m) for m in ordered)


def decode_string_set(s: str) -> list[str]:
    n, pos = decode_nat_from(s, 0)
    members = []
    for _ in range(n):
        m, pos = decode_self_delim_from(s, pos)
        members.append(m)
    if pos != len(s):
        raise DecodeError("trailing bits after set encoding")
    if members != canonical_sorted(members) or len(set(members)) != n:
        raise DecodeError("set members not canonical")
    return members


# ---------------------------------------------------------------------------
# prefix-free sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixFreeSet:
    """A finite set of bit strings, none a proper prefix of another."""

    members: tuple[str, ...]

    def __init__(self, members: Iterable[str]):
        ordered = canonical_sorted(assert_bits(m) for m in members)
        pair = prefix_pair(ordered)
        if pair is not None:
            raise ValueError("%r is a proper prefix of %r" % pair)
        object.__setattr__(self, "members", tuple(ordered))

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def prefix_pair(strings: Iterable[str]) -> Optional[tuple[str, str]]:
    """The first lexicographic neighbours (a, b) with a a proper prefix of b,
    or None when the strings are prefix-free.  Neighbours suffice: every
    string lexicographically between a and an extension of a extends a."""
    ordered = sorted(set(strings))
    return next(((a, b) for a, b in zip(ordered, ordered[1:]) if b.startswith(a)), None)


# ---------------------------------------------------------------------------
# dyadic-weight measures as bit strings
# ---------------------------------------------------------------------------

def decode_measure_prefix(s: str) -> tuple[Optional[int], list[tuple[str, int, int]], bool]:
    """Read the measure encoding at the start of s as far as s goes: (the
    count, or None while s ends inside its code; the entries read in full;
    whether s is the whole encoding).

    Each entry is checked when its third block completes.  Bits that are
    malformed raise DecodeError as soon as they are read; a prefix that is
    only cut short never raises.
    """
    count, pos = self_delim_at(s)
    if pos > len(s):
        return None, [], False
    n = bits_to_nat(count)
    entries: list[tuple[str, int, int]] = []
    while len(entries) < n:
        x, i = self_delim_at(s, pos)
        num, j = self_delim_at(s, i)
        exp, end = self_delim_at(s, j)
        if end > len(s):
            return n, entries, False
        num, exp = bits_to_nat(num), bits_to_nat(exp)
        if num <= 0 or (num % 2 == 0 and exp > 0):
            raise DecodeError(f"non-canonical weight {num}/2^{exp}")
        if entries and canon_key(x) <= canon_key(entries[-1][0]):
            raise DecodeError("measure entries not in canonical order")
        entries.append((x, num, exp))
        pos = end
    if pos != len(s):
        raise DecodeError("trailing bits after measure encoding")
    return n, entries, True


def decode_measure_entries(s: str) -> list[tuple[str, int, int]]:
    _, entries, whole = decode_measure_prefix(s)
    if not whole:
        raise DecodeError("truncated measure encoding")
    return entries
