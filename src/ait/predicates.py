"""Binary predicates, their encodings, cylinder sets, and the complete-
extension search.

A predicate fixes bits at 1-based positions.  Its cylinder is every string
of length max-index agreeing with it, so the cylinder's uniform measure is
exactly 2^-|domain|.  A complete extension comes from the shortest program
whose output has a prefix in the cylinder, found by one least-path search
over the cylinder as one pattern, ``?`` at each free position, and padded
with zeros beyond the output: a strictly desk-scale surrogate for extension
complexity, and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .codec import PrefixFreeSet, encode_nat
from .complexity import km_t
from .machine import MachineConfig, run


def predicate_entry(idx: int, bit: int) -> tuple[int, int]:
    """One entry of a predicate: a 1-based position and a bit."""
    if idx < 1 or bit not in (0, 1):
        raise ValueError(f"bad predicate entry ({idx}, {bit})")
    return idx, bit


@dataclass(frozen=True)
class BinaryPredicate:
    """A finite map from 1-based positions to bits."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs):
        items = sorted(dict(pairs).items())
        for idx, bit in items:
            predicate_entry(idx, bit)
        object.__setattr__(self, "pairs", tuple(items))

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def agrees_with(self, bits: str) -> bool:
        """Does an infinite word starting with ``bits`` (then zeros) agree?"""
        return all(
            (bits[i - 1] if i <= len(bits) else "0") == str(b) for i, b in self.pairs
        )


def encode_predicate(g: BinaryPredicate) -> str:
    """Count code then, per entry in index order, the index and value codes
    (the interleaved index/value list under the set-encoding scheme)."""
    out = [encode_nat(2 * len(g))]
    for idx, bit in g.pairs:
        out.append(encode_nat(idx))
        out.append(encode_nat(bit))
    return "".join(out)


def pattern(g: BinaryPredicate) -> str:
    """The cylinder as one string: g's bit at each index up to the largest
    that g defines, ``?`` at the others; the empty domain has no length."""
    if not len(g):
        raise ValueError("the empty predicate has no cylinder length")
    fixed = dict(g.pairs)
    return "".join(str(fixed.get(i, "?")) for i in range(1, max(g.domain) + 1))


def cylinder(g: BinaryPredicate) -> PrefixFreeSet:
    """All strings of ``pattern(g)``, one per choice of its free bits."""
    return PrefixFreeSet(map("".join, product(*("01" if c == "?" else c for c in pattern(g)))))


@dataclass(frozen=True)
class ExtensionResult:
    program: str
    raw_output: str    # the extension is these bits, then zeros
    bound_slack: int   # len(program) - |domain|


class ExtensionNotFound(RuntimeError):
    """No fuel-bounded program reaches the cylinder; enlarge the bounds."""


def complete_extension_search(g: BinaryPredicate, cfg: MachineConfig) -> ExtensionResult:
    """The prefix-set complexity witness for the cylinder, read as a complete
    extension by zero-padding its output.

    The empty predicate constrains nothing: its prefix set is {""}, so the
    search returns the cheapest halting program within bounds.  Every output
    bit takes a step, so no run within the fuel reaches an index past it.
    """
    if (max(g.domain, default=0) > cfg.fuel
            or not (witness := km_t([pattern(g) if len(g) else ""], cfg)).is_finite):
        raise ExtensionNotFound(
            f"no program within {cfg} outputs a string extending the cylinder"
        )
    output = run(witness.witness, "", cfg.fuel).output
    result = ExtensionResult(witness.witness, output, witness.value - len(g))
    if not g.agrees_with(result.raw_output):
        raise AssertionError("witness output disagrees with the predicate")
    return result
