"""Fuel-bounded estimators: program-length complexity, algorithmic
probability of strings and sets, prefix-set (monotone) complexity, mutual
information, the halting-sequence proxy, and the chain-rule report.

Conditioning convention: a single string condition y is placed on the
auxiliary tape as-is; tuples are paired as the concatenation of
self-delimiting codes, with numbers first mapped to bit strings by the
package's natural-number convention.  Reports always state that set
conditions use the canonical set encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .codec import encode_self_delim, encode_string_set, nat_to_bits
from .dyadic import Dyadic, dyadic_sum
from .leftward import IntervalTable, get_interval_table
from .machine import (
    MachineConfig,
    get_enumeration,
    is_built,
    mass_for_output,
    min_program_for_output,
    min_program_with_prefix_in,
    per_bounds,
    split_pattern,
)


@dataclass(frozen=True)
class ComplexityValue:
    """min program length within bounds; None means nothing reached the target."""

    value: Optional[int]
    witness: Optional[str]
    config: MachineConfig

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def pair_aux(x: str, y: str) -> str:
    """The fixed pairing <x, y>: concatenation of self-delimiting codes."""
    return encode_self_delim(x) + encode_self_delim(y)


def pair_aux_nat(x: str, n: int) -> str:
    return encode_self_delim(x) + encode_self_delim(nat_to_bits(n))


def _outputs(y: str, cfg: MachineConfig) -> Optional[IntervalTable]:
    """The interval table, whose columns group the tiles by output, once the
    enumeration for (cfg, y) is built, else None: then the boundary-graph DPs
    answer, and no query builds an enumeration."""
    return get_interval_table(cfg, y) if is_built("enumeration", cfg, y) else None


def _complexity(program: Optional[str], cfg: MachineConfig) -> ComplexityValue:
    if program is None:
        return ComplexityValue(None, None, cfg)
    return ComplexityValue(len(program), program, cfg)


def k_t(x: str, y: str, cfg: MachineConfig) -> ComplexityValue:
    """Length of the shortest fuel-bounded program computing x from aux y."""
    table = _outputs(y, cfg)
    if table is None:
        rec = min_program_for_output(x, cfg, y)
        return _complexity(rec and rec.program, cfg)
    i = table.index.get(x)
    return _complexity(None if i is None else table.program(i), cfg)


def m_t(x: str, y: str, cfg: MachineConfig) -> Dyadic:
    """Total 2^-len mass of fuel-bounded programs computing x from aux y."""
    table = _outputs(y, cfg)
    if table is None:
        return mass_for_output(x, cfg, y)
    i = table.index.get(x)
    return Dyadic.zero() if i is None else Dyadic(table.mass(i), cfg.max_program_len)


def m_set(members: Iterable[str], y: str, cfg: MachineConfig) -> Dyadic:
    """Algorithmic probability of a finite set: the sum of its members' masses."""
    return dyadic_sum(m_t(x, y, cfg) for x in set(members))


def k_set(members: Iterable[str], y: str, cfg: MachineConfig) -> ComplexityValue:
    """The (length, lex)-least program whose output is a member of the set:
    the least k_t over its members, as m_set sums their m_t."""
    values = (k_t(x, y, cfg) for x in set(members))
    return min((k for k in values if k.is_finite), key=lambda k: (k.value, k.witness),
               default=ComplexityValue(None, None, cfg))


def km_t(members, cfg: MachineConfig) -> ComplexityValue:
    """Shortest program whose output has a prefix in the (nonempty) set,
    whose members may hold ``?`` at free positions."""
    targets = set(members)
    if not targets:
        raise ValueError("prefix set must be nonempty")
    table = _outputs("", cfg)
    if table is None:
        rec = min_program_with_prefix_in(targets, cfg)
        return _complexity(rec and rec.program, cfg)
    # an output qualifies when its first n bits agree with a member of n
    # bits: one set lookup per group of members of one length and free mask.
    # The index is ranked by least program, so the first that qualifies is least.
    groups: dict = {}  # (n, mask of the fixed bits) -> the members' integers
    for x, free in map(split_pattern, targets):
        groups.setdefault((len(x), (1 << len(x)) - 1 ^ free), set()).add(int(x or "0", 2))
    found = next((i for out, i in table.index.items()
                  if any(len(out) >= n and int(out[:n] or "0", 2) & keep in ints
                         for (n, keep), ints in groups.items())), None)
    return _complexity(None if found is None else table.program(found), cfg)


def mutual_info_t(x: str, y: str, cfg: MachineConfig) -> Optional[int]:
    """k_t(x) - k_t(x|y), or None when either side is infinite at these bounds
    (the conditional side is not asked once k_t(x) is); negative desk-scale
    values are reported, not clamped."""
    base = k_t(x, "", cfg)
    if not base.is_finite:
        return None
    cond = k_t(x, y, cfg)
    return base.value - cond.value if cond.is_finite else None


@dataclass(frozen=True)
class HaltingProxy:
    """Fuel-bounded characteristic sequence of the machine's domain, one bit
    per string of length <= L in canonical order."""

    bits: str


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def halting_proxy(cfg: MachineConfig, aux: str = "") -> HaltingProxy:
    return per_bounds("halting proxy", _build_halting_proxy, cfg, aux)


def _build_halting_proxy(cfg: MachineConfig, aux: str) -> HaltingProxy:
    L = cfg.max_program_len
    # a string s is byte int("1" + s, 2) of ``halts``, so its canonical index
    # is one less, and the strings of length n fill [2^n, 2^(n+1)); a string
    # halts when it is a program or its one-bit-shorter prefix halts
    by_level: dict[int, list[int]] = {}
    for p in get_enumeration(cfg, aux).programs:
        by_level.setdefault(p.bit_length(), []).append(p)
    halts = bytearray(2 << L)  # the empty string, byte 1, never halts
    for n in range(1, L + 1):
        lo = 1 << n
        halts[lo:2 * lo:2] = halts[lo + 1:2 * lo:2] = halts[lo >> 1:lo]
        for p in by_level.get(n + 1, ()):
            halts[p] = 1
    return HaltingProxy(halts[1:].translate(_BIT_CHARS).decode())


def info_with_halting(x: str, cfg: MachineConfig) -> Optional[int]:
    """I(x : H_t) proxy: k_t(x) - k_t(x | proxy bits); None when either side
    is infinite at these bounds.

    A run reads only the proxy's first ``cfg.readable_aux_len`` bits: the
    halting of every string of at most n bits, and of a few of n + 1 bits,
    with n = 9 at fuel 2048 and 10 at fuel 4096.  Those levels come from the
    proxy at the smallest length bound that reaches the cut, whose leading
    bits are the same as the whole proxy's."""
    cut = cfg.readable_aux_len
    n = max(cut.bit_length() - 1, 1)  # the proxy up to n bits has 2^(n+1) - 1 >= cut bits
    levels = MachineConfig(min(cfg.max_program_len, n), cfg.fuel)
    return mutual_info_t(x, halting_proxy(levels).bits[:cut], cfg)


def info_with_set(x: str, members, cfg: MachineConfig) -> Optional[int]:
    """I_t(x ; <D>) with the set condition under its canonical encoding."""
    return mutual_info_t(x, encode_string_set(members), cfg)


@dataclass(frozen=True)
class ChainRuleReport:
    x: str
    y: str
    k_pair: ComplexityValue
    k_x: ComplexityValue
    k_y_given: ComplexityValue
    gap: Optional[int]          # k_t(x,y) - (k_t(x) + k_t(y | <x, k_t(x)>))


def chain_rule_report(x: str, y: str, cfg: MachineConfig) -> ChainRuleReport:
    """Both sides of the chain rule at these bounds, with the signed gap."""
    k_pair = k_t(pair_aux(x, y), "", cfg)
    k_x = k_t(x, "", cfg)
    if k_x.is_finite:
        k_y_given = k_t(y, pair_aux_nat(x, k_x.value), cfg)
    else:
        k_y_given = ComplexityValue(None, None, cfg)
    gap = None
    if k_pair.is_finite and k_x.is_finite and k_y_given.is_finite:
        gap = k_pair.value - (k_x.value + k_y_given.value)
    return ChainRuleReport(x, y, k_pair, k_x, k_y_given, gap)


def output_stats(cfg: MachineConfig, aux: str = "") -> dict[str, tuple[int, Dyadic]]:
    """Per reachable output: (shortest program length, total program mass),
    read off the interval table's output columns in its ranked order."""
    L = cfg.max_program_len
    table = get_interval_table(cfg, aux)
    return {x: (table.length(i), Dyadic(table.mass(i), L)) for x, i in table.index.items()}


def coding_direction_holds(cfg: MachineConfig, aux: str = "") -> bool:
    """ceil(-log m_t(x)) <= k_t(x) over every reachable output, exactly: k_t
    is an integer, so that is m_t(x) >= 2^-k_t(x), compared on the 2^-L grid."""
    L = cfg.max_program_len
    table = get_interval_table(cfg, aux)
    return all(table.mass(i) >= 1 << (L - table.length(i)) for i in range(len(table.index)))
