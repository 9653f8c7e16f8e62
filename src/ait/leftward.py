"""The left-total transform: interval assignment over convergence-ordered
halting programs, totality testing, the border prefix, bb, m_b, the
shortest-total-string search, and the halting-probability pair.

The transform orders the machine's fuel-bounded halting programs by
(convergence time, program) and assigns them consecutive open intervals of
width 2^-len(p) starting at 0.  The transformed machine outputs U(p) on the
shortest input whose interval sits inside p's interval.  Interval endpoints
are multiples of 2^-L (every program is at most L bits), so each tile splits
exactly into maximal dyadic pieces — the minimal transformed programs — and
all mass bookkeeping below happens in integer grid units of 2^-L.

Desk-scale totality is relative to the bounds: a string is total when every
leaf of the depth-L tree under it has a prefix on which the machine halts
within fuel.  For the transformed machine the tiles cover [0, omega)
contiguously on the 2^-L grid, so a nonempty string is total exactly when
its interval's right endpoint is at most omega.  The tests keep a
brute-force tree walk, and the base machine's totality from its
enumeration, as independent oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

from .dyadic import Dyadic
from .machine import (
    ExecOutcome,
    MachineConfig,
    ProgramRecord,
    Status,
    get_enumeration,
)


class TotalSearchNotFound(RuntimeError):
    """No total string within bounds satisfies the predicate."""


class UniquenessViolation(AssertionError):
    """A second total string of the same length satisfied the predicate."""


@dataclass(frozen=True)
class BorderPrefix:
    bits: str
    config: MachineConfig


@dataclass
class IntervalTable:
    """Consecutive open intervals over the enumeration order.  Every endpoint
    is an integer count of 2^-L grid units."""

    config: MachineConfig
    aux: str
    entries: list[tuple[ProgramRecord, int, int]]   # (record, lo, hi) on the grid
    omega: Dyadic                      # total assigned width = the final grid position
    # the pieces, the maximal dyadic blocks of the tiles (the minimal
    # transformed programs), in position order: their grid endpoints, the
    # longest output among the first i pieces, and per output the endpoints
    # of its pieces with their running mass
    _tile_lo: list[int] = field(repr=False)
    _piece_lo: list[int] = field(repr=False)
    _piece_hi: list[int] = field(repr=False)
    _prefix_maxlen: list[int] = field(repr=False)
    _by_output: dict = field(repr=False)

    @property
    def omega_grid(self) -> int:
        return self.omega.num << (self.config.max_program_len - self.omega.exp)

    def serialize(self) -> str:
        L = self.config.max_program_len
        lines = [f"{rec.program}\t{Dyadic(lo, L)}\t{Dyadic(hi, L)}"
                 for rec, lo, hi in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")


def _decompose(lo: int, hi: int, grid_bits: int) -> list[tuple[int, int]]:
    """Maximal dyadic blocks tiling [lo, hi) in 2^-grid_bits units."""
    blocks = []
    a = lo
    while a < hi:
        size = a & -a if a else 1 << grid_bits
        while size > hi - a:
            size >>= 1
        blocks.append((a, a + size))
        a += size
    return blocks


def build_interval_table(cfg: MachineConfig, aux: str = "") -> IntervalTable:
    L = cfg.max_program_len
    entries, tile_lo, piece_lo, piece_hi, prefix_maxlen = [], [], [], [], [0]
    by_output: dict[str, tuple[list[int], list[int], list[int]]] = {}
    pos = 0  # grid units
    for rec in get_enumeration(cfg, aux):
        hi = pos + (1 << (L - len(rec.program)))
        entries.append((rec, pos, hi))
        tile_lo.append(pos)
        los, his, mass = by_output.setdefault(rec.output, ([], [], [0]))
        longest = max(prefix_maxlen[-1], len(rec.output))
        for blo, bhi in _decompose(pos, hi, L):
            piece_lo.append(blo)
            piece_hi.append(bhi)
            prefix_maxlen.append(longest)
            los.append(blo)
            his.append(bhi)
            mass.append(mass[-1] + bhi - blo)
        pos = hi
    if pos > 1 << L:
        raise AssertionError("Kraft sum exceeded 1; the machine domain is broken")
    return IntervalTable(cfg, aux, entries, Dyadic(pos, L), tile_lo, piece_lo, piece_hi,
                         prefix_maxlen, by_output)


_TABLE_CACHE: dict[tuple[MachineConfig, str], IntervalTable] = {}


def get_interval_table(cfg: MachineConfig, aux: str = "") -> IntervalTable:
    table = _TABLE_CACHE.get((cfg, aux))
    if table is None:
        table = _TABLE_CACHE[cfg, aux] = build_interval_table(cfg, aux)
    return table


def _grid_interval(x: str, grid_bits: int) -> tuple[int, int]:
    """x's open interval in 2^-grid_bits units; len(x) must not exceed grid_bits."""
    if len(x) <= grid_bits:
        width = 1 << (grid_bits - len(x))
        lo = int(x, 2) * width if x else 0
        return lo, lo + (width if x else 1 << grid_bits)
    raise ValueError(f"string longer than the grid: {x!r}")


# ---------------------------------------------------------------------------
# the transformed machine
# ---------------------------------------------------------------------------

def run_left_total(p_prime: str, table: IntervalTable) -> ExecOutcome:
    """Transformed execution: halt once the consumed prefix's interval sits
    inside a tile (the parent prefix's interval does not, so the consumed
    prefixes form a prefix-free domain); reading past every tile diverges.
    """
    L = table.config.max_program_len
    los = table._tile_lo
    for k in range(1, min(len(p_prime), L) + 1):
        r = p_prime[:k]
        lo, hi = _grid_interval(r, L)
        idx = bisect_right(los, lo) - 1
        if idx < 0:
            continue
        rec, t_lo, t_hi = table.entries[idx]
        if t_lo <= lo and hi <= t_hi:
            return ExecOutcome(Status.HALTED, rec.output, bits_read=k, steps=rec.steps)
    return ExecOutcome(Status.NEEDS_MORE_INPUT)


# ---------------------------------------------------------------------------
# totality
# ---------------------------------------------------------------------------

def is_total_uprime(x: str, table: IntervalTable) -> bool:
    """Tile coverage is contiguous from 0, so totality is one comparison."""
    if x == "":
        return table.omega == Dyadic.one()
    if len(x) > table.config.max_program_len:
        # finer than the grid: the interval sits inside one grid cell
        head = x[: table.config.max_program_len]
        return is_total_uprime(head, table)
    lo, hi = _grid_interval(x, table.config.max_program_len)
    return hi <= table.omega_grid


# ---------------------------------------------------------------------------
# border prefix and the halting-probability pair
# ---------------------------------------------------------------------------

def border_prefix(cfg: MachineConfig, aux: str = "") -> BorderPrefix:
    """Deepest prefix whose subtree still holds both total and non-total
    expansions of the transformed machine.  Totality is contiguous from 0
    up to omega, so a prefix is mixed exactly when omega lies strictly
    inside its interval: the L-bit expansion of omega cut before its last
    1 bit (empty when omega is 0 or 1)."""
    s = format(get_interval_table(cfg, aux).omega_grid, f"0{cfg.max_program_len}b")
    return BorderPrefix(s[:max(s.rfind("1"), 0)], cfg)


def omega_pair(b: BorderPrefix | str, cfg: MachineConfig, aux: str = "") -> tuple[Dyadic, Dyadic]:
    """(omega_t, omega_hat): total fuel-bounded halting mass, and the mass of
    transformed programs strictly left of b.  For a border prefix the gap is
    at most 2^-len(b), exactly."""
    bits = b.bits if isinstance(b, BorderPrefix) else b
    table = get_interval_table(cfg, aux)
    his = table._piece_hi
    count, _i, _j = _split_ranges(table._piece_lo, his, bits, cfg.max_program_len)
    # the pieces tile [0, omega) from 0, so the count pieces left of b fill
    # [0, his[count - 1])
    return table.omega, Dyadic(his[count - 1] if count else 0, cfg.max_program_len)


# ---------------------------------------------------------------------------
# bb and m_b (programs left of b, or extending b)
# ---------------------------------------------------------------------------

def _split_ranges(los: list[int], his: list[int], b: str, L: int) -> tuple[int, int, int]:
    """For pieces in position order with grid endpoints ``los``/``his``: the
    count strictly left of b, then the index range [i, j) of those extending b.

    A b longer than L lies strictly inside one grid cell: no piece extends
    it, and the pieces left of it are the pieces left of that cell.
    """
    if len(b) > L:
        return bisect_right(his, int(b[:L], 2)), 0, 0
    lo_b, hi_b = _grid_interval(b, L)
    left_count = bisect_right(his, lo_b)
    i = bisect_left(los, lo_b)
    j = bisect_left(los, hi_b)
    if i < j and his[i] > hi_b:
        i += 1  # that piece is a proper prefix of b: neither left-of nor extending
    return left_count, i, j


def bb(b: str, cfg: MachineConfig, aux: str = "") -> int:
    """Length of the longest output among transformed programs left of b or
    extending b; 0 when b is not total.

    The pieces tile [0, omega) from 0 with no gaps, so a nonempty extending
    range [i, j) starts right after the pieces left of b (i == left_count),
    and the answer is the prefix maximum up to j.
    """
    table = get_interval_table(cfg, aux)
    if not is_total_uprime(b, table):
        return 0
    left_count, i, j = _split_ranges(table._piece_lo, table._piece_hi, b,
                                     cfg.max_program_len)
    return table._prefix_maxlen[j if i < j else left_count]


def m_b(b: str, x: str, y: str, cfg: MachineConfig) -> Dyadic:
    """Algorithmic weight of x from transformed programs left of b or
    extending b, conditional to aux y; 0 for non-total b."""
    table = get_interval_table(cfg, y)
    if not is_total_uprime(b, table):
        return Dyadic.zero()
    return mass_filtered(b, x, table)


def mass_filtered(b: str, x: str, table: IntervalTable) -> Dyadic:
    """The left-of-or-extending program mass for output x, without the
    totality gate (the gate belongs to m_b; the raw filter is exercised
    separately, e.g. with b = "" it excludes nothing and equals m_t)."""
    slot = table._by_output.get(x)
    if slot is None:
        return Dyadic.zero()
    los, his, mass = slot
    L = table.config.max_program_len
    left_count, i, j = _split_ranges(los, his, b, L)
    return Dyadic(mass[left_count] + mass[j] - mass[i], L)


def m_b_set(b: str, members, y: str, cfg: MachineConfig) -> Dyadic:
    total = Dyadic.zero()
    for x in set(members):
        total = total + m_b(b, x, y, cfg)
    return total


# ---------------------------------------------------------------------------
# shortest total string satisfying a predicate
# ---------------------------------------------------------------------------

def total_strings_of_length(n: int, table: IntervalTable) -> list[str]:
    """All transformed-total strings of length n, in left-to-right order."""
    if n == 0:
        return [""] if table.omega == Dyadic.one() else []
    L = table.config.max_program_len
    if n > L:
        raise ValueError("length exceeds the bound")
    count = table.omega_grid >> (L - n)
    return [format(v, f"0{n}b") for v in range(count)]


def shortest_total_satisfying(
    pred: Callable[[str], bool],
    cfg: MachineConfig,
    aux: str = "",
) -> str:
    """The shortest transformed-total string satisfying ``pred``; asserts the
    satisfier is unique at its length (scanning the whole level).

    For the parent-dominated predicates this search exists for (weight and
    longest-output thresholds), the result's parent is never total: a total
    parent would satisfy the predicate one level earlier.  That standing
    assumption is asserted on every return.
    """
    table = get_interval_table(cfg, aux)
    for n in range(cfg.max_program_len + 1):
        hits = [b for b in total_strings_of_length(n, table) if pred(b)]
        if hits:
            if len(hits) > 1:
                raise UniquenessViolation(
                    f"{len(hits)} total strings of length {n} satisfy the predicate"
                )
            found = hits[0]
            if found and is_total_uprime(found[:-1], table):
                raise AssertionError(
                    "the result's parent is total: the predicate is not "
                    "parent-dominated"
                )
            return found
    raise TotalSearchNotFound("no total string within bounds satisfies the predicate")
