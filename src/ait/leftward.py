"""The left-total transform: interval assignment over convergence-ordered
halting programs, totality testing, the border prefix, bb, m_b, the
shortest-total-string search, and the halting-probability pair.

The transform orders the machine's fuel-bounded halting programs by
(convergence time, program) and assigns them consecutive open intervals of
width 2^-len(p) starting at 0.  The transformed machine outputs U(p) on the
shortest input whose interval sits inside p's interval.  Interval endpoints
are multiples of 2^-L (every program is at most L bits), so each tile splits
exactly into maximal dyadic pieces — the minimal transformed programs — and
all mass bookkeeping below happens in integer grid units of 2^-L.  The table
keeps the tiles, never the pieces: a query about a string b needs at most one
piece, the one that properly contains b's interval, and the tile endpoints
give it.  The tiles are the records of ``machine.Enumeration``, the columnar
store of the walk: their widths come from its program column and their
grouping by output from its output ids.  The table groups them by output in
flat columns too: the tile indices grouped by output id, with group
offsets, running mass on the grid, and each output's least tile.  Every
column, the store's and the table's, is the narrowest unsigned array that
holds the largest value its bound allows: 2^L for the grid points, the
fuel for output lengths, and the record count for tile indices and
offsets; past 64 bits it is a list.  The queries read these columns and
the store's; none builds a ``ProgramRecord``.

Desk-scale totality is relative to the bounds: a string is total when every
leaf of the depth-L tree under it has a prefix on which the machine halts
within fuel.  For the transformed machine the tiles cover [0, omega)
contiguously on the 2^-L grid, so a nonempty string is total exactly when
its interval's right endpoint is at most omega.  The tests keep the
transformed machine itself, its pieces, a brute-force tree walk, and the
base machine's totality from its enumeration, as independent oracles.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Callable

from .codec import strings_of_length
from .dyadic import Dyadic
from .machine import Enumeration, MachineConfig, _column, get_enumeration, per_bounds


class TotalSearchNotFound(RuntimeError):
    """No total string within bounds satisfies the predicate."""


class UniquenessViolation(AssertionError):
    """A second total string of the same length satisfied the predicate."""


@dataclass(frozen=True)
class BorderPrefix:
    bits: str


@dataclass
class IntervalTable:
    """Consecutive open intervals, the tiles, over the enumeration order.
    Tile k belongs to ``records[k]``, record k of the cached enumeration
    store itself, and spans [_bounds[k], _bounds[k + 1]) in integer grid
    units of 2^-L.  The build reads each tile's width off the store's
    program column and groups the tiles by output id with one counting
    sort; it builds no ``ProgramRecord`` and no list with an entry per tile.

    The tiles grouped by output are integer columns over the store's output
    ids.  ``tiles`` holds the tile indices grouped by output id, ascending
    within each group: output i's are ``tiles[starts[i]:starts[i + 1]]``.
    ``cum`` is the running mass over ``tiles`` on the grid, so output i's
    mass is ``cum[starts[i + 1]] - cum[starts[i]]``.  ``least`` holds each
    output's (length, lex)-least tile.  ``index`` maps each output to its
    id, inserted in strictly increasing (len(program), program) order of
    the least programs, so the first output a query accepts in its order
    holds its least program.

    Each integer column is sized by ``machine._column`` from the largest
    value its bound allows: ``_bounds`` and ``cum`` by the grid's 2^L,
    ``_prefix_maxlen`` by the fuel (each output bit costs a step), and
    ``tiles``, ``starts`` and ``least`` by the record count.  So a column
    is the narrowest unsigned ``array`` that holds its bound, or a list
    past 64 bits, as at L = 64."""

    config: MachineConfig
    records: Enumeration
    omega: Dyadic                      # total assigned width = the final grid position
    index: dict[str, int]
    tiles: array = field(repr=False)
    starts: array = field(repr=False)
    cum: array | list = field(repr=False)
    least: array = field(repr=False)
    # n + 1 tile endpoints from 0 to omega; the longest output among the
    # first k tiles
    _bounds: array | list = field(repr=False)
    _prefix_maxlen: array | list = field(repr=False)

    @property
    def omega_grid(self) -> int:
        return self._bounds[-1]

    def program(self, i: int) -> str:
        """Output i's (length, lex)-least program."""
        return self.records.program(self.least[i])

    def length(self, i: int) -> int:
        """The length of output i's least program."""
        return self.records.programs[self.least[i]].bit_length() - 1

    def mass(self, i: int) -> int:
        """Output i's tile mass in grid units of 2^-L."""
        return self.cum[self.starts[i + 1]] - self.cum[self.starts[i]]


def build_interval_table(cfg: MachineConfig, aux: str = "") -> IntervalTable:
    L = cfg.max_program_len
    records = get_enumeration(cfg, aux)
    programs = records.programs  # "1" + p as an integer: p has bit_length() - 1 bits
    n, top = len(records), 1 << L
    width_of = [1 << L + 1 - b for b in range(L + 2)]  # by a program integer's bit length
    widths = _column(map(width_of.__getitem__, map(int.bit_length, programs)), top)
    try:
        bounds = _column(accumulate(widths, initial=0), top)
    except OverflowError:  # a running sum past the column's width
        bounds = None
    if bounds is None or bounds[-1] > top:
        raise AssertionError("Kraft sum exceeded 1; the machine domain is broken")
    ids, names = records.ids, records.outputs
    # a counting sort of the tile indices by output id
    counts = Counter(ids)
    starts = _column(accumulate(map(counts.__getitem__, range(len(names))), initial=0), n)
    fill = list(starts)
    tiles = _column((0,), n) * n
    for k, i in enumerate(ids):
        tiles[fill[i]] = k
        fill[i] += 1
    cum = _column(accumulate(map(widths.__getitem__, tiles), initial=0), top)
    # the longest output among the first k tiles rises only past an output's
    # first tile, so the column is one run per rise, filled in C
    prefix_maxlen, longest = _column((), cfg.fuel), 0
    for k, length in sorted(zip(map(tiles.__getitem__, starts[:-1]), map(len, names))):
        if length > longest:
            prefix_maxlen += _column((longest,), cfg.fuel) * (k + 1 - len(prefix_maxlen))
            longest = length
    prefix_maxlen += _column((longest,), cfg.fuel) * (n + 1 - len(prefix_maxlen))
    # the program integers sort in (length, lex) order
    least = _column((min(tiles[lo:hi], key=programs.__getitem__)
                     for lo, hi in zip(starts, starts[1:])), n)
    ranked = sorted(range(len(names)), key=[programs[k] for k in least].__getitem__)
    return IntervalTable(cfg, records, Dyadic(bounds[-1], L), {names[i]: i for i in ranked},
                         tiles, starts, cum, least, bounds, prefix_maxlen)


def get_interval_table(cfg: MachineConfig, aux: str = "") -> IntervalTable:
    """The table, built once per bounds and readable aux prefix."""
    return per_bounds("interval table", build_interval_table, cfg, aux)


def _cuts(b: str, table: IntervalTable) -> tuple[int, int, int]:
    """Grid points (left, upto) and a tile count: the pieces strictly left
    of b are the pieces below ``left``, and those left of b or extending it
    the pieces below ``upto``; no piece straddles either point.  The first
    ``tiles`` tiles are those that start below upto.

    Pieces and b's interval I_b are dyadic, so each piece lies left of I_b,
    inside it, right of it, or properly contains it.  A piece properly
    contains I_b exactly when b's parent interval lies inside one tile, and
    then it is the largest dyadic ancestor of that parent inside the tile;
    both points are its left end.  Otherwise they are I_b's ends.  A b
    longer than L lies inside one grid cell, which takes the parent's part.

    So b is total exactly when upto is at most omega: a b inside a tile is
    total, and its upto lies inside that tile, below omega; otherwise upto
    is b's right end.
    """
    L = table.config.max_program_len
    if len(b) > L:  # the grid cell holding b takes the parent's part
        lo = lo_b = int(b[:L], 2)
        hi_b, size = lo + 1, 1
    else:
        size = 1 << (L - len(b))
        lo_b = int(b or "0", 2) * size
        hi_b = lo_b + size
        size <<= 1
        lo = lo_b & -size  # the parent
    bounds, n = table._bounds, len(table.records)
    k = bisect_right(bounds, lo) - 1
    if k < n and lo + size <= bounds[k + 1]:
        t_lo, t_hi = bounds[k], bounds[k + 1]
        while True:  # climb while the doubled block stays inside the tile
            up = lo & -(size << 1)
            if up < t_lo or up + (size << 1) > t_hi:
                return lo, lo, k + (lo > t_lo)
            lo, size = up, size << 1
    return lo_b, hi_b, bisect_left(bounds, hi_b, 0, n)


# ---------------------------------------------------------------------------
# totality
# ---------------------------------------------------------------------------

def is_total_uprime(x: str, table: IntervalTable) -> bool:
    """Tile coverage is contiguous from 0 up to omega, so x is total exactly
    when its interval ends at or below omega; a string longer than L lies
    inside the grid cell of its first L bits."""
    L = table.config.max_program_len
    x = x[:L]
    return (int(x or "0", 2) + 1) << (L - len(x)) <= table.omega_grid


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
    return BorderPrefix(s[:max(s.rfind("1"), 0)])


def omega_pair(b: BorderPrefix | str, cfg: MachineConfig, aux: str = "") -> tuple[Dyadic, Dyadic]:
    """(omega_t, omega_hat): total fuel-bounded halting mass, and the mass of
    transformed programs strictly left of b.  For a border prefix the gap is
    at most 2^-len(b), exactly."""
    bits = b.bits if isinstance(b, BorderPrefix) else b
    table = get_interval_table(cfg, aux)
    # the pieces tile [0, omega) from 0, so those left of b fill [0, left)
    left, _upto, _tiles = _cuts(bits, table)
    return table.omega, Dyadic(min(left, table.omega_grid), cfg.max_program_len)


# ---------------------------------------------------------------------------
# bb and m_b (programs left of b, or extending b)
# ---------------------------------------------------------------------------

def bb(b: str, cfg: MachineConfig, aux: str = "") -> int:
    """Length of the longest output among transformed programs left of b or
    extending b; 0 when b is not total.

    Those programs are the pieces below ``_cuts``' upto point, so their
    outputs are those of the tiles that start below it.
    """
    table = get_interval_table(cfg, aux)
    _left, upto, tiles = _cuts(b, table)
    return table._prefix_maxlen[tiles] if upto <= table.omega_grid else 0


def m_b(b: str, x: str, y: str, cfg: MachineConfig) -> Dyadic:
    """Algorithmic weight of x from transformed programs left of b or
    extending b, conditional to aux y; 0 for non-total b."""
    return m_b_set(b, [x], y, cfg)


def m_b_set(b: str, members, y: str, cfg: MachineConfig) -> Dyadic:
    """``m_b`` summed over the distinct members, with one cut for b, which
    is also its totality gate."""
    table = get_interval_table(cfg, y)
    _left, upto, cut = _cuts(b, table)
    if upto > table.omega_grid:
        return Dyadic.zero()
    return Dyadic(sum(_mass_below(upto, cut, x, table) for x in set(members)),
                  cfg.max_program_len)


def _mass_below(upto: int, cut: int, x: str, table: IntervalTable) -> int:
    """x's tile mass clipped to [0, upto), in grid units: its tiles among
    the first ``cut``, those that start below upto, less the part of the
    last one past upto."""
    i = table.index.get(x)
    if i is None:
        return 0
    tiles, bounds, lo = table.tiles, table._bounds, table.starts[i]
    end = bisect_left(tiles, cut, lo, table.starts[i + 1])
    total = table.cum[end] - table.cum[lo]
    if end > lo:
        total -= max(bounds[tiles[end - 1] + 1] - upto, 0)
    return total


# ---------------------------------------------------------------------------
# shortest total string satisfying a predicate
# ---------------------------------------------------------------------------

def total_strings_of_length(n: int, table: IntervalTable) -> list[str]:
    """All transformed-total strings of length n, in left-to-right order:
    the first omega * 2^n of them (the empty string only when omega is 1)."""
    L = table.config.max_program_len
    if n > L:
        raise ValueError("length exceeds the bound")
    return list(islice(strings_of_length(n), table.omega_grid >> (L - n)))


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
