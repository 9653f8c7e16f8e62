"""Independent test oracles and reference definitions that the lab itself
never runs.

- The machine: a bit-at-a-time interpreter and its brute-force enumeration,
  the level-order walk writing one ``ProgramRecord`` per halting program, a
  prefix scan for the halting-sequence proxy, and the edges of the boundary
  graph read off the instruction decoder, one code at a time (``expand``).
- The left-total transform: the transformed machine, a tree walk, the
  pieces of the interval table, its output columns as a dict of arrays
  grouped from the records, the table's text form, ``m_b``'s mass
  filter without its totality gate, the base machine's totality and a
  child-by-child descent to the border prefix; the left-of relation and the
  open dyadic intervals it orders.
- Encodings: the measure encoder, the predicate decoder and the predicate
  of a cylinder, each the inverse of what ``ait`` reads or writes.
- Measures and transducers: the W-test, every greedy draw of the hitting
  vector, the stage function xi, a per-input preimage count and the
  measure-matching gap read off it.
- Fixtures: a family of prefix-free sets the machine can reach.
"""

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Optional

from ait.codec import (
    DecodeError,
    Lcg,
    PrefixFreeSet,
    all_strings_upto,
    assert_bits,
    canon_key,
    decode_nat_from,
    decode_string_set,
    encode_nat,
    encode_self_delim,
    kraft_sum,
)
from ait.dyadic import Dyadic, ceil_neg_log2
from ait.leftward import IntervalTable, _cuts, _mass_below
from ait.machine import (
    ExecOutcome,
    MachineConfig,
    ProgramRecord,
    Status,
    batches,
    get_enumeration,
)
from ait.measures import ElementaryMeasure
from ait.monotone import DepthExceeded, NuFunction, Stage, ThetaTable, ZeroMeasureSet, build_nu
from ait.predicates import BinaryPredicate


class _Stop(Exception):
    """The run ends before a halt; the argument is its status."""


def run_by_bits(program: str, aux: str = "", fuel: int = 2048) -> ExecOutcome:
    """The machine read straight off the opcode table in ``ait.machine``'s
    docstring: one input bit at a time, each step charged before it is taken."""
    steps = read = cell = 0
    out = []

    def charge(n=1):
        nonlocal steps
        if steps + n > fuel:
            raise _Stop(Status.OUT_OF_FUEL)
        steps += n

    def bit():
        nonlocal read
        if read == len(program):
            raise _Stop(Status.NEEDS_MORE_INPUT)
        charge()
        read += 1
        return program[read - 1]

    def block():  # 1^n 0 y, with len(y) = n
        n = 0
        while bit() == "1":
            n += 1
        return "".join(bit() for _ in range(n))

    def emit(y, reps=1):
        charge(len(y) * reps)  # one step per output bit, charged before building
        out.append(y * reps)

    def read_cell():  # (flag, data bit); past the aux string, sentinel cells (0, 0)
        nonlocal cell
        charge()
        cell += 1
        return (1, aux[cell - 1]) if cell <= len(aux) else (0, "0")

    try:
        while True:
            op = bit()
            while op not in ("0", "100", "101", "110", "1110", "11110", "11111"):
                op += bit()
            charge()  # the dispatch
            if op == "0":  # EMIT_HALT
                emit(block())
                break
            if op == "100":  # EMIT
                emit(block())
            elif op == "101":  # RAW8_HALT
                emit("".join(bit() for _ in range(8)))
                break
            elif op == "110":  # POW_HALT
                m = int(block() or "0", 2)
                y = block()
                if y and m:
                    if m > 15:  # 16**16 repeats exceed every fuel
                        raise _Stop(Status.OUT_OF_FUEL)
                    emit(y, m ** m)
                break
            elif op == "1110":  # COPY_N
                k = int(block() or "0", 2)
                charge(2 * k)  # k cells read and k bits appended
                out.append((aux[cell:cell + k] + "0" * k)[:k])
                cell += k
            elif op == "11110":  # COPY_ALL
                while True:
                    flag, data = read_cell()
                    if not flag:
                        break
                    emit(data)
            else:  # HALT
                break
    except _Stop as stop:
        return ExecOutcome(stop.args[0])
    return ExecOutcome(Status.HALTED, "".join(out), read, steps)


def halting_by_bits(max_len: int, fuel: int, aux: str = "") -> list[ProgramRecord]:
    """Every program of at most ``max_len`` bits that ``run_by_bits`` halts on
    after reading all of it, sorted by (steps, program)."""
    records = []
    for n in range(1, max_len + 1):
        for v in range(1 << n):
            p = format(v, f"0{n}b")
            out = run_by_bits(p, aux, fuel)
            if out.halted and out.bits_read == n:
                records.append(ProgramRecord(p, out.output, out.steps))
    records.sort(key=lambda r: (r.steps, r.program))
    return records


def expand(aux: str, fuel: int, a: int, steps: int, c: int):
    """The instructions of ``machine.batches`` one code at a time: (code,
    emitted bits, next aux position or None after a halt, steps after)."""
    for head, emitted, after, spent in batches(aux, fuel, a, steps, c):
        for v, bits in enumerate(emitted):
            yield head | v, bits, after, spent


def search_programs_by_records(
    cfg: MachineConfig,
    aux: str,
    state: Optional[Callable[[str], str]] = None,
    *,
    cutoff: Optional[Callable[[ProgramRecord], int]] = None,
) -> list[ProgramRecord]:
    """``machine.search_programs`` over string prefixes, one boundary and one
    code at a time, writing one ``ProgramRecord`` per halting program and
    sorting the records themselves: the reference the walk's columnar store
    is compared with."""
    results: list[ProgramRecord] = []
    if state is not None and state("") == "dead":
        return results
    fuel, limit = cfg.fuel, cfg.max_program_len
    boundaries = [("", "", 0, 0)]  # (prefix, output, aux position, steps)
    n = 0
    while boundaries and n < limit:
        n += 1
        level, reached = [], []
        for prefix, out, a, steps in boundaries:
            c = n - len(prefix)
            for code, emitted, after, spent in expand(aux, fuel, a, steps, c):
                if after is not None and n == limit:
                    continue  # no level reads the last level's boundaries
                code, output = format(code, f"0{c}b"), out + emitted
                kind = "complete" if state is None else state(output)
                if kind == "dead":
                    continue
                if after is not None:
                    reached.append((prefix + code, output, after, spent))
                elif kind == "complete":
                    level.append(ProgramRecord(prefix + code, output, spent))
        # a boundary stays open while a code one bit longer still fits
        boundaries = [(prefix, out, a, steps) for prefix, out, a, steps in boundaries + reached
                      if steps + (n + 1 - len(prefix)) + 1 <= fuel]
        level.sort(key=lambda r: r.program)
        for rec in level:
            results.append(rec)
            if cutoff is not None:
                limit = min(limit, cutoff(rec))
    results.sort(key=lambda r: (r.steps, r.program))
    return results


def _grid_interval(x: str, grid_bits: int) -> tuple[int, int]:
    """x's open interval in 2^-grid_bits units; len(x) must not exceed grid_bits."""
    if len(x) <= grid_bits:
        width = 1 << (grid_bits - len(x))
        lo = int(x, 2) * width if x else 0
        return lo, lo + (width if x else 1 << grid_bits)
    raise ValueError(f"string longer than the grid: {x!r}")


def tiles(table: IntervalTable):
    """(record, lo, hi) per tile in position order, in grid units of 2^-L."""
    return zip(table.records, table._bounds, table._bounds[1:])


def outputs_by_grouping(table: IntervalTable) -> dict[str, tuple[ProgramRecord, array, array]]:
    """The table's output columns regrouped from its records: per output, its
    (length, lex)-least program, its tile indices and their running mass on
    the 2^-L grid from 0, in increasing (len, program) order of the least
    programs."""
    L = table.config.max_program_len
    records = list(table.records)
    tiles = {}
    for k, rec in enumerate(records):
        tiles.setdefault(rec.output, array("q")).append(k)
    rank = lambda k: (len(records[k].program), records[k].program)
    least = {x: min(group, key=rank) for x, group in tiles.items()}
    return {x: (records[least[x]], tiles[x],
                array("q", accumulate((1 << (L - len(records[k].program)) for k in tiles[x]),
                                      initial=0)))
            for x in sorted(tiles, key=lambda x: rank(least[x]))}


def run_left_total(p_prime: str, table: IntervalTable) -> ExecOutcome:
    """The transformed machine: halt once the consumed prefix's interval sits
    inside a tile (the parent prefix's interval does not, so the consumed
    prefixes form a prefix-free domain); reading past every tile diverges."""
    L = table.config.max_program_len
    for k in range(1, min(len(p_prime), L) + 1):
        lo, hi = _grid_interval(p_prime[:k], L)
        idx = bisect_right(table._bounds, lo) - 1
        if idx < len(table.records) and hi <= table._bounds[idx + 1]:
            rec = table.records[idx]
            return ExecOutcome(Status.HALTED, rec.output, bits_read=k, steps=rec.steps)
    return ExecOutcome(Status.NEEDS_MORE_INPUT)


def serialize_table(table: IntervalTable) -> str:
    """One line per tile: its program and its interval's dyadic endpoints."""
    L = table.config.max_program_len
    lines = [f"{rec.program}\t{Dyadic(lo, L)}\t{Dyadic(hi, L)}" for rec, lo, hi in tiles(table)]
    return "\n".join(lines) + ("\n" if lines else "")


def is_total_uprime_by_walk(x: str, table: IntervalTable) -> bool:
    """Walk the depth-(L+1) tree under x checking that every leaf path hits
    a transformed halting prefix."""
    depth = table.config.max_program_len + 1
    if len(x) > depth:
        raise ValueError("string deeper than the walk")

    def down(y: str) -> bool:
        if run_left_total(y, table).halted:
            return True
        if len(y) == depth:
            return False
        return down(y + "0") and down(y + "1")

    return down(x)


def border_by_descent(omega: int, L: int) -> str:
    """The border prefix for a halting mass of ``omega`` units of 2^-L: from
    the root, descend right while the right child's interval holds omega
    strictly inside, else left while the left child's does."""
    x = ""
    while len(x) < L:
        lo1, hi1 = _grid_interval(x + "1", L)
        if lo1 < omega < hi1:
            x += "1"
            continue
        lo0, hi0 = _grid_interval(x + "0", L)
        if lo0 < omega < hi0:
            x += "0"
            continue
        break
    return x


def preimage_count_by_apply(nu, members, n: int) -> int:
    """|{y of length n : nu(y) extends some member}|, applying nu afresh to
    every length-n input and testing its image against each member."""
    targets = tuple(set(members))
    if n > nu.depth:
        raise DepthExceeded(f"length {n} exceeds built depth {nu.depth}")
    count = 0
    for v in range(1 << n):
        image = nu.apply(format(v, f"0{n}b") if n else "")
        if any(image.startswith(x) for x in targets):
            count += 1
    return count


def measure_matching_gap_by_apply(t: ThetaTable) -> int:
    """``monotone.measure_matching_gap`` with each count taken by
    ``preimage_count_by_apply`` on a transducer built from the table."""
    nu = NuFunction(build_nu(t))
    n, worst = nu.depth, 0
    for x in t.support(t.max_stage):
        count = preimage_count_by_apply(nu, [x], n)
        if count == 0:
            raise ZeroMeasureSet(f"{x!r} has an empty preimage at depth {n}")
        lhs = ceil_neg_log2(t.theta(x, t.max_stage))
        worst = max(worst, abs(lhs - ceil_neg_log2(Dyadic(count, n))))
    return worst


class Piece(NamedTuple):
    """A minimal transformed program: one maximal dyadic block of a tile."""

    lo: int  # grid units of 2^-L
    hi: int
    program: str
    output: str
    steps: int


def table_pieces(table: IntervalTable) -> list[Piece]:
    """The pieces of every tile in position order: the strings whose grid
    interval lies inside the tile and whose parent's does not, found by a
    descent from the root."""
    L = table.config.max_program_len
    pieces = []

    def down(p, lo, hi, rec, t_lo, t_hi):
        if t_lo <= lo and hi <= t_hi:
            pieces.append(Piece(lo, hi, p, rec.output, rec.steps))
        elif lo < t_hi and t_lo < hi:
            mid = (lo + hi) // 2
            down(p + "0", lo, mid, rec, t_lo, t_hi)
            down(p + "1", mid, hi, rec, t_lo, t_hi)

    for rec, t_lo, t_hi in tiles(table):
        down("", 0, 1 << L, rec, t_lo, t_hi)
    return pieces


class Reach(NamedTuple):
    """The pieces left of b or extending b, read in one pass, with no totality
    gate: their longest output and their mass per output, and the mass of
    the pieces strictly left of b; masses in grid units of 2^-L."""

    bb: int
    mass: Counter
    omega_hat: int


def reach_by_pieces(b: str, pieces: list[Piece], L: int) -> Reach:
    """One pass over the pieces of a table with length bound L for probe b."""
    longest, mass, left = 0, Counter(), 0
    for p in pieces:
        width = 1 << (L - len(p.program))
        if left_of(p.program, b):
            left += width
        elif not p.program.startswith(b):
            continue
        longest = max(longest, len(p.output))
        mass[p.output] += width
    return Reach(longest, mass, left)


def mass_filtered(b: str, x: str, table: IntervalTable) -> Dyadic:
    """``m_b``'s left-of-or-extending program mass for output x, read off the
    table's cuts without the totality gate (with b = "" it excludes nothing)."""
    _left, upto, cut = _cuts(b, table)
    return Dyadic(_mass_below(upto, cut, x, table), table.config.max_program_len)


class UTotality:
    """Desk-scale totality for the base machine, from its enumeration: x is
    total when every leaf of the depth-L tree under it has a halting prefix."""

    def __init__(self, cfg: MachineConfig, aux: str = ""):
        self.cfg = cfg
        self.programs = {r.program for r in get_enumeration(cfg, aux)}
        self._memo: dict[str, bool] = {}

    def covered(self, x: str) -> bool:
        return any(x[:i] in self.programs for i in range(len(x) + 1))

    def is_total(self, x: str) -> bool:
        if len(x) > self.cfg.max_program_len:
            raise ValueError("string exceeds the length bound")
        return self._total(x, self.covered(x))

    def _total(self, x: str, covered: bool) -> bool:
        if covered:
            return True
        if x in self._memo:
            return self._memo[x]
        if len(x) == self.cfg.max_program_len:
            result = False
        else:
            result = all(
                self._total(x + b, (x + b) in self.programs) for b in "01"
            )
        self._memo[x] = result
        return result


def halting_proxy_by_scan(cfg: MachineConfig, aux: str = "") -> str:
    """The halting-sequence proxy bits, one per string of at most L bits in
    canonical order: a string halts when one of its prefixes is a minimal
    halting program."""
    programs = {r.program for r in get_enumeration(cfg, aux)}
    return "".join("1" if any(s[:i] in programs for i in range(len(s) + 1)) else "0"
                   for s in all_strings_upto(cfg.max_program_len))


# ---------------------------------------------------------------------------
# the boundary graph, read off the instruction decoder
# ---------------------------------------------------------------------------

def edges_by_expand(x: str, aux: str, o: int, a: int, room: int, *,
                    extending: bool = False, fuel: Optional[int] = None) -> Counter:
    """Every instruction with a code of at most ``room`` bits that may follow
    the boundary (o, a) of a program for exactly x, counted as (code, next
    boundary or None after a halt, weight): its emitted bits match x[o:],
    and a halt ends at len(x).  The next boundary is (o + emitted, min(aux
    position, len(aux))), and the weight is the steps spent less the bits
    emitted.  The default fuel lets every instruction that can match x run.

    With ``extending``, for a program whose output extends x: the emitted
    bits need only agree with x[o:] as far as both go, a halt may end past
    len(x), the next boundary's output length stops at len(x), and the bits
    emitted past len(x) add to the weight."""
    if fuel is None:
        fuel = 4 * (room + len(x) + len(aux)) + 16
    edges = Counter()
    for c in range(1, room + 1):
        for code, emitted, after, spent in expand(aux, fuel, a, 0, c):
            code, end = code | 1 << c, o + len(emitted)
            agrees = x.startswith(emitted, o) or extending and emitted.startswith(x[o:])
            if not agrees or (after is None and end < len(x)):
                continue
            over = max(end - len(x), 0)  # only when extending
            end -= over
            t = None if after is None else (end, min(after, len(aux)))
            edges[code, t, spent - len(emitted) + over] += 1
    return edges


# ---------------------------------------------------------------------------
# intervals and the left-of relation
# ---------------------------------------------------------------------------

def left_of(x: str, y: str) -> bool:
    """The left-of relation: some z with z0 a prefix of x and z1 a prefix of y.

    Prefix-comparable strings are never left-of each other; for
    prefix-incomparable strings exactly one of left_of(x, y), left_of(y, x)
    holds.
    """
    m = min(len(x), len(y))
    for i in range(m):
        if x[i] != y[i]:
            return x[i] == "0"
    return False


@dataclass(frozen=True)
class OpenInterval:
    """Open dyadic subinterval of [0, 1]."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if not (self.lo < self.hi and self.hi <= Dyadic.one()):
            raise ValueError(f"bad interval ({self.lo}, {self.hi})")

    def contains(self, other: "OpenInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def disjoint(self, other: "OpenInterval") -> bool:
        return self.hi <= other.lo or other.hi <= self.lo

    def entirely_left_of(self, other: "OpenInterval") -> bool:
        return self.hi <= other.lo


def interval_of(p: str) -> OpenInterval:
    """The open interval ([p] 2^-len(p), ([p]+1) 2^-len(p)); [p] is p's binary value."""
    assert_bits(p)
    if not p:
        raise ValueError("the empty string has no associated interval")
    v = int(p, 2)
    n = len(p)
    return OpenInterval(Dyadic(v, n), Dyadic(v + 1, n))


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def encode_measure_entries(entries) -> str:
    """Encode (element, numerator, exponent) triples, canonical element order.

    Weights must be positive dyadics in canonical form (numerator odd).
    """
    ordered = sorted(entries, key=lambda e: canon_key(e[0]))
    if len({e[0] for e in ordered}) != len(ordered):
        raise ValueError("duplicate support element")
    out = [encode_nat(len(ordered))]
    for x, num, exp in ordered:
        if num <= 0 or exp < 0 or (num % 2 == 0 and exp > 0):
            raise ValueError(f"non-canonical weight {num}/2^{exp}")
        out.append(encode_self_delim(assert_bits(x)))
        out.append(encode_nat(num))
        out.append(encode_nat(exp))
    return "".join(out)


def encode_measure(w: ElementaryMeasure) -> str:
    """Canonical bit-string encoding; weights must be dyadic."""
    entries = []
    for x in w.support:
        weight = w(x)
        den = weight.denominator
        if den & (den - 1):
            raise ValueError(f"weight {weight} of {x!r} is not dyadic")
        entries.append((x, weight.numerator, den.bit_length() - 1))
    return encode_measure_entries(entries)


def decode_predicate(bits: str) -> BinaryPredicate:
    n2, pos = decode_nat_from(bits, 0)
    if n2 % 2:
        raise DecodeError("odd interleaved count")
    pairs = []
    for _ in range(n2 // 2):
        idx, pos = decode_nat_from(bits, pos)
        bit, pos = decode_nat_from(bits, pos)
        pairs.append((idx, bit))
    if pos != len(bits):
        raise DecodeError("trailing bits after predicate encoding")
    if pairs != sorted(pairs) or len({i for i, _ in pairs}) != len(pairs):
        raise DecodeError("predicate entries not in canonical index order")
    return BinaryPredicate(pairs)


def predicate_of_cylinder(members: PrefixFreeSet) -> BinaryPredicate:
    """Inverse construction: the positions where every member agrees...
    valid when the set is a full cylinder, which round-trip tests assert."""
    strings = list(members)
    n = len(strings[0])
    pairs = []
    for i in range(1, n + 1):
        bits = {s[i - 1] for s in strings}
        if len(bits) == 1:
            pairs.append((i, int(bits.pop())))
    return BinaryPredicate(pairs)


# ---------------------------------------------------------------------------
# measures and transducers
# ---------------------------------------------------------------------------

def is_w_test(s: Mapping[str, int], w: ElementaryMeasure) -> bool:
    """Exact check of sum 2^s(x) W(x) <= 1 over the support."""
    total = Fraction(0)
    for x in w.support:
        e = s[x]
        total += w(x) * (Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e))
    return total <= 1


def hitting_draws(q: ElementaryMeasure, m: ElementaryMeasure, i: int, c: int,
                  d: int) -> tuple:
    """Every one of the c*d*2^(i+1) greedy draws of ``hitting_vector``, each
    a full pass over the support of m, also after every set is hit."""
    chosen = []
    alive = []
    for enc in q.support:
        members = frozenset(decode_string_set(enc))
        alive.append((q(enc), members, 1 - m.mass_of(members)))
    for r in range(c * d * (1 << (i + 1)), 0, -1):
        contrib = [qw * miss ** (r - 1) for qw, _members, miss in alive]
        total = sum(contrib, Fraction(0))
        best_elem, best_pot = None, None
        for w in m.support:
            pot = total
            for idx, (_qw, members, _miss) in enumerate(alive):
                if w in members:
                    pot -= contrib[idx]
            if best_pot is None or pot < best_pot:
                best_pot = pot
                best_elem = w
        chosen.append(best_elem)
        alive = [entry for entry in alive if best_elem not in entry[1]]
    return tuple(chosen)


def xi(stage: Stage, x: str) -> Optional[int]:
    """ceil(-log mass(S[x] union T[x])) at a completed stage; None on empty."""
    members = set(stage.s_sets.get(x, ())) | set(stage.t_sets.get(x, ()))
    if not members:
        return None
    return ceil_neg_log2(kraft_sum(members))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def default_prefix_free_family(count: int = 50) -> list[tuple[str, PrefixFreeSet]]:
    """Deterministic prefix-free sets with members the machine can reach."""
    rng = Lcg(23)
    family = []
    for j in range(count):
        length = 2 + rng.next(3)
        size = 1 + rng.next(min(3, 1 << length))
        members = {format(rng.next(1 << length), f"0{length}b") for _ in range(size)}
        family.append((f"pfs{j:03d}", PrefixFreeSet(members)))
    return family
