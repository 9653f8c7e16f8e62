"""Independent test oracles: a bit-at-a-time interpreter and its brute-force
enumeration for the machine, and a prefix scan for its halting-sequence
proxy; the transformed machine, a tree walk, the pieces of the interval
table, the table's text form, the base machine's totality and a
child-by-child descent to the border prefix for the left-total transform;
and a per-input preimage count for the compiled transducer."""

from bisect import bisect_right
from typing import NamedTuple

from ait.codec import all_strings_upto, left_of
from ait.dyadic import Dyadic
from ait.leftward import IntervalTable, _grid_interval
from ait.machine import (
    ExecOutcome,
    MachineConfig,
    ProgramRecord,
    Status,
    get_enumeration,
)
from ait.monotone import DepthExceeded


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


def tiles(table: IntervalTable):
    """(record, lo, hi) per tile in position order, in grid units of 2^-L."""
    return zip(table.records, table._bounds, table._bounds[1:])


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


def _reach(b: str, pieces: list[Piece]) -> list[Piece]:
    return [p for p in pieces if left_of(p.program, b) or p.program.startswith(b)]


def bb_by_pieces(b: str, pieces: list[Piece]) -> int:
    """The longest output of the pieces left of b or extending b, with no
    totality gate."""
    return max((len(p.output) for p in _reach(b, pieces)), default=0)


def mass_by_pieces(b: str, x: str, pieces: list[Piece]) -> Dyadic:
    """The mass of the pieces left of b or extending b whose output is x."""
    return sum((Dyadic(1, len(p.program)) for p in _reach(b, pieces) if p.output == x),
               Dyadic.zero())


def omega_hat_by_pieces(b: str, pieces: list[Piece]) -> Dyadic:
    """The mass of the pieces strictly left of b."""
    return sum((Dyadic(1, len(p.program)) for p in pieces if left_of(p.program, b)),
               Dyadic.zero())


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
