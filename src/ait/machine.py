"""The reference prefix-free machine: on-demand input, an auxiliary
read-only tape, fuel-bounded deterministic execution, and the walk over
its halting programs.

Every measured constant in this package depends on the machine below, so its
definition is frozen bit-exactly here.

Opcode table (a complete prefix code; bits are read on demand, so the
machine's halting inputs form a prefix-free set by construction):

    0      EMIT_HALT   read a literal block, append it to the output, halt
    100    EMIT        read a literal block, append it, continue
    101    RAW8_HALT   read the next 8 input bits verbatim, append, halt
    110    POW_HALT    read a number block m, then a literal block y;
                       append y repeated m**m times (0 times when m = 0), halt;
                       a nonempty y with m > 15 never fits the fuel
    1110   COPY_N      read a number block k; copy k auxiliary data bits
                       (zero fill past the end of the aux string), continue
    11110  COPY_ALL    copy auxiliary data bits up to the sentinel, continue
    11111  HALT        halt with the output produced so far

Literal block: ``1^n 0 y`` with ``len(y) = n``.  Number block: a literal
block whose payload is read as a plain binary value (the empty payload is 0;
leading zeros are allowed and read as the same value, so the machine is total
on every bit stream).

Auxiliary tape: a finite aux string ``a`` is presented as one pair-cell per
data bit, ``(1, a[i])``, followed by an endless fill of sentinel cells
``(0, 0)`` — the readable encoding of an end marker followed by zero fill.
COPY_N appends the data bit of each cell read (so cells past the end yield
0 bits); COPY_ALL stops at, and consumes, the first sentinel cell.

Step accounting ("fuel"): one step per input bit consumed, per aux cell
read, per output bit appended, and per completed opcode dispatch.  The fuel
check precedes every step, so the outcome is a pure function of the program
prefix actually read, the aux string, and the fuel.  Each data cell read is
also an output bit appended, so a run within fuel F reads fewer than F/2 data
cells, and only the first F//2 + 1 aux bits are readable
(``MachineConfig.readable_aux_len``): the per-bounds store and the
boundary-graph searches work on that prefix.

One decoder, ``_effect``, states what each instruction does.  ``run`` and
the level-order walk ``search_programs`` both go through it one whole
instruction at a time: the output changes only when an instruction
completes, so the walk branches at instruction boundaries, never inside a
code.  The enumeration of the whole domain is that walk with nothing cut.

The decoder hands the walk its instructions in batches, ``batches``: one
per instruction shape and number, a head and the emitted bits of each
payload, whose codes are the head plus the payload's index.  An
instruction's steps depend on its payload's width alone, so one decoder
check serves the batch.  The walk keeps its open boundaries as states keyed
by (prefix length, aux position, steps), each holding the prefixes that
reach it and their outputs, and extends a state by a batch for all its
prefixes and payloads at once.  Past the aux end every position reads
alike, so the key holds the position capped at the aux length.

The walk writes its records into one ``Enumeration``: integer columns of
steps, of programs and of ids into the list of distinct outputs.  A program
p is held as the integer of "1" + p, which gives its length and sorts the
programs in (length, lex) order.  The walk holds every prefix in that form
from the root on, and each record is written once.  The interval table, the
halting proxy and the digest read the columns; reading a record builds a
``ProgramRecord`` on demand.  The boundary-graph searches run on a pattern
with free positions, so a whole cylinder is one search, and join store-form
edge codes into one program.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Optional

from . import codec
from .codec import self_delim_at, strings_of_length
from .dyadic import Dyadic

# ---------------------------------------------------------------------------
# configuration and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineConfig:
    """Desk-scale resource bounds: program length cap and step budget."""

    max_program_len: int
    fuel: int

    def __post_init__(self):
        if self.max_program_len < 1 or self.fuel < 1:
            raise ValueError("bounds must be at least 1")

    @property
    def readable_aux_len(self) -> int:
        """Every run within these bounds has the same outcome on an aux string
        and on its first ``fuel // 2 + 1`` bits.  A run reads fewer than
        fuel / 2 data cells, two steps apiece.  A COPY_N that reads past the
        cut, or a COPY_ALL that reaches the cut tape's sentinel, reads at least
        fuel // 2 + 1 data cells, and so needs more than ``fuel`` steps on
        either tape."""
        return self.fuel // 2 + 1


class Status(Enum):
    HALTED = "halted"
    OUT_OF_FUEL = "out-of-fuel"
    NEEDS_MORE_INPUT = "needs-more-input"


@dataclass(frozen=True)
class ExecOutcome:
    status: Status
    output: Optional[str] = None
    bits_read: Optional[int] = None
    steps: Optional[int] = None

    @property
    def halted(self) -> bool:
        return self.status is Status.HALTED


@dataclass(frozen=True, slots=True)
class ProgramRecord:
    """A minimal halting program with its output and convergence time.  The
    records of one walk share a single string object per distinct output."""

    program: str
    output: str
    steps: int


class Enumeration(Sequence):
    """The records of one walk as integer columns, sorted by (steps, program).

    Record k's program is ``bin(programs[k])[3:]``: the store holds each
    program p as the integer of "1" + p, so its length is
    ``programs[k].bit_length() - 1``, and the integers sort in (length, lex)
    order of the programs.  Its steps are ``steps[k]`` and its output
    ``outputs[ids[k]]``; ``outputs`` holds each distinct output once.  Each
    column is sized by ``_column`` from its bound: ``steps`` by the fuel,
    ``programs`` by 2^(L+1) - 1 and ``ids`` by the output count, so it is
    the narrowest unsigned ``array`` that holds the bound, or a list past
    64 bits.  Indexing, and the iteration and search that ``Sequence`` derives
    from it, build ``ProgramRecord``s on demand; a slice is an
    ``Enumeration`` over the same outputs, and ``+`` gives a list of records.
    """

    __slots__ = ("steps", "programs", "ids", "outputs")

    def __init__(self, steps, programs, ids: array, outputs: list[str]):
        self.steps, self.programs, self.ids, self.outputs = steps, programs, ids, outputs

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Enumeration(self.steps[k], self.programs[k], self.ids[k], self.outputs)
        return ProgramRecord(bin(self.programs[k])[3:], self.outputs[self.ids[k]], self.steps[k])

    def __add__(self, other) -> list[ProgramRecord]:
        return [*self, *other]

    def program(self, k: int) -> str:
        """Record k's program alone."""
        return bin(self.programs[k])[3:]

    def lines(self) -> Iterator[str]:
        """``program<TAB>output<TAB>steps`` per record."""
        outputs = self.outputs
        for p, i, steps in zip(self.programs, self.ids, self.steps):
            yield f"{bin(p)[3:]}\t{outputs[i]}\t{steps}\n"


_OPCODES = {
    "0": "EMIT_HALT",
    "100": "EMIT",
    "101": "RAW8_HALT",
    "110": "POW_HALT",
    "1110": "COPY_N",
    "11110": "COPY_ALL",
    "11111": "HALT",
}
_CODE = {name: code for code, name in _OPCODES.items()}
_OP = {name: int("1" + code, 2) for code, name in _OPCODES.items()}  # the store's form

_HALTING = frozenset({"EMIT_HALT", "RAW8_HALT", "POW_HALT", "HALT"})
_LITERAL = frozenset({"EMIT_HALT", "EMIT", "POW_HALT"})  # operands end in a literal block


def _block(head: int, n: int, v: int) -> int:
    """``head`` then the literal block of the n-bit payload v: 1^n 0 v."""
    return (head << n | (1 << n) - 1) << n + 1 | v


# ---------------------------------------------------------------------------
# the instruction decoder
# ---------------------------------------------------------------------------

def _effect(op: str, num: int, y: str, aux: str, a: int, left: int):
    """What the decoded instruction ``op`` does at aux position ``a`` with
    ``left`` steps to spare after its code bits and its dispatch: (emitted
    bits, next aux position, extra steps), or None when the extra steps
    exceed ``left``.

    ``num`` is the number block of POW_HALT and COPY_N; ``y`` is the literal
    of EMIT_HALT, EMIT and POW_HALT, the raw bits of RAW8_HALT, and empty
    otherwise.  Each output bit appended and each aux cell read is one extra
    step, and the cost is checked before any string is built.
    """
    if op == "COPY_N":
        if 2 * num > left:
            return None
        cells = aux[a:a + num]
        return cells + "0" * (num - len(cells)), a + num, 2 * num
    if op == "COPY_ALL":  # the data cells from a, then the sentinel
        rest = aux[a:]
        extra = 2 * len(rest) + 1
        return (rest, max(a, len(aux)) + 1, extra) if extra <= left else None
    if op == "POW_HALT":
        if not y or num == 0:
            return "", a, 0
        if num > 15 or len(y) * num ** num > left:  # 16**16 repeats exceed every fuel
            return None
        return y * num ** num, a, len(y) * num ** num
    return (y, a, len(y)) if len(y) <= left else None  # EMIT_HALT, EMIT, RAW8_HALT, HALT


def _decode(program: str, i: int):
    """The instruction whose code starts at program[i], as (op, num, y,
    index past its code).  The index is None when the program ends inside
    the code, and so is op when it ends inside the opcode."""
    j = i + 1
    while program[i:j] not in _OPCODES:  # a complete prefix code
        if j >= len(program):
            return None, 0, "", None
        j += 1
    op, num, y = _OPCODES[program[i:j]], 0, ""
    if op in ("POW_HALT", "COPY_N"):
        bits, j = self_delim_at(program, j)
        num = int(bits or "0", 2)
    if op == "RAW8_HALT":
        y, j = program[j:j + 8], j + 8
    elif op in _LITERAL:
        y, j = self_delim_at(program, j)
    return op, num, y, j if j <= len(program) else None


@lru_cache(maxsize=None)
def _shapes(c: int) -> tuple:
    """Every instruction layout whose code has exactly c bits, as (op, its
    opcode's integer, number-block width or None, payload width)."""
    shapes = []
    if c % 2 == 0:  # a literal block after a 1- or 3-bit opcode
        shapes.append(("EMIT_HALT", None, c // 2 - 1))
        if c >= 4:
            shapes.append(("EMIT", None, c // 2 - 2))
    elif c >= 5:
        s = (c - 5) // 2  # the payload bits of the operand blocks
        shapes += [("COPY_N", s, 0)] + [("POW_HALT", u, s - u) for u in range(s + 1)]
        if c == 5:
            shapes += [("COPY_ALL", None, 0), ("HALT", None, 0)]
        if c == 11:
            shapes.append(("RAW8_HALT", None, 8))
    return tuple((op, int(_CODE[op], 2), u, j) for op, u, j in shapes)


@lru_cache(maxsize=None)
def _payloads(j: int) -> tuple:
    """The j-bit strings in lexicographic order: payload v is the v-th."""
    return tuple(strings_of_length(j))


def batches(aux: str, fuel: int, a: int, steps: int, c: int):
    """Every instruction whose code has exactly ``c`` bits and that runs
    within ``fuel`` from aux position ``a`` after ``steps`` steps, one batch
    per instruction shape and number: (head, emitted bits per payload, next
    aux position or None after a halt, steps after).  The batch's codes are
    ``head | v`` for each index v of the emitted bits, the c-bit integers of
    the codes whose payload is the v-th string of its width.

    The extra steps of an instruction depend on its payload's width, not on
    its bits, so one ``_effect`` on a stand-in payload of zeros stands for
    the batch, and the payloads are listed only for a batch that fits."""
    left = fuel - steps - c - 1  # the code's bits and the dispatch come first
    if left < 0:
        return
    for op, opcode, u, j in _shapes(c):
        # the bits after the number block: a literal block's header of j
        # ones and a zero, then the payload
        tail, ones = (2 * j + 1, ((1 << j) - 1) << j + 1) if op in _LITERAL else (j, 0)
        for num in range(1 << u) if u is not None else (0,):
            effect = _effect(op, num, "0" * j, aux, a, left)
            if effect is None:
                break  # the extra steps never fall as the number grows
            emitted, after, extra = effect
            if not j:  # COPY_N, COPY_ALL, HALT and the empty literals
                emitted = (emitted,)
            else:  # each payload repeated as often as the stand-in is
                repeats = len(emitted) // j
                emitted = _payloads(j) if repeats == 1 else [y * repeats for y in _payloads(j)]
            head = opcode  # then the number block, leading zeros and all
            if u is not None:
                head = head << 2 * u + 1 | ((1 << u) - 1) << u + 1 | num
            yield (head << tail | ones, emitted, None if op in _HALTING else after,
                   steps + c + 1 + extra)


# ---------------------------------------------------------------------------
# running single programs
# ---------------------------------------------------------------------------

def run(program: str, aux: str, fuel: int) -> ExecOutcome:
    """Execute ``program`` left to right, one decoded instruction at a time.

    If the machine halts after consuming k <= len(program) bits, the outcome
    is Halted with bits_read = k: every extension of the consumed prefix
    yields the same outcome, and no proper prefix of it halts, so the domain
    of minimal programs is prefix-free by construction.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    output, i, a, steps = "", 0, 0, 0
    while i < len(program):
        op, num, y, end = _decode(program, i)
        if end is None:
            # the program ends inside this instruction: its bits there are
            # read, and the dispatch is taken once the opcode is complete
            if steps + len(program) - i + (op is not None) > fuel:
                return ExecOutcome(Status.OUT_OF_FUEL)
            break
        steps += end - i + 1  # the code's bits and the dispatch
        effect = _effect(op, num, y, aux, a, fuel - steps) if steps <= fuel else None
        if effect is None:
            return ExecOutcome(Status.OUT_OF_FUEL)
        emitted, a, extra = effect
        output += emitted
        steps += extra
        if op in _HALTING:
            return ExecOutcome(Status.HALTED, output, end, steps)
        i = end
    return ExecOutcome(Status.NEEDS_MORE_INPUT)


# ---------------------------------------------------------------------------
# exhaustive enumeration of the fuel-bounded domain
# ---------------------------------------------------------------------------

def enumerate_halting(cfg: MachineConfig, aux: str = "") -> Enumeration:
    """All minimal halting programs with len <= L and steps <= fuel.

    The level-order walk of ``search_programs`` with no state callback, so
    every output is complete, and no cutoff.  Sorted by (convergence time,
    lexicographic program) ascending; ties in convergence time are broken
    lexicographically so enumeration order is a total deterministic order.
    """
    return search_programs(cfg, aux)


# ---------------------------------------------------------------------------
# the per-bounds store
# ---------------------------------------------------------------------------

_BUILT: dict[tuple[str, int, int, str], object] = {}


def per_bounds(kind: str, build: Callable[[MachineConfig, str], object],
               cfg: MachineConfig, aux: str = ""):
    """The ``kind`` of object built once per bounds and readable aux prefix:
    ``build(cfg, aux[:cfg.readable_aux_len])`` on the first call, the same
    object after.  Callers pass ``build`` by its module attribute at call
    time, so a wrapper rebound there sees each build."""
    aux = aux[:cfg.readable_aux_len]
    key = (kind, cfg.max_program_len, cfg.fuel, aux)
    built = _BUILT.get(key)
    if built is None:
        built = _BUILT[key] = build(cfg, aux)
    return built


def is_built(kind: str, cfg: MachineConfig, aux: str = "") -> bool:
    """Whether ``per_bounds`` holds the ``kind`` for these bounds and aux."""
    return (kind, cfg.max_program_len, cfg.fuel, aux[:cfg.readable_aux_len]) in _BUILT


def get_enumeration(cfg: MachineConfig, aux: str = "") -> Enumeration:
    """The enumeration, built once per bounds and readable aux prefix."""
    return per_bounds("enumeration", enumerate_halting, cfg, aux)


def kraft_sum(records: Iterable[ProgramRecord]) -> Dyadic:
    return codec.kraft_sum(r.program for r in records)


# ---------------------------------------------------------------------------
# the level-order walk over instruction boundaries
# ---------------------------------------------------------------------------

def search_programs(
    cfg: MachineConfig,
    aux: str,
    state: Optional[Callable[[str], str]] = None,
    *,
    cutoff: Optional[Callable[[ProgramRecord], int]] = None,
) -> Enumeration:
    """Every minimal halting program within bounds whose output is complete,
    sorted by (steps, program).

    ``state(out)`` answers "dead", "viable" or "complete" for an output.  The
    walk asks it once on the empty output and once on the output after each
    instruction it expands, save a continuing one on the last level it
    reads.  A dead output prunes its branch, so once an output is dead every
    extension of it must be dead too (output only ever grows); a halting
    program is recorded when its output is complete.  With no ``state``
    every output is complete.

    The walk goes in level order: every program of length n before any of
    length n + 1.  Its open instruction boundaries are states keyed by
    (prefix length, aux position, steps), the position capped at len(aux):
    past the aux end COPY_N reads zeros and COPY_ALL the one sentinel cell
    wherever it starts.  Each state holds its prefixes p, as the
    integer of "1" + p, the store's form, with the root at 1, and their
    outputs.  At level n a state of p-bit prefixes takes the ``batches`` of
    codes with exactly n - p bits, each once: a batch's continuations join
    one state, and its records share their steps.  ``cutoff(record)`` is
    called on each program as it is recorded, level by level but not
    lexicographically within a level, and no level longer than the least
    value it has returned is started; only the records found up to there
    are returned.
    """
    fuel, L, end = cfg.fuel, cfg.max_program_len, len(aux)
    width = L.bit_length()
    # per record, a key that sorts as (steps, program): the steps, the
    # program in the store's form padded with zeros to L + 1 bits, L less
    # its length, and 32 bits of output id
    found: list[int] = []
    ids: dict[str, int] = {}  # each output's id, in order of arrival
    # (prefix length, aux position, steps) -> (prefixes, their outputs), in
    # two parallel lists
    boundaries = {} if state is not None and state("") == "dead" else {(0, 0, 0): ([1], [""])}
    limit, n = L, 0
    while boundaries and n < limit:
        n += 1
        reached: dict = {}
        for (p, a, steps), (prefixes, outs) in boundaries.items():
            c = n - p
            for head, emitted, after, spent in batches(aux, fuel, a, steps, c):
                if after is not None and n >= limit:
                    continue  # no level reads the last level's boundaries
                values = [prefix << c | head for prefix in prefixes]
                if len(emitted) > 1:
                    values = [q | v for q in values for v in range(len(emitted))]
                outputs = [out + e for out in outs for e in emitted]
                if state is not None:
                    kinds = map(state, outputs)
                    keep = ([kind != "dead" for kind in kinds] if after is not None
                            else [kind == "complete" for kind in kinds])
                    values, outputs = list(compress(values, keep)), list(compress(outputs, keep))
                    if not values:
                        continue
                if after is not None:
                    key = n, min(after, end), spent
                    into = reached.get(key)
                    if into is None:
                        reached[key] = values, outputs
                    else:
                        into[0].extend(values)
                        into[1].extend(outputs)
                    continue
                base = spent << L + 1 + width + 32 | L - n << 32
                shift = L - n + width + 32
                found += [base | value << shift | ids.setdefault(output, len(ids))
                          for value, output in zip(values, outputs)]
                if cutoff is not None:
                    for value, output in zip(values, outputs):
                        limit = min(limit, cutoff(ProgramRecord(bin(value)[3:], output, spent)))
        # a boundary stays open while a code one bit longer still fits
        boundaries = {key: members for key, members in (*boundaries.items(), *reached.items())
                      if key[2] + (n + 1 - key[0]) + 1 <= fuel}
    outputs = list(ids)
    found.sort()
    mask, low = (2 << L) - 1, (1 << width) - 1
    # "1" + the program, shifted right by L less its length
    programs = ((k >> 32 + width & mask) >> (k >> 32 & low) for k in found)
    return Enumeration(_column((k >> 33 + width + L for k in found), fuel),
                       _column(programs, mask),
                       _column((k & 0xFFFFFFFF for k in found), len(outputs)), outputs)


def _column(values: Iterable[int], most: int):
    """``values``, none above ``most``, in the narrowest unsigned array of
    16, 32 or 64 bits that holds ``most``, or in a list past 64 bits.  Every
    integer column of the store and of the interval table is sized by it,
    from the largest value its bounds allow."""
    for code in "HIQ":
        if most < 1 << 8 * array(code).itemsize:
            return array(code, values)
    return list(values)


# ---------------------------------------------------------------------------
# the boundary graph: programs for one output are paths between instruction
# boundaries
# ---------------------------------------------------------------------------

# POW_HALT with each count whose repeats can fit the fuel (see _effect):
# the opcode and the count's shortest number block, and the repeat count
_POW_HEADS = [(_block(_OP["POW_HALT"], m.bit_length(), m), m ** m) for m in range(1, 16)]


def split_pattern(member: str) -> tuple[str, int]:
    """A member with ``?`` at free positions as (x, free): x, its lex-least
    string, has 0 there, and ``free`` masks them in ``int(x, 2)``."""
    return member.replace("?", "0"), int(member.replace("1", "0").replace("?", "1") or "0", 2)


def _fold(v: int, zeros: int, n: int, j: int) -> Optional[int]:
    """The least j-bit y whose repeats agree with an n-bit window, v its fixed
    ones and ``zeros`` its fixed zeros, or None where they clash: halves are
    ORed together until the chunks, a partial last one padded, fold onto j bits."""
    pad = -n % j
    v, zeros, k = v << pad, zeros << pad, (n + pad) // j
    while k > 1:
        h = (k + 1) // 2  # fold the top k - h chunks onto the low h
        low = (1 << j * h) - 1
        v, zeros, k = v >> j * h | v & low, zeros >> j * h | zeros & low, h
    return None if v & zeros else v


def _target_edges(x: str, free: int, aux: str, o: int, a: int, room: int):
    """The instructions that may follow the boundary (o, a) in a least
    program for a string of the pattern (x, free), with codes of at most
    ``room`` bits, as (code, next boundary or None after a halt, code
    length + extra steps).

    At a boundary the output agrees with the pattern's first o bits and a =
    min(aux position, len(aux)).  Literal payloads take x's bits, the least
    that agree, and every count takes its shortest number block.  EMIT of
    the empty literal, COPY_N 0 and COPY_ALL on the sentinel leave the
    boundary as it was, so no least program uses them, and at o = len(x)
    the two-bit empty-literal halt beats every other halt.  An instruction's
    extra steps are its dispatch and the aux cells it reads."""
    n, rest, v = len(aux), len(x) - o, int(x[o:] or "0", 2)  # x[o:o + j] is v >> rest - j
    keep = (1 << rest) - 1 & ~free  # the fixed bits of x[o:]
    if 2 * rest + 2 <= room:
        yield _block(_OP["EMIT_HALT"], rest, v), None, 2 * rest + 3
    if rest == 8 and 11 <= room:
        yield _OP["RAW8_HALT"] << 8 | v, None, 12
    for head, reps in _POW_HEADS:
        if reps > rest:
            break
        j = rest // reps
        c = head.bit_length() + 2 * j  # the head's bits and a literal block
        if c <= room and j * reps == rest and (y := _fold(v, keep ^ v, rest, j)) is not None:
            yield _block(head, j, y), None, c + 1
    room -= 2  # a continuing instruction leaves room for the shortest halt
    for j in range(1, min(rest, (room - 4) // 2) + 1):
        yield _block(_OP["EMIT"], j, v >> rest - j), (o + j, a), 2 * j + 5
    k = 0  # COPY_N k needs the k cells from a to agree with the pattern
    while k < rest and ((aux[a + k] if a + k < n else "0") == x[o + k]
                        or free >> rest - 1 - k & 1):
        k += 1
        c = 2 * k.bit_length() + 5
        if c > room:
            break
        yield _block(_OP["COPY_N"], k.bit_length(), k), (o + k, min(a + k, n)), c + 1 + k
    w = n - a  # the 5-bit COPY_ALL reads the w data cells left and the sentinel
    if 0 < w <= rest and 5 <= room and not (int(aux[a:], 2) ^ v >> rest - w) & keep >> rest - w:
        yield _OP["COPY_ALL"], (o + w, n), 6 + w + 1


def _extending_edges(x: str, free: int, aux: str, o: int, a: int, room: int):
    """The ``_target_edges`` of a least program whose output extends a string
    of the pattern, and the instructions past the end of x that can still be
    least, each adding its output bits past x to its weight: RAW8_HALT of
    x[o:] padded with zeros; POW_HALT of the shortest, then least, y whose
    repeats run past x[o:] and agree with the pattern; and COPY_ALL of an
    agreeing aux rest, to the boundary (len(x), len(aux)), where the
    empty-literal halt follows.  EMIT_HALT or EMIT past the end loses to
    EMIT_HALT x[o:], and COPY_N past the end to COPY_N len(x) - o and that halt."""
    yield from _target_edges(x, free, aux, o, a, room)
    n, rest, v = len(aux), len(x) - o, int(x[o:] or "0", 2)
    keep = (1 << rest) - 1 & ~free
    if rest < 8 and 11 <= room:
        yield _OP["RAW8_HALT"] << 8 | v << 8 - rest, None, 12 + 8 - rest
    for head, reps in _POW_HEADS if rest else ():
        for j in range(-(-rest // reps), min(rest, (room - head.bit_length()) // 2) + 1):
            if (y := _fold(v, keep ^ v, rest, j)) is not None:
                if j * reps > rest:  # j * reps == rest is a _target_edges halt
                    c = head.bit_length() + 2 * j
                    yield _block(head, j, y), None, c + 1 + j * reps - rest
                break
    if n - a > rest and 5 <= room - 2 and not (int(aux[a:a + rest] or "0", 2) ^ v) & keep:
        yield _OP["COPY_ALL"], (len(x), n), 6 + n - a + 1 + n - a - rest


def _count_edges(x: str, aux: str, o: int, a: int, room: int, target: list):
    """Every instruction that may follow the boundary (o, a) in a program for
    exactly x, with codes of at most ``room`` bits, as (code length, next
    boundary or None after a halt, code length + extra steps, number of
    codes).

    ``target`` holds the boundary's ``_target_edges`` within ``room``.
    Besides those, each number block also takes leading zeros, two bits more
    apiece; EMIT of the empty literal, COPY_N 0 at every width and COPY_ALL
    on the sentinel loop on the boundary; and at o = len(x) the program may
    also HALT, or halt by POW_HALT with the empty literal and any u-bit count
    (2^u codes) or by POW_HALT 0 with any j-bit literal (2^j codes).
    """
    s = (o, a)
    for code, t, w in target:
        c = top = code.bit_length() - 1
        if c >= 5 and (code >> c - 3 == _OP["POW_HALT"] or code >> c - 4 == _OP["COPY_N"]):
            top = room if t is None else room - 2
        for extra in range(0, top - c + 1, 2):
            yield c + extra, t, w + extra, 1
    yield 4, s, 5, 1
    for c in range(5, room - 1, 2):
        yield c, s, c + 1, 1
    if a == len(aux):
        yield 5, s, 7, 1  # the sentinel cell is read
    if o == len(x):
        for c in range(5, room + 1, 2):  # 3 opcode bits and a (c - 5) / 2-bit count
            yield c, None, c + 1, 1 << (c - 5) // 2
            for j in range(1, (room - c) // 2 + 1):
                yield c + 2 * j, None, c + 2 * j + 1, 1 << j
        if room >= 5:
            yield 5, None, 6, 1


def _boundaries(x: str, free: int, aux: str, L: int, edges):
    """The boundaries reachable within L bits, with the least prefix length
    of each, and the list of ``edges`` out of each within its room, L minus
    that prefix length, keyed in topological (o, a) order."""
    root = (0, 0)
    heap, prefix, out = [root], {root: 0}, {}
    # (o, a) grows along every continuing edge, so heap order is topological
    # and a boundary's prefix length is final when it is popped
    while heap:
        s = heapq.heappop(heap)
        out[s] = list(edges(x, free, aux, *s, L - prefix[s]))
        for code, t, _w in out[s]:
            d = prefix[s] + code.bit_length() - 1
            if t is not None and d < prefix.get(t, L + 1):
                if t not in prefix:
                    heapq.heappush(heap, t)
                prefix[t] = d
    return prefix, out


def min_program_for_output(x: str, cfg: MachineConfig, aux: str = "") -> Optional[ProgramRecord]:
    """The (length, lex)-least program computing exactly x, or None.

    A least-path dynamic program over the instruction boundaries of
    ``_target_edges``.  A halting program takes len(program) + len(x) steps
    plus its instructions' extra steps, so the fuel bounds the path weight,
    the sum of code lengths and extra steps, by fuel - len(x).  The codes
    out of one boundary are prefix-free, so among suffixes of one length the
    first instruction decides the lex order.

    The search runs within min(L, 2 len(x) + 2) bits, the length of
    EMIT_HALT x, the literal halt out of the root (see ``_least_path``).  A
    forward pass lists the boundaries reachable within those bits and the
    edges out of each, once.  A backward pass, in decreasing output length,
    keeps the Pareto front of each boundary's suffixes that fit within them:
    the least path weight at each length where it falls.  The program length
    is the least length at the root whose weight fits the budget, and a
    forward walk takes at each boundary the lex-least first code that can
    still finish within both the bits and the budget left.
    """
    path = _least_path(x, 0, cfg, aux[:cfg.readable_aux_len], _target_edges)
    return path and ProgramRecord(bin(path[0])[3:], x, path[1])


def _least_path(x: str, free: int, cfg: MachineConfig, aux: str, edges) -> Optional[tuple]:
    """The least path over the ``edges`` of (x, free): (program in the store's form, steps).

    The room is min(L, 2 len(x) + 2): both edge kinds yield EMIT_HALT x at
    the root, 2 len(x) + 2 bits of weight 2 len(x) + 3, and x is a string of
    the pattern.  Every edge weighs at least its code length and a dispatch,
    so a path weighs more than its length.  If the literal fits the budget,
    no least path is longer; if it does not, no longer path fits either.
    So the cap changes no answer, and it needs no budget test."""
    L, budget = min(cfg.max_program_len, 2 * len(x) + 2), cfg.fuel - len(x)
    prefix, out = _boundaries(x, free, aux, L, edges)
    # boundary -> the Pareto front of its suffixes within its room: (length,
    # path weight) pairs by increasing length with strictly falling weight.
    # A halt leads to None, whose one suffix is empty.
    front: dict = {None: [(0, 0)]}
    for s in reversed(out):
        room = L - prefix[s]
        lightest: dict = {}  # suffix length -> least path weight
        for code, t, w in out[s]:
            c = code.bit_length() - 1
            for n, v in front[t]:
                n += c
                if n > room:
                    break
                lightest[n] = min(lightest.get(n, w + v), w + v)
        front[s] = row = []
        for n in sorted(lightest):
            if not row or lightest[n] < row[-1][1]:
                row.append((n, lightest[n]))

    root = (0, 0)
    length = next((n for n, v in front[root] if v <= budget), None)
    if length is None:
        return None

    # no program shorter than `length` fits the budget, so a suffix that fits
    # within both the bits and the budget left takes exactly the bits left
    def fits(code, t, w):
        return any(code.bit_length() - 1 + n <= left and w + v <= budget - spent
                   for n, v in front[t])

    # codes aligned at L + 1 bits (a root code may have L) compare as their bits
    program, s, left, spent = 1, root, length, 0
    while s is not None:
        code, s, w = min((e for e in out[s] if fits(*e)),
                         key=lambda e: e[0] << L + 1 - e[0].bit_length())
        c = code.bit_length() - 1
        program = program << c | (code ^ 1 << c)
        left -= c
        spent += w
    return program, len(x) + spent


def mass_for_output(x: str, cfg: MachineConfig, aux: str = "") -> Dyadic:
    """The exact mass, sum 2^-len(p), of the programs p within bounds that
    compute exactly x.

    A path count over the boundaries of ``min_program_for_output``, taken in
    decreasing output length.  Each boundary counts its suffixes by code
    length, up to its room, and by path weight, up to fuel - len(x), over
    every encoding of ``_count_edges``.  Its self-loops are at least four
    bits long, so they close in increasing length.

    Unlike the least-path searches, this one keeps the full room L: the mass
    counts every program up to L bits, not only the least one, and programs
    longer than the literal EMIT_HALT x add to it.
    """
    L, budget = cfg.max_program_len, cfg.fuel - len(x)
    aux = aux[:cfg.readable_aux_len]
    prefix, out = _boundaries(x, 0, aux, L, _target_edges)
    counts: dict = {}  # boundary -> per suffix length, {path weight: suffixes}
    for s in reversed(out):
        room = L - prefix[s]
        rows: list[dict] = [{} for _ in range(room + 1)]
        loops = []
        for c, t, w, k in _count_edges(x, aux, *s, room, out[s]):
            if t == s:
                loops.append((c, w, k))
            elif t is None:
                _add_shifted(rows[c], {0: 1}, w, k, budget)
            else:
                for length, row in enumerate(counts[t][:room - c + 1], c):
                    _add_shifted(rows[length], row, w, k, budget)
        for length, row in enumerate(rows):
            for c, w, k in loops:
                if c <= length:
                    _add_shifted(row, rows[length - c], w, k, budget)
        counts[s] = rows
    total = sum(n << (L - length) for length, row in enumerate(counts[(0, 0)])
                for n in row.values())
    return Dyadic(total, L)


def _add_shifted(row: dict, source: dict, w: int, k: int, budget: int) -> None:
    """row += k * source, with every path weight raised by w, within budget."""
    for v, n in source.items():
        if v + w <= budget:
            row[v + w] = row.get(v + w, 0) + k * n


def min_program_with_prefix_in(members: Iterable[str], cfg: MachineConfig,
                               aux: str = "") -> Optional[ProgramRecord]:
    """The (length, lex)-least program whose output extends a member, ``?``
    marking free positions: the least of their ``_extending_edges`` paths.

    Each member's search runs within min(L, 2 len(x) + 2) bits, x its
    lex-least string: EMIT_HALT x is one of its paths, and every edge weighs
    at least its code length and a dispatch, so no least path runs past it
    (see ``_least_path``)."""
    aux = aux[:cfg.readable_aux_len]
    paths = (_least_path(*split_pattern(m), cfg, aux, _extending_edges) for m in members)
    best = min((path[0] for path in paths if path is not None), default=None)
    if best is None:
        return None
    out = run(program := bin(best)[3:], aux, cfg.fuel)  # it may run past the member
    return ProgramRecord(program, out.output, out.steps)


# ---------------------------------------------------------------------------
# enumeration digest (the fixture hash every report carries)
# ---------------------------------------------------------------------------

def cache_digest(records: Iterable[ProgramRecord]) -> str:
    """sha256 of one ``program<TAB>output<TAB>steps`` line per record, fed
    in chunks of 4096 lines; an Enumeration writes its lines from its
    columns."""
    # imported here: loading hashlib's OpenSSL module takes about 4 ms on a
    # 2-vCPU VM, which only the commands that hash should pay
    import hashlib

    digest = hashlib.sha256()
    if isinstance(records, Enumeration):
        lines = records.lines()
    else:
        lines = (f"{r.program}\t{r.output}\t{r.steps}\n" for r in records)
    while chunk := "".join(islice(lines, 4096)):
        digest.update(chunk.encode("ascii"))
    return digest.hexdigest()
