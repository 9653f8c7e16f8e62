"""The reference prefix-free machine: on-demand input, an auxiliary
read-only tape, fuel-bounded deterministic execution, and the enumerators
of its halting programs.

Every measured constant in this package depends on the machine below, so its
definition is frozen bit-exactly here.

Opcode table (a complete prefix code; bits are read on demand, so the
machine's halting inputs form a prefix-free set by construction):

    0      EMIT_HALT   read a literal block, append it to the output, halt
    100    EMIT        read a literal block, append it, continue
    101    RAW8_HALT   read the next 8 input bits verbatim, append, halt
    110    POW_HALT    read a number block m, then a literal block y;
                       append y repeated m**m times (0 times when m = 0), halt
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
prefix actually read, the aux string, and the fuel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .dyadic import Dyadic, dyadic_sum

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


@dataclass(frozen=True)
class ProgramRecord:
    """A minimal halting program with its output and convergence time."""

    program: str
    output: str
    steps: int
    aux: str


# fixture located by exhaustive enumeration at L=16, t=4096: the shortest
# program emitting the empty string is EMIT_HALT with an empty literal.
P_EPSILON = "00"

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

# phases of the operand reader
_PH_OPCODE = 0
_PH_UNARY = 1
_PH_PAYLOAD = 2
_PH_RAW = 3

# terminal / non-input internal states
_RUNNING = 0
_NEED_INPUT = 1
_HALTED = 2
_OUT_OF_FUEL = 3

_HUGE = object()  # repeat count certainly exceeding any desk-scale fuel


def _pow_reps(m: int):
    """m**m with a cutoff: anything at least 2**64 behaves as 'never within fuel'."""
    if m == 0:
        return 0
    if m > 15:
        return _HUGE
    return m ** m


class _Cpu:
    """Resumable interpreter state; ``feed`` consumes exactly one input bit."""

    __slots__ = (
        "aux", "fuel", "steps", "bits_read", "state", "phase", "opbuf",
        "op", "block", "unary", "need", "paybuf", "num_val", "pieces",
        "out_len", "aux_pos", "copy_left",
    )

    def __init__(self, aux: str, fuel: int):
        self.aux = aux
        self.fuel = fuel
        self.steps = 0
        self.bits_read = 0
        self.state = _NEED_INPUT  # every opcode starts by reading a bit
        self.phase = _PH_OPCODE
        self.opbuf = ""
        self.op = ""
        self.block = 0
        self.unary = 0
        self.need = 0
        self.paybuf: list[str] = []
        self.num_val = 0
        self.pieces: list[str] = []
        self.out_len = 0
        self.aux_pos = 0
        self.copy_left = 0

    def copy(self) -> "_Cpu":
        c = _Cpu.__new__(_Cpu)
        c.aux = self.aux
        c.fuel = self.fuel
        c.steps = self.steps
        c.bits_read = self.bits_read
        c.state = self.state
        c.phase = self.phase
        c.opbuf = self.opbuf
        c.op = self.op
        c.block = self.block
        c.unary = self.unary
        c.need = self.need
        c.paybuf = self.paybuf[:]
        c.num_val = self.num_val
        c.pieces = self.pieces[:]
        c.out_len = self.out_len
        c.aux_pos = self.aux_pos
        c.copy_left = self.copy_left
        return c

    @property
    def output(self) -> str:
        return "".join(self.pieces)

    # -- step helpers ---------------------------------------------------

    def _charge(self) -> bool:
        """Spend one fuel unit; False means the budget just ran out."""
        if self.steps >= self.fuel:
            self.state = _OUT_OF_FUEL
            return False
        self.steps += 1
        return True

    def _emit_run(self, pattern: str, reps) -> bool:
        """Append pattern repeated reps times, one step per bit; False on fuel out."""
        if not pattern:
            return True
        budget = self.fuel - self.steps
        total = None if reps is _HUGE else len(pattern) * reps
        if total is not None and total <= budget:
            self.pieces.append(pattern * reps)
            self.out_len += total
            self.steps += total
            return True
        whole, part = divmod(budget, len(pattern))
        self.pieces.append(pattern * whole + pattern[:part])
        self.out_len += budget
        self.steps = self.fuel
        self.state = _OUT_OF_FUEL
        return False

    def _aux_cell(self) -> tuple[int, str]:
        i = self.aux_pos
        self.aux_pos += 1
        if i < len(self.aux):
            return 1, self.aux[i]
        return 0, "0"

    # -- instruction completion ------------------------------------------

    def _begin_operands(self):
        op = self.op
        if op == "HALT":
            self.state = _HALTED
        elif op == "COPY_ALL":
            self._run_copy_all()
        elif op == "RAW8_HALT":
            self.phase = _PH_RAW
            self.need = 8
            self.paybuf = []
        else:  # EMIT_HALT, EMIT, POW_HALT, COPY_N: a unary-headed block follows
            self.phase = _PH_UNARY
            self.unary = 0
            self.block = 0

    def _block_done(self, payload: str):
        op = self.op
        if op in ("EMIT_HALT", "RAW8_HALT"):
            if self._emit_run(payload, 1):
                self.state = _HALTED
        elif op == "EMIT":
            if self._emit_run(payload, 1):
                self.phase = _PH_OPCODE
                self.opbuf = ""
        elif op == "POW_HALT":
            if self.block == 0:
                self.num_val = int(payload, 2) if payload else 0
                self.block = 1
                self.phase = _PH_UNARY
                self.unary = 0
            else:
                if self._emit_run(payload, _pow_reps(self.num_val)):
                    self.state = _HALTED
        elif op == "COPY_N":
            self.num_val = int(payload, 2) if payload else 0
            self._run_copy_n()

    def _run_copy_n(self):
        while self.copy_left or self.num_val:
            if self.copy_left == 0:
                self.copy_left = self.num_val
                self.num_val = 0
            if not self._charge():  # read one aux cell
                return
            _, bit = self._aux_cell()
            if not self._charge():  # append its data bit
                return
            self.pieces.append(bit)
            self.out_len += 1
            self.copy_left -= 1
        self.phase = _PH_OPCODE
        self.opbuf = ""

    def _run_copy_all(self):
        while True:
            if not self._charge():
                return
            flag, bit = self._aux_cell()
            if flag == 0:
                self.phase = _PH_OPCODE
                self.opbuf = ""
                return
            if not self._charge():
                return
            self.pieces.append(bit)
            self.out_len += 1

    # -- the input feed ----------------------------------------------------

    def feed(self, bit: str) -> int:
        """Consume one input bit and run ahead; returns the resulting state."""
        if self.state != _NEED_INPUT:
            raise RuntimeError("machine is not waiting for input")
        if not self._charge():
            return self.state
        self.bits_read += 1
        self.state = _RUNNING

        if self.phase == _PH_OPCODE:
            self.opbuf += bit
            # the table is a complete prefix code, so opbuf is always a
            # codeword or a proper prefix of one
            if self.opbuf in _OPCODES:
                if self._charge():  # opcode dispatch
                    self.op = _OPCODES[self.opbuf]
                    self._begin_operands()
        elif self.phase == _PH_UNARY:
            if bit == "1":
                self.unary += 1
            else:
                self.need = self.unary
                self.paybuf = []
                if self.need == 0:
                    self._block_done("")
                else:
                    self.phase = _PH_PAYLOAD
        elif self.phase in (_PH_PAYLOAD, _PH_RAW):
            self.paybuf.append(bit)
            self.need -= 1
            if self.need == 0:
                self._block_done("".join(self.paybuf))

        if self.state == _RUNNING:
            self.state = _NEED_INPUT
        return self.state


# ---------------------------------------------------------------------------
# running single programs
# ---------------------------------------------------------------------------

def run(program: str, aux: str = "", fuel: int = 2048) -> ExecOutcome:
    """Execute ``program`` left to right with on-demand reading.

    If the machine halts after consuming k <= len(program) bits, the outcome
    is Halted with bits_read = k: every extension of the consumed prefix
    yields the same outcome, and no proper prefix of it halts, so the domain
    of minimal programs is prefix-free by construction.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    cpu = _Cpu(aux, fuel)
    i = 0
    while cpu.state == _NEED_INPUT and i < len(program):
        cpu.feed(program[i])
        i += 1
    if cpu.state == _HALTED:
        return ExecOutcome(Status.HALTED, cpu.output, cpu.bits_read, cpu.steps)
    if cpu.state == _OUT_OF_FUEL:
        return ExecOutcome(Status.OUT_OF_FUEL)
    return ExecOutcome(Status.NEEDS_MORE_INPUT)


# ---------------------------------------------------------------------------
# exhaustive enumeration of the fuel-bounded domain
# ---------------------------------------------------------------------------

def enumerate_halting(cfg: MachineConfig, aux: str = "") -> list[ProgramRecord]:
    """All minimal halting programs with len <= L and steps <= fuel.

    Sorted by (convergence time, lexicographic program) ascending; ties in
    convergence time are broken lexicographically so enumeration order is a
    total deterministic order.
    """
    records: list[ProgramRecord] = []
    root = _Cpu(aux, cfg.fuel)
    stack: list[tuple[str, _Cpu]] = [("", root)]
    while stack:
        prefix, cpu = stack.pop()
        if len(prefix) >= cfg.max_program_len:
            continue
        for bit in ("1", "0"):
            child = cpu.copy() if bit == "1" else cpu
            state = child.feed(bit)
            program = prefix + bit
            if state == _HALTED:
                records.append(ProgramRecord(program, child.output, child.steps, aux))
            elif state == _NEED_INPUT:
                stack.append((program, child))
    records.sort(key=lambda r: (r.steps, r.program))
    return records


_ENUM_CACHE: dict[tuple[int, int, str], list[ProgramRecord]] = {}


def get_enumeration(cfg: MachineConfig, aux: str = "") -> list[ProgramRecord]:
    key = (cfg.max_program_len, cfg.fuel, aux)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = enumerate_halting(cfg, aux)
    return _ENUM_CACHE[key]


_INDEX_CACHE: dict[tuple[int, int, str], dict[str, tuple[ProgramRecord, Dyadic]]] = {}


def get_output_index(cfg: MachineConfig, aux: str = "") -> dict[str, tuple[ProgramRecord, Dyadic]]:
    """Per reachable output of the cached enumeration: its (length, lex)-least
    program and the exact total mass sum 2^-len of all its programs.  Outputs
    appear in the order of their first record in the enumeration."""
    key = (cfg.max_program_len, cfg.fuel, aux)
    if key not in _INDEX_CACHE:
        L = cfg.max_program_len
        least: dict[str, ProgramRecord] = {}
        weight: dict[str, int] = {}  # mass in units of 2^-L
        for rec in get_enumeration(cfg, aux):
            x, n = rec.output, len(rec.program)
            best = least.get(x)
            if best is None or (n, rec.program) < (len(best.program), best.program):
                least[x] = rec
            weight[x] = weight.get(x, 0) + (1 << (L - n))
        _INDEX_CACHE[key] = {x: (rec, Dyadic(weight[x], L)) for x, rec in least.items()}
    return _INDEX_CACHE[key]


def kraft_sum(records: Iterable[ProgramRecord]) -> Dyadic:
    return dyadic_sum(Dyadic(1, len(r.program)) for r in records)


# ---------------------------------------------------------------------------
# the output-pruned level-order walk (equivalent to filtering the full
# enumeration)
# ---------------------------------------------------------------------------

def search_programs(
    cfg: MachineConfig,
    aux: str,
    viable: Callable[[str], bool],
    accept: Callable[[str], bool],
    *,
    cutoff: Optional[Callable[[ProgramRecord], int]] = None,
) -> list[ProgramRecord]:
    """Every minimal halting program within bounds whose output is accepted,
    sorted by (steps, program) like the enumeration.

    The walk keeps only branches whose output stays viable.  ``viable(out)``
    must be monotone: once false it stays false for every extension of the
    output (output only ever grows).  ``accept(out)`` classifies a halting
    output.

    The walk goes in level order: every program of length n before any of
    length n + 1, lexicographically within a level.  ``cutoff(record)`` is
    called on each accepted record in that order, and no level longer than
    the least value it has returned is started; only the records found up
    to there are returned.
    """
    results: list[ProgramRecord] = []
    if not viable(""):
        return results
    limit = cfg.max_program_len
    level: list[tuple[str, _Cpu]] = [("", _Cpu(aux, cfg.fuel))]
    n = 0
    while level and n < limit:
        n += 1
        below: list[tuple[str, _Cpu]] = []
        for prefix, parent in level:
            for bit in ("0", "1"):
                # the "1" child takes over the parent, which only the "0"
                # child had to copy
                cpu = parent.copy() if bit == "0" else parent
                state = cpu.feed(bit)
                if state == _OUT_OF_FUEL:
                    continue
                out = cpu.output
                if not viable(out):
                    continue
                if state == _NEED_INPUT:
                    below.append((prefix + bit, cpu))
                elif accept(out):
                    rec = ProgramRecord(prefix + bit, out, cpu.steps, aux)
                    results.append(rec)
                    if cutoff is not None:
                        limit = min(limit, cutoff(rec))
        level = below
    results.sort(key=lambda r: (r.steps, r.program))
    return results


# ---------------------------------------------------------------------------
# the boundary graph: programs for one output are paths between instruction
# boundaries
# ---------------------------------------------------------------------------

_NUMBERED = (_CODE["POW_HALT"], _CODE["COPY_N"])  # operands open with a number block


def _literal(y: str) -> str:
    return "1" * len(y) + "0" + y


# POW_HALT with each count that has a finite repeat count (see _pow_reps):
# the opcode and the count's shortest number block, and the repeat count
_POW_HEADS = [(_CODE["POW_HALT"] + _literal(format(m, "b")), m ** m) for m in range(1, 16)]


def _target_edges(x: str, aux: str, o: int, a: int, room: int):
    """The instructions that may follow the boundary (o, a) in a least
    program for exactly x, with codes of at most ``room`` bits, as (code,
    next boundary or None after a halt, code length + extra steps).

    At a boundary the output is x[:o] and a = min(aux position, len(aux)).
    Literal payloads are fixed by x, and every count takes its shortest
    number block.  EMIT of the empty literal, COPY_N 0 and COPY_ALL on the
    sentinel leave the boundary as it was, so no least program uses them,
    and at o = len(x) the two-bit empty-literal halt beats every other halt.
    An instruction's extra steps are its dispatch and the aux cells it reads.
    """
    n, rest = len(aux), len(x) - o
    code = _CODE["EMIT_HALT"] + _literal(x[o:])
    if len(code) <= room:
        yield code, None, len(code) + 1
    if rest == 8 and len(_CODE["RAW8_HALT"]) + 8 <= room:
        code = _CODE["RAW8_HALT"] + x[o:]
        yield code, None, len(code) + 1
    for head, reps in _POW_HEADS:
        if reps > rest:
            break
        y = x[o:o + rest // reps]
        code = head + _literal(y)
        if len(code) <= room and y * reps == x[o:]:
            yield code, None, len(code) + 1
    room -= 2  # a continuing instruction leaves room for the shortest halt
    for j in range(1, min(rest, (room - 4) // 2) + 1):
        code = _CODE["EMIT"] + _literal(x[o:o + j])
        yield code, (o + j, a), len(code) + 1
    k = 0  # COPY_N k needs the k cells from a to match x[o:o + k]
    while k < rest and (aux[a + k] if a + k < n else "0") == x[o + k]:
        k += 1
        code = _CODE["COPY_N"] + _literal(format(k, "b"))
        if len(code) > room:
            break
        yield code, (o + k, min(a + k, n)), len(code) + 1 + k
    code = _CODE["COPY_ALL"]
    if a < n and n - a <= rest and len(code) <= room and x.startswith(aux[a:], o):
        # the n - a data cells and the sentinel
        yield code, (o + n - a, n), len(code) + 1 + n - a + 1


def _extending_edges(x: str, aux: str, o: int, a: int, room: int):
    """The ``_target_edges`` of a least program whose output extends x, and
    the instructions past the end of x that can still be least, each adding
    its output bits past x to its weight: RAW8_HALT of x[o:] padded with
    zeros; POW_HALT of the shortest y whose repeats run past x[o:] and agree
    with it; and COPY_ALL of an aux rest extending x[o:], to the boundary
    (len(x), len(aux)), where the empty-literal halt follows.  EMIT_HALT or
    EMIT past the end loses to EMIT_HALT x[o:], and COPY_N past the end to
    COPY_N len(x) - o and that halt."""
    yield from _target_edges(x, aux, o, a, room)
    n, rest = len(aux), len(x) - o
    if rest < 8 and len(_CODE["RAW8_HALT"]) + 8 <= room:
        code = _CODE["RAW8_HALT"] + x[o:] + "0" * (8 - rest)
        yield code, None, len(code) + 1 + 8 - rest
    for head, reps in _POW_HEADS if rest else ():
        for j in range(-(-rest // reps), min(rest, (room - len(head) - 1) // 2) + 1):
            if x.startswith(x[o + j:], o):  # x[o:] has period j
                if j * reps > rest:  # j * reps == rest is a _target_edges halt
                    code = head + _literal(x[o:o + j])
                    yield code, None, len(code) + 1 + j * reps - rest
                break
    code = _CODE["COPY_ALL"]
    if n - a > rest and len(code) <= room - 2 and aux.startswith(x[o:], a):
        yield code, (len(x), n), len(code) + 1 + n - a + 1 + n - a - rest


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
        top = len(code)
        if code.startswith(_NUMBERED):
            top = room if t is None else room - 2
        for extra in range(0, top - len(code) + 1, 2):
            yield len(code) + extra, t, w + extra, 1
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


def _boundaries(x: str, aux: str, L: int, edges):
    """The boundaries reachable within L bits, with the least prefix length
    of each, and the list of ``edges`` out of each within its room, L minus
    that prefix length, keyed in topological (o, a) order."""
    root = (0, 0)
    heap, prefix, out = [root], {root: 0}, {}
    # (o, a) grows along every continuing edge, so heap order is topological
    # and a boundary's prefix length is final when it is popped
    while heap:
        s = heapq.heappop(heap)
        out[s] = list(edges(x, aux, *s, L - prefix[s]))
        for code, t, _w in out[s]:
            d = prefix[s] + len(code)
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

    A forward pass lists the boundaries reachable within L bits and the
    edges out of each, once.  A backward pass, in decreasing output length,
    keeps the Pareto front of each boundary's suffixes that fit within L:
    the least path weight at each length where it falls.  The program length
    is the least length at the root whose weight fits the budget, and a
    forward walk takes at each boundary the lex-least first code that can
    still finish within both the bits and the budget left.
    """
    return _least_path(x, cfg, aux, _target_edges)


def _least_path(x: str, cfg: MachineConfig, aux: str, edges) -> Optional[ProgramRecord]:
    """``min_program_for_output`` over the edges ``edges``, recording output x."""
    L, budget = cfg.max_program_len, cfg.fuel - len(x)
    prefix, out = _boundaries(x, aux, L, edges)
    # boundary -> the Pareto front of its suffixes within its room: (length,
    # path weight) pairs by increasing length with strictly falling weight.
    # A halt leads to None, whose one suffix is empty.
    front: dict = {None: [(0, 0)]}
    for s in reversed(out):
        room = L - prefix[s]
        lightest: dict = {}  # suffix length -> least path weight
        for code, t, w in out[s]:
            for n, v in front[t]:
                n += len(code)
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
        return any(len(code) + n <= left and w + v <= budget - spent for n, v in front[t])

    codes, s, left, spent = [], root, length, 0
    while s is not None:
        code, s, w = min(e for e in out[s] if fits(*e))
        codes.append(code)
        left -= len(code)
        spent += w
    return ProgramRecord("".join(codes), x, len(x) + spent, aux)


def mass_for_output(x: str, cfg: MachineConfig, aux: str = "") -> Dyadic:
    """The exact mass, sum 2^-len(p), of the programs p within bounds that
    compute exactly x.

    A path count over the boundaries of ``min_program_for_output``, taken in
    decreasing output length.  Each boundary counts its suffixes by code
    length, up to its room, and by path weight, up to fuel - len(x), over
    every encoding of ``_count_edges``.  Its self-loops are at least four
    bits long, so they close in increasing length.
    """
    L, budget = cfg.max_program_len, cfg.fuel - len(x)
    prefix, out = _boundaries(x, aux, L, _target_edges)
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
    """The (length, lex)-least program whose output extends a member: the
    least over members of the least path of ``_extending_edges``."""
    paths = (_least_path(x, cfg, aux, _extending_edges) for x in members)
    best = min((r for r in paths if r is not None),
               key=lambda r: (len(r.program), r.program), default=None)
    if best is None:
        return None
    out = run(best.program, aux, cfg.fuel)  # the output may run past the member
    return ProgramRecord(best.program, out.output, out.steps, aux)


# ---------------------------------------------------------------------------
# enumeration digest (the fixture hash every report carries)
# ---------------------------------------------------------------------------

def cache_digest(records: Iterable[ProgramRecord]) -> str:
    import hashlib

    body = "".join(f"{r.program}\t{r.output}\t{r.steps}\n" for r in records)
    return hashlib.sha256(body.encode("ascii")).hexdigest()
