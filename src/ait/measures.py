"""Elementary measures and the machinery built on them: deficiency of
randomness, Shannon-Fano codes, the bounded stochasticity search, and the
derandomized hitting vector.

Weights are exact rationals (``Fraction``).  A measure a program outputs
has dyadic weights, the only kind the codec's measure encoding carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .codec import (
    assert_bits,
    canon_key,
    canonical_sorted,
    DecodeError,
    decode_measure_entries,
    decode_measure_prefix,
    decode_string_set,
    strings_of_length,
)
from .complexity import k_t, pair_aux
from .dyadic import ceil_neg_log2, floor_neg_log2
from .machine import MachineConfig, search_programs

SEMIMEASURE = "semimeasure"
PROBABILITY = "probability"


@dataclass(frozen=True)
class ElementaryMeasure:
    """Finite-support rational measure over bit strings."""

    weights: Mapping[str, Fraction]
    kind: str = PROBABILITY

    def __post_init__(self):
        object.__setattr__(
            self,
            "weights",
            {assert_bits(x): Fraction(w) for x, w in dict(self.weights).items()},
        )
        if self.kind not in (SEMIMEASURE, PROBABILITY):
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(canonical_sorted(self.weights))

    def __call__(self, x: str) -> Fraction:
        return self.weights.get(x, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def mass_of(self, members: Iterable[str]) -> Fraction:
        return sum((self(x) for x in set(members)), Fraction(0))


def measure_violations(w: ElementaryMeasure) -> list[str]:
    """Which constraints fail: support positivity, then the kind's sum rule."""
    problems = []
    for x, weight in w.weights.items():
        if weight <= 0:
            problems.append(f"weight of {x!r} is {weight} (must be positive)")
    total = w.total()
    if w.kind == PROBABILITY and total != 1:
        problems.append(f"total mass {total} != 1")
    if w.kind == SEMIMEASURE and total > 1:
        problems.append(f"total mass {total} > 1")
    return problems


def uniform_measure(n: int) -> ElementaryMeasure:
    """The uniform probability measure on all strings of length n."""
    return ElementaryMeasure({x: Fraction(1, 1 << n) for x in strings_of_length(n)})


def decode_measure(bits: str) -> ElementaryMeasure:
    entries = decode_measure_entries(bits)
    return ElementaryMeasure({x: Fraction(num, 1 << exp) for x, num, exp in entries})


# ---------------------------------------------------------------------------
# deficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeficiencyValue:
    value: int
    floor_neg_log_weight: int
    conditional_k: int


class NotInSupport(ValueError):
    """The element carries no weight, so it has no log-weight."""


class UnreachableSupport(ValueError):
    """No fuel-bounded program reaches the element, so its deficiency has no
    finite conditional term at these bounds."""


def deficiency(a: str, w: ElementaryMeasure, y: str, cfg: MachineConfig) -> DeficiencyValue:
    """floor(-log W(a)) - k_t(a|y), for a in the support of W."""
    weight = w(a)
    if weight <= 0:
        raise NotInSupport(f"{a!r} is not in the support")
    if weight > 1:
        raise ValueError("weights above 1 have no log-weight")
    fl = floor_neg_log2(weight)
    cond = k_t(a, y, cfg)
    if not cond.is_finite:
        raise UnreachableSupport(f"no program within bounds outputs {a!r}")
    return DeficiencyValue(fl - cond.value, fl, cond.value)


def deficiency_test_sum(w: ElementaryMeasure, y: str, cfg: MachineConfig) -> Fraction:
    """sum over the support of 2^d(a|W,y) W(a); elements with no program
    within bounds contribute 0 (their deficiency is -infinity)."""
    total = Fraction(0)
    for a in w.support:
        try:
            d = deficiency(a, w, y, cfg).value
        except UnreachableSupport:
            continue
        total += w(a) * (Fraction(1 << d) if d >= 0 else Fraction(1, 1 << -d))
    return total


# ---------------------------------------------------------------------------
# Shannon-Fano codes
# ---------------------------------------------------------------------------

def shannon_fano(p: ElementaryMeasure) -> dict[str, str]:
    """A prefix-free code with len(code(x)) = ceil(-log P(x)) + 1.

    The +1 makes the Kraft sum at most 1/2, so the canonical assignment
    below always succeeds; decoding is a prefix-map lookup.
    """
    if measure_violations(p):
        raise ValueError("code source must be a valid measure")
    lengths = sorted((ceil_neg_log2(p(x)) + 1, canon_key(x), x) for x in p.support)
    code: dict[str, str] = {}
    value, prev_len = 0, 0
    for length, _, x in lengths:
        value <<= (length - prev_len)
        code[x] = format(value, f"0{length}b")
        value += 1
        prev_len = length
    return code


def shannon_fano_decode(code: Mapping[str, str], bits: str) -> str:
    inverse = {v: k for k, v in code.items()}
    for i in range(1, len(bits) + 1):
        if bits[:i] in inverse and i == len(bits):
            return inverse[bits]
        if bits[:i] in inverse:
            raise ValueError("trailing bits after a complete codeword")
    raise ValueError("not a codeword")


# ---------------------------------------------------------------------------
# stochasticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticityResult:
    value: int
    witness_program: str
    witness_measure: ElementaryMeasure
    deficiency: DeficiencyValue


class StochasticityNotFound(RuntimeError):
    """No fuel-bounded program within the bounds outputs a valid elementary
    probability measure covering the string."""


def _int_log_score(k: int, scoring: str) -> int:
    """3 * ceil(log2 max(k, 1)) under "3logk", or the flat alternative
    max(k, 0) under "k"."""
    if scoring == "k":
        return max(k, 0)
    if scoring != "3logk":
        raise ValueError(f"unknown scoring {scoring!r}")
    k = max(k, 1)
    return 3 * ((k - 1).bit_length())


def _measure_prefix_state(bits: str, a: str) -> str:
    """Classify a candidate output prefix: 'dead', 'viable', or 'complete'.

    A prefix is viable while some extension could still decode to a valid
    probability measure whose support contains ``a``.
    """
    try:
        count, entries, whole = decode_measure_prefix(bits)
    except DecodeError:
        return "dead"
    if count is None:
        return "viable"
    total = sum(Fraction(num, 1 << exp) for _, num, exp in entries)
    if count == 0 or total > 1:
        return "dead"  # a probability measure needs support and mass at most 1
    if all(x != a for x, _, _ in entries) and (
        whole or entries and canon_key(entries[-1][0]) > canon_key(a)
    ):
        return "dead"  # canonical order: once past a's place, a cannot appear
    if whole:
        return "complete" if total == 1 else "dead"
    return "viable"


def stochasticity(
    a: str,
    y: str,
    search: MachineConfig,
    cfg: MachineConfig,
    scoring: str = "3logk",
) -> StochasticityResult:
    """min over programs v within the ``search`` bounds outputting a valid
    elementary probability measure W with a in supp(W), of len(v) + 3 log
    max(d, 1) where d = deficiency(a | W, <v, y>).  Ties break toward
    shorter then lexicographically smaller v.

    The walk classifies each output once with ``_measure_prefix_state``,
    prunes branches whose output can no longer extend to a valid encoding,
    and scores each candidate as it finds it, in order of length.
    Both scorings add a nonnegative term to len(v), so no program longer
    than the best value found so far can win, and the walk stops after that
    length.  The result is the one a naive scan over every string within
    the search length gives.
    """
    if search.max_program_len > cfg.max_program_len:
        raise ValueError("search bounds exceed the governing config")
    _int_log_score(0, scoring)  # an unknown scoring fails even if nothing is found
    best: Optional[tuple[int, int, str]] = None
    best_payload = None

    def score(rec) -> int:
        nonlocal best, best_payload
        w = decode_measure(rec.output)
        try:
            d = deficiency(a, w, pair_aux(rec.program, y), cfg)
        except UnreachableSupport:
            return search.max_program_len
        value = len(rec.program) + _int_log_score(d.value, scoring)
        key = (value, len(rec.program), rec.program)
        if best is None or key < best:
            best = key
            best_payload = (rec, w, d)
        return best[0]

    search_programs(search, y, lambda out: _measure_prefix_state(out, a), cutoff=score)
    if best_payload is None:
        raise StochasticityNotFound(
            f"no measure covering {a!r} is reachable within {search}"
        )
    rec, w, d = best_payload
    return StochasticityResult(best[0], rec.program, w, d)


# ---------------------------------------------------------------------------
# hitting vectors by the method of conditional expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HittingVector:
    elements: tuple[str, ...]
    params: tuple[int, int, int]  # (c, d, i)


class HittingInfeasible(RuntimeError):
    pass


class SupportNotHeavy(ValueError):
    """A set in the support of Q has m-mass below 2^-i."""


def hitting_vector(
    q: ElementaryMeasure,
    m: ElementaryMeasure,
    i: int,
    c: int,
    d: int,
) -> HittingVector:
    """A vector z of exactly c*d*2^(i+1) support elements of m such that
    sum_F Q(<F>) t_z(F) <= 1, where t_z(F) = 2^(c*d) if F and z are disjoint
    and 0 otherwise.

    Every encoded set in the support of Q must be i-heavy: m(F) >= 2^-i.
    The greedy choice by conditional expectations keeps the exact potential
    sum_F Q(<F>) (1 - m(F))^r 2^(c*d) nonincreasing, and the 2^(c*d) scoring
    (in place of e^(c*d)) keeps the starting potential below 1 because
    (1 - 2^-i)^(c*d*2^(i+1)) <= e^(-2cd) <= 2^(-2cd).
    """
    # per support set: its Q weight, its members and 1 - m(F)
    alive: list[tuple[Fraction, frozenset, Fraction]] = []
    for enc in q.support:
        members = frozenset(decode_string_set(enc))
        mass = m.mass_of(members)
        if mass < Fraction(1, 1 << i):
            raise SupportNotHeavy(f"support set {sorted(members)} is not {i}-heavy")
        alive.append((q(enc), members, 1 - mass))

    size = c * d * (1 << (i + 1))
    if size and not m.support:
        raise HittingInfeasible(f"{size} draws from a measure with empty support")
    scale = Fraction(1 << (c * d))
    # potential with r draws left: sum of q * (1 - m(F))^r * 2^cd over live sets
    chosen: list[str] = []
    for r in range(size, 0, -1):
        if not alive:  # every potential is 0, so each draw left takes the first element
            chosen += [m.support[0]] * r
            break
        # the potential after drawing w is the live total less the live weight
        # that w hits, so the least potential is the most weight hit; max
        # keeps the first such w, as the least potential would
        live = [(qw * miss ** (r - 1), members) for qw, members, miss in alive]
        best_elem = max(m.support, key=lambda w: sum(weight for weight, members in live
                                                     if w in members))
        chosen.append(best_elem)
        alive = [entry for entry in alive if best_elem not in entry[1]]
    score = sum((qw for qw, _m, _f in alive), Fraction(0)) * scale
    if score > 1:
        raise HittingInfeasible(f"greedy expectation bound failed: {score} > 1")
    return HittingVector(tuple(chosen), (c, d, i))


def hitting_score(z: HittingVector, q: ElementaryMeasure, m: ElementaryMeasure) -> Fraction:
    """sum_F Q(<F>) t_z(F), recomputed independently of the greedy run."""
    c, d, _i = z.params
    hit = set(z.elements)
    total = Fraction(0)
    for enc in q.support:
        if hit.isdisjoint(decode_string_set(enc)):
            total += q(enc) * (1 << (c * d))
    return total
