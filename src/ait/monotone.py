"""Continuous semimeasures as staged approximation tables, the compiler
from a table to a total string-monotonic transducer, preimage counting,
the two-sided threshold, and prefix-set complexity relative to a table.

A table assigns each (string, stage) a dyadic value, nondecreasing in the
stage, superadditive over children within a stage, and 1 at most at the
root.  The compiler maintains, per stage k and string x, disjoint sets
S[x] of current-length strings plus a gift ledger T[x]; the stage invariant
is that the code mass of S[x] union T[x] matches the table value through
its ceiling log.  Gifting always brings a child to the exact bracket
minimum 2^-ceil(-log theta), choosing lexicographically smallest strings,
so compiled transducers are byte-stable.

The bracket-minimum gift can be infeasible for some valid tables (a parent
holding its own bracket minimum cannot always fund both children's
minima); such tables raise InsufficientMass.  Tables whose values are all
powers of two are always feasible: every set mass then equals its table
value exactly, and superadditivity is precisely the funding condition.
The fixture generators below only produce such tables.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .codec import (Lcg, all_strings_upto, assert_bits, canon_key, canonical_sorted,
                    strings_of_length)
from .dyadic import Dyadic, ceil_neg_log2, dyadic_sum, floor_neg_log2


class InsufficientMass(RuntimeError):
    """The parent's set cannot fund a child's bracket minimum."""


class DepthExceeded(ValueError):
    """The input outruns the built stages."""


@dataclass(frozen=True)
class ThetaTable:
    """Staged dyadic approximation of a continuous semimeasure."""

    entries: dict
    max_stage: int

    def theta(self, x: str, k: int) -> Dyadic:
        return self.entries.get((x, k), Dyadic.zero())

    def support(self, k: int) -> list[str]:
        return canonical_sorted(x for (x, j), v in self.entries.items()
                                if j == k and not v.is_zero)

    def serialize(self) -> str:
        rows = sorted(self.entries.items(), key=lambda kv: (kv[0][1], canon_key(kv[0][0])))
        return "".join(f"{x}\t{k}\t{v}\n" for (x, k), v in rows if not v.is_zero)

    @staticmethod
    def parse_row(line: str) -> tuple[tuple[str, int], Dyadic]:
        """One serialized ``x<TAB>stage<TAB>value`` line as ((x, stage), value)."""
        x, k, val = line.split("\t")
        return (assert_bits(x), int(k)), Dyadic.parse(val)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[tuple[str, int], Dyadic]]) -> "ThetaTable":
        entries = dict(rows)
        return cls(entries, max((k for _x, k in entries), default=0))


def theta_violations(t: ThetaTable) -> list[str]:
    """First-failure descriptions for the three table invariants, and for a
    root that is 0 past stage 0, which leaves that stage nothing to build."""
    problems = []
    for k in range(t.max_stage + 1):
        if k > 0:
            if t.theta("", k).is_zero:
                problems.append(f"theta(eps,{k}) is 0")
            # over both supports, so that a string dropping out decreases
            for x in canonical_sorted(set(t.support(k - 1)) | set(t.support(k))):
                if t.theta(x, k) < t.theta(x, k - 1):
                    problems.append(f"theta({x!r},{k}) decreased across stages")
        for x in t.support(k):
            v = t.theta(x, k)
            if x == "" and v > Dyadic.one():
                problems.append(f"theta(eps,{k}) = {v} exceeds 1")
            if v < t.theta(x + "0", k) + t.theta(x + "1", k):
                problems.append(f"theta({x!r},{k}) below its children's sum")
            if x and t.theta(x[:-1], k).is_zero:
                problems.append(f"theta({x[:-1]!r},{k}) is 0 under a positive child")
    return problems


@dataclass(frozen=True)
class Stage:
    k: int
    n: int                      # all members of S sets have this length
    s_sets: dict                # x -> tuple of sorted strings, disjoint across x
    t_sets: dict                # x -> tuple of sorted strings (mixed lengths)


@dataclass(frozen=True)
class MonotoneTransducer:
    stages: tuple

    @property
    def depth(self) -> int:
        return self.stages[-1].n

    def serialize(self) -> str:
        payload = [
            {
                "k": st.k,
                "N": st.n,
                "S": {x: list(ys) for x, ys in sorted(st.s_sets.items()) if ys},
                "T": {x: list(ys) for x, ys in sorted(st.t_sets.items()) if ys},
            }
            for st in self.stages
        ]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expand(strings: Iterable[str], n: int) -> list[str]:
    """All length-n extensions of each string (lengths must not exceed n)."""
    out = []
    for s in strings:
        pad = n - len(s)
        if pad < 0:
            raise AssertionError("expansion below current length")
        out.extend(s + tail for tail in strings_of_length(pad))
    return out


N0 = 1  # the stage-0 constant: S[eps] starts as all strings of this length

# the longest strings a stage may hold: a stage of length n lists all 2^n
# strings, and 20 bits take about 0.5 s and 120 MB on a 2-vCPU VM
MAX_STAGE_LEN = 20


def build_nu(t: ThetaTable) -> MonotoneTransducer:
    """Run the staged construction, parent before child, gifting children to
    their exact bracket minima; raises ValueError on a table that breaks an
    invariant or needs a stage longer than MAX_STAGE_LEN, and
    InsufficientMass when a valid table demands more than the parent's set
    holds."""
    problems = theta_violations(t)
    if problems:
        raise ValueError(f"invalid table: {problems[0]}")

    s_now: dict[str, list[str]] = {"": _expand([""], N0)}
    t_now: dict[str, list[str]] = {}
    stages = [Stage(0, N0, {"": tuple(s_now[""])}, {})]
    n_prev = N0

    for k in range(1, t.max_stage + 1):
        support = t.support(k)
        n_k = n_prev + 1
        for x in support:
            n_k = max(n_k, ceil_neg_log2(t.theta(x, k)) + 2)
        if n_k > MAX_STAGE_LEN:
            raise ValueError(f"stage {k} needs {n_k}-bit strings, more than {MAX_STAGE_LEN}")

        s_new: dict[str, list[str]] = {}
        t_new: dict[str, list[str]] = {x: list(ys) for x, ys in t_now.items()}
        pending: dict[str, list[str]] = {}

        for x in support:
            base = _expand(s_now.get(x, ()), n_k)
            base.extend(pending.pop(x, ()))
            base.sort()
            s_new[x] = base

            for b in "01":
                child = x + b
                value = t.theta(child, k)
                if value.is_zero:
                    continue
                # in units of 2^-n_k: the bracket minimum, less what the child
                # holds, has given away and was given at this stage
                held = sum(1 << (n_k - len(y)) for y in chain(
                    s_now.get(child, ()), t_now.get(child, ()), pending.get(child, ())))
                count = (1 << (n_k - ceil_neg_log2(value))) - held
                if count <= 0:
                    continue
                donors = s_new[x]
                if count > len(donors):
                    raise InsufficientMass(
                        f"stage {k}: {x!r} holds {len(donors)} strings but "
                        f"{child!r} needs {count} more"
                    )
                gift = donors[:count]
                s_new[x] = donors[count:]
                t_new.setdefault(x, []).extend(gift)
                pending.setdefault(child, []).extend(gift)

        if pending:
            raise AssertionError("gifts addressed outside the support tree")
        covered = sum(map(len, s_new.values()))  # disjoint: a gift leaves its donor
        if covered != 1 << n_k:
            raise AssertionError(f"stage {k}: the S sets cover {covered} of {1 << n_k} strings")
        s_now = s_new
        t_now = {x: sorted(ys) for x, ys in t_new.items()}
        stages.append(Stage(
            k, n_k,
            {x: tuple(ys) for x, ys in s_now.items()},
            {x: tuple(ys) for x, ys in t_now.items()},
        ))
        n_prev = n_k

    return MonotoneTransducer(tuple(stages))


def _has_extension(sorted_strings: tuple[str, ...], y: str) -> bool:
    """Any member extending y?  Fixed-length members with prefix y form a
    contiguous lexicographic range."""
    i = bisect_left(sorted_strings, y)
    return i < len(sorted_strings) and sorted_strings[i].startswith(y)


@dataclass
class NuFunction:
    """The compiled total string-monotonic function, with per-stage owner
    indexes and a per-length tally of its images."""

    transducer: MonotoneTransducer
    _owners: list = field(init=False, repr=False)  # per stage: S-set member -> x
    _tallies: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._owners = [{y: x for x, ys in st.s_sets.items() for y in ys}
                        for st in self.transducer.stages]

    @property
    def depth(self) -> int:
        return self.transducer.depth

    def apply(self, y: str) -> str:
        """The owner x of y's first n bits at the last stage whose length n
        is at most len(y).  A longer y must extend a member of S[x], S[x0] or
        S[x1] at the next stage.  Inputs shorter than the stage-0 length map
        to the empty string."""
        stages = self.transducer.stages
        if len(y) < stages[0].n:
            return ""
        if len(y) > stages[-1].n:
            raise DepthExceeded(f"input length {len(y)} exceeds built depth {stages[-1].n}")
        idx = bisect_right(stages, len(y), key=lambda st: st.n) - 1
        x = self._owners[idx][y[:stages[idx].n]]
        if len(y) > stages[idx].n:
            nxt = stages[idx + 1].s_sets
            if not any(_has_extension(nxt.get(z, ()), y) for z in (x, x + "0", x + "1")):
                raise AssertionError("every extension must stay within the child sets")
        return x

    def image_counts(self, n: int) -> dict:
        """{image: number of length-n inputs mapped to it}.  The first call
        at a length applies nu to every one of its 2^n inputs, so every
        depth and child-set check runs on each; later calls return the same
        tally object, which callers read and never change."""
        tally = self._tallies.get(n)
        if tally is None:
            tally = Counter(map(self.apply, strings_of_length(n)))
            self._tallies[n] = tally
        return tally


def preimage_count(nu, members: Iterable[str], n: int) -> int:
    """|{y of length n : nu(y) extends some member}|: the summed tally
    counts of the images that extend a member.

    Accepts any evaluator with ``depth`` and ``image_counts(n)`` (the
    compiled NuFunction, which evaluates each input once per nu and length,
    or a hand-built stand-in in tests)."""
    targets = tuple(set(members))
    if n > nu.depth:
        raise DepthExceeded(f"length {n} exceeds built depth {nu.depth}")
    return sum(count for image, count in nu.image_counts(n).items()
               if any(image.startswith(x) for x in targets))


class ThresholdNotFound(RuntimeError):
    pass


def threshold_N(nu, members: Iterable[str]) -> tuple[int, int]:
    """The least N' with 2^(-i+2) > count(N') 2^-N' > 2^-i, verifying the
    one-sided bound below N' and the two-sided bound up to the built depth.
    Returns (N', i) with i = 1 + ceil(-log of the deepest preimage mass).
    Takes the preimage_count evaluator; the counts at every length come from
    nu's image tallies, so each input is evaluated once per nu and length
    however many member sets are tested.
    """
    targets = tuple(set(members))
    depth = nu.depth
    counts = {n: preimage_count(nu, targets, n) for n in range(1, depth + 1)}
    if counts[depth] == 0:
        raise ThresholdNotFound("the preimage has measure zero at depth")
    i = 1 + ceil_neg_log2(Dyadic(counts[depth], depth))
    lo = Dyadic(1, i)
    hi = Dyadic(1, i).shifted(2)  # 2^(-i+2)
    n_prime = None
    for n in range(1, depth + 1):
        massn = Dyadic(counts[n], n)
        if lo < massn and massn < hi:
            n_prime = n
            break
    if n_prime is None:
        raise ThresholdNotFound("no length satisfies the two-sided bound in depth")
    for n in range(1, n_prime):
        if Dyadic(counts[n], n) > lo:
            raise AssertionError("one-sided bound fails below the threshold")
    for n in range(n_prime, depth + 1):
        massn = Dyadic(counts[n], n)
        if not (lo < massn and massn < hi):
            raise AssertionError("two-sided bound fails above the threshold")
    return n_prime, i


class ZeroMeasureSet(ValueError):
    pass


def km_sigma(members: Iterable[str], t: ThetaTable) -> int:
    """1 + floor(-log2 of the table mass of the set) at the table's last stage."""
    total = dyadic_sum(t.theta(x, t.max_stage) for x in set(members))
    if total.is_zero:
        raise ZeroMeasureSet("the set has zero table mass at this stage")
    return 1 + floor_neg_log2(total)


# ---------------------------------------------------------------------------
# fixture tables (all power-of-two valued, hence always feasible)
# ---------------------------------------------------------------------------

def _staged(tree: dict[str, Dyadic], stages: int) -> ThetaTable:
    """A final tree revealed one level per stage, theta(x, k) = tree[x] for
    len(x) <= k, which keeps stage monotonicity trivially exact."""
    return ThetaTable({(x, k): v for k in range(stages + 1)
                       for x, v in tree.items() if len(x) <= k}, stages)


def uniform_table(stages: int) -> ThetaTable:
    """theta(x, k) = 2^-len(x) for len(x) <= k: the uniform-measure ladder."""
    return _staged({x: Dyadic(1, len(x)) for x in all_strings_upto(stages)}, stages)


def point_mass_table(stages: int) -> ThetaTable:
    """theta(0^j, k) = 1 for j <= k: all mass funnels down the zero path."""
    return _staged({"0" * j: Dyadic.one() for j in range(stages + 1)}, stages)


def random_pow2_table(seed: int, stages: int) -> ThetaTable:
    """A deterministic pseudo-random power-of-two table: the final tree is
    drawn once from a fixed linear-congruential stream, then staged.  No
    value below 2^-6 subdivides."""
    rng = Lcg(seed)
    tree: dict[str, Dyadic] = {"": Dyadic.one()}
    frontier = [""]
    for _depth in range(stages):
        nxt = []
        for x in frontier:
            v = tree[x]
            if v.exp >= 6:
                continue
            style = rng.next(4)
            if style == 0:
                continue  # leaf: mass stops subdividing
            if style == 1:
                tree[x + "0"] = v.halved()
                tree[x + "1"] = v.halved()
                nxt.extend((x + "0", x + "1"))
            elif style == 2:
                tree[x + "0"] = v.halved()
                nxt.append(x + "0")
            else:
                tree[x + "0"] = v.halved().halved()
                tree[x + "1"] = v.halved()
                nxt.extend((x + "0", x + "1"))
        frontier = nxt
    return _staged(tree, stages)


def _preimage_counts(stage: Stage) -> Counter:
    """x -> the number of the stage's n-bit strings owned by an extension
    of x.  At the deepest built length n, nu maps each input to its owner
    at the last stage, so this is ``preimage_count(nu, [x], n)`` for every x
    at once."""
    counts: Counter = Counter()
    for owner, members in stage.s_sets.items():
        for i in range(len(owner) + 1):
            counts[owner[:i]] += len(members)
    return counts


def measure_matching_gap(t: ThetaTable) -> int:
    """max over supported x of |ceil(-log theta(x)) - ceil(-log preimage mass)|
    at the deepest built length: the two-sided transducer fidelity figure."""
    last = build_nu(t).stages[-1]
    counts = _preimage_counts(last)
    worst = 0
    for x in t.support(t.max_stage):
        count = counts[x]
        if count == 0:
            raise ZeroMeasureSet(f"{x!r} has an empty preimage at depth {last.n}")
        lhs = ceil_neg_log2(t.theta(x, t.max_stage))
        rhs = ceil_neg_log2(Dyadic(count, last.n))
        worst = max(worst, abs(lhs - rhs))
    return worst
