"""Experiment runner: desk-scale verification sweeps with reproducible
JSONL reports.

Every report row is either an assertion (exactly checkable integer or
dyadic comparison) or a measurement (a recorded value that carries no
pass/fail): asymptotic claims are never asserted, only measured against
their fuel-bounded proxies.  All sweeps are closed-form
deterministic; the only "randomness" is the fixed linear-congruential
stream ``codec.Lcg``, so reports are byte-identical across runs at the same
bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import complexity as cx
from .codec import Lcg, encode_string_set, kraft_sum, PrefixFreeSet, strings_of_length
from .dyadic import Dyadic, ceil_neg_log2
from .frozen import FROZEN
from .leftward import (
    TotalSearchNotFound,
    UniquenessViolation,
    bb,
    get_interval_table,
    m_b_set,
    shortest_total_satisfying,
    total_strings_of_length,
)
from .machine import MachineConfig, cache_digest, get_enumeration, per_bounds
from .measures import StochasticityNotFound, _int_log_score, stochasticity
from .monotone import (
    NuFunction,
    ThresholdNotFound,
    ZeroMeasureSet,
    build_nu,
    km_sigma,
    preimage_count,
    threshold_N,
    uniform_table,
)
from .predicates import (
    BinaryPredicate,
    ExtensionNotFound,
    complete_extension_search,
    cylinder,
    encode_predicate,
)


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    fixture_hash: str
    rows: list = field(default_factory=list)

    def check(self, name: str, lhs, rhs, ok: bool):
        self.rows.append(
            {"experiment": self.experiment, "name": name, "kind": "assert",
             "lhs": _plain(lhs), "rhs": _plain(rhs), "pass": bool(ok)}
        )

    def measure(self, name: str, value, against=None):
        self.rows.append(
            {"experiment": self.experiment, "name": name, "kind": "measure",
             "lhs": _plain(value), "rhs": _plain(against), "pass": None}
        )

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows if r["kind"] == "assert")

    def to_jsonl(self) -> str:
        head = {
            "experiment": self.experiment, "name": "_config", "kind": "measure",
            "lhs": json.dumps(self.config, sort_keys=True),
            "rhs": self.fixture_hash, "pass": None,
        }
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in [head] + self.rows
        )


def _plain(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return str(v)


def _fmt_inf(v: Optional[int]):
    return "inf" if v is None else v


def _enumeration_digest(cfg: MachineConfig, aux: str) -> str:
    return cache_digest(get_enumeration(cfg, aux))


def _report(name: str, cfg: MachineConfig, **params) -> ExperimentReport:
    # the digest builds the enumeration before any query, so the report's
    # unconditional queries read the interval table's output columns
    digest = per_bounds("enumeration digest", _enumeration_digest, cfg, "")
    config = {"max_len": cfg.max_program_len, "fuel": cfg.fuel, **params}
    return ExperimentReport(name, config, digest)


# ---------------------------------------------------------------------------
# fixture families
# ---------------------------------------------------------------------------

def default_set_family(count: int = 100) -> list[tuple[str, frozenset]]:
    """Deterministic sets of short (hence reachable) strings."""
    rng = Lcg(11)
    pool = [x for n in range(5) for x in strings_of_length(n)]
    family = []
    for j in range(count):
        size = 1 + rng.next(4)
        members = frozenset(pool[rng.next(len(pool))] for _ in range(size))
        family.append((f"set{j:03d}", members))
    return family


def default_predicate_family(count: int = 200) -> list[tuple[str, BinaryPredicate]]:
    """Deterministic predicates: domain size <= 6, indices <= 8."""
    rng = Lcg(37)
    family = []
    for j in range(count):
        dom_size = 1 + rng.next(6)
        indices = set()
        while len(indices) < dom_size:
            indices.add(1 + rng.next(8))
        pairs = [(i, rng.next(2)) for i in sorted(indices)]
        family.append((f"pred{j:03d}", BinaryPredicate(pairs)))
    return family


def s_n_set(n: int, cfg: MachineConfig) -> frozenset:
    """The desk-scale analog of the random-strings set: length-n strings
    whose fuel-bounded complexity is at least n."""
    members = []
    for x in strings_of_length(n):
        k = cx.k_t(x, "", cfg)
        if not k.is_finite or k.value >= n:
            members.append(x)
    return frozenset(members)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def exp_set_probability(
    d_family: Optional[list] = None,
    *, cfg: MachineConfig,
) -> ExperimentReport:
    """Set-probability floor, the shortest-total-string search with its
    uniqueness and recovery, and the slack measurements."""
    family = d_family if d_family is not None else default_set_family()
    rep = _report("set_probability", cfg, sets=len(family))
    for name, members in family:
        mass = cx.m_set(members, "", cfg)
        min_k = cx.k_set(members, "", cfg).value
        if mass.is_zero or min_k is None:
            rep.check(f"{name}.reachable", str(mass), "positive", False)
            continue
        floor = ceil_neg_log2(mass)
        rep.check(f"{name}.floor", floor, min_k, floor <= min_k)

        i = 1 + floor
        bound = Dyadic(1, i)
        pred = lambda b: m_b_set(b, members, "", cfg) >= bound
        try:
            b = shortest_total_satisfying(pred, cfg)
            rep.check(f"{name}.b_unique", len(b), "unique", True)
            recovered = _recover_at_length(pred, len(b), cfg)
            rep.check(f"{name}.b_recovered", recovered, b, recovered == b)
        except UniquenessViolation:
            rep.check(f"{name}.b_unique", "multiple", "unique", False)
        except TotalSearchNotFound:
            rep.measure(f"{name}.b_search", "not-found-within-bounds")
        rep.measure(f"{name}.slack", min_k - floor)
        rep.measure(f"{name}.info_with_halting",
                    _fmt_inf(cx.info_with_halting(encode_string_set(members), cfg)))
    for n in range(1, 5):
        sn = s_n_set(n, cfg)
        mass = cx.m_set(sn, "", cfg)
        rep.measure(f"S_{n}.size", len(sn))
        rep.measure(f"S_{n}.neg_log_mass",
                    ceil_neg_log2(mass) if not mass.is_zero else "inf")
        rep.measure(f"S_{n}.min_k", _fmt_inf(cx.k_set(sn, "", cfg).value))
    return rep


def _recover_at_length(pred, length: int, cfg: MachineConfig) -> Optional[str]:
    """Re-derive the found string from its known length alone: scan that
    level's total strings left to right and return the first satisfier."""
    table = get_interval_table(cfg, "")
    for b in total_strings_of_length(length, table):
        if pred(b):
            return b
    return None


def exp_info_with_set(
    d_family: Optional[list] = None, *, cfg: MachineConfig
) -> ExperimentReport:
    """The scaled in-set semimeasure is exactly a semimeasure; information
    between a set and its members is measured against the mass scale.

    Also records both sides of the conditional-removal comparison for the
    stochasticity score (a report, never an assertion: both sides are
    search-bounded upper estimates of an asymptotic claim)."""
    family = d_family if d_family is not None else default_set_family()
    rep = _report("info_with_set", cfg, sets=len(family))
    _conditional_removal_rows(rep, cfg)
    for name, members in family:
        mass = cx.m_set(members, "", cfg)
        if mass.is_zero:
            rep.check(f"{name}.reachable", str(mass), "positive", False)
            continue
        i = ceil_neg_log2(mass)
        tau_total = mass.shifted(i - 1)
        rep.check(f"{name}.tau_semimeasure", str(tau_total), "<= 1",
                  tau_total <= Dyadic.one())
        infos = [cx.info_with_set(x, members, cfg) for x in members]
        finite = [v for v in infos if v is not None]
        best = min(finite) if finite else None
        rep.measure(f"{name}.min_info_with_set", _fmt_inf(best))
        if best is not None:
            rep.measure(f"{name}.i_minus_min_info", i - best)
    return rep


def _conditional_removal_rows(rep: ExperimentReport, cfg: MachineConfig):
    """Conditional vs unconditional stochasticity, against the 3-log-k cost
    of the removed condition; search bounds are widened so that measure
    encodings stay reachable (the rows state their own bounds)."""
    stoch_cfg = MachineConfig(max(cfg.max_program_len, 24), cfg.fuel)
    search = MachineConfig(20, 256)

    def lam(y: str) -> Optional[int]:
        """lambda('' | y), or None when no witness lies within the bounds."""
        try:
            return stochasticity("", y, search, stoch_cfg).value
        except StochasticityNotFound:
            return None

    lam_plain = lam("")
    for y in ("0", "1"):
        lam_cond = lam(y)
        if lam_cond is None or lam_plain is None:
            rep.measure(f"cond_removal.lambda(''|{y!r})", "not-found-within-bounds")
            continue
        k_y = cx.k_t(y, "", cfg)
        cost = _int_log_score(k_y.value, "3logk") if k_y.is_finite else None
        rep.measure(f"cond_removal.lambda_cond.xe.y{y}", lam_cond,
                    against=f"max_v_len={search.max_program_len},fuel={search.fuel}")
        rep.measure(f"cond_removal.lambda_plus_3logk.xe.y{y}",
                    None if cost is None else lam_plain + cost)


# -- distortion --------------------------------------------------------------

@dataclass(frozen=True)
class DistortionSpec:
    kind: str                   # "hamming-equal-length" | "prefix-disagreement"
    radius: Dyadic

    def __post_init__(self):
        if self.kind not in ("hamming-equal-length", "prefix-disagreement"):
            raise ValueError(f"unknown distortion {self.kind!r}")
        if self.radius.is_zero:
            raise ValueError("radius must be positive")

    def distance(self, x: str, y: str) -> Optional[int]:
        if self.kind == "hamming-equal-length":
            if len(x) != len(y):
                return None
            return sum(a != b for a, b in zip(x, y))
        common = 0
        for a, b in zip(x, y):
            if a != b:
                break
            common += 1
        return len(x) + len(y) - 2 * common


def distortion_ball(y: str, spec: DistortionSpec) -> list[str]:
    """Members of {x : d(x, y) < R} in enumeration (canonical) order; the
    candidate space is documented per kind: equal length for Hamming, all
    lengths up to len(y) + ceil(R) for prefix disagreement."""
    if spec.kind == "hamming-equal-length":
        lengths = [len(y)]
    else:
        reach = (spec.radius.num >> spec.radius.exp) + 1
        lengths = range(0, len(y) + reach + 1)
    ball = []
    for n in lengths:
        for x in strings_of_length(n):
            d = spec.distance(x, y)
            if d is not None and Dyadic(d) < spec.radius:
                ball.append(x)
    return ball


def exp_distortion(y: str, spec: DistortionSpec, cfg: MachineConfig) -> ExperimentReport:
    """Distortion-ball codeword search with the border-clipped enumeration."""
    rep = _report("distortion", cfg, y=y, kind=spec.kind, radius=str(spec.radius))
    ball = distortion_ball(y, spec)
    rep.measure("ball.size", len(ball))
    if not ball:
        rep.measure("ball.empty", "no codeword within bounds")
        return rep
    ks = {x: cx.k_t(x, "", cfg) for x in ball}
    finite = {x: k.value for x, k in ks.items() if k.is_finite}
    if not finite:
        rep.check("ball.reachable", "none", "some member reachable", False)
        return rep
    best = min(finite.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))
    x_best = best[0]
    rep.check("codeword.exists", x_best, f"k={best[1]}", True)

    mass = cx.m_set(ball, "", cfg)
    i = 1 + ceil_neg_log2(mass)
    bound = Dyadic(1, i)

    def clipped(b: str) -> list[str]:
        return ball[: min(len(ball), bb(b, cfg))]

    pred = lambda b: m_b_set(b, clipped(b), "", cfg) >= bound
    try:
        b = shortest_total_satisfying(pred, cfg)
        rep.check("b.found", b, "unique shortest total", True)
    except UniquenessViolation:
        rep.check("b.found", "multiple", "unique shortest total", False)
    except TotalSearchNotFound:
        rep.measure("b.search", "not-found-within-bounds")
    rep.measure("codeword.k", best[1])
    info_xy = cx.mutual_info_t(x_best, y, cfg)
    info_yh = cx.info_with_halting(y, cfg)
    rep.measure("info.x_best_vs_y", _fmt_inf(info_xy))
    rep.measure("info.y_vs_halting", _fmt_inf(info_yh))
    if info_xy is not None and info_yh is not None:
        rep.measure("slack.vs_bound", best[1] - info_xy - info_yh)
    return rep


# -- clopen (prefix sets against a compiled transducer) ----------------------

def exp_clopen(
    g_family: Optional[list] = None, *, cfg: MachineConfig
) -> ExperimentReport:
    table = uniform_table(4)
    if g_family is None:
        g_family = [
            ("g0", PrefixFreeSet(["0"])),
            ("g1", PrefixFreeSet(["00", "01"])),
            ("g2", PrefixFreeSet(["11"])),
            ("g3", PrefixFreeSet(["010", "10"])),
        ]
    rep = _report("clopen", cfg, sets=len(g_family), stages=table.max_stage)
    nu = NuFunction(build_nu(table))
    for name, members in g_family:
        km = cx.km_t(members, cfg)
        min_k = cx.k_set(members, "", cfg).value
        if km.is_finite and min_k is not None:
            rep.check(f"{name}.km_le_min_k", km.value, min_k, km.value <= min_k)
        else:
            rep.check(f"{name}.km_reachable", _fmt_inf(km.value), "finite", km.is_finite)
        counts = [preimage_count(nu, members, n) for n in range(1, nu.depth + 1)]
        doubling = all(
            counts[j + 1] >= 2 * counts[j] for j in range(len(counts) - 1)
        )
        rep.check(f"{name}.preimage_doubling", counts, "doubling", doubling)
        try:
            n_prime, i = threshold_N(nu, members)
            rep.check(f"{name}.threshold", n_prime, f"i={i}", True)
            oracle = _threshold_oracle(counts, i)
            rep.check(f"{name}.threshold_oracle", n_prime, oracle, n_prime == oracle)
            try:
                b = shortest_total_satisfying(lambda s: bb(s, cfg) >= n_prime, cfg)
                rep.check(f"{name}.b_for_bb", b, f"bb>={n_prime}", True)
            except UniquenessViolation:
                rep.check(f"{name}.b_for_bb", "multiple", "unique", False)
            except TotalSearchNotFound:
                rep.measure(f"{name}.b_for_bb", "not-found-within-bounds")
        except ThresholdNotFound as err:  # threshold absent within depth
            rep.measure(f"{name}.threshold", f"unavailable: {err}")
        try:
            sigma_km = km_sigma(members, table)
            if km.is_finite:
                rep.measure(f"{name}.km_minus_km_sigma", km.value - sigma_km)
        except ZeroMeasureSet:
            rep.measure(f"{name}.km_sigma", "zero-table-mass")
        rep.measure(f"{name}.info_with_halting",
                    _fmt_inf(cx.info_with_halting(encode_string_set(members), cfg)))
    return rep


def _threshold_oracle(counts: list[int], i: int) -> Optional[int]:
    """Naive depth sweep: first length whose scaled count clears 2^-i."""
    lo = Dyadic(1, i)
    hi = lo.shifted(2)
    for n, count in enumerate(counts, start=1):
        massn = Dyadic(count, n)
        if lo < massn and massn < hi:
            return n
    return None


# -- predicates ---------------------------------------------------------------

def exp_predicate(
    pred_family: Optional[list] = None, *, cfg: MachineConfig
) -> ExperimentReport:
    family = pred_family if pred_family is not None else default_predicate_family()
    rep = _report("predicate", cfg, predicates=len(family))

    worked = BinaryPredicate([(2, 0), (4, 0)])
    cyl = cylinder(worked)
    rep.check("worked.cylinder", sorted(cyl.members),
              ["0000", "0010", "1000", "1010"],
              sorted(cyl.members) == ["0000", "0010", "1000", "1010"])
    mass = kraft_sum(cyl)
    rep.check("worked.measure", str(mass), "1/2^2", mass == Dyadic(1, 2))

    for name, g in family:
        cyl = cylinder(g)
        n = max(g.domain)
        rep.check(f"{name}.cardinality", len(cyl), 1 << (n - len(g)),
                  len(cyl) == 1 << (n - len(g)))
        mass = kraft_sum(cyl)
        rep.check(f"{name}.measure", str(mass), f"1/2^{len(g)}", mass == Dyadic(1, len(g)))
        try:
            res = complete_extension_search(g, cfg)
        except ExtensionNotFound:
            rep.check(f"{name}.extension", "not-found", "agreeing extension", False)
            continue
        rep.check(f"{name}.agrees", res.program, "agrees on domain",
                  g.agrees_with(res.raw_output))
        rep.measure(f"{name}.slack", res.bound_slack)
        rep.measure(f"{name}.info_with_halting",
                    _fmt_inf(cx.info_with_halting(encode_predicate(g), cfg)))
        # km_t(cyl) <= k_t(x) for every member x, whose least program outputs
        # x itself, so a slack above c_machine rules out every member
        c = FROZEN["c_machine"]
        if res.bound_slack <= c:
            k = cx.k_set(cyl, "", cfg).value
            if k is not None and k <= len(g) + c:
                rep.check(f"{name}.slack_bound", res.bound_slack, c, res.bound_slack <= c)
    return rep


# -- orchestration ------------------------------------------------------------

# each runner looks its experiment up by name when it runs, so rebinding a
# module-level exp_* function (as a tracer does) reaches every run
_RUNNERS = {
    "set_probability": lambda cfg: [exp_set_probability(cfg=cfg)],
    "info_with_set": lambda cfg: [exp_info_with_set(cfg=cfg)],
    "distortion": lambda cfg: [
        exp_distortion("0000", DistortionSpec("hamming-equal-length", Dyadic(1)), cfg),
        exp_distortion("0000", DistortionSpec("hamming-equal-length", Dyadic(2)), cfg),
        exp_distortion("0110", DistortionSpec("prefix-disagreement", Dyadic(3)), cfg),
    ],
    "clopen": lambda cfg: [exp_clopen(cfg=cfg)],
    "predicate": lambda cfg: [exp_predicate(cfg=cfg)],
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(name: str, cfg: MachineConfig) -> list[ExperimentReport]:
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}")
    return _RUNNERS[name](cfg)


def run_all(cfg: MachineConfig) -> list[ExperimentReport]:
    reports = []
    for name in EXPERIMENTS:
        reports.extend(run_experiment(name, cfg))
    return reports
