"""The acceptance gate: one test per criterion, each printing a PASS line.

Every assertion here is exact (integer or dyadic comparison) at the fixture
bounds L=14, fuel=2048 unless the criterion states otherwise.  Stated
runtime budgets are asserted too.
"""

import io
import time
from contextlib import redirect_stdout

from ait import codec
from ait.codec import prefix_pair
from ait.dyadic import Dyadic, ceil_neg_log2
from ait.frozen import FIXTURE, FROZEN
from ait.machine import enumerate_halting, kraft_sum, run


def _announce(number: int, ok: bool, label: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_machine_soundness(enumeration):
    started = time.time()
    programs = [r.program for r in enumeration]
    prefix_free = prefix_pair(programs) is None

    kraft_ok = kraft_sum(enumeration) <= Dyadic.one()

    from ait.machine import cache_digest

    again = enumerate_halting(FIXTURE, "")
    deterministic = cache_digest(again) == cache_digest(enumeration)

    # exhaustive 2^14 sweep: a full-length string halts exactly when one of
    # the enumerated minimal programs is its prefix, reading exactly that far
    prog_set = set(programs)
    sweep_ok = True
    for v in range(1 << 14):
        s = format(v, "014b")
        out = run(s, "", FIXTURE.fuel)
        owner = next((s[:i] for i in range(len(s) + 1) if s[:i] in prog_set), None)
        if owner is None:
            sweep_ok &= not out.halted
        else:
            sweep_ok &= out.halted and out.bits_read == len(owner)
        if not sweep_ok:
            break

    elapsed = time.time() - started
    _announce(1, prefix_free and kraft_ok and deterministic and sweep_ok
              and elapsed <= 30,
              f"machine soundness (prefix-free, Kraft <= 1, deterministic, "
              f"sweep; {elapsed:.1f}s <= 30s)")


def test_criterion_02_left_total_transform(interval_table):
    from ait.leftward import is_total_uprime
    from oracles import is_total_uprime_by_walk, table_pieces, tiles

    started = time.time()
    L = FIXTURE.max_program_len
    pieces = table_pieces(interval_table)
    uprime_prefix_free = prefix_pair([p.program for p in pieces]) is None

    # every q left of a transformed halting program is total, all lengths <= L
    omega = interval_table.omega_grid
    max_lo = max(p.lo for p in pieces)
    left_totality = True
    for n in range(0, L + 1):
        width = 1 << (L - n)
        for v in range(1 << n):
            hi = (v + 1) * width
            has_right_program = max_lo >= hi
            total = hi <= omega
            if has_right_program and not total:
                left_totality = False
    # the interval totality rule agrees with an independent tree walk
    oracle_ok = all(
        is_total_uprime(format(v, f"0{n}b") if n else "", interval_table)
        == is_total_uprime_by_walk(format(v, f"0{n}b") if n else "", interval_table)
        for n in range(0, 9) for v in range(1 << n)
    )

    # every base program has a transformed program at most one bit longer
    one_bit = True
    for rec, lo, hi in tiles(interval_table):
        best = min(len(p.program) for p in pieces if p.lo >= lo and p.hi <= hi)
        same_out = all(p.output == rec.output
                       for p in pieces if p.lo >= lo and p.hi <= hi)
        one_bit &= best <= len(rec.program) + 1 and same_out

    elapsed = time.time() - started
    _announce(2, uprime_prefix_free and left_totality and oracle_ok and one_bit
              and elapsed <= 120,
              f"left-total transform (exhaustive totality, prefix-free, "
              f"+1-bit simulation; {elapsed:.1f}s <= 120s)")


def test_criterion_03_border_and_omega(interval_table):
    from ait.leftward import border_prefix, omega_pair
    from oracles import is_total_uprime_by_walk, table_pieces

    b = border_prefix(FIXTURE)
    pieces = table_pieces(interval_table)
    om, om_hat = omega_pair(b, FIXTURE)
    gap_ok = Dyadic.zero() <= om - om_hat <= Dyadic(1, len(b.bits))

    # independent brute-force walk using only the tree-walk oracle
    def subtree_has_halting(x):
        lo = int(x, 2) << (14 - len(x)) if x else 0
        hi = (int(x, 2) + 1) << (14 - len(x)) if x else 1 << 14
        return any(lo <= p.lo and p.hi <= hi for p in pieces)

    x = ""
    while len(x) < 14:
        right, left = x + "1", x + "0"
        if subtree_has_halting(right) and not is_total_uprime_by_walk(
                right, interval_table):
            x = right
        elif subtree_has_halting(left) and not is_total_uprime_by_walk(
                left, interval_table):
            x = left
        else:
            break
    _announce(3, gap_ok and x == b.bits,
              f"border prefix (len {len(b.bits)}) with 0 <= omega gap <= 2^-|b|")


def test_criterion_04_coding_direction(enumeration):
    from ait.complexity import coding_direction_holds, k_t, km_t, m_set
    from ait.harness import default_set_family
    from oracles import default_prefix_free_family

    exhaustive = coding_direction_holds(FIXTURE)

    floors = True
    for _name, members in default_set_family(100):
        mass = m_set(members, "", FIXTURE)
        best = min(k_t(x, "", FIXTURE).value for x in members)
        floors &= ceil_neg_log2(mass) <= best

    km_ok = True
    for _name, members in default_prefix_free_family(50):
        km = km_t(members, FIXTURE)
        best = min(k_t(x, "", FIXTURE).value for x in members)
        km_ok &= km.is_finite and km.value <= best

    _announce(4, exhaustive and floors and km_ok,
              "coding-direction inequalities (exhaustive + 100 sets + 50 "
              "prefix-free sets, zero violations)")


def test_criterion_05_transducer_compiler():
    from ait.dyadic import ceil_neg_log2 as cnl
    from ait.monotone import (
        NuFunction, build_nu, measure_matching_gap, point_mass_table,
        random_pow2_table, uniform_table,
    )
    from oracles import xi

    started = time.time()
    tables = [uniform_table(6), point_mass_table(6)] + [
        random_pow2_table(seed, 5) for seed in range(10)
    ]
    xi_ok = True
    mono_ok = True
    gap_ok = True
    for t in tables:
        tr = build_nu(t)
        for st in tr.stages[1:]:
            for x in t.support(st.k):
                xi_ok &= xi(st, x) == cnl(t.theta(x, st.k))
        nu = NuFunction(tr)
        for n in range(0, nu.depth):
            for v in range(1 << n):
                y = format(v, f"0{n}b") if n else ""
                image = nu.apply(y)
                mono_ok &= all(nu.apply(y + b).startswith(image) for b in "01")
        gap = measure_matching_gap(t)
        gap_ok &= gap <= FROZEN["c_nu"] <= 2
    elapsed = time.time() - started
    _announce(5, xi_ok and mono_ok and gap_ok and elapsed <= 120,
              f"transducer compiler (xi-equality, totality+monotonicity, "
              f"gap <= c_nu={FROZEN['c_nu']} <= 2; {elapsed:.1f}s <= 120s)")


def test_criterion_06_threshold_shape():
    from ait.monotone import (
        NuFunction, ThresholdNotFound, build_nu, preimage_count,
        random_pow2_table, threshold_N, uniform_table,
    )

    fixtures = []
    for t in (uniform_table(5), random_pow2_table(1, 5), random_pow2_table(4, 5)):
        nu = NuFunction(build_nu(t))
        for members in (["0"], ["00", "01"], ["1"]):
            fixtures.append((nu, members))

    ok = True
    checked = 0
    for nu, members in fixtures:
        counts = {n: preimage_count(nu, members, n) for n in range(1, nu.depth + 1)}
        ok &= all(counts[n + 1] >= 2 * counts[n] for n in range(1, nu.depth))
        if counts[nu.depth] == 0:
            continue
        try:
            n_prime, i = threshold_N(nu, members)  # clause checks run inside
        except ThresholdNotFound:
            continue
        lo, hi = Dyadic(1, i), Dyadic(1, i).shifted(2)
        naive = next(n for n in range(1, nu.depth + 1)
                     if lo < Dyadic(counts[n], n) < hi)
        ok &= n_prime == naive
        checked += 1
    _announce(6, ok and checked >= 6,
              f"preimage doubling and two-sided threshold ({checked} "
              "fixture triples vs the naive sweep)")


def test_criterion_07_hitting_vectors():
    from fractions import Fraction

    from ait.codec import Lcg, decode_string_set, encode_string_set
    from ait.measures import ElementaryMeasure, hitting_score, hitting_vector

    rng = Lcg(5).next  # the stream starting from state 11

    built = 0
    ok = True
    while built < 50:
        n_elems = 2 + rng(3)
        elems = [format(v, "02b") for v in range(n_elems)]
        m = ElementaryMeasure({e: Fraction(1, n_elems) for e in elems})
        i = 1 + rng(2)
        c, d = 1 + rng(2), 1 + rng(2)
        sets = set()
        for _ in range(1 + rng(3)):
            members = frozenset(elems[rng(n_elems)] for _ in range(1 + rng(n_elems)))
            if m.mass_of(members) >= Fraction(1, 1 << i):
                sets.add(members)
        if not sets:
            continue
        q = ElementaryMeasure(
            {encode_string_set(s): Fraction(1, len(sets)) for s in sets}
        )
        z = hitting_vector(q, m, i=i, c=c, d=d)
        ok &= len(z.elements) == c * d * (1 << (i + 1))
        score = hitting_score(z, q, m)
        ok &= score <= 1
        for enc in q.support:
            if q(enc) > Fraction(1, 1 << (c * d)):
                ok &= bool(set(decode_string_set(enc)) & set(z.elements))
        built += 1
    _announce(7, ok, "hitting vectors: 50 instances, exact size, score <= 1, "
                     "heavy sets intersected")


def test_criterion_08_predicate_completion():
    from ait.complexity import k_t
    from ait.harness import default_predicate_family
    from ait.predicates import BinaryPredicate, complete_extension_search, cylinder

    worked = cylinder(BinaryPredicate([(2, 0), (4, 0)]))
    worked_ok = sorted(worked.members) == ["0000", "0010", "1000", "1010"] \
        and codec.kraft_sum(worked) == Dyadic(1, 2)

    agree_ok = True
    slack_ok = True
    for _name, g in default_predicate_family(200):
        res = complete_extension_search(g, FIXTURE)
        agree_ok &= g.agrees_with(res.raw_output)
        cheap = [x for x in cylinder(g)
                 if (k := k_t(x, "", FIXTURE)).is_finite
                 and k.value <= len(g) + FROZEN["c_machine"]]
        if cheap:
            slack_ok &= res.bound_slack <= FROZEN["c_machine"]
    _announce(8, worked_ok and agree_ok and slack_ok,
              "predicate completion (worked example exact; 200 predicates "
              "agree; slack bound where a cheap member exists)")


def test_criterion_09_unique_total_searches():
    from ait.harness import (
        DistortionSpec, default_set_family, exp_clopen, exp_distortion,
        exp_set_probability,
    )

    rows = exp_set_probability(default_set_family(40), cfg=FIXTURE).rows
    rows += exp_distortion("0000", DistortionSpec("hamming-equal-length",
                                                  Dyadic(2)), FIXTURE).rows
    rows += exp_clopen(cfg=FIXTURE).rows
    searches = [r for r in rows
                if r["name"].endswith(("b_unique", "b_recovered", "b_for_bb",
                                       "b.found"))]
    ran = sum(1 for r in searches if r["kind"] == "assert")
    ok = all(r["pass"] for r in searches if r["kind"] == "assert")
    _announce(9, ok and ran >= 40,
              f"shortest-total-string searches unique at their length "
              f"({ran} exhaustive level scans)")


def test_criterion_10_monotonicity_suite(enumeration, double_fuel_cfg):
    from ait.complexity import halting_proxy, k_t, m_t
    from ait.leftward import bb, get_interval_table, m_b, total_strings_of_length

    # fuel t vs 2t over the full corpus reachable at the larger fuel
    big = {r.output for r in enumerate_halting(double_fuel_cfg, "")}
    k_ok = m_ok = True
    for x in sorted(big, key=lambda s: (len(s), s)):
        k_small = k_t(x, "", FIXTURE)
        k_large = k_t(x, "", double_fuel_cfg)
        if k_small.is_finite:
            k_ok &= k_large.is_finite and k_large.value <= k_small.value
        m_ok &= m_t(x, "", FIXTURE) <= m_t(x, "", double_fuel_cfg)
    proxy_ok = all(
        a <= b for a, b in zip(halting_proxy(FIXTURE).bits,
                               halting_proxy(double_fuel_cfg).bits)
    )

    table = get_interval_table(FIXTURE, "")
    probes = sorted({r.output for r in enumeration if len(r.output) <= 4},
                    key=lambda s: (len(s), s))
    pair_ok = True
    for n in range(1, 11):
        for b in total_strings_of_length(n, table):
            parent = b[:-1]
            if Dyadic(int(parent, 2) + 1 if parent else 1,
                      len(parent)) > table.omega:
                continue  # parent not total
            pair_ok &= bb(parent, FIXTURE) >= bb(b, FIXTURE)
            for x in probes:
                pair_ok &= m_b(parent, x, "", FIXTURE) >= m_b(b, x, "", FIXTURE)
    _announce(10, k_ok and m_ok and proxy_ok and pair_ok,
              "monotonicity suite (k antitone, m and proxy monotone in fuel; "
              "parent dominance for bb and m_b; zero violations)")


def test_criterion_11_determinism(tmp_path):
    from ait.cli import main

    commands = [
        ["k", "0101"],
        ["m", "0"],
        ["omega"],
        ["border"],
        ["mb", "--prefix", "0", "--target", "0"],
        ["machine", "enumerate", "--max-len", "12", "--fuel", "1024"],
        ["experiment", "predicate"],
        ["experiment", "clopen"],
        ["experiment", "info_with_set"],
        ["experiment", "distortion"],
        ["experiment", "set_probability"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = main(argv)
            ok &= rc == 0
            outputs.append(buf.getvalue())
        ok &= outputs[0] == outputs[1] and outputs[0] != ""
    _announce(11, ok, "byte-identical CLI command and experiment reruns "
                      "over a warm cache")
