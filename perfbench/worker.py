"""One timed pass over one workload, in a fresh interpreter.

Reads a JSON spec on stdin (workload, inputs, trace, run id, trace path and
the functions to trace), runs the pass, checks its outputs after the clock
stops, and prints one JSON line with the pass's figures.  ``run.py`` starts
this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

from ait import complexity as cx
from ait import harness
from ait import leftward as lw
from ait import machine as mc
from ait import measures as me
from ait import monotone as mo
from ait.codec import encode_string_set
from ait.dyadic import Dyadic, ceil_neg_log2, dyadic_sum
from ait.frozen import CHAIN, FIXTURE, FROZEN

import checks
from tracer import Tracer, install, summarize

# exhaustive_lab bounds: cold enumerations of 17,595 programs each
LAB = mc.MachineConfig(max_program_len=20, fuel=2048)


def _timed(items: list, errors: list, label: str, fn):
    """Run one top-level call, record its latency; an exception becomes a
    failed check instead of ending the pass."""
    start = time.perf_counter()
    try:
        return fn()
    except Exception as err:
        errors.append(f"{label}: {type(err).__name__}: {err}")
        return None
    finally:
        items.append(time.perf_counter() - start)


def fixture_experiments(inputs: dict, items: list, errors: list):
    reports = []
    for name in harness.EXPERIMENTS:
        reports += _timed(items, errors, name,
                          lambda: harness.run_experiment(name, FIXTURE)) or []
    return reports


def chain_sample(inputs: dict, items: list, errors: list):
    return [_timed(items, errors, f"chain({x!r}, {y!r})",
                   lambda: cx.chain_rule_report(x, y, CHAIN))
            for x, y in inputs["pairs"]]


def _lab_aux(aux: str, member_sets, bb_max_len: int, lab: dict) -> None:
    records = mc.get_enumeration(LAB, aux)
    table = lw.get_interval_table(LAB, aux)
    border = lw.border_prefix(LAB, aux)
    omega, omega_hat = lw.omega_pair(border, LAB, aux)
    for n in range(1, bb_max_len + 1):
        for b in lw.total_strings_of_length(n, table):
            lw.bb(b, LAB, aux)
    stats = cx.output_stats(LAB, aux)
    holds = cx.coding_direction_holds(LAB, aux)
    for members in member_sets:
        mass = dyadic_sum(stats[x][1] for x in members)
        bound = Dyadic(1, 1 + ceil_neg_log2(mass))
        try:
            lw.shortest_total_satisfying(
                lambda b: lw.m_b_set(b, members, aux, LAB) >= bound, LAB, aux)
        except lw.TotalSearchNotFound:
            pass  # a legitimate outcome within bounds; found_ratio counts it
    proxy = cx.halting_proxy(FIXTURE, aux)
    lab["enumerations"].append((aux, records))
    lab["omega"].append((aux, border.bits, omega, omega_hat))
    lab["coding"].append((aux, holds))
    lab["proxy"].append((aux, proxy.bits, FIXTURE.max_program_len))


def _theta_table(spec):
    kind = spec[0]
    if kind == "uniform":
        return mo.uniform_table(spec[1])
    if kind == "point_mass":
        return mo.point_mass_table(spec[1])
    return mo.random_pow2_table(spec[1], spec[2])


def _lab_table(spec, member_sets, probes, lab: dict) -> None:
    table = _theta_table(spec)
    nu = mo.NuFunction(mo.build_nu(table))
    for y in probes:
        nu.apply(y)
    for members in member_sets:
        mo.preimage_count(nu, members, nu.depth)
        try:
            mo.threshold_N(nu, members)
        except mo.ThresholdNotFound:
            pass  # no length meets the two-sided bound within the built depth
        try:
            mo.km_sigma(members, table)
        except mo.ZeroMeasureSet:
            pass  # the set carries no table mass
    lab["nu_gaps"].append(mo.measure_matching_gap(table))


def _lab_hitting(inst: dict, lab: dict) -> None:
    elems = inst["elements"]
    m = me.ElementaryMeasure({e: Fraction(1, len(elems)) for e in elems})
    q = me.ElementaryMeasure({encode_string_set(s): Fraction(1, len(inst["sets"]))
                              for s in inst["sets"]})
    z = me.hitting_vector(q, m, inst["i"], inst["c"], inst["d"])
    score = me.hitting_score(z, q, m)
    lab["hitting"].append((z, score, inst["i"], inst["c"], inst["d"]))


def _lab_code(source, lab: dict) -> None:
    p = me.ElementaryMeasure({x: Fraction(1, 1 << n) for x, n in source})
    lab["codes"].append((source, me.shannon_fano(p)))


def exhaustive_lab(inputs: dict, items: list, errors: list):
    lab = {key: [] for key in
           ("enumerations", "omega", "coding", "proxy", "nu_gaps", "hitting", "codes")}
    for aux, member_sets in zip(inputs["aux"], inputs["member_sets"]):
        _timed(items, errors, f"aux {aux!r}",
               lambda: _lab_aux(aux, member_sets, inputs["bb_max_len"], lab))
    # the seeded random tables, hitting instances and codes are each timed as
    # one batch: their single costs differ widely from seed to seed, and a
    # batch keeps the item percentiles on comparable calls
    tables = list(zip(inputs["tables"], inputs["table_members"], inputs["apply_inputs"]))
    for spec, member_sets, probes in tables:
        if spec[0] != "random":
            _timed(items, errors, f"table {spec}",
                   lambda: _lab_table(spec, member_sets, probes, lab))
    _timed(items, errors, "random tables",
           lambda: [_lab_table(*table, lab) for table in tables if table[0][0] == "random"])
    _timed(items, errors, "hitting vectors",
           lambda: [_lab_hitting(inst, lab) for inst in inputs["hitting"]])
    _timed(items, errors, "shannon_fano codes",
           lambda: [_lab_code(source, lab) for source in inputs["shannon_fano"]])
    return lab


WORKLOADS = {
    "fixture_experiments": fixture_experiments,
    "chain_sample": chain_sample,
    "exhaustive_lab": exhaustive_lab,
}


def check(workload: str, outcome, errors: list) -> checks.Tally:
    tally = checks.Tally()
    for error in errors:
        tally.expect(False, error)
    if workload == "fixture_experiments":
        checks.check_fixture(tally, outcome)
    elif workload == "chain_sample":
        for rep in outcome:
            if rep is not None:
                checks.check_chain(tally, rep, CHAIN.fuel, FROZEN["c_chain"])
    else:
        checks.check_lab(tally, outcome, checks.load_seed_digests(), FROZEN["c_nu"],
                         me.shannon_fano_decode)
    return tally


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec = json.load(sys.stdin)
    workload = spec["workload"]
    tracer = restore = None
    if spec["trace"]:
        tracer = Tracer(spec["run_id"])
        restore = install(tracer, spec["functions"])
    items: list[float] = []
    errors: list[str] = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outcome = WORKLOADS[workload](spec["inputs"], items, errors)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    summary = None
    if tracer is not None:
        restore()
        tracer.write(spec["trace_path"])
        summary = summarize(tracer.spans)
    tally = check(workload, outcome, errors)
    rows = sum(len(rep.rows) for rep in outcome) if workload == "fixture_experiments" else 0
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "peak_rss_mb": after.ru_maxrss / 1024,
        "items_s": items,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "report_rows": rows,
        "trace": summary,
    }))


if __name__ == "__main__":
    main()
