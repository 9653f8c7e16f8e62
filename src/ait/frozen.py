"""Measured machine constants, frozen after first calibration.

Every additive constant below is a property of the frozen reference machine
at the fixture bounds, measured once by ``calibrate()`` and then written
here by hand (or via ``ait calibrate --write`` from a source checkout).
Tests assert against these frozen values so they cannot silently re-baseline;
``ait calibrate`` recomputes and reports drift.
"""

from __future__ import annotations

from . import complexity as cx
from .codec import all_strings_upto
from .dyadic import Dyadic
from .machine import MachineConfig
from .measures import deficiency_test_sum, uniform_measure
from .monotone import measure_matching_gap, point_mass_table, random_pow2_table, uniform_table

# Fixture bounds: CI scale (seconds per experiment).
FIXTURE = MachineConfig(max_program_len=14, fuel=2048)

# Bounds for chain-rule sweeps, where pair encodings must stay reachable.
CHAIN = MachineConfig(max_program_len=48, fuel=4096)

FROZEN = {
    # literal-emit overhead: max over len(y) <= 6 of k_t(y) - (2 len(y) + 1)
    "c_machine": 1,
    # aux-copy overhead: max over the corpus of k_t(x | x)
    "c_copy": 7,
    # chain-rule gap: max over the corpus of k_t(x,y) - k_t(x) - k_t(y | <x, k_t(x)>)
    "c_chain": 19,
    # deficiency-as-test slack: least c with sum 2^d(a) W(a) <= 2^c over the family
    "c_test": 0,
    # transducer measure-matching gap (must be <= 2 per the acceptance gate)
    "c_nu": 0,
}


class CalibrationUndefined(RuntimeError):
    """A constant needs a complexity that is infinite at the given bounds."""


def calibrate(cfg: MachineConfig = FIXTURE) -> dict[str, int]:
    """Recompute every measured constant; compare with FROZEN for drift."""
    def k(x: str, y: str) -> int:
        value = cx.k_t(x, y, cfg).value
        if value is None:
            raise CalibrationUndefined(f"k_t({x!r} | {y!r}) is infinite at these bounds")
        return value

    out: dict[str, int] = {}
    worst = 0
    for y in all_strings_upto(6):
        worst = max(worst, k(y, "") - (2 * len(y) + 1))
    out["c_machine"] = worst
    out["c_copy"] = max(k(x, x) for x in all_strings_upto(6))

    worst = 0
    for x in all_strings_upto(5):
        for y in all_strings_upto(5):
            rep = cx.chain_rule_report(x, y, CHAIN)
            if rep.gap is not None:
                worst = max(worst, rep.gap)
    out["c_chain"] = worst

    worst = 0
    for n in (1, 2, 3):
        total = deficiency_test_sum(uniform_measure(n), "", cfg)
        c = 0
        while total > Dyadic.pow2(c).as_fraction():
            c += 1
        worst = max(worst, c)
    out["c_test"] = worst

    tables = [uniform_table(6), point_mass_table(6)] + [
        random_pow2_table(seed, 5) for seed in range(10)
    ]
    out["c_nu"] = max(measure_matching_gap(t) for t in tables)
    return out

