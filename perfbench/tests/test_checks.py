"""Each output check passes on a real result and fails once it is corrupted."""

import dataclasses
from fractions import Fraction

from ait.codec import encode_string_set
from ait.complexity import ComplexityValue, chain_rule_report
from ait.dyadic import Dyadic
from ait.frozen import CHAIN, FROZEN
from ait.harness import ExperimentReport
from ait.machine import MachineConfig, enumerate_halting
from ait.measures import ElementaryMeasure, hitting_score, hitting_vector, shannon_fano, \
    shannon_fano_decode

import checks
from checks import Tally


def _failed(check, *args) -> int:
    tally = Tally()
    check(tally, *args)
    assert tally.attempted >= 1
    return tally.failed


def _report(ok=True):
    rep = ExperimentReport("demo", {"max_len": 14}, "abc")
    rep.check("one", 1, 1, ok)
    rep.measure("two", Dyadic(3, 3))
    return rep


def test_fixture_digest_and_assertions():
    expected = __import__("hashlib").sha256(_report().to_jsonl().encode()).hexdigest()
    assert _failed(checks.check_fixture, [_report()], expected) == 0
    altered = _report()
    altered.measure("extra", 1)
    assert _failed(checks.check_fixture, [altered], expected) == 1
    assert _failed(checks.check_fixture, [_report(ok=False)], expected) == 2
    assert _failed(checks.check_fixture, [_report()], "0" * 64) == 1


def test_chain_witnesses_replay_and_the_gap_is_bounded():
    rep = chain_rule_report("01", "1", CHAIN)
    assert _failed(checks.check_chain, rep, CHAIN.fuel, FROZEN["c_chain"]) == 0
    wrong = ComplexityValue(rep.k_x.value, rep.k_pair.witness, CHAIN)
    assert _failed(checks.check_chain, dataclasses.replace(rep, k_x=wrong),
                   CHAIN.fuel, FROZEN["c_chain"]) == 1
    short = ComplexityValue(rep.k_pair.value - 1, rep.k_pair.witness, CHAIN)
    assert _failed(checks.check_chain, dataclasses.replace(rep, k_pair=short),
                   CHAIN.fuel, FROZEN["c_chain"]) == 1
    assert _failed(checks.check_chain, dataclasses.replace(rep, gap=FROZEN["c_chain"] + 1),
                   CHAIN.fuel, FROZEN["c_chain"]) == 1
    assert _failed(checks.check_chain, dataclasses.replace(rep, gap=None),
                   CHAIN.fuel, FROZEN["c_chain"]) == 1


def test_enumeration_digest_and_kraft_sum():
    digests = checks.load_seed_digests()
    records = enumerate_halting(MachineConfig(20, 2048), "1")
    assert _failed(checks.check_enumeration, "1", records, digests) == 0
    assert _failed(checks.check_enumeration, "1", records[:-1], digests) == 1
    assert _failed(checks.check_enumeration, "1", records, {"1": "f" * 64}) == 1
    doubled = records + [dataclasses.replace(r, program=r.program + "x") for r in records]
    assert _failed(checks.check_enumeration, "1", doubled, digests) == 2


def test_omega_pair_order():
    assert _failed(checks.check_omega, "", "0110", Dyadic(5, 4), Dyadic(4, 4)) == 0
    assert _failed(checks.check_omega, "", "0110", Dyadic(4, 4), Dyadic(5, 4)) == 1
    assert _failed(checks.check_omega, "", "0110", Dyadic(15, 4), Dyadic(1, 4)) == 1


def _hitting():
    elems = ["00", "01", "10", "11"]
    m = ElementaryMeasure({e: Fraction(1, 4) for e in elems})
    sets = [("00", "01"), ("10",), ("11", "01")]
    q = ElementaryMeasure({encode_string_set(s): Fraction(1, 3) for s in sets})
    z = hitting_vector(q, m, 2, 1, 1)
    return z, hitting_score(z, q, m)


def test_hitting_vector_size_and_score():
    z, score = _hitting()
    assert _failed(checks.check_hitting, z, score, 2, 1, 1) == 0
    cut = dataclasses.replace(z, elements=z.elements[:-1])
    assert _failed(checks.check_hitting, cut, score, 2, 1, 1) == 1
    assert _failed(checks.check_hitting, z, Fraction(3, 2), 2, 1, 1) == 1


def test_shannon_fano_codes():
    source = [["0", 1], ["10", 2], ["11", 2]]
    code = shannon_fano(ElementaryMeasure({x: Fraction(1, 1 << n) for x, n in source}))
    assert _failed(checks.check_shannon_fano, source, code, shannon_fano_decode) == 0
    bad = dict(code, **{"10": code["0"]})
    assert _failed(checks.check_shannon_fano, source, bad, shannon_fano_decode) >= 1


def test_lab_outcome_checks():
    z, score = _hitting()
    lab = {"enumerations": [], "omega": [], "coding": [("", True)],
           "proxy": [("", "1" * 7, 2)], "nu_gaps": [0], "hitting": [(z, score, 2, 1, 1)],
           "codes": []}
    args = (checks.load_seed_digests(), FROZEN["c_nu"], shannon_fano_decode)
    assert _failed(checks.check_lab, lab, *args) == 0
    for key, bad in (("coding", [("", False)]), ("proxy", [("", "1" * 6, 2)]),
                     ("nu_gaps", [FROZEN["c_nu"] + 1])):
        assert _failed(checks.check_lab, dict(lab, **{key: bad}), *args) == 1
