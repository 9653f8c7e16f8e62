"""Output checks for each workload.

Each check adds one attempt to a ``Tally`` and records a failure message when
the output is wrong.  The functions used to verify (``run``, ``cache_digest``,
``kraft_sum``) are bound when this module is imported, before any tracing is
installed, so checking never shows up in a trace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ait.codec import encode_self_delim
from ait.complexity import pair_aux_nat
from ait.dyadic import Dyadic
from ait.machine import cache_digest, kraft_sum, run

# sha256 of the concatenated to_jsonl() of run_experiment(name, FIXTURE) over
# EXPERIMENTS, in order, at commit c464a1e
FIXTURE_DIGEST = "385d854c3b79f9c1df393eb54dcfa72dba73ed78389fde0538c5b746dc1ec7b5"

SEED_DIGESTS = Path(__file__).with_name("seed_digests.json")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_seed_digests() -> dict[str, str]:
    with open(SEED_DIGESTS, encoding="ascii") as fh:
        return json.load(fh)["digests"]


def check_fixture(tally: Tally, reports, expected: str = FIXTURE_DIGEST) -> None:
    """Every report passes, and the reports' JSONL, concatenated in
    EXPERIMENTS order, hashes to the recorded digest."""
    digest = hashlib.sha256()
    for rep in reports:
        tally.expect(rep.passed, f"{rep.experiment}: an assertion row failed")
        digest.update(rep.to_jsonl().encode("ascii"))
    tally.expect(digest.hexdigest() == expected,
                 f"fixture digest {digest.hexdigest()} != {expected}")


def check_chain(tally: Tally, rep, fuel: int, c_chain: int) -> None:
    """Every finite k_t witness replays to its target reading exactly its
    length, and the chain-rule gap is finite and at most c_chain."""
    sides = [
        ("k_pair", rep.k_pair, encode_self_delim(rep.x) + encode_self_delim(rep.y), ""),
        ("k_x", rep.k_x, rep.x, ""),
    ]
    if rep.k_x.is_finite:
        sides.append(("k_y_given", rep.k_y_given, rep.y, pair_aux_nat(rep.x, rep.k_x.value)))
    for label, value, target, aux in sides:
        if not value.is_finite:
            continue
        out = run(value.witness, aux, fuel)
        tally.expect(
            out.halted and out.output == target and out.bits_read == value.value
            and len(value.witness) == value.value,
            f"({rep.x!r}, {rep.y!r}) {label}: witness {value.witness!r} does not replay",
        )
    tally.expect(rep.gap is not None and rep.gap <= c_chain,
                 f"({rep.x!r}, {rep.y!r}) gap {rep.gap} exceeds c_chain={c_chain}")


def check_enumeration(tally: Tally, aux: str, records, seed_digests: dict) -> None:
    digest = cache_digest(records)
    tally.expect(digest == seed_digests.get(aux),
                 f"aux {aux!r}: enumeration digest {digest} differs from the seed's")
    tally.expect(kraft_sum(records) <= Dyadic.one(), f"aux {aux!r}: Kraft sum exceeds 1")


def check_omega(tally: Tally, aux: str, border_bits: str, omega, omega_hat) -> None:
    """0 <= omega_hat <= omega <= 1 and omega - omega_hat <= 2^-len(border)."""
    tally.expect(
        Dyadic.zero() <= omega_hat <= omega <= Dyadic.one()
        and omega - omega_hat <= Dyadic(1, len(border_bits)),
        f"aux {aux!r}: omega pair ({omega}, {omega_hat}) out of order",
    )


def check_hitting(tally: Tally, z, score, i: int, c: int, d: int) -> None:
    size = c * d * (1 << (i + 1))
    tally.expect(len(z.elements) == size,
                 f"hitting vector has {len(z.elements)} elements, not {size}")
    tally.expect(score <= 1, f"hitting score {score} exceeds 1")


def check_shannon_fano(tally: Tally, source, code, decode) -> None:
    """Code lengths are -log P(x) + 1 for the power-of-two source, and every
    codeword decodes back to its string."""
    for x, neg_log in source:
        word = code.get(x, "")
        try:
            back = decode(code, word)
        except ValueError:
            back = None
        tally.expect(len(word) == neg_log + 1 and back == x,
                     f"Shannon-Fano codeword {word!r} for {x!r} is wrong")


def check_lab(tally: Tally, lab: dict, seed_digests: dict, c_nu: int, decode) -> None:
    """The exhaustive_lab outputs, as collected by the worker."""
    for aux, records in lab["enumerations"]:
        check_enumeration(tally, aux, records, seed_digests)
    for aux, border_bits, omega, omega_hat in lab["omega"]:
        check_omega(tally, aux, border_bits, omega, omega_hat)
    for aux, holds in lab["coding"]:
        tally.expect(holds is True, f"aux {aux!r}: coding direction fails")
    for aux, bits, max_len in lab["proxy"]:
        tally.expect(len(bits) == (1 << (max_len + 1)) - 1,
                     f"aux {aux!r}: halting proxy has {len(bits)} bits")
    for gap in lab["nu_gaps"]:
        tally.expect(gap <= c_nu, f"measure-matching gap {gap} exceeds c_nu={c_nu}")
    for z, score, i, c, d in lab["hitting"]:
        check_hitting(tally, z, score, i, c, d)
    for source, code in lab["codes"]:
        check_shannon_fano(tally, source, code, decode)
