import contextlib
import io
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ait import complexity, harness, machine
from ait.cli import main
from ait.codec import PrefixFreeSet, encode_string_set
from ait.dyadic import Dyadic
from ait.frozen import FROZEN
from ait.harness import (
    DistortionSpec,
    default_predicate_family,
    default_set_family,
    distortion_ball,
    exp_clopen,
    exp_distortion,
    exp_info_with_set,
    exp_predicate,
    exp_set_probability,
    s_n_set,
)
from ait.machine import cache_digest, get_enumeration
from ait.measures import HittingInfeasible
from ait.monotone import (
    ThresholdNotFound,
    ZeroMeasureSet,
    build_nu,
    point_mass_table,
    random_pow2_table,
    uniform_table,
)
from oracles import default_prefix_free_family


@pytest.fixture(scope="module")
def small_families():
    return {
        "sets": default_set_family(12),
        "pfs": default_prefix_free_family(8),
        "preds": default_predicate_family(12),
    }


def test_set_probability_report(fixture_cfg, small_families):
    rep = exp_set_probability(small_families["sets"], cfg=fixture_cfg)
    assert rep.passed
    names = {r["name"] for r in rep.rows}
    assert any(n.endswith(".floor") for n in names)
    assert any(n.startswith("S_4.") for n in names)
    # every assertion row is an exact comparison that actually ran
    assert all(r["pass"] is not None for r in rep.rows if r["kind"] == "assert")


def test_info_with_set_report(fixture_cfg, small_families):
    rep = exp_info_with_set(small_families["sets"], cfg=fixture_cfg)
    assert rep.passed
    assert any(n["name"].endswith("tau_semimeasure") for n in rep.rows)


def test_distortion_hamming_radius_one(fixture_cfg):
    spec = DistortionSpec("hamming-equal-length", Dyadic(1))
    assert distortion_ball("0000", spec) == ["0000"]
    rep = exp_distortion("0000", spec, fixture_cfg)
    assert rep.passed
    k_row = [r for r in rep.rows if r["name"] == "codeword.k"][0]
    assert k_row["lhs"] == 10


def test_distortion_hamming_radius_two(fixture_cfg):
    spec = DistortionSpec("hamming-equal-length", Dyadic(2))
    ball = distortion_ball("0000", spec)
    assert sorted(ball) == ["0000", "0001", "0010", "0100", "1000"]
    rep = exp_distortion("0000", spec, fixture_cfg)
    assert rep.passed
    # brute-force check of the chosen codeword
    from ait.complexity import k_t

    best = min(ball, key=lambda x: (k_t(x, "", fixture_cfg).value, len(x), x))
    row = [r for r in rep.rows if r["name"] == "codeword.exists"][0]
    assert row["lhs"] == best


def test_distortion_prefix_kind(fixture_cfg):
    spec = DistortionSpec("prefix-disagreement", Dyadic(3))
    ball = distortion_ball("01", spec)
    # within tree distance 3 of "01": its prefixes, itself, and children
    assert "01" in ball and "0" in ball and "010" in ball and "0100" in ball
    assert "11" not in ball  # distance 4
    rep = exp_distortion("01", spec, fixture_cfg)
    assert rep.passed


def test_distortion_radius_larger_than_everything(fixture_cfg):
    spec = DistortionSpec("hamming-equal-length", Dyadic(5))
    ball = distortion_ball("000", spec)
    assert len(ball) == 8  # the whole length class
    rep = exp_distortion("000", spec, fixture_cfg)
    assert rep.passed


def test_clopen_report(fixture_cfg):
    rep = exp_clopen(cfg=fixture_cfg)
    assert rep.passed
    names = [r["name"] for r in rep.rows]
    assert any(n.endswith("threshold_oracle") for n in names)
    assert any(n.endswith("b_for_bb") for n in names)


@pytest.mark.parametrize("target, error, row", [
    ("threshold_N", AssertionError("two-sided bound fails above the threshold"), None),
    ("threshold_N", ThresholdNotFound("none in depth"), "g0.threshold"),
    ("km_sigma", ZeroMeasureSet("no table mass"), "g0.km_sigma"),
])
def test_clopen_measures_only_absent_results(target, error, row, fixture_cfg, monkeypatch):
    # an absent threshold or a zero table mass is a measurement row; any
    # other failure, such as an internal check in threshold_N, must raise
    import ait.harness as harness

    def fail(*args):
        raise error

    monkeypatch.setattr(harness, target, fail)
    family = [("g0", PrefixFreeSet(["0"]))]
    if row is None:
        with pytest.raises(AssertionError):
            exp_clopen(family, cfg=fixture_cfg)
    else:
        rows = {r["name"]: r for r in exp_clopen(family, cfg=fixture_cfg).rows}
        assert rows[row]["kind"] == "measure"


def test_predicate_report(fixture_cfg, small_families):
    rep = exp_predicate(small_families["preds"], cfg=fixture_cfg)
    assert rep.passed
    worked = [r for r in rep.rows if r["name"] == "worked.cylinder"][0]
    assert worked["pass"] is True


def test_predicate_slack_gate_asks_the_set_only_within_the_bound(fixture_cfg, monkeypatch):
    # km_t(cyl) <= k_t(x) for every member x, so only a predicate whose slack
    # is within c_machine can have a member cheap enough for the slack_bound row
    asked = []
    k_set = complexity.k_set
    monkeypatch.setattr(complexity, "k_set", lambda *args: asked.append(args) or k_set(*args))
    rep = exp_predicate(default_predicate_family(), cfg=fixture_cfg)
    slacks = [r["lhs"] for r in rep.rows if r["name"].endswith(".slack")]
    assert len(slacks) == 200
    assert len(asked) == sum(s <= FROZEN["c_machine"] for s in slacks) == 0


def test_report_rows_schema(fixture_cfg, small_families):
    rep = exp_predicate(small_families["preds"][:3], cfg=fixture_cfg)
    for line in rep.to_jsonl().splitlines():
        row = json.loads(line)
        assert set(row) == {"experiment", "name", "kind", "lhs", "rhs", "pass"}
        assert row["kind"] in ("assert", "measure")
        if row["kind"] == "measure":
            assert row["pass"] is None


def test_report_determinism(fixture_cfg, small_families):
    a = exp_set_probability(small_families["sets"], cfg=fixture_cfg).to_jsonl()
    b = exp_set_probability(small_families["sets"], cfg=fixture_cfg).to_jsonl()
    assert a == b


def test_reports_hash_the_enumeration_once_per_bounds(monkeypatch, small_cfg):
    monkeypatch.setattr(machine, "_BUILT", {})
    digests = []

    def counted(records):
        digests.append(cache_digest(records))
        return digests[-1]

    monkeypatch.setattr(harness, "cache_digest", counted)
    reports = harness.run_experiment("distortion", small_cfg)
    assert len(reports) == 3 and digests == [cache_digest(get_enumeration(small_cfg, ""))]
    assert {rep.fixture_hash for rep in reports} == set(digests)


def test_s_n_fixture(fixture_cfg):
    # at desk scale the machine constants dominate: k >= n for everything short
    for n in range(1, 5):
        assert len(s_n_set(n, fixture_cfg)) == 1 << n


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

def test_cli_k(capsys):
    assert main(["k", "0101"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 10 and out["witness"].startswith("0")


def test_cli_k_empty_token(capsys):
    assert main(["k", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


def test_cli_m_and_omega(capsys):
    assert main(["m", "0"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["value"] == "87/2^10" and row["witness"] is None
    assert main(["omega"]) == 0
    assert capsys.readouterr().out.strip() == "14585/2^14"


def test_cli_border(capsys):
    assert main(["border"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["border"] == "1110001111100"
    assert row["length"] == 13
    assert row["k"] is None  # the proxy border is unreachable at these bounds
    gap = Dyadic.parse(row["omega"]) - Dyadic.parse(row["omega_hat"])
    assert gap <= Dyadic(1, len(row["border"]))


def test_cli_mset_km(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("0000\n0101\n")
    assert main(["mset", str(path)]) == 0
    capsys.readouterr()
    assert main(["km", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] <= 10


def test_cli_mb(capsys):
    assert main(["mb", "--prefix", "0", "--target", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1/2^4"


def test_cli_deficiency(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("00\t1/2^2\n01\t3/2^2\n")
    assert main(["deficiency", "--element", "00", "--measure", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["floor_neg_log_weight"] == 2


def test_cli_stoch(capsys):
    assert main(["--max-len", "24", "stoch", "--element", "-",
                 "--max-v-len", "20", "--fuel-v", "256"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["value"] == 11


def test_cli_stoch_max_v_len_defaults_to_max_len(capsys):
    assert main(["stoch", "--element", "-"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["value"], row["witness"]) == (11, "10110101010")


def test_cli_stoch_at_chain_length(capsys):
    # the walk stops after 11 bits, so --max-v-len 48 is within reach
    assert main(["--max-len", "48", "stoch", "--element", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "deficiency": -2, "measure_support": [""], "value": 11, "witness": "10110101010",
    }


def test_cli_hitvec(tmp_path, capsys):
    sets = tmp_path / "q.txt"
    sets.write_text(
        f"{encode_string_set(['0'])}\t1/2^1\n{encode_string_set(['1'])}\t1/2^1\n"
    )
    meas = tmp_path / "m.txt"
    meas.write_text("0\t1/2^1\n1\t1/2^1\n")
    assert main(["hitvec", "--sets", str(sets), "--measure", str(meas),
                 "-i", "1", "-c", "1", "-d", "1"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert len(row["elements"]) == 4 and row["score"] == "0/1"
    # with no element to draw, a draw is an error and no draw is the empty vector
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = ["hitvec", "--sets", str(empty), "--measure", str(empty), "-i", "1", "-d", "1"]
    assert main(argv + ["-c", "1"]) == 1
    assert "empty support" in json.loads(capsys.readouterr().out)["error"]
    assert main(argv + ["-c", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"elements": [], "score": "0/1"}


def test_cli_nu(tmp_path, capsys):
    path = tmp_path / "theta.tsv"
    path.write_text(uniform_table(3).serialize())
    assert main(["nu", "apply", str(path), "0000"]) == 0
    assert capsys.readouterr().out.strip() == "00"
    assert main(["nu", "preimage", str(path), "0", "4"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["nu", "build", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["N"] == 1


def test_cli_nu_build_truncates_to_stages(tmp_path, capsys):
    path = tmp_path / "theta.tsv"
    path.write_text(uniform_table(3).serialize())
    for k in (2, 0):
        assert main(["nu", "build", str(path), "--stages", str(k)]) == 0
        assert capsys.readouterr().out == build_nu(uniform_table(k)).serialize() + "\n"
    # past the last stage the root is 0, which the table invariants reject
    with pytest.raises(SystemExit) as exit_info:
        main(["nu", "build", str(path), "--stages", "5"])
    assert exit_info.value.code == 2
    assert "invalid table: theta(eps,4) is 0" in capsys.readouterr().err


def test_cli_nu_preimage_empty_member_first(tmp_path, capsys):
    # argparse reads "-,0" as an option; ",0" and "-- -,0" name the same set as "0,-"
    path = tmp_path / "theta.tsv"
    path.write_text(uniform_table(3).serialize())
    counts = []
    for members in ([",0"], ["--", "-,0"], ["0,-"]):
        assert main(["nu", "preimage", str(path), *members, "4"]) == 0
        counts.append(capsys.readouterr().out.strip())
    assert counts == ["16"] * 3


def test_cli_predicate(tmp_path, capsys):
    path = tmp_path / "pred.tsv"
    path.write_text("2\t0\n4\t0\n")
    assert main(["predicate", "complete", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["output"][1] == "0" and row["output"][3] == "0"


def test_cli_predicate_past_the_fuel_is_not_found_at_once(tmp_path, capsys):
    # every output bit takes a step, so an index past the fuel is out of
    # reach, and no pattern of 10^9 positions is built
    path = tmp_path / "pred.tsv"
    path.write_text("1000000000\t1\n")
    start = time.perf_counter()
    assert main(["--max-len", "48", "--fuel", "4096", "predicate", "complete", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "no program within" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("member, witness", [
    ("0" * 300, "1101110101100"),  # POW_HALT 5 of "0": 3125 zeros
    ("01" * 20, "1101101111001"),  # POW_HALT 3 of "01": 27 repeats
], ids=["zeros_300", "alternating_40"])
def test_cli_km_beyond_the_index(member, witness, tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text(member + "\n")
    assert main(["--max-len", "48", "--fuel", "4096", "km", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["value"], row["witness"]) == (13, witness)


def test_cli_m_beyond_the_index(capsys):
    assert main(["--max-len", "20", "m", "0101"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1657/2^20"


def test_cli_mb_prefix_longer_than_the_grid(capsys):
    # an 18-bit prefix lies inside one grid cell at L=14: the pieces left of
    # that cell count, and none extends the prefix
    assert main(["mb", "--prefix", "01" * 9, "--target", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1/2^4"


_INPUT_FILES = {
    "bad_set": "0000\n01a\n",
    "bad_measure": "00\t1/2^1\n01\t1/3\n",
    "bad_config": "max_len=10\nseed=7\n",
    "bad_scoring": "# scoring\nlambda_scoring=x\n",
    "bad_int": "max_len=abc\n",
    "bad_theta": "\t0\t1/2^0\n0\t1\t1/3\n",
    "non_ascii": "0\ncaf\u00e9\n",
    "w": "0000\t1/2^0\n",
    "pred": "2\t0\n4\t0\n",
    "theta": uniform_table(3).serialize(),
    # valid, but theta(0) = 5/8 cannot fund the bracket minima of 00 and 01
    "infeasible_theta": "\t0\t1/2^0\n\t1\t1/2^0\n\t2\t1/2^0\n0\t1\t5/2^3\n"
                        "0\t2\t5/2^3\n00\t2\t1/2^1\n01\t2\t1/2^4\n",
    # theta(eps) = 1 lies below its children's 3/4 + 3/8
    "invalid_theta": "\t0\t1/2^0\n0\t0\t3/2^2\n1\t0\t3/2^3\n",
    # stage 4 keeps only the root: every other string of stage 3 drops to 0
    "dropping_theta": uniform_table(3).serialize() + "\t4\t1/2^0\n",
    # the one row is 0, so the root is 0 at stages 1 and 2
    "zero_theta": "001\t2\t0/2^2\n",
    "pred_bad_bit": "2\t2\n",
    "pred_bad_index": "0\t1\n",
    "q": f"{encode_string_set(['0', '1'])}\t1/2^0\n",
    "q_light": f"{encode_string_set(['0'])}\t1/2^0\n",
    "q_bad": "01\t1/2^0\n",
    "m": "0\t1/2^1\n1\t1/2^1\n",
    "empty_set": "\n",
    # a repeated key would otherwise let its last line win
    "measure_twice": "1\t1/2^2\n1\t1/2^2\n",
    "pred_twice": "2\t1\n2\t0\n",
    "theta_twice": uniform_table(2).serialize() + "0\t1\t1/2^2\n",
}


def _with_files(argv, tmp_path):
    """Write the named input file for each "@name" token, pass its path; pass
    a path under a directory that does not exist for each "!name" token."""
    out = []
    for token in argv:
        if token.startswith("@"):
            path = tmp_path / token[1:]
            path.write_text(_INPUT_FILES[token[1:]], encoding="utf-8")
            token = str(path)
        elif token.startswith("!"):
            token = str(tmp_path / "absent" / token[1:])
        out.append(token)
    return out


@pytest.mark.parametrize("argv, message", [
    (["k", "012"], "not a bit string"),
    (["m", "2x"], "not a bit string"),
    (["mb", "--prefix", "0", "--target", "0", "--cond", "x"], "not a bit string"),
    (["mset", "@bad_set"], "bad_set:2: not a bit string"),
    (["deficiency", "--element", "00", "--measure", "@bad_measure"],
     "bad_measure:2: not a dyadic literal"),
    (["--config", "@bad_config", "omega"], "unknown config key"),
    (["--config", "@bad_scoring", "omega"], "bad_scoring:2: unknown lambda_scoring"),
    (["--config", "@bad_int", "omega"], "bad_int:1: invalid literal"),
    (["--max-len", "0", "omega"], "bounds must be at least 1"),
    (["omega", "--fuel", "-3"], "bounds must be at least 1"),
    (["--config", "!config", "omega"], "absent/config: No such file or directory"),
    (["mset", "!set"], "absent/set: No such file or directory"),
    (["deficiency", "--element", "0", "--measure", "!measure"],
     "absent/measure: No such file or directory"),
    (["predicate", "complete", "!pred"], "absent/pred: No such file or directory"),
    (["nu", "build", "!theta"], "absent/theta: No such file or directory"),
    (["experiment", "clopen", "--out", "!r.jsonl"],
     "absent/r.jsonl: No such file or directory"),
    (["nu", "build", "@bad_theta"], "bad_theta:2: not a dyadic literal"),
    (["mset", "@non_ascii"], "non_ascii: not an ASCII text file"),
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "-1", "-c", "1", "-d", "1"],
     "argument -i: not a nonnegative integer"),
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "1", "-c", "-1", "-d", "1"],
     "argument -c: not a nonnegative integer"),
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "1", "-c", "1", "-d", "-1"],
     "argument -d: not a nonnegative integer"),
    (["nu", "preimage", "@theta", "0", "-1"], "argument n: not a nonnegative integer"),
    (["nu", "build", "@theta", "--stages", "-1"],
     "argument --stages: not a nonnegative integer"),
    (["stoch", "--element", "0", "--max-v-len", "20"], "--max-v-len 20 exceeds --max-len 14"),
    (["stoch", "--element", "0", "--max-v-len", "-1"], "bounds must be at least 1"),
    (["stoch", "--element", "0", "--max-v-len", "8", "--fuel-v", "-5"],
     "bounds must be at least 1"),
    (["hitvec", "--sets", "@q_bad", "--measure", "@m", "-i", "0", "-c", "1", "-d", "1"],
     "q_bad:1: trailing bits after set encoding"),
    (["km", "@empty_set"], "empty_set: prefix set must be nonempty"),
    (["nu", "build", "@invalid_theta"], "invalid_theta: invalid table: theta('',0)"),
    (["nu", "preimage", "@invalid_theta", "0", "2"], "invalid_theta: invalid table:"),
    (["nu", "apply", "@dropping_theta", "000000"],
     "dropping_theta: invalid table: theta('0',4) decreased across stages"),
    (["nu", "preimage", "@dropping_theta", "0", "6"], "dropping_theta: invalid table:"),
    (["nu", "apply", "@zero_theta", "00"], "zero_theta: invalid table: theta(eps,1) is 0"),
    (["nu", "preimage", "@zero_theta", "0", "2"], "zero_theta: invalid table:"),
    (["predicate", "complete", "@pred_bad_bit"], "pred_bad_bit:1: bad predicate entry (2, 2)"),
    (["predicate", "complete", "@pred_bad_index"],
     "pred_bad_index:1: bad predicate entry (0, 1)"),
    # c*d*2^(i+1) draws: 2^100, and 2^17, one power past the cap
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "99", "-c", "1", "-d", "1"],
     "-i 99 -c 1 -d 1 asks for more than 65536 draws"),
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "15", "-c", "2", "-d", "1"],
     "asks for more than 65536 draws"),
    (["deficiency", "--element", "1", "--measure", "@measure_twice"],
     "measure_twice:2: repeated key '1'"),
    (["predicate", "complete", "@pred_twice"], "pred_twice:2: repeated key 2"),
    # uniform_table(2) serializes to 11 lines
    (["nu", "build", "@theta_twice"], "theta_twice:12: repeated key ('0', 1)"),
])
def test_cli_usage_errors_exit_2(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(_with_files(argv, tmp_path))
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # 0000 needs more than 6 program bits; 01 carries no weight
    (["--max-len", "6", "deficiency", "--element", "0000", "--measure", "@w"],
     "no program within bounds"),
    (["deficiency", "--element", "01", "--measure", "@w"], "not in the support"),
    (["--max-len", "3", "predicate", "complete", "@pred"], "no program within"),
    (["nu", "apply", "@theta", "0" * 40], "exceeds built depth"),
    # the greedy bound cannot fail on valid input, so that failure is injected
    (["hitvec", "--sets", "@q", "--measure", "@m", "-i", "1", "-c", "1", "-d", "1"],
     "greedy expectation bound failed"),
    # m({0}) = 1/2 is below 2^-0: the heaviness check fails before the greedy run
    (["hitvec", "--sets", "@q_light", "--measure", "@m", "-i", "0", "-c", "1", "-d", "1"],
     "is not 0-heavy"),
    # the empty predicate's cheapest program, 00, does not fit in one bit
    (["--max-len", "1", "predicate", "complete", "@empty_set"], "no program within"),
    (["nu", "build", "@infeasible_theta"], "'0' holds 0 strings but '01' needs 4 more"),
    (["nu", "apply", "@infeasible_theta", "0"], "'0' holds 0 strings but '01' needs 4 more"),
])
def test_cli_domain_errors_exit_1(argv, message, tmp_path, capsys, monkeypatch):
    import ait.cli as cli

    real = cli.hitting_vector

    def infeasible(*args):
        real(*args)  # keeps the heaviness check live
        raise HittingInfeasible("greedy expectation bound failed")

    monkeypatch.setattr(cli, "hitting_vector", infeasible)
    assert main(_with_files(argv, tmp_path)) == 1
    assert message in json.loads(capsys.readouterr().out)["error"]


def test_cli_caps_the_cylinder_and_the_stage_length(tmp_path, capsys, monkeypatch):
    # the cylinder has no cap: its 2^40 strings are one pattern search.  The
    # stage cap is lowered, so that the expansion does not run past it here
    from ait import monotone

    monkeypatch.setattr(monotone, "MAX_STAGE_LEN", 4)
    pred, table = tmp_path / "pred", tmp_path / "table"
    pred.write_text("41\t1\n")  # 40 free bits
    assert main(["--max-len", "48", "--fuel", "4096", "predicate", "complete", str(pred)]) == 0
    assert json.loads(capsys.readouterr().out)["output"][40] == "1"
    # the last stage of uniform_table(k) holds strings of k + 2 bits
    table.write_text(uniform_table(2).serialize())
    assert main(["nu", "build", str(table)]) == 0
    table.write_text(uniform_table(3).serialize())
    with pytest.raises(SystemExit) as exit_info:
        main(["nu", "build", str(table)])
    assert exit_info.value.code == 2
    assert f"{table}: stage 3 needs 5-bit strings, more than 4" in capsys.readouterr().err
    with pytest.raises(ValueError, match="stage 3 needs 5-bit strings, more than 4"):
        build_nu(uniform_table(3))


def test_cli_flags_accepted_after_subcommand(capsys):
    # the documented grammar puts the resource flags after the subcommand
    assert main(["omega", "--max-len", "10", "--fuel", "512"]) == 0
    trailing = capsys.readouterr().out
    assert main(["--max-len", "10", "--fuel", "512", "omega"]) == 0
    leading = capsys.readouterr().out
    assert trailing == leading
    assert main(["machine", "enumerate", "--max-len", "8", "--fuel", "256"]) == 0
    assert capsys.readouterr().out.startswith("00\t")


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "ait.cfg"
    cfgfile.write_text("max_len=10\nfuel=512\n")
    assert main(["--config", str(cfgfile), "omega"]) == 0
    small_omega = capsys.readouterr().out.strip()
    assert small_omega != "14585/2^14"
    assert Dyadic.parse(small_omega) <= Dyadic.one()


def test_cli_experiment_single(tmp_path, capsys):
    out = tmp_path / "rep.jsonl"
    assert main(["experiment", "predicate", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert all(json.loads(l)["experiment"] == "predicate" for l in lines)


def test_cli_seedless_flag(capsys):
    assert main(["--seedless", "k", "0"]) == 0


def test_rewrite_frozen_updates_constants(tmp_path):
    from ait.cli import _UsageError, _rewrite_frozen

    stub = tmp_path / "frozen_stub.py"
    stub.write_text('FROZEN = {\n    "c_machine": 1,\n    "c_chain": 19,\n}\n')
    _rewrite_frozen({"c_chain": 23}, str(stub))
    assert '"c_chain": 23' in stub.read_text()
    assert '"c_machine": 1' in stub.read_text()
    # a negative constant is written, and a later rewrite replaces it
    _rewrite_frozen({"c_machine": -2}, str(stub))
    assert '"c_machine": -2' in stub.read_text()
    _rewrite_frozen({"c_machine": 5}, str(stub))
    assert '"c_machine": 5' in stub.read_text()
    # a measured key that the file lacks writes nothing, not even the keys it has
    before = stub.read_text()
    with pytest.raises(_UsageError, match=re.escape(f"{stub}: 'c_copy' is written 0 times")):
        _rewrite_frozen({"c_chain": 7, "c_copy": 3}, str(stub))
    assert stub.read_text() == before


# ---------------------------------------------------------------------------
# fuzzing main(): random argv and input files end in an exit code, never in
# a traceback
# ---------------------------------------------------------------------------

def _mostly(good, bad):
    """``good`` seven times in eight, else ``bad``: malformed input reaches
    the parsers, and well-formed input reaches the computations behind them."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


_BITS = st.text(alphabet="01", max_size=3)  # short, so elements meet supports
_TOKEN = _mostly(_BITS | st.just("-"), st.sampled_from(["x", "012", "-1", " 0", "0" * 30]))
_SMALL = _mostly(st.integers(0, 3).map(str), st.sampled_from(["-1", "x", ""]))
# hitvec's exponent: past 15 every draw count is over the cap, and rejected
_EXPONENT = _mostly(st.integers(0, 3).map(str) | st.integers(4, 10 ** 6).map(str),
                    st.sampled_from(["-1", "x", ""]))
_DYADIC = _mostly(st.builds("1/2^{}".format, st.integers(0, 4)),
                  st.builds("{}/2^{}".format, st.integers(-1, 9), st.integers(0, 6))
                  | st.sampled_from(["1/3", "x", "", "0"]))
_JUNK = _mostly(st.just(""), st.sampled_from(["\t\n", "a\tb\tc\n", "caf\u00e9\n"]))


def _lines(line, max_size=3):
    """A file of generated lines, sometimes with a malformed one at the end."""
    return st.builds(lambda rows, junk: "".join(r + "\n" for r in rows) + junk,
                     st.lists(line, max_size=max_size), _JUNK)


_SET_ENCODING = st.lists(_BITS, max_size=3).map(
    lambda members: encode_string_set(sorted(set(members), key=lambda x: (len(x), x))))
_TABLE_ROW = st.builds("{}\t{}\t{}".format, st.text(alphabet="01", max_size=3),
                       st.integers(-1, 4), _DYADIC)
_TABLE = st.builds(uniform_table, st.integers(0, 3)) \
    | st.builds(point_mass_table, st.integers(0, 4)) \
    | st.builds(random_pow2_table, st.integers(0, 99), st.integers(0, 4))
_FILES = {
    "set": _lines(_TOKEN),
    "measure": _lines(st.builds("{}\t{}".format, _BITS, _DYADIC)),
    "sets": _lines(st.builds("{}\t{}".format, _mostly(_SET_ENCODING, _BITS), _DYADIC)),
    "table": _mostly(_TABLE.map(lambda t: t.serialize()),
                     st.builds(str.__add__, _TABLE.map(lambda t: t.serialize()),
                               _lines(_TABLE_ROW)) | _lines(_TABLE_ROW, 6)),
    "pred": _lines(st.builds("{}\t{}".format, _mostly(st.integers(1, 6), st.integers(-1, 0)),
                             _mostly(st.integers(0, 1), st.just(2)))),
    "config": _lines(_mostly(
        st.builds("{}={}".format, st.sampled_from(["max_len", "fuel", "stoch_max_v_len"]),
                  st.integers(1, 10)) | st.sampled_from(["lambda_scoring=k", "# note"]),
        st.sampled_from(["seed=1", "fuel=x", "max_len=0", "lambda_scoring=x", "fuel"]))),
}

# one argv tail per subcommand; "@name" stands for the path of a generated
# file and "!name" for a path under a directory that does not exist
_COMMANDS = st.one_of(
    st.builds(lambda a: ["machine", "enumerate", "--aux", a], _TOKEN),
    st.sampled_from([["border"], ["omega"], ["calibrate"]]),
    st.builds(lambda p, t, c: ["mb", "--prefix", p, "--target", t, "--cond", c],
              _TOKEN, _TOKEN, _TOKEN),
    st.builds(lambda cmd, x, c: [cmd, x, "--cond", c], st.sampled_from(["k", "m"]),
              _TOKEN, _TOKEN),
    st.builds(lambda c: ["mset", "@set", "--cond", c], _TOKEN),
    st.just(["km", "@set"]),
    st.builds(lambda e, c: ["deficiency", "--element", e, "--measure", "@measure",
                            "--cond", c], _TOKEN, _TOKEN),
    st.builds(lambda e, flags: ["stoch", "--element", e] + flags, _TOKEN, st.lists(
        st.builds(lambda flag, value: [flag, value],
                  st.sampled_from(["--max-v-len", "--fuel-v"]), _SMALL)
        | st.sampled_from([["--scoring", "k"], ["--scoring", "3logk"], ["--scoring", "x"]]),
        max_size=2).map(lambda pairs: sum(pairs, []))),
    st.builds(lambda i, c, d: ["hitvec", "--sets", "@sets", "--measure", "@measure",
                               "-i", i, "-c", c, "-d", d], _EXPONENT, _SMALL, _SMALL),
    st.builds(lambda k: ["nu", "build", "@table"] + k,
              st.lists(_SMALL, max_size=1).map(lambda k: ["--stages"] + k if k else [])),
    st.builds(lambda y: ["nu", "apply", "@table", y], _mostly(st.text("01", max_size=12), _TOKEN)),
    st.builds(lambda g, n: ["nu", "preimage", "@table", ",".join(g), n],
              st.lists(_BITS, min_size=1, max_size=3), _mostly(st.integers(0, 8).map(str), _SMALL)),
    st.just(["predicate", "complete", "@pred"]),
    st.builds(lambda name, out: ["experiment", name, "--out", out],
              st.sampled_from(["set_probability", "clopen", "predicate", "all"]),
              _mostly(st.just("@report"), st.just("!report"))),
)


_EMPTY_FILES = dict.fromkeys(_FILES, "")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=_COMMANDS, files=st.fixed_dictionaries(_FILES),
       max_len=_mostly(st.integers(1, 10), st.integers(-1, 0)),
       fuel=_mostly(st.integers(1, 300), st.integers(-1, 0)),
       config=st.booleans(), trailing=st.booleans())
# the two tracebacks the generator found: k_t(000000) is infinite in 4 bits,
# and a weight of 2 has no log-weight
@example(command=["calibrate"], files=_EMPTY_FILES, max_len=4, fuel=64,
         config=False, trailing=False)
@example(command=["deficiency", "--element", "0", "--measure", "@measure", "--cond", "-"],
         files={**_EMPTY_FILES, "measure": "0\t2/2^0\n"}, max_len=4, fuel=64,
         config=False, trailing=False)
def test_cli_never_ends_in_a_traceback(command, files, max_len, fuel, config, trailing):
    bounds = ["--max-len", str(max_len), "--fuel", str(fuel)]
    argv = command + bounds if trailing else bounds + command
    if config:
        argv = ["--config", "@config"] + argv
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, t[1:]) if t.startswith("@")
                else os.path.join(tmp, "absent", t[1:]) if t.startswith("!")
                else t for t in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exit_info:
                code = exit_info.code
    assert code in (0, 1, 2), argv
    if code == 2:  # a subcommand's parser names itself: "ait nu apply: error:"
        assert re.search(r"^ait[a-z ]*: error: ", stderr.getvalue(), re.M), argv
