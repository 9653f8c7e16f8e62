from array import array
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

from ait import complexity, machine
from ait.codec import PrefixFreeSet, all_strings_upto, encode_self_delim, encode_string_set
from ait.complexity import (
    ComplexityValue,
    chain_rule_report,
    coding_direction_holds,
    halting_proxy,
    info_with_halting,
    k_set,
    k_t,
    km_t,
    m_set,
    m_t,
    mutual_info_t,
    output_stats,
    pair_aux,
)
from ait.dyadic import Dyadic, ceil_neg_log2, dyadic_sum
from ait.frozen import CHAIN, FROZEN, calibrate
from ait.harness import default_predicate_family
from ait.leftward import IntervalTable, get_interval_table
from ait.machine import (
    Enumeration,
    MachineConfig,
    ProgramRecord,
    get_enumeration,
    mass_for_output,
    min_program_for_output,
    min_program_with_prefix_in,
    run,
    search_programs,
)
from ait.predicates import BinaryPredicate, cylinder, pattern

from oracles import default_prefix_free_family, halting_proxy_by_scan


def test_witness_reproduces_target(fixture_cfg):
    for x in ("", "0", "0101", "10110010"):
        result = k_t(x, "", fixture_cfg)
        assert result.is_finite and len(result.witness) == result.value
        out = run(result.witness, "", fixture_cfg.fuel)
        assert out.halted and out.output == x


def test_literal_budget(fixture_cfg):
    for y in all_strings_upto(6):
        k = k_t(y, "", fixture_cfg)
        assert k.value <= 2 * len(y) + 1 + FROZEN["c_machine"]


def test_k_infinite_beyond_reach(fixture_cfg):
    # length-7 strings are a reachability hole at these bounds unless periodic
    assert not k_t("0101101", "", fixture_cfg).is_finite


def test_k_antitone_in_fuel(fixture_cfg, double_fuel_cfg):
    corpus = ["", "0", "11", "0000", "0" * 27, "0" * 3125]
    for x in corpus:
        a = k_t(x, "", fixture_cfg)
        b = k_t(x, "", double_fuel_cfg)
        if a.is_finite:
            assert b.is_finite and b.value <= a.value
    # the separating string: reachable only at doubled fuel
    assert not k_t("0" * 3125, "", fixture_cfg).is_finite
    assert k_t("0" * 3125, "", double_fuel_cfg).value == 13


def test_m_monotone_in_fuel(fixture_cfg, double_fuel_cfg):
    for x in ("", "0", "0000", "0" * 27):
        assert m_t(x, "", fixture_cfg) <= m_t(x, "", double_fuel_cfg)


def test_m_lower_bounded_by_shortest_witness(fixture_cfg):
    for x in ("", "0", "0101"):
        k = k_t(x, "", fixture_cfg)
        assert m_t(x, "", fixture_cfg) >= Dyadic(1, k.value)


def test_m_partition(fixture_cfg, enumeration):
    outputs = get_interval_table(fixture_cfg).index
    total = dyadic_sum(m_t(x, "", fixture_cfg) for x in outputs)
    from ait.machine import kraft_sum

    assert total == kraft_sum(enumeration)
    assert total <= Dyadic.one()


def test_coding_direction_exhaustive(fixture_cfg, monkeypatch):
    assert coding_direction_holds(fixture_cfg)
    assert all(ceil_neg_log2(mass) <= k for k, mass in output_stats(fixture_cfg).values())
    # the grid comparison at its edge: a least program of 3 bits with a mass
    # of exactly 2^-3 passes, and one grid unit less fails
    L = fixture_cfg.max_program_len
    # one tile, the program 000 with output "" after 5 steps, stored as the
    # store holds it: the program as the integer of "1" + "000"
    records = Enumeration(array("I", [5]), array("I", [0b1000]), array("I", [0]), [""])
    assert list(records) == [ProgramRecord("000", "", 5)]
    for mass, holds in ((1 << (L - 3), True), ((1 << (L - 3)) - 1, False)):
        table = IntervalTable(fixture_cfg, records, {"": 0}, tiles=array("I", [0]),
                              starts=array("I", [0, 1]), cum=array("q", [0, mass]),
                              least=array("I", [0b1000]), _bounds=array("q", [0, mass]),
                              rise_at=array("I"), rise_len=array("I", [0]))
        assert table.program(0) == "000" and table.omega == Dyadic(mass, L)
        monkeypatch.setattr(complexity, "get_interval_table",
                            lambda cfg, aux, _table=table: _table)
        assert coding_direction_holds(fixture_cfg) is holds


def test_m_set_linearity(fixture_cfg):
    assert m_set([], "", fixture_cfg) == Dyadic.zero()
    assert m_set(["0"], "", fixture_cfg) == m_t("0", "", fixture_cfg)
    union = m_set(["0", "1"], "", fixture_cfg)
    assert union == m_t("0", "", fixture_cfg) + m_t("1", "", fixture_cfg)


def test_m_set_floor(fixture_cfg):
    for members in (["0"], ["0", "1"], ["00", "11"], ["0000", "0101"]):
        mass = m_set(members, "", fixture_cfg)
        best = min(k_t(x, "", fixture_cfg).value for x in members)
        assert ceil_neg_log2(mass) <= best


def test_km_examples(fixture_cfg):
    # every output extends the empty string, so the cheapest program wins
    assert km_t([""], fixture_cfg).value == 2
    # prefix witnesses are cheaper than exact witnesses
    for members in (["0000"], ["01", "10"], ["111"]):
        km = km_t(members, fixture_cfg)
        best = min(k_t(x, "", fixture_cfg).value for x in members)
        assert km.value <= best
        out = run(km.witness, "", fixture_cfg.fuel)
        assert any(out.output.startswith(x) for x in members)


def test_km_mixed_length_prefix_set(fixture_cfg):
    from ait.codec import PrefixFreeSet
    from ait.machine import run

    members = PrefixFreeSet(["0", "10", "110"])
    km = km_t(members, fixture_cfg)
    # the empty output extends no member, so the cheapest witness is the
    # shortest program emitting a qualifying first bit
    assert km.value == 4
    out = run(km.witness, "", fixture_cfg.fuel)
    assert any(out.output.startswith(x) for x in members)


def test_km_union_never_worse(fixture_cfg):
    a, b = ["00"], ["11"]
    assert km_t(a + b, fixture_cfg).value <= min(
        km_t(a, fixture_cfg).value, km_t(b, fixture_cfg).value
    )


def test_km_rejects_empty(fixture_cfg):
    with pytest.raises(ValueError):
        km_t([], fixture_cfg)


def test_km_matches_enumeration_oracle(fixture_cfg, enumeration):
    # the prefix-set witness, a scan of the table's ranked output index at
    # these bounds,
    # against a scan of the full enumeration
    families = [["0000"], ["01", "10"], [""], ["111"], ["0", "10", "110"],
                ["10110010"], ["0101010"]]
    for members in families:
        km = km_t(members, fixture_cfg)
        candidates = [len(r.program) for r in enumeration
                      if any(r.output.startswith(x) for x in members)]
        if candidates:
            assert km.is_finite and km.value == min(candidates)
        else:
            assert not km.is_finite


def test_km_antitone_in_fuel(fixture_cfg, double_fuel_cfg):
    for members in (["0000"], ["01", "10"], ["0" * 100]):
        small = km_t(members, fixture_cfg)
        large = km_t(members, double_fuel_cfg)
        if small.is_finite:
            assert large.is_finite and large.value <= small.value
    # a prefix set reachable only at doubled fuel
    assert not km_t(["0" * 300], fixture_cfg).is_finite
    assert km_t(["0" * 300], double_fuel_cfg).value == 13


def test_conditional_copy(fixture_cfg):
    for x in ("0110", "111111", "10"):
        cond = k_t(x, x, fixture_cfg)
        assert cond.value <= FROZEN["c_copy"]


def test_mutual_info(fixture_cfg):
    # I(x; x) = k(x) - k(x|x) is large for incompressible strings
    x = "0110"
    self_info = mutual_info_t(x, x, fixture_cfg)
    assert self_info == k_t(x, "", fixture_cfg).value - k_t(x, x, fixture_cfg).value
    # empty condition changes nothing: identical machine behavior
    assert mutual_info_t(x, "", fixture_cfg) == 0
    # no program reaches x, so I(x; y) is undefined, whatever y is
    assert mutual_info_t("0101101", "", fixture_cfg) is None


def test_halting_proxy_shape(fixture_cfg, enumeration):
    proxy = halting_proxy(fixture_cfg)
    L = fixture_cfg.max_program_len
    assert len(proxy.bits) == (1 << (L + 1)) - 1
    strings = list(all_strings_upto(L))
    idx = {s: i for i, s in enumerate(strings)}
    # a known halting fixture program reads 1
    assert proxy.bits[idx["00"]] == "1"
    assert proxy.bits[idx[""]] == "0"
    # extensions of halting programs halt too
    assert proxy.bits[idx["0000"]] == "1"
    # spot-check against direct runs
    for s in ("0", "11111", "110", "0100", "1110111"):
        expect = "1" if run(s, "", fixture_cfg.fuel).halted else "0"
        assert proxy.bits[idx[s]] == expect


@settings(max_examples=40, deadline=None, derandomize=True)
@given(max_len=st.integers(1, 14), fuel=st.integers(1, 64) | st.integers(65, 4096),
       aux=st.text(alphabet="01", max_size=8))
def test_halting_proxy_matches_prefix_scan(max_len, fuel, aux):
    cfg = MachineConfig(max_len, fuel)
    assert halting_proxy(cfg, aux).bits == halting_proxy_by_scan(cfg, aux)


def test_halting_proxy_fuel_monotone(fixture_cfg, double_fuel_cfg):
    a = halting_proxy(fixture_cfg).bits
    b = halting_proxy(double_fuel_cfg).bits
    assert len(a) == len(b)
    assert all(x <= y for x, y in zip(a, b))  # bitwise domination
    assert a != b  # the fuel boundary is visible


def test_info_with_halting_nonnegative_for_proxy_prefix(fixture_cfg):
    # a prefix of the halting sequence is cheap given the halting sequence
    proxy = halting_proxy(fixture_cfg)
    x = proxy.bits[:7]
    gain = info_with_halting(x, fixture_cfg)
    assert gain is None or gain >= 0


@pytest.mark.parametrize("cfg", [MachineConfig(10, 512), MachineConfig(14, 2048)])
def test_info_with_halting_matches_the_whole_proxy(cfg, monkeypatch):
    # the level-order walk takes the whole proxy, 2^(L+1) - 1 bits, as its
    # aux string and never cuts it
    whole = halting_proxy(cfg).bits
    assert len(whole) > cfg.readable_aux_len
    for x in ("", "0", "1", "0110", "1111111", whole[:4], whole[:6], whole[:9],
              encode_string_set(["0", "11"])):
        state = lambda out: "complete" if out == x else "viable" if x.startswith(out) else "dead"
        least = min((len(r.program) for r in search_programs(cfg, whole, state)), default=None)
        assert k_t(x, whole, cfg).value == least, x
        base = k_t(x, "", cfg)
        want = base.value - least if base.is_finite and least is not None else None
        assert info_with_halting(x, cfg) == want, x
    # the condition is the whole proxy's readable prefix, bit for bit
    seen = []
    monkeypatch.setattr(complexity, "mutual_info_t", lambda x, aux, cfg: seen.append(aux))
    info_with_halting("0", cfg)
    assert seen == [whole[:cfg.readable_aux_len]]


def test_chain_rule_degenerate_pairs():
    rep = chain_rule_report("01011", "", CHAIN)
    assert rep.gap is not None and rep.gap <= FROZEN["c_chain"]
    rep = chain_rule_report("101", "101", CHAIN)
    assert rep.gap is not None and rep.gap <= FROZEN["c_chain"]


def test_chain_rule_sample_within_frozen_constant():
    # a deterministic slice of the calibration corpus
    corpus = [("0", "1"), ("01", "10"), ("110", "01"), ("0101", "1010"),
              ("11111", "00000"), ("10011", "1101"), ("", "01101")]
    for x, y in corpus:
        rep = chain_rule_report(x, y, CHAIN)
        assert rep.gap is not None
        assert rep.gap <= FROZEN["c_chain"]
        assert rep.k_pair.value == k_t(encode_self_delim(x) + encode_self_delim(y),
                                       "", CHAIN).value


def test_calibrate_reproduces_frozen():
    # the full recomputation, including the 63x63 chain-rule sweep at CHAIN;
    # a constant frozen too high would pass every upper-bound check above
    assert calibrate() == FROZEN


def test_pair_aux_convention():
    assert pair_aux("01", "1") == "11001" + "101"


def _as_value(rec, cfg):
    if rec is None:
        return ComplexityValue(None, None, cfg)
    return ComplexityValue(len(rec.program), rec.program, cfg)


def _assert_index_matches_targeted(cfg, families, aux=""):
    # with the enumerations built, the queries read the interval table's
    # output columns; the boundary-graph searches are their oracle, on every
    # reachable output and on every string of at most 6 bits, reachable or not
    get_enumeration(cfg, aux)
    get_enumeration(cfg, "")  # km_t is unconditional
    for x in list(get_interval_table(cfg, aux).index) + list(all_strings_upto(6)):
        assert k_t(x, aux, cfg) == _as_value(min_program_for_output(x, cfg, aux), cfg)
        assert m_t(x, aux, cfg) == mass_for_output(x, cfg, aux)
    for members in families:
        km = km_t(members, cfg)
        assert km == _as_value(min_program_with_prefix_in(members, cfg), cfg)
        least = min(filter(None, (min_program_for_output(x, cfg, aux) for x in members)),
                    key=lambda rec: (len(rec.program), rec.program), default=None)
        assert k_set(members, aux, cfg) == _as_value(least, cfg)
        # the inequality the predicate experiment's slack gate rests on: a
        # member's least program outputs the member, which is in the set
        k = k_set(members, "", cfg).value
        assert k is None or km.value <= k


def _prefix_free(strings):
    return PrefixFreeSet({s for s in strings
                          if not any(t != s and s.startswith(t) for t in strings)})


@settings(max_examples=50, deadline=None, derandomize=True)
@given(max_len=st.integers(1, 12), fuel=st.integers(16, 2048),
       aux=st.text(alphabet="01", max_size=6),
       sets=st.lists(st.lists(st.text(alphabet="01", max_size=5), min_size=1, max_size=4),
                     max_size=3),
       predicates=st.lists(st.dictionaries(st.integers(1, 6), st.integers(0, 1),
                                           min_size=1, max_size=4), max_size=2))
def test_output_index_matches_targeted_searches(max_len, fuel, aux, sets, predicates):
    families = [_prefix_free(s) for s in sets]
    families += [cylinder(BinaryPredicate(p.items())) for p in predicates]
    cfg = MachineConfig(max_len, fuel)
    _assert_index_matches_targeted(cfg, families, aux)
    _assert_pattern_is_its_cylinder([BinaryPredicate(p.items()) for p in predicates], cfg)


def _assert_pattern_is_its_cylinder(predicates, cfg):
    # the index scan on one member with free positions, and the one search
    # over it, against the scan on the cylinder's members
    for g in predicates:
        km = km_t(cylinder(g), cfg)
        assert km_t([pattern(g)], cfg) == km
        assert _as_value(min_program_with_prefix_in([pattern(g)], cfg), cfg) == km


def test_output_index_matches_targeted_searches_at_fixture(fixture_cfg):
    assert len(get_interval_table(fixture_cfg).index) == 392
    families = [members for _name, members in default_prefix_free_family(50)]
    families += [cylinder(g) for _name, g in default_predicate_family(60)]
    # mixed lengths: the least witness, 0^27, extends only the 9-bit member
    families.append(PrefixFreeSet(["0" * 9, "1" * 54]))
    _assert_index_matches_targeted(fixture_cfg, families)
    # odd positions fixed to 1: the least witness, POW_HALT 3 of "1", sets
    # every free bit too
    odd_ones = BinaryPredicate([(i, 1) for i in range(1, 10, 2)])
    _assert_pattern_is_its_cylinder([g for _name, g in default_predicate_family(60)]
                                    + [odd_ones], fixture_cfg)
    # members of two lengths and free masks at once, and their strings
    patterns = [pattern(odd_ones), "0??0?0?0?0?0?01"]
    strings = ["".join(bits) for m in patterns
               for bits in product(*("01" if c == "?" else c for c in m))]
    km = km_t(strings, fixture_cfg)
    assert km_t(patterns, fixture_cfg) == km
    assert _as_value(min_program_with_prefix_in(patterns, fixture_cfg), fixture_cfg) == km


def _assert_index_matches_targeted_at(cfg):
    families = [members for _name, members in default_prefix_free_family(20)]
    families += [cylinder(g) for _name, g in default_predicate_family(20)]
    _assert_index_matches_targeted(cfg, families)


def test_output_index_matches_targeted_searches_at_l16():
    # 15-bit programs first reach L=16 with POW_HALT codes whose count
    # exceeds 15 and whose literal is empty
    _assert_index_matches_targeted_at(MachineConfig(16, 4096))


def test_output_index_matches_targeted_searches_at_l20():
    # CI's L=20 report bounds; at L=22 only the report hash checks the view
    _assert_index_matches_targeted_at(MachineConfig(20, 4096))


_DPS = ("min_program_for_output", "mass_for_output", "min_program_with_prefix_in")


def test_queries_read_the_index_exactly_when_the_enumeration_is_built(monkeypatch):
    monkeypatch.setattr(machine, "_BUILT", {})
    calls = Counter()
    for name in _DPS:
        def counted(*args, _dp=getattr(complexity, name), _name=name):
            calls[_name] += 1
            return _dp(*args)
        monkeypatch.setattr(complexity, name, counted)
    cfg, aux = MachineConfig(12, 512), "0110"
    members = PrefixFreeSet(["0" * 7, "1" * 40])  # witness 10100000000 prints 0^8

    def ask():
        return (k_t("0110", "", cfg), m_t("0110", "", cfg), km_t(members, cfg),
                k_set(members, "", cfg), k_t("0110", aux, cfg), m_t("0110", aux, cfg))

    cold = ask()
    assert not machine._BUILT  # no query builds an enumeration or a table
    # k_set takes one least-program search per member
    assert calls == Counter({"min_program_for_output": 4, "mass_for_output": 2,
                             "min_program_with_prefix_in": 1})
    get_enumeration(cfg, "")
    unconditional = ask()  # only the conditional queries take the DPs
    assert calls == Counter({"min_program_for_output": 5, "mass_for_output": 3,
                             "min_program_with_prefix_in": 1})
    get_enumeration(cfg, aux)
    assert ask() == unconditional == cold
    assert sum(calls.values()) == 9


@pytest.mark.parametrize("aux", ["", "0110"])
def test_output_index_is_ranked_by_least_program(fixture_cfg, aux):
    # the table's output columns against a regrouping of the enumeration:
    # each output's tiles, its least program (in the store's form, which
    # identifies its record) and its running mass on the grid
    L = fixture_cfg.max_program_len
    records = get_enumeration(fixture_cfg, aux)
    groups = {}
    for k, rec in enumerate(records):
        groups.setdefault(rec.output, []).append(k)
    table = get_interval_table(fixture_cfg, aux)
    assert table.index.keys() == groups.keys()
    for x, i in table.index.items():
        lo, hi = table.starts[i], table.starts[i + 1]
        tiles = table.tiles[lo:hi]
        assert list(tiles) == groups[x]
        least = min((records[k] for k in tiles), key=lambda r: (len(r.program), r.program))
        assert table.least[i] == int("1" + least.program, 2)
        assert [c - table.cum[lo] for c in table.cum[lo:hi + 1]] == \
            list(accumulate((1 << (L - len(records[k].program)) for k in tiles), initial=0))
    ranks = [(table.length(i), table.program(i)) for i in table.index.values()]
    assert len(ranks) > 100
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_coding_direction_at_chain():
    # the floor of the set bound, -log m(D) <= min over x in D of K(x), at
    # L=48 where no enumeration reaches, for every x of at most 8 bits
    for x in all_strings_upto(8):
        assert ceil_neg_log2(m_t(x, "", CHAIN)) <= k_t(x, "", CHAIN).value
