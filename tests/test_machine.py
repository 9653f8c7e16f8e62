import json
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ait.codec import Lcg, all_strings_upto, encode_self_delim, prefix_pair, strings_of_length
from ait.complexity import pair_aux, pair_aux_nat
from ait.dyadic import Dyadic, dyadic_sum
from ait.frozen import CHAIN
from ait.leftward import build_interval_table
from ait.machine import (
    _CODE,
    _HALTING,
    _OPCODES,
    Enumeration,
    MachineConfig,
    _boundaries,
    _count_edges,
    _decode,
    _effect,
    _extending_edges,
    _fold,
    _target_edges,
    get_enumeration,
    Status,
    cache_digest,
    batches,
    enumerate_halting,
    kraft_sum,
    mass_for_output,
    min_program_for_output,
    min_program_with_prefix_in,
    run,
    search_programs,
    split_pattern,
)
from oracles import (
    edges_by_expand,
    expand,
    halting_by_bits,
    run_by_bits,
    search_programs_by_records,
)

# fixture located by exhaustive enumeration at L=16, t=4096: the shortest
# program emitting the empty string is EMIT_HALT with an empty literal.
P_EPSILON = "00"


# the designated empty-output program, located by exhaustive enumeration at L=16, t=4096
def test_p_epsilon_is_the_designated_fixture():
    records = enumerate_halting(MachineConfig(16, 4096), "")
    shortest = min(records, key=lambda r: (len(r.program), r.program))
    assert shortest.program == P_EPSILON
    assert shortest.output == ""
    out = run(P_EPSILON, "", 2048)
    assert out.halted and out.output == "" and out.bits_read == len(P_EPSILON)


def test_empty_program_needs_input():
    assert run("", "", 100).status is Status.NEEDS_MORE_INPUT


def test_fuel_monotone_rerun(enumeration, fixture_cfg):
    # halting outcome is stable under any larger fuel
    for rec in enumeration[:50]:
        again = run(rec.program, "", rec.steps)
        assert again.halted and again.output == rec.output and again.steps == rec.steps
        more = run(rec.program, "", rec.steps * 3)
        assert more.halted and more.output == rec.output and more.steps == rec.steps


def test_prefix_stability(enumeration):
    # every extension of the consumed prefix halts identically
    rec = enumeration[0]
    for pad in ("0", "1", "0101"):
        out = run(rec.program + pad, "", 4096)
        assert out.halted
        assert out.bits_read == len(rec.program)
        assert out.output == rec.output


def test_out_of_fuel_then_halts():
    # the repeat-power program that separates fuel 2048 from 4096
    program = "110" + "1110101" + "100"
    assert run(program, "", 2048).status is Status.OUT_OF_FUEL
    done = run(program, "", 4096)
    assert done.halted and done.output == "0" * 3125


def test_domain_prefix_free_exhaustive(enumeration):
    assert prefix_pair([r.program for r in enumeration]) is None


def test_enumeration_sorted_and_deterministic(fixture_cfg, enumeration):
    keys = [(r.steps, r.program) for r in enumeration]
    assert keys == sorted(keys)
    again = enumerate_halting(fixture_cfg, "")
    assert [(r.program, r.output, r.steps) for r in again] == \
        [(r.program, r.output, r.steps) for r in enumeration]


def test_kraft_sum_strictly_below_one(enumeration):
    total = kraft_sum(enumeration)
    assert total < Dyadic.one()
    assert total == Dyadic(14585, 14)  # frozen from the first build


def test_fuel_monotone_enumeration(fixture_cfg, double_fuel_cfg):
    small = {r.program for r in enumerate_halting(fixture_cfg, "")}
    large = {r.program for r in enumerate_halting(double_fuel_cfg, "")}
    assert small <= large
    # the only new arrivals at doubled fuel are the two repeat-power programs
    assert large - small == {"1101110101100", "1101110101101"}


def test_universality_smoke(fixture_cfg):
    # every string of length <= 6 is output by some program within L,
    # with the literal-emit overhead constant c_machine = 1
    from ait.frozen import FROZEN

    for y in all_strings_upto(6):
        rec = min_program_for_output(y, fixture_cfg)
        assert rec is not None
        assert len(rec.program) <= 2 * len(y) + 1 + FROZEN["c_machine"]


def test_every_8_bit_string_reachable(fixture_cfg):
    for v in range(0, 256, 17):
        y = format(v, "08b")
        rec = min_program_for_output(y, fixture_cfg)
        assert rec is not None and len(rec.program) == 11


def test_enumeration_matches_definitional_brute_force():
    # oracle: a string is a minimal halting program exactly when running it
    # halts after consuming all of it; derive the whole domain by running
    # every string up to the length bound
    cfg = MachineConfig(9, 128)
    for aux in ("", "011"):
        expected = {}
        for n in range(1, cfg.max_program_len + 1):
            for v in range(1 << n):
                s = format(v, f"0{n}b")
                out = run(s, aux, cfg.fuel)
                if out.halted and out.bits_read == n:
                    expected[s] = (out.output, out.steps)
        got = {r.program: (r.output, r.steps) for r in enumerate_halting(cfg, aux)}
        assert got == expected


def _outcome(out):
    return out.status, out.output, out.bits_read, out.steps


@settings(max_examples=400, deadline=None, derandomize=True)
@given(program=st.text(alphabet="01", max_size=48), aux=st.text(alphabet="01", max_size=12),
       fuel=st.integers(1, 64) | st.integers(1, 10 ** 6))
@example(program="110" + "1110101" + "100", aux="", fuel=3141)  # 5**5 zeros, one step short
@example(program="1110" + "1111011111" + "00", aux="01", fuel=64)  # COPY_N 31 past the aux end
def test_run_matches_bit_level_oracle(program, aux, fuel):
    # truncated programs, out-of-fuel runs and halts with unread bits alike
    assert _outcome(run(program, aux, fuel)) == _outcome(run_by_bits(program, aux, fuel))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(program=st.text(alphabet="01", max_size=48), aux=st.text(alphabet="01", max_size=96),
       fuel=st.integers(1, 128))
def test_runs_read_only_the_readable_aux_prefix(program, aux, fuel):
    cut = aux[:fuel // 2 + 1]
    assert cut == aux[:MachineConfig(1, fuel).readable_aux_len]
    assert run(program, aux, fuel) == run(program, cut, fuel)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuel=st.integers(1, 160), skip=st.integers(0, 4), end=st.integers(-8, 2),
       copy_all=st.booleans(), data=st.data())
def test_copies_that_end_at_the_cut_run_alike_on_the_cut_tape(fuel, skip, end, copy_all, data):
    # COPY_N skip cells, then a copy that ends ``end`` cells past the cut: a
    # COPY_N of the cells up to there, or a COPY_ALL over an aux string that
    # ends there, whose cut tape puts the sentinel at the cut
    stop = fuel // 2 + 1 + end
    number = lambda k: encode_self_delim(format(k, "b"))
    program = (_CODE["COPY_N"] + number(skip) if skip else "") + (
        _CODE["COPY_ALL"] if copy_all else _CODE["COPY_N"] + number(max(stop - skip, 0)))
    program += _CODE["HALT"]
    size = max(stop, 0) if copy_all else fuel // 2 + 3
    aux = data.draw(st.text(alphabet="01", min_size=size, max_size=size))
    assert run(program, aux, fuel) == run(program, aux[:fuel // 2 + 1], fuel)


@pytest.mark.parametrize("aux", ["", "0110", "1011001110"])
def test_expand_codes_are_the_decoder_instructions(aux):
    # each batch's codes, head | v for every index v of its emitted bits, are
    # c-bit codes that decode to an instruction ending at exactly c, whose
    # effect is the v-th emitted bits and the batch's next aux position and
    # steps; and every such c-bit string that runs within the fuel is in one
    # batch.  c up to 13 takes every opcode, RAW8_HALT at c = 11 and
    # COPY_ALL and HALT at c = 5; the two tight fuels, whose steps left
    # differ in parity, cut copies and repeats one step over
    for a in sorted({0, 2, len(aux)}):
        for fuel, steps in ((30, 4), (33, 4), (4096, 0)):
            for c in range(1, 14):
                got = {}
                for head, emitted, _after, _spent in batches(aux, fuel, a, steps, c):
                    size = len(emitted)  # one code per payload of the shape's width
                    assert size & size - 1 == 0 and head & size - 1 == 0
                for code, emitted, after, spent in expand(aux, fuel, a, steps, c):
                    bits = format(code, f"0{c}b")
                    assert len(bits) == c and bits not in got
                    got[bits] = emitted, after, spent
                left, expected = fuel - steps - c - 1, {}
                for bits in strings_of_length(c):
                    op, num, y, end = _decode(bits, 0)
                    effect = _effect(op, num, y, aux, a, left) if end == c and left >= 0 else None
                    if effect is not None:
                        emitted, after, extra = effect
                        expected[bits] = (emitted, None if op in _HALTING else after,
                                          steps + c + 1 + extra)
                assert got == expected


def test_caches_and_searches_key_on_the_readable_aux_prefix():
    cfg = MachineConfig(8, 16)  # the readable prefix is 9 bits
    aux, cut = "0110" * 8, "011001100"
    assert get_enumeration(cfg, aux) is get_enumeration(cfg, cut)
    for x in ("0110", "01100110", "0110011001"):
        assert min_program_for_output(x, cfg, aux) == min_program_for_output(x, cfg, cut)
        assert mass_for_output(x, cfg, aux) == mass_for_output(x, cfg, cut)


def _state(viable, accept):
    """The walk's state callback from a monotone viability test and a
    classifier of halting outputs."""
    def state(out):
        if not viable(out):
            return "dead"
        return "complete" if accept(out) else "viable"
    return state


def _search_by_filter(records, max_len, viable, accept, cutoff):
    """search_programs read off a full record list: the records with a viable
    accepted output, handed to ``cutoff`` level by level, lexicographically
    within a level, until a level passes the least value it returned."""
    found = sorted((r for r in records if viable(r.output) and accept(r.output)),
                   key=lambda r: (len(r.program), r.program))
    kept, limit = [], max_len
    for n, level in groupby(found, key=lambda r: len(r.program)):
        if n > limit:
            break
        for rec in level:
            kept.append(rec)
            limit = min(limit, cutoff(rec))
    return sorted(kept, key=lambda r: (r.steps, r.program))


def _assert_seen_by_level(seen, expected):
    """The walk hands ``cutoff`` the expected records in level order: the
    lengths it sees never fall, though a level's records come in no fixed
    order, and in (length, program) order the two agree."""
    assert all(len(r.program) <= len(s.program) for r, s in zip(seen, seen[1:]))

    def key(r):
        return len(r.program), r.program
    assert sorted(seen, key=key) == sorted(expected, key=key)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(aux=st.text(alphabet="01", max_size=4), max_len=st.integers(1, 13),
       fuel=st.integers(1, 64) | st.sampled_from([128, 512]),
       banned=st.text(alphabet="01", min_size=1, max_size=4), cap=st.integers(0, 30),
       modulus=st.integers(1, 5), cuts=st.lists(st.integers(0, 13), min_size=1, max_size=6))
@example(aux="", max_len=10, fuel=512, banned="111", cap=12, modulus=1, cuts=[12])
# POW_HALT 3 of a one-bit literal (11 bits, 27 repeats) takes 39 steps, and
# RAW8_HALT 20: odd and even fuels around them
@example(aux="", max_len=13, fuel=39, banned="0000", cap=30, modulus=2, cuts=[13])
@example(aux="01", max_len=13, fuel=38, banned="0101", cap=30, modulus=3, cuts=[13, 12])
@example(aux="1", max_len=13, fuel=20, banned="1111", cap=30, modulus=1, cuts=[13])
# COPY_N past the aux end fills zeros, so many prefixes reach one state
@example(aux="1", max_len=13, fuel=512, banned="11", cap=30, modulus=4, cuts=[13])
def test_walks_match_bit_level_enumeration(aux, max_len, fuel, banned, cap, modulus, cuts):
    # oracle: run every string of at most max_len bits.  Halting is monotone
    # in the fuel, so the records within a smaller fuel f are those taking at
    # most f steps; the sweep puts f at the steps of every accepted record,
    # where a walk that closes a boundary one step early loses it.  A
    # monotone viable keeps exactly the records whose final output is viable
    everything = halting_by_bits(max_len, fuel, aux)
    assert list(enumerate_halting(MachineConfig(max_len, fuel), aux)) == everything

    def viable(out):
        return banned not in out and len(out) <= cap

    def accept(out):
        return int("1" + out, 2) % modulus != 1

    def recorder(seen):
        def cutoff(rec):
            seen.append(rec)
            return cuts[len(seen) % len(cuts)]
        return cutoff

    sweep = {fuel} | {r.steps for r in everything if viable(r.output) and accept(r.output)}
    for f in sorted(sweep):
        cfg = MachineConfig(max_len, f)
        within = [r for r in everything if r.steps <= f]
        assert list(search_programs(cfg, aux, _state(viable, accept))) == \
            _search_by_filter(within, max_len, viable, accept, lambda rec: max_len)
        seen, expected_seen = [], []
        got = search_programs(cfg, aux, _state(viable, accept), cutoff=recorder(seen))
        assert list(got) == _search_by_filter(within, max_len, viable, accept,
                                              recorder(expected_seen))
        _assert_seen_by_level(seen, expected_seen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(aux=st.text(alphabet="01", max_size=6), max_len=st.integers(1, 12),
       fuel=st.sampled_from([64, 256]), slack=st.integers(0, 3))
@example(aux="0110", max_len=12, fuel=256, slack=0)
def test_level_order_walk_matches_enumeration(aux, max_len, fuel, slack):
    # the enumeration is the uncut walk; a cutoff of the first record's
    # length plus slack keeps exactly its programs up to that length, seen
    # level by level
    cfg = MachineConfig(max_len, fuel)
    everything = enumerate_halting(cfg, aux)
    seen = []

    def cutoff(rec):
        seen.append(rec)
        return len(seen[0].program) + slack

    cut = search_programs(cfg, aux, lambda out: "complete", cutoff=cutoff)
    limit = min((len(r.program) for r in everything), default=0) + slack
    assert list(cut) == [r for r in everything if len(r.program) <= limit]
    _assert_seen_by_level(seen, cut)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(aux=st.text(alphabet="01", max_size=8), max_len=st.integers(1, 16),
       fuel=st.sampled_from([16, 64, 256, 1024, 4096]),
       banned=st.text(alphabet="01", min_size=1, max_size=4), modulus=st.integers(1, 5),
       cuts=st.lists(st.integers(0, 16), min_size=1, max_size=6))
@example(aux="01101001", max_len=16, fuel=4096, banned="0000", modulus=1, cuts=[16])
def test_store_matches_record_walk(aux, max_len, fuel, banned, modulus, cuts):
    # the store's records, one by one, against the walk that writes a
    # ProgramRecord per program: uncut, pruned by a state, and cut
    cfg = MachineConfig(max_len, fuel)
    assert list(search_programs(cfg, aux)) == search_programs_by_records(cfg, aux)

    def state(out):
        return "dead" if banned in out else "complete" if int("1" + out, 2) % modulus != 1 \
            else "viable"

    def recorder(seen):
        def cutoff(rec):
            seen.append(rec)
            return cuts[len(seen) % len(cuts)]
        return cutoff

    assert list(search_programs(cfg, aux, state)) == search_programs_by_records(cfg, aux, state)
    seen, expected_seen = [], []
    got = search_programs(cfg, aux, state, cutoff=recorder(seen))
    assert list(got) == search_programs_by_records(cfg, aux, state, cutoff=recorder(expected_seen))
    _assert_seen_by_level(seen, expected_seen)


def test_store_keys_past_64_bits_are_a_list():
    # a column is the narrowest unsigned array that holds every value the
    # bounds allow, and a list past 64 bits: a program of L = 64 bits takes
    # 65 with its leading 1, the steps of fuel 2^64 take 65, and so does the
    # grid point 2^64 that bounds the table's endpoints and running mass at
    # L = 64; the longest output, like the steps, is bounded by the fuel
    for cfg, aux, steps, programs, ids, grid in (
            (MachineConfig(64, 24), "01", "H", list, "H", list),
            (MachineConfig(40, 24), "01", "H", "Q", "H", "Q"),
            (MachineConfig(4, 1 << 64), "", list, "H", "H", "H"),
            (MachineConfig(20, 2048), "01", "H", "I", "H", "I")):
        store = enumerate_halting(cfg, aux)
        table = build_interval_table(cfg, aux)
        for column, want in ((store.steps, steps), (store.programs, programs), (store.ids, ids),
                             (table._bounds, grid), (table.cum, grid),
                             (table._prefix_maxlen, steps)):
            assert (column.typecode if isinstance(column, array) else type(column)) == want
        assert list(store) == search_programs_by_records(cfg, aux)
    assert len(enumerate_halting(MachineConfig(4, 1 << 64), "")) == 3
    # the grid of 2^L units fits 16 bits up to L = 15
    for L in (14, 15, 16):
        table = build_interval_table(MachineConfig(L, 64), "")
        assert {table._bounds.typecode, table.cum.typecode} == {"H" if L <= 15 else "I"}


def test_store_reads_as_a_sequence_of_records(fixture_cfg, enumeration):
    records = list(enumeration)
    n = len(enumeration)
    assert n == len(records) > 1
    assert [enumeration[k] for k in range(-n, n)] == records + records
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            enumeration[k]
    for cut in (slice(None, -1), slice(3, 40, 7), slice(None, None, -1), slice(n, None),
                slice(-5, None)):
        view = enumeration[cut]
        assert isinstance(view, Enumeration) and view.outputs is enumeration.outputs
        assert len(view) == len(records[cut]) and list(view) == records[cut]
    assert enumeration + records[:1] == records + records[:1]
    assert list(reversed(enumeration)) == records[::-1] and records[-1] in enumeration
    # the columns and the lines say what the records say
    assert list(enumeration.programs) == [int("1" + r.program, 2) for r in records]
    assert list(enumeration.steps) == [r.steps for r in records]
    assert list(enumeration.lines()) == [f"{r.program}\t{r.output}\t{r.steps}\n" for r in records]
    assert [enumeration.program(k) for k in range(-n, n)] == [r.program for r in records + records]
    assert cache_digest(enumeration) == cache_digest(records)
    assert len(enumeration.outputs) == len({r.output for r in records})


def test_digests_match_the_benchmark_seed():
    # perfbench/seed_digests.json pins cache_digest at L=20, fuel 2048 for
    # every aux of at most 8 bits; read here, never written
    path = Path(__file__).resolve().parent.parent / "perfbench" / "seed_digests.json"
    digests = json.loads(path.read_text(encoding="ascii"))["digests"]
    cfg = MachineConfig(20, 2048)
    for aux in all_strings_upto(2):
        assert cache_digest(get_enumeration(cfg, aux)) == digests[aux]


def _outputs_reached(cfg, aux, kind):
    # the output after each instruction that the walk expands, read off the
    # bit strings with the decoder: a string whose last instruction ends at
    # its end within the fuel, after continuing instructions whose outputs
    # are not dead; a continuing one of the greatest length opens nothing
    reached = []
    for program in all_strings_upto(cfg.max_program_len):
        output, i, a, steps = "", 0, 0, 0
        while program:
            op, num, y, end = _decode(program, i)
            if end is None:
                break
            steps += end - i + 1  # the code's bits and the dispatch
            effect = _effect(op, num, y, aux, a, cfg.fuel - steps) if steps <= cfg.fuel else None
            if effect is None:
                break
            emitted, a, extra = effect
            output, steps = output + emitted, steps + extra
            if end == len(program):
                if op in _HALTING or end < cfg.max_program_len:
                    reached.append(output)
                break
            if op in _HALTING or kind(output) == "dead":
                break
            i = end
    return reached


def test_walk_classifies_each_output_once():
    # one state call on the empty output, then one per output that an
    # instruction emits from an open boundary, whatever the answer: a
    # halting output is not asked twice, and a continuing one on the last
    # level is not asked at all.  The count is taken over bit strings, apart
    # from the walk and from the code-at-a-time oracle
    def kind(out):
        return "dead" if "11" in out else "complete" if len(out) % 2 else "viable"

    def state(out):
        asked.append(out)
        return kind(out)

    cfg, asked = MachineConfig(12, 256), []
    records = search_programs(cfg, "0110", state)
    assert list(records) == search_programs_by_records(cfg, "0110", kind)
    assert records and any("11" in out for out in asked)  # some outputs complete, some dead
    assert asked[0] == "" and Counter(asked[1:]) == Counter(_outputs_reached(cfg, "0110", kind))


@pytest.mark.parametrize("fuel", [24, 25])
def test_walk_lists_payloads_only_for_batches_that_fit(monkeypatch, fuel):
    # the cheapest instruction with a j-bit payload is POW_HALT 0 with a
    # one-bit number block, whose 2j + 5 code bits and dispatch are all its
    # steps: no wider payload fits the fuel, so none is ever listed, however
    # long the codes the bounds allow
    import ait.machine as machine

    widths, payloads = set(), machine._payloads

    def listing(j):
        widths.add(j)
        return payloads(j)

    monkeypatch.setattr(machine, "_payloads", listing)
    records = search_programs(MachineConfig(40, fuel), "")
    assert records and max(widths) == (fuel - 6) // 2


@pytest.mark.parametrize("aux", ["", "0", "0110"])
def test_walk_keys_aux_positions_up_to_the_aux_end(monkeypatch, aux):
    # past the aux end COPY_N reads zeros and COPY_ALL the one sentinel cell
    # wherever it starts, so the walk keys its states by the aux position
    # capped at len(aux): no batch starts past it, and some start at it.  The
    # code-at-a-time oracle keeps the uncapped positions
    import ait.machine as machine

    starts, walk = [], machine.batches

    def watched(aux, fuel, a, steps, c):
        starts.append(a)
        return walk(aux, fuel, a, steps, c)

    monkeypatch.setattr(machine, "batches", watched)
    cfg = MachineConfig(14, 256)
    records = search_programs(cfg, aux)
    assert max(starts) == len(aux)
    assert list(records) == search_programs_by_records(cfg, aux)


def _least(records):
    return min(records, key=lambda r: (len(r.program), r.program), default=None)


bit_strings = st.text(alphabet="01", max_size=8)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(aux=bit_strings, max_len=st.integers(1, 10), fuel=st.integers(16, 512),
       probes=st.lists(bit_strings, max_size=4),
       members=st.lists(st.text(alphabet="01", max_size=4), min_size=1, max_size=3))
@example(aux="0110", max_len=10, fuel=256, probes=[], members=["0110"])
def test_targeted_search_with_aux_matches_enumeration(aux, max_len, fuel, probes, members):
    # oracle for the boundary-graph searches: filter the full enumeration, on
    # every reachable output, on arbitrary (often unreachable) probes, and on
    # short member sets; the fuel range reaches the out-of-fuel edge
    cfg = MachineConfig(max_len, fuel)
    records = enumerate_halting(cfg, aux)
    for x in sorted({r.output for r in records}) + probes:
        want = [r for r in records if r.output == x]
        assert mass_for_output(x, cfg, aux) == kraft_sum(want)
        assert min_program_for_output(x, cfg, aux) == _least(want)
    extending = [r for r in records if any(r.output.startswith(m) for m in members)]
    assert min_program_with_prefix_in(members, cfg, aux) == _least(extending)


@pytest.mark.parametrize("aux", ["", "0", "0110", "1111"])
def test_targeted_search_at_tight_fuel(aux):
    # fuel s - 1, s and s + 1 around the steps s of each output's least
    # witness
    max_len = 10
    records = enumerate_halting(MachineConfig(max_len, 512), aux)
    filtered = {}
    for x in sorted({r.output for r in records}):
        steps = _least([r for r in records if r.output == x]).steps
        for fuel in (steps - 1, steps, steps + 1):
            cfg = MachineConfig(max_len, fuel)
            if fuel not in filtered:
                filtered[fuel] = enumerate_halting(cfg, aux)
            want = [r for r in filtered[fuel] if r.output == x]
            assert mass_for_output(x, cfg, aux) == kraft_sum(want)
            assert min_program_for_output(x, cfg, aux) == _least(want)


def test_dominance_prune_keeps_the_steps_coordinate():
    # at fuel 43 the least witness is EMIT 000000 then RAW8_HALT (27 bits,
    # 43 steps).  Its 16-bit EMIT prefix (23 steps) reaches the state
    # (output 000000, aux position 0) after the lex-smaller 15-bit prefix
    # EMIT of the empty literal, COPY_N 6 (29 steps), which cannot finish
    # within fuel; keeping only the shorter prefix of each state drops the
    # witness.  The all-output tree walk, filtered to x, is the oracle.
    x = "00000001010101"
    cfg = MachineConfig(27, 43)
    best = min_program_for_output(x, cfg)
    assert best is not None
    assert (best.program, best.steps) == ("100111111000000010101010101", 43)
    replay = run(best.program, "", cfg.fuel)
    assert replay.halted and replay.output == x and replay.steps == 43
    assert best == _least(search_programs(cfg, "", _state(lambda out: x.startswith(out),
                                                          lambda out: out == x)))
    roomy = min_program_for_output(x, MachineConfig(27, 44))
    assert (roomy.program, roomy.steps) == ("1110111011010101010101", 44)
    # the prefix-set search runs the same least-path DP over more edges
    assert min_program_with_prefix_in([x], cfg) == best
    assert min_program_with_prefix_in([x], MachineConfig(27, 44)) == roomy


@settings(max_examples=25, deadline=None, derandomize=True)
@given(aux=st.text(alphabet="01", max_size=6), max_len=st.sampled_from([12, 14]))
@example(aux="", max_len=14)
def test_least_program_matches_enumeration_at_tight_fuel(aux, max_len):
    # halting is fuel-monotone, so the programs within fuel f are the records
    # of one enumeration at fuel 4096 that take at most f steps; probe fuel
    # s - 1, s and s + 1 around the steps s of each least witness
    top = 4096
    everything = sorted(enumerate_halting(MachineConfig(max_len, top), aux),
                        key=lambda r: r.output)
    outputs = [r.output for r in everything]

    def extending(x):  # the records whose output extends x: one run of the list
        return everything[bisect_left(outputs, x):bisect_left(outputs, x + "2")]

    def around(records):
        steps = _least(records).steps
        return [MachineConfig(max_len, f) for f in (steps - 1, steps, steps + 1) if f <= top]

    for x in dict.fromkeys(outputs):
        records = [r for r in extending(x) if r.output == x]
        for cfg in around(records):
            want = [r for r in records if r.steps <= cfg.fuel]
            assert min_program_for_output(x, cfg, aux) == _least(want)
            assert mass_for_output(x, cfg, aux) == kraft_sum(want)
    # halves of outputs are often unreachable, so their least extending
    # programs run past them
    for x in dict.fromkeys(outputs + [out[:len(out) // 2] for out in outputs]):
        records = extending(x)
        for cfg in around(records):
            assert min_program_with_prefix_in([x], cfg, aux) == \
                _least([r for r in records if r.steps <= cfg.fuel])


def _extends(out, member):
    return len(out) >= len(member) and all(c in ("?", b) for c, b in zip(member, out))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(member=st.text(alphabet="01?", max_size=7), aux=st.text(alphabet="01", max_size=4),
       shift=st.integers(-3, 3), slack=st.integers(0, 1))
@example(member="0110", aux="", shift=0, slack=1)  # the literal halt is the answer
@example(member="0110", aux="", shift=0, slack=0)  # the literal needs one step more
@example(member="01?0", aux="01", shift=2, slack=1)
def test_least_paths_within_the_literal_halt_match_enumeration(member, aux, shift, slack):
    # the least-path searches run within min(L, 2 len(x) + 2) bits, the
    # literal halt EMIT_HALT x.  At fuel 3 len(x) + 3 the literal fits
    # exactly, and at 3 len(x) + 2 it does not; L lies on both sides of its
    # length.  Oracle: the least record of the enumeration
    x = member.replace("?", "1")  # exact search; the pattern's own x is its lex-least string
    n = len(x)
    cfg = MachineConfig(min(max(2 * n + 2 + shift, 1), 16), 3 * n + 2 + slack)
    records = enumerate_halting(cfg, aux)
    assert min_program_for_output(x, cfg, aux) == _least([r for r in records if r.output == x])
    assert min_program_with_prefix_in([member], cfg, aux) == \
        _least([r for r in records if _extends(r.output, member)])


def test_least_paths_build_no_room_past_the_literal_halt(monkeypatch):
    # the answers agree with or without the cap, so only the work shows it:
    # every boundary graph of a least-path search is built within
    # min(L, 2 len(x) + 2) bits, x the lex-least string of the pattern
    import ait.machine as machine

    rooms, build = [], machine._boundaries

    def watched(x, free, aux, L, edges):
        rooms.append((x, L))
        return build(x, free, aux, L, edges)

    monkeypatch.setattr(machine, "_boundaries", watched)
    targets = ["", "0110100111", "0" * 30]
    for x in targets:
        assert min_program_for_output(x, CHAIN, "0110") is not None
    assert min_program_with_prefix_in(["01?1", "0?" * 12], CHAIN) is not None
    expected = [(x, min(CHAIN.max_program_len, 2 * len(x) + 2))
                for x in targets + ["0101", "00" * 12]]
    assert rooms == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.text(alphabet="01", max_size=8), aux=st.text(alphabet="01", max_size=6),
       max_len=st.integers(1, 16))
def test_boundary_edges_match_the_decoder(x, aux, max_len):
    # oracle: every instruction that ``expand`` decodes at each boundary of the
    # graph and that matches x.  A continuing code longer than room - 2 leaves
    # no room for a halt, whose shortest code has 2 bits, so it adds no mass;
    # of those, _count_edges yields only its 4- and 5-bit self-loops
    prefix, out = _boundaries(x, 0, aux, max_len, _target_edges)
    for s, target in out.items():
        room = max_len - prefix[s]
        oracle = edges_by_expand(x, aux, *s, room)
        assert set(target) <= set(oracle)
        _assert_codes_sort_as_their_bits([code for code, _t, _w in target], max_len)
        expected = Counter()
        for (code, t, w), k in oracle.items():
            if t is None or code.bit_length() - 1 <= room - 2:
                expected[code.bit_length() - 1, t, w] += k
        counted, massless = Counter(), set()
        for c, t, w, k in _count_edges(x, aux, *s, room, target):
            if t is None or c <= room - 2:
                counted[c, t, w] += k
            else:
                massless.add((c, t, w))
        assert counted == expected
        assert massless <= {(4, s, 5), (5, s, 7)}


def _assert_codes_sort_as_their_bits(codes, max_len):
    # the least-path tie-break compares the codes out of a boundary aligned
    # at their top bits, which orders them as their bits because they are
    # prefix-free
    bits = [bin(code)[3:] for code in codes]
    assert prefix_pair(bits) is None, bits
    aligned = sorted(codes, key=lambda code: code << max_len + 1 - code.bit_length())
    assert [bin(code)[3:] for code in aligned] == sorted(bits)


def test_target_edges_at_chain_are_decoder_edges():
    # calibrate's chain queries at L=48, fuel 4096, where each COPY_N width
    # tries counts up to F/2.  The oracle's cost grows with the room, so only
    # the boundaries with at most 28 bits of room are checked: five of the
    # first query's and two of the last's
    L, checked = CHAIN.max_program_len, 0
    for x, aux in [(pair_aux("01", "110"), ""), (pair_aux("1", "0"), ""),
                   ("110", pair_aux_nat("01", 5)), ("0110", pair_aux_nat("0110", 10))]:
        prefix, out = _boundaries(x, 0, aux, L, _target_edges)
        for s, target in out.items():
            if L - prefix[s] <= 28:
                oracle = edges_by_expand(x, aux, *s, L - prefix[s], fuel=CHAIN.fuel)
                assert set(target) <= set(oracle), (x, aux, s)
                checked += 1
    assert checked == 7


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.text(alphabet="01", max_size=8), aux=st.text(alphabet="01", max_size=6),
       max_len=st.integers(1, 16))
def test_target_edges_dominate_the_decoder_edges_they_drop(x, aux, max_len):
    # every decoder edge that _target_edges leaves out, other than a self-loop
    # or a continuing code longer than room - 2, has a kept edge to the same
    # next boundary whose code is no longer and whose weight is no larger, so
    # no least program needs it
    prefix, out = _boundaries(x, 0, aux, max_len, _target_edges)
    for s, target in out.items():
        room = max_len - prefix[s]
        kept = set(target)
        for code, t, w in edges_by_expand(x, aux, *s, room):
            if (code, t, w) in kept or t == s or t is not None and code.bit_length() - 1 > room - 2:
                continue
            assert any(t2 == t and c2.bit_length() <= code.bit_length() and w2 <= w
                       for c2, t2, w2 in kept), (s, code, t, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.text(alphabet="01", max_size=8), aux=st.text(alphabet="01", max_size=6),
       max_len=st.integers(1, 16))
def test_extending_edges_match_the_decoder(x, aux, max_len):
    # oracle: every instruction that ``expand`` decodes at each boundary of the
    # graph and whose output agrees with x as far as both go, with the bits
    # past x added to the weight.  A POW_HALT past x may repeat its literal up
    # to 15^15 times, so the oracle runs at a fuel of 4096, and an edge that
    # needs more steps than that must be such a halt
    fuel = 4096
    prefix, out = _boundaries(x, 0, aux, max_len, _extending_edges)
    for (o, a), edges in out.items():
        oracle = edges_by_expand(x, aux, o, a, max_len - prefix[o, a],
                                 extending=True, fuel=fuel)
        _assert_codes_sort_as_their_bits([code for code, _t, _w in edges], max_len)
        for code, t, w in edges:
            if w + (len(x) if t is None else t[0]) - o <= fuel:  # the steps it spends
                assert (code, t, w) in oracle, (o, a, code)
            else:
                assert t is None and bin(code)[3:].startswith(_CODE["POW_HALT"]), (o, a, code)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(window=st.text(alphabet="01?", min_size=1, max_size=24), j=st.integers(1, 10))
@example(window="1?0?1", j=2)  # positions 0, 2 and 4 hold 1, 0 and 1: None
@example(window="1?0?11", j=4)  # a partial last chunk of 2 bits: y = 1100
@example(window="0?1?1", j=3)  # a partial last chunk of 2 bits: y = 011
@example(window="01?1", j=3)  # a partial last chunk that clashes with the first: None
def test_fold_is_the_residue_class_check(window, j):
    # brute force: the fixed bits of each residue class mod j must agree, and
    # y takes the class's 1 if it has one and 0 otherwise
    classes = [set(window[t::j]) - {"?"} for t in range(j)]
    want = None if any(len(c) > 1 for c in classes) else \
        int("".join("1" if "1" in c else "0" for c in classes), 2)
    x, free = split_pattern(window)
    v = int(x, 2)
    assert _fold(v, (1 << len(x)) - 1 ^ free ^ v, len(x), j) == want


def _random_bits(seed, n):
    rng = Lcg(seed)
    return "".join(str(rng.next(2)) for _ in range(n))


@pytest.mark.parametrize("x, cfg, aux, program", [
    ("0" * 3125, MachineConfig(14, 4096), "", "1101110101100"),
    ("01" * 60, CHAIN, "", "100111111111111001010101010111011011111100101"),
    (_random_bits(150, 150), CHAIN, "0110", None),
    # at fuel 4096 a 19-bit program prints "0"*40 in 101 steps; at fuel 70
    # the fuel binds, and only a longer program that takes 70 steps fits
    ("0" * 40, MachineConfig(48, 4096), "", "1110111111010100000"),
    ("0" * 40, MachineConfig(48, 70), "", "11011010111111111100000000000"),
    ("0" * 40, MachineConfig(48, 69), "", None),
    ("0" * 300, MachineConfig(48, 400), "", "111011111101011001101110100100"),
], ids=["zeros_3125", "alternating_120", "random_150", "zeros_40_fuel_4096",
        "zeros_40_fuel_70", "zeros_40_fuel_69", "zeros_300_fuel_400"])
def test_least_program_on_long_targets(x, cfg, aux, program):
    best = min_program_for_output(x, cfg, aux)
    assert (best and best.program) == program
    if best is not None:
        replay = run(best.program, aux, cfg.fuel)
        assert replay.halted and replay.output == x and replay.steps == best.steps


def test_least_extending_program_within_a_binding_budget():
    # at fuel 4096 the 13-bit POW_HALT 5 of 0 prints 3125 zeros; within fuel
    # 1000 the least is POW_HALT 4 of 00, 4^4 copies of 00 past the member's
    # end, in 15 input steps, a dispatch and 512 output steps
    best = min_program_with_prefix_in(["0" * 300], MachineConfig(48, 1000))
    assert (best.program, best.output, best.steps) == ("110111010011000", "0" * 512, 528)


def test_targeted_search_equals_enumeration_filter(fixture_cfg, enumeration):
    # the dual route: the boundary graph counts exactly the enumerated programs
    by_output = {}
    for r in enumeration:
        by_output.setdefault(r.output, set()).add(r.program)
    outputs = sorted(by_output, key=lambda o: (len(o), o))
    for out in outputs[:60] + outputs[-20:]:
        assert mass_for_output(out, fixture_cfg) == \
            dyadic_sum(Dyadic(1, len(p)) for p in by_output[out])
        best = min_program_for_output(out, fixture_cfg)
        assert (len(best.program), best.program) == min(
            (len(p), p) for p in by_output[out]
        )


def test_min_with_prefix_in(fixture_cfg):
    rec = min_program_with_prefix_in(["0000"], fixture_cfg)
    assert rec is not None
    assert rec.output.startswith("0000")
    assert len(rec.program) == 10  # the four-bit literal emit
    degenerate = min_program_with_prefix_in([""], fixture_cfg)
    assert degenerate.program == P_EPSILON


def test_aux_copy(fixture_cfg):
    # copy-all then the empty-literal halt reproduces any aux string
    for aux in ("0110", "111", ""):
        out = run("11110" + "00", aux, 256)
        assert out.halted and out.output == aux


def test_aux_zero_fill(fixture_cfg):
    # copy-3 on an exhausted tape appends the zero fill
    out = run("1110" + "11011" + "00", "1", 256)
    assert out.halted and out.output == "100"


def test_opcode_table_is_a_complete_prefix_code():
    # the decoder relies on this: every bit stream starts with exactly one opcode
    assert prefix_pair(_OPCODES) is None
    assert dyadic_sum(Dyadic(1, len(code)) for code in _OPCODES) == Dyadic.one()

