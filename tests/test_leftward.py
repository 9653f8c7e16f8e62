import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ait.codec import Lcg, all_strings_upto, prefix_pair
from ait.dyadic import Dyadic
import ait.leftward as leftward
from ait.leftward import (
    TotalSearchNotFound,
    _cuts,
    bb,
    border_prefix,
    build_interval_table,
    get_interval_table,
    is_total_uprime,
    m_b,
    m_b_set,
    omega_pair,
    shortest_total_satisfying,
    total_strings_of_length,
)
from ait.machine import Enumeration, MachineConfig, Status, kraft_sum, mass_for_output, run
from oracles import (
    UTotality,
    border_by_descent,
    interval_of,
    is_total_uprime_by_walk,
    left_of,
    mass_filtered,
    outputs_by_grouping,
    reach_by_pieces,
    run_left_total,
    serialize_table,
    table_pieces,
    tiles,
)


def all_strings_of(n):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def _probes(table):
    """Every b of at most 5 bits, then random b of 1 to L+4 bits.  Half the
    random b extend a piece's program, which then neither lies left of b nor
    extends it; a b longer than L lies inside one grid cell."""
    L = table.config.max_program_len
    rng = Lcg(41)

    def bits(n):
        return "".join(str(rng.next(2)) for _ in range(n))

    probes = [b for n in range(6) for b in all_strings_of(n)]
    probes += [bits(1 + rng.next(L + 4)) for _ in range(100)]
    pieces = table_pieces(table)
    probes += [pieces[rng.next(len(pieces))].program + bits(1 + rng.next(4))
               for _ in range(100)]
    return probes


def test_table_structure(fixture_cfg, interval_table, enumeration):
    L = fixture_cfg.max_program_len
    assert interval_table.records is enumeration  # the cached list, not a copy
    assert len(interval_table._bounds) == len(enumeration) + 1
    # first interval starts at 0; widths are 2^-len; consecutive (grid units)
    pos = 0
    for rec, lo, hi in tiles(interval_table):
        assert lo == pos
        assert Dyadic(hi - lo, L) == Dyadic(1, len(rec.program))
        pos = hi
    assert Dyadic(pos, L) == kraft_sum(enumeration) == interval_table.omega


def test_table_rejects_kraft_sum_above_one(fixture_cfg, enumeration, monkeypatch):
    # a duplicated shortest program pushes the fixture's Kraft sum past 1;
    # 64 copies push the tile endpoints past the 16 bits that the grid of
    # 2^14 units needs
    shortest = min(enumeration, key=lambda r: len(r.program))
    k = list(enumeration).index(shortest)
    for copies in (1, 64):
        broken = Enumeration(enumeration.steps + enumeration.steps[k:k + 1] * copies,
                             enumeration.programs + enumeration.programs[k:k + 1] * copies,
                             enumeration.ids + enumeration.ids[k:k + 1] * copies,
                             enumeration.outputs)
        assert list(broken) == list(enumeration) + [shortest] * copies
        assert kraft_sum(broken) > Dyadic.one()
        monkeypatch.setattr(leftward, "get_enumeration", lambda cfg, aux: broken)
        with pytest.raises(AssertionError, match="Kraft sum exceeded 1"):
            build_interval_table(fixture_cfg, "")


def test_table_serialization_golden(fixture_cfg, interval_table):
    import hashlib

    text = serialize_table(interval_table)
    digest = hashlib.sha256(text.encode()).hexdigest()
    rebuilt = build_interval_table(fixture_cfg, "")
    assert serialize_table(rebuilt) == text  # byte-stable across builds
    assert digest == "09841a77d631b0d95f1da3f165071fa48c52c64e1a61492c39904d0e25701eac"


def test_pieces_partition_and_length_bound(fixture_cfg, interval_table):
    L = fixture_cfg.max_program_len
    pieces = table_pieces(interval_table)
    pos = 0
    for piece in pieces:
        assert piece.lo == pos
        assert len(piece.program) <= L
        pos = piece.hi
    assert pos == interval_table.omega_grid
    assert prefix_pair([p.program for p in pieces]) is None
    # the tile queries, against the same queries read off the pieces found by
    # descent: the prefix maximum, the per-output mass and omega_hat
    _assert_queries_match_pieces(interval_table, "", pieces, _probes(interval_table),
                                 ["", "0", "1", "00", "0000", "0110"])


def _assert_queries_match_pieces(table, aux, pieces, probes, outputs):
    cfg = table.config
    L = cfg.max_program_len
    for b in probes:
        total = is_total_uprime(b, table)
        reach = reach_by_pieces(b, pieces, L)
        assert bb(b, cfg, aux) == (reach.bb if total else 0), b
        assert omega_pair(b, cfg, aux) == (table.omega, Dyadic(reach.omega_hat, L)), b
        for x in outputs:
            want = Dyadic(reach.mass[x], L)
            assert mass_filtered(b, x, table) == want, (b, x)
            assert m_b(b, x, aux, cfg) == (want if total else Dyadic.zero()), (b, x)


@pytest.mark.parametrize("L", [40, 64])
def test_tile_queries_match_pieces_past_32_bits(L):
    # grid points up to 2^40 and 2^64: at L = 64 the endpoints and the
    # running mass no longer fit 64 bits
    cfg, aux = MachineConfig(L, 24), "01"
    table = get_interval_table(cfg, aux)
    pieces = table_pieces(table)
    border = "111010111111001000100"
    probes = ["", "0", "1", border, border + "1", border_prefix(cfg, aux).bits,
              (border + "0" * L)[:L + 1], (border + "1" * L)[:L + 2]]
    picked = [pieces[len(pieces) * j // 5].program for j in range(5)]
    probes += picked + [p + "01" for p in picked]
    _assert_queries_match_pieces(table, aux, pieces, probes, ["", "0", "1", "01", "0000"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(aux=st.text("01", max_size=6), L=st.integers(8, 16),
       fuel=st.sampled_from([64, 256, 2048]), data=st.data())
def test_tile_queries_match_pieces_on_random_tables(aux, L, fuel, data):
    cfg = MachineConfig(L, fuel)
    table = get_interval_table(cfg, aux)
    pieces = table_pieces(table)
    bits = lambda lo, hi: st.text("01", min_size=lo, max_size=hi)
    # b longer than L; b inside a piece, so its parent lies inside one tile;
    # a piece itself; and any b of at most L bits
    kinds = [bits(L + 1, L + 4), bits(0, L)]
    if pieces:
        piece = st.sampled_from(pieces).map(lambda p: p.program)
        kinds += [st.tuples(piece, bits(1, 3)).map("".join), piece]
    probes = [""] + data.draw(st.lists(st.one_of(kinds), min_size=1, max_size=12))
    outputs = sorted({p.output for p in pieces})[:4] + ["", "1"]
    _assert_queries_match_pieces(table, aux, pieces, probes, outputs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(L=st.integers(1, 12), fuel=st.integers(16, 2048), aux=st.text("01", max_size=6),
       data=st.data())
def test_output_view_matches_grouping(L, fuel, aux, data):
    # the table's output columns against the records regrouped into a dict
    # of arrays: the same outputs in the same ranked order, and per output
    # the same least record, tiles and running mass
    cfg = MachineConfig(L, fuel)
    table = get_interval_table(cfg, aux)
    want = outputs_by_grouping(table)
    assert list(table.index) == list(want) and len(table.index) == len(want)
    for x, (least, tiles, mass) in want.items():
        i = table.index[x]
        lo, hi = table.starts[i], table.starts[i + 1]
        assert table.records[table.least[i]] == least and list(table.tiles[lo:hi]) == list(tiles)
        assert [c - table.cum[lo] for c in table.cum[lo:hi + 1]] == list(mass)
        assert table.program(i) == least.program and table.length(i) == len(least.program)
        assert table.mass(i) == mass[-1]
    strangers = [x for x in ("", "0", "1", "00", "0" * (L + 9)) if x not in want]
    assert not any(x in table.index for x in strangers)
    # m_b_set at random total strings against the pieces found by descent,
    # for every output alone and for a random set
    pieces = table_pieces(table)
    for n in data.draw(st.lists(st.integers(1, L), max_size=4)):
        total = total_strings_of_length(n, table)
        if not total:
            continue
        b = data.draw(st.sampled_from(total))
        mass = reach_by_pieces(b, pieces, L).mass
        for x in want:
            assert m_b_set(b, [x], aux, cfg) == Dyadic(mass[x], L), (b, x)
        members = data.draw(st.lists(st.sampled_from(list(want) + strangers), max_size=4))
        assert m_b_set(b, members, aux, cfg) == Dyadic(sum(mass[x] for x in set(members)), L)


def test_transform_preserves_output_within_one_bit(interval_table):
    # for every base program there is a transformed program at most one bit longer
    pieces = table_pieces(interval_table)
    for rec, lo, hi in tiles(interval_table):
        inside = [p for p in pieces if p.lo >= lo and p.hi <= hi]
        assert min(len(p.program) for p in inside) <= len(rec.program) + 1
        assert all(p.output == rec.output for p in inside)


def test_run_left_total_rules(interval_table):
    # spec containment rules on a hand-checked tile: (1/4, 1/2) accepts "01"
    first = table_pieces(interval_table)[0]
    out = run_left_total(first.program, interval_table)
    assert out.halted and out.output == first.output
    assert out.bits_read == len(first.program)
    parent = first.program[:-1]
    assert run_left_total(parent, interval_table).status is Status.NEEDS_MORE_INPUT
    # extensions reply with the same outcome and the same bits_read
    ext = run_left_total(first.program + "101", interval_table)
    assert ext.halted and ext.bits_read == len(first.program)


def test_transform_mass_equals_base_mass(fixture_cfg, interval_table, enumeration):
    # the tiling preserves every output's algorithmic weight exactly
    from collections import defaultdict

    base = defaultdict(lambda: Dyadic.zero())
    for r in enumeration:
        base[r.output] = base[r.output] + Dyadic(1, len(r.program))
    trans = defaultdict(lambda: Dyadic.zero())
    for p in table_pieces(interval_table):
        trans[p.output] = trans[p.output] + Dyadic(1, len(p.program))
    assert dict(base) == dict(trans)


def test_left_totality_exhaustive(fixture_cfg, interval_table):
    # every string left of a transformed halting program is total:
    # equivalently any non-total string has nothing to its right
    L = fixture_cfg.max_program_len
    max_lo = max(p.lo for p in table_pieces(interval_table))
    omega = interval_table.omega_grid
    for n in range(0, L + 1):
        for v in range(1 << n):
            q = format(v, f"0{n}b") if n else ""
            hi = (v + 1) << (L - n) if n else 1 << L
            if hi > omega:  # non-total: no halting program may sit to its right
                assert max_lo < hi
    # spot equivalence between the interval rule and the tree-walk oracle
    for n in range(0, 7):
        for v in range(1 << n):
            q = format(v, f"0{n}b") if n else ""
            assert is_total_uprime(q, interval_table) == \
                is_total_uprime_by_walk(q, interval_table)


def test_is_total_dispatch(fixture_cfg, interval_table):
    assert is_total_uprime("0", interval_table) is True
    assert is_total_uprime("", interval_table) is False
    # a halting base program is total for the base machine
    base = UTotality(fixture_cfg)
    assert base.is_total("00") is True
    assert base.is_total("") is False
    with pytest.raises(ValueError):
        base.is_total("0" * (fixture_cfg.max_program_len + 1))


def test_total_implies_children_total(fixture_cfg, interval_table):
    for n in range(1, 8):
        for b in total_strings_of_length(n, interval_table):
            for child in (b + "0", b + "1"):
                assert is_total_uprime(child, interval_table)


def test_border_against_brute_force(fixture_cfg, interval_table):
    b = border_prefix(fixture_cfg)

    # independent brute-force walk: totality via the tree-walk oracle, and
    # "subtree holds a halting program" via a scan over transformed programs
    pieces = table_pieces(interval_table)

    def subtree_has_halting(x):
        lo, hi = _lo(x, fixture_cfg), _hi(x, fixture_cfg)
        return any(lo <= p.lo and p.hi <= hi for p in pieces)

    def mixed(x):
        walk_total = lambda s: is_total_uprime_by_walk(s, interval_table)
        return not walk_total(x) and subtree_has_halting(x)

    def walk():
        x = ""
        while len(x) < fixture_cfg.max_program_len:
            right, left = x + "1", x + "0"
            if subtree_has_halting(right) and not is_total_uprime_by_walk(
                    right, interval_table):
                x = right
            elif mixed(left):
                x = left
            else:
                break
        return x

    assert b.bits == walk()
    assert b.bits == "1110001111100"  # frozen from the first build


def test_border_closed_form_matches_descent(monkeypatch):
    # every grid halting mass from 0 to 1 inclusive, at every L up to 12,
    # in place of the table's (border_prefix reads only its omega_grid)
    for L in range(1, 13):
        cfg = MachineConfig(L, 64)
        for omega in range((1 << L) + 1):
            table = SimpleNamespace(omega_grid=omega)
            monkeypatch.setattr(leftward, "get_interval_table", lambda cfg, aux: table)
            assert border_prefix(cfg).bits == border_by_descent(omega, L), (L, omega)


@pytest.mark.parametrize("aux", ["", "0", "0110"])
def test_border_matches_descent_on_fixture_tables(fixture_cfg, double_fuel_cfg, small_cfg, aux):
    for cfg in (fixture_cfg, double_fuel_cfg, small_cfg):
        omega = get_interval_table(cfg, aux).omega_grid
        assert border_prefix(cfg, aux).bits == border_by_descent(omega, cfg.max_program_len)


def _lo(x, cfg):
    return int(x, 2) << (cfg.max_program_len - len(x))


def _hi(x, cfg):
    return (int(x, 2) + 1) << (cfg.max_program_len - len(x))


def test_border_has_mixed_expansions(fixture_cfg, interval_table):
    b = border_prefix(fixture_cfg).bits
    for k in range(1, len(b) + 1):
        prefix = b[:k]
        assert not is_total_uprime(prefix, interval_table)
        assert Dyadic(int(prefix, 2), k) < interval_table.omega  # has halting mass


def test_everything_left_of_border_total(fixture_cfg, interval_table):
    b = border_prefix(fixture_cfg).bits
    v = int(b, 2)
    for u in range(v):
        assert is_total_uprime(format(u, f"0{len(b)}b"), interval_table)


def test_omega_pair_bounds(fixture_cfg):
    b = border_prefix(fixture_cfg)
    om, om_hat = omega_pair(b, fixture_cfg)
    assert om_hat <= om
    assert om - om_hat <= Dyadic(1, len(b.bits))
    # empty border excludes everything
    om2, hat2 = omega_pair("", fixture_cfg)
    assert hat2 == Dyadic.zero() and om2 == om


@pytest.mark.parametrize("aux", ["", "0110"])
def test_omega_hat_oracle(fixture_cfg, aux):
    table = get_interval_table(fixture_cfg, aux)
    pieces = table_pieces(table)
    L = fixture_cfg.max_program_len
    for b in _probes(table):
        want = Dyadic(reach_by_pieces(b, pieces, L).omega_hat, L)
        assert omega_pair(b, fixture_cfg, aux)[1] == want


def test_omega_matches_kraft(fixture_cfg, enumeration):
    om, _ = omega_pair("", fixture_cfg)
    assert om == kraft_sum(enumeration)


@pytest.mark.parametrize("aux", ["", "0110"])
def test_bb_definition_oracle(fixture_cfg, aux):
    # brute force over pieces using the left-of / extends filter on strings
    table = get_interval_table(fixture_cfg, aux)
    pieces = table_pieces(table)
    L = fixture_cfg.max_program_len
    for b in _probes(table):
        want = reach_by_pieces(b, pieces, L).bb if is_total_uprime(b, table) else 0
        assert bb(b, fixture_cfg, aux) == want


@pytest.mark.parametrize("aux", ["", "0110", "1"])
def test_cut_is_the_totality_gate(fixture_cfg, aux):
    # bb and m_b_set read totality off their one cut: b is total exactly
    # when the cut's upto point is at most omega, for every b of at most
    # L + 2 bits, those longer than L included
    table = get_interval_table(fixture_cfg, aux)
    for b in all_strings_upto(fixture_cfg.max_program_len + 2):
        assert (_cuts(b, table)[1] <= table.omega_grid) == is_total_uprime(b, table), b


def test_bb_monotone_on_parent(fixture_cfg, interval_table):
    for n in range(1, 9):
        for b in total_strings_of_length(n, interval_table):
            if is_total_uprime(b[:-1], interval_table):
                assert bb(b[:-1], fixture_cfg) >= bb(b, fixture_cfg)


def test_m_b_zero_for_non_total(fixture_cfg):
    assert m_b("1" * 14, "0", "", fixture_cfg) == Dyadic.zero()
    assert bb("1" * 14, fixture_cfg) == 0


@pytest.mark.parametrize("aux", ["", "0110"])
def test_m_b_oracle_and_monotonicity(fixture_cfg, aux):
    table = get_interval_table(fixture_cfg, aux)
    outputs = ["", "0", "1", "00", "0000", "0110"]
    pieces = table_pieces(table)
    L = fixture_cfg.max_program_len
    for b in _probes(table):
        total = is_total_uprime(b, table)
        reach = reach_by_pieces(b, pieces, L)
        for x in outputs:
            want = Dyadic(reach.mass[x], L)
            assert mass_filtered(b, x, table) == want
            assert m_b(b, x, aux, fixture_cfg) == (want if total else Dyadic.zero())


def test_m_b_parent_dominates(fixture_cfg, interval_table):
    outputs = ["", "0", "1", "00", "0000"]
    for n in range(1, 9):
        for b in total_strings_of_length(n, interval_table):
            if not is_total_uprime(b[:-1], interval_table):
                continue
            for x in outputs:
                assert m_b(b[:-1], x, "", fixture_cfg) >= m_b(b, x, "", fixture_cfg)


def test_empty_prefix_filter_excludes_nothing(fixture_cfg, interval_table):
    # the raw left-of-or-extends filter with the empty prefix counts all mass,
    # as the boundary-graph path count does; the totality-gated m_b is zero
    # there because the empty string is never total at desk scale (the
    # machine has nonhalting inputs)
    for x in ("", "0", "0000", "0110"):
        assert mass_filtered("", x, interval_table) == mass_for_output(x, fixture_cfg)
    assert m_b("", "0", "", fixture_cfg) == Dyadic.zero()


def test_shortest_total_vacuous_predicate(fixture_cfg, interval_table):
    # the empty string is not total, so the search returns the leftmost total
    b = shortest_total_satisfying(lambda s: True, fixture_cfg)
    assert b == "0"


def test_shortest_total_not_found(fixture_cfg):
    with pytest.raises(TotalSearchNotFound):
        shortest_total_satisfying(lambda s: False, fixture_cfg)


def test_shortest_total_m_b_predicate_oracle(fixture_cfg, interval_table):
    # predicate from the set-probability search, against a naive level scan
    from ait.complexity import m_set

    members = frozenset(["0", "1"])
    mass = m_set(members, "", fixture_cfg)
    from ait.dyadic import ceil_neg_log2

    i = 1 + ceil_neg_log2(mass)
    bound = Dyadic(1, i)
    pred = lambda b: sum(
        (m_b(b, x, "", fixture_cfg) for x in members), Dyadic.zero()
    ) >= bound
    found = shortest_total_satisfying(pred, fixture_cfg)
    for n in range(len(found)):
        assert not any(pred(b) for b in total_strings_of_length(n, interval_table))
    level = [b for b in total_strings_of_length(len(found), interval_table) if pred(b)]
    assert level == [found]  # unique at its length


def test_m_b_with_conditioning(fixture_cfg):
    # the table conditional to an aux string counts aux-copy programs: the
    # copy-all witness makes the aux string itself carry weight
    from ait.leftward import get_interval_table

    aux = "0110"
    table = get_interval_table(fixture_cfg, aux)
    i = table.index[aux]
    assert run(table.program(i), aux, fixture_cfg.fuel).output == aux
    assert Dyadic(table.mass(i), fixture_cfg.max_program_len) == mass_for_output(aux, fixture_cfg, aux)
    L = fixture_cfg.max_program_len
    reach = reach_by_pieces("0", table_pieces(table), L)
    assert m_b("0", aux, aux, fixture_cfg) == Dyadic(reach.mass[aux], L)


def test_shortest_total_parent_never_total(fixture_cfg, interval_table):
    # a found string's parent is never total: a total parent would have
    # satisfied the (parent-dominated) predicate one level earlier
    from ait.complexity import m_set
    from ait.dyadic import ceil_neg_log2

    for members in (frozenset(["0"]), frozenset(["00", "11"]), frozenset([""])):
        mass = m_set(members, "", fixture_cfg)
        bound = Dyadic(1, 1 + ceil_neg_log2(mass))
        pred = lambda b: m_b_set(b, members, "", fixture_cfg) >= bound
        b = shortest_total_satisfying(pred, fixture_cfg)
        assert b == "" or not is_total_uprime(b[:-1], interval_table)


def test_left_of_interval_consistency_small():
    # x left-of y agrees with interval order for prefix-incomparable x, y
    strings = all_strings_of(3) + all_strings_of(5)
    for x, y in itertools.permutations(strings, 2):
        if not (x.startswith(y) or y.startswith(x)):
            assert left_of(x, y) == interval_of(x).entirely_left_of(interval_of(y))
