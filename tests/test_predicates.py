import pytest
from hypothesis import given, settings, strategies as st

from ait.codec import Lcg, kraft_sum
from ait.dyadic import Dyadic
from ait.frozen import FROZEN
from ait.machine import (
    MachineConfig,
    _extending_edges,
    _least_path,
    _target_edges,
    run,
    search_programs,
    split_pattern,
)
from ait.predicates import (
    BinaryPredicate,
    ExtensionNotFound,
    complete_extension_search,
    cylinder,
    encode_predicate,
    pattern,
)

from oracles import decode_predicate, predicate_of_cylinder


def test_two_constraint_worked_example():
    g = BinaryPredicate([(2, 0), (4, 0)])
    cyl = cylinder(g)
    assert sorted(cyl.members) == ["0000", "0010", "1000", "1010"]
    assert kraft_sum(cyl) == Dyadic(1, 2)


def test_pattern_small_cases():
    assert pattern(BinaryPredicate([(2, 0), (4, 1)])) == "?0?1"
    assert split_pattern("?0?1") == ("0001", 0b1010)
    with pytest.raises(ValueError):
        pattern(BinaryPredicate([]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.dictionaries(st.integers(1, 9), st.integers(0, 1), min_size=1),
       bounds=st.sampled_from([(12, 40), (18, 33), (40, 70), (48, 200), (48, 4096)]),
       aux=st.sampled_from(["", "0110", "10110100111"]),
       edges=st.sampled_from([_target_edges, _extending_edges]))
def test_one_pattern_search_is_the_least_member_search(pairs, bounds, aux, edges):
    # the least path over the cylinder's pattern against two oracles: the
    # least of the searches from each member (the least k_t over the cylinder
    # through _target_edges), and a walk of every program whose output
    # agrees with the pattern, up to n bits, n the answer's length: a least
    # program of n bits is also least within L = n
    g, cfg = BinaryPredicate(pairs.items()), MachineConfig(*bounds)
    cyl, extending = pattern(g), edges is _extending_edges
    best = _least_path(*split_pattern(cyl), cfg, aux, edges)
    members = (_least_path(x, 0, cfg, aux, edges) for x in cylinder(g))
    assert best == min(filter(None, members), default=None)

    def state(out):
        if any(c not in ("?", b) for c, b in zip(cyl, out)) or len(out) > len(cyl) and not extending:
            return "dead"
        return "complete" if len(out) >= len(cyl) else "viable"

    n = min(cfg.max_program_len, 16) if best is None else best[0].bit_length() - 1
    if n <= 16:
        walk = search_programs(MachineConfig(n, cfg.fuel), aux, state)
        least = min(walk, key=lambda r: (len(r.program), r.program), default=None)
        assert (least and (least.program, least.steps)) == (best and (bin(best[0])[3:], best[1]))


def test_cylinder_small_cases():
    assert list(cylinder(BinaryPredicate([(1, 1)]))) == ["1"]
    assert sorted(cylinder(BinaryPredicate([(3, 1)]))) == ["001", "011", "101", "111"]
    with pytest.raises(ValueError):
        cylinder(BinaryPredicate([]))


def test_cylinder_cardinality_identity():
    rng = Lcg(3)
    for _ in range(100):
        dom = sorted({1 + rng.next(8) for _ in range(1 + rng.next(6))})
        g = BinaryPredicate([(i, rng.next(2)) for i in dom])
        cyl = cylinder(g)
        n = max(g.domain)
        assert len(cyl) == 1 << (n - len(g))
        assert kraft_sum(cyl) == Dyadic(1, len(g))


def test_predicate_cylinder_roundtrip_exhaustive():
    # mutual constructibility to max index 8, domain sizes 1..3
    import itertools

    for dom_size in (1, 2, 3):
        for dom in itertools.combinations(range(1, 9), dom_size):
            for bits in range(1 << dom_size):
                g = BinaryPredicate(
                    [(i, (bits >> j) & 1) for j, i in enumerate(dom)]
                )
                assert predicate_of_cylinder(cylinder(g)) == g


def test_encoding_roundtrip_and_golden():
    g = BinaryPredicate([(2, 0), (4, 0)])
    enc = encode_predicate(g)
    assert decode_predicate(enc) == g
    # frozen bytes: count 4, then (index, bit) pairs (2,0),(4,0)
    assert enc == "111010011010011101000"
    assert decode_predicate(encode_predicate(BinaryPredicate([]))) == BinaryPredicate([])


def test_extension_agreement_sweep(fixture_cfg):
    rng = Lcg(9)
    for _ in range(60):
        dom = sorted({1 + rng.next(8) for _ in range(1 + rng.next(6))})
        g = BinaryPredicate([(i, rng.next(2)) for i in dom])
        res = complete_extension_search(g, fixture_cfg)
        assert g.agrees_with(res.raw_output)
        extension = res.raw_output.ljust(max(g.domain), "0")  # then zeros
        for i, bit in g.pairs:
            assert extension[i - 1] == str(bit)
        assert res.bound_slack == len(res.program) - len(g)
        out = run(res.program, "", fixture_cfg.fuel)
        assert out.halted and out.output == res.raw_output


def test_fully_constrained_prefix(fixture_cfg):
    g = BinaryPredicate([(k, 0) for k in range(1, 5)])
    assert list(cylinder(g)) == ["0000"]
    res = complete_extension_search(g, fixture_cfg)
    assert res.raw_output.startswith("0000")
    assert len(res.program) == 10  # the literal-emit witness


def test_empty_predicate(fixture_cfg):
    res = complete_extension_search(BinaryPredicate([]), fixture_cfg)
    assert res.program == "00"
    assert res.raw_output == ""
    assert BinaryPredicate([(i, 0) for i in range(1, 20)]).agrees_with(res.raw_output)


def test_monotone_in_bounds(fixture_cfg, double_fuel_cfg):
    g = BinaryPredicate([(1, 0), (3, 1), (8, 0)])
    a = complete_extension_search(g, fixture_cfg)
    b = complete_extension_search(g, double_fuel_cfg)
    assert len(b.program) <= len(a.program)


def test_not_found_in_tiny_bounds():
    g = BinaryPredicate([(8, 1)])
    with pytest.raises(ExtensionNotFound):
        complete_extension_search(g, MachineConfig(6, 64))


def test_slack_bound_when_cheap_member_exists(fixture_cfg):
    from ait.complexity import k_t

    rng = Lcg(17)
    for _ in range(40):
        dom = sorted({1 + rng.next(8) for _ in range(1 + rng.next(6))})
        g = BinaryPredicate([(i, rng.next(2)) for i in dom])
        cheap = [
            x for x in cylinder(g)
            if (k := k_t(x, "", fixture_cfg)).is_finite
            and k.value <= len(g) + FROZEN["c_machine"]
        ]
        if cheap:
            res = complete_extension_search(g, fixture_cfg)
            assert res.bound_slack <= FROZEN["c_machine"]
