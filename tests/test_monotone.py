import json

import pytest

from ait.dyadic import Dyadic, ceil_neg_log2
from ait.monotone import (
    DepthExceeded,
    InsufficientMass,
    NuFunction,
    ThetaTable,
    ZeroMeasureSet,
    build_nu,
    km_sigma,
    mass_of,
    measure_matching_gap,
    point_mass_table,
    preimage_count,
    random_pow2_table,
    theta_violations,
    threshold_N,
    uniform_table,
    validate_theta,
    xi,
)

RANDOM_SEEDS = range(10)


def all_strings_of(n):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def test_validate_theta_examples():
    assert validate_theta(uniform_table(3))
    bad = ThetaTable({("", 0): Dyadic.one(),
                      ("0", 0): Dyadic(3, 2),
                      ("1", 0): Dyadic(3, 3)}, 0)
    assert any("children" in p for p in theta_violations(bad))
    decreasing = ThetaTable({("", 0): Dyadic.one(), ("", 1): Dyadic(1, 1)}, 1)
    assert any("decreased" in p for p in theta_violations(decreasing))
    orphan = ThetaTable({("", 0): Dyadic.one(), ("00", 0): Dyadic(1, 2)}, 0)
    assert not validate_theta(orphan)


def test_table_serialization_roundtrip():
    t = uniform_table(3)
    back = ThetaTable.from_rows(map(ThetaTable.parse_row, t.serialize().splitlines()))
    assert back.entries == {k: v for k, v in t.entries.items() if not v.is_zero}
    assert back.max_stage == t.max_stage


def test_stage_zero_shape():
    tr = build_nu(uniform_table(2))
    st0 = tr.stages[0]
    assert st0.n == 1
    assert sorted(st0.s_sets[""]) == ["0", "1"]
    assert not st0.t_sets


def test_xi_equality_uniform():
    t = uniform_table(4)
    tr = build_nu(t)
    for st in tr.stages[1:]:
        for x in t.support(st.k):
            assert xi(st, x) == ceil_neg_log2(t.theta(x, st.k)) == len(x)


def test_xi_equality_point_mass():
    t = point_mass_table(4)
    tr = build_nu(t)
    for st in tr.stages[1:]:
        for x in t.support(st.k):
            assert xi(st, x) == 0


def test_xi_equality_random_tables():
    for seed in RANDOM_SEEDS:
        t = random_pow2_table(seed, 5)
        assert validate_theta(t)
        tr = build_nu(t)
        for st in tr.stages[1:]:
            for x in t.support(st.k):
                assert xi(st, x) == ceil_neg_log2(t.theta(x, st.k))


def test_point_mass_funnel():
    tr = build_nu(point_mass_table(4))
    nu = NuFunction(tr)
    # the whole input space maps down the zero path
    deepest = tr.stages[-1]
    assert set(deepest.s_sets) == {"0" * 4} | {
        x for x, ys in deepest.s_sets.items() if not ys
    }
    assert nu.apply("1" * nu.depth) == "0000"


def test_s_sets_partition_and_lengths():
    for t in (uniform_table(4), point_mass_table(4), random_pow2_table(3, 5)):
        tr = build_nu(t)
        for st in tr.stages:
            members = [y for ys in st.s_sets.values() for y in ys]
            assert len(members) == len(set(members))
            assert all(len(y) == st.n for y in members)
            assert len(members) == 1 << st.n  # the sets tile the whole level


def test_insufficient_mass_raises():
    # a valid table where the parent's bracket minimum cannot fund both
    # children's bracket minima: theta(0)=5/8 gives the parent mass 1/2,
    # while the children need 1/2 + 1/16
    entries = {
        ("", 0): Dyadic.one(), ("", 1): Dyadic.one(), ("", 2): Dyadic.one(),
        ("0", 1): Dyadic(5, 3), ("0", 2): Dyadic(5, 3),
        ("00", 2): Dyadic(1, 1), ("01", 2): Dyadic(1, 4),
    }
    t = ThetaTable(entries, 2)
    assert validate_theta(t)
    with pytest.raises(InsufficientMass):
        build_nu(t)


def test_build_rejects_invalid_table():
    bad = ThetaTable({("", 0): Dyadic.one(), ("0", 0): Dyadic(3, 2),
                      ("1", 0): Dyadic(3, 3)}, 0)
    with pytest.raises(ValueError):
        build_nu(bad)


def test_nu_monotonic_and_total_exhaustive():
    for t in (uniform_table(4), point_mass_table(4), random_pow2_table(7, 5)):
        nu = NuFunction(build_nu(t))
        for n in range(0, nu.depth):
            for y in all_strings_of(n):
                image = nu.apply(y)
                for b in "01":
                    assert nu.apply(y + b).startswith(image)


def test_nu_depth_exceeded():
    nu = NuFunction(build_nu(uniform_table(2)))
    with pytest.raises(DepthExceeded):
        nu.apply("0" * (nu.depth + 1))


def test_nu_direct_membership():
    t = uniform_table(3)
    tr = build_nu(t)
    nu = NuFunction(tr)
    st = tr.stages[2]
    for x, ys in st.s_sets.items():
        for y in ys:
            assert nu.apply(y) == x


def test_nu_short_inputs_map_to_empty():
    nu = NuFunction(build_nu(uniform_table(3)))
    assert nu.apply("") == ""


def test_preimage_examples():
    nu = NuFunction(build_nu(uniform_table(4)))
    n = nu.depth
    assert preimage_count(nu, ["0"], n) == (1 << n) // 2
    assert preimage_count(nu, [], n) == 0
    # doubling at every evaluated depth
    for members in (["0"], ["00"], ["11"]):
        for depth in range(1, n):
            assert preimage_count(nu, members, depth + 1) >= \
                2 * preimage_count(nu, members, depth)


class _Identity:
    """A literal identity transducer standing in for nu in threshold tests."""

    depth = 10

    def apply(self, y):
        return y

    transducer = None


def _identity_nu():
    ident = _Identity()
    return ident


def test_threshold_identity_example():
    # mu-preimage of {"0"} is 1/2, i = 2, and every depth satisfies the
    # two-sided bound, so the threshold is the first depth
    ident = _identity_nu()
    n_prime, i = threshold_N(ident, ["0"], i=2)
    assert (n_prime, i) == (1, 2)


def test_threshold_full_measure():
    ident = _identity_nu()
    n_prime, i = threshold_N(ident, [""], i=1)
    assert n_prime == 1 and i == 1


def test_threshold_compiled_matches_naive_sweep():
    for t in (uniform_table(4), random_pow2_table(2, 5)):
        nu = NuFunction(build_nu(t))
        for members in (["0"], ["00", "01"], ["11"]):
            counts = {n: preimage_count(nu, members, n)
                      for n in range(1, nu.depth + 1)}
            if counts[nu.depth] == 0:
                continue
            n_prime, i = threshold_N(nu, members)
            lo, hi = Dyadic(1, i), Dyadic(1, i).shifted(2)
            naive = next(
                n for n in range(1, nu.depth + 1)
                if lo < Dyadic(counts[n], n) < hi
            )
            assert n_prime == naive
            for n in range(1, n_prime):
                assert Dyadic(counts[n], n) <= lo
            for n in range(n_prime, nu.depth + 1):
                assert lo < Dyadic(counts[n], n) < hi


def test_km_sigma_examples():
    t = uniform_table(4)
    assert km_sigma(["0"], t) == 2          # 1 - ceil(log 1/2) = 2
    assert km_sigma([""], t) == 1           # full mass: 1 - 0
    # additivity of the underlying set mass
    a = km_sigma(["00", "01"], t)
    assert a == 1 - (-1)  # mass 1/4 + 1/4 = 1/2
    with pytest.raises(ZeroMeasureSet):
        km_sigma(["000000000"], t)


def test_km_sigma_monotone_in_stage():
    t = uniform_table(4)
    values = [km_sigma(["0"], t, stage=k) for k in range(1, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_measure_matching_within_frozen_gap():
    from ait.frozen import FROZEN

    tables = [uniform_table(4), point_mass_table(4)] + [
        random_pow2_table(seed, 5) for seed in RANDOM_SEEDS
    ]
    for t in tables:
        assert measure_matching_gap(t) <= FROZEN["c_nu"] <= 2


def test_measure_matching_extends_to_prefix_free_sets():
    # the set form of the matching: same frozen gap for multi-element sets
    import itertools

    from ait.codec import PrefixFreeSet
    from ait.dyadic import dyadic_sum
    from ait.frozen import FROZEN

    for t in (uniform_table(4), random_pow2_table(1, 5), random_pow2_table(6, 5)):
        nu = NuFunction(build_nu(t))
        n = nu.depth
        support = t.support(t.max_stage)
        checked = 0
        for g in itertools.combinations(support, 2):
            try:
                members = PrefixFreeSet(g)
            except ValueError:
                continue
            sigma = dyadic_sum(t.theta(x, t.max_stage) for x in members)
            if sigma.is_zero or sigma > Dyadic.one():
                continue
            count = preimage_count(nu, members, n)
            if count == 0:
                continue
            lhs = ceil_neg_log2(sigma)
            rhs = ceil_neg_log2(Dyadic(count, n))
            assert abs(lhs - rhs) <= FROZEN["c_nu"]
            checked += 1
            if checked >= 40:
                break
        assert checked > 0


def test_transducer_serialization_deterministic():
    a = build_nu(uniform_table(3)).serialize()
    b = build_nu(uniform_table(3)).serialize()
    assert a == b
    payload = json.loads(a)
    assert [st["k"] for st in payload] == [0, 1, 2, 3]


def test_gifts_recorded_in_t_sets():
    t = uniform_table(2)
    tr = build_nu(t)
    st1 = tr.stages[1]
    # the root gifted both children everything: its S is empty, T holds all
    assert not st1.s_sets.get("", ())
    assert mass_of(st1.t_sets[""]) == Dyadic.one()
