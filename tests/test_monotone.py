import hashlib
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import ait.monotone as monotone
from ait.codec import kraft_sum
from ait.dyadic import Dyadic, ceil_neg_log2
from ait.monotone import (
    DepthExceeded,
    InsufficientMass,
    MonotoneTransducer,
    NuFunction,
    Stage,
    ThetaTable,
    ThresholdNotFound,
    ZeroMeasureSet,
    _preimage_counts,
    build_nu,
    km_sigma,
    measure_matching_gap,
    point_mass_table,
    preimage_count,
    random_pow2_table,
    theta_violations,
    threshold_N,
    uniform_table,
)
from oracles import measure_matching_gap_by_apply, preimage_count_by_apply, xi

RANDOM_SEEDS = range(10)
# the tables whose largest gap ``ait calibrate`` measures as c_nu
CALIBRATE_TABLES = [uniform_table(6), point_mass_table(6),
                    *(random_pow2_table(seed, 5) for seed in range(10))]


def all_strings_of(n):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def test_validate_theta_examples():
    assert not theta_violations(uniform_table(3))
    bad = ThetaTable({("", 0): Dyadic.one(),
                      ("0", 0): Dyadic(3, 2),
                      ("1", 0): Dyadic(3, 3)}, 0)
    assert any("children" in p for p in theta_violations(bad))
    decreasing = ThetaTable({("", 0): Dyadic.one(), ("", 1): Dyadic(1, 1)}, 1)
    assert any("decreased" in p for p in theta_violations(decreasing))
    orphan = ThetaTable({("", 0): Dyadic.one(), ("00", 0): Dyadic(1, 2)}, 0)
    assert theta_violations(orphan)
    # a later stage that drops a string decreases it to 0
    dropping = ThetaTable({**uniform_table(3).entries, ("", 4): Dyadic.one()}, 4)
    assert "theta('0',4) decreased across stages" in theta_violations(dropping)
    # a root of 0 past stage 0 leaves its stage nothing to build
    zero = ThetaTable({("001", 2): Dyadic.zero()}, 2)
    assert theta_violations(zero) == ["theta(eps,1) is 0", "theta(eps,2) is 0"]


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
        assert not theta_violations(t)
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


def test_build_asserts_that_s_sets_tile_each_level(monkeypatch):
    # stage 4 keeps only the root, so with the stage check switched off the
    # strings of stage 3's other sets have no owner at stage 4
    monkeypatch.setattr(monotone, "theta_violations", lambda t: [])
    dropping = ThetaTable({**uniform_table(3).entries, ("", 4): Dyadic.one()}, 4)
    with pytest.raises(AssertionError, match="stage 4: the S sets cover 0 of 64 strings"):
        build_nu(dropping)


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
    assert not theta_violations(t)
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
    """A literal identity transducer standing in for nu in threshold tests:
    each length-n input is its own image, so its tally is {y: 1}."""

    depth = 10

    def image_counts(self, n):
        return {y: 1 for y in all_strings_of(n)}


def _identity_nu():
    ident = _Identity()
    return ident


def test_threshold_identity_example():
    # mu-preimage of {"0"} is 1/2, i = 2, and every depth satisfies the
    # two-sided bound, so the threshold is the first depth
    ident = _identity_nu()
    n_prime, i = threshold_N(ident, ["0"])
    assert (n_prime, i) == (1, 2)


def test_threshold_full_measure():
    ident = _identity_nu()
    n_prime, i = threshold_N(ident, [""])
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
    values = [km_sigma(["0"], uniform_table(k)) for k in range(1, 5)]
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


def test_transducer_serializations_are_pinned():
    # calibrate's twelve tables: a change to the gift counts or to the order
    # in which gifts are taken changes some S or T set, hence this digest
    tables = [uniform_table(6), point_mass_table(6)] + [random_pow2_table(s, 5) for s in range(10)]
    text = "".join(build_nu(t).serialize() + "\n" for t in tables)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "25a6c72903d2be15e8839b108559bd2ddcf862545a3f790e2b296e58ec0529c4"


def test_gifts_recorded_in_t_sets():
    t = uniform_table(2)
    tr = build_nu(t)
    st1 = tr.stages[1]
    # the root gifted both children everything: its S is empty, T holds all
    assert not st1.s_sets.get("", ())
    assert kraft_sum(st1.t_sets[""]) == Dyadic.one()


@pytest.mark.parametrize("members", [[], ["0"]])
def test_preimage_count_keeps_the_child_set_check_live(members):
    # stage 1 places 000 and 001 under 00, a grandchild of their stage-0
    # owner "", so no next-stage set of "", "0" or "1" extends the length-2
    # input 00 and evaluating it must fail, whatever the member set
    stages = (
        Stage(0, 1, {"": ("0", "1")}, {}),
        Stage(1, 3, {"": ("010", "011", "100", "101", "110", "111"),
                     "00": ("000", "001")}, {}),
    )
    nu = NuFunction(MonotoneTransducer(stages))
    with pytest.raises(AssertionError, match="child sets"):
        preimage_count(nu, members, 2)


def _outcome(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:  # the outcome under test includes the failure kind
        return type(err)


_TABLES = st.one_of(
    st.builds(random_pow2_table, st.integers(0, 1 << 16), st.integers(1, 6)),
    st.builds(uniform_table, st.integers(1, 3)),
    st.builds(point_mass_table, st.integers(1, 5)),
)
# short members give "" and prefix-overlapping sets; long ones outrun every
# built depth (at most 11 for these tables)
_MEMBER_SETS = st.lists(
    st.one_of(st.text("01", max_size=3), st.text("01", min_size=12, max_size=13)),
    max_size=4,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(table=_TABLES, members=_MEMBER_SETS)
@example(table=uniform_table(2), members=[""])
@example(table=random_pow2_table(3, 4), members=["0", "01", "011"])
@example(table=point_mass_table(3), members=["0" * 12, "1"])
def test_preimage_tally_matches_per_input_oracle(table, members):
    nu = NuFunction(build_nu(table))
    for n in range(nu.depth + 1):
        assert preimage_count(nu, members, n) == preimage_count_by_apply(nu, members, n)
    tallied = (_outcome(threshold_N, nu, members), _outcome(measure_matching_gap, table))
    # the same two figures with every count taken by the oracle on a fresh nu
    with mock.patch.object(monotone, "preimage_count", preimage_count_by_apply):
        oracle = (_outcome(threshold_N, NuFunction(build_nu(table)), members),
                  _outcome(measure_matching_gap_by_apply, table))
    assert tallied == oracle


@pytest.mark.parametrize("table", [
    *CALIBRATE_TABLES, *(random_pow2_table(seed, 6) for seed in RANDOM_SEEDS)])
def test_gap_counts_are_the_preimage_counts(table):
    # the gap reads each supported x's count off the last stage's S sets:
    # the inputs of the deepest length whose image extends x, as the oracle
    # counts them input by input
    nu = NuFunction(build_nu(table))
    counts = _preimage_counts(nu.transducer.stages[-1])
    for x in table.support(table.max_stage):
        assert counts[x] == preimage_count_by_apply(nu, [x], nu.depth), x
    assert measure_matching_gap(table) == measure_matching_gap_by_apply(table)


def test_each_input_applied_once_per_nu_and_length(monkeypatch):
    calls = 0
    real = NuFunction.apply

    def counted(nu, y):
        nonlocal calls
        calls += 1
        return real(nu, y)

    monkeypatch.setattr(NuFunction, "apply", counted)
    nu = NuFunction(build_nu(random_pow2_table(3, 5)))
    for _ in range(2):
        for members in (["0"], ["00", "01"], ["11"], ["", "10"]):
            preimage_count(nu, members, nu.depth)
            try:
                threshold_N(nu, members)
            except ThresholdNotFound:
                pass
    assert calls == sum(1 << n for n in range(1, nu.depth + 1))
