import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from ait.codec import (
    DecodeError,
    PrefixFreeSet,
    all_strings_upto,
    bits_to_nat,
    canonical_sorted,
    decode_measure_entries,
    decode_measure_prefix,
    decode_self_delim_from,
    decode_string_set,
    encode_nat,
    encode_self_delim,
    encode_string_set,
    kraft_sum,
    nat_to_bits,
    prefix_pair,
    self_delim_at,
    strings_of_length,
)
from ait.dyadic import Dyadic, dyadic_sum

from oracles import OpenInterval, encode_measure_entries, interval_of, left_of

bitstrings = st.text(alphabet="01", max_size=16)


def all_strings_of(n):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def test_self_delim_paper_examples():
    assert encode_self_delim("01") == "11001"
    assert encode_self_delim("") == "0"


def test_self_delim_roundtrip_exhaustive():
    # round-trips for every string up to length 12
    for x in all_strings_upto(12):
        code = encode_self_delim(x)
        assert decode_self_delim_from(code) == (x, len(code))


def test_self_delim_image_prefix_free_exhaustive():
    codes = sorted(encode_self_delim(x) for x in all_strings_upto(10))
    assert prefix_pair(codes) is None


def test_self_delim_at_passes_the_end_exactly_when_decoding_raises():
    # every truncation of every code, read at the start and after another code
    for x in all_strings_upto(8):
        code = encode_self_delim(x)
        for cut in range(len(code) + 1):
            for head in ("", "101"):
                s = head + code[:cut]
                at = self_delim_at(s, len(head))
                try:
                    assert decode_self_delim_from(s, len(head)) == at
                except DecodeError:
                    assert at[1] > len(s), s
                else:
                    assert at[1] <= len(s), s
        assert self_delim_at(code) == (x, len(code))


def test_measure_decoder_accepts_only_canonical_encodings():
    # a string decodes only to the entries whose encoding it is, and reading
    # any proper prefix of it returns the entries read so far without raising
    decoded = 0
    for s in all_strings_upto(14):
        try:
            entries = decode_measure_entries(s)
        except DecodeError:
            continue
        decoded += 1
        assert encode_measure_entries(entries) == s
        for cut in range(len(s)):
            _, read, whole = decode_measure_prefix(s[:cut])
            assert not whole and read == entries[:len(read)]
    assert decoded == 74


def test_nat_convention():
    assert nat_to_bits(0) == ""
    assert [nat_to_bits(n) for n in (1, 2, 3, 4)] == ["1", "10", "11", "100"]
    for n in range(200):
        assert bits_to_nat(nat_to_bits(n)) == n
    with pytest.raises(DecodeError):
        bits_to_nat("01")


def test_set_encoding_examples():
    # the empty set is the count code alone
    assert encode_string_set([]) == encode_nat(0) == "0"
    # {"1"}: count code for 1, then the code of "1"
    assert encode_string_set(["1"]) == "101" + "101"
    # canonical order makes both spellings identical
    assert encode_string_set(["0", "1"]) == encode_string_set(["1", "0"])


def test_set_encoding_roundtrip_and_injectivity():
    seen = {}
    pool = all_strings_upto(4)
    sets = [frozenset(c) for r in range(3) for c in itertools.combinations(pool, r)]
    for s in sets:
        enc = encode_string_set(s)
        assert frozenset(decode_string_set(enc)) == s
        assert enc not in seen or seen[enc] == s
        seen[enc] = s


def test_canonical_order():
    assert canonical_sorted(["1", "0", "", "10", "01"]) == ["", "0", "1", "01", "10"]


def test_interval_of_paper_examples():
    assert interval_of("011") == OpenInterval(Dyadic(3, 3), Dyadic(4, 3))
    assert interval_of("0011") == OpenInterval(Dyadic(3, 4), Dyadic(4, 4))
    assert interval_of("0100") == OpenInterval(Dyadic(4, 4), Dyadic(5, 4))


def test_interval_nesting_and_disjointness():
    for x in all_strings_upto(6):
        if not x:
            continue
        for b in "01":
            assert interval_of(x).contains(interval_of(x + b))
    for x, y in itertools.combinations(all_strings_of(4), 2):
        assert interval_of(x).disjoint(interval_of(y))


def test_left_of_matches_interval_order_exhaustive():
    # for prefix-incomparable strings up to length 8 (mixed lengths via 4x8)
    strings = all_strings_of(4) + all_strings_of(8)
    for x, y in itertools.permutations(strings, 2):
        if x.startswith(y) or y.startswith(x):
            assert not left_of(x, y)
            continue
        assert left_of(x, y) == interval_of(x).entirely_left_of(interval_of(y))
        assert left_of(x, y) != left_of(y, x)  # exactly one holds


def test_prefix_free_set_rejects_prefixes():
    with pytest.raises(ValueError):
        PrefixFreeSet(["0", "01"])
    # "0" and "011" sit apart in canonical order ("0", "1", "011") but side
    # by side lexicographically, and the error names them
    with pytest.raises(ValueError, match="'0' is a proper prefix of '011'"):
        PrefixFreeSet(["0", "1", "011"])


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.text(alphabet="01", max_size=5), max_size=8))
def test_prefix_pair_matches_all_pairs(strings):
    # oracle: compare every pair
    offending = {(a, b) for a in strings for b in strings
                 if len(a) < len(b) and b.startswith(a)}
    pair = prefix_pair(strings)
    assert (pair is None) == (not offending)
    assert pair is None or pair in offending


def test_kraft_sum_exact():
    s = PrefixFreeSet(["0", "10", "110"])
    assert kraft_sum(s) == Dyadic(7, 3)
    full = PrefixFreeSet(all_strings_of(5))
    assert kraft_sum(full) == Dyadic.one()


@settings(max_examples=200, derandomize=True)
@given(strings=st.lists(st.text(alphabet="01", max_size=4), max_size=12),
       n=st.integers(0, 10))
@example(strings=[], n=0)
@example(strings=["", "", "01", "01", "1"], n=1)
def test_kraft_sum_and_strings_of_length_match_their_definitions(strings, n):
    # a multiset of short strings, so that repeats are common
    assert kraft_sum(strings) == dyadic_sum(Dyadic(1, len(s)) for s in strings)
    assert list(strings_of_length(n)) == ["".join(p) for p in itertools.product("01", repeat=n)]


@settings(max_examples=150, derandomize=True)
@given(st.sets(bitstrings, max_size=8))
def test_any_antichain_kraft_at_most_one(strings):
    # keep only an antichain, then the Kraft inequality must hold exactly
    chain = []
    for x in sorted(strings, key=len):
        if not any(x.startswith(p) or p.startswith(x) for p in chain):
            chain.append(x)
    assert kraft_sum(PrefixFreeSet(chain)) <= Dyadic.one()
