"""Seeded inputs for the benchmark's workloads.

Everything here is plain data built from ``random.Random(seed)``: the same
seed gives the same inputs, and nothing in this module imports ``ait``, so the
program under test only ever sees the generated values.
"""

from __future__ import annotations

import random

WORKLOADS = ("fixture_experiments", "chain_sample", "exhaustive_lab")

# chain_sample: pairs drawn from the c_chain calibration domain (strings of at
# most 5 bits on both sides).  110 items leave 11 beyond the p90.
CHAIN_MAX_LEN = 5
CHAIN_ITEMS = 110

# exhaustive_lab sizes
LAB_AUX_LENGTHS = range(1, 9)        # one aux string of each length
LAB_MEMBER_SETS = 3                  # shortest-total searches per aux
LAB_FIXED_TABLES = [["uniform", 8], ["point_mass", 12]]
LAB_RANDOM_TABLES = 12               # random_pow2_table instances
LAB_RANDOM_STAGES = 6
LAB_TABLE_MEMBER_SETS = 4            # preimage / threshold / km_sigma probes per table
LAB_APPLY_INPUTS = 256               # NuFunction.apply probes per table
LAB_HITTING = 6                      # hitting-vector instances
LAB_SHANNON_FANO = 6                 # Shannon-Fano source measures


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def _strings_of_length(n: int) -> list[str]:
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def _proportional_counts(weights: dict, total: int) -> dict:
    """Largest-remainder allocation of ``total`` items over the classes."""
    whole = sum(weights.values())
    exact = {k: total * w / whole for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    short = total - sum(counts.values())
    for k in sorted(exact, key=lambda k: (counts[k] - exact[k], k))[:short]:
        counts[k] += 1
    return counts


def chain_inputs(seed: int) -> dict:
    """A sample of (x, y) pairs stratified by (len x, len y).

    Each length class gets its share of the calibration sweep's pairs, so the
    per-pass cost (which depends mostly on the two lengths) stays the same
    from seed to seed while the strings themselves change.
    """
    rng = random.Random(seed)
    lengths = range(CHAIN_MAX_LEN + 1)
    classes = {(a, b): (1 << a) * (1 << b) for a in lengths for b in lengths}
    pairs = []
    for (a, b), count in sorted(_proportional_counts(classes, CHAIN_ITEMS).items()):
        xs, ys = _strings_of_length(a), _strings_of_length(b)
        for idx in rng.sample(range(len(xs) * len(ys)), count):
            pairs.append([xs[idx // len(ys)], ys[idx % len(ys)]])
    return {"pairs": pairs}


def _member_set(rng: random.Random, max_len: int, max_size: int) -> list[str]:
    """Strings of one length, hence a prefix-free set (km_sigma needs one)."""
    n = 1 + rng.randrange(max_len)
    return sorted({_bits(rng, n) for _ in range(1 + rng.randrange(max_size))})


def _hitting_instance(rng: random.Random) -> dict:
    """A uniform 32-point measure and heavy sets of one to three points."""
    elems = _strings_of_length(5)
    i = 4 + rng.randrange(2)
    c, d = 1 + rng.randrange(2), 1
    floor = len(elems) >> i             # |F| / 32 >= 2^-i
    sets = set()
    while len(sets) < 24:
        size = max(floor, 1 + rng.randrange(3))
        sets.add(tuple(sorted(rng.sample(elems, size))))
    return {"elements": elems, "sets": sorted(sets), "i": i, "c": c, "d": d}


def _dyadic_source(rng: random.Random, leaves: int) -> list[list]:
    """A probability measure with power-of-two weights: split random leaves
    of a binary tree until it has ``leaves`` leaves; each leaf keeps 2^-depth."""
    tree = [""]
    while len(tree) < leaves:
        x = tree.pop(rng.randrange(len(tree)))
        tree += [x + "0", x + "1"]
    return [[x, len(x)] for x in sorted(tree)]


def lab_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    aux = [_bits(rng, n) for n in LAB_AUX_LENGTHS]
    tables = LAB_FIXED_TABLES + [["random", rng.randrange(1 << 20), LAB_RANDOM_STAGES]
                                 for _ in range(LAB_RANDOM_TABLES)]
    # a transducer built from s stages is at least 1 + s deep
    min_depth = 1 + min(t[-1] for t in tables)
    return {
        "aux": aux,
        "member_sets": [[_member_set(rng, 4, 3) for _ in range(LAB_MEMBER_SETS)]
                        for _ in aux],
        "bb_max_len": 12,
        "tables": tables,
        "table_members": [[_member_set(rng, 3, 2)
                           for _ in range(LAB_TABLE_MEMBER_SETS)] for _ in tables],
        "apply_inputs": [[_bits(rng, 1 + rng.randrange(min_depth))
                          for _ in range(LAB_APPLY_INPUTS)] for _ in tables],
        "hitting": [_hitting_instance(rng) for _ in range(LAB_HITTING)],
        "shannon_fano": [_dyadic_source(rng, 16 + rng.randrange(48))
                         for _ in range(LAB_SHANNON_FANO)],
    }


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "fixture_experiments":
        # the harness's fixed LCG fixtures: the seed does not apply
        return {}
    if workload == "chain_sample":
        return chain_inputs(seed)
    if workload == "exhaustive_lab":
        return lab_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
