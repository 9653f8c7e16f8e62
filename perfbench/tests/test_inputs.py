import json
from fractions import Fraction
from pathlib import Path

import pytest

from inputs import CHAIN_ITEMS, WORKLOADS, make_inputs

import run


def test_the_same_seed_gives_identical_inputs():
    for workload in WORKLOADS:
        assert make_inputs(workload, 7) == make_inputs(workload, 7)


def test_another_seed_gives_other_inputs():
    for workload in ("chain_sample", "exhaustive_lab"):
        assert make_inputs(workload, 1) != make_inputs(workload, 2)


def test_chain_sample_is_stratified_by_length():
    def lengths(seed):
        return sorted((len(x), len(y)) for x, y in make_inputs("chain_sample", seed)["pairs"])

    pairs = make_inputs("chain_sample", 3)["pairs"]
    assert len(pairs) == CHAIN_ITEMS == len({tuple(p) for p in pairs})
    assert all(len(x) <= 5 and len(y) <= 5 for x, y in pairs)
    assert lengths(3) == lengths(4)


def test_lab_inputs_are_well_formed():
    lab = make_inputs("exhaustive_lab", 5)
    assert len(set(lab["aux"])) == len(lab["aux"]) and max(map(len, lab["aux"])) <= 8
    for inst in lab["hitting"]:
        heavy = len(inst["elements"]) >> inst["i"]
        assert all(len(s) >= heavy for s in inst["sets"])
    for source in lab["shannon_fano"]:
        assert sum(Fraction(1, 1 << n) for _x, n in source) == 1
    for sets in lab["table_members"]:
        assert all(len({len(x) for x in members}) == 1 for members in sets)


def test_every_layer_metric_has_a_rule_and_a_wrapped_function():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    functions = run.layer_functions(bench["per_layer"])
    assert "machine.search_programs" in functions and "harness.exp_predicate" in functions
    summary = {"functions": {}, "children": {}, "top_s": 1.0}
    for metric in bench["per_layer"]:
        run._layer_value(metric["name"], summary, 0, 1.0, 1.0)


def test_harrell_davis_quantile():
    values = [float(v) for v in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0)
    assert 88 < run.quantile(values, 0.9) < 93
    assert run.quantile([3.0], 0.9) == 3.0
    assert run.quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    # a gap at the median: the estimate sits between the clusters
    gap = [1.0] * 55 + [10.0] * 55
    assert 1.0 < run.quantile(gap, 0.5) < 10.0
    assert run.quantile(gap, 0.5) == pytest.approx(5.5)
