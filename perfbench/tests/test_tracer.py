import sys
import types

import pytest

from tracer import Tracer, install, summarize


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds a2 [2, 3]) and b [5, 9]
    spans = [
        ["outer", 0.0, 10.0, None, True],
        ["a", 1.0, 4.0, 0, True],
        ["a2", 2.0, 3.0, 1, True],
        ["b", 5.0, 9.0, 0, False],
    ]
    s = summarize(spans)
    f = s["functions"]
    assert f["outer"]["self_s"] == pytest.approx(3.0)
    assert f["a"]["self_s"] == pytest.approx(2.0)
    assert f["a2"]["self_s"] == pytest.approx(1.0)
    assert f["b"]["self_s"] == pytest.approx(4.0)
    assert f["b"]["ok"] == 0 and f["outer"]["calls"] == 1
    assert s["top_s"] == pytest.approx(10.0)
    assert sum(v["self_s"] for v in f.values()) == pytest.approx(s["top_s"])
    assert s["children"] == {"outer > a": 1, "a > a2": 1, "outer > b": 1}


def test_overlapping_children_are_counted_once():
    spans = [["p", 0.0, 10.0, None, True],
             ["c", 1.0, 5.0, 0, True], ["c", 3.0, 6.0, 0, True]]
    assert summarize(spans)["functions"]["p"]["self_s"] == pytest.approx(5.0)


def test_wrapped_calls_nest_and_sum_to_the_top_level():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    mid = tracer.wrap("mid", lambda x: leaf(leaf(x)))
    top = tracer.wrap("top", lambda x: mid(x) + leaf(x))
    assert top(1) == 5
    s = summarize(tracer.spans)
    assert s["functions"]["leaf"]["calls"] == 3
    assert s["functions"]["top"]["total_s"] == s["top_s"]
    assert sum(v["self_s"] for v in s["functions"].values()) == pytest.approx(s["top_s"])


def test_exceptions_close_the_span_and_mark_it_not_ok():
    tracer = Tracer("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    name, start, end, parent, ok = tracer.spans[0]
    assert end >= start and ok is False and not tracer._open


def test_install_rebinds_every_module_that_imported_the_function(monkeypatch):
    def target():
        return 7

    lib = types.ModuleType("fakepkg.lib")
    lib.target = target
    user = types.ModuleType("fakepkg.user")
    user.target = target          # as after ``from .lib import target``
    pkg = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)

    tracer = Tracer("t")
    restore = install(tracer, ["lib.target"], package="fakepkg")
    assert lib.target() == 7 and user.target() == 7
    assert [s[0] for s in tracer.spans] == ["lib.target", "lib.target"]
    restore()
    assert lib.target is target and user.target is target
