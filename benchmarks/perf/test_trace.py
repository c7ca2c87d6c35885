"""Unit tests of the benchmark tracer (``trace.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  A fake
clock that only the toy functions advance makes every span duration, and
so every self time, exact.
"""

from __future__ import annotations

import sys
import threading
import types

import pytest

from trace import Target, Tracer, percentile, tail_percentile


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def _by_name(tracer: Tracer) -> dict:
    """``{name: (busy, self)}`` of each span name's only span."""
    out = {}
    for span in tracer.spans:
        name = tracer.names[span[1]]
        assert name not in out, f"{name} recorded twice"
        out[name] = (span[7], span[8])
    return out


def test_nested_call_self_time():
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)
    inner = tracer.span(lambda: clock.work(2.0), "inner")

    def outer_body():
        clock.work(1.0)
        inner()
        clock.work(3.0)

    tracer.span(outer_body, "outer")()
    spans = _by_name(tracer)
    assert spans["outer"] == (6.0, 4.0)
    assert spans["inner"] == (2.0, 2.0)
    summary = tracer.summary()
    assert summary["self_s"] == {"outer": 4.0, "inner": 2.0}
    outer_span = next(s for s in tracer.spans if tracer.names[s[1]] == "outer")
    inner_span = next(s for s in tracer.spans if tracer.names[s[1]] == "inner")
    assert inner_span[2] == outer_span[0]  # parent link
    assert outer_span[2] == 0  # a root


def test_generator_is_timed_across_resumptions():
    """A generator's work lands in its own span at every resumption, not
    in whichever frame happens to pull it."""
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)
    inner = tracer.span(lambda: clock.work(0.5), "inner")

    def produce():
        clock.work(1.0)
        yield 1
        clock.work(1.0)
        inner()
        yield 2
        clock.work(1.0)  # runs on the final, exhausting resumption

    gen_fn = tracer.span(produce, "gen")

    def consume():
        total = 0
        for item in gen_fn():
            clock.work(10.0)
            total += item
        return total

    assert tracer.span(consume, "consumer")() == 3
    tracer.finish()
    summary = tracer.summary()
    assert summary["self_s"]["gen"] == pytest.approx(3.0)
    assert summary["self_s"]["inner"] == pytest.approx(0.5)
    assert summary["self_s"]["consumer"] == pytest.approx(20.0)
    # One span for the (instant) creation call, one for the resumptions.
    assert sorted(summary["busy"]["gen"]) == [0.0, pytest.approx(3.5)]
    assert summary["busy"]["consumer"] == [pytest.approx(23.5)]


def test_drained_argument_is_charged_to_the_caller():
    """A sink's iterator argument is pulled inside a span of the caller's
    layer, so the producer's work is not the sink's self time."""
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)

    def sink(records):
        clock.work(1.0)
        return sum(records)

    traced_sink = tracer.span(sink, "sink", sinks=((0, "records"),))

    def producer():
        for value in range(3):
            clock.work(2.0)
            yield value

    def caller():
        return traced_sink(producer())

    assert tracer.span(caller, "caller")() == 3
    tracer.finish()
    summary = tracer.summary()
    assert summary["self_s"]["sink"] == pytest.approx(1.0)
    assert summary["self_s"]["caller"] == pytest.approx(6.0)


def test_spans_nest_per_thread():
    tracer = Tracer(targets=())
    barrier = threading.Barrier(2)

    def leaf():
        barrier.wait()

    traced_leaf = tracer.span(leaf, "leaf")
    root = tracer.span(traced_leaf, "root")
    threads = [threading.Thread(target=root) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = {span[0]: span for span in tracer.spans}
    leaves = [s for s in spans.values() if tracer.names[s[1]] == "leaf"]
    assert len(leaves) == 2
    for leaf_span in leaves:
        parent = spans[leaf_span[2]]
        assert tracer.names[parent[1]] == "root"
        assert parent[4] == leaf_span[4]  # same thread
    assert len({s[4] for s in leaves}) == 2


def test_install_rebinds_every_reference_and_uninstall_restores(monkeypatch):
    defining = types.ModuleType("repro._trace_test_a")

    def original(x):
        return x + 1

    defining.f = original
    importer = types.ModuleType("repro._trace_test_b")
    importer.g = original  # a ``from ... import f as g`` copy
    importer.REGISTRY = {"f": original, "other": len}
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)

    tracer = Tracer(targets=(Target(defining.__name__, "f", "toy"),))
    with tracer:
        assert defining.f is not original
        assert importer.g is defining.f
        assert importer.REGISTRY["f"] is defining.f
        assert importer.REGISTRY["other"] is len
        assert importer.REGISTRY["f"](1) == 2
    assert defining.f is original
    assert importer.g is original
    assert importer.REGISTRY["f"] is original
    assert tracer.summary()["calls"] == {"toy": 1}


def test_install_skips_targets_that_no_longer_exist(monkeypatch):
    """Renaming or deleting a traced function under ``src/`` loses that
    span, not the traced run."""
    module = types.ModuleType("repro._trace_test_c")

    class Device:
        def read(self):
            return 1

    class Moved(Device):  # its method now lives on a base class
        pass

    module.Device = Device
    module.Moved = Moved
    module.f = lambda: 2
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer(targets=(
        Target(module.__name__, "f", "toy"),
        Target(module.__name__, "_gone", "toy"),
        Target(module.__name__, "Device._gone", "toy"),
        Target(module.__name__, "Gone.read", "toy"),
        Target("repro._trace_test_no_such_module", "f", "toy"),
        Target(module.__name__, "Moved.read", "toy"),
    ))
    with tracer:
        assert module.f() == 2
        assert Moved().read() == 1
        assert Device.__dict__["read"] is not Moved.__dict__["read"]
    assert "read" not in Moved.__dict__  # the shadowing wrapper is gone
    assert tracer.missing == [
        f"{module.__name__}:_gone",
        f"{module.__name__}:Device._gone",
        f"{module.__name__}:Gone.read",
        "repro._trace_test_no_such_module:f",
    ]
    assert tracer.summary()["calls"] == {"toy": 2}


def test_counter_counts_only_inside_its_layer():
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)
    scan = tracer.counter(lambda: None, "semi_external.edge_scans",
                          inside="semi_external")
    scan()  # outside any span: not counted
    tracer.span(lambda: [scan(), scan()], "semi_external")()
    tracer.span(scan, "io.sort")()
    assert tracer.summary()["counts"] == {"semi_external.edge_scans": 2}


def test_summary_windows_filter_spans_and_counts():
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)
    step = tracer.span(lambda: [tracer.count("n"), clock.work(1.0)], "step")
    for _ in range(4):
        step()  # spans start at 0, 1, 2, 3
    summary = tracer.summary([(1.0, 3.0)])
    assert summary["calls"] == {"step": 2}
    assert summary["counts"] == {"n": 2}


def test_dump_and_load_round_trip(tmp_path):
    clock = Clock()
    tracer = Tracer(targets=(), clock=clock)
    tracer.span(lambda: [tracer.count("n", 3), clock.work(1.5)], "step")()
    path = tmp_path / "spans.json"
    tracer.dump(path)
    loaded = Tracer.load(path)
    assert loaded.summary() == tracer.summary()


def test_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile([], 50) == 0.0
    # 2,000 samples: p99 has 20 beyond it.
    assert tail_percentile(list(range(2000)))[0] == 99.0
    # 500 samples: the highest percentile with ten beyond it is p98.
    assert tail_percentile(list(range(500)))[0] == pytest.approx(98.0)
    # Under 20 samples no percentile above the median qualifies.
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail_percentile([]) == (50.0, 0.0)


def test_percentiles_of_failed_requests_are_infinite_not_nan():
    """A failed request is infinitely late; a percentile that lands on or
    next to one is ``inf``."""
    inf = float("inf")
    # Exactly on an inf sample (rank 1 of 3) and between two inf samples.
    assert percentile([1.0, inf, inf], 50) == inf
    assert percentile([1.0, 2.0, inf, inf], 90) == inf
    # Between a finite and an inf sample.
    assert percentile([1.0, inf], 50) == inf
    # Below every inf sample, the finite value.
    assert percentile([1.0, 2.0, 3.0, inf], 50) == 2.5
    # p50 and p99 of 100 requests of which half failed.
    values = [1.0] * 49 + [inf] * 51
    assert percentile(values, 50) == inf
    assert tail_percentile(values)[1] == inf
