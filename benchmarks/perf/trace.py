"""Outside-in span tracer for the perf benchmark.

The tracer never edits ``repro``.  :meth:`Tracer.install` rebinds the
public entry points of each layer -- module functions, class methods,
and the registry dicts that hold them -- to timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  A few private helpers
are wrapped too, where a public call hands its work to them (the merge
and join chunk generators, the persistent device's read and append);
a target that no longer exists is skipped and reported in
:attr:`Tracer.missing`, never an error.  A function is rebound
everywhere it is reachable by name: every ``repro`` module attribute and
every value of a module-level dict that *is* the original function
object (``from x import f`` copies and ``SEMI_SCC_SOLVERS``-style
registries included).

Each call of a wrapped function is one span: name, start, end, parent
span, request id and thread.  A wrapped function that returns a
generator is also timed across every resumption (one span per
generator, its busy time summed over resumptions), because the lazy
external operators do their work while the consumer pulls, not when the
generator is created.  Spans nest per thread -- the daemon runs handler
and flusher threads -- and a span's self time is its busy time minus the
busy time of the spans nested directly inside it.

Pull-based pipelines run one layer's work inside another layer's frame:
``record_file_from_records(device, name, records)`` runs the producer of
``records`` while the codec layer is on the stack.  For the sinks that
always drain an iterator argument (sorts, run formation, record-file
writers, the record side of joins) the argument is pulled in chunks of
:data:`PULL_CHUNK` inside a span named after the *caller's* layer, so
producer work is charged to the layer that built the producer.  Chunked
pulling reorders host work only; the I/O ledger is unchanged
(``test_workloads.py`` pins this).

Spans stay in memory; :meth:`Tracer.dump` writes them out once, when the
run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from types import GeneratorType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "PULL_CHUNK",
    "ROOT_LAYERS",
    "TARGETS",
    "Target",
    "Tracer",
    "percentile",
    "tail_percentile",
]

PULL_CHUNK = 1024
"""Records pulled per span when a sink's iterator argument is drained."""

ROOT_LAYERS = ("core.ext_scc", "service.daemon")
"""The layers of the measured operations: a ``compute_sccs`` call and a
daemon request.  Their self time is the time no layer accounts for."""

# Span columns, in the order :meth:`Tracer.dump` writes them.
COLUMNS = ("id", "name", "parent", "request", "thread", "start", "end",
           "busy", "self")


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    Attributes:
        module: the module defining the function or class.
        attr: ``"function"`` or ``"Class.method"``.
        name: the span name (a layer, named after its module under
            ``repro.``, sometimes with an operation suffix).
        sinks: ``(position, keyword)`` pairs of iterator arguments the
            callee always drains; they are pulled in caller-layer spans.
        kind: ``"span"`` (time each call), ``"registry"`` (``attr`` is a
            module-level dict; time every function it holds) or
            ``"count"`` (count calls made while ``semi_external`` is the
            innermost layer).
    """

    module: str
    attr: str
    name: str
    sinks: Tuple[Tuple[int, str], ...] = ()
    kind: str = "span"


def _records_at(position: int) -> Tuple[Tuple[int, str], ...]:
    return ((position, "records"),)


TARGETS: Tuple[Target, ...] = (
    # The measured operation of the batch workloads.
    Target("repro.core.ext_scc", "compute_sccs", "core.ext_scc"),
    # Plan layer; stage thunks are re-labelled by plan name at execute().
    Target("repro.plan.executor", "PlanExecutor.execute", "plan.executor"),
    Target("repro.analysis.planner", "optimize_plan", "analysis.planner"),
    Target("repro.core.contraction", "build_contract_plan", "core.contraction"),
    Target("repro.core.expansion", "build_expand_plan", "core.expansion"),
    Target("repro.semi_external", "build_semi_plan", "semi_external"),
    Target("repro.semi_external", "SEMI_SCC_SOLVERS", "semi_external",
           kind="registry"),
    Target("repro.graph.edge_file", "EdgeFile.scan", "semi_external.edge_scans",
           kind="count"),
    Target("repro.graph.edge_file", "EdgeFile.scan_blocks",
           "semi_external.edge_scans", kind="count"),
    # External sorting and run formation.
    Target("repro.io.sort", "external_sort_stream", "io.sort", _records_at(1)),
    Target("repro.io.sort", "external_sort_records", "io.sort", _records_at(1)),
    Target("repro.io.sort", "external_sort", "io.sort"),
    Target("repro.io.runs", "form_runs", "io.runs", _records_at(1)),
    Target("repro.io.runs", "form_runs_replacement_selection", "io.runs",
           _records_at(1)),
    # Merge kernels: the public calls build C-level chains over private
    # chunk generators, so the generators are what resumes.  Private
    # targets may disappear in a refactor; install() then skips them.
    Target("repro.kernels.merge", "sort_records", "kernels.merge"),
    Target("repro.kernels.merge", "merge_two_unkeyed", "kernels.merge"),
    Target("repro.kernels.merge", "merge_two_keyed", "kernels.merge"),
    Target("repro.kernels.merge", "_merge_two_batches", "kernels.merge"),
    Target("repro.kernels.merge", "_merge_two_keyed_batches", "kernels.merge"),
    Target("repro.kernels.merge", "_merge_two_scalar", "kernels.merge"),
    Target("repro.kernels.merge", "_merge_two_keyed_scalar", "kernels.merge"),
    # Joins: the same split between public calls and chunk generators.
    Target("repro.io.join", "cogroup", "io.join",
           ((0, "left"), (1, "right"))),
    Target("repro.io.join", "merge_join", "io.join",
           ((0, "left"), (1, "right"))),
    Target("repro.io.join", "lookup_join", "io.join", _records_at(0)),
    Target("repro.io.join", "semi_join", "io.join", _records_at(0)),
    Target("repro.io.join", "anti_join", "io.join", _records_at(0)),
    Target("repro.io.join", "_lookup_batches", "io.join"),
    Target("repro.io.join", "_membership_batches", "io.join"),
    # Codecs and the compressed record files they back.
    Target("repro.io.codecs", "record_file_from_records", "io.codecs",
           _records_at(2)),
    Target("repro.io.codecs", "CompressedRecordFile.extend", "io.codecs",
           _records_at(1)),
    Target("repro.io.codecs", "CompressedRecordFile.close", "io.codecs"),
    Target("repro.io.codecs", "FixedCodec.encoded_sizes", "io.codecs"),
    Target("repro.io.codecs", "VarintCodec.encoded_sizes", "io.codecs"),
    Target("repro.io.codecs", "GapVarintCodec.encoded_sizes", "io.codecs"),
    Target("repro.io.varfile", "VarRecordFile.append_batch", "io.varfile"),
    Target("repro.io.varfile", "VarRecordFile.close", "io.varfile"),
    Target("repro.io.varfile", "VarRecordFile.scan_block_range", "io.varfile"),
    # Block device and its buffer pool.
    Target("repro.io.blocks", "BlockDevice.read_block", "io.blocks"),
    Target("repro.io.blocks", "BlockDevice.append_block", "io.blocks"),
    Target("repro.io.blocks", "BlockDevice.overwrite_block", "io.blocks"),
    Target("repro.io.pool", "SharedBufferPool.read_block", "io.pool"),
    Target("repro.io.pool", "SharedBufferPool.scan_blocks", "io.pool"),
    # Query service (run inside the traced daemon).
    Target("repro.service.daemon", "QueryDaemon.handle_request", "service.daemon"),
    Target("repro.service.batch", "BatchCollector.submit", "service.batch.submit"),
    Target("repro.service.batch", "BatchEngine.flush", "service.batch.flush"),
    Target("repro.service.store", "build_store", "service.store.build"),
    Target("repro.service.store", "LabelStore.__init__", "service.store.open"),
    Target("repro.service.store", "LabelStore.lookup_labels",
           "service.store.lookup_labels"),
    Target("repro.service.store", "LabelStore.same_component",
           "service.store.same_component"),
    Target("repro.service.store", "LabelStore.reachable", "service.store.reachable"),
    Target("repro.service.store", "LabelStore.topo_orders",
           "service.store.topo_orders"),
    Target("repro.baselines.node_table", "NodeTable.get_batch",
           "baselines.node_table"),
    Target("repro.baselines.node_table", "NodeTable.get", "baselines.node_table"),
    Target("repro.io.persistent", "ReadOnlyView.read_block", "io.persistent"),
    Target("repro.io.persistent", "PersistentBlockDevice._read_impl",
           "io.persistent"),
    Target("repro.io.persistent", "PersistentBlockDevice._append_impl",
           "io.persistent"),
    Target("repro.io.persistent", "PersistentBlockDevice.sync", "io.persistent"),
)

_PLAN_LAYERS = (
    ("contract-", "core.contraction"),
    ("expand-", "core.expansion"),
    ("semi-scc", "semi_external"),
)


def plan_layer(plan_name: str) -> str:
    """The layer a plan's stage thunks belong to, from the plan's name."""
    for prefix, layer in _PLAN_LAYERS:
        if plan_name.startswith(prefix):
            return layer
    return "plan.stage"


def layer_of(name: str) -> str:
    """The layer a span name belongs to: span names are a layer, except
    in the ``service`` package, whose spans also name the operation
    (``service.batch.flush``, ``service.daemon.scc-label``)."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "service" else name


def _chunks(iterable: Iterable) -> Iterable[list]:
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, PULL_CHUNK))
        if not chunk:
            return
        yield chunk


def _is_iterator(value: object) -> bool:
    return (
        hasattr(value, "__next__")
        and not isinstance(value, (str, bytes, list, tuple, dict))
    )


class Tracer:
    """Collects spans from wrapped ``repro`` entry points.

    Args:
        targets: the entry points :meth:`install` wraps.
        clock: the span clock (``time.perf_counter``; tests pass a fake).
    """

    def __init__(self, targets: Sequence[Target] = TARGETS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: List[tuple] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._names_lock = threading.Lock()
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        self.missing: List[str] = []
        """``module:attr`` of the targets :meth:`install` could not find."""

    # -- bookkeeping -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._names_lock:  # handler threads meet new op names
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._name_ids[name] = nid
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        """Record a counter sample (timestamped, so windows can filter)."""
        self.samples[name].append((self.clock(), amount))

    def innermost(self) -> Optional[str]:
        """The span name on top of this thread's stack (None when idle)."""
        stack = getattr(self._local, "stack", None)
        return self.names[stack[-1][3]] if stack else None

    # -- wrappers ----------------------------------------------------------

    def span(self, fn: Callable, name: str, sinks=(), new_request: bool = False,
             namer: Optional[Callable[[tuple], str]] = None,
             after: Optional[Callable[["Tracer", tuple, object], None]] = None,
             ) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``namer(args)`` overrides the name per call, ``new_request`` opens a
        new request id for the span and everything nested in it, and
        ``after(tracer, args, result)`` observes each result.
        """
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        perf = self.clock
        get_ident = threading.get_ident
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if sinks and parent is not None:
                args, kwargs = tracer._pull_sinks(args, kwargs, sinks, parent)
            nid = tracer.name_id(namer(args)) if namer is not None else fixed
            sid = next(ids)
            if new_request:
                rid = next(tracer._requests)
            else:
                rid = parent[2] if parent is not None else 0
            frame = [0.0, sid, rid, nid]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][0] += busy
                spans.append((
                    sid, nid, parent[1] if parent is not None else 0, rid,
                    get_ident(), start, end, busy, busy - frame[0],
                ))
            if after is not None:
                after(tracer, args, result)
            if type(result) is GeneratorType:
                return tracer._timed(
                    result, nid, parent[1] if parent is not None else 0, rid
                )
            return result

        return wrapper

    def _timed(self, gen, nid: int, parent: int, rid: int):
        """Re-yield ``gen`` timing every resumption as part of one span."""
        local = self._local
        perf = self.clock
        sid = next(self._ids)
        resume = gen.__next__
        busy = 0.0
        nested = 0.0
        first = last = None
        try:
            while True:
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = []
                frame = [0.0, sid, rid, nid]
                stack.append(frame)
                start = perf()
                try:
                    item = resume()
                except StopIteration:
                    return
                finally:
                    end = perf()
                    stack.pop()
                    step = end - start
                    if stack:
                        stack[-1][0] += step
                    busy += step
                    nested += frame[0]
                    if first is None:
                        first = start
                    last = end
                yield item
        finally:
            gen.close()
            if first is not None:
                self.spans.append((
                    sid, nid, parent, rid, threading.get_ident(), first, last,
                    busy, busy - nested,
                ))

    def _pull_sinks(self, args: tuple, kwargs: dict, sinks, caller: list):
        """Replace drained iterator arguments by chunked pulls charged to
        the caller's layer (``caller`` is the caller's stack frame)."""
        args = list(args)
        for position, keyword in sinks:
            if position < len(args):
                if _is_iterator(args[position]):
                    args[position] = self._pulled(args[position], caller)
            elif keyword in kwargs and _is_iterator(kwargs[keyword]):
                kwargs = dict(kwargs)
                kwargs[keyword] = self._pulled(kwargs[keyword], caller)
        return tuple(args), kwargs

    def _pulled(self, iterator, caller: list):
        return chain.from_iterable(
            self._timed(_chunks(iterator), caller[3], caller[1], caller[2])
        )

    def counter(self, fn: Callable, name: str, inside: str) -> Callable:
        """Wrap ``fn`` to count calls made while ``inside`` is the innermost
        layer on this thread."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = tracer.innermost()
            if current is not None and layer_of(current) == inside:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- per-target behaviour ----------------------------------------------

    def _make(self, target: Target, original: Callable) -> Callable:
        if target.kind == "count":
            return self.counter(original, target.name, inside="semi_external")
        if target.attr == "PlanExecutor.execute":
            return self._executor(original)
        if target.attr == "QueryDaemon.handle_request":
            return self.span(
                original, target.name, new_request=True,
                namer=lambda args: f"service.daemon.{args[1].get('op')}",
            )
        after = _AFTER.get(target.attr)
        return self.span(original, target.name, sinks=target.sinks, after=after)

    def _executor(self, original: Callable) -> Callable:
        """``PlanExecutor.execute``: the executor's own span, with each
        stage thunk wrapped in a span named by the plan's layer."""
        tracer = self
        execute = self.span(original, "plan.executor")

        @functools.wraps(original)
        def wrapper(executor, plan, *args, **kwargs):
            layer = plan_layer(plan.name)
            if layer == "core.contraction":
                tracer.count("core.contraction.levels")
            saved = [(stage, stage.run) for stage in plan.stages]
            for stage, run in saved:
                if run is not None:
                    stage.run = tracer.span(run, layer)
            try:
                return execute(executor, plan, *args, **kwargs)
            finally:
                for stage, run in saved:
                    stage.run = run

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target (importing its module first).

        A target whose module, class or attribute no longer exists is
        skipped and listed in :attr:`missing`: renaming or deleting code
        under ``src/`` costs that layer its attribution, not the run.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                owner = module
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = inspect.getattr_static(owner, meth)
                else:
                    raw = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            if owner is not module:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._make(target, raw.__func__))
                else:
                    wrapped = self._make(target, raw)
                self._set_class_attr(owner, target.attr.split(".")[1], wrapped)
            elif target.kind == "registry":
                for entry in list(raw.values()):
                    self._rebind(entry, self.span(entry, target.name))
            else:
                self._rebind(raw, self._make(target, raw))
        return self

    def _set_class_attr(self, cls: type, attr: str, value: object) -> None:
        if attr in cls.__dict__:
            previous = cls.__dict__[attr]
            self._undo.append(lambda: setattr(cls, attr, previous))
        else:  # inherited: shadow it, and remove the shadow on uninstall
            self._undo.append(lambda: delattr(cls, attr))
        setattr(cls, attr, value)

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module attribute and module-level dict
        value that holds ``original`` at ``wrapper``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        functools.partial(setattr, module, attr, original)
                    )
                elif type(value) is dict:
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = wrapper
                            self._undo.append(
                                functools.partial(value.__setitem__, key, original)
                            )

    def uninstall(self) -> None:
        """Restore every original binding (reverse order)."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Close generators that are no longer referenced so their spans
        land (a generator's span is recorded when it closes)."""
        gc.collect()

    def summary(self, windows: Optional[Sequence[Tuple[float, float]]] = None
                ) -> dict:
        """Aggregate the spans that start, and the counter samples taken,
        inside any of ``windows`` (``perf_counter`` intervals; everything
        when omitted).

        Returns ``self_s`` per layer and per span name, ``busy`` durations
        and ``calls`` per span name, ``counts`` per counter, and the root
        accounting: ``root_wall_s`` (busy time of parentless spans of the
        :data:`ROOT_LAYERS`) and ``unattributed_s`` (their self time).
        """

        def inside(at: float) -> bool:
            return windows is None or any(lo <= at < hi for lo, hi in windows)

        self_by_layer: Dict[str, float] = defaultdict(float)
        self_by_name: Dict[str, float] = defaultdict(float)
        busy: Dict[str, List[float]] = defaultdict(list)
        root_wall = unattributed = 0.0
        for span in self.spans:
            if not inside(span[5]):
                continue
            name = self.names[span[1]]
            layer = layer_of(name)
            self_by_layer[layer] += span[8]
            self_by_name[name] += span[8]
            busy[name].append(span[7])
            if span[2] == 0 and layer in ROOT_LAYERS:
                root_wall += span[7]
                unattributed += span[8]
        counts = {
            name: sum(amount for at, amount in samples if inside(at))
            for name, samples in self.samples.items()
        }
        return {
            "self_s": dict(self_by_layer),
            "self_by_name": dict(self_by_name),
            "busy": dict(busy),
            "calls": {name: len(values) for name, values in busy.items()},
            "counts": counts,
            "root_wall_s": root_wall,
            "unattributed_s": unattributed,
        }

    def dump(self, path) -> None:
        """Write every span and counter sample as one JSON document."""
        with open(path, "w", encoding="ascii") as out:
            json.dump({
                "columns": COLUMNS,
                "missing": self.missing,
                "names": self.names,
                "samples": self.samples,
                "spans": self.spans,
            }, out, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "Tracer":
        """Rebuild a tracer's results from a :meth:`dump` file."""
        with open(path, encoding="ascii") as src:
            data = json.load(src)
        tracer = cls(targets=())
        tracer.missing = list(data["missing"])
        for name in data["names"]:
            tracer.name_id(name)
        for name, samples in data["samples"].items():
            tracer.samples[name] = [tuple(sample) for sample in samples]
        tracer.spans = [tuple(row) for row in data["spans"]]
        return tracer


# -- result observers ------------------------------------------------------


def _after_compute_sccs(tracer: Tracer, args: tuple, out) -> None:
    """The run's ledger: I/Os, block reads/writes, payload bytes."""
    io = out.io
    tracer.count("io.stats.io_total", io.total)
    tracer.count("io.blocks.reads", io.seq_reads + io.rand_reads)
    tracer.count("io.blocks.writes", io.seq_writes + io.rand_writes)
    tracer.count("io.stats.records", sum(c for c, _ in out.bytes_by_width.values()))
    tracer.count("io.stats.bytes_stored",
                 sum(s for _, s in out.bytes_by_width.values()))


def _after_form_runs(tracer: Tracer, args: tuple, runs) -> None:
    tracer.count("io.runs.runs", len(runs))


def _after_flush(tracer: Tracer, args: tuple, outcomes) -> None:
    tracer.count("service.batch.entries", len(outcomes))


def _after_read(tracer: Tracer, args: tuple, block) -> None:
    tracer.count("io.persistent.reads")


_AFTER = {
    "compute_sccs": _after_compute_sccs,
    "form_runs": _after_form_runs,
    "form_runs_replacement_selection": _after_form_runs,
    "BatchEngine.flush": _after_flush,
    "ReadOnlyView.read_block": _after_read,
    "PersistentBlockDevice._read_impl": _after_read,
}


# -- percentiles -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0.0 when
    there are no values.

    A failed request is recorded as infinitely late, so ``inf`` samples
    occur: a percentile that touches one is ``inf``, never NaN.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    if rank == low:
        return ordered[low]
    high = low + 1
    if math.isinf(ordered[low]) or math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """The tail of ``values`` and which percentile it is.

    p99 when at least ten samples lie beyond it (1,000 samples or more);
    below that, the highest percentile that still has ten samples beyond
    it.  With fewer than 20 samples no percentile above the median has,
    and the tail is reported as the median.
    """
    q = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / max(len(values), 1))))
    return q, percentile(values, q)
