"""The benchmark's four workloads, each measuring ``repro`` from outside.

``run.py`` runs one workload per process through this module's CLI::

    python benchmarks/perf/workloads.py --workload W --seed S --seconds N \\
        --trace 0|1 --workdir DIR --result OUT.json

The batch workloads call :func:`repro.core.ext_scc.compute_sccs`; the
serve workloads boot ``repro serve`` (through ``serve.py``, which calls
the CLI's own entry point) and drive it over the JSON-lines protocol
(:mod:`loadgen`).  Every answer is checked after the timed window: SCC
labels against in-memory Tarjan, reachability and topological layers
against the Tarjan condensation.

Reported times are corrected for the host's own speed (:mod:`hostspeed`):
the process doing the work -- this one for the batch workloads, the
daemon for the serve workloads -- is pinned to one CPU and runs the speed
probe, and each measured interval is divided by the probe's slowdown
over that interval.  Set-up times are always corrected; load-phase times
only where they are CPU-bound (:attr:`Serve.cpu_bound`).  The raw times
stay in the run record's ``info``.

With ``--trace 1`` the run alternates untraced and traced measurements
(batch: alternate ``compute_sccs`` calls; serve: half the window on a
plain daemon, half on a traced one), reports the per-layer metrics from
the traced half and the tracing overhead from the ratio of the two
halves, and checks that the traced calls produced the same labels and
I/O ledger as the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import queue
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import loadgen
from hostspeed import SpeedProbe, pin_to_cpu, slowdown
from trace import Tracer, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SEED = 7
BLOCK_SIZE = 1024
AVG_DEGREE = 6.0
BATCH_SETUPS = 5
SERVE_SETUPS = 3
MIN_CALLS = 3
WARMUP_SECONDS = 2.0
BOOT_TIMEOUT = 120.0
MAX_LAG_P99_S = 0.005
DAEMON_CPU = 0
"""The daemon, and the batch workloads, run on the first allowed CPU."""
GENERATOR_CPU = 1
"""The load generator runs on the second, so it never queues behind the
daemon for a CPU."""

# Traffic of the serve workloads.  No published trace of label or
# reachability queries against an SCC store is referenced by this
# repository, so each value below is an assumption.  They are chosen so
# the two serve workloads differ in what the daemon's speed depends on:
# whether the hot keys fit its 4,096-entry label cache, which ops are
# asked, and whether load waits for answers (README.md, "Workloads").
CONNECTIONS = 2
"""Client connections; each has one request in service at a time."""
LABEL_KEYS = 16
"""Nodes per ``scc-label`` request."""
TOPO_KEYS = 8
"""Nodes per ``topo-order`` request."""
ZIPF_S = 1.1
"""Key skew of ``serve-open``: its hot set fits the label cache, while
``serve-closed``'s uniform keys over 10,000 nodes do not."""
OPEN_MIX = (("scc-label", 0.60), ("same-component", 0.15),
            ("reachable", 0.15), ("topo-order", 0.10))
"""Op shares of ``serve-open``."""
CAPACITY_SHARE = 1 / 3
"""Share of ``serve-open``'s window spent measuring capacity: a closed
loop of the open mix over the same connections."""
OPEN_LOAD = 0.6
"""``serve-open``'s offered Poisson rate, as a share of the capacity
measured just before it."""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
"""(name, unit, better) of the metrics an untraced run reports."""

SELF_LAYERS = (
    "core.ext_scc", "plan.executor", "analysis.planner", "core.contraction",
    "core.expansion", "semi_external", "io.sort", "io.runs", "kernels.merge",
    "io.join", "io.codecs", "io.varfile", "io.blocks", "io.pool",
    "baselines.node_table", "io.persistent",
)
"""Layers reported as ``<layer>.self_s``."""

DAEMON_OPS = ("scc-label", "same-component", "reachable", "topo-order")

PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS]
    + [
        ("core.contraction.levels", "count", "lower"),
        ("semi_external.edge_scans", "count", "lower"),
        ("io.runs.runs", "count", "lower"),
        ("io.codecs.bytes_per_record", "bytes/record", "lower"),
        ("io.blocks.reads", "blocks", "lower"),
        ("io.blocks.writes", "blocks", "lower"),
        ("io.stats.io_total", "blocks", "lower"),
        ("io.stats.bytes_stored", "bytes", "lower"),
    ]
    + [(f"service.daemon.{op}.p50_ms", "ms", "lower") for op in DAEMON_OPS]
    + [
        ("service.daemon.scc-label.p99_ms", "ms", "lower"),
        ("service.batch.submit_p50_ms", "ms", "lower"),
        ("service.batch.flush_p50_ms", "ms", "lower"),
        ("service.batch.entries_per_flush", "count", "higher"),
        ("service.store.build.self_s", "s", "lower"),
        ("service.store.reachable.self_s", "s", "lower"),
        ("io.cache.hit_rate", "fraction", "higher"),
        ("baselines.node_table.blocks_per_lookup", "blocks/lookup", "lower"),
        ("io.persistent.reads", "blocks", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
        ("trace.unattributed_frac", "fraction", "lower"),
    ]
)
"""(name, unit, better) of the metrics a traced run reports."""

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass(frozen=True)
class Batch:
    """``compute_sccs`` on a webspam-like graph at ``M = ratio*(8|V|+B)``."""

    nodes: int
    memory_ratio: float


@dataclass(frozen=True)
class Serve:
    """The daemon over the store of a webspam-like graph under one loop.

    ``cpu_bound`` says whether the load phase's latencies and rate scale
    with the daemon's CPU speed, and so are corrected by its slowdown.
    ``serve-open``'s are set by timers instead -- the batching epoch and
    TCP delayed acknowledgements of pipelined answers -- and dividing
    them by the slowdown made its spread over seeds twice as wide
    (README.md, "Host-speed correction")."""

    loop: str  # "closed" or "open"
    cpu_bound: bool
    nodes: int = 10_000


WORKLOADS = {
    "webspam-contract": Batch(nodes=4_000, memory_ratio=0.47),
    "webspam-semi": Batch(nodes=10_000, memory_ratio=1.1),
    "serve-closed": Serve(loop="closed", cpu_bound=True),
    "serve-open": Serve(loop="open", cpu_bound=False),
}


# -- inputs and the reference ------------------------------------------------


def make_edges(nodes: int, seed: int) -> List[Tuple[int, int]]:
    """The workload graph: webspam-like, edges in a seeded shuffled order."""
    from repro.graph.generators import webspam_like

    edges = list(webspam_like(nodes, avg_degree=AVG_DEGREE, seed=seed).edges)
    random.Random(seed).shuffle(edges)
    return edges


def write_graph(nodes: int, seed: int, path: Path) -> None:
    from repro.graph.io_formats import write_edge_text

    write_edge_text(path, make_edges(nodes, seed))


class Reference:
    """In-memory Tarjan labels, plus the condensation's reachability and
    longest-path layers for checking daemon answers."""

    def __init__(self, edges, nodes: int) -> None:
        from repro.graph.digraph import DiGraph
        from repro.memory_scc import condensation, tarjan_scc, topological_order

        graph = DiGraph(edges, nodes=range(nodes))
        self.labels: Dict[int, int] = tarjan_scc(graph)
        self._dag = condensation(graph, self.labels)
        self.layer = {component: 0 for component in self._dag.nodes()}
        for component in topological_order(self._dag):
            for successor in self._dag.out_neighbors(component):
                self.layer[successor] = max(
                    self.layer[successor], self.layer[component] + 1
                )
        self._reach: Dict[int, set] = {}

    def reachable(self, u: int, v: int) -> bool:
        from repro.memory_scc import reachable_from

        cu, cv = self.labels[u], self.labels[v]
        if cu not in self._reach:
            self._reach[cu] = reachable_from(self._dag, cu)
        return cv in self._reach[cu]

    def check(self, op: str, args: dict, response: dict) -> bool:
        """Whether ``response`` is the right answer to ``op(args)``."""
        if not response.get("ok"):
            return False
        labels = self.labels
        if op == "scc-label":
            return response["labels"] == {
                str(node): labels[node] for node in args["nodes"]
            }
        if op == "same-component":
            return response["same"] == (labels[args["u"]] == labels[args["v"]])
        if op == "reachable":
            return response["reachable"] == self.reachable(args["u"], args["v"])
        if op == "topo-order":
            return response["orders"] == {
                str(node): [labels[node], self.layer[labels[node]]]
                for node in args["nodes"]
            }
        return False


def labels_digest(labels: Dict[int, int]) -> str:
    return hashlib.sha256(
        json.dumps(sorted(labels.items())).encode("ascii")
    ).hexdigest()


# -- shared measurement helpers ------------------------------------------------


Interval = Tuple[float, float]
"""``(start, end)`` in ``perf_counter`` seconds."""


def metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": UNITS[name]}


def result(workload: str, seed: int, seconds: float, traced: bool,
           attempted: int, failed: int, values: Dict[str, float],
           counts: dict, info: dict, problems: Sequence[str] = ()) -> dict:
    """One run's record; ``problems`` (reasons the run is invalid even
    though every answer was right) make it incorrect too."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(name, value) for name, value in values.items()},
        "counts": counts,
        "info": dict(info, invalid=list(problems)),
    }


def corrected(samples, interval: Interval) -> float:
    """The interval's length at reference host speed."""
    start, end = interval
    return (end - start) / slowdown(samples, start, end)


def layer_values(summary: dict, per: float) -> Dict[str, float]:
    """Per-layer metrics from a tracer summary; additive quantities are
    divided by ``per`` (the number of traced operations they cover)."""
    self_s = summary["self_s"]
    by_name = summary["self_by_name"]
    counts = summary["counts"]
    busy = summary["busy"]
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / per
    for name in ("core.contraction.levels", "semi_external.edge_scans",
                 "io.runs.runs", "io.blocks.reads", "io.blocks.writes",
                 "io.stats.io_total", "io.stats.bytes_stored",
                 "io.persistent.reads"):
        values[name] = counts.get(name, 0.0) / per
    records = counts.get("io.stats.records", 0.0)
    if records:
        values["io.codecs.bytes_per_record"] = (
            counts.get("io.stats.bytes_stored", 0.0) / records
        )
    for op in DAEMON_OPS:
        values[f"service.daemon.{op}.p50_ms"] = 1000 * percentile(
            busy.get(f"service.daemon.{op}", []), 50
        )
    values["service.daemon.scc-label.p99_ms"] = 1000 * tail_percentile(
        busy.get("service.daemon.scc-label", [])
    )[1]
    values["service.batch.submit_p50_ms"] = 1000 * percentile(
        busy.get("service.batch.submit", []), 50
    )
    flushes = busy.get("service.batch.flush", [])
    values["service.batch.flush_p50_ms"] = 1000 * percentile(flushes, 50)
    if flushes:
        values["service.batch.entries_per_flush"] = (
            counts.get("service.batch.entries", 0.0) / len(flushes)
        )
    values["service.store.build.self_s"] = by_name.get("service.store.build", 0.0)
    values["service.store.reachable.self_s"] = by_name.get(
        "service.store.reachable", 0.0
    )
    if summary["root_wall_s"]:
        values["trace.unattributed_frac"] = (
            summary["unattributed_s"] / summary["root_wall_s"]
        )
    return values


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    """The environment of every ``repro`` process the benchmark starts:
    the checkout's sources first, ``REPRO_*`` tuning switches cleared so
    the defaults are what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


# -- batch workloads -------------------------------------------------------------


SETUP_CODE = """\
import sys
import repro.analysis.planner
import repro.core.ext_scc
from repro.graph.io_formats import read_edge_text
edges = list(read_edge_text(sys.argv[1]))
"""
"""A batch workload's set-up, as a user pays it before the first call:
start an interpreter, import the pipeline, load the edge list."""


def batch_setup(path: Path) -> Interval:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(path)],
                   env=child_env(), check=True, stdin=subprocess.DEVNULL)
    return start, time.perf_counter()


def run_batch(name: str, spec: Batch, seed: int, seconds: float, traced: bool,
              workdir: Path, setups: int = BATCH_SETUPS) -> dict:
    """Time ``compute_sccs`` calls back to back for ``seconds``.

    Set-up (:data:`SETUP_CODE` in a fresh interpreter, which inherits this
    process's CPU) is timed ``setups`` times; its median is ``setup_s``.
    """
    from repro.core import ExtSCCConfig, ext_scc
    from repro.core.result import SCCResult
    from repro.graph.io_formats import read_edge_text

    # Function-level imports of the pipeline, paid here rather than
    # inside the first timed call.
    import repro.analysis.planner  # noqa: F401

    path = workdir / "edges.txt"
    write_graph(spec.nodes, seed, path)
    edges = list(read_edge_text(path))
    memory = max(2 * BLOCK_SIZE, int(spec.memory_ratio * (8 * spec.nodes + BLOCK_SIZE)))
    config = ExtSCCConfig.optimized()
    tracer = Tracer() if traced else None

    calls: Dict[bool, List[Interval]] = {False: [], True: []}
    first = None
    failed = 0
    with SpeedProbe() as probe:
        setup_spans = [batch_setup(path) for _ in range(0 if traced else setups)]
        deadline = time.perf_counter() + seconds
        while (
            time.perf_counter() < deadline
            or len(calls[False]) < (2 if traced else MIN_CALLS)
            or (traced and len(calls[True]) < 2)
        ):
            trace_this = traced and len(calls[False]) > len(calls[True])
            gc.collect()
            if trace_this:
                tracer.install()
            try:
                start = time.perf_counter()
                out = ext_scc.compute_sccs(
                    edges, num_nodes=spec.nodes, memory_bytes=memory,
                    block_size=BLOCK_SIZE, config=config,
                )
                calls[trace_this].append((start, time.perf_counter()))
            finally:
                if trace_this:
                    tracer.uninstall()
            ledger = {
                "io_total": out.io.total,
                "bytes_stored": sum(s for _, s in out.bytes_by_width.values()),
                "num_sccs": out.result.num_sccs,
                "levels": out.num_iterations,
            }
            if first is None:
                first = (out.result, ledger)
            elif out.result != first[0] or ledger != first[1]:
                failed += 1  # every call must reproduce the same labels and ledger
            del out
    rss = peak_rss_mb(resource.RUSAGE_SELF)  # before the reference is built

    reference = SCCResult(Reference(edges, spec.nodes).labels)
    attempted = len(calls[False]) + len(calls[True])
    if first[0] != reference:
        failed = attempted
    counts = dict(first[1], labels_sha256=labels_digest(first[0].labels))
    samples = probe.samples
    walls = {mode: [corrected(samples, c) for c in spans]
             for mode, spans in calls.items()}
    info = {
        "edges": len(edges),
        "memory_bytes": memory,
        "calls": len(calls[False]),
        "raw_walls_s": [end - start for start, end in calls[False]],
        "slowdowns": [slowdown(samples, *c) for c in calls[False]],
        "tail_percentile": tail_percentile(walls[False])[0],
    }
    if traced:
        tracer.finish()
        tracer.dump(workdir / "spans.json")
        values = layer_values(tracer.summary(), per=len(calls[True]))
        values["trace_overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        )
        info["missing_targets"] = tracer.missing
    else:
        wall = statistics.median(walls[False])
        info["raw_setup_s"] = [end - start for start, end in setup_spans]
        values = {
            "setup_s": statistics.median(
                corrected(samples, span) for span in setup_spans
            ),
            "op_p50_ms": 1000 * wall,
            "op_tail_ms": 1000 * tail_percentile(walls[False])[1],
            "throughput_per_s": len(edges) / wall,
            "peak_rss_mb": rss,
        }
    return result(name, seed, seconds, traced, attempted, failed, values,
                  counts, info)


# -- serve workloads ---------------------------------------------------------------


class Daemon:
    """``repro serve STORE --build EDGES`` through ``serve.py`` (pinned to
    :data:`DAEMON_CPU`, speed probe running, traced with ``trace_out``),
    started and waited on until it prints its port."""

    _SERVING = re.compile(r"^serving .* on [^ ]+:(\d+)$")

    def __init__(self, store: Path, edges: Path, nodes: int,
                 trace_out: Optional[Path] = None) -> None:
        self.store = store
        self.speed_path = store.with_name(store.name + "-speed.json")
        command = [sys.executable, str(HERE / "serve.py"),
                   "--cpu", str(DAEMON_CPU), "--speed-out", str(self.speed_path)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "serve", str(store), "--build", str(edges),
                    "--nodes", str(nodes), "--port", "0"]
        self.stderr: List[str] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=child_env(),
        )
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            for line in self.proc.stderr:
                self.stderr.append(line)
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError(
                    "daemon did not start:\n" + "".join(self.stderr)
                )
            match = self._SERVING.match(line.strip())
            if match:
                self.port = int(match.group(1))
                self.ready = time.perf_counter()
                return

    def speed_samples(self) -> List[Tuple[float, float]]:
        """The daemon's speed-probe samples (after :meth:`stop`)."""
        return SpeedProbe.load(self.speed_path)

    def server_stats(self) -> dict:
        from repro.service import ServiceClient

        with ServiceClient(port=self.port) as client:
            return client.server_stats()

    def meta(self) -> dict:
        return json.loads((self.store / "service-meta.json").read_text())

    def stop(self) -> None:
        """Shut the daemon down over the protocol and wait for it."""
        from repro.exceptions import ReproError
        from repro.service import ServiceClient

        try:
            with ServiceClient(port=self.port) as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, ReproError, subprocess.TimeoutExpired):
            pass  # it will not go quietly; the run is over anyway
        self.kill()

    def kill(self) -> None:
        """Stop the process (if still running), wait for it, release its
        stderr pipe."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._pump.join(timeout=5)
        self.proc.stderr.close()


def call_streams(spec: Serve, seed: int, phase: str,
                 zipf: loadgen.Zipf) -> List[Iterator[loadgen.Call]]:
    """One seeded stream of calls per connection: uniform ``scc-label``
    for ``serve-closed``, the Zipf-keyed :data:`OPEN_MIX` for
    ``serve-open``."""

    def calls(rng: random.Random) -> Iterator[loadgen.Call]:
        while True:
            if spec.loop == "closed":
                yield "scc-label", {
                    "nodes": [rng.randrange(spec.nodes) for _ in range(LABEL_KEYS)]
                }
            else:
                yield open_call(zipf, rng)

    return [calls(random.Random(f"{seed}:{phase}:{i}")) for i in range(CONNECTIONS)]


def open_call(zipf: loadgen.Zipf, rng: random.Random) -> loadgen.Call:
    pick = rng.random()
    for op, share in OPEN_MIX:
        if pick < share:
            break
        pick -= share
    if op == "scc-label":
        return op, {"nodes": [zipf.draw(rng) for _ in range(LABEL_KEYS)]}
    if op == "topo-order":
        return op, {"nodes": [zipf.draw(rng) for _ in range(TOPO_KEYS)]}
    return op, {"u": zipf.draw(rng), "v": zipf.draw(rng)}


def _label_report(stats: dict) -> dict:
    report = stats["scc_label"]
    lookups = report["label_cache_lookups"]
    return {
        "cache_lookups": lookups,
        "cache_hits": round(report["label_cache_hit_rate"] * lookups),
        "block_reads": report["batch_block_reads"],
        "lookups": report["batch_lookups"],
    }


@dataclass
class Window:
    """One measured load phase on one daemon.

    ``requests`` are the ones whose latency is reported; ``sent`` is every
    request of the phase (warm-up and capacity probe included), all of
    which are checked.  ``capacity`` is the closed-loop rate ``serve-open``
    measured over ``capacity_span`` before its open loop."""

    requests: List[loadgen.Request]
    sent: List[loadgen.Request]
    warm_start: float
    start: float
    end: float
    before: dict
    after: dict
    capacity: Optional[float] = None
    capacity_span: Optional[Interval] = None
    offered_rate: Optional[float] = None


def measure(spec: Serve, daemon: Daemon, seconds: float, seed: int,
            phase: str, warmup_seconds: float) -> Window:
    """Warm the daemon's caches with the workload's closed loop, then run
    the timed window.

    ``serve-closed`` is one closed loop.  ``serve-open`` first measures
    the closed-loop capacity of its mix for :data:`CAPACITY_SHARE` of the
    window, then offers :data:`OPEN_LOAD` times that rate as Poisson
    arrivals for the rest.
    """
    zipf = loadgen.Zipf(spec.nodes, ZIPF_S, random.Random(seed))
    warm_start = time.perf_counter()
    warmup = loadgen.closed_loop(
        daemon.port, warmup_seconds, call_streams(spec, seed, f"{phase}-warm", zipf)
    )
    before = _label_report(daemon.server_stats())
    start = time.perf_counter()
    if spec.loop == "closed":
        requests = loadgen.closed_loop(
            daemon.port, seconds, call_streams(spec, seed, phase, zipf)
        )
        end = time.perf_counter()
        after = _label_report(daemon.server_stats())
        return Window(requests, warmup + requests, warm_start, start, end,
                      before, after)
    probe = loadgen.closed_loop(
        daemon.port, seconds * CAPACITY_SHARE,
        call_streams(spec, seed, f"{phase}-capacity", zipf),
    )
    probe_end = time.perf_counter()
    capacity = len(probe) / (probe_end - start)
    rng = random.Random(f"{seed}:{phase}")
    schedule = loadgen.poisson_schedule(
        OPEN_LOAD * capacity, seconds * (1 - CAPACITY_SHARE), rng,
        lambda: open_call(zipf, rng),
    )
    requests = loadgen.open_loop(daemon.port, schedule, connections=CONNECTIONS)
    end = time.perf_counter()
    after = _label_report(daemon.server_stats())
    return Window(requests, warmup + probe + requests, warm_start, start, end,
                  before, after, capacity=capacity,
                  capacity_span=(start, probe_end),
                  offered_rate=OPEN_LOAD * capacity)


def answered(request: loadgen.Request, reference: Reference) -> bool:
    """Whether the daemon answered ``request`` correctly."""
    try:
        return reference.check(request.op, request.args,
                               json.loads(request.response))
    except (ValueError, KeyError, TypeError):
        return False  # no answer, or not the protocol's shape


def latencies(window: Window, reference: Reference,
              speed) -> Tuple[List[float], List[float], int]:
    """Raw and reported latency of each timed request (a wrong, refused or
    missing answer counts as infinitely late), and the failures among
    every request of the phase.  ``speed(start, end)`` is the slowdown a
    reported time is divided by."""
    raw, reported = [], []
    for request in window.requests:
        if answered(request, reference):
            raw.append(request.latency)
            reported.append(request.latency / speed(request.due, request.done))
        else:
            raw.append(float("inf"))
            reported.append(float("inf"))
    failed = sum(not answered(request, reference) for request in window.sent)
    return raw, reported, failed


def run_serve(name: str, spec: Serve, seed: int, seconds: float, traced: bool,
              workdir: Path, setups: int = SERVE_SETUPS,
              warmup: float = WARMUP_SECONDS) -> dict:
    """Boot the daemon ``setups`` times (median: ``setup_s``, from launch
    to the printed port: store build and boot), then load the last one
    for ``seconds`` after a warm-up; traced runs split the window between
    a plain and a traced daemon."""
    edges_path = workdir / "edges.txt"
    write_graph(spec.nodes, seed, edges_path)
    daemons: List[Daemon] = []
    try:
        for number in range(1 if traced else setups):
            daemons.append(Daemon(workdir / f"store-{number}", edges_path, spec.nodes))
            if number < setups - 1 and not traced:
                daemons[-1].stop()
        plain = daemons[-1]
        span = seconds / 2 if traced else seconds
        windows = [measure(spec, plain, span, seed, "plain", warmup)]
        meta = plain.meta()
        plain.stop()
        if traced:
            spans_path = workdir / "spans.json"
            daemons.append(Daemon(workdir / "store-traced", edges_path,
                                  spec.nodes, trace_out=spans_path))
            windows.append(
                measure(spec, daemons[-1], span, seed, "traced", warmup)
            )
            traced_meta = daemons[-1].meta()
            daemons[-1].stop()
    finally:
        for daemon in daemons:
            daemon.kill()

    from repro.graph.io_formats import read_edge_text

    reference = Reference(list(read_edge_text(edges_path)), spec.nodes)
    samples = [daemon.speed_samples() for daemon in daemons]

    def load_speed(daemon_samples):
        if not spec.cpu_bound:
            return lambda start, end: 1.0
        return lambda start, end: slowdown(daemon_samples, start, end)

    speeds = [load_speed(daemon_samples) for daemon_samples in samples]
    failed = 0
    raw: List[List[float]] = []
    lat: List[List[float]] = []
    for window, speed in zip(windows, speeds[-len(windows):]):
        window_raw, window_lat, bad = latencies(window, reference, speed)
        raw.append(window_raw)
        lat.append(window_lat)
        failed += bad
    attempted = sum(len(w.sent) for w in windows)
    counts = {"num_sccs": meta["num_sccs"], "scc_io": meta["scc_io"]}
    problems = []
    if meta["num_sccs"] != len(set(reference.labels.values())):
        problems.append("the store's SCC count differs from Tarjan's")
    main, main_speed = windows[0], speeds[-len(windows)]
    main_samples = samples[-len(windows)]
    lags = [r.lag for w in windows for r in w.requests]
    lag_p99 = percentile(lags, 99) if spec.loop == "open" else 0.0
    if lag_p99 > MAX_LAG_P99_S:
        problems.append(f"generator lag p99 {1000 * lag_p99:.2f} ms exceeds "
                        f"{1000 * MAX_LAG_P99_S:g} ms")
    info = {
        "requests": len(main.requests),
        "tail_percentile": tail_percentile(lat[0])[0],
        "generator_lag_p99_ms": 1000 * lag_p99,
        "error_frac": failed / attempted if attempted else 0.0,
        "slowdown": slowdown(main_samples, main.start, main.end),
        "raw_p50_ms": 1000 * percentile(raw[0], 50),
    }
    if main.offered_rate is not None:
        info["offered_rate_per_s"] = main.offered_rate
    if traced:
        if (traced_meta["num_sccs"], traced_meta["scc_io"]) != (
            meta["num_sccs"], meta["scc_io"]
        ):
            problems.append("the traced daemon's store ledger differs")
        window = windows[1]
        tracer = Tracer.load(spans_path)
        summary = tracer.summary([(0.0, window.warm_start),
                                  (window.start, window.end)])
        values = layer_values(summary, per=1.0)
        hits = window.after["cache_hits"] - window.before["cache_hits"]
        lookups = window.after["cache_lookups"] - window.before["cache_lookups"]
        values["io.cache.hit_rate"] = hits / lookups if lookups else 0.0
        reads = window.after["block_reads"] - window.before["block_reads"]
        keys = window.after["lookups"] - window.before["lookups"]
        values["baselines.node_table.blocks_per_lookup"] = reads / keys if keys else 0.0
        values["trace_overhead_frac"] = (
            percentile(lat[1], 50) / percentile(lat[0], 50) - 1
        )
        info["missing_targets"] = tracer.missing
    else:
        boots = [(daemon.started, daemon.ready) for daemon in daemons]
        info["raw_setup_s"] = [end - start for start, end in boots]
        if main.capacity is not None:
            # The capacity the open loop's rate was derived from.
            throughput = main.capacity * main_speed(*main.capacity_span)
        else:
            completed = [
                request.done for request, latency in zip(main.requests, lat[0])
                if latency != float("inf")
            ]
            duration = max(completed, default=main.end) - main.start
            throughput = (len(completed) / duration
                          * main_speed(main.start, main.end))
        values = {
            "setup_s": statistics.median(
                corrected(daemon_samples, boot)
                for daemon_samples, boot in zip(samples, boots)
            ),
            "op_p50_ms": 1000 * percentile(lat[0], 50),
            "op_tail_ms": 1000 * tail_percentile(lat[0])[1],
            "throughput_per_s": throughput,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    return result(name, seed, seconds, traced, attempted, failed, values,
                  counts, info, problems)


# -- entry point -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> dict:
    spec = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, Batch):
        return run_batch(name, spec, seed, seconds, traced, workdir)
    return run_serve(name, spec, seed, seconds, traced, workdir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    batch = isinstance(WORKLOADS[args.workload], Batch)
    pin_to_cpu(DAEMON_CPU if batch else GENERATOR_CPU)
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.workdir)
    args.result.write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
