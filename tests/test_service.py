"""Tests for the multi-tenant query service: store build, batched
lookups, per-tenant session ledgers/throttling, daemon round trips."""

import json
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from tests.conftest import random_edges, reference_sccs

from repro.exceptions import (
    IOBudgetExceeded,
    ServiceProtocolError,
    StorageError,
    UnknownNodeError,
    UnknownSessionError,
)
from repro.io.stats import IOStats
from repro.service import (
    BatchEngine,
    LabelStore,
    QueryDaemon,
    ServiceClient,
    SessionManager,
    TenantSession,
    build_store,
)
from repro.service.store import (
    COND_EDGES_FILE,
    LABELS_FILE,
    META_NAME,
    SPAN_WINDOW,
    TOPO_FILE,
)


# Two 3-cycles chained through a DAG edge, plus a 2-path and an isolate:
# SCCs {0,1,2} -> {3,4,5} -> {6}, and 7 -> 8.
EDGES = [(0, 1), (1, 2), (2, 0), (2, 3),
         (3, 4), (4, 5), (5, 3), (5, 6),
         (7, 8)]
LABELS = {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3, 6: 6, 7: 7, 8: 8}


@pytest.fixture
def store_dir(tmp_path):
    build_store(EDGES, tmp_path / "store", block_size=64)
    return tmp_path / "store"


@pytest.fixture
def store(store_dir):
    with LabelStore(store_dir) as s:
        yield s


class TestBuildStore:
    def test_meta_contents(self, store_dir):
        meta = json.loads((store_dir / META_NAME).read_text())
        assert meta["num_nodes"] == 9
        assert meta["num_sccs"] == 5
        assert meta["num_edges"] == len(EDGES)
        assert set(meta["fences"]) == {LABELS_FILE, TOPO_FILE}

    def test_store_files_are_exactly_the_serving_set(self, store_dir):
        from repro.io.persistent import PersistentBlockDevice

        device = PersistentBlockDevice(store_dir, block_size=64, readonly=True)
        assert sorted(device.list_files()) == sorted(
            [LABELS_FILE, COND_EDGES_FILE, TOPO_FILE]
        )
        device.close()

    def test_labels_match_reference(self, tmp_path):
        edges = random_edges(60, 150, seed=3)
        build_store(edges, tmp_path / "s", num_nodes=60, block_size=64)
        expected = reference_sccs(edges, 60).labels
        with LabelStore(tmp_path / "s") as store:
            got = store.lookup_labels(None, sorted(expected))
            assert got == expected

    def test_rebuild_replaces(self, store_dir):
        build_store([(0, 1), (1, 0)], store_dir, block_size=64)
        with LabelStore(store_dir) as store:
            assert store.lookup_labels(None, [0, 1]) == {0: 0, 1: 0}
            assert store.meta["num_nodes"] == 2

    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(StorageError):
            LabelStore(tmp_path / "nope")


class TestLabelStoreQueries:
    def test_lookup_labels(self, store):
        assert store.lookup_labels(None, list(range(9))) == LABELS

    def test_unknown_node_is_none(self, store):
        assert store.lookup_labels(None, [99]) == {99: None}

    def test_same_component(self, store):
        assert store.same_component(None, 0, 2) is True
        assert store.same_component(None, 0, 3) is False

    def test_same_component_unknown_node_raises(self, store):
        with pytest.raises(UnknownNodeError) as info:
            store.same_component(None, 99, 0)
        assert info.value.node == 99

    def test_reachable(self, store):
        assert store.reachable(None, 0, 6) is True
        assert store.reachable(None, 6, 0) is False
        assert store.reachable(None, 7, 8) is True
        assert store.reachable(None, 8, 7) is False
        assert store.reachable(None, 0, 8) is False

    def test_reachable_within_component(self, store):
        assert store.reachable(None, 1, 0) is True

    def test_topo_orders_are_a_valid_topological_order(self, store):
        orders = store.topo_orders(None, list(range(9)))
        # Edges within the condensation go to strictly deeper layers.
        assert orders[0][1] < orders[3][1] < orders[6][1]
        assert orders[7][1] < orders[8][1]
        # Nodes of one SCC share (component, layer).
        assert orders[0] == orders[1] == orders[2]
        assert orders[99] is None if 99 in orders else True

    def test_topo_orders_unknown_is_none(self, store):
        assert store.topo_orders(None, [0, 99])[99] is None

    def test_server_stats_shape(self, store):
        store.lookup_labels(None, [0, 1])
        stats = store.server_stats()
        assert stats["store"]["num_sccs"] == 5
        assert stats["physical_io"]["total"] >= 1
        assert stats["scc_label"]["flushes"] >= 1
        assert 0.0 <= stats["scc_label"]["label_cache_hit_rate"] <= 1.0


class TestBatchedIO:
    def test_batch_shares_block_reads(self, tmp_path):
        """N cold lookups in one batch cost reads per *distinct block*,
        not per lookup (the tentpole's O(sorted scan) claim)."""
        edges = random_edges(200, 500, seed=1)
        build_store(edges, tmp_path / "s", num_nodes=200, block_size=64)
        with LabelStore(tmp_path / "s", cache_entries=0) as store:
            nodes = list(range(200))
            before = store.stats.snapshot()
            store.lookup_labels(None, nodes)
            batched = (store.stats.snapshot() - before).total
            assert batched == store.labels.file.num_blocks
            # One random lookup per node would cost one read each.
            assert batched < len(nodes)

    def test_batch_answers_equal_point_answers(self, tmp_path):
        edges = random_edges(120, 300, seed=2)
        build_store(edges, tmp_path / "s", num_nodes=120, block_size=64)
        with LabelStore(tmp_path / "s", cache_entries=0) as store:
            nodes = list(range(120))
            batched = store.lookup_labels(None, nodes)
            pointwise = {
                n: store.lookup_labels(None, [n])[n] for n in nodes
            }
            assert batched == pointwise

    def test_cache_makes_repeat_batches_free(self, store):
        store.lookup_labels(None, list(range(9)))
        before = store.stats.snapshot()
        store.lookup_labels(None, list(range(9)))
        assert (store.stats.snapshot() - before).total == 0
        report = store.label_engine.hit_rate_report()
        assert report["label_cache_hit_rate"] > 0.0

    def test_flush_records_trace_span(self, store):
        before = len(store.trace.spans)
        store.lookup_labels(None, [0, 5])
        spans = store.trace.spans[before:]
        assert spans and spans[0].phase == "query/scc-label"
        assert spans[0].reads >= 1

    def test_span_memory_stays_flat_over_50k_flushes(self, store):
        # The daemon flushes for as long as it runs: its trace keeps a
        # bounded window of spans plus running totals, never every span.
        engine = store.label_engine
        entry = [(None, [0, 5])]
        tracemalloc.start()
        try:
            # Fill the window first, so its spans are traced both times.
            for _ in range(SPAN_WINDOW):
                engine.flush(entry)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50_000):
                engine.flush(entry)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Unbounded, 50k spans held ~22 MB (~450 B each).
        assert grown < 64 * 1024, grown
        assert len(store.trace.spans) == SPAN_WINDOW
        assert store.trace.spans[-1].stage == f"scc-label#{engine.flushes}"
        assert store.server_stats()["spans"] == 50_000 + SPAN_WINDOW

    def test_throttled_entry_does_not_block_batch_peers(self, store_dir):
        with LabelStore(store_dir, cache_entries=0) as store:
            manager = SessionManager()
            capped = manager.create("capped", io_budget=0)
            free = manager.create("free")
            outcomes = store.label_engine.flush(
                [(capped, [0, 5]), (free, [0, 5])]
            )
            assert isinstance(outcomes[0], IOBudgetExceeded)
            assert outcomes[1][0] == (0, 0)
            # The rejected entry performed (and was charged) zero I/O.
            assert capped.stats.total == 0
            assert capped.throttled == 1
            assert free.stats.total >= 1


class TestSessions:
    def test_session_ledger_counts_blocks(self, store_dir):
        with LabelStore(store_dir, cache_entries=0) as store:
            manager = SessionManager()
            session = manager.create("t1")
            store.lookup_labels(session, list(range(9)))
            ledger = session.ledger()
            assert ledger["io"]["total"] == store.labels.file.num_blocks
            assert ledger["queries"] == 1
            assert ledger["lookups"] == 9

    def test_single_tenant_attribution_equals_physical(self, store_dir):
        with LabelStore(store_dir, cache_entries=0) as store:
            boot = store.stats.total
            manager = SessionManager()
            session = manager.create("only")
            store.lookup_labels(session, list(range(9)))
            store.topo_orders(session, [0, 3, 7])
            assert session.stats.total == store.stats.total - boot

    def test_two_tenants_isolated_ledgers_and_throttle(self, store_dir):
        """The acceptance scenario: a capped tenant is throttled without
        affecting the other, and each ledger reflects its own blocks."""
        with LabelStore(store_dir, cache_entries=0) as store:
            manager = SessionManager()
            capped = manager.create("capped", io_budget=1)
            free = manager.create("free")
            # Both tables span >= 1 block; 9 nodes fit in one 64B block
            # of 8-byte records -> ask for nodes in distinct blocks via
            # both tables to need >= 2 blocks for the capped tenant.
            free_labels = store.lookup_labels(free, list(range(9)))
            assert free_labels == LABELS
            first = store.lookup_labels(capped, [0])  # 1 block: admitted
            assert first == {0: 0}
            with pytest.raises(IOBudgetExceeded):
                store.topo_orders(capped, list(range(9)))  # would exceed
            # The free tenant is untouched and still served.
            assert store.lookup_labels(free, [5]) == {5: 3}
            assert capped.stats.total == 1  # only the admitted block
            assert capped.throttled == 1
            assert free.throttled == 0
            roll = manager.roll_up()
            assert roll["throttled"] == 1
            assert roll["open_sessions"] == 2

    def test_close_folds_into_roll_up(self):
        manager = SessionManager()
        session = manager.create("t")
        session.note_query(4, cache_hits=1)
        session.stats.record_read(sequential=False, blocks=2)
        ledger = manager.close(session.id)
        assert ledger["queries"] == 1
        roll = manager.roll_up()
        assert roll["open_sessions"] == 0
        assert roll["queries"] == 1
        assert roll["attributed"]["total"] == 2

    def test_unknown_session(self):
        manager = SessionManager()
        with pytest.raises(UnknownSessionError):
            manager.get("s99")
        with pytest.raises(UnknownSessionError):
            manager.close("s99")


class TestConcurrentClients:
    def test_k_threads_byte_identical_answers(self, tmp_path):
        """K concurrent sessions through one engine: every answer equals
        the reference labeling, and attribution covers physical I/O."""
        edges = random_edges(150, 400, seed=5)
        expected = reference_sccs(edges, 150).labels
        build_store(edges, tmp_path / "s", num_nodes=150, block_size=64)
        with LabelStore(tmp_path / "s", cache_entries=0) as store:
            boot = store.stats.total
            manager = SessionManager()
            nodes = sorted(expected)
            results = {}
            errors = []

            def worker(k):
                try:
                    session = manager.create(f"t{k}")
                    results[k] = store.lookup_labels(session, nodes)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for k in range(6):
                assert results[k] == expected
            # Attributed >= physical (sharing), physical >= one pass.
            roll = manager.roll_up()
            physical = store.stats.total - boot
            assert roll["attributed"]["total"] >= physical
            assert physical >= store.labels.file.num_blocks


class TestDaemonRoundTrip:
    @pytest.fixture
    def served(self, store_dir):
        store = LabelStore(store_dir)
        daemon = QueryDaemon(store, epoch_seconds=0.001, owns_store=True)
        daemon.start()
        try:
            yield daemon
        finally:
            daemon.close()

    def test_full_protocol(self, served):
        port = served.address[1]
        with ServiceClient(port=port) as client:
            assert client.ping()
            client.open_session("tenant-a")
            assert client.scc_label(list(range(9))) == LABELS
            assert client.same_component(0, 2) is True
            assert client.reachable(0, 6) is True
            assert client.reachable(6, 0) is False
            orders = client.topo_order([0, 3, 6])
            assert orders[0][1] < orders[3][1] < orders[6][1]
            ledger = client.session_stats()
            assert ledger["tenant"] == "tenant-a"
            assert ledger["queries"] >= 4
            stats = client.server_stats()
            assert stats["sessions"]["open_sessions"] == 1
            final = client.close_session()
            assert final["tenant"] == "tenant-a"

    def test_unknown_node_round_trips_as_exception(self, served):
        with ServiceClient(port=served.address[1]) as client:
            client.open_session()
            with pytest.raises(UnknownNodeError) as info:
                client.same_component(99, 0)
            assert info.value.node == 99
            # Bulk lookups report unknowns as None instead of failing.
            assert client.scc_label([99]) == {99: None}

    def test_unknown_session_round_trips(self, served):
        with ServiceClient(port=served.address[1]) as client:
            client.session = "s999"
            with pytest.raises(UnknownSessionError):
                client.scc_label([0])
            client.session = None

    def test_malformed_request_is_protocol_error(self, served):
        with ServiceClient(port=served.address[1]) as client:
            with pytest.raises(ServiceProtocolError):
                client.request({"op": "no-such-op"})
            session = client.open_session()
            with pytest.raises(ServiceProtocolError):
                client.request({"op": "scc-label", "session": session,
                                "nodes": "zero"})
        with ServiceClient(port=served.address[1]) as peer:
            peer.open_session("peer")
            before = (peer.scc_label(list(range(9))), peer.reachable(0, 6))
            with socket.create_connection(served.address) as sock:
                answers = sock.makefile("rb")
                sock.sendall(b'{"op": "open-session"}\n')
                session = json.loads(answers.readline())["session"]
                bad_lines = [b"{bad json", b'{"op": "ping\xff"}', b"\xfe\xff"]
                for op in ("same-component", "reachable"):
                    for u in ({}, {"u": "x"}, {"u": None}, {"u": 0.9},
                              {"u": True}):
                        request = dict(op=op, session=session, v=2, **u)
                        bad_lines.append(json.dumps(request).encode())
                bad_lines += [
                    json.dumps({"op": "reachable", "session": session,
                                "u": 0.9, "v": 2.5}).encode(),
                    json.dumps({"op": "scc-label", "session": session,
                                "nodes": [True, False]}).encode(),
                    json.dumps({"op": "topo-order", "session": session,
                                "nodes": [0, True]}).encode(),
                    b'{"op": "open-session", "io_budget": true}',
                ]
                for line in bad_lines:
                    sock.sendall(line + b"\n")
                    response = json.loads(answers.readline())
                    assert response["ok"] is False, line
                    assert response["error"] == "protocol", (line, response)
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(answers.readline()) == {"ok": True,
                                                          "op": "ping"}
                # Only the one good open-session above created a session.
                sock.sendall(b'{"op": "server-stats"}\n')
                stats = json.loads(answers.readline())["stats"]
                assert stats["sessions"]["open_sessions"] == 2
            assert (peer.scc_label(list(range(9))), peer.reachable(0, 6)) == before
            assert before == (LABELS, True)

    def test_client_reset_mid_response_is_not_a_traceback(self, served, capfd):
        """A client that pipelines requests and resets the connection
        (SO_LINGER 0) ends its own connection quietly; the daemon keeps
        serving."""
        request = json.dumps({"op": "server-stats"}).encode() + b"\n"
        for _ in range(5):
            sock = socket.create_connection(served.address)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.sendall(request * 200)
            sock.close()  # RST while the daemon is still answering
        time.sleep(0.2)
        with ServiceClient(port=served.address[1]) as client:
            assert client.ping()
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err
        assert "ConnectionResetError" not in captured.err

    def test_throttled_round_trips_as_budget_error(self, store_dir):
        store = LabelStore(store_dir, cache_entries=0)
        with QueryDaemon(store, epoch_seconds=0.0, owns_store=True) as daemon:
            daemon.start()
            with ServiceClient(port=daemon.address[1]) as client:
                client.open_session("capped", io_budget=0)
                with pytest.raises(IOBudgetExceeded):
                    client.scc_label([0])
                assert client.session_stats()["throttled"] == 1

    def test_concurrent_clients_coalesce_epochs(self, store_dir):
        """K clients hammering one epoch share the block reads."""
        store = LabelStore(store_dir, cache_entries=0)
        with QueryDaemon(store, epoch_seconds=0.05, owns_store=True) as daemon:
            daemon.start()
            boot = store.stats.total
            barrier = threading.Barrier(4)
            results = []

            def hammer():
                with ServiceClient(port=daemon.address[1]) as client:
                    client.open_session("swarm")
                    barrier.wait()
                    results.append(client.scc_label(list(range(9))))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r == LABELS for r in results)
            # All four arrived inside one epoch: one physical pass.
            assert store.stats.total - boot == store.labels.file.num_blocks
            assert store.label_engine.flushes == 1

    def test_pipelined_answers_do_not_wait_for_delayed_ack(self, served):
        """Two requests sent in one write get both answers back well under
        the ~40 ms a client's delayed ACK would add under Nagle."""
        with socket.create_connection(served.address) as sock:
            answers = sock.makefile("rb")
            sock.sendall(b'{"op": "ping"}\n')
            answers.readline()
            times = []
            for _ in range(9):
                start = time.perf_counter()
                sock.sendall(b'{"op": "ping"}\n{"op": "ping"}\n')
                assert json.loads(answers.readline())["ok"]
                assert json.loads(answers.readline())["ok"]
                times.append(time.perf_counter() - start)
            assert sorted(times)[len(times) // 2] < 0.02

    def test_shutdown_op_stops_server(self, store_dir):
        store = LabelStore(store_dir)
        daemon = QueryDaemon(store, owns_store=True)
        daemon.start()
        with ServiceClient(port=daemon.address[1]) as client:
            client.shutdown()
        daemon._serve_thread.join(timeout=5)
        assert not daemon._serve_thread.is_alive()
        daemon.close()


class TestBatchCollector:
    def test_zero_epoch_still_answers(self, store):
        from repro.service.batch import BatchCollector

        collector = BatchCollector(store.label_engine, epoch_seconds=0.0)
        try:
            assert collector.submit(None, [0, 3])[3] == (3, 3)
        finally:
            collector.close()

    def test_closed_collector_rejects(self, store):
        from repro.service.batch import BatchCollector

        collector = BatchCollector(store.label_engine, epoch_seconds=0.0)
        collector.close()
        with pytest.raises(RuntimeError):
            collector.submit(None, [0])

    def test_max_batch_splits_flushes(self, store):
        from repro.service.batch import BatchCollector

        collector = BatchCollector(
            store.label_engine, epoch_seconds=0.02, max_batch=2
        )
        try:
            barrier = threading.Barrier(5)
            outs = []

            def go(n):
                barrier.wait()
                outs.append(collector.submit(None, [n]))

            threads = [threading.Thread(target=go, args=(i,)) for i in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(outs) == 5
        finally:
            collector.close()
