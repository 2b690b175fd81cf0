"""The socket-backed aggregation service (repro.service).

Covers the protocol envelope, bit-identity of service folds against the
serial plane (shard matrix, tree pre-folds, and full runs on the
sharded 3-tier topology — the acceptance invariant), kill+resume durability
through live servers, failover (hard-killed server mid-round → respawn +
round replay), the ``repro_service_*`` telemetry, and the pool machinery
(config wiring, pickling, idempotent close, token hygiene).
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.federated import (
    AggregationTree,
    ParameterServer,
    RunConfig,
    ShardedParameterServer,
)
from repro.obs import MetricsRegistry
from repro.runtime import latest_checkpoint, make_aggregation_pool
from repro.runtime.executor import frame_update
from repro.service import (
    OP_NAMES,
    PROTOCOL_VERSION,
    ServiceAggregationPool,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    UnknownCodecError,
    decode_message,
    encode_message,
)
from repro.service.protocol import (
    OP_ADD,
    OP_FLUSH_SHARD,
    OP_HELLO,
    OP_OK,
    OP_PING,
    ServiceProtocolError,
)
from repro.service.server import _MAX_PENDING_TOKENS, InProcessServer
from repro.comm.stream import FrameStream

from test_parallel_aggregation import _assert_models_equal, _updates
from test_runtime import ConstantMethod, build_federation
from repro.models import MoETransformer

STRATEGIES = ["fedavg", "trimmed_mean", "median", "staleness_fedavg"]

#: the acceptance topology: expert shards at the root under a two-tier
#: aggregation tree (participants → edges → super-edges → root)
SHARDED_3TIER = dict(num_shards=2, edge_tiers=(2, 2), aggregation="trimmed_mean",
                     participants_per_round=4)


@pytest.fixture(scope="module")
def service_pool():
    """One socketpair-backed service plane shared by the fold matrix."""
    pool = ServiceAggregationPool(2, transport="socketpair")
    yield pool
    pool.close()


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_round_trip_every_op(self):
        for op in OP_NAMES:
            body = {"op": OP_NAMES[op], "frames": [b"\x01\x02", 3]}
            assert decode_message(encode_message(op, body)) == (op, body)

    def test_bad_magic_rejected(self):
        message = bytearray(encode_message(OP_PING, None))
        message[:4] = b"RWP1"  # right family, wrong layer
        with pytest.raises(ServiceProtocolError, match="magic"):
            decode_message(bytes(message))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            encode_message(999, None)
        message = bytearray(encode_message(OP_PING, None))
        message[4] = 250
        with pytest.raises(ServiceProtocolError, match="unknown service op"):
            decode_message(bytes(message))

    def test_torn_body_rejected(self):
        message = encode_message(OP_ADD, {"token": "t", "frames": []})
        with pytest.raises(ServiceProtocolError, match="undecodable"):
            decode_message(message[: len(message) // 2 + 5])


# ------------------------------------------------------- fold-plane identity
class TestServiceFoldsBitEqualSerial:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sharded_fold_matches_serial(self, tiny_config, service_pool, strategy):
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model,
                           stalenesses=(strategy == "staleness_fedavg"))

        serial = ShardedParameterServer(serial_model, num_shards=4)
        serial_contrib = serial.aggregate(list(updates), strategy=strategy)
        service = ShardedParameterServer(service_model, num_shards=4)
        service.fold_pool = service_pool
        service_contrib = service.aggregate(list(updates), strategy=strategy)

        assert serial_contrib == service_contrib
        assert serial.last_shard_contributions == service.last_shard_contributions
        _assert_models_equal(serial_model, service_model)

    @pytest.mark.parametrize("tiers", [(2,), (3, 2), (2, 2, 2)])
    def test_tree_prefold_matches_serial(self, tiny_config, service_pool, tiers):
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model, num_participants=8)

        serial_tree = AggregationTree(tiers, latency_s=0.05)
        serial_contrib, serial_stats = serial_tree.aggregate(
            ParameterServer(serial_model), iter(updates), strategy="median")
        service_tree = AggregationTree(tiers, latency_s=0.05)
        service_contrib, service_stats = service_tree.aggregate(
            ParameterServer(service_model), iter(updates), strategy="median",
            pool=service_pool)

        assert serial_contrib == service_contrib
        assert serial_tree.last_tier_counts == service_tree.last_tier_counts
        assert serial_stats.total_bytes == service_stats.total_bytes
        _assert_models_equal(serial_model, service_model)

    def test_streaming_fold_matches_serial(self, tiny_config, service_pool):
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model)

        ShardedParameterServer(serial_model, num_shards=3).aggregate(
            iter(updates))
        service = ShardedParameterServer(service_model, num_shards=3)
        service.fold_pool = service_pool
        service.aggregate(iter(updates))
        _assert_models_equal(serial_model, service_model)

    def test_server_side_error_surfaces_as_service_error(self, tiny_config,
                                                         service_pool):
        model = MoETransformer(tiny_config)
        updates = [u for u in _updates(model, num_participants=2)]
        for update in updates:
            update.weight = 0.0
        service = ShardedParameterServer(model, num_shards=2)
        service.fold_pool = service_pool
        with pytest.raises(ServiceError, match="non-positive total weight"):
            service.aggregate(list(updates))


# ------------------------------------------------------------------ run level
class TestServiceRuns:
    def _run(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(2)
        return result, tuner

    def test_service_run_matches_serial(self, vocab, tiny_config):
        """Acceptance: the service backend is bit-identical to serial on the
        sharded 3-tier topology."""
        serial_result, serial_tuner = self._run(vocab, tiny_config,
                                                **SHARDED_3TIER)
        service_result, service_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="socketpair",
            **SHARDED_3TIER)
        for a, b in zip(serial_result.rounds, service_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time
            assert a.edge_bytes == b.edge_bytes
            assert a.tier_bytes == b.tier_bytes
        _assert_models_equal(serial_tuner.server.global_model,
                             service_tuner.server.global_model)

    def test_service_run_over_tcp_matches_serial(self, vocab, tiny_config):
        """The same invariant through real spawned TCP servers."""
        knobs = dict(num_shards=2, edge_tiers=(2,), participants_per_round=3)
        serial_result, serial_tuner = self._run(vocab, tiny_config, **knobs)
        service_result, service_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="tcp", **knobs)
        for a, b in zip(serial_result.rounds, service_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
        _assert_models_equal(serial_tuner.server.global_model,
                             service_tuner.server.global_model)

    def test_service_resume_matches_uninterrupted(self, vocab, tiny_config,
                                                  tmp_path):
        """Kill+resume through live servers stays bit-identical."""
        knobs = dict(aggregation_executor="service",
                     service_transport="socketpair", aggregation_workers=2,
                     **SHARDED_3TIER)
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))
        assert snapshot is not None

        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        assert resumed.tracker.as_series() == expected.tracker.as_series()
        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
            assert got.tier_bytes == want.tier_bytes
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_backend_is_resumable_across_checkpoints(self, vocab, tiny_config,
                                                     tmp_path):
        """A run checkpointed under one fold backend resumes under another:
        the backends are bit-identical, so the executor fields are in the
        resumable set and must not trip the config-mismatch guard."""
        knobs = dict(num_shards=2, edge_tiers=(2,), participants_per_round=3)
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)  # checkpointed under serial
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))

        server, participants, test, config = build_federation(
            vocab, tiny_config, aggregation_executor="service",
            service_transport="socketpair", aggregation_workers=2, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_on_resume_drops_orphaned_half_round_state(self, tiny_config):
        """A surviving server still holding a killed run's half-accumulated
        round is reset by the resume hook, so refolds start clean."""
        pool = ServiceAggregationPool(1, transport="socketpair")
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u) for u in _updates(model, num_participants=2)]
            pool._ensure_started()
            client = pool._clients[0]
            client.call(OP_ADD, {"token": "killed-run", "frames": framed})
            assert pool.server_stats()[0]["pending_tokens"] == 1
            pool.on_resume({})
            assert pool.server_stats()[0]["pending_tokens"] == 0
        finally:
            pool.close()


# ------------------------------------------------- compressed service wire
class TestServiceWireCodec:
    """Compressed service wire: the round's original codec frames
    are forwarded to the servers verbatim (with per-job references for
    delta codecs), so compressed rounds ship compressed service bytes while
    staying bit-identical to serial — the tentpole acceptance invariant."""

    #: ``transport="wire"`` is what stamps each delivered update with its
    #: original codec frame — the bytes the service forwards
    WIRE_KNOBS = dict(SHARDED_3TIER, transport="wire", codec="topk:0.25:int4",
                      aggregation_executor="service",
                      service_transport="socketpair", aggregation_workers=2)

    def _run(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        return tuner.run(2), tuner

    def test_wire_run_matches_serial(self, vocab, tiny_config):
        serial_result, serial_tuner = self._run(
            vocab, tiny_config,
            **dict(SHARDED_3TIER, transport="wire", codec="topk:0.25:int4"))
        wire_result, wire_tuner = self._run(
            vocab, tiny_config, service_window=3,
            **self.WIRE_KNOBS)
        for a, b in zip(serial_result.rounds, wire_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.edge_bytes == b.edge_bytes
            assert a.tier_bytes == b.tier_bytes
        _assert_models_equal(serial_tuner.server.global_model,
                             wire_tuner.server.global_model)

    def test_wire_saves_service_bytes_and_counts_payloads(self, vocab,
                                                          tiny_config,
                                                          tmp_path):
        """Forwarding topk:int4 frames verbatim must shrink the service wire
        well below the fp64 re-encode, with per-codec/per-tier/reference
        counters surfacing exactly what crossed it."""

        def service_bytes(tuner):
            registry = tuner.telemetry.registry
            return sum(c["value"] for c in registry.snapshot()["counters"]
                       if c["name"] == "repro_service_bytes_sent_total")

        _, fp64_tuner = self._run(
            vocab, tiny_config, telemetry=True,
            telemetry_dir=str(tmp_path / "fp64"),
            **dict(self.WIRE_KNOBS, codec="fp64"))
        _, wire_tuner = self._run(
            vocab, tiny_config, telemetry=True,
            telemetry_dir=str(tmp_path / "wire"), **self.WIRE_KNOBS)

        # Only the leaf fan-in (the bulk at real scale — see the bench's
        # bytes-ratio gate) compresses; inner-tier partials stay fp64.  At
        # this 4-participant scale that still has to show a strict saving.
        assert service_bytes(wire_tuner) < 0.9 * service_bytes(fp64_tuner)
        registry = wire_tuner.telemetry.registry
        assert registry.counter_value("repro_service_frame_bytes_total",
                                      codec="topk:0.25:int4") > 0
        assert registry.counter_value("repro_service_reference_bytes_total") > 0
        # inner-tier folds (tier 1 of the two-tier tree) routed through servers
        assert registry.counter_value("repro_service_tier_folds_total",
                                      tier=1) > 0
        assert registry.counter_value("repro_service_tier_folds_total",
                                      tier=0) > 0

    def test_wire_resume_depth3_matches_uninterrupted(self, vocab, tiny_config,
                                                      tmp_path):
        """Kill+resume through live servers stays bit-identical on a depth-3
        tree with the compressed wire — replayed rounds reship their
        references with the flush, so resumed folds see identical inputs."""
        knobs = dict(self.WIRE_KNOBS, edge_tiers=(2, 2, 2))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))
        assert snapshot is not None

        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
            assert got.tier_bytes == want.tier_bytes
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_unknown_codec_rejected_with_typed_error(self):
        """An ADD frame declaring an unregistered codec dies as
        UnknownCodecError at validation — never a downstream decode/pickle
        failure — and is not retried (the pairing can never work)."""
        server = InProcessServer(name="codec")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="codec", retry_delay_s=0.0)
        try:
            bogus = b"RWP1" + bytes((1, 4)) + b"nope" + b"body-never-reached"
            with pytest.raises(UnknownCodecError, match="nope"):
                client.call(OP_ADD, {"token": "t", "frames": [(bogus, 0)]})
            with pytest.raises(ServiceProtocolError, match="not an RWP1"):
                client.call(OP_ADD, {"token": "t", "frames": [(b"garbage", 0)]})
            assert client.stats["reconnects"] == 0  # fail fast, no replay
        finally:
            client.shutdown()
            server.close()

    def test_hello_negotiation(self):
        """Matching versions ack with server identity; a mismatch is a typed,
        never-retried protocol error (old servers reject the op the same
        way, so incompatible pairs fail on connect, not mid-round)."""
        server = InProcessServer(name="versioned")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="versioned", retry_delay_s=0.0)
        try:
            ack = client.call(OP_HELLO, {"version": PROTOCOL_VERSION})
            assert ack["version"] == PROTOCOL_VERSION
            assert ack["name"] == "versioned"
            with pytest.raises(ServiceProtocolError, match="version"):
                client.call(OP_HELLO, {"version": PROTOCOL_VERSION + 1})
            assert client.stats["reconnects"] == 0
        finally:
            client.shutdown()
            server.close()


# ------------------------------------------------------------ ADD pipelining
class TestServiceWindow:
    """Failure modes of the pipelined ADD window: drops mid-window, flush
    ordering against the drain, and hard-killed servers under a full
    pipeline — all absorbed by whole-round fresh-token replay."""

    def _client(self, server, **kwargs):
        return ServiceClient(lambda: FrameStream(server.connect()),
                             name=server.name, retry_delay_s=0.0, **kwargs)

    def test_window_sizes_fold_identically(self, tiny_config):
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=6)]
        results = []
        for window in (1, 2, 64):
            server = InProcessServer(name=f"w{window}")
            client = self._client(server, chunk_frames=1, window=window)
            try:
                result, _ = client.fold_shard("fedavg", 0, framed)
                results.append(result)
            finally:
                client.shutdown()
                server.close()
        assert results[0] == results[1] == results[2]

    def test_connection_drop_mid_window_replays_whole_round(self, tiny_config):
        """A connection dying with unacknowledged ADDs in flight replays the
        round under a fresh token; the half-window is orphaned server-side."""
        server = InProcessServer(name="drop")
        client = self._client(server, chunk_frames=1, window=4)
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u)
                      for u in _updates(model, num_participants=6)]
            baseline, _ = client.fold_shard("fedavg", 0, framed)

            real_send = client._send_request
            state = {"sends": 0}

            def flaky_send(stream, op, body):
                state["sends"] += 1
                if state["sends"] == 3:
                    # two ADDs already in flight, unacked (window=4 means no
                    # ack has been read yet) when the wire dies
                    stream.close()
                    raise ConnectionError("injected mid-window drop")
                return real_send(stream, op, body)

            client._send_request = flaky_send
            try:
                result, _ = client.fold_shard("fedavg", 0, framed)
            finally:
                client._send_request = real_send
            assert result == baseline
            assert client.stats["retried_rounds"] == 1
            assert client.server_stats()["pending_tokens"] <= 1  # orphan only
        finally:
            client.shutdown()
            server.close()

    def test_flush_sent_only_after_window_drained(self, tiny_config):
        """Every ADD in the round is acknowledged before the flush leaves
        the client — and the final chunk rides the flush body, so a round
        of N chunks is N-1 ADDs plus one flush."""
        server = InProcessServer(name="drain")
        client = self._client(server, chunk_frames=1, window=3)
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u)
                      for u in _updates(model, num_participants=7)]
            events = []
            real_send, real_recv = client._send_request, client._recv_response

            def logged_send(stream, op, body):
                events.append(("send", op))
                return real_send(stream, op, body)

            def logged_recv(stream):
                events.append(("recv", None))
                return real_recv(stream)

            client._send_request, client._recv_response = logged_send, logged_recv
            try:
                result, _ = client.fold_shard("fedavg", 0, framed)
            finally:
                client._send_request = real_send
                client._recv_response = real_recv
            assert result
            flush_at = events.index(("send", OP_FLUSH_SHARD))
            acks_before_flush = sum(1 for kind, _ in events[:flush_at]
                                    if kind == "recv")
            # one HELLO ack + one ack per ADD chunk (the final chunk rides
            # the flush, so len(framed) - 1 ADDs), all pre-flush
            assert acks_before_flush == 1 + (len(framed) - 1)
            assert client.stats["requests"] == 1 + (len(framed) - 1) + 1
        finally:
            client.shutdown()
            server.close()

    def test_sigkill_under_full_pipeline_replays(self, tiny_config):
        """SIGKILL of a spawned server with a full ADD window in flight heals
        by respawn + whole-round replay, bit-identically."""
        pool = ServiceAggregationPool(1, transport="tcp", retry_delay_s=0.01,
                                      chunk_frames=1, window=4)
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u)
                      for u in _updates(model, num_participants=6)]
            expected = pool.fold_shards("fedavg", [(0, framed, {})])
            client = pool._clients[0]
            real_send = client._send_request
            state = {"killed": False}

            def killer_send(stream, op, body):
                if not state["killed"] and op == OP_ADD:
                    state["killed"] = True
                    pool._servers[0].kill()
                    time.sleep(0.05)  # let the SIGKILL land mid-window
                return real_send(stream, op, body)

            client._send_request = killer_send
            try:
                healed = pool.fold_shards("fedavg", [(0, framed, {})])
            finally:
                client._send_request = real_send
            assert healed == expected
            assert client.stats["retried_rounds"] == 1
        finally:
            pool.close()


# ------------------------------------------------------------------- failover
class TestServiceFailover:
    def test_killed_server_mid_round_heals_by_respawn_and_replay(self, tiny_config):
        registry = MetricsRegistry()

        class FakeTelemetry:
            pass

        telemetry = FakeTelemetry()
        telemetry.registry = registry
        pool = ServiceAggregationPool(1, transport="tcp", retry_delay_s=0.01)
        pool.bind_telemetry(telemetry)
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u) for u in _updates(model, num_participants=3)]
            expected = pool.fold_shards("fedavg", [(0, framed, {})])
            pool._servers[0].kill()
            healed = pool.fold_shards("fedavg", [(0, framed, {})])
            assert healed == expected
            assert registry.counter_value("repro_service_respawns_total",
                                          server="server0") == 1
            assert registry.counter_value("repro_service_reconnects_total",
                                          server="server0") >= 1
            assert registry.counter_value("repro_service_retried_rounds_total",
                                          server="server0") == 1
        finally:
            pool.close()

    def test_unreachable_server_exhausts_retries(self):
        def refuse():
            raise ConnectionRefusedError("nobody home")

        client = ServiceClient(refuse, name="ghost", retry_attempts=3,
                               retry_delay_s=0.0)
        with pytest.raises(ServiceUnavailableError, match="3 attempt"):
            client.ping()
        assert client.stats["reconnects"] == 2  # attempts after the first

    def test_abandoned_tokens_evicted_at_flush(self, tiny_config):
        """A flaky client's orphaned round accumulators cannot grow a server
        without bound: flushes evict beyond the retention cap."""
        server = InProcessServer(name="evict")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="evict")
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u) for u in _updates(model, num_participants=1)]
            for index in range(_MAX_PENDING_TOKENS + 10):
                client.call(OP_ADD, {"token": f"orphan-{index}",
                                     "frames": framed[:1]})
            result, _ = client.fold_shard("fedavg", 0, framed)
            assert result  # the folded round is unaffected by the eviction
            assert client.server_stats()["pending_tokens"] <= _MAX_PENDING_TOKENS
        finally:
            client.shutdown()
            server.close()


# ------------------------------------------------------------------ telemetry
class TestServiceTelemetry:
    def test_run_emits_service_metrics_and_fold_spans(self, vocab, tiny_config,
                                                      tmp_path):
        server, participants, test, config = build_federation(
            vocab, tiny_config, aggregation_executor="service",
            service_transport="socketpair", aggregation_workers=2,
            telemetry=True, telemetry_dir=str(tmp_path), **SHARDED_3TIER)
        tuner = ConstantMethod(server, participants, test, config=config)
        tuner.run(2)
        registry = tuner.telemetry.registry
        sent = sum(counter["value"] for counter in registry.snapshot()["counters"]
                   if counter["name"] == "repro_service_bytes_sent_total")
        assert sent > 0
        assert registry.counter_value("repro_service_folds_total",
                                      kind="shard") > 0
        assert registry.counter_value("repro_service_folds_total",
                                      kind="node") > 0
        assert registry.counter_value("repro_service_connections_total",
                                      server="server0") >= 1
        events = (tmp_path / "trace.jsonl").read_text()
        assert '"transport":"service"' in events
        assert "fold_shard" in events and "prefold_node" in events


# ------------------------------------------------------------------ machinery
class TestServiceMachinery:
    def test_make_aggregation_pool_service_branch(self):
        assert make_aggregation_pool(RunConfig()) is None  # serial fold
        pool = make_aggregation_pool(RunConfig(
            aggregation_executor="service", aggregation_workers=3,
            service_transport="socketpair", service_retry_attempts=5,
            service_retry_delay_s=0.2, service_timeout_s=7.0,
            service_window=5))
        assert isinstance(pool, ServiceAggregationPool)
        assert pool.num_servers == 3
        assert pool.transport == "socketpair"
        assert pool.retry_attempts == 5
        assert pool.retry_delay_s == 0.2
        assert pool.timeout_s == 7.0
        assert pool.window == 5
        pool.close()  # never started: close is a no-op

    def test_config_validates_service_knobs(self):
        with pytest.raises(ValueError, match="service transport"):
            RunConfig(service_transport="carrier-pigeon")
        with pytest.raises(ValueError, match="retry_attempts"):
            RunConfig(service_retry_attempts=0)
        with pytest.raises(ValueError, match="retry_delay"):
            RunConfig(service_retry_delay_s=-1.0)
        with pytest.raises(ValueError, match="timeout"):
            RunConfig(service_timeout_s=0.0)
        with pytest.raises(ValueError, match="service_window"):
            RunConfig(service_window=0)
        with pytest.raises(ValueError, match="aggregation executor"):
            RunConfig(aggregation_executor="carrier-pigeon")
        with pytest.raises(ValueError, match="aggregation executor"):
            RunConfig(aggregation_executor="process")  # retired backend

    def test_pool_validates_construction(self):
        with pytest.raises(ValueError, match="transport"):
            ServiceAggregationPool(transport="smoke-signals")
        with pytest.raises(ValueError, match="addresses"):
            ServiceAggregationPool(transport="socketpair",
                                   addresses=[("localhost", 1)])
        with pytest.raises(ValueError, match="at least one"):
            ServiceAggregationPool(addresses=[])
        with pytest.raises(ValueError, match="disagrees"):
            ServiceAggregationPool(3, addresses=[("localhost", 1)])
        with pytest.raises(ValueError, match="positive"):
            ServiceAggregationPool(0)
        assert ServiceAggregationPool(
            addresses=[("h", 1), ("h", 2)]).num_servers == 2

    def test_pool_pickles_resource_less(self, tiny_config):
        pool = ServiceAggregationPool(1, transport="socketpair")
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u) for u in _updates(model, num_participants=2)]
            pool.fold_shards("fedavg", [(0, framed, {})])
            clone = pickle.loads(pickle.dumps(pool))
            assert clone._clients == [] and clone._servers == []
            assert clone.num_servers == 1
            assert clone.transport == "socketpair"
        finally:
            pool.close()

    def test_close_idempotent_and_lazily_restarts(self, tiny_config):
        pool = ServiceAggregationPool(1, transport="socketpair")
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        first = pool.fold_shards("fedavg", [(0, framed, {})])
        pool.close()
        pool.close()
        again = pool.fold_shards("fedavg", [(0, framed, {})])  # fresh servers
        assert again == first
        pool.close()

    @pytest.mark.parametrize("transport", ["socketpair", "tcp"])
    def test_close_drains_servers_that_never_folded(self, tiny_config, transport):
        """A server whose client never connected still gets a clean shutdown."""
        pool = ServiceAggregationPool(2, transport=transport)
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        pool.fold_shards("fedavg", [(0, framed, {})])  # server 1 stays idle
        servers = list(pool._servers)
        pool.close()
        assert pool._servers == [] and pool._clients == []
        if transport == "tcp":
            assert not any(server.alive for server in servers)

    def test_results_keep_job_order_across_servers(self, tiny_config,
                                                   service_pool):
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        jobs = [(shard, framed, {}) for shard in (5, 2, 9, 0)]
        results = service_pool.fold_shards("fedavg", jobs)
        assert [shard for shard, _ in results] == [5, 2, 9, 0]
        folded = results[0][1]
        assert all(result == folded for _, result in results)
