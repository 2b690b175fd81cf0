"""Pooled aggregation is bit-identical to serial — the whole matrix.

The fold plane (expert shards at the root, every node of the aggregation
tree) can run behind a :class:`repro.service.ServiceAggregationPool`.  Its
servers receive wire frames and mirror the serial fold exactly, so every
(strategy × shard count × tree depth) combination must produce the same
bits as the serial fold — including staleness discounting, the
all-zero-weight error, and kill+resume mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import (
    AggregationTree,
    ExpertUpdate,
    ParameterServer,
    ShardedParameterServer,
)
from repro.federated.strategies import AggregationStrategy, picklable_strategy
from repro.models import MoETransformer
from repro.runtime import latest_checkpoint
from repro.service import ServiceAggregationPool

from test_runtime import ConstantMethod, build_federation

STRATEGIES = ["fedavg", "trimmed_mean", "median", "staleness_fedavg"]


@pytest.fixture(scope="module")
def pool():
    """One fold pool shared by the whole matrix (lazily started, closed once)."""
    shared = ServiceAggregationPool(2, transport="socketpair")
    yield shared
    shared.close()


def _updates(model, num_participants=6, seed=7, stalenesses=False):
    rng = np.random.default_rng(seed)
    updates = []
    for pid in range(num_participants):
        for layer, expert in model.iter_expert_ids():
            state = {name: value + 0.01 * rng.normal(size=value.shape)
                     for name, value in model.expert_state(layer, expert).items()}
            updates.append(ExpertUpdate(
                pid, layer, expert, state, weight=float(pid % 3 + 1),
                staleness=(pid % 4) if stalenesses else 0))
    return updates


def _assert_models_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


def _check_shard_fold(tiny_config, pool, strategy, num_shards):
    serial_model = MoETransformer(tiny_config)
    pooled_model = MoETransformer(tiny_config)
    pooled_model.load_state_dict(serial_model.state_dict())
    updates = _updates(serial_model, stalenesses=(strategy == "staleness_fedavg"))

    serial = ShardedParameterServer(serial_model, num_shards=num_shards)
    serial_contrib = serial.aggregate(list(updates), strategy=strategy)

    pooled = ShardedParameterServer(pooled_model, num_shards=num_shards)
    pooled.fold_pool = pool
    pooled_contrib = pooled.aggregate(list(updates), strategy=strategy)

    assert serial_contrib == pooled_contrib
    assert serial.last_shard_contributions == pooled.last_shard_contributions
    _assert_models_equal(serial_model, pooled_model)


def _check_tree_fold(tiny_config, pool, strategy, tiers):
    serial_model = MoETransformer(tiny_config)
    pooled_model = MoETransformer(tiny_config)
    pooled_model.load_state_dict(serial_model.state_dict())
    updates = _updates(serial_model, num_participants=8)

    serial_tree = AggregationTree(tiers, latency_s=0.05)
    serial_contrib, serial_stats = serial_tree.aggregate(
        ParameterServer(serial_model), iter(updates), strategy=strategy)
    pooled_tree = AggregationTree(tiers, latency_s=0.05)
    pooled_contrib, pooled_stats = pooled_tree.aggregate(
        ParameterServer(pooled_model), iter(updates), strategy=strategy,
        pool=pool)

    assert serial_contrib == pooled_contrib
    assert serial_tree.last_tier_counts == pooled_tree.last_tier_counts
    assert serial_stats.total_bytes == pooled_stats.total_bytes
    assert serial_stats.payloads == pooled_stats.payloads
    assert serial_stats.seconds == pooled_stats.seconds
    _assert_models_equal(serial_model, pooled_model)


SHARD_COUNTS = [2, 4, 8]
TREE_STRATEGIES = ["fedavg", "trimmed_mean", "median"]
TREE_TIERS = [(2,), (3, 2), (2, 2, 2)]


# -------------------------------------------------------------- shard matrix
class TestPooledShardsBitEqualSerial:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_pooled_fold_matches_serial(self, tiny_config, pool, strategy,
                                        num_shards):
        _check_shard_fold(tiny_config, pool, strategy, num_shards)


# ---------------------------------------------------------------- tree matrix
class TestPooledTreeBitEqualSerial:
    @pytest.mark.parametrize("strategy", TREE_STRATEGIES)
    @pytest.mark.parametrize("tiers", TREE_TIERS)
    def test_pooled_prefold_matches_serial(self, tiny_config, pool, strategy, tiers):
        _check_tree_fold(tiny_config, pool, strategy, tiers)

    def test_pooled_tree_into_pooled_shards(self, tiny_config, pool):
        """Tree pre-fold and shard fold pool together, still bit-identical."""
        serial_model = MoETransformer(tiny_config)
        pooled_model = MoETransformer(tiny_config)
        pooled_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model, num_participants=8)

        AggregationTree((3, 2)).aggregate(
            ShardedParameterServer(serial_model, num_shards=4), iter(updates))
        pooled_server = ShardedParameterServer(pooled_model, num_shards=4)
        pooled_server.fold_pool = pool
        AggregationTree((3, 2)).aggregate(pooled_server, iter(updates), pool=pool)
        _assert_models_equal(serial_model, pooled_model)


# ------------------------------------------------------------- tcp transport
def test_tcp_matrix_matches_serial(tiny_config):
    """The shard and tree matrices again, through spawned TCP fold servers."""
    pool = ServiceAggregationPool(2, transport="tcp")
    try:
        for strategy in STRATEGIES:
            for num_shards in SHARD_COUNTS:
                _check_shard_fold(tiny_config, pool, strategy, num_shards)
        for strategy in TREE_STRATEGIES:
            for tiers in TREE_TIERS:
                _check_tree_fold(tiny_config, pool, strategy, tiers)
    finally:
        pool.close()


# ------------------------------------------------------------------ run level
class TestPooledRuns:
    def _run(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(2)
        return result, tuner

    @pytest.mark.parametrize("knobs", [
        {"num_shards": 4},
        {"edge_tiers": (3, 2), "num_shards": 2, "aggregation": "trimmed_mean"},
        {"edge_tiers": (2, 2), "transport": "wire"},
        {"edge_tiers": (2, 2), "transport": "wire", "codec": "topk:0.25:int4"},
    ], ids=["shards", "tree+trim", "tree+wire", "tree+sparse-wire"])
    def test_pooled_run_matches_serial_run(self, vocab, tiny_config, knobs):
        serial_result, serial_tuner = self._run(vocab, tiny_config, **knobs)
        pooled_result, pooled_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="socketpair", **knobs)
        for a, b in zip(serial_result.rounds, pooled_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time
            assert a.edge_bytes == b.edge_bytes
            assert a.tier_bytes == b.tier_bytes
        _assert_models_equal(serial_tuner.server.global_model,
                             pooled_tuner.server.global_model)

    def test_training_pool_and_fold_pool_compose(self, vocab, tiny_config):
        """executor='process' pickles the tuner; a live fold pool must survive."""
        knobs = dict(num_shards=2, edge_tiers=(2,), participants_per_round=3)
        serial_result, serial_tuner = self._run(vocab, tiny_config, **knobs)
        pooled_result, pooled_tuner = self._run(
            vocab, tiny_config, executor="process", executor_workers=2,
            aggregation_executor="service", aggregation_workers=2,
            service_transport="socketpair", **knobs)
        for a, b in zip(serial_result.rounds, pooled_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
        _assert_models_equal(serial_tuner.server.global_model,
                             pooled_tuner.server.global_model)

    def test_pooled_resume_matches_uninterrupted(self, vocab, tiny_config, tmp_path):
        """Kill+resume under the pooled sharded-tree path stays bit-identical."""
        knobs = dict(participants_per_round=3, num_shards=2, edge_tiers=(2, 2),
                     aggregation="trimmed_mean", trim_ratio=0.2,
                     aggregation_executor="service", aggregation_workers=2,
                     service_transport="socketpair")
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


# ------------------------------------------------------------------ machinery
class TestPoolMachinery:
    def test_unpicklable_strategy_fails_with_clear_error(self):
        class LambdaStrategy(AggregationStrategy):
            name = "lambda_strategy"

            def __init__(self):
                self.hook = lambda: None  # deliberately unpicklable

            def make_accumulator(self):
                raise NotImplementedError

        with pytest.raises(TypeError, match="cannot cross a process boundary"):
            picklable_strategy(LambdaStrategy())
