"""The central parameter server(s) of the federated system.

Two server flavours share one interface:

:class:`ParameterServer`
    The flat server — holds the global MoE model and aggregates every expert
    key itself.

:class:`ShardedParameterServer`
    Partitions the ``ExpertKey`` space round-robin across ``num_shards``
    shards; each shard folds its own
    :class:`~repro.comm.StreamingAggregator`, so per-shard fold state (and,
    in a real deployment, fold *work*) is independent.  Per-key aggregation is
    already independent across keys, so any shard count produces bit-identical
    global parameters — sharding changes *where* state lives, not the math.

Both accept a pluggable :class:`~repro.federated.strategies.AggregationStrategy`
(default: weighted FedAvg).  Every aggregation folds each update into its
shard's accumulator as it arrives, so under FedAvg peak server memory is one
update plus the running sums, whatever the number of clients.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..comm import ScratchPool, StreamingAggregator
from ..models import MoETransformer
from .aggregation import ExpertKey, ExpertUpdate
from .strategies import get_strategy


class ParameterServer:
    """Holds the global MoE model and aggregates expert updates.

    The server never sees raw data: participants upload expert parameter
    states (plus scalar statistics such as utilities), and download refreshed
    expert parameters at the start of the next round.  Each update folds
    into a per-expert accumulator as it arrives.  ``strategy`` (a name or an
    :class:`~repro.federated.strategies.AggregationStrategy`) replaces the
    default FedAvg reduction with e.g. a coordinate-wise trimmed mean or
    median.
    """

    #: flat servers own the whole key space
    num_shards: int = 1

    def __init__(self, global_model: MoETransformer, strategy="fedavg") -> None:
        from ..obs import NULL_TRACER

        self.global_model = global_model
        self.strategy = get_strategy(strategy)
        self.round_index = 0
        #: number of contributions each expert received over the whole run
        self.contribution_counts: Dict[ExpertKey, int] = {}
        #: optional :class:`~repro.service.ServiceAggregationPool`: with one
        #: attached (and more than one shard) the per-shard folds run on its
        #: aggregator servers instead of on the server thread
        self.fold_pool = None
        #: span tracer for per-shard fold spans; the fine-tuner shares its
        #: run telemetry tracer here, the no-op default costs nothing
        self.tracer = NULL_TRACER
        #: persistent decode/fold scratch: payload decode and the weighted
        #: folds reuse these buffers across rounds, so steady-state serial
        #: aggregation is allocation-free (ships empty through pickle)
        self.fold_scratch = ScratchPool()

    # ------------------------------------------------------------ distribution
    def global_state(self) -> Dict[str, np.ndarray]:
        """Copy of the full global state dict (model download)."""
        return self.global_model.state_dict()

    def model_snapshot(self) -> MoETransformer:
        """A fresh model instance loaded with the current global parameters."""
        snapshot = MoETransformer(self.global_model.config)
        snapshot.load_state_dict(self.global_state())
        return snapshot

    def expert_state(self, layer: int, expert: int) -> Dict[str, np.ndarray]:
        return self.global_model.expert_state(layer, expert)

    def expert_states(self, keys: Iterable[ExpertKey]) -> Dict[ExpertKey, Dict[str, np.ndarray]]:
        return {key: self.expert_state(*key) for key in keys}

    # ------------------------------------------------------------- aggregation
    def _resolve_strategy(self, strategy):
        return strategy if strategy is not None else self.strategy

    def _make_aggregators(self, strategy) -> List[StreamingAggregator]:
        """One streaming aggregator per shard (flat servers have one).

        All shards share the server's persistent scratch pool — they fold
        sequentially on the server thread, so the pool's term buffers never
        see concurrent use.
        """
        return [StreamingAggregator(strategy, scratch=self.fold_scratch)
                for _ in range(self.num_shards)]

    def shard_of(self, key: ExpertKey) -> int:
        """The shard responsible for ``key`` (always 0 on a flat server)."""
        return 0

    def _record(self, contributions: Dict[ExpertKey, int]) -> Dict[ExpertKey, int]:
        for key, count in contributions.items():
            self.contribution_counts[key] = self.contribution_counts.get(key, 0) + count
        self.round_index += 1
        return contributions

    def aggregate(self, updates: Iterable[ExpertUpdate],
                  strategy=None) -> Dict[ExpertKey, int]:
        """Aggregate the received expert updates into the global model.

        The updates iterable is consumed one element at a time through
        per-shard :class:`~repro.comm.StreamingAggregator`'s — pass a
        generator and no more than one update is ever buffered server-side
        (a :attr:`fold_pool` buffers the round's frames instead).
        ``strategy`` overrides the server's construction-time strategy for
        this call.  A key whose FedAvg weights sum to zero raises
        ``ValueError``.
        """
        effective = self._resolve_strategy(strategy)
        if self.fold_pool is not None and self.num_shards > 1:
            return self._record(self._aggregate_pooled(updates, effective))
        aggregators = self._make_aggregators(effective)
        for update in updates:
            aggregators[self.shard_of(update.key)].add(update)
        contributions: Dict[ExpertKey, int] = {}
        for shard, aggregator in enumerate(aggregators):
            with self.tracer.span("fold_shard", category="fold", shard=shard,
                                  num_updates=aggregator.num_updates):
                contributions.update(aggregator.apply(self.global_model))
        return self._record(contributions)

    def _aggregate_pooled(self, updates: Iterable[ExpertUpdate],
                          strategy) -> Dict[ExpertKey, int]:
        """Fold the shards concurrently on the :attr:`fold_pool` servers.

        Updates travel to the servers as wire frames (plus their
        in-memory staleness), bucketed by shard in arrival order: an update
        that arrived over the wire forwards its original codec frame, with
        one fp64 reference per delta-codec key riding in the shard's job
        (see :func:`~repro.runtime.executor.frame_update`); anything else is
        framed as lossless fp64.  Each server mirrors the serial per-shard
        fold exactly, so pooled aggregation is bit-identical to serial
        (test-enforced).  Pooling buffers one round's frames parent-side,
        trading the serial fold's O(1) memory for parallel fold throughput.
        """
        from ..comm import decode_state_dict
        from ..runtime.executor import frame_update

        shard_frames: List[List] = [[] for _ in range(self.num_shards)]
        shard_refs: List[Dict] = [{} for _ in range(self.num_shards)]
        for update in updates:
            shard = self.shard_of(update.key)
            shard_frames[shard].append(
                frame_update(update, references=shard_refs[shard]))
        jobs = [(shard, framed, shard_refs[shard])
                for shard, framed in enumerate(shard_frames) if framed]
        contributions: Dict[ExpertKey, int] = {}
        folded = self.fold_pool.fold_shards(strategy, jobs,
                                            timed=self.tracer.enabled)
        for record in self.fold_pool.last_span_records:
            self.tracer.ingest(record)
        for _, shard_result in folded:
            for (layer, expert), state_frame, count in shard_result:
                self.global_model.load_expert_state(
                    layer, expert, decode_state_dict(state_frame))
                contributions[(layer, expert)] = count
        return contributions

    def aggregate_payloads(self, payloads: Iterable[bytes],
                           strategy=None) -> Dict[ExpertKey, int]:
        """Streaming aggregation straight from framed wire payloads.

        Each frame is decoded (resolving delta-codec references against the
        *current* global expert state — i.e. the state clients downloaded)
        and folded immediately; the model is only mutated once every payload
        has been folded, so references stay stable throughout.  Decode and
        fold run through the server's persistent scratch pool (foldable
        strategies), so a steady-state round allocates nothing per update.
        """
        aggregators = self._make_aggregators(self._resolve_strategy(strategy))
        use_scratch = aggregators[0].uses_scratch  # one strategy => all agree
        if self.num_shards == 1:
            fold_payload = aggregators[0].fold_payload
            for payload in payloads:
                fold_payload(payload, reference_lookup=self.expert_state)
        else:
            from ..comm import decode_update

            scratch = self.fold_scratch if use_scratch else None
            for payload in payloads:
                update = decode_update(payload,
                                       reference_lookup=self.expert_state,
                                       scratch=scratch)
                aggregators[self.shard_of(update.key)].add(update)
                if scratch is not None:
                    scratch.recycle()
        contributions: Dict[ExpertKey, int] = {}
        for aggregator in aggregators:
            contributions.update(aggregator.apply(self.global_model))
        return self._record(contributions)

    # ------------------------------------------------------------- durability
    def export_state(self) -> Dict:
        """Picklable snapshot of the server's run state (model excluded).

        The model itself is persisted separately via
        :func:`repro.models.checkpoint.save_checkpoint`; this covers the
        bookkeeping a resumed run must continue from.
        """
        return {
            "round_index": self.round_index,
            "contribution_counts": dict(self.contribution_counts),
            "num_shards": self.num_shards,
        }

    def import_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot."""
        if state.get("num_shards", 1) != self.num_shards:
            raise ValueError(
                f"checkpoint was written by a {state.get('num_shards', 1)}-shard "
                f"server; this server has {self.num_shards} shards")
        self.round_index = int(state["round_index"])
        self.contribution_counts = dict(state["contribution_counts"])

    # -------------------------------------------------------------- inspection
    def experts_per_layer(self) -> List[int]:
        return self.global_model.experts_per_layer()

    def num_experts(self) -> int:
        return sum(self.experts_per_layer())

    def untouched_experts(self) -> List[ExpertKey]:
        """Experts that have never received an update (useful for exploration)."""
        touched = set(self.contribution_counts)
        return [key for key in self.global_model.iter_expert_ids() if key not in touched]


class ShardedParameterServer(ParameterServer):
    """Expert-sharded parameter server.

    Expert keys are assigned round-robin over their flattened
    ``(layer, expert)`` index, so shards stay balanced for any layer shape.
    Aggregation routes every update to its key's shard aggregator.
    :attr:`last_shard_contributions` records how many updates each shard
    received in the most recent aggregation (the per-shard load signal a
    deployment would use for re-balancing).
    """

    def __init__(self, global_model: MoETransformer, num_shards: int = 1,
                 strategy="fedavg") -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        super().__init__(global_model, strategy=strategy)
        self.num_shards = int(num_shards)
        counts = global_model.experts_per_layer()
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self._flat_index = {
            (layer, expert): int(offsets[layer]) + expert
            for layer in range(len(counts)) for expert in range(counts[layer])
        }
        #: updates folded per shard in the most recent aggregation
        self.last_shard_contributions: List[int] = [0] * self.num_shards

    @classmethod
    def from_server(cls, server: ParameterServer, num_shards: int,
                    strategy=None) -> "ShardedParameterServer":
        """Re-home an existing flat server's model (and counts) onto shards."""
        sharded = cls(server.global_model, num_shards=num_shards,
                      strategy=strategy if strategy is not None else server.strategy)
        sharded.round_index = server.round_index
        sharded.contribution_counts = dict(server.contribution_counts)
        return sharded

    def shard_of(self, key: ExpertKey) -> int:
        try:
            return self._flat_index[key] % self.num_shards
        except KeyError:
            raise KeyError(f"unknown expert key {key!r}") from None

    def shard_keys(self, shard: int) -> List[ExpertKey]:
        """Every expert key owned by ``shard`` (flattened-index order)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard must be in [0, {self.num_shards})")
        return sorted((key for key, flat in self._flat_index.items()
                       if flat % self.num_shards == shard),
                      key=lambda key: self._flat_index[key])

    def aggregate(self, updates: Iterable[ExpertUpdate],
                  strategy=None) -> Dict[ExpertKey, int]:
        contributions = super().aggregate(updates, strategy=strategy)
        shard_counts = [0] * self.num_shards
        for key, count in contributions.items():
            shard_counts[self.shard_of(key)] += count
        self.last_shard_contributions = shard_counts
        return contributions


def make_server(global_model: MoETransformer, config=None,
                strategy="fedavg") -> ParameterServer:
    """Build the server a :class:`~repro.federated.RunConfig` describes."""
    num_shards = int(getattr(config, "num_shards", 1) or 1) if config is not None else 1
    if num_shards > 1:
        return ShardedParameterServer(global_model, num_shards=num_shards,
                                      strategy=strategy)
    return ParameterServer(global_model, strategy=strategy)
