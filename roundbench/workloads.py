"""The benchmark's three federated workloads.

Each workload is a fixed federation (dataset, model preset, clients, run
config) built from the workload seed alone, so two processes given the same
seed run bit-identical round sequences.  Federations are built with explicit
sizes (no ``REPRO_BENCH_FAST`` shrinking) the way the paper benchmarks build
theirs: 400 synthetic samples, a Dirichlet(0.5) non-IID split and per-client
cost models of the full-scale architecture.

Only ``RunConfig`` fields that the roadmap keeps are set: no
``streaming_aggregation``, ``num_edge_aggregators``, ``service_codec`` or
``aggregation_executor="process"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: samples generated per workload dataset (train/test split happens after)
NUM_SAMPLES = 400
DIRICHLET_ALPHA = 0.5
VOCAB_SIZE = 256
VOCAB_TOPICS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it runs and why it was chosen."""

    name: str
    method: str                  # "flux" | "fmd"
    model: str                   # "llama" | "deepseek"
    dataset: str
    num_clients: int
    per_round: int
    batch_size: int
    local_batches: int
    eval_samples: int
    #: rounds per run; round 0 is the warm-up charged to set-up
    num_rounds: int
    why: str
    wire_tree: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="flux_llama", method="flux", model="llama", dataset="dolly",
        num_clients=16, per_round=8, batch_size=16, local_batches=3,
        eval_samples=60, num_rounds=3,
        why="Flux pipeline (profile, quantize, merge, probe, train) on "
            "analytic transport; no wire, snapshot or fold work"),
    Workload(
        name="fmd_llama", method="fmd", model="llama", dataset="gsm8k",
        num_clients=16, per_round=8, batch_size=16, local_batches=3,
        eval_samples=60, num_rounds=9,
        why="full fine-tuning: backward, Adam and model snapshots dominate; "
            "bypasses repro.core and the wire"),
    Workload(
        name="wire_tree", method="fmd", model="deepseek", dataset="mmlu",
        num_clients=48, per_round=32, batch_size=8, local_batches=1,
        eval_samples=16, num_rounds=3, wire_tree=True,
        why="48 wire frames per client through a 2-tier tree, 2 shards and "
            "TCP fold servers with async delta checkpoints: comm and fold work"),
)}

#: full-scale architecture behind each mini model's cost accounting
_DESCRIPTOR = {"llama": "llama-moe", "deepseek": "deepseek-moe"}
#: (max_experts, max_tuning_experts) per participant
_BUDGETS = {"llama": (12, 6), "deepseek": (18, 9)}


def _model_config(model: str, vocab_size: int):
    from repro import deepseek_moe_mini, llama_moe_mini

    if model == "llama":
        return llama_moe_mini(vocab_size=vocab_size)
    return deepseek_moe_mini(vocab_size=vocab_size, n_layers=3)


def build_federation(workload: Workload, seed: int) -> Tuple:
    """(model config, participants, test set, cost models) for ``seed``."""
    from repro import (
        Participant,
        ParticipantResources,
        Vocabulary,
        make_dataset,
        partition_dirichlet,
    )
    from repro.models.presets import ARCHITECTURE_DESCRIPTORS
    from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

    vocab = Vocabulary(size=VOCAB_SIZE, num_topics=VOCAB_TOPICS)
    config = _model_config(workload.model, vocab.size)
    dataset = make_dataset(workload.dataset, vocab=vocab,
                           num_samples=NUM_SAMPLES, seed=seed)
    train, test = dataset.split(seed=seed)
    shards = partition_dirichlet(train, workload.num_clients,
                                 alpha=DIRICHLET_ALPHA, seed=seed)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS[_DESCRIPTOR[workload.model]])
    max_experts, max_tuning = _BUDGETS[workload.model]
    participants = [
        Participant(i, train.subset(shard),
                    resources=ParticipantResources(max_experts=max_experts,
                                                   max_tuning_experts=max_tuning),
                    seed=seed + i)
        for i, shard in enumerate(shards)]
    cost_models = {i: CostModel(CONSUMER_GPU, memory) for i in range(len(shards))}
    return config, participants, test, cost_models


def _run_config(workload: Workload, seed: int,
               checkpoint_dir: Optional[str] = None):
    from repro import RunConfig

    fields = dict(
        batch_size=workload.batch_size,
        max_local_batches=workload.local_batches,
        learning_rate=1e-2,
        eval_max_samples=workload.eval_samples,
        participants_per_round=workload.per_round,
        scheduler="sync",
        executor="serial",
        seed=seed,
    )
    if workload.wire_tree:
        if checkpoint_dir is None:
            raise ValueError(f"{workload.name} needs a checkpoint directory")
        fields.update(
            transport="wire",
            codec="topk:0.25:int4",
            edge_tiers=(4, 2),
            num_shards=2,
            aggregation_executor="service",
            aggregation_workers=2,
            checkpoint_every=1,
            checkpoint_delta_every=3,
            checkpoint_async=True,
            checkpoint_dir=checkpoint_dir,
        )
    return RunConfig(**fields)


def build_tuner(workload: Workload, seed: int,
                checkpoint_dir: Optional[str] = None):
    """A fresh fine-tuner for ``workload`` from a freshly initialised model."""
    from repro import (
        FluxConfig,
        FluxFineTuner,
        FMDFineTuner,
        MoETransformer,
        ParameterServer,
    )
    from repro.core import EpsilonSchedule

    config, participants, test, cost_models = build_federation(workload, seed)
    server = ParameterServer(MoETransformer(config))
    cfg = _run_config(workload, seed, checkpoint_dir)
    if workload.method == "flux":
        flux = FluxConfig(
            epsilon=EpsilonSchedule(initial=0.5, final=0.95, warmup_rounds=5),
            seed=seed)
        return FluxFineTuner(server, participants, test, cost_models=cost_models,
                             config=cfg, flux_config=flux)
    return FMDFineTuner(server, participants, test, cost_models=cost_models,
                        config=cfg)
