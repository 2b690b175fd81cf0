"""Perf-regression harness for the MoE training hot path.

Times the throughput of the expert-dispatch hot loop and of end-to-end
training steps for every (dispatch, dtype) configuration of the tensor
engine, and writes the results to ``BENCH_hotpath.json`` so later PRs have a
measured trajectory to defend.

Two benchmark families per model preset:

* ``hot_loop`` — the MoE hot-loop microbenchmark: the preset's MoE layer
  driven directly (routing statistics enabled, attention profiling signal and
  sample ids supplied, exactly as the transformer invokes it), phases
  ``forward``, ``forward_backward`` and ``round`` (forward + backward + fused
  Adam step).
* ``end_to_end`` — full ``MoETransformer.compute_loss`` + backward + optimizer
  step on the preset.

Configurations measured: ``loop/float64`` (the seed's per-expert dispatch
algorithm on the float64 engine), ``batched/float64`` and ``batched/float32``
(the grouped-GEMM fast path).  ``--seed-src`` additionally benchmarks a
pristine seed checkout (same driver, via a subprocess) and records it under
``seed_reference``.

Usage::

    python benchmarks/perf_harness.py                     # full run
    python benchmarks/perf_harness.py --quick             # CI smoke
    python benchmarks/perf_harness.py --check BENCH_hotpath.json
    python benchmarks/perf_harness.py --seed-src /path/to/seed/src

The regression check compares the machine-independent *speedup* of
``batched/float32`` over ``loop/float64`` against the committed baseline and
fails (exit code 1) when it has regressed by more than ``--tolerance``
(default 30%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from typing import Dict, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(REPO_ROOT, "src")):
    # Appended (not prepended) so a PYTHONPATH pointing at another checkout —
    # the --seed-src worker mechanism — takes precedence over this repo.
    sys.path.append(os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

#: benchmarked (dispatch, dtype) configurations
CONFIGS = (("loop", "float64"), ("batched", "float64"), ("batched", "float32"))

#: hot-loop-only extra configuration: zero-skipping sparse dispatch over
#: experts sparsified to SPARSE_DENSITY (quantized to SPARSE_BITS).  Not a
#: like-for-like model with the dense configs — it is bit-identical to
#: ``batched`` *on the same sparsified weights*, which is what the dedicated
#: ``--suite sparse`` gates.
HOT_EXTRA_CONFIGS = (("sparse", "float32"),)

#: expert channel density / fake-quantization width used by every sparse
#: benchmark (25% live channels, ternary-ish int2 codes)
SPARSE_DENSITY = 0.25
SPARSE_BITS = 2

#: the fast path and the baseline the speedup headline compares
FAST_CONFIG = "batched/float32"
BASELINE_CONFIG = "loop/float64"

PRESET_NAMES = ("tiny_moe", "llama_moe_mini")


def _best_time(fn, iters: int, reps: int) -> float:
    """Best-of-``reps`` wall time of ``iters`` calls (robust to noisy hosts)."""
    fn()  # warm-up: JIT-free but primes caches/allocator
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iters


def _interleaved_best_times(config_fns: Dict[str, Dict], iters: int, reps: int) -> Dict[str, Dict[str, float]]:
    """Best-of timing with configs/phases interleaved per repetition.

    Sequential per-config timing lets slow host-load drift masquerade as a
    speedup change; interleaving hits every config with the same drift so the
    *ratios* the regression check relies on stay stable.
    """
    for phases in config_fns.values():
        for fn in phases.values():
            fn()  # warm-up
    best: Dict[str, Dict[str, float]] = {
        name: {phase: float("inf") for phase in phases}
        for name, phases in config_fns.items()
    }
    for _ in range(reps):
        for name, phases in config_fns.items():
            for phase, fn in phases.items():
                start = time.perf_counter()
                for _ in range(iters):
                    fn()
                elapsed = (time.perf_counter() - start) / iters
                if elapsed < best[name][phase]:
                    best[name][phase] = elapsed
    return best


def _make_layer(preset: str, dispatch: Optional[str], dtype: Optional[str]):
    """Build the preset's MoE layer; kwargs degrade gracefully on seed code."""
    from repro.models.moe_layer import MoELayer
    from repro.models.presets import get_preset

    config = get_preset(preset.replace("_", "-"))
    kwargs = {}
    if dispatch is not None:
        kwargs["dispatch"] = dispatch
    try:
        from repro.autograd import default_dtype
    except ImportError:  # seed checkout: float64 engine only
        default_dtype = None
    rng = np.random.default_rng(0)

    def build():
        try:
            return MoELayer(d_model=config.d_model, d_ff=config.d_ff,
                            num_experts=config.experts_per_layer()[0],
                            top_k=config.top_k, rng=rng, **kwargs)
        except TypeError:  # seed checkout: no dispatch kwarg
            return MoELayer(d_model=config.d_model, d_ff=config.d_ff,
                            num_experts=config.experts_per_layer()[0],
                            top_k=config.top_k, rng=rng)

    if default_dtype is not None and dtype is not None:
        with default_dtype(dtype):
            return build()
    return build()


def _make_model(preset: str, dispatch: Optional[str], dtype: Optional[str]):
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    if dispatch is not None and dtype is not None:
        try:
            config = get_preset(preset.replace("_", "-"), dtype=dtype, dispatch=dispatch)
            return MoETransformer(config)
        except TypeError:
            pass  # seed checkout: no dtype/dispatch knobs
    return MoETransformer(get_preset(preset.replace("_", "-")))


def build_hot_loop(preset: str, dispatch: Optional[str], dtype: Optional[str],
                   tokens: int) -> Dict:
    """Phase closures for the MoE hot-loop microbenchmark of one config."""
    layer = _make_layer(preset, dispatch, dtype)
    if dispatch == "sparse":
        # The sparse fast path only pays off on structurally-sparsified
        # experts; on dense weights it falls back to the batched plan.
        layer.sparsify_experts(SPARSE_DENSITY, bits=SPARSE_BITS)
    return _layer_phases(layer, tokens, dtype or "float64")


def _layer_phases(layer, tokens: int, np_dtype: str) -> Dict:
    """forward / forward_backward / round closures driving one MoE layer."""
    from repro.autograd import Adam, Tensor

    # Sequences of 32 tokens: tiny_moe's own max_seq_len, so the
    # microbenchmark drives the layer with shapes the preset actually sees.
    batch = max(tokens // 32, 1)
    x = np.random.default_rng(1).standard_normal(
        (batch, tokens // batch, layer.d_model)).astype(np_dtype)
    attention = np.random.default_rng(2).random((batch, tokens // batch))
    sample_ids = np.arange(batch)
    optimizer = Adam(list(layer.parameters()), lr=1e-8)

    # Precomputed output gradient: backward from the layer output directly
    # instead of through a reduction node, so the measurement isolates the
    # dispatch hot loop rather than the benchmark driver.
    grad_ones = np.ones(x.shape, dtype=np_dtype)

    def forward():
        layer(Tensor(x), token_attention=attention, sample_ids=sample_ids)

    def forward_backward():
        out = layer(Tensor(x, requires_grad=True),
                    token_attention=attention, sample_ids=sample_ids)
        out.backward(grad_ones)
        optimizer.zero_grad()

    def round_step():
        out = layer(Tensor(x, requires_grad=True),
                    token_attention=attention, sample_ids=sample_ids)
        out.backward(grad_ones)
        optimizer.step()
        optimizer.zero_grad()

    return {"forward": forward, "forward_backward": forward_backward, "round": round_step}


def build_end_to_end(preset: str, dispatch: Optional[str], dtype: Optional[str],
                     tokens: int) -> Dict:
    """Phase closures for the full-model training-round benchmark."""
    from repro.autograd import Adam

    model = _make_model(preset, dispatch, dtype)
    seq_len = min(32, model.config.max_seq_len)
    batch = max(tokens // seq_len, 1)
    ids = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(batch, seq_len))
    sample_ids = np.arange(batch)
    optimizer = Adam(list(model.parameters()), lr=1e-8)

    def round_step():
        loss = model.compute_loss(ids, sample_ids=sample_ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()

    return {"round": round_step}


def _peak_temporaries(round_fn) -> int:
    """Peak Python/NumPy heap allocated during one training round (bytes)."""
    tracemalloc.start()
    round_fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def _hot_loop_result(times: Dict[str, float], tokens: int, round_fn) -> Dict[str, float]:
    return {
        "forward_tokens_per_s": tokens / times["forward"],
        "forward_backward_tokens_per_s": tokens / times["forward_backward"],
        "round_tokens_per_s": tokens / times["round"],
        "rounds_per_s": 1.0 / times["round"],
        "peak_temporaries_bytes": _peak_temporaries(round_fn),
    }


def bench_hot_loop(preset: str, dispatch: Optional[str], dtype: Optional[str],
                   tokens: int, iters: int, reps: int) -> Dict[str, float]:
    """MoE layer forward / forward+backward / round throughput (tokens/s)."""
    phases = build_hot_loop(preset, dispatch, dtype, tokens)
    times = {name: _best_time(fn, iters, reps) for name, fn in phases.items()}
    return _hot_loop_result(times, tokens, phases["round"])


def bench_end_to_end(preset: str, dispatch: Optional[str], dtype: Optional[str],
                     tokens: int, iters: int, reps: int) -> Dict[str, float]:
    """Full-model loss + backward + optimizer step throughput (tokens/s)."""
    phases = build_end_to_end(preset, dispatch, dtype, tokens)
    seq_len = 32  # matches build_end_to_end batching
    actual_tokens = max(tokens // seq_len, 1) * seq_len
    per_round = _best_time(phases["round"], iters, reps)
    return {"round_tokens_per_s": actual_tokens / per_round,
            "rounds_per_s": 1.0 / per_round}


def _speedup(configs: Dict[str, Dict[str, float]], key: str) -> Optional[float]:
    fast = configs.get(FAST_CONFIG, {}).get(key)
    base = configs.get(BASELINE_CONFIG, {}).get(key)
    if not fast or not base:
        return None
    return fast / base


def run_suite(quick: bool) -> Dict:
    # 1024 tokens = batch 32 × seq 32 (the tiny_moe preset's max_seq_len)
    tokens = 1024
    iters = 3 if quick else 10
    reps = 4 if quick else 6
    suite: Dict = {}
    for preset in PRESET_NAMES:
        e2e_tokens = min(tokens, 1024)
        hot_builds = {f"{dispatch}/{dtype}": build_hot_loop(preset, dispatch, dtype, tokens)
                      for dispatch, dtype in CONFIGS + HOT_EXTRA_CONFIGS}
        hot_times = _interleaved_best_times(hot_builds, iters, reps)
        hot_configs = {name: _hot_loop_result(times, tokens, hot_builds[name]["round"])
                       for name, times in hot_times.items()}
        e2e_builds = {f"{dispatch}/{dtype}": build_end_to_end(preset, dispatch, dtype, e2e_tokens)
                      for dispatch, dtype in CONFIGS}
        e2e_times = _interleaved_best_times(e2e_builds, max(iters // 2, 1), reps)
        actual_e2e_tokens = max(e2e_tokens // 32, 1) * 32
        e2e_configs = {name: {"round_tokens_per_s": actual_e2e_tokens / times["round"],
                              "rounds_per_s": 1.0 / times["round"]}
                       for name, times in e2e_times.items()}
        suite[preset] = {
            "hot_loop": {
                "tokens": tokens,
                "configs": hot_configs,
                "speedup_batched_f32_vs_loop_f64":
                    _speedup(hot_configs, "forward_backward_tokens_per_s"),
                "round_speedup_batched_f32_vs_loop_f64":
                    _speedup(hot_configs, "round_tokens_per_s"),
                # informational: sparse runs a sparsified model, so this is a
                # work-reduction ratio, not a like-for-like config speedup
                # (the apples-to-apples gate lives in --suite sparse)
                "round_speedup_sparse_f32_vs_batched_f32": (
                    hot_configs["sparse/float32"]["round_tokens_per_s"]
                    / hot_configs["batched/float32"]["round_tokens_per_s"]),
            },
            "end_to_end": {
                "tokens": min(tokens, 1024),
                "configs": e2e_configs,
                "round_speedup_batched_f32_vs_loop_f64":
                    _speedup(e2e_configs, "round_tokens_per_s"),
            },
        }
    return suite


# ------------------------------------------------------- aggregation suite
#: benchmarked root shard counts (1 = the flat serial baseline shape)
AGG_SHARD_COUNTS = (1, 4, 8)
#: benchmarked aggregation-tree shapes, depth 1/2/3
AGG_TREE_TIERS = ((8,), (8, 4), (8, 4, 2))
AGG_PRESET = "tiny_moe"


def _make_aggregation_updates(participants: int):
    """A fleet's worth of expert updates against a fresh preset model."""
    from repro.federated import ExpertUpdate
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    model = MoETransformer(get_preset(AGG_PRESET.replace("_", "-")))
    rng = np.random.default_rng(0)
    updates = []
    for pid in range(participants):
        for layer, expert in model.iter_expert_ids():
            state = {name: value + 0.01 * rng.normal(size=value.shape)
                     for name, value in model.expert_state(layer, expert).items()}
            updates.append(ExpertUpdate(pid, layer, expert, state,
                                        weight=float(pid % 3 + 1)))
    return model, updates


def _bench_shard_fold(updates, num_shards: int, iters: int, reps: int) -> Dict:
    """Serial vs parallel fold of one round's updates at ``num_shards`` shards.

    Two measurements, interleaved per repetition so host-load drift cancels
    out of the ratios:

    * ``serial_wire_fold_s`` — the serial baseline: the production fused
      decode-and-fold path (``aggregate_payloads`` through the server's
      persistent scratch pool), on one thread.  This is exactly what the root
      of a ``transport="wire"`` deployment does today, and exactly the total
      work the parallel path partitions — the headline speedup compares like
      with like.  ``serial_inmemory_fold_s`` (the analytic-transport fold, no
      decode) is recorded alongside for transparency.
    * per-shard worker jobs + the parent merge, each timed in isolation; their
      combination ``critical_path_s = max(job) + merge`` is the fold wall-clock
      on a host with >= ``num_shards`` cores (workers only wait for the
      slowest shard).  Measuring jobs serially keeps the number honest on
      constrained hosts, where concurrently scheduled workers would timeshare
      one core and inflate each other's wall time.
    """
    from repro.comm import decode_state_dict
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.runtime.executor import _fold_shard_frames, frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    serial_server = ShardedParameterServer(MoETransformer(config),
                                           num_shards=num_shards)
    all_framed = [frame_update(update) for update in updates]
    shard_framed = [[] for _ in range(num_shards)]
    for update, framed in zip(updates, all_framed):
        shard_framed[serial_server.shard_of(update.key)].append(framed)
    worker_results = [_fold_shard_frames("fedavg", framed)
                      for framed in shard_framed if framed]
    merge_model = MoETransformer(config)

    def serial_wire():
        serial_server.aggregate_payloads(frame for frame, _ in all_framed)

    def merge():
        for shard_result in worker_results:
            for (layer, expert), state_frame, _ in shard_result:
                merge_model.load_expert_state(layer, expert,
                                              decode_state_dict(state_frame))

    fns = {"serial_inmemory": {"fold": lambda: serial_server.aggregate(list(updates))},
           "serial_wire": {"fold": serial_wire},
           "merge": {"fold": merge}}
    for shard, framed in enumerate(shard_framed):
        if framed:
            fns[f"job{shard}"] = {
                "fold": lambda framed=framed: _fold_shard_frames("fedavg", framed)}

    times = _interleaved_best_times(fns, iters, reps)
    serial_s = times["serial_wire"]["fold"]
    job_s = [times[name]["fold"] for name in times if name.startswith("job")]
    critical_s = max(job_s) + times["merge"]["fold"]
    return {
        "serial_wire_fold_s": serial_s,
        "serial_updates_per_s": len(updates) / serial_s,
        "serial_inmemory_fold_s": times["serial_inmemory"]["fold"],
        "serial_inmemory_updates_per_s":
            len(updates) / times["serial_inmemory"]["fold"],
        "shard_job_s": job_s,
        "merge_s": times["merge"]["fold"],
        "critical_path_s": critical_s,
        "critical_path_updates_per_s": len(updates) / critical_s,
        "speedup_critical_path_vs_serial": serial_s / critical_s,
        "speedup_critical_path_vs_serial_inmemory":
            times["serial_inmemory"]["fold"] / critical_s,
    }


def _bench_tree_fold(updates, tiers, iters: int, reps: int) -> Dict:
    """Serial vs parallel N-tier tree aggregation of one round's updates.

    The serial baseline decodes the participant wire frames and runs the
    serial tree fold — the work of a wire deployment's aggregation plane on
    one thread, and the exact total the parallel path partitions.
    ``critical_path_s`` combines the slowest tier-0 node pre-fold job
    (decode + fold, isolated-timed as for shards) with the measured
    non-parallel remainder (channel hops, inner-tier folds, root aggregate)
    = ``serial_s - decode_s - leaf_fold_s``.
    """
    from repro.comm import decode_update, get_codec
    from repro.federated import AggregationTree, ParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.runtime.executor import _prefold_node_frames, frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    tree = AggregationTree(tiers)
    server = ParameterServer(MoETransformer(config))
    codec = get_codec("fp64")
    all_framed = [frame_update(update, codec) for update in updates]
    node_framed: Dict[int, list] = {}
    for update, framed in zip(updates, all_framed):
        node_framed.setdefault(tree.edge_of(update.participant_id), []).append(framed)

    def serial_wire():
        tree.aggregate(server, iter([decode_update(frame) for frame, _ in all_framed]))

    def leaf_fold():
        tree.reset_round_metrics()
        tree._fold_leaf_tier(iter(updates), "fedavg", None, codec)

    fns = {
        "serial_wire": {"fold": serial_wire},
        "decode": {"fold": lambda: [decode_update(frame) for frame, _ in all_framed]},
        "leaf": {"fold": leaf_fold},
    }
    for node, framed in sorted(node_framed.items()):
        fns[f"job{node}"] = {
            "fold": lambda node=node, framed=framed: _prefold_node_frames(
                "fedavg", tree.pseudo_id(0, node), framed)}

    times = _interleaved_best_times(fns, iters, reps)
    serial_s = times["serial_wire"]["fold"]
    job_s = [times[name]["fold"] for name in times if name.startswith("job")]
    remainder_s = max(serial_s - times["decode"]["fold"] - times["leaf"]["fold"], 0.0)
    critical_s = max(job_s) + remainder_s
    return {
        "depth": len(tiers),
        "serial_wire_s": serial_s,
        "serial_updates_per_s": len(updates) / serial_s,
        "decode_s": times["decode"]["fold"],
        "leaf_fold_s": times["leaf"]["fold"],
        "node_job_s": job_s,
        "remainder_s": remainder_s,
        "critical_path_s": critical_s,
        "critical_path_updates_per_s": len(updates) / critical_s,
        "speedup_critical_path_vs_serial": serial_s / critical_s,
    }


def _bench_decode(updates, iters: int, reps: int) -> Dict:
    """Fresh-allocation vs scratch-pool decode throughput over one round's
    wire frames (the ``decode_into`` fast path the fused fold rides)."""
    from repro.comm import ScratchPool, decode_update
    from repro.runtime.executor import frame_update

    all_framed = [frame_update(update)[0] for update in updates]
    scratch = ScratchPool()

    def fresh():
        for frame in all_framed:
            decode_update(frame)

    def scratched():
        for frame in all_framed:
            decode_update(frame, scratch=scratch)
            scratch.recycle()

    times = _interleaved_best_times({"fresh": {"decode": fresh},
                                     "scratch": {"decode": scratched}},
                                    iters, reps)
    fresh_s = times["fresh"]["decode"]
    scratch_s = times["scratch"]["decode"]
    return {
        "decode_fresh_s": fresh_s,
        "decode_fresh_updates_per_s": len(all_framed) / fresh_s,
        "decode_scratch_s": scratch_s,
        "decode_scratch_updates_per_s": len(all_framed) / scratch_s,
        "speedup_scratch_vs_fresh": fresh_s / scratch_s,
    }


def _bench_alloc_probe(updates) -> Dict:
    """Tracemalloc probe of one *warm* fold round: peak temporary bytes of
    the fused scratch path vs the buffered decode-then-fold path, plus the
    scratch pool's steady-state allocation count (must stay 0 — any new
    ``np.empty`` inside a warm round is a fast-path regression).
    """
    from repro.comm import decode_update
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.runtime.executor import frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    server = ShardedParameterServer(MoETransformer(config), num_shards=1)
    all_framed = [frame_update(update)[0] for update in updates]

    def fused():
        server.aggregate_payloads(iter(all_framed))

    def buffered():
        server.aggregate([decode_update(frame) for frame in all_framed])

    fused()  # warm: scratch pool filled, allocator and model buffers primed
    buffered()
    allocations_before = server.fold_scratch.allocations
    tracemalloc.start()
    fused()
    _, fused_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    steady_allocations = server.fold_scratch.allocations - allocations_before
    tracemalloc.start()
    buffered()
    _, buffered_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "fused_round_peak_bytes": int(fused_peak),
        "buffered_round_peak_bytes": int(buffered_peak),
        "peak_reduction_buffered_vs_fused": buffered_peak / max(fused_peak, 1),
        "steady_state_scratch_allocations": int(steady_allocations),
    }


def run_aggregation_suite(quick: bool) -> Dict:
    """The aggregation-throughput benchmark family (``--suite aggregation``)."""
    # Quick mode trims repetitions but keeps the full workload shape: the
    # gated speedups depend on the serial/parallel split of the work, so
    # shrinking the fleet would move the ratios, not just the noise.
    participants = 64
    iters = 2 if quick else 4
    reps = 3 if quick else 6
    model, updates = _make_aggregation_updates(participants)
    shards = {str(n): _bench_shard_fold(updates, n, iters, reps)
              for n in AGG_SHARD_COUNTS}
    tree = {"x".join(map(str, tiers)): _bench_tree_fold(updates, tiers, iters, reps)
            for tiers in AGG_TREE_TIERS}
    decode = _bench_decode(updates, iters, reps)
    alloc_probe = _bench_alloc_probe(updates)
    return {
        "preset": AGG_PRESET,
        "participants": participants,
        "num_keys": len(list(model.iter_expert_ids())),
        "num_updates": len(updates),
        "host_cpus": os.cpu_count(),
        "note": ("serial baseline = one thread decoding + folding the round's "
                 "wire frames (what a transport='wire' root does); "
                 "critical_path_s = max(isolated per-shard/node decode+fold "
                 "job) + measured merge/remainder: the fold wall-clock on a "
                 "host with >= num_shards cores partitioning that same work. "
                 "serial_inmemory_* is the analytic-transport fold that "
                 "never decodes, for transparency. "
                 "decode compares fresh-allocation vs scratch-pool "
                 "decode_update throughput; alloc_probe tracemallocs one "
                 "warm fused round (steady_state_scratch_allocations must "
                 "stay 0)."),
        "shards": shards,
        "tree": tree,
        "decode": decode,
        "alloc_probe": alloc_probe,
        "headline_speedup_8shards":
            shards["8"]["speedup_critical_path_vs_serial"],
    }


def check_aggregation_regression(current: Dict, baseline_path: str,
                                 tolerance: float) -> int:
    """Gate the machine-independent critical-path speedups vs the baseline."""
    with open(baseline_path) as handle:
        committed = json.load(handle)
    failures = []

    def gate(section: str, name: str, entry: Dict, ref_entry: Dict) -> None:
        ref = ref_entry.get("speedup_critical_path_vs_serial")
        if not ref:
            return
        cur = entry.get("speedup_critical_path_vs_serial")
        if not cur:
            # A committed baseline entry the current run never produced is a
            # broken gate, not a pass — otherwise a partial suite (or renamed
            # shard/tier configs) would silently stop gating anything.
            print(f"[MISSING] aggregation/{section}/{name}: committed "
                  f"{ref:.2f}x has no current measurement")
            failures.append((section, name, None, ref))
            return
        floor = (1.0 - tolerance) * ref
        status = "OK" if cur >= floor else "REGRESSION"
        print(f"[{status}] aggregation/{section}/{name}: current {cur:.2f}x vs "
              f"committed {ref:.2f}x (floor {floor:.2f}x)")
        if cur < floor:
            failures.append((section, name, cur, ref))

    def gate_ratio(section: str, metric: str, cur, ref) -> None:
        """Gate a higher-is-better ratio at ``(1 - tolerance) * ref``."""
        if not ref:
            return
        if not cur:
            print(f"[MISSING] aggregation/{section}/{metric}: committed "
                  f"{ref:.2f}x has no current measurement")
            failures.append((section, metric, None, ref))
            return
        floor = (1.0 - tolerance) * ref
        status = "OK" if cur >= floor else "REGRESSION"
        print(f"[{status}] aggregation/{section}/{metric}: current {cur:.2f}x "
              f"vs committed {ref:.2f}x (floor {floor:.2f}x)")
        if cur < floor:
            failures.append((section, metric, cur, ref))

    committed_agg = committed.get("aggregation", {})
    current_agg = current.get("aggregation", {})
    if not any(committed_agg.get(section) for section in ("shards", "tree")):
        print(f"[MISSING] {baseline_path} carries no aggregation suite "
              "baseline; a gated suite without a committed reference cannot "
              "pass")
        return 1
    for section in ("shards", "tree"):
        for name, ref_entry in committed_agg.get(section, {}).items():
            gate(section, name, current_agg.get(section, {}).get(name, {}), ref_entry)
    gate_ratio("decode", "speedup_scratch_vs_fresh",
               current_agg.get("decode", {}).get("speedup_scratch_vs_fresh"),
               committed_agg.get("decode", {}).get("speedup_scratch_vs_fresh"))
    gate_ratio("alloc_probe", "peak_reduction_buffered_vs_fused",
               current_agg.get("alloc_probe", {}).get(
                   "peak_reduction_buffered_vs_fused"),
               committed_agg.get("alloc_probe", {}).get(
                   "peak_reduction_buffered_vs_fused"))
    ref_allocs = committed_agg.get("alloc_probe", {}).get(
        "steady_state_scratch_allocations")
    if ref_allocs is not None:
        cur_allocs = current_agg.get("alloc_probe", {}).get(
            "steady_state_scratch_allocations")
        if cur_allocs is None:
            print("[MISSING] aggregation/alloc_probe/"
                  "steady_state_scratch_allocations: committed "
                  f"{ref_allocs} has no current measurement")
            failures.append(("alloc_probe", "steady_state_scratch_allocations",
                             None, ref_allocs))
        else:
            # Allocation counts gate exactly (no tolerance): a warm fused
            # round must not allocate more than the committed steady state.
            status = "OK" if cur_allocs <= ref_allocs else "REGRESSION"
            print(f"[{status}] aggregation/alloc_probe/"
                  f"steady_state_scratch_allocations: current {cur_allocs} "
                  f"vs committed {ref_allocs} (must not exceed)")
            if cur_allocs > ref_allocs:
                failures.append(("alloc_probe",
                                 "steady_state_scratch_allocations",
                                 cur_allocs, ref_allocs))
    if failures:
        print(f"FAILED: {len(failures)} aggregation speedup(s) regressed more "
              f"than {tolerance:.0%} (or went unmeasured) vs {baseline_path}")
        return 1
    print(f"All aggregation speedups within {tolerance:.0%} of {baseline_path}")
    return 0


# ------------------------------------------------------------- sparse suite
#: (name, d_model, d_ff, num_experts, top_k) layer shapes for --suite sparse;
#: the first is the llama-moe-mini layer shape, the second a mid-size layer
#: where zero skipping pays off even more
SPARSE_WORKLOADS = (("llama_moe_mini", 32, 64, 8, 2),
                    ("mid_64x256", 64, 256, 8, 2))


def _make_sparsified_layer(d_model: int, d_ff: int, num_experts: int,
                           top_k: int, dispatch: str):
    """A float32 MoE layer sparsified in place; same seed => same weights."""
    from repro.autograd import default_dtype
    from repro.models.moe_layer import MoELayer

    rng = np.random.default_rng(0)
    with default_dtype("float32"):
        layer = MoELayer(d_model=d_model, d_ff=d_ff, num_experts=num_experts,
                         top_k=top_k, rng=rng, dispatch=dispatch)
    layer.sparsify_experts(SPARSE_DENSITY, bits=SPARSE_BITS)
    return layer


def _bench_sparse_kernels(workload, tokens: int, iters: int, reps: int) -> Dict:
    """batched vs sparse dispatch over identical sparsified expert weights."""
    name, d_model, d_ff, num_experts, top_k = workload
    builds = {
        dispatch: _layer_phases(
            _make_sparsified_layer(d_model, d_ff, num_experts, top_k, dispatch),
            tokens, "float32")
        for dispatch in ("batched", "sparse")
    }
    times = _interleaved_best_times(builds, iters, reps)
    configs = {dispatch: _hot_loop_result(phase_times, tokens,
                                          builds[dispatch]["round"])
               for dispatch, phase_times in times.items()}
    return {
        "d_model": d_model, "d_ff": d_ff, "num_experts": num_experts,
        "top_k": top_k, "tokens": tokens,
        "configs": configs,
        "speedup_sparse_vs_batched_forward_backward": (
            configs["sparse"]["forward_backward_tokens_per_s"]
            / configs["batched"]["forward_backward_tokens_per_s"]),
        "speedup_sparse_vs_batched_round": (
            configs["sparse"]["round_tokens_per_s"]
            / configs["batched"]["round_tokens_per_s"]),
    }


def _bench_sparse_wire(iters: int, reps: int) -> Dict:
    """Composed ``topk:<density>:int<bits>`` codec: bytes + throughput.

    Encodes one expert's delta under the composed sparse codec and under
    ``fp64``, and cross-checks the measured frame size against the codec's
    ``wire_bytes_per_param`` analytics (the wire-cost model the federated
    layer's :class:`ExchangePlan` reports).
    """
    from repro.comm import encode_state_dict, decode_state_dict, get_codec
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    codec_name = f"topk:{SPARSE_DENSITY:g}:int4"
    codec = get_codec(codec_name)
    dense = get_codec("fp64")
    model = MoETransformer(get_preset("llama-moe-mini"))
    reference = model.expert_state(0, 0)
    rng = np.random.default_rng(0)
    state = {key: value + 0.01 * rng.normal(size=value.shape)
             for key, value in reference.items()}
    params = sum(value.size for value in state.values())

    sparse_frame = encode_state_dict(state, codec, reference=reference)
    dense_frame = encode_state_dict(state, dense)
    analytic = sum(value.size * codec.wire_bytes_per_param(group_size=value.size)
                   for value in state.values())

    fns = {
        "encode": {"wire": lambda: encode_state_dict(state, codec,
                                                     reference=reference)},
        "decode": {"wire": lambda: decode_state_dict(sparse_frame,
                                                     reference=reference)},
        "encode_fp64": {"wire": lambda: encode_state_dict(state, dense)},
    }
    times = _interleaved_best_times(fns, iters, reps)
    return {
        "codec": codec_name,
        "params_per_expert": params,
        "measured_frame_bytes": len(sparse_frame),
        "analytic_payload_bytes": analytic,
        "measured_vs_analytic_rel_err":
            abs(len(sparse_frame) - analytic) / analytic,
        "fp64_frame_bytes": len(dense_frame),
        "bytes_ratio_vs_fp64": len(sparse_frame) / len(dense_frame),
        "encode_params_per_s": params / times["encode"]["wire"],
        "decode_params_per_s": params / times["decode"]["wire"],
        "fp64_encode_params_per_s": params / times["encode_fp64"]["wire"],
    }


def _bench_sparse_checkpoint(iters: int, reps: int) -> Dict:
    """Full vs sparse-delta model snapshot cost (time and bytes on disk).

    The delta snapshot simulates one federated round: only a top-k slice of
    the experts' parameters moved since the previous snapshot, which is
    exactly the regime ``checkpoint_delta_every`` targets.
    """
    import shutil
    import tempfile

    from repro.models import MoETransformer
    from repro.models.checkpoint import save_state_checkpoint, save_state_delta
    from repro.models.presets import get_preset

    model = MoETransformer(get_preset("llama-moe-mini"))
    previous = {key: np.array(value, copy=True)
                for key, value in model.state_dict().items()}
    rng = np.random.default_rng(0)
    current = {}
    for key, value in previous.items():
        updated = np.array(value, copy=True)
        flat = updated.reshape(-1)
        touched = rng.choice(flat.size, size=max(1, flat.size // 20),
                             replace=False)
        flat[touched] += 0.01
        current[key] = updated

    tmp = tempfile.mkdtemp(prefix="bench-sparse-ckpt-")
    try:
        full_path = os.path.join(tmp, "full.npz")
        delta_path = os.path.join(tmp, "model.delta")
        fns = {
            "full": {"save": lambda: save_state_checkpoint(
                current, model.config, full_path)},
            "delta": {"save": lambda: save_state_delta(
                current, previous, delta_path)},
        }
        times = _interleaved_best_times(fns, iters, reps)
        full_bytes = os.path.getsize(full_path)
        delta_bytes = os.path.getsize(delta_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "params": sum(value.size for value in previous.values()),
        "touched_fraction": 0.05,
        "full_save_s": times["full"]["save"],
        "delta_save_s": times["delta"]["save"],
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "delta_bytes_ratio": delta_bytes / full_bytes,
        "delta_save_speedup": times["full"]["save"] / times["delta"]["save"],
    }


def run_sparse_suite(quick: bool) -> Dict:
    """The sparse/ternary fast-path benchmark family (``--suite sparse``)."""
    tokens = 1024
    iters = 3 if quick else 10
    reps = 4 if quick else 6
    workloads = {w[0]: _bench_sparse_kernels(w, tokens, iters, reps)
                 for w in SPARSE_WORKLOADS}
    return {
        "density": SPARSE_DENSITY,
        "bits": SPARSE_BITS,
        "workloads": workloads,
        "wire": _bench_sparse_wire(max(iters, 5), reps),
        "checkpoint": _bench_sparse_checkpoint(max(iters // 2, 2), reps),
        "note": ("workloads: batched vs sparse dispatch over *identical* "
                 "sparsified+quantized expert weights (bit-identical outputs, "
                 "test-enforced) — the speedup is pure zero skipping.  wire: "
                 "composed topk+int codec frame size vs its own analytics and "
                 "vs fp64.  checkpoint: full vs sparse-delta snapshot of the "
                 "same model state (5% of parameters touched)."),
        "headline_speedup": min(
            entry["speedup_sparse_vs_batched_forward_backward"]
            for entry in workloads.values()),
    }


def check_sparse_regression(current: Dict, baseline_path: str,
                            tolerance: float) -> int:
    """Gate the sparse-dispatch speedups against the committed baseline."""
    with open(baseline_path) as handle:
        committed = json.load(handle)
    committed_sparse = committed.get("sparse", {})
    if not committed_sparse.get("workloads"):
        print(f"[MISSING] {baseline_path} carries no sparse suite baseline; "
              "a gated suite without a committed reference cannot pass")
        return 1
    current_sparse = current.get("sparse", {})
    failures = []
    for name, ref_entry in committed_sparse["workloads"].items():
        for key in ("speedup_sparse_vs_batched_forward_backward",
                    "speedup_sparse_vs_batched_round"):
            ref = ref_entry.get(key)
            if not ref:
                continue
            cur = current_sparse.get("workloads", {}).get(name, {}).get(key)
            if not cur:
                print(f"[MISSING] sparse/{name}/{key}: committed {ref:.2f}x "
                      "has no current measurement")
                failures.append((name, key, None, ref))
                continue
            floor = (1.0 - tolerance) * ref
            status = "OK" if cur >= floor else "REGRESSION"
            print(f"[{status}] sparse/{name}/{key}: current {cur:.2f}x vs "
                  f"committed {ref:.2f}x (floor {floor:.2f}x)")
            if cur < floor:
                failures.append((name, key, cur, ref))
    if failures:
        print(f"FAILED: {len(failures)} sparse speedup(s) regressed more than "
              f"{tolerance:.0%} (or went unmeasured) vs {baseline_path}")
        return 1
    print(f"All sparse speedups within {tolerance:.0%} of {baseline_path}")
    return 0


# ------------------------------------------------------------ service suite
#: shard counts compared inline-vs-service (each shard is one fold job; all
#: jobs run in order, inline on the calling thread or on the one server)
SERVICE_SHARD_COUNTS = (2, 4)
SERVICE_TRANSPORTS = ("socketpair", "tcp")

#: the depth-3 tree whose full fold critical path (leaf fan-in + both inner
#: tiers routed through the fold plane) is compared service-vs-inline
SERVICE_TREE_TIERS = (8, 4, 2)

#: the compressed service-wire codec of the bytes-on-wire measurement — the
#: paper's headline sparse+quantized setting
SERVICE_WIRE_CODEC = "topk:0.25:int4"


def _inline_fold_shards(jobs):
    """``fold_shards`` without a transport: the jobs in order on this thread."""
    from repro.runtime.executor import _fold_shard_frames

    return [(shard, _fold_shard_frames("fedavg", framed, references))
            for shard, framed, references in jobs]


def _inline_prefold_nodes(jobs):
    """``prefold_nodes`` without a transport: the jobs in order on this thread."""
    from repro.runtime.executor import _prefold_node_frames

    return [(node, _prefold_node_frames("fedavg", pseudo_id, framed, references))
            for node, pseudo_id, framed, references in jobs]


def _bench_service_fold(updates, num_shards: int, iters: int, reps: int,
                        service_pools: Dict) -> Dict:
    """Inline vs service fold of one round's updates at ``num_shards`` shards.

    Both sides fold the *same* pre-framed shard jobs with the same fold
    function — inline in order on the calling thread, or through a
    one-server pool's ``fold_shards`` — so neither side runs in parallel
    and the measured ratio isolates the transport (length-prefixed socket
    frames + RPC envelope) from the fold math, which is byte-identical by
    construction, on any core count.  Interleaved per repetition so
    host-load drift cancels out of the gated ratio.
    """
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.runtime.executor import frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    router = ShardedParameterServer(MoETransformer(config), num_shards=num_shards)
    shard_framed: Dict[int, list] = {}
    for update in updates:
        shard_framed.setdefault(router.shard_of(update.key), []).append(
            frame_update(update))
    jobs = [(shard, framed, {}) for shard, framed in sorted(shard_framed.items())]

    fns = {"inline": {"fold": lambda: _inline_fold_shards(jobs)}}
    for transport, pool in service_pools.items():
        fns[f"service_{transport}"] = {
            "fold": lambda pool=pool: pool.fold_shards("fedavg", jobs)}
    times = _interleaved_best_times(fns, iters, reps)
    inline_s = times["inline"]["fold"]
    result = {
        "num_jobs": len(jobs),
        "inline_wall_s": inline_s,
        "inline_updates_per_s": len(updates) / inline_s,
        "transports": {},
    }
    for transport in service_pools:
        service_s = times[f"service_{transport}"]["fold"]
        result["transports"][transport] = {
            "wall_s": service_s,
            "updates_per_s": len(updates) / service_s,
            # the gated cost metric: how much slower (>1) the service fold is
            # than the same fold inline on the same host
            "wall_ratio_service_vs_inline": service_s / inline_s,
        }
    return result


def _bench_service_tree(updates, tiers, iters: int, reps: int,
                        service_pools: Dict) -> Dict:
    """Inline vs service critical path of a full depth-``len(tiers)`` tree fold.

    Drives the exact per-tier pipeline the aggregation tree runs over a pool:
    leaf pre-folds fan in the participants' frames, then every *inner* tier
    folds its children's partial frames as fresh fold jobs (the inner-tier
    service routing), down to the roots.  Both sides execute identical jobs
    in the same order, so the gated ratio isolates transport overhead — here
    including one RPC round per inner node, the cost the pipelined ADD
    window bounds.
    """
    from repro.federated.topology import AggregationTree
    from repro.runtime.executor import frame_update

    tree = AggregationTree(tiers)
    framed = [frame_update(u) for u in updates]
    leaf: Dict[int, list] = {}
    for index, pair in enumerate(framed):
        leaf.setdefault(index % tiers[0], []).append(pair)

    def fold_tree(prefold_nodes):
        current = leaf
        for tier in range(len(tiers)):
            jobs = [(node, tree.pseudo_id(tier, node), node_frames, {})
                    for node, node_frames in sorted(current.items())]
            folded = prefold_nodes(jobs)
            fan_in = tiers[tier + 1] if tier + 1 < len(tiers) else 1
            current = {}
            for node, partials in folded:
                current.setdefault(node % fan_in, []).extend(
                    (partial, 0) for partial in partials)
        return current

    fns = {"inline": {"fold": lambda: fold_tree(_inline_prefold_nodes)}}
    for transport, pool in service_pools.items():
        fns[f"service_{transport}"] = {"fold": lambda pool=pool: fold_tree(
            lambda jobs: pool.prefold_nodes("fedavg", jobs))}
    times = _interleaved_best_times(fns, iters, reps)
    inline_s = times["inline"]["fold"]
    result = {"tiers": list(tiers), "inline_wall_s": inline_s, "transports": {}}
    for transport in service_pools:
        service_s = times[f"service_{transport}"]["fold"]
        result["transports"][transport] = {
            "wall_s": service_s,
            "wall_ratio_service_vs_inline": service_s / inline_s,
        }
    return result


def _bench_service_wire_bytes(updates, num_shards: int) -> Dict:
    """Bytes on the service wire: fp64 re-encode vs verbatim compressed frames.

    Deterministic byte accounting, not a timing: every update is stamped with
    the topk:int4 wire frame the transport would deliver (encoded against a
    shared per-key reference, which ships once per shard job in the flush
    body), then one ``fold_shards`` round runs with those frames forwarded
    verbatim and one with every update explicitly re-framed as fp64, and the
    client transport counters are compared.  ``bytes_ratio_wire_vs_fp64`` is
    the gated cost.
    """
    from repro.comm import encode_update, get_codec
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.runtime.executor import frame_update
    from repro.service import ServiceAggregationPool

    config = get_preset(AGG_PRESET.replace("_", "-"))
    router = ShardedParameterServer(MoETransformer(config),
                                    num_shards=num_shards)
    codec = get_codec(SERVICE_WIRE_CODEC)
    references: Dict = {}
    for update in updates:
        if update.key not in references:
            references[update.key] = {
                name: np.zeros_like(np.asarray(value))
                for name, value in update.state.items()}
        update.wire_frame = encode_update(update, codec,
                                          reference=references[update.key])
        update.wire_codec = codec.name
        update.wire_reference = references[update.key]

    fp64 = get_codec("fp64")

    def measure(wire: bool) -> int:
        pool = ServiceAggregationPool(num_shards, transport="socketpair")
        try:
            shard_framed: Dict[int, list] = {}
            shard_refs: Dict[int, dict] = {}
            for update in updates:
                shard = router.shard_of(update.key)
                shard_framed.setdefault(shard, []).append(
                    frame_update(update, references=shard_refs.setdefault(shard, {}))
                    if wire else frame_update(update, codec=fp64))
            jobs = [(shard, shard_framed[shard], shard_refs.get(shard, {}))
                    for shard in sorted(shard_framed)]
            pool.fold_shards("fedavg", jobs)
            return sum(client.stats["bytes_sent"] for client in pool._clients)
        finally:
            pool.close()

    fp64_bytes = measure(False)
    wire_bytes = measure(True)
    return {
        "codec": SERVICE_WIRE_CODEC,
        "num_shards": num_shards,
        "fp64_bytes": fp64_bytes,
        "wire_bytes": wire_bytes,
        "bytes_ratio_wire_vs_fp64": wire_bytes / fp64_bytes,
    }


def run_service_suite(quick: bool) -> Dict:
    """The service-backend benchmark family (``--suite service``).

    Compares the fold critical path of one persistent socket-backed
    aggregator server (both transports) against the same fold jobs run
    inline on the calling thread, plus an RPC round-trip microbenchmark per
    transport.  The gated metric is the wall-time *ratio* of the two, which
    a regression in stream framing, the RPC envelope, or the client chunking
    would move; with one server neither side folds in parallel, so the ratio
    does not depend on the host's core count.
    """
    from repro.service import ServiceAggregationPool

    participants = 64
    iters = 2 if quick else 4
    reps = 3 if quick else 6
    model, updates = _make_aggregation_updates(participants)
    service_pools = {transport: ServiceAggregationPool(1, transport=transport)
                     for transport in SERVICE_TRANSPORTS}
    try:
        # Start the servers outside the timings.
        for pool in service_pools.values():
            pool.prefold_nodes("fedavg", [(0, -1, [], {})])
        shards = {str(n): _bench_service_fold(updates, n, iters, reps,
                                              service_pools)
                  for n in SERVICE_SHARD_COUNTS}
        tree = _bench_service_tree(updates, SERVICE_TREE_TIERS, iters, reps,
                                   service_pools)
        ping_iters = 50 if quick else 200
        rpc = {transport: {"ping_s": _best_time(pool._clients[0].ping,
                                                ping_iters, reps)}
               for transport, pool in service_pools.items()}
    finally:
        for pool in service_pools.values():
            pool.close()
    # Runs last: it stamps the shared updates with compressed wire frames.
    wire_bytes = _bench_service_wire_bytes(updates, max(SERVICE_SHARD_COUNTS))
    headline_shards = str(max(SERVICE_SHARD_COUNTS))
    return {
        "preset": AGG_PRESET,
        "participants": participants,
        "num_keys": len(list(model.iter_expert_ids())),
        "num_updates": len(updates),
        "host_cpus": os.cpu_count(),
        "shards": shards,
        "tree": tree,
        "wire_bytes": wire_bytes,
        "rpc": rpc,
        "note": ("one aggregator server per transport folds the same "
                 "pre-framed jobs that the inline side folds in order on "
                 "the calling thread, with the same fold functions "
                 "(bit-identical results, test-enforced); "
                 "wall_ratio_service_vs_inline is the gated cost ratio "
                 "(>1 = service slower), which isolates transport overhead "
                 "— stream framing, RPC envelope, pipelined ADD windows — "
                 "from the shared fold math.  Neither side folds in "
                 "parallel, so the ratio does not depend on the core count. "
                 "tree is the same ratio over a full depth-3 tree fold with "
                 "inner tiers routed through the server; wire_bytes "
                 "compares service bytes (4 servers) for fp64 re-encode vs "
                 "verbatim compressed-frame forwarding.  rpc.ping_s is one "
                 "request/response round trip."),
        "headline_ratio": shards[headline_shards]["transports"]["tcp"][
            "wall_ratio_service_vs_inline"],
        "headline_tree_ratio": tree["transports"]["tcp"][
            "wall_ratio_service_vs_inline"],
        "headline_bytes_ratio": wire_bytes["bytes_ratio_wire_vs_fp64"],
    }


def check_service_regression(current: Dict, baseline_path: str,
                             tolerance: float) -> int:
    """Gate the service-vs-inline wall ratios against the committed baseline.

    Like the telemetry gate, the ratio is a *cost*: the check fails when a
    current ratio exceeds the committed one by more than ``tolerance``
    (relative), or when a committed ratio went unmeasured.
    """
    with open(baseline_path) as handle:
        committed = json.load(handle)
    committed_service = committed.get("service", {})
    if not committed_service.get("shards"):
        print(f"[MISSING] {baseline_path} carries no service suite baseline; "
              "a gated suite without a committed reference cannot pass")
        return 1
    current_service = current.get("service", {})
    failures = []

    def gate_ratio(label: str, ref, cur) -> None:
        """One gated cost ratio: current must stay under committed + tolerance."""
        if not ref:
            return
        if not cur:
            print(f"[MISSING] {label}: committed {ref:.2f}x has no current "
                  "measurement")
            failures.append((label, None, ref))
            return
        ceiling = (1.0 + tolerance) * ref
        status = "OK" if cur <= ceiling else "REGRESSION"
        print(f"[{status}] {label}: current {cur:.2f}x vs committed "
              f"{ref:.2f}x (ceiling {ceiling:.2f}x)")
        if cur > ceiling:
            failures.append((label, cur, ref))

    for shards, ref_entry in committed_service["shards"].items():
        for transport, ref_transport in ref_entry.get("transports", {}).items():
            gate_ratio(
                f"service/{shards}shards/{transport}",
                ref_transport.get("wall_ratio_service_vs_inline"),
                current_service.get("shards", {}).get(shards, {})
                .get("transports", {}).get(transport, {})
                .get("wall_ratio_service_vs_inline"))
    for transport, ref_transport in (committed_service.get("tree", {})
                                     .get("transports", {}).items()):
        gate_ratio(
            f"service/tree/{transport}",
            ref_transport.get("wall_ratio_service_vs_inline"),
            current_service.get("tree", {}).get("transports", {})
            .get(transport, {}).get("wall_ratio_service_vs_inline"))
    gate_ratio(
        "service/wire_bytes",
        committed_service.get("wire_bytes", {}).get("bytes_ratio_wire_vs_fp64"),
        current_service.get("wire_bytes", {}).get("bytes_ratio_wire_vs_fp64"))
    if failures:
        print(f"FAILED: {len(failures)} service fold ratio(s) grew more than "
              f"{tolerance:.0%} (or went unmeasured) vs {baseline_path}")
        return 1
    print(f"All service fold ratios within {tolerance:.0%} of {baseline_path}")
    return 0


# ---------------------------------------------------------- telemetry suite
TELEMETRY_ROUNDS = 2
TELEMETRY_CLIENTS = 8


def _build_telemetry_tuner(telemetry_dir: Optional[str]):
    """A small sharded 2-tier wire-transport run; telemetry on when a dir is given.

    The wire transport plus edge tier makes the telemetry-on run exercise every
    span family (train, transfer, fold, checkpoint-free round bookkeeping), so
    the measured ratio covers the instrumentation's worst case rather than the
    analytic fast path.
    """
    from repro import (
        FMDFineTuner, MoETransformer, ParameterServer, Participant,
        ParticipantResources, RunConfig, Vocabulary, make_gsm8k_like,
        partition_dirichlet, tiny_moe,
    )
    from repro.models.presets import ARCHITECTURE_DESCRIPTORS
    from repro.systems import CostModel, MemoryModel, heterogeneous_fleet

    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=120, seed=0)
    train, test = dataset.split(seed=0)
    shards = partition_dirichlet(train, TELEMETRY_CLIENTS, alpha=0.5, seed=0)
    devices = heterogeneous_fleet(TELEMETRY_CLIENTS, seed=0, spread=0.5)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for pid, (shard, device) in enumerate(zip(shards, devices)):
        participants.append(Participant(
            pid, train.subset(shard), device=device,
            resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
            seed=pid))
        cost_models[pid] = CostModel(device, memory)
    server = ParameterServer(MoETransformer(config))
    run_config = RunConfig(
        batch_size=4, max_local_batches=1, learning_rate=1e-2,
        eval_max_samples=12, seed=0, participants_per_round=6,
        num_shards=2, edge_tiers=(2,), transport="wire",
        telemetry=telemetry_dir is not None, telemetry_dir=telemetry_dir)
    return FMDFineTuner(server, participants, test, cost_models=cost_models,
                        config=run_config)


def _timed_telemetry_run(telemetry_dir: Optional[str]) -> float:
    """Wall time of one fresh run (tuner construction excluded)."""
    tuner = _build_telemetry_tuner(telemetry_dir)
    start = time.perf_counter()
    tuner.run(num_rounds=TELEMETRY_ROUNDS)
    return time.perf_counter() - start


def run_telemetry_suite(quick: bool) -> Dict:
    """The observability-overhead benchmark family (``--suite telemetry``).

    Two measurements, interleaved per repetition so host drift cancels out of
    the gated ratio:

    * the same small federated run with telemetry off vs on (JSONL + exporters
      written to a temp dir) — ``overhead_ratio_on_vs_off`` is the headline;
    * span microbenchmarks — the per-call cost of a ``NullTracer`` span (what
      every instrumentation site pays when telemetry is off) and of a live
      ``Tracer`` span with a sink.
    """
    import shutil
    import tempfile

    from repro.obs import JSONL_FILE, NULL_TRACER, Tracer

    reps = 2 if quick else 4
    best = {"off": float("inf"), "on": float("inf")}
    events_per_run = 0
    for _ in range(reps):
        best["off"] = min(best["off"], _timed_telemetry_run(None))
        tmp = tempfile.mkdtemp(prefix="bench-telemetry-")
        try:
            best["on"] = min(best["on"], _timed_telemetry_run(tmp))
            with open(os.path.join(tmp, JSONL_FILE)) as handle:
                events_per_run = sum(1 for _ in handle)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    tracer = Tracer(sink=lambda span: None)

    def null_span():
        with NULL_TRACER.span("bench", category="fold"):
            pass

    def live_span():
        with tracer.span("bench", category="fold") as span:
            span.set(sim_duration=0.0, payload=1)

    micro_iters = 500 if quick else 2000
    null_span_s = _best_time(null_span, micro_iters, reps)
    live_span_s = _best_time(live_span, micro_iters, reps)
    return {
        "rounds": TELEMETRY_ROUNDS,
        "clients": TELEMETRY_CLIENTS,
        "off_run_s": best["off"],
        "on_run_s": best["on"],
        "overhead_ratio_on_vs_off": best["on"] / best["off"],
        "events_per_run": events_per_run,
        "null_span_ns": null_span_s * 1e9,
        "live_span_ns": live_span_s * 1e9,
        "note": ("off/on runs are the same sharded 2-tier wire-transport "
                 "federation; overhead_ratio_on_vs_off = telemetry-on wall "
                 "time / telemetry-off wall time (best-of interleaved reps). "
                 "null_span_ns is the per-site cost every instrumented code "
                 "path pays when telemetry is off."),
    }


def check_telemetry_regression(current: Dict, baseline_path: str,
                               tolerance: float) -> int:
    """Gate the telemetry-on overhead ratio against the committed baseline.

    Unlike the throughput gates (where bigger is better) the overhead ratio is
    a cost: the check fails when the current ratio exceeds the committed one
    by more than ``tolerance`` (relative).
    """
    with open(baseline_path) as handle:
        committed = json.load(handle)
    ref = committed.get("telemetry", {}).get("overhead_ratio_on_vs_off")
    if not ref:
        print(f"[MISSING] {baseline_path} carries no telemetry overhead "
              "baseline; a gated suite without a committed reference cannot "
              "pass")
        return 1
    cur = current.get("telemetry", {}).get("overhead_ratio_on_vs_off")
    if not cur:
        print(f"[MISSING] telemetry/overhead_ratio_on_vs_off: committed "
              f"{ref:.3f}x has no current measurement")
        return 1
    ceiling = (1.0 + tolerance) * ref
    status = "OK" if cur <= ceiling else "REGRESSION"
    print(f"[{status}] telemetry/overhead_ratio_on_vs_off: current {cur:.3f}x "
          f"vs committed {ref:.3f}x (ceiling {ceiling:.3f}x)")
    if cur > ceiling:
        print(f"FAILED: telemetry-on overhead grew more than {tolerance:.0%} "
              f"vs {baseline_path}")
        return 1
    print(f"Telemetry overhead within {tolerance:.0%} of {baseline_path}")
    return 0


# --------------------------------------------------------------- seed worker
def _worker(spec_json: str) -> None:
    """Run one benchmark family in-process and print JSON (seed subprocess)."""
    spec = json.loads(spec_json)
    if spec["family"] == "hot_loop":
        result = bench_hot_loop(spec["preset"], spec.get("dispatch"), spec.get("dtype"),
                                spec["tokens"], spec["iters"], spec["reps"])
    else:
        result = bench_end_to_end(spec["preset"], spec.get("dispatch"), spec.get("dtype"),
                                  spec["tokens"], spec["iters"], spec["reps"])
    print(json.dumps(result))


def bench_seed_reference(seed_src: str, quick: bool) -> Dict:
    """Benchmark a pristine seed checkout with the same driver via subprocess.

    Each seed worker run is paired with an adjacent in-process measurement of
    the batched/float32 fast path, and the recorded speedup is the median of
    the paired ratios — host-speed drift between distant measurements then
    cancels out of the headline number.
    """
    tokens = 1024
    iters = 3 if quick else 10
    reps = 3 if quick else 5
    rounds = 2 if quick else 15
    env = dict(os.environ)
    env["PYTHONPATH"] = seed_src
    out: Dict = {"src": seed_src, "presets": {}, "speedup_batched_f32_vs_seed": {}}
    for preset in PRESET_NAMES:
        preset_result: Dict = {}
        paired_ratios = []
        for family, fam_tokens in (("hot_loop", tokens), ("end_to_end", min(tokens, 1024))):
            spec = {"family": family, "preset": preset, "tokens": fam_tokens,
                    "iters": iters, "reps": reps}
            merged: Dict[str, float] = {}
            for _ in range(rounds):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec)],
                    capture_output=True, text=True, env=env, cwd="/tmp")
                if proc.returncode != 0:
                    raise RuntimeError(f"seed worker failed for {preset}/{family}: {proc.stderr}")
                sample = json.loads(proc.stdout)
                for key, value in sample.items():
                    if key.endswith("_per_s"):
                        merged[key] = max(merged.get(key, 0.0), value)
                    else:
                        merged.setdefault(key, value)
                if family == "hot_loop":
                    fast = bench_hot_loop(preset, "batched", "float32",
                                          fam_tokens, iters, reps)
                    paired_ratios.append(fast["forward_backward_tokens_per_s"]
                                         / sample["forward_backward_tokens_per_s"])
            preset_result[family] = merged
        preset_result["paired_fwd_bwd_ratios"] = [round(r, 3) for r in paired_ratios]
        out["presets"][preset] = preset_result
        out["speedup_batched_f32_vs_seed"][preset] = float(np.median(paired_ratios))
    return out


# -------------------------------------------------------------------- check
def check_regression(current: Dict, baseline_path: str, tolerance: float) -> int:
    """Compare machine-independent speedups against the committed baseline."""
    with open(baseline_path) as handle:
        committed = json.load(handle)
    failures = []
    if not committed.get("presets"):
        print(f"[MISSING] {baseline_path} carries no hotpath suite baseline; "
              "a gated suite without a committed reference cannot pass")
        return 1
    for preset, families in committed.get("presets", {}).items():
        for family in ("hot_loop", "end_to_end"):
            for key in ("speedup_batched_f32_vs_loop_f64",
                        "round_speedup_batched_f32_vs_loop_f64"):
                ref = families.get(family, {}).get(key)
                if not ref:
                    continue
                cur = current.get("presets", {}).get(preset, {}).get(family, {}).get(key)
                if not cur:
                    # A committed speedup the current run never measured is a
                    # broken gate, not a pass — otherwise a partial run (or a
                    # renamed preset/family) would silently stop gating.
                    print(f"[MISSING] {preset}/{family}/{key}: committed "
                          f"{ref:.2f}x has no current measurement")
                    failures.append((preset, family, key, None, ref))
                    continue
                floor = (1.0 - tolerance) * ref
                status = "OK" if cur >= floor else "REGRESSION"
                print(f"[{status}] {preset}/{family}/{key}: "
                      f"current {cur:.2f}x vs committed {ref:.2f}x (floor {floor:.2f}x)")
                if cur < floor:
                    failures.append((preset, family, key, cur, ref))
    if failures:
        print(f"FAILED: {len(failures)} speedup(s) regressed more than "
              f"{tolerance:.0%} (or went unmeasured) vs {baseline_path}")
        return 1
    print(f"All speedups within {tolerance:.0%} of {baseline_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller token counts / fewer repetitions (CI smoke)")
    parser.add_argument("--suite",
                        choices=("hotpath", "aggregation", "telemetry", "sparse",
                                 "service"),
                        default="hotpath",
                        help="hotpath: MoE dispatch/training throughput (default); "
                             "aggregation: server-side fold throughput, serial vs "
                             "parallel critical path, across shard counts and "
                             "tree depths; "
                             "telemetry: repro.obs tracing overhead, run-level "
                             "on-vs-off ratio plus span microbenchmarks; "
                             "sparse: zero-skipping dispatch vs batched on "
                             "sparsified experts, composed sparse codec wire "
                             "bytes, full vs delta checkpoint cost; "
                             "service: one socket-backed aggregator server vs "
                             "the same fold jobs inline, per transport, plus "
                             "RPC round-trip latency")
    parser.add_argument("--output", default=None,
                        help="where to write the results JSON (default: "
                             "BENCH_hotpath.json or BENCH_aggregation.json by suite)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare speedups against a committed baseline JSON; "
                             "exit 1 on regression beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative speedup regression for --check")
    parser.add_argument("--seed-src", metavar="PATH",
                        help="src/ directory of a pristine seed checkout to "
                             "benchmark as seed_reference")
    parser.add_argument("--worker", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        _worker(args.worker)
        return 0

    default_output = {"hotpath": "BENCH_hotpath.json",
                      "aggregation": "BENCH_aggregation.json",
                      "telemetry": "BENCH_telemetry.json",
                      "sparse": "BENCH_sparse.json",
                      "service": "BENCH_service.json"}[args.suite]
    output = args.output or os.path.join(REPO_ROOT, default_output)
    result = {
        "meta": {
            "schema": 1,
            "suite": args.suite,
            "quick": bool(args.quick),
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if args.suite == "aggregation":
        result["aggregation"] = run_aggregation_suite(args.quick)
    elif args.suite == "telemetry":
        result["telemetry"] = run_telemetry_suite(args.quick)
    elif args.suite == "sparse":
        result["sparse"] = run_sparse_suite(args.quick)
    elif args.suite == "service":
        result["service"] = run_service_suite(args.quick)
    else:
        result["presets"] = run_suite(args.quick)
        if args.seed_src:
            result["seed_reference"] = bench_seed_reference(args.seed_src, args.quick)

    with open(output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {output}")
    if args.suite == "aggregation":
        agg = result["aggregation"]
        for shards, entry in agg["shards"].items():
            print(f"  {shards} shard(s): serial {entry['serial_updates_per_s']:,.0f} "
                  f"updates/s, critical-path speedup "
                  f"{entry['speedup_critical_path_vs_serial']:.2f}x")
        for name, entry in agg["tree"].items():
            print(f"  tree {name} (depth {entry['depth']}): serial "
                  f"{entry['serial_updates_per_s']:,.0f} updates/s, critical-path "
                  f"speedup {entry['speedup_critical_path_vs_serial']:.2f}x")
        print(f"  headline: {agg['headline_speedup_8shards']:.2f}x fold throughput "
              "at 8 shards (critical path vs serial)")
        if args.check:
            return check_aggregation_regression(result, args.check, args.tolerance)
        return 0
    if args.suite == "sparse":
        sparse = result["sparse"]
        for name, entry in sparse["workloads"].items():
            print(f"  {name} (d_model={entry['d_model']}, d_ff={entry['d_ff']}): "
                  f"sparse vs batched fwd+bwd "
                  f"{entry['speedup_sparse_vs_batched_forward_backward']:.2f}x, "
                  f"round {entry['speedup_sparse_vs_batched_round']:.2f}x")
        wire = sparse["wire"]
        print(f"  wire {wire['codec']}: {wire['measured_frame_bytes']} B/expert "
              f"measured vs {wire['analytic_payload_bytes']:.0f} B analytic "
              f"({wire['measured_vs_analytic_rel_err']:.1%} off), "
              f"{wire['bytes_ratio_vs_fp64']:.3f}x of fp64")
        ckpt = sparse["checkpoint"]
        print(f"  checkpoint: delta {ckpt['delta_bytes']} B vs full "
              f"{ckpt['full_bytes']} B ({ckpt['delta_bytes_ratio']:.3f}x), "
              f"save {ckpt['delta_save_speedup']:.2f}x faster")
        print(f"  headline: {sparse['headline_speedup']:.2f}x minimum hot-loop "
              f"(fwd+bwd) speedup at density {sparse['density']:g}")
        if args.check:
            return check_sparse_regression(result, args.check, args.tolerance)
        return 0
    if args.suite == "service":
        service = result["service"]
        for shards, entry in service["shards"].items():
            parts = ", ".join(
                f"{transport} {values['wall_ratio_service_vs_inline']:.2f}x"
                for transport, values in entry["transports"].items())
            print(f"  {shards} shard(s): inline "
                  f"{entry['inline_updates_per_s']:,.0f} updates/s; service "
                  f"wall ratio vs inline: {parts}")
        for transport, entry in service["rpc"].items():
            print(f"  rpc {transport}: ping {entry['ping_s'] * 1e6:,.0f}us")
        print(f"  headline: service/tcp critical path at "
              f"{max(SERVICE_SHARD_COUNTS)} shards is "
              f"{service['headline_ratio']:.2f}x inline wall time")
        if args.check:
            return check_service_regression(result, args.check, args.tolerance)
        return 0
    if args.suite == "telemetry":
        tel = result["telemetry"]
        print(f"  {tel['rounds']}-round run: off {tel['off_run_s']:.2f}s, on "
              f"{tel['on_run_s']:.2f}s -> overhead "
              f"{tel['overhead_ratio_on_vs_off']:.3f}x "
              f"({tel['events_per_run']} events)")
        print(f"  span cost: null {tel['null_span_ns']:.0f}ns, live "
              f"{tel['live_span_ns']:.0f}ns")
        if args.check:
            return check_telemetry_regression(result, args.check, args.tolerance)
        return 0
    for preset, families in result["presets"].items():
        print(f"  {preset}: hot-loop fwd+bwd speedup "
              f"{families['hot_loop']['speedup_batched_f32_vs_loop_f64']:.2f}x, "
              f"round {families['hot_loop']['round_speedup_batched_f32_vs_loop_f64']:.2f}x")
    if args.seed_src:
        for preset, value in result["seed_reference"]["speedup_batched_f32_vs_seed"].items():
            print(f"  {preset}: batched/float32 vs seed loop/float64 {value:.2f}x")

    if args.check:
        return check_regression(result, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
