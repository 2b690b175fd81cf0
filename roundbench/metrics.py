"""End-to-end and per-layer metrics from the workers' records."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

from roundbench.check import NUM_AGGREGATED, TRAIN_LOSS
from roundbench.tracing import boundary_names

# indices into child.round_record
METRIC_VALUE, SIMULATED_TIME, WIRE_BYTES, EDGE_BYTES = 1, 2, 3, 4
MB = 1e6


def _metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records: Sequence[dict], num_deterministic: int) -> Dict[str, Dict]:
    """Metrics of the timed runs (tracing off).

    Round times and per-round throughputs are pooled over every federation
    and summarised by their medians, as is set-up time.  ``final_loss`` and ``sim_s`` average the first
    ``num_deterministic`` federations, so they are deterministic per seed.
    """
    round_s = [t for r in records for t in r["round_s"]]
    rates = [rounds[NUM_AGGREGATED] / t for r in records
             for rounds, t in zip(r["rounds"][1:], r["round_s"])]
    last = [r["rounds"][-1] for r in records[:num_deterministic]]
    return {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in records), "s"),
        "round_s": _metric(statistics.median(round_s), "s"),
        "client_rounds_per_s": _metric(statistics.median(rates), "1/s"),
        "final_loss": _metric(statistics.fmean(r[TRAIN_LOSS] for r in last), "nats"),
        "sim_s": _metric(statistics.fmean(r[SIMULATED_TIME] for r in last), "sim_s"),
    }


def per_layer(untraced: dict, traced: dict) -> Dict[str, Dict]:
    """Per-boundary spans of the traced worker, plus run-level side metrics."""
    layers = traced["layers"]
    wall = traced["wall_s"]
    metrics: Dict[str, Dict] = {}
    missing = set(traced["missing"])
    # Times are shares of the traced wall time: a layer a workload never
    # enters reads 0 on every run, which is a count of nothing, not a time.
    for name in boundary_names():
        if name in missing:
            continue
        calls, self_s, total_s = layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_share"] = _metric(self_s / wall, "share")
        metrics[f"{name}.total_share"] = _metric(total_s / wall, "share")
    if "quantization.quantize_model" not in missing:
        metrics["quantization.quantize_model.calls_per_version"] = _metric(
            traced["quantize_calls_per_version"], "ratio")
    if not missing & {"comm.decode", "comm.encode"}:
        # every encoded update is one uplink payload; tree hops also use
        # Channel.send, so channel sends would overcount what was sent
        sent = layers.get("comm.encode", (0,))[0]
        decoded = layers.get("comm.decode", (0,))[0] - traced["errors"].get("comm.decode", 0)
        metrics["comm.delivered_ratio"] = _metric(decoded / sent if sent else 0.0, "ratio")
    tallies = traced["tallies"]
    raw = tallies.get("comm.raw_fp64_bytes", 0.0)
    if "comm.encode" not in missing:
        metrics["comm.wire_density"] = _metric(
            tallies.get("comm.encoded_bytes", 0.0) / raw if raw else 0.0, "ratio")
    rounds = untraced["rounds"]
    metrics["uplink_mb_per_round"] = _metric(
        statistics.fmean(r[WIRE_BYTES] for r in rounds) / MB, "MB")
    metrics["backhaul_mb_per_round"] = _metric(
        statistics.fmean(r[EDGE_BYTES] for r in rounds) / MB, "MB")
    metrics["final_metric"] = _metric(rounds[-1][METRIC_VALUE], "score")
    metrics["peak_rss_mb"] = _metric(untraced["peak_rss_mb"], "MB")
    self_total = sum(entry[1] for entry in layers.values())
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.attributed_share"] = _metric(self_total / wall, "share")
    metrics["trace.overhead"] = _metric(
        statistics.median(traced["round_s"]) / statistics.median(untraced["round_s"]),
        "ratio")
    return metrics
