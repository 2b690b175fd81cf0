"""One benchmark run of a workload, in a fresh process.

``python3 roundbench/child.py --workload W --seed N --trace 0|1 --out FILE
--tmp DIR`` times set-up (imports, federation build, tuner construction
and the warm-up round 0), then the remaining rounds one by one, and writes
a JSON record to ``FILE``: set-up time, per-round wall times, the per-round
result sequence, peak RSS, payload counts and, with ``--trace 1``, the
per-layer span summary of the timed rounds.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), os.path.dirname(_HERE)]

import numpy as np  # noqa: E402

from repro.runtime import make_scheduler  # noqa: E402
from roundbench.tracing import Tracer, calls_per_version, summarize  # noqa: E402
from roundbench.workloads import WORKLOADS, build_tuner  # noqa: E402


def round_record(result) -> list:
    """The per-round sequence every run of a seed must reproduce exactly."""
    return [result.train_loss, result.metric_value, result.simulated_time,
            result.wire_bytes, result.edge_bytes, result.num_aggregated,
            result.num_selected, result.payloads_lost, result.payloads_corrupted]


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload_name: str, seed: int, trace: bool, tmp: str) -> dict:
    workload = WORKLOADS[workload_name]
    tuner = build_tuner(workload, seed, checkpoint_dir=os.path.join(tmp, "ckpt"))
    scheduler = make_scheduler(tuner.config)
    stamps = [time.perf_counter()]
    tracer = Tracer() if trace else None
    produce = scheduler.round_results

    def stamped_rounds(tuner, num_rounds, start_round=0):
        # The stamp after each round closes its interval; round 0 is the
        # warm-up, so tracing covers exactly the timed rounds 1..N-1.
        for index, result in enumerate(produce(tuner, num_rounds)):
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.recorder.active = 0 < index + 1 < num_rounds
            yield result

    scheduler.round_results = stamped_rounds
    with tracer or contextlib.nullcontext():
        result = tuner.run(num_rounds=workload.num_rounds, scheduler=scheduler)
    round_s = [b - a for a, b in zip(stamps[1:], stamps[2:])]
    payloads = sum(state["stats"].payloads
                   for state in tuner.export_channel_states().values())
    record = {
        "seed": seed,
        "setup_s": stamps[1] - _T0,
        "round_s": round_s,
        "rounds": [round_record(r) for r in result.rounds],
        "payloads": payloads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host_fingerprint(),
    }
    if tracer is not None:
        spans = tracer.recorder.spans
        stats = summarize(spans)
        record["layers"] = {name: [s.calls, s.self_s, s.total_s]
                            for name, s in stats.items()}
        record["missing"] = tracer.missing
        record["errors"] = tracer.recorder.errors
        record["tallies"] = tracer.recorder.tallies
        record["wall_s"] = stamps[-1] - stamps[1]
        record["quantize_calls_per_version"] = calls_per_version(
            spans, "quantization.quantize_model")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.trace), args.tmp)
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
