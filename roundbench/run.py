"""Round-level benchmark of the federated fine-tuning runtime.

    python3 roundbench/run.py --workload flux_llama --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist).  Each
worker (``child.py``) is a fresh process that builds one federation and runs
the workload's fixed round schedule.  Federation ``k`` of a run gets seed
``1000 * seed + k``, so a run averages over several federations instead of
one; that keeps run-to-run spread across ``--seed`` values small.

With ``--trace 0`` federations 0, 1, 2, ... run one after the other until at
least ``MIN_FEDERATIONS`` have run and ``--seconds`` have passed, and the
end-to-end metrics are printed with their units.  With ``--trace 1``
federation 0 runs once untraced and once traced, and the per-layer metrics
are printed.  Every run's per-round results are checked against the
reference for its federation seed and failed operations are counted; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

BLAS threads are fixed to one in the workers' environment before NumPy
loads, so aggregation servers the workers spawn inherit the setting.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
sys.path.insert(0, ROOT)

from roundbench.check import ReferenceStore, check_runs, source_hash  # noqa: E402
from roundbench.metrics import end_to_end, per_layer  # noqa: E402
from roundbench.workloads import WORKLOADS  # noqa: E402

#: the workers' BLAS/OpenMP thread setting
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: federations per timed run; the deterministic metrics average over these
MIN_FEDERATIONS = 5
#: no worker starts after this many seconds, and one still running then is
#: killed and counted as failed, so a run always ends within 180 s
DEADLINE_S = 160.0
#: scratch space for worker results and checkpoints, inside the checkout
WORK_DIR = os.path.join(ROOT, ".roundbench")


def run_worker(workload: str, seed: int, trace: bool, timeout: float):
    """Run one worker process; its JSON record, or ``None`` if it failed."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    out = os.path.join(tmp, "record.json")
    env = dict(os.environ, **THREAD_ENV)
    command = [sys.executable, os.path.join(_HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--out", out, "--tmp", tmp]
    # A session of its own, so a timed-out worker is killed together with
    # the aggregation servers it spawned.
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(stderr[-4000:])
            return None
        with open(out) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        _kill(proc)
        sys.stderr.write(f"worker {workload} seed {seed} timed out\n")
        return None
    except BaseException:
        _kill(proc)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _kill(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"no program source under {ROOT}/src/repro; run from a "
                         "source checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    start = time.monotonic()

    def worker(k: int, trace: bool = False):
        return run_worker(workload.name, 1000 * args.seed + k, trace,
                          timeout=max(start + DEADLINE_S - time.monotonic(), 1.0))

    if args.trace:
        records = [worker(0), worker(0, trace=True)]
    else:
        records = []
        while time.monotonic() - start < DEADLINE_S and (
                len(records) < MIN_FEDERATIONS
                or time.monotonic() - start < args.seconds):
            records.append(worker(len(records)))
        # federations the deadline cut off count as failed runs
        records += [None] * (MIN_FEDERATIONS - len(records))

    store = ReferenceStore(os.path.join(WORK_DIR, "reference", source_hash(ROOT)),
                           workload.name)
    references = store.load({r["seed"] for r in records if r is not None})
    tally = check_runs(workload, records, references)
    if tally.failed == 0:
        store.save(references)
    good = [r for r in records if r is not None]
    metrics = {}
    if args.trace and all(records):
        metrics = per_layer(*records)
    elif not args.trace and good:
        metrics = end_to_end(good, MIN_FEDERATIONS)

    host = good[0]["host"] if good else {}
    print("host " + json.dumps(host, sort_keys=True))
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        for record in good:
            rounds = " ".join(f"{t:.4f}" for t in record["round_s"])
            print(f"federation {record['seed']}: setup {record['setup_s']:.4f} s, "
                  f"rounds {rounds} s")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    if args.trace and good and good[-1].get("missing"):
        print("missing boundaries: " + ", ".join(good[-1]["missing"]))
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
