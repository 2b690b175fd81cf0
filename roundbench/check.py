"""Correctness check and failure accounting over a workload's runs.

Every run of a federation seed must reproduce the same per-round result
sequence.  Within one invocation the first run of a seed is the reference;
across invocations on the same source tree, the first sequence ever seen for
a seed is kept under ``.roundbench/reference/<source hash>/`` and later runs,
traced or not, are compared with it.

Attempts are participant rounds plus uplink wire payloads.  Failed
operations are: a round whose result differs from the reference, a run that
raised or timed out (all its planned participant rounds), a participant
whose work did not reach the server, a lost, corrupt or undecodable payload,
and a round with a non-finite loss.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

# indices into child.round_record
TRAIN_LOSS, NUM_AGGREGATED, NUM_SELECTED, LOST, CORRUPTED = 0, 5, 6, 7, 8


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)


def check_runs(workload, records: Sequence[Optional[dict]],
               references: Dict[int, list]) -> Tally:
    """Count attempts and failures of ``records`` (``None`` = a failed run).

    ``references`` maps a federation seed to its expected round sequence;
    the first record of a seed without one becomes its reference.
    """
    tally = Tally()
    for index, record in enumerate(records):
        if record is None:
            planned = workload.num_rounds * workload.per_round
            tally.attempted += planned
            tally.fail(planned, f"run {index} raised or timed out")
            continue
        rounds = record["rounds"]
        reference = references.setdefault(record["seed"], rounds)
        tally.attempted += sum(r[NUM_SELECTED] for r in rounds) + record["payloads"]
        if len(rounds) != workload.num_rounds:
            tally.fail(abs(workload.num_rounds - len(rounds)) * workload.per_round,
                       f"run {index} completed {len(rounds)} of "
                       f"{workload.num_rounds} rounds")
        mismatched = sum(1 for mine, ref in zip(rounds, reference) if mine != ref)
        tally.fail(mismatched, f"run {index} (seed {record['seed']}): "
                               f"{mismatched} rounds differ from the reference")
        tally.fail(sum(max(r[NUM_SELECTED] - r[NUM_AGGREGATED], 0) for r in rounds),
                   f"run {index}: selected participants missing from aggregation")
        tally.fail(sum(r[LOST] + r[CORRUPTED] for r in rounds),
                   f"run {index}: payloads lost or corrupted")
        tally.fail(sum(1 for r in rounds if not math.isfinite(r[TRAIN_LOSS])),
                   f"run {index}: non-finite training loss")
        decode_errors = record.get("errors", {}).get("comm.decode", 0)
        tally.fail(decode_errors, f"run {index}: undecodable payloads")
    return tally


def source_hash(root: str) -> str:
    """Digest of the program and benchmark sources that decide the results."""
    digest = hashlib.sha256()
    for top in ("src", "roundbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


class ReferenceStore:
    """Round sequences of earlier runs on the same sources, one file per seed."""

    def __init__(self, directory: str, workload: str) -> None:
        self.directory = directory
        self.workload = workload

    def _path(self, seed: int) -> str:
        return os.path.join(self.directory, f"{self.workload}-{seed}.json")

    def load(self, seeds) -> Dict[int, list]:
        found = {}
        for seed in seeds:
            try:
                with open(self._path(seed)) as handle:
                    found[seed] = json.load(handle)
            except FileNotFoundError:
                continue
        return found

    def save(self, references: Dict[int, list]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        for seed, rounds in references.items():
            path = self._path(seed)
            if not os.path.exists(path):
                with open(path + ".tmp", "w") as handle:
                    json.dump(rounds, handle)
                os.replace(path + ".tmp", path)
