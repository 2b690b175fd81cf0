"""The expert update: what participants upload for aggregation.

Following the paper, participants exchange only *expert* parameters: each
participant uploads the post-training state of the experts it tuned plus a
weight (how many tokens contributed).  The server folds them per expert with
the run's aggregation strategy (:mod:`repro.federated.strategies`, weighted
FedAvg by default) and writes the result back into the global model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

ExpertKey = Tuple[int, int]  # (layer index, expert index)


@dataclass
class ExpertUpdate:
    """One participant's update for one expert."""

    participant_id: int
    layer: int
    expert: int
    state: Dict[str, np.ndarray]
    weight: float = 1.0
    #: server versions elapsed since the contributor downloaded the model —
    #: in-memory metadata consumed by the ``staleness_fedavg`` strategy; it
    #: does not travel in wire frames (the asynchronous scheduler discounts
    #: weights before transmission, so the wire format stays stable).
    staleness: int = 0
    #: the exact wire frame this update was decoded from (``transport="wire"``
    #: deliveries only) — downstream fold dispatch forwards it verbatim instead
    #: of re-encoding the decoded state as fp64, which is bit-identical by
    #: construction (``state`` *is* the deterministic decode of these bytes).
    #: In-memory provenance, never re-serialized itself: ``repr``/``compare``
    #: exclude it so update equality and logs are unchanged.
    wire_frame: Optional[bytes] = field(default=None, repr=False, compare=False)
    #: codec name of :attr:`wire_frame` (``None`` when no frame is carried)
    wire_codec: Optional[str] = field(default=None, repr=False, compare=False)
    #: the reference state :attr:`wire_frame` was decoded against, for
    #: ``needs_reference`` codecs (top-k/sparse deltas); forwarded alongside
    #: the frame so a remote decoder reconstructs the identical state
    wire_reference: Optional[Dict[str, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    @property
    def key(self) -> ExpertKey:
        return (self.layer, self.expert)
