"""Outside-in span tracing for the traced benchmark run.

The benchmark does not instrument the program: it wraps the public
functions at each module boundary *from the outside*, patching every name
where its caller looks it up at call time (e.g. ``estimate_expert_gradient``
is patched in ``repro.core.flux_client``, which imported it, not in
``repro.core.gradient_estimation``, which defines it).  Every wrapped call
records a span ``(name, start, end, parent)``; spans stay in memory and are
summarised when the run ends.  A span's self time is its duration minus the
durations of the wrapped calls nested directly inside it.

Only the thread that installed the tracer is traced; calls on other threads
(service dispatch, background checkpoint writes) pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (metric name, module whose attribute callers resolve, attribute path)
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("core.probe", "repro.core.flux_client", "estimate_expert_gradient"),
    ("core.plan", "repro.core.flux_client", "plan_compact_model"),
    ("core.build_compact", "repro.core.flux_client", "build_compact_model"),
    ("core.assign", "repro.core.assignment", "ExpertRoleAssigner.assign"),
    ("core.client_round", "repro.core.flux_client", "FluxClientState.run_round"),
    ("quantization.quantize_model", "repro.core.profiling", "quantize_model"),
    ("quantization.quantize_model", "repro.baselines.fmq", "quantize_model"),
    ("analysis.profile_activation", "repro.core.profiling", "profile_activation"),
    ("models.forward", "repro.models.transformer", "MoETransformer.forward"),
    ("models.compute_loss", "repro.models.transformer", "MoETransformer.compute_loss"),
    ("models.attention", "repro.models.attention", "MultiHeadSelfAttention.forward"),
    ("models.gate", "repro.models.gating", "GatingNetwork.forward"),
    ("models.moe", "repro.models.moe_layer", "MoELayer.forward"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    ("autograd.optim_step", "repro.autograd.optim", "Adam.step"),
    ("federated.participant_round", "repro.core.finetuner", "FluxFineTuner.participant_round"),
    ("federated.participant_round", "repro.baselines.fmd", "FMDFineTuner.participant_round"),
    ("federated.local_train", "repro.federated.client", "Participant.local_finetune"),
    ("federated.snapshot", "repro.federated.server", "ParameterServer.model_snapshot"),
    ("federated.aggregate", "repro.federated.orchestrator",
     "FederatedFineTuner.aggregate_round_updates"),
    ("data.local_batches", "repro.federated.client", "Participant.local_batches"),
    ("metrics.eval", "repro.federated.orchestrator", "FederatedFineTuner.evaluate"),
    ("comm.transmit", "repro.federated.orchestrator", "FederatedFineTuner.transmit_updates"),
    ("comm.encode", "repro.comm", "encode_update"),
    ("comm.decode", "repro.comm", "decode_update"),
    ("comm.channel_send", "repro.comm.channel", "Channel.send"),
    ("service.fold_shards", "repro.service.pool", "ServiceAggregationPool.fold_shards"),
    ("service.prefold_nodes", "repro.service.pool", "ServiceAggregationPool.prefold_nodes"),
    ("runtime.checkpoint_save", "repro.runtime.checkpoint", "RunCheckpointer.save"),
)


def boundary_names() -> List[str]:
    """Distinct boundary metric names in table order."""
    return list(dict.fromkeys(name for name, _, _ in BOUNDARIES))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root


@dataclass
class Recorder:
    """In-memory span store plus the call-stack used to parent new spans."""

    active: bool = False
    thread_id: int = field(default_factory=threading.get_ident)
    spans: List[Optional[Span]] = field(default_factory=list)
    stack: List[int] = field(default_factory=list)
    #: per-name count of calls that raised
    errors: Dict[str, int] = field(default_factory=dict)
    #: per-name byte tallies filled by boundary observers
    tallies: Dict[str, float] = field(default_factory=dict)

    def tally(self, key: str, amount: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + amount


def _observe_encode(recorder: Recorder, args, result) -> None:
    """Encoded bytes against the raw fp64 bytes of the same tensors."""
    update = args[0]
    recorder.tally("comm.encoded_bytes", len(result))
    recorder.tally("comm.raw_fp64_bytes",
                   8.0 * sum(getattr(v, "size", 0) for v in update.state.values()))


OBSERVERS: Dict[str, Callable] = {"comm.encode": _observe_encode}


def _wrap(fn: Callable, name: str, recorder: Recorder) -> Callable:
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active or threading.get_ident() != recorder.thread_id:
            return fn(*args, **kwargs)
        spans, stack = recorder.spans, recorder.stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.errors[name] = recorder.errors.get(name, 0) + 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = Span(name, start, end, parent)
        if observe is not None:
            observe(recorder, args, result)
        return result

    return traced


class Tracer:
    """Installs boundary wrappers and restores every original on exit."""

    def __init__(self, boundaries: Sequence[Tuple[str, str, str]] = BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        self.recorder = Recorder()
        self.missing: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        present = set()
        absent = set()
        for name, module_name, path in self.boundaries:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                absent.add(name)
                continue
            present.add(name)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, self.recorder))
        self.missing = sorted(absent - present)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.recorder.active = False
        self.restore()


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarize(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Per-name call counts, self time and total time.

    Total time counts only the outermost span of a name, so a boundary that
    re-enters itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: Dict[str, LayerStats] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, LayerStats())
        duration = span.end - span.start
        entry.calls += 1
        entry.self_s += duration - child_time[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry.total_s += duration
    return stats


def calls_per_version(spans: Sequence[Span], name: str,
                      version_boundary: str = "federated.aggregate") -> float:
    """Calls of ``name`` per global-model version that saw any.

    The global model changes version each time an aggregation span ends, so
    1.0 means the boundary ran once per version.
    """
    events = sorted([(span.end, 0) for span in spans if span.name == version_boundary]
                    + [(span.start, 1) for span in spans if span.name == name])
    version, seen, calls = 0, set(), 0
    for _, kind in events:
        if kind == 0:
            version += 1
        else:
            calls += 1
            seen.add(version)
    return calls / len(seen) if seen else 0.0
