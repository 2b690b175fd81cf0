"""Pluggable aggregation strategies for expert updates.

The server-side fold is no longer hardwired to weighted FedAvg: a strategy
names *how* a set of per-expert updates becomes one aggregated expert state.
Strategies are registered by name and selected via
:attr:`~repro.federated.orchestrator.RunConfig.aggregation`, so the whole
topology — flat server, expert shards, edge aggregators — composes with any of
them:

``fedavg``
    Weighted average, a sequential fold in arrival order
    (:func:`~repro.comm.aggregator.fold_weighted_state` /
    :func:`~repro.comm.aggregator.finalize_weighted_sum`) — the default, and
    the only FedAvg implementation: a key whose total weight is not positive
    raises ``ValueError`` at finalize.

``trimmed_mean``
    Coordinate-wise trimmed mean (Yin et al.): per scalar coordinate, drop the
    ``k`` smallest and ``k`` largest contributions and average the rest —
    robust to up to ``k`` arbitrarily corrupted clients per expert.

``median``
    Coordinate-wise median, the classic robust aggregation baseline.

``staleness_fedavg``
    FedAvg with each update's weight discounted by the polynomial FedBuff
    factor ``(1 + staleness) ** -exponent``.  This is the *same* formula the
    asynchronous scheduler applies (it delegates to
    :func:`staleness_discount`), exposed as a strategy so buffered/offline
    aggregation of stale updates uses one implementation.  It discounts based
    on ``ExpertUpdate.staleness``, which the built-in round-based schedulers
    leave at 0 — the strategy is for custom schedulers and direct
    ``server.aggregate`` use; combining it with the asynchronous scheduler is
    rejected at config time (the discount would apply twice).

A strategy produces per-expert *accumulators*; foldable strategies (FedAvg
family) keep O(1) state per expert, order statistics (trimmed mean, median)
buffer their contributions until :meth:`UpdateAccumulator.finalize`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.aggregator import finalize_weighted_sum, fold_weighted_state

State = Dict[str, np.ndarray]


def staleness_discount(staleness: int, exponent: float = 0.5) -> float:
    """FedBuff's polynomial staleness discount for an update's weight."""
    if exponent < 0:
        raise ValueError("staleness exponent must be non-negative")
    return float((1.0 + max(staleness, 0)) ** -exponent)


class UpdateAccumulator(abc.ABC):
    """Collects the updates of one expert key and reduces them to one state."""

    #: optional :class:`~repro.comm.scratch.ScratchPool` attached by the
    #: owning :class:`~repro.comm.StreamingAggregator` (foldable strategies
    #: only): folds compute their ``weight * value`` terms into the pool's
    #: persistent buffers instead of allocating.  Buffering accumulators
    #: ignore it.
    scratch = None

    def __init__(self) -> None:
        self.count = 0
        self.total_weight = 0.0

    @property
    def finalizable(self) -> bool:
        """Whether :meth:`finalize` can produce a result from what was added."""
        return self.count > 0

    @abc.abstractmethod
    def add(self, state: State, weight: float, staleness: int = 0) -> None:
        """Fold (or buffer) one contribution."""

    @abc.abstractmethod
    def finalize(self) -> State:
        """The aggregated expert state (leaves the accumulator intact)."""


class AggregationStrategy(abc.ABC):
    """Factory of per-expert :class:`UpdateAccumulator` objects."""

    name: str = "base"
    #: True when accumulators keep O(1) state per expert (pure folds); order
    #: statistics buffer every contribution until finalize.
    foldable: bool = False

    @abc.abstractmethod
    def make_accumulator(self) -> UpdateAccumulator:
        """A fresh accumulator for one expert key."""

    def aggregate(self, states: Sequence[State], weights: Sequence[float],
                  stalenesses: Optional[Sequence[int]] = None) -> State:
        """Convenience one-shot aggregation of pre-collected states."""
        if len(states) != len(weights):
            raise ValueError("one weight per state is required")
        stale = stalenesses if stalenesses is not None else [0] * len(states)
        acc = self.make_accumulator()
        for state, weight, staleness in zip(states, weights, stale):
            acc.add(state, weight, staleness=staleness)
        return acc.finalize()


# -------------------------------------------------------------------- fedavg
class _FoldAccumulator(UpdateAccumulator):
    """Weighted running sum: the FedAvg fold."""

    def __init__(self, discount: Optional[Callable[[int], float]] = None) -> None:
        super().__init__()
        self._acc: State = {}
        self._discount = discount

    @property
    def finalizable(self) -> bool:
        # A weighted mean needs positive total weight.
        return self.total_weight > 0

    def add(self, state: State, weight: float, staleness: int = 0) -> None:
        if self._discount is not None:
            weight = weight * self._discount(staleness)
        fold_weighted_state(self._acc, state, weight, scratch=self.scratch)
        self.total_weight += float(weight)
        self.count += 1

    def finalize(self) -> State:
        return finalize_weighted_sum(self._acc, self.total_weight)


class FedAvgStrategy(AggregationStrategy):
    """Weighted FedAvg: the default strategy."""

    name = "fedavg"
    foldable = True

    def make_accumulator(self) -> UpdateAccumulator:
        return _FoldAccumulator()


class StalenessFedAvgStrategy(AggregationStrategy):
    """FedAvg with per-update weights discounted by ``(1+staleness)**-exponent``."""

    name = "staleness_fedavg"
    foldable = True

    def __init__(self, exponent: float = 0.5) -> None:
        if exponent < 0:
            raise ValueError("staleness exponent must be non-negative")
        self.exponent = exponent

    def make_accumulator(self) -> UpdateAccumulator:
        return _FoldAccumulator(
            discount=lambda staleness: staleness_discount(staleness, self.exponent))


# ---------------------------------------------------------- order statistics
class _BufferingAccumulator(UpdateAccumulator):
    """Keeps every contribution; subclasses reduce the stacked coordinates."""

    def __init__(self) -> None:
        super().__init__()
        self._states: List[State] = []

    def add(self, state: State, weight: float, staleness: int = 0) -> None:
        if weight < 0:
            raise ValueError("aggregation weights must be non-negative")
        if self._states and set(state) != set(self._states[0]):
            raise ValueError("cannot aggregate states with mismatched tensor names")
        self._states.append({name: np.asarray(value, dtype=np.float64)
                             for name, value in state.items()})
        self.total_weight += float(weight)
        self.count += 1

    def _stacked(self) -> Dict[str, np.ndarray]:
        if not self._states:
            raise ValueError("cannot finalize an empty aggregation")
        return {name: np.stack([state[name] for state in self._states])
                for name in self._states[0]}

    @abc.abstractmethod
    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        """Reduce the leading (contributor) axis to one tensor."""

    def finalize(self) -> State:
        return {name: self._reduce(stacked) for name, stacked in self._stacked().items()}


class _TrimmedMeanAccumulator(_BufferingAccumulator):
    def __init__(self, trim_ratio: float) -> None:
        super().__init__()
        self.trim_ratio = trim_ratio

    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        n = stacked.shape[0]
        k = min(int(self.trim_ratio * n), (n - 1) // 2)
        if k == 0:
            return stacked.mean(axis=0)
        ordered = np.sort(stacked, axis=0)
        return ordered[k:n - k].mean(axis=0)


class TrimmedMeanStrategy(AggregationStrategy):
    """Coordinate-wise trimmed mean: robust to ``trim_ratio`` corrupted clients."""

    name = "trimmed_mean"
    foldable = False

    def __init__(self, trim_ratio: float = 0.1) -> None:
        if not 0.0 <= trim_ratio < 0.5:
            raise ValueError("trim_ratio must be in [0, 0.5)")
        self.trim_ratio = trim_ratio

    def make_accumulator(self) -> UpdateAccumulator:
        return _TrimmedMeanAccumulator(self.trim_ratio)


class _MedianAccumulator(_BufferingAccumulator):
    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        return np.median(stacked, axis=0)


class MedianStrategy(AggregationStrategy):
    """Coordinate-wise median of the contributions."""

    name = "median"
    foldable = False

    def make_accumulator(self) -> UpdateAccumulator:
        return _MedianAccumulator()


# ------------------------------------------------------------------ registry
_REGISTRY: Dict[str, Callable[..., AggregationStrategy]] = {}


def register_strategy(name: str, factory: Callable[..., AggregationStrategy]) -> None:
    """Register (or replace) a strategy factory under ``name``."""
    _REGISTRY[name] = factory


def available_strategies() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_strategy(spec, **kwargs) -> AggregationStrategy:
    """Resolve ``spec`` (a name or an instance) into a strategy object."""
    if isinstance(spec, AggregationStrategy):
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise KeyError(
            f"unknown aggregation strategy {spec!r} "
            f"(available: {', '.join(available_strategies())})") from None
    return factory(**kwargs)


def picklable_strategy(spec) -> AggregationStrategy:
    """Resolve ``spec`` and verify it can cross a process boundary.

    Service aggregation (:class:`~repro.service.ServiceAggregationPool`)
    ships the pickled *strategy object* to its fold servers and rebuilds
    accumulators there, so a strategy's construction-time state (trim ratios,
    staleness exponents, …) must pickle.  All built-in strategies do; a
    custom strategy holding e.g. a lambda or an open handle fails here with a
    clear error instead of a deep traceback from the request encoder.
    """
    import pickle

    strategy = get_strategy(spec)
    try:
        pickle.loads(pickle.dumps(strategy))
    except Exception as exc:
        raise TypeError(
            f"aggregation strategy {strategy.name!r} cannot cross a process "
            f"boundary ({exc}); parallel aggregation requires a picklable "
            "strategy — keep construction-time state to plain data") from exc
    return strategy


def strategy_from_config(config) -> AggregationStrategy:
    """The strategy a :class:`~repro.federated.RunConfig` selects."""
    name = getattr(config, "aggregation", "fedavg")
    if name == "trimmed_mean":
        return TrimmedMeanStrategy(trim_ratio=getattr(config, "trim_ratio", 0.1))
    if name == "staleness_fedavg":
        return StalenessFedAvgStrategy(
            exponent=getattr(config, "staleness_exponent", 0.5))
    return get_strategy(name)


register_strategy("fedavg", FedAvgStrategy)
register_strategy("trimmed_mean", TrimmedMeanStrategy)
register_strategy("median", MedianStrategy)
register_strategy("staleness_fedavg", StalenessFedAvgStrategy)
