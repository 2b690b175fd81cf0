"""Reusable decode/fold scratch buffers for the aggregation hot path.

Decoding one wire frame used to allocate every tensor it reconstructed, and
every weighted fold allocated a ``weight * value`` term — per *update*, on a
path that runs hundreds of times per round.  A :class:`ScratchPool` removes
both allocations: decode checks arrays out of a per-``(shape, dtype)`` free
list (:meth:`take`), the fold multiplies into a persistent per-shape float64
term buffer (:meth:`term`), and once an update has been folded the checked-out
arrays go back on the free list (:meth:`recycle`) for the next frame.  After
one warm-up update per distinct tensor geometry, steady-state decode-and-fold
performs zero array allocations — :attr:`allocations` counts the warm-up
misses so benchmarks (and CI) can assert exactly that.

Pools are deliberately dumb about ownership: arrays handed out by
:meth:`take` are *volatile* — valid only until the next :meth:`recycle` —
so they must never be retained (buffering strategies like ``trimmed_mean``
keep references to decoded states, which is why
:class:`~repro.comm.aggregator.StreamingAggregator` only engages scratch
decode for ``foldable`` strategies).  :meth:`term` buffers are separate
storage from :meth:`take` arrays, so a fold can multiply into a term while
reading a scratch-decoded value of the same shape.

Pools are not thread-safe; use :func:`thread_scratch` for an ambient
per-thread pool (in-process service servers and the caller's own fold run
on different threads of the same process, so a module-global pool would
race).  Pickling a pool ships an *empty* pool — buffers are pure cache,
and a pool riding a pickled server/tuner snapshot must not bloat the payload.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

_PoolKey = Tuple[Tuple[int, ...], np.dtype]


class ScratchPool:
    """Free lists of decode arrays plus persistent fold-term buffers."""

    def __init__(self) -> None:
        self._free: Dict[_PoolKey, List[np.ndarray]] = {}
        #: (free-list, array) pairs checked out since the last recycle — the
        #: list reference rides along so recycle never re-hashes the key
        self._taken: List[Tuple[List[np.ndarray], np.ndarray]] = []
        self._terms: Dict[Tuple[int, ...], np.ndarray] = {}
        #: lifetime count of fresh array allocations (take misses + new term
        #: shapes); flat across a steady-state round = allocation-free decode
        self.allocations = 0

    def take(self, shape, dtype) -> np.ndarray:
        """Check out one uninitialised ``(shape, dtype)`` array until
        :meth:`recycle`.

        The contents are whatever the previous user left — callers overwrite
        every element (decode targets always do).
        """
        # np.dtype objects hash and compare by value, so the dtype itself is
        # the cheapest stable key component (no .str string build per take);
        # the hot caller (frame decode) always passes a tuple + np.dtype, so
        # normalization is a type check, not a conversion.
        if type(shape) is not tuple:
            shape = tuple(shape)
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        key = (shape, dtype)
        free = self._free.get(key)
        if free is None:
            free = self._free[key] = []
        if free:
            array = free.pop()
        else:
            array = np.empty(key[0], dtype=key[1])
            self.allocations += 1
        self._taken.append((free, array))
        return array

    def recycle(self) -> None:
        """Return every checked-out array to its free list.

        Call once the arrays' contents have been consumed (folded into an
        accumulator); anything still referencing them now sees volatile
        storage.
        """
        for free, array in self._taken:
            free.append(array)
        self._taken.clear()

    def term(self, shape) -> np.ndarray:
        """The persistent float64 fold-term buffer for ``shape``.

        One buffer per shape, reused across folds and rounds — never recycled
        and never handed out by :meth:`take`, so it cannot alias a decode
        array.  Only one term per shape is live at a time, which is exactly
        the fold's access pattern (multiply into it, add it, move on).
        """
        key = shape if type(shape) is tuple else tuple(shape)
        buffer = self._terms.get(key)
        if buffer is None:
            buffer = self._terms[key] = np.empty(key, dtype=np.float64)
            self.allocations += 1
        return buffer

    def __reduce__(self):
        # Scratch is pure cache: crossing a pickle boundary (server snapshots,
        # tuner payloads to training workers) ships an empty pool.
        return (type(self), ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScratchPool(free={sum(map(len, self._free.values()))}, "
                f"taken={len(self._taken)}, terms={len(self._terms)}, "
                f"allocations={self.allocations})")


_LOCAL = threading.local()


def thread_scratch() -> ScratchPool:
    """This thread's ambient :class:`ScratchPool` (created on first use).

    The default pool of the fold-job functions
    (:func:`repro.runtime.executor._fold_shard_frames` and friends) when the
    caller passes none; the pool — and the warm buffers in it — persists
    across every fold that thread runs.
    """
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _LOCAL.pool = ScratchPool()
    return pool
