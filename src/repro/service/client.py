"""Blocking client for one aggregator server, with reconnect/retry/timeout.

A :class:`ServiceClient` owns one connection to one
:class:`~repro.service.server.AggregatorServer` (dialed lazily through a
``connect()`` factory, so TCP, ``socketpair`` and respawn-on-death transports
all look the same) and turns protocol round trips into method calls.

Failure handling is transactional at *round* granularity: a fold round is an
``OP_ADD`` chunk sequence followed by one flush, and the client buffers
nothing — the pool hands it the round's frames, so when the connection dies
anywhere inside the round (``ConnectionError``, a socket timeout, a
mid-frame :class:`~repro.comm.TruncatedFrameError`), the client reconnects
with backoff and replays the whole round under a **fresh token**.  The dead
attempt's half-accumulated state is thereby orphaned server-side (never
folded, evicted at the server's next flush), which is what makes retries
safe: a round folds from exactly one complete token or not at all.

The ADD sequence is *pipelined*: up to ``window`` chunks ride the connection
before the client reads an acknowledgement (the server answers every request,
in order, so the sender drains exactly as many acks as it sent before the
flush round-trips), and the round's *final* chunk rides the flush body
itself — so a round that fits one chunk (every tree-node prefold in
practice) is a single request/response, and every round saves one round
trip.  On TCP this removes the per-chunk RTT stall from the fold critical
path; correctness is unchanged because the whole-round-replay semantics
above never depended on *when* an ack is read — a connection that dies with
a window in flight just replays the round.  Each (re)connect opens
with an ``OP_HELLO`` version handshake, so mismatched peers fail fast with a
typed :class:`~repro.service.protocol.ServiceProtocolError` (never retried)
instead of corrupting a round.

Retries assume the ``connect`` factory can produce a working connection
again — for spawned servers the pool's factory respawns a dead process
first, which is how a hard-killed server mid-round heals (the CI
``service-smoke`` lane exercises exactly this).  When attempts are
exhausted, :class:`ServiceUnavailableError` surfaces to the run loop.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..comm.stream import FrameStream
from .protocol import (
    OP_ADD,
    OP_ERR,
    OP_FLUSH_NODE,
    OP_FLUSH_SHARD,
    OP_HELLO,
    OP_OK,
    OP_PING,
    OP_RESET,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    ServiceError,
    ServiceProtocolError,
    UnknownCodecError,
    decode_message,
    encode_message,
)

#: frames per OP_ADD chunk: small enough that a round is a multi-request
#: streaming conversation (exercising the accumulator-between-requests path),
#: large enough that envelope overhead stays negligible
DEFAULT_CHUNK_FRAMES = 32

#: OP_ADD chunks in flight before the sender waits for an acknowledgement;
#: bounded so a slow server applies backpressure through the window rather
#: than through unbounded client-side socket buffering
DEFAULT_WINDOW = 8


class ServiceUnavailableError(ConnectionError):
    """Every connect/retry attempt against an aggregator server failed."""


class ServiceClient:
    """One retrying connection to one aggregator server (see module docstring).

    Not thread-safe: the pool serializes access per client with one lock per
    server connection.
    """

    def __init__(self, connect: Callable[[], "FrameStream"], *,
                 name: str = "server0",
                 retry_attempts: int = 3, retry_delay_s: float = 0.05,
                 timeout_s: float = 30.0,
                 chunk_frames: int = DEFAULT_CHUNK_FRAMES,
                 window: int = DEFAULT_WINDOW) -> None:
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        self._connect = connect
        self.name = name
        self.retry_attempts = int(retry_attempts)
        self.retry_delay_s = float(retry_delay_s)
        self.timeout_s = float(timeout_s)
        self.chunk_frames = int(chunk_frames)
        self.window = int(window)
        self._stream: Optional[FrameStream] = None
        self._token_counter = 0
        #: lifetime transport counters, drained into ``repro_service_*``
        #: metrics by the pool
        self.stats: Dict[str, int] = {
            "connections": 0, "reconnects": 0, "requests": 0,
            "bytes_sent": 0, "bytes_received": 0, "retried_rounds": 0,
        }

    # ------------------------------------------------------------- connection
    def _ensure_stream(self) -> FrameStream:
        if self._stream is None or self._stream.closed:
            stream = self._connect()
            stream.settimeout(self.timeout_s)
            self._stream = stream
            self.stats["connections"] += 1
            # Version handshake before anything else rides this connection: a
            # server speaking another protocol version rejects it with a
            # typed ServiceProtocolError (pre-versioning servers reject the
            # unknown op the same way), which is NOT retried — mismatched
            # peers fail fast instead of replaying a round they can never
            # complete.
            self._round_trip(OP_HELLO, {"version": PROTOCOL_VERSION})
        return self._stream

    def _drop_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def close(self) -> None:
        """Close the connection (idempotent; redialed lazily on next use)."""
        self._drop_stream()

    # --------------------------------------------------------------- requests
    def _send_request(self, stream: FrameStream, op: int, body) -> None:
        """Ship one request frame without waiting for its response."""
        sent_before = stream.bytes_sent
        try:
            stream.send_frame(encode_message(op, body))
        finally:
            self.stats["bytes_sent"] += stream.bytes_sent - sent_before

    def _recv_response(self, stream: FrameStream) -> object:
        """Read + check the next (in-order) response on the stream."""
        received_before = stream.bytes_received
        try:
            # Zero-copy receive: the view aliases the stream's reusable
            # buffer, and decode_message below fully materialises op + body
            # (pickle copies what it keeps) before the next receive reuses it.
            response = stream.recv_frame_view()
        finally:
            self.stats["bytes_received"] += stream.bytes_received - received_before
        if response is None:
            raise ConnectionError(
                f"server {self.name!r} closed the connection mid-request")
        self.stats["requests"] += 1
        response_op, response_body = decode_message(response)
        if response_op == OP_ERR:
            kind = (response_body.get("type")
                    if isinstance(response_body, dict) else None)
            detail = (f"{kind}: {response_body.get('error')}"
                      if isinstance(response_body, dict) else str(response_body))
            message = f"server {self.name!r} request failed: {detail}"
            # Re-raise the server's typed protocol failures as themselves so
            # callers can tell "this pairing can never work" (version/codec
            # mismatch — fail fast, never retried) from a generic fold error.
            if kind == "UnknownCodecError":
                raise UnknownCodecError(message)
            if kind == "ServiceProtocolError":
                raise ServiceProtocolError(message)
            raise ServiceError(message)
        if response_op != OP_OK:
            raise ServiceError(
                f"server {self.name!r} sent unexpected response op "
                f"{response_op}")
        return response_body

    def _round_trip(self, op: int, body) -> object:
        """One request/response on the live stream (no retry at this level)."""
        stream = self._ensure_stream()
        self._send_request(stream, op, body)
        return self._recv_response(stream)

    def _with_retries(self, transaction: Callable[[], object]) -> object:
        """Run ``transaction`` (one or more round trips), replaying it whole
        on connection failure, with backoff, up to ``retry_attempts``."""
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry_attempts):
            if attempt:
                self.stats["reconnects"] += 1
                time.sleep(self.retry_delay_s * attempt)
            try:
                return transaction()
            except (ConnectionError, OSError) as error:
                # Covers socket timeouts (TimeoutError is an OSError) and
                # TruncatedFrameError (a ConnectionError): the attempt's
                # token dies with the connection; the replay gets a new one.
                last_error = error
                self._drop_stream()
        raise ServiceUnavailableError(
            f"server {self.name!r} unreachable after {self.retry_attempts} "
            f"attempt(s): {last_error!r}") from last_error

    def call(self, op: int, body=None):
        """One retried request (for the single-round-trip ops)."""
        return self._with_retries(lambda: self._round_trip(op, body))

    # ------------------------------------------------------------ service API
    def ping(self) -> Dict:
        return self.call(OP_PING)

    def server_stats(self) -> Dict:
        return self.call(OP_STATS)

    def reset(self) -> Dict:
        return self.call(OP_RESET)

    def shutdown(self) -> None:
        """Graceful drain: ack'd stop; the server exits after this returns."""
        try:
            self.call(OP_SHUTDOWN)
        except (ServiceUnavailableError, ServiceError):
            pass  # already dead (or dying) is a successful shutdown
        self._drop_stream()

    def _next_token(self) -> str:
        self._token_counter += 1
        return f"{id(self)}-{self._token_counter}"

    def _fold_round(self, frames: Sequence[Tuple[bytes, int]], flush_op: int,
                    flush_body: Dict) -> Tuple[object, Optional[dict]]:
        """ADD-chunk the round's frames (pipelined), flush, return the result.

        Up to :attr:`window` ADD chunks are in flight before an ack is read;
        every outstanding ack is drained before the flush round-trips, so a
        fold never flushes past an unacknowledged window.  Chunks are encoded
        and sent one at a time (never pre-encoded as a batch: on a
        shared-CPU host that would serialize all client-side encoding ahead
        of the server's ingest), and the final chunk rides the flush body —
        a ≤ ``chunk_frames`` round is one single request/response.  Any
        failure inside the window — including an error ack for an *earlier*
        chunk — aborts the attempt and the round replays whole under a fresh
        token.
        """

        def transaction():
            token = self._next_token()  # fresh per attempt (see module docstring)
            stream = self._ensure_stream()
            chunks = [list(frames[start:start + self.chunk_frames])
                      for start in range(0, len(frames), self.chunk_frames)]
            flush = dict(flush_body, token=token)
            if chunks:
                flush["frames"] = chunks.pop()  # final chunk rides the flush
            inflight = 0
            for chunk in chunks:
                if inflight >= self.window:
                    self._recv_response(stream)
                    inflight -= 1
                self._send_request(stream, OP_ADD,
                                   {"token": token, "frames": chunk})
                inflight += 1
            while inflight:
                self._recv_response(stream)
                inflight -= 1
            body = self._round_trip(flush_op, flush)
            return body["result"], body.get("record")

        reconnects_before = self.stats["reconnects"]
        result = self._with_retries(transaction)
        if self.stats["reconnects"] != reconnects_before:
            self.stats["retried_rounds"] += 1
        return result

    @staticmethod
    def _pickle_strategy(strategy) -> bytes:
        from ..federated.strategies import picklable_strategy

        return pickle.dumps(picklable_strategy(strategy),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def prefold_node(self, strategy, node: int, pseudo_id: int,
                     frames: Sequence[Tuple[bytes, int]], timed: bool = False,
                     references: Optional[Dict] = None,
                     ) -> Tuple[List[bytes], Optional[dict]]:
        """Fold one tree node's framed updates into partial frames.

        ``references`` maps ``(layer, expert)`` keys to fp64 reference frames
        for any reference-requiring codec among ``frames``; it rides the flush
        body — not the ADDs — so a replayed round reships it automatically and
        the server stores nothing per-token.
        """
        body = {"strategy": self._pickle_strategy(strategy),
                "node": int(node), "pseudo_id": int(pseudo_id), "timed": timed}
        if references:
            body["references"] = references
        return self._fold_round(frames, OP_FLUSH_NODE, body)

    def fold_shard(self, strategy, shard: int,
                   frames: Sequence[Tuple[bytes, int]], timed: bool = False,
                   references: Optional[Dict] = None,
                   ) -> Tuple[List[Tuple[Tuple[int, int], bytes, int]],
                              Optional[dict]]:
        """Fold one shard's framed updates into per-key aggregate frames.

        ``references`` semantics match :meth:`prefold_node`.
        """
        body = {"strategy": self._pickle_strategy(strategy),
                "shard": int(shard), "timed": timed}
        if references:
            body["references"] = references
        return self._fold_round(frames, OP_FLUSH_SHARD, body)
