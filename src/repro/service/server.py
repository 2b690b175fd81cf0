"""Long-lived aggregator servers: the fold plane as a socket service.

An :class:`AggregatorServer` is one persistent fold node of the
:class:`~repro.service.ServiceAggregationPool`.  It outlives rounds (and
runs): it keeps its round accumulators, lifetime counters and connections
between folds, and speaks the
:mod:`repro.service.protocol` messages over the length-prefixed
:mod:`repro.comm.stream` transport.  One asyncio accept loop per server
handles any number of concurrent client connections, so the shard folds and
tier-0 subtree pre-folds of one round — or of several concurrent runs — can
stream into the same server in parallel.

The fold math is deliberately *not* reimplemented here: flush requests call
the fold functions :func:`repro.runtime.executor._fold_shard_frames` /
:func:`~repro.runtime.executor._prefold_node_frames`, which stream frames
through the same strategy accumulators as the serial fold, so a service fold
is bit-identical to a serial fold (test-enforced).  Fold work runs inline on
the event loop: one fold occupies the server — the parallelism of the
service plane comes from running many servers, one per shard or subtree.

Three ways to run one:

* :meth:`AggregatorServer.run_forever` — a TCP server in *this* process
  (blocking; what :func:`serve_main` runs in spawned children);
* :func:`spawn_server` — a TCP server in a child process, with the bound
  ephemeral port reported back through a pipe and an optional line-oriented
  log file (the CI smoke uploads these on failure);
* :class:`InProcessServer` — the ``socketpair`` transport: the same accept
  logic driven by a background-thread event loop that adopts one
  ``socket.socketpair()`` end per :meth:`~InProcessServer.connect`, so
  in-host tests exercise the full protocol without touching TCP.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..comm.scratch import ScratchPool
from ..comm.stream import read_frame, write_frame
from ..obs import span_record
from .protocol import (
    OP_ADD,
    OP_ERR,
    OP_FLUSH_NODE,
    OP_FLUSH_SHARD,
    OP_HELLO,
    OP_NAMES,
    OP_OK,
    OP_PING,
    OP_RESET,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    ServiceProtocolError,
    UnknownCodecError,
    decode_message,
    encode_message,
)

#: abandoned round accumulators to retain before evicting the oldest — a
#: client that died mid-round replays under a fresh token, so its orphaned
#: accumulator is garbage the moment the replacement token appears
_MAX_PENDING_TOKENS = 32


class AggregatorServer:
    """One persistent aggregator node (see module docstring).

    The server is transport-agnostic at its core: :meth:`handle_connection`
    serves one ``(StreamReader, StreamWriter)`` pair to completion, and both
    the TCP accept loop and the in-process ``socketpair`` adapter feed it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 name: str = "aggregator", log_path: Optional[str] = None) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; rebound by start()
        self.name = name
        self.log_path = log_path
        #: round accumulators: token -> buffered (frame, staleness) pairs.
        #: This is the state that persists *between* requests — a round's
        #: updates accumulate across any number of OP_ADD chunks until a
        #: flush folds and clears them.
        self._pending: Dict[str, List[Tuple[bytes, int]]] = {}
        #: persistent decode/fold scratch shared by every fold this server
        #: ever runs — the long-lived service is the best case for scratch
        #: reuse, since the buffers stay warm *across rounds and runs*.
        #: Folds run inline on the (single) event-loop thread, so one pool
        #: per server is race-free.
        self._scratch = ScratchPool()
        self.stats: Dict[str, float] = {
            "pid": os.getpid(),
            "started_wall": time.time(),
            "connections_total": 0,
            "requests_total": 0,
            "frames_added": 0,
            "rounds_folded": 0,
            "bytes_received": 0,
            "bytes_sent": 0,
        }
        self._shutdown: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._log_handle = None

    # ---------------------------------------------------------------- logging
    def _log(self, message: str) -> None:
        if self.log_path is None:
            return
        if self._log_handle is None:
            self._log_handle = open(self.log_path, "a", encoding="utf-8")
        self._log_handle.write(
            f"{time.strftime('%H:%M:%S')} [{self.name} pid={os.getpid()}] "
            f"{message}\n")
        self._log_handle.flush()

    # ----------------------------------------------------------- request core
    def _flush_frames(self, token: str) -> List[Tuple[bytes, int]]:
        frames = self._pending.pop(token, [])
        # Every successful flush also evicts the oldest abandoned tokens so a
        # flaky client cannot grow the server without bound.
        while len(self._pending) > _MAX_PENDING_TOKENS:
            self._pending.pop(next(iter(self._pending)))
        return frames

    @staticmethod
    def _validated_pairs(raw_frames) -> List[Tuple[bytes, int]]:
        """Type- and codec-check one ADD chunk before it enters an accumulator.

        A frame declaring a codec the registry does not know raises the typed
        :class:`UnknownCodecError` *now* — at ADD time, with the offending tag
        in the message — instead of surfacing as an opaque decode failure (or
        worse, a pickle error) when the flush finally folds the round.
        """
        from ..comm import frame_codec_name, get_codec

        pairs: List[Tuple[bytes, int]] = []
        for frame, staleness in raw_frames:
            frame = bytes(frame)
            try:
                codec_name = frame_codec_name(frame)
            except ValueError as error:
                raise ServiceProtocolError(f"ADD payload is not an RWP1 "
                                           f"frame: {error}") from error
            try:
                get_codec(codec_name)
            except KeyError:
                raise UnknownCodecError(
                    f"ADD frame declares unknown codec {codec_name!r}") from None
            pairs.append((frame, int(staleness)))
        return pairs

    def handle_request(self, op: int, body) -> Tuple[int, object]:
        """Execute one request; returns the ``(op, body)`` of the response.

        Synchronous on purpose: fold work is CPU-bound, and interleaving two
        folds on one event loop would only slow both down.  Concurrency
        across *servers* (one per shard/subtree) is the service plane's
        parallelism.
        """
        from ..runtime.executor import _fold_shard_frames, _prefold_node_frames

        self.stats["requests_total"] += 1
        if op == OP_HELLO:
            version = (int(body.get("version", 0))
                       if isinstance(body, dict) else 0)
            if version != PROTOCOL_VERSION:
                raise ServiceProtocolError(
                    f"client speaks service protocol version {version}, "
                    f"this server speaks {PROTOCOL_VERSION}")
            return OP_OK, {"version": PROTOCOL_VERSION, "pid": os.getpid(),
                           "name": self.name}
        if op == OP_PING:
            return OP_OK, {"pid": os.getpid(), "name": self.name,
                           "rounds_folded": self.stats["rounds_folded"]}
        if op == OP_ADD:
            validated = self._validated_pairs(body["frames"])
            pairs = self._pending.setdefault(str(body["token"]), [])
            pairs.extend(validated)
            self.stats["frames_added"] += len(validated)
            return OP_OK, {"buffered": len(pairs)}
        if op in (OP_FLUSH_NODE, OP_FLUSH_SHARD):
            import pickle

            from ..federated.topology import tier_of_pseudo_id

            # Flush-borne final chunk (see client ``_fold_round``): the last
            # ADD chunk of a round rides the flush body, saving one round
            # trip — validated exactly like an OP_ADD chunk, and *before*
            # the accumulator pops so a codec rejection leaves the pending
            # state untouched.
            tail: List[Tuple[bytes, int]] = []
            if body.get("frames"):
                tail = self._validated_pairs(body["frames"])
                self.stats["frames_added"] += len(tail)
            frames = self._flush_frames(str(body["token"])) + tail
            strategy = pickle.loads(body["strategy"])
            references = body.get("references")
            wall_start = time.time()
            perf_start = time.perf_counter()
            if op == OP_FLUSH_NODE:
                pseudo_id = int(body["pseudo_id"])
                result: object = _prefold_node_frames(
                    strategy, pseudo_id, frames, references,
                    scratch=self._scratch)
                record_name, attrs = "prefold_node", {
                    "node": int(body["node"]),
                    "tier": tier_of_pseudo_id(pseudo_id)}
            else:
                result = _fold_shard_frames(
                    strategy, frames, references, scratch=self._scratch)
                record_name, attrs = "fold_shard", {"shard": int(body["shard"])}
            self.stats["rounds_folded"] += 1
            record = None
            if body.get("timed"):
                record = span_record(
                    record_name, "fold", wall_start,
                    time.perf_counter() - perf_start,
                    num_updates=len(frames), worker_pid=os.getpid(),
                    transport="service", server=self.name, **attrs)
            self._log(f"{OP_NAMES[op]}: folded {len(frames)} frame(s)")
            return OP_OK, {"result": result, "record": record}
        if op == OP_RESET:
            dropped = sum(len(pairs) for pairs in self._pending.values())
            self._pending.clear()
            self._log(f"reset: dropped {dropped} buffered frame(s)")
            return OP_OK, {"dropped_frames": dropped}
        if op == OP_STATS:
            return OP_OK, dict(self.stats, pending_tokens=len(self._pending))
        if op == OP_SHUTDOWN:
            self._log("shutdown requested")
            if self._shutdown is not None:
                self._shutdown.set()
            return OP_OK, {}
        raise ServiceProtocolError(f"server cannot handle op {op}")

    # ------------------------------------------------------------ connections
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one client connection until it closes (or shutdown)."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.stats["connections_total"] += 1
        self._log("connection opened")
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break  # clean close between requests
                self.stats["bytes_received"] += len(frame)
                try:
                    op, body = decode_message(frame)
                    response = encode_message(*self.handle_request(op, body))
                except Exception as error:  # surfaced client-side, not fatal here
                    self._log(f"request failed: {error!r}")
                    response = encode_message(OP_ERR, {
                        "error": str(error), "type": type(error).__name__})
                self.stats["bytes_sent"] += await write_frame(writer, response)
        except ConnectionError as error:
            # Includes TruncatedFrameError: the client died mid-request.  Its
            # round token is now orphaned and will be evicted, never folded.
            self._log(f"connection lost: {error!r}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._log("connection closed")

    # -------------------------------------------------------------- TCP serve
    async def start(self) -> None:
        """Bind the TCP accept loop (resolving an ephemeral port request)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self.handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(f"listening on {self.host}:{self.port}")

    async def serve_until_shutdown(self) -> None:
        """Accept until OP_SHUTDOWN, then drain open connections and exit."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        async with self._server:
            await self._shutdown.wait()
        # Graceful drain: accepting has stopped; let open handle_connection
        # tasks run to completion (the shutdown requester got its ack before
        # the event fired, so it closes its end promptly) rather than leave
        # them for asyncio.run's teardown cancellation.
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=5.0)
        self._log("server stopped")
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None

    def run_forever(self) -> None:
        """Blocking entry point: serve TCP until a shutdown request."""
        asyncio.run(self.serve_until_shutdown())


# ------------------------------------------------------------ child processes
_PARENT_POLL_S = 1.0


def _detach_stdio() -> None:
    """Point the server child's stdio at /dev/null.

    A spawned server inherits whatever stdin/stdout/stderr the run was
    launched with.  If that is a pipe (CI step, ``cmd | tail``) and the run
    is hard-killed, the orphaned server would keep the pipe's write end open
    and the reader would never see EOF — the CI step hangs until its timeout
    instead of failing fast.  The server never talks on stdio anyway (all
    diagnostics go to ``log_path``).
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        try:
            os.dup2(devnull, fd)
        except OSError:
            pass
    os.close(devnull)


def serve_main(conn, host: str, name: str, log_path: Optional[str],
               parent_pid: Optional[int] = None) -> None:
    """Child-process entry: serve TCP, reporting the bound port over ``conn``."""
    _detach_stdio()
    server = AggregatorServer(host=host, name=name, log_path=log_path)

    async def watch_parent() -> None:
        # Orphan self-termination: daemon children are only reaped by the
        # parent's atexit machinery, which an os._exit / SIGKILL / OOM kill
        # skips entirely.  A server that outlives the run it folds for is
        # pure leak, so poll the ppid and stop serving once it changes
        # (reparented to init/subreaper = parent is gone).
        assert server._shutdown is not None
        while os.getppid() == parent_pid:
            await asyncio.sleep(_PARENT_POLL_S)
        server._log(f"parent pid {parent_pid} is gone; shutting down")
        server._shutdown.set()

    async def main() -> None:
        await server.start()
        conn.send((server.host, server.port))
        conn.close()
        watchdog = (asyncio.ensure_future(watch_parent())
                    if parent_pid is not None else None)
        await server.serve_until_shutdown()
        if watchdog is not None:
            watchdog.cancel()

    asyncio.run(main())


class ServerProcess:
    """Handle on one spawned TCP aggregator server (see :func:`spawn_server`)."""

    def __init__(self, process, host: str, port: int, name: str,
                 log_path: Optional[str]) -> None:
        self.process = process
        self.host = host
        self.port = port
        self.name = name
        self.log_path = log_path

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-kill the server process (SIGKILL; no drain, no cleanup)."""
        self.process.kill()
        self.process.join()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


def spawn_server(host: str = "127.0.0.1", *, name: str = "aggregator",
                 log_dir: Optional[str] = None,
                 start_timeout_s: float = 30.0) -> ServerProcess:
    """Start one TCP aggregator server in a child process and await its port."""
    import multiprocessing

    log_path = None
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
        log_path = os.path.join(log_dir, f"{name}.log")
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=serve_main, args=(child_conn, host, name, log_path, os.getpid()),
        name=f"repro-service-{name}", daemon=True)
    process.start()
    child_conn.close()
    if not parent_conn.poll(start_timeout_s):
        process.terminate()
        process.join()
        raise ConnectionError(
            f"aggregator server {name!r} did not report a port within "
            f"{start_timeout_s}s")
    bound_host, bound_port = parent_conn.recv()
    parent_conn.close()
    return ServerProcess(process, bound_host, bound_port, name, log_path)


# --------------------------------------------------------------- socketpair
class InProcessServer:
    """The ``socketpair`` transport: one server on a background-thread loop.

    Each :meth:`connect` creates a ``socket.socketpair()``, hands the server
    side to the event loop (which serves it with the same
    :meth:`AggregatorServer.handle_connection` as TCP), and returns the
    client side — so in-host tests cover the full accept-loop/protocol path
    with zero network configuration.
    """

    def __init__(self, *, name: str = "aggregator",
                 log_path: Optional[str] = None) -> None:
        self.server = AggregatorServer(name=name, log_path=log_path)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def name(self) -> str:
        return self.server.name

    def start(self) -> "InProcessServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name=f"repro-service-{self.name}", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ConnectionError(
                f"in-process server {self.name!r} event loop did not start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self.server._shutdown = asyncio.Event()
        self._ready.set()
        await self.server._shutdown.wait()
        # Drain: let adopted-connection tasks finish before the loop dies.
        tasks = [task for task in asyncio.all_tasks()
                 if task is not asyncio.current_task()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def connect(self) -> socket.socket:
        """A new connected client socket served by this server."""
        self.start()
        client_side, server_side = socket.socketpair()

        def adopt() -> None:
            async def serve() -> None:
                reader, writer = await asyncio.open_connection(sock=server_side)
                await self.server.handle_connection(reader, writer)

            asyncio.ensure_future(serve())

        assert self._loop is not None
        self._loop.call_soon_threadsafe(adopt)
        return client_side

    def close(self) -> None:
        """Stop the loop thread (idempotent; pending connections drain)."""
        thread, self._thread = self._thread, None
        if thread is None or self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: self.server._shutdown is not None
                and self.server._shutdown.set())
        except RuntimeError:
            pass  # loop already stopped (e.g. a client's OP_SHUTDOWN landed)
        thread.join(timeout=30.0)
