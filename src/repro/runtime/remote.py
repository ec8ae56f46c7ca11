"""Remote generation workers over a pluggable transport, with crash recovery.

`SimulatorBackend` executes generations inside the calling process: one
worker crash (OOM, native-extension fault, operator SIGKILL) takes the
whole sweep shard down with it, and a GIL-bound kernel caps throughput
at one core no matter how many threads run it. This module moves execution out of process — and,
over sockets, onto other machines:

:class:`ProcessBackend` (the supervisor)
    Manages a fleet of workers, each a request-serving loop over framed,
    length-prefixed IPC on one connected socket (:class:`SocketTransport`).
    Every local worker is spawned the same way: the child end of a
    ``socket.socketpair()`` is its stdin, and its stdout/stderr go to a
    per-worker log. The transport only decides whether the supervisor
    *also* listens for workers it did not spawn:

    * ``transport="pipe"`` (default) — spawned workers only, no listener;
    * ``transport="unix"`` / ``transport="tcp"`` — the supervisor also
      binds a listening socket and adopts external
      ``repro-worker --connect <address>`` processes on any machine that
      can reach the address.

    Every worker introduces itself with an identity/capabilities
    ``hello`` and sends periodic ``heartbeat`` frames.

    Batches are scheduled by observed per-worker latency: each worker
    carries an EWMA of its request round-trip times and every request
    goes to the worker with the lowest expected completion time
    (``ewma × (in-flight + 1)``), so a slow or remote worker naturally
    receives less traffic than a fast local one. Worker lifecycle is
    managed end to end: liveness is checked before every batch (plus an
    explicit :meth:`ProcessBackend.ping` health check), a crashed or
    disconnected worker is replaced within a restart budget, and every
    request that was in flight on a dead worker is requeued to a
    surviving worker. Each request resolves exactly once — a kill can
    delay a generation but never lose or duplicate one.

Wire protocol
-------------
Frames are ``4-byte big-endian length + payload``. The first frame, the
worker's ``hello``, is a JSON object of at most 64 KiB (anything else is
dropped unread): the supervisor reads it before it knows who is talking,
so it is never unpickled. Every later payload is a pickled message dict
tagged with ``"op"``::

    worker -> supervisor: {"op": "hello", "pid": ..., "host": ...,
                           "token": ..., "capabilities": {...}}   (JSON)
    supervisor -> worker: {"op": "init", "llm": TransparentLLM}
    worker -> supervisor: {"op": "ready", "pid": ...}
    supervisor -> worker: {"op": "generate", "id": n, "request": GenerationRequest}
    worker -> supervisor: {"op": "result", "id": n, "trace": GenerationTrace}
                          | {"op": "error", "id": n, "error": traceback str}
    supervisor -> worker: {"op": "ping", "id": n}   -> {"op": "pong", "id": n}
    worker -> supervisor: {"op": "heartbeat", "pid": ...}
    worker -> supervisor: {"op": "draining", "pid": ...}   (SIGTERM received)
    supervisor -> worker: {"op": "goodbye", "reason": ...} (hello rejected)
    supervisor -> worker: {"op": "shutdown"}        (or EOF)

Every result — hidden-state tensor included — travels as one framed
pickle. A :class:`~repro.llm.model.GenerationTrace` pickles its
``hidden_stack`` once and rebuilds the per-step ``hidden`` rows as views
of it on load, so a result frame carries one copy of the tensor.

Hardening: a hello not received within ``startup_timeout_s`` is dropped. The
supervisor can carry a ``fleet_token`` — external hellos must present it
(compared with ``hmac.compare_digest``) or the connection is dropped
before any pickle of ours reaches the peer. A ``request_timeout_s``
deadline bounds every ``generate`` wait; an expired request raises
:class:`~repro.runtime.service.DeadlineExceeded` to its caller while the
supervisor disowns the in-flight id — the late result is absorbed (not a
duplicate) and a later crash will not requeue it. ``SIGTERM`` to a
worker (or :meth:`ProcessBackend.drain`) starts a graceful drain: the
worker stops receiving new dispatch, finishes its in-flight requests,
and deregisters with zero requeues — the rolling restart primitive.

Pickle round-trips numpy arrays bit-exactly and traces are pure
functions of their requests, so :class:`ProcessBackend` is byte-identical
to :class:`~repro.runtime.service.SimulatorBackend` on every transport —
the ``--backend process`` axis changes *where* a generation runs, never
a single summary byte. ``identity()`` is the simulator identity tuple,
so all backends share one persistent-cache namespace.

A spawned worker's frame channel is its socketpair, not its stdout: its
stdout and stderr are captured per worker under ``log_dir`` (defaulted
to a fresh temp directory so crash forensics always exist), so a stray
``print`` can never corrupt the protocol. The
``REPRO_WORKER_CHAOS_DELAY_MS`` environment variable makes each worker
sleep that long before every generation — a fault-injection knob used by
the kill-recovery tests and the CI smoke jobs to hold a batch open long
enough to crash a worker mid-flight.
"""

from __future__ import annotations

import argparse
import errno
import hmac
import json
import os
import pickle
import signal
import socket
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.llm.model import GenerationTrace, TransparentLLM
from repro.runtime.service import (
    FLEET_TOKEN_ENV,
    FORCED,
    FREE,
    PIPE_TRANSPORT,
    TCP_TRANSPORT,
    TRANSPORTS,
    UNIX_TRANSPORT,
    DeadlineExceeded,
    effective_timeout,
    parse_address,
    simulator_identity,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import GenerationRequest

__all__ = [
    "CHAOS_DELAY_ENV",
    "DEFAULT_HEARTBEAT_S",
    "HELLO_MAX_BYTES",
    "ProcessBackend",
    "SocketTransport",
    "SupervisorStats",
    "WorkerCrashError",
    "WorkerError",
    "build_worker_parser",
    "connect_address",
    "create_listener",
    "main_worker",
    "parse_address",
    "read_frame",
    "recv_message",
    "send_message",
    "socket_worker_main",
    "write_frame",
]

CHAOS_DELAY_ENV = "REPRO_WORKER_CHAOS_DELAY_MS"
DEFAULT_HEARTBEAT_S = 2.0
HELLO_MAX_BYTES = 64 * 1024

_HEADER = struct.Struct(">I")


class WorkerError(RuntimeError):
    """A worker computed a generation and raised; the traceback travels."""


class WorkerCrashError(RuntimeError):
    """Workers died faster than the restart budget could replace them."""


# -- framing ------------------------------------------------------------------


def _read_exact(stream, n: int) -> "bytes | None":
    """``n`` bytes from ``stream``, or None on EOF (torn reads included)."""
    chunks = []
    while n:
        chunk = stream.read(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def write_frame(stream, payload: bytes) -> None:
    """One length-prefixed frame, flushed so the peer sees it now."""
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def read_frame(stream, max_length: "int | None" = None) -> "bytes | None":
    """The next frame payload, or None on EOF / a torn partial frame.

    A frame cut short by a dying peer is indistinguishable from EOF on
    purpose: both mean "this channel is done", never a corrupt message.
    A header announcing more than ``max_length`` bytes is None too, with
    no payload read.
    """
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if max_length is not None and length > max_length:
        return None
    if length == 0:
        return b""
    return _read_exact(stream, length)


def send_message(stream, message: dict) -> None:
    write_frame(stream, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def recv_message(stream) -> "dict | None":
    payload = read_frame(stream)
    if payload is None:
        return None
    return pickle.loads(payload)


# -- addresses ----------------------------------------------------------------


def connect_address(address: str) -> socket.socket:
    """A connected socket to a supervisor at ``address``."""
    kind, target = parse_address(address)
    if kind == UNIX_TRANSPORT:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(target)
        return sock
    return socket.create_connection(target)


def _refuses_connect(path: str) -> bool:
    """Is ``path`` a socket node nobody listens on (a killed supervisor's)?"""
    if not stat.S_ISSOCK(os.lstat(path).st_mode):
        return False
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except ConnectionRefusedError:
            return True
        except OSError:
            return False
    return False


def create_listener(transport: str, address: "str | None") -> tuple:
    """A bound, listening socket plus its canonical address string.

    With no explicit ``address``, unix sockets bind in a fresh temp
    directory and TCP binds an ephemeral localhost port — both printed
    back as the address workers should ``--connect`` to. A unix path a
    killed supervisor left behind is reclaimed only when its socket node
    refuses ``connect``: a live supervisor's address still raises.
    """
    if transport not in (UNIX_TRANSPORT, TCP_TRANSPORT):
        raise ValueError(f"transport {transport!r} has no listener")
    family = socket.AF_UNIX if transport == UNIX_TRANSPORT else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        if transport == UNIX_TRANSPORT:
            if address is not None:
                path = parse_address(address)[1]
            else:
                path = str(Path(tempfile.mkdtemp(prefix="repro-sup-")) / "supervisor.sock")
            try:
                sock.bind(path)
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE or not _refuses_connect(path):
                    raise
                os.unlink(path)
                sock.bind(path)
            canonical = f"unix:{path}"
        else:
            host, port = parse_address(address)[1] if address is not None else ("127.0.0.1", 0)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            bound_host, bound_port = sock.getsockname()[:2]
            canonical = f"tcp:{bound_host}:{bound_port}"
        sock.listen()
    except BaseException:
        sock.close()  # a failed bind must not leak the socket
        raise
    return sock, canonical


# -- the transport ------------------------------------------------------------


class SocketTransport:
    """Framed IPC over one connected socket: a spawned worker's
    socketpair or an external worker's unix-domain / TCP connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._closed = False

    def send(self, message: dict) -> None:
        send_message(self._wfile, message)

    def send_bytes(self, payload: bytes) -> None:
        write_frame(self._wfile, payload)

    def recv(self) -> "dict | None":
        try:
            return recv_message(self._rfile)
        except Exception:  # repro-lint: ignore[exception-hygiene] closed under us / torn pickle == dead peer; None triggers recovery
            return None

    def send_hello(self, hello: dict) -> None:
        write_frame(self._wfile, json.dumps(hello).encode("utf-8"))

    def recv_hello(self, timeout_s: float) -> "dict | None":
        """The peer's hello: one JSON-object frame of at most
        :data:`HELLO_MAX_BYTES`, read within ``timeout_s``.

        None for silence, EOF, an oversized length header (refused before
        any payload read) or a payload that is not a JSON object. The
        hello is never unpickled: nothing the peer sends runs code here.
        """
        try:
            self.sock.settimeout(timeout_s)
            payload = read_frame(self._rfile, max_length=HELLO_MAX_BYTES)
            self.sock.settimeout(None)
            hello = json.loads(payload) if payload is not None else None
        except (OSError, ValueError):  # timeout, reset, not JSON / UTF-8
            return None
        return hello if isinstance(hello, dict) else None

    def alive(self) -> bool:
        return not self._closed

    def begin_shutdown(self) -> None:
        """Half-close the write side so the peer's recv sees EOF."""
        try:
            self._wfile.flush()
            self.sock.shutdown(socket.SHUT_WR)
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for resource in (self._rfile, self._wfile, self.sock):
            try:
                resource.close()
            except (OSError, ValueError):
                pass


# -- the worker loops ---------------------------------------------------------


def _serve_requests(recv: Callable, send: Callable, llm) -> int:
    """The worker's request loop: generate/ping until EOF or shutdown.

    Request-level failures are reported as ``error`` messages (the loop
    keeps serving); only a broken channel or a shutdown message ends it.
    ``send`` must be safe to call from this thread while heartbeats (if
    any) use the same lock-wrapped callable from theirs.
    """
    chaos_delay = float(os.environ.get(CHAOS_DELAY_ENV, "0") or 0) / 1000.0
    while True:
        message = recv()
        if message is None or message.get("op") == "shutdown":
            return 0
        op = message.get("op")
        if op == "ping":
            send({"op": "pong", "id": message["id"]})
            continue
        if op != "generate":
            continue  # future-proofing: unknown supervisor ops are ignored
        request = message["request"]
        try:
            if chaos_delay:
                time.sleep(chaos_delay)
            if request.kind == FORCED:
                trace = llm.teacher_forced_trace(request.instance)
            else:
                trace = llm.generate(request.instance)
        except Exception:
            send(
                {"op": "error", "id": message["id"], "error": traceback.format_exc()}
            )
            continue
        send({"op": "result", "id": message["id"], "trace": trace})


def _drain_notifier(send: Callable, drain_event: threading.Event) -> None:
    """Announce drain intent upstream once the SIGTERM flag trips.

    The signal handler only sets the event — sending from the handler
    itself could re-enter the write lock mid-frame and deadlock — so
    this daemon thread does the actual (locked) send. The worker keeps
    serving until the supervisor answers with ``shutdown`` / EOF.
    """
    drain_event.wait()
    try:
        send({"op": "draining", "pid": os.getpid()})
    except (OSError, ValueError):
        pass  # channel gone: the main loop is exiting anyway


def _heartbeat_loop(send: Callable, stop: threading.Event, interval_s: float) -> None:
    while not stop.wait(interval_s):
        try:
            send({"op": "heartbeat", "pid": os.getpid()})
        except (OSError, ValueError):
            return  # channel gone: the main loop is exiting too


def socket_worker_main(
    sock: socket.socket,
    token: "str | None" = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    drain_event=None,
) -> int:
    """Register with the supervisor on ``sock`` and serve its requests.

    This is the one worker loop, whether ``sock`` is the socketpair a
    supervisor spawned us on or an external ``--connect`` dial: the
    hello frame carries the worker's identity (pid, host), capabilities
    and the fleet ``token`` (checked for external joins only), the
    supervisor answers with the init message, and a daemon thread
    heartbeats every ``heartbeat_s`` seconds so the supervisor can tell
    a slow worker from a dead link. ``drain_event`` triggers the
    graceful-drain announcement (see :func:`_drain_notifier`).
    """
    transport = SocketTransport(sock)
    write_lock = threading.Lock()

    def send(message: dict) -> None:
        with write_lock:
            transport.send(message)

    try:
        transport.send_hello(
            {
                "op": "hello",
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "token": token,
                "capabilities": {"kinds": [FREE, FORCED]},
            }
        )
        init = transport.recv()
        if isinstance(init, dict) and init.get("op") == "goodbye":
            # The supervisor's polite rejection (fleet full, bad token):
            # report its reason and exit cleanly instead of retrying.
            reason = init.get("reason") or "no reason given"
            print(f"repro-worker: rejected by supervisor: {reason}", file=sys.stderr)
            return 1
        if init is None or init.get("op") != "init":
            print("repro-worker: no init message; exiting", file=sys.stderr)
            return 1
        llm = init["llm"]
        stop = threading.Event()
        if heartbeat_s > 0:
            threading.Thread(
                target=_heartbeat_loop,
                args=(send, stop, heartbeat_s),
                name="repro-worker-heartbeat",
                daemon=True,
            ).start()
        if drain_event is not None:
            threading.Thread(
                target=_drain_notifier,
                args=(send, drain_event),
                name="repro-worker-drain",
                daemon=True,
            ).start()
        send({"op": "ready", "pid": os.getpid()})
        try:
            return _serve_requests(transport.recv, send, llm)
        finally:
            stop.set()
    finally:
        transport.close()


WORKER_EPILOG = """\
examples:
  # join a supervisor listening on a unix-domain socket (same machine)
  repro-worker --connect unix:/tmp/repro-sup-abc/supervisor.sock

  # join a supervisor on another machine over TCP
  repro-worker --connect tcp:10.0.0.5:7431

Without --connect the worker serves the connected socket on its stdin:
the socketpair ProcessBackend spawns every local worker on. Any other
stdin is an error. Generations are byte-identical on every transport;
REPRO_WORKER_CHAOS_DELAY_MS delays each generation for fault-injection
testing.
"""


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="A generation worker serving a ProcessBackend supervisor.",
        epilog=WORKER_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--connect",
        default=None,
        help="supervisor address (unix:/path or tcp:host:port); omit only "
        "when stdin is a connected socket (a ProcessBackend-spawned worker)",
    )
    parser.add_argument(
        "--fleet-token",
        default=None,
        help="shared secret for joining a --fleet-token supervisor "
        f"(default: the {FLEET_TOKEN_ENV} environment variable, if set)",
    )
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=DEFAULT_HEARTBEAT_S,
        help="heartbeat interval (0 disables)",
    )
    return parser


def main_worker(argv: "list[str] | None" = None) -> int:
    args = build_worker_parser().parse_args(argv)
    # SIGTERM means drain, not die: set a flag the notifier thread turns
    # into a ``draining`` frame, keep serving until shutdown/EOF.
    drain_event = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda _signum, _frame: drain_event.set())
    except ValueError:  # not the main thread (embedded use): no handler
        pass
    try:
        sock = connect_address(args.connect) if args.connect is not None else socket.socket(fileno=0)
    except OSError as exc:
        source = args.connect or "stdin (not a connected socket; pass --connect ADDRESS)"
        print(f"repro-worker: no supervisor on {source}: {exc}", file=sys.stderr)
        return 1
    return socket_worker_main(
        sock,
        token=args.fleet_token or os.environ.get(FLEET_TOKEN_ENV) or None,
        heartbeat_s=args.heartbeat_s,
        drain_event=drain_event,
    )


# -- the supervisor -----------------------------------------------------------


@dataclass(frozen=True)
class SupervisorStats:
    """Lifecycle bookkeeping for one :class:`ProcessBackend`."""

    n_workers: int
    n_alive: int
    n_spawned: int
    n_restarts: int
    n_requeued: int
    n_duplicate_results: int
    transport: str = PIPE_TRANSPORT
    n_external: int = 0
    n_heartbeats: int = 0
    n_deadline_exceeded: int = 0
    n_draining: int = 0
    n_drained: int = 0
    n_rejected_hellos: int = 0

    def as_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "n_alive": self.n_alive,
            "n_spawned": self.n_spawned,
            "n_restarts": self.n_restarts,
            "n_requeued": self.n_requeued,
            "n_duplicate_results": self.n_duplicate_results,
            "transport": self.transport,
            "n_external": self.n_external,
            "n_heartbeats": self.n_heartbeats,
            "n_deadline_exceeded": self.n_deadline_exceeded,
            "n_draining": self.n_draining,
            "n_drained": self.n_drained,
            "n_rejected_hellos": self.n_rejected_hellos,
        }


class _Pending:
    """One dispatched request waiting for its result."""

    __slots__ = ("request", "worker", "event", "value", "error", "sent_at", "request_id")

    def __init__(self, request):
        self.request = request
        self.worker: "_Worker | None" = None
        self.event = threading.Event()
        self.value = None
        self.error: "BaseException | None" = None
        self.sent_at: "float | None" = None
        # The id of the *latest* dispatch (requeue reallocates ids);
        # deadline expiry uses it to disown exactly the in-flight copy.
        self.request_id: "int | None" = None

    def resolve(self, value=None, error=None) -> None:
        self.value = value
        self.error = error
        self.event.set()


# EWMA smoothing for per-worker request latency (higher = more reactive).
_EWMA_ALPHA = 0.3


class _Worker:
    """One fleet member: transport, lifecycle flags, latency estimate."""

    __slots__ = (
        "index",
        "transport",
        "proc",
        "log_handle",
        "write_lock",
        "ready",
        "dead",
        "draining",
        "reader",
        "pid",
        "remote",
        "ewma_s",
        "inflight",
        "last_seen",
    )

    def __init__(
        self,
        index: int,
        transport,
        proc: "subprocess.Popen | None" = None,
        log_handle=None,
        remote: bool = False,
    ):
        self.index = index
        self.transport = transport
        self.proc = proc
        self.log_handle = log_handle
        self.write_lock = threading.Lock()
        self.ready = threading.Event()
        self.dead = False  # guarded-by: ProcessBackend._lock
        self.draining = False  # guarded-by: ProcessBackend._lock
        self.reader: "threading.Thread | None" = None
        self.pid: "int | None" = proc.pid if proc is not None else None
        self.remote = remote  # joined over the wire, not spawned by us
        self.ewma_s: "float | None" = None  # observed request latency
        self.inflight = 0  # guarded-by: ProcessBackend._lock
        self.last_seen = time.monotonic()

    def alive_probe(self) -> bool:
        """Cheap liveness: subprocess poll when we own one, else channel."""
        if self.proc is not None:
            return self.proc.poll() is None
        return self.transport.alive()


class ProcessBackend:
    """Supervises a fleet of generation workers over a pluggable transport.

    ``generate`` dispatches a batch over alive workers — each request to
    the worker with the lowest expected completion time (latency EWMA ×
    queue depth) — and blocks until every request resolves. A worker
    that exits or disconnects — crash, OOM kill, operator SIGKILL, a
    severed network link — triggers recovery on its reader thread: the
    worker is replaced (while ``max_restarts`` lasts, for workers the
    supervisor spawns) and all of its in-flight requests are requeued to
    surviving workers, so a killed worker delays results but never loses
    or duplicates one. When the fleet cannot be kept alive, every
    stranded caller gets a :class:`WorkerCrashError` instead of a hang.

    Transports: whatever the transport, the ``workers`` local workers
    are spawned on socketpairs. ``"pipe"`` stops there; ``"unix"`` /
    ``"tcp"`` also bind a listening socket and adopt any external
    ``repro-worker --connect`` that dials in (``workers=0`` makes the
    supervisor accept-only — it waits for remote workers to join).
    With ``fleet_token`` set, external hellos must present the token
    (``hmac.compare_digest``) or the connection is dropped unserved.

    SLO hardening: ``request_timeout_s`` (or a per-call
    :func:`~repro.runtime.service.deadline_scope`) bounds every
    ``generate`` wait — an expired request raises
    :class:`~repro.runtime.service.DeadlineExceeded` while its in-flight
    id is disowned (late result absorbed, crash-requeue suppressed,
    never duplicated). :meth:`drain` — or a worker-side SIGTERM —
    retires a worker gracefully: no new dispatch, in-flight work
    completes, polite shutdown, zero requeues.

    Determinism: workers run the same ``TransparentLLM`` code as
    :class:`~repro.runtime.service.SimulatorBackend` and pickle
    round-trips traces bit-exactly, so results are byte-identical
    to the in-process backends and ``identity()`` (the simulator
    identity tuple) keeps the persistent-cache namespace shared across
    all of them.
    """

    def __init__(
        self,
        llm: TransparentLLM,
        workers: int = 2,
        max_restarts: "int | None" = None,
        startup_timeout_s: float = 60.0,
        shutdown_timeout_s: float = 5.0,
        log_dir: "str | Path | None" = None,
        transport: str = PIPE_TRANSPORT,
        address: "str | None" = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        request_timeout_s: "float | None" = None,
        fleet_token: "str | None" = None,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; pick from {TRANSPORTS}")
        if workers < 1 and transport == PIPE_TRANSPORT:
            raise ValueError("workers must be >= 1 on the pipe transport")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_restarts is not None and max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if request_timeout_s is not None and not request_timeout_s > 0:
            raise ValueError("request_timeout_s must be > 0 (or None)")
        if fleet_token is not None and not fleet_token:
            raise ValueError("fleet_token must be non-empty (or None)")
        self.llm = llm
        self.request_timeout_s = (
            None if request_timeout_s is None else float(request_timeout_s)
        )
        self.fleet_token = fleet_token
        self.workers = int(workers)
        self.max_restarts = 2 * max(1, self.workers) if max_restarts is None else int(max_restarts)
        self.startup_timeout_s = float(startup_timeout_s)
        self.shutdown_timeout_s = float(shutdown_timeout_s)
        self.transport = transport
        self.heartbeat_s = float(heartbeat_s)
        self._address_arg = address
        self._log_dir_arg = log_dir
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self._lock = threading.RLock()
        self._started = False  # guarded-by: self._lock
        self._closing = False  # guarded-by: self._lock
        self._fleet: "list[_Worker]" = []  # guarded-by: self._lock
        self._pending: "dict[int, _Pending]" = {}  # guarded-by: self._lock
        self._next_id = 0  # guarded-by: self._lock
        self._next_worker_index = 0  # guarded-by: self._lock
        self._rr = 0  # guarded-by: self._lock
        self._n_spawned = 0  # guarded-by: self._lock
        self._n_restarts = 0  # guarded-by: self._lock
        self._n_requeued = 0  # guarded-by: self._lock
        self._n_duplicate_results = 0  # guarded-by: self._lock
        self._n_external = 0  # guarded-by: self._lock
        self._n_heartbeats = 0  # guarded-by: self._lock
        self._n_deadline_exceeded = 0  # guarded-by: self._lock
        self._n_drained = 0  # guarded-by: self._lock
        self._n_rejected_hellos = 0  # guarded-by: self._lock
        # Deadline-disowned in-flight ids → the worker still computing
        # them; their late results adjust bookkeeping, never duplicate.
        self._expired: "dict[int, _Worker]" = {}  # guarded-by: self._lock
        self._init_blob: "bytes | None" = None
        self._listener: "socket.socket | None" = None
        self._listen_address: "str | None" = None
        self._acceptor: "threading.Thread | None" = None
        self._last_dead: "_Worker | None" = None  # guarded-by: self._lock

    # -- protocol surface ----------------------------------------------------

    @property
    def base_llm(self) -> TransparentLLM:
        return self.llm

    def identity(self) -> tuple:
        # The shared simulator identity: process isolation must not move
        # the persistent-cache namespace (see service.simulator_identity).
        return simulator_identity(self.llm)

    @property
    def stats(self) -> SupervisorStats:
        with self._lock:
            return SupervisorStats(
                n_workers=self.workers,
                n_alive=len(self._alive()),
                n_spawned=self._n_spawned,
                n_restarts=self._n_restarts,
                n_requeued=self._n_requeued,
                n_duplicate_results=self._n_duplicate_results,
                transport=self.transport,
                n_external=self._n_external,
                n_heartbeats=self._n_heartbeats,
                n_deadline_exceeded=self._n_deadline_exceeded,
                n_draining=sum(1 for worker in self._alive() if worker.draining),
                n_drained=self._n_drained,
                n_rejected_hellos=self._n_rejected_hellos,
            )

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._n_restarts

    @property
    def address(self) -> "str | None":
        """The bound listen address once started (socket transports)."""
        return self._listen_address if self._listen_address else self._address_arg

    def worker_pids(self) -> "list[int]":
        """PIDs of the alive workers (for health tooling and kill tests)."""
        with self._lock:
            return [worker.pid for worker in self._alive() if worker.pid is not None]

    def worker_snapshot(self) -> "list[dict]":
        """Per-worker scheduling state (for /v1/stats and debugging)."""
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "index": worker.index,
                    "pid": worker.pid,
                    "remote": worker.remote,
                    "draining": worker.draining,
                    "inflight": worker.inflight,
                    "ewma_ms": worker.ewma_s * 1000.0 if worker.ewma_s else None,
                    "idle_s": round(now - worker.last_seen, 3),
                }
                for worker in self._alive()
            ]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Boot the fleet eagerly (``generate`` also starts it lazily)."""
        self._ensure_started()

    def _alive(self) -> "list[_Worker]":  # caller holds self._lock
        return [worker for worker in self._fleet if not worker.dead]

    def _dispatchable(self) -> "list[_Worker]":  # caller holds self._lock
        """Alive workers accepting new requests (draining ones finish
        their in-flight work but get nothing new)."""
        return [worker for worker in self._fleet if not worker.dead and not worker.draining]

    def _worker_env(self) -> dict:
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        return env

    def _ensure_log_dir(self) -> Path:
        # Worker stderr is always captured: without an explicit log_dir
        # a temp directory holds the logs so crash forensics (and the
        # restart-budget error's log tail) never come up empty.
        if self.log_dir is None:
            self.log_dir = Path(tempfile.mkdtemp(prefix="repro-worker-logs-"))
        else:
            self.log_dir.mkdir(parents=True, exist_ok=True)
        return self.log_dir

    def _spawn_worker(self) -> _Worker:  # caller holds self._lock
        """Spawn one local worker on a socketpair and wait until ready.

        The child end is the worker's stdin (``main_worker`` wraps it as
        a socket); stdout and stderr go to the worker's log. The hello and
        the ready that follows init each get ``startup_timeout_s``.
        """
        index = self._next_worker_index
        self._next_worker_index += 1
        log_handle = (self._ensure_log_dir() / f"worker-{index}.log").open("ab")
        argv = [sys.executable, "-m", "repro.runtime.remote"]
        argv += ["--heartbeat-s", str(self.heartbeat_s)]
        parent, child = socket.socketpair()
        try:
            proc = subprocess.Popen(
                argv,
                stdin=child,
                stdout=log_handle,
                stderr=log_handle,
                env=self._worker_env(),
            )
        except BaseException:
            parent.close()
            log_handle.close()
            raise
        finally:
            child.close()  # the worker holds its own copy: EOF when it dies
        worker = _Worker(index, SocketTransport(parent), proc, log_handle)
        try:
            booted = self._read_hello(worker.transport) is not None
            booted = booted and self._start_worker(worker)
            deadline = time.monotonic() + self.startup_timeout_s
            while booted and not worker.ready.wait(0.05):
                booted = worker.alive_probe() and time.monotonic() < deadline
            if not booted:
                raise WorkerCrashError(
                    f"worker {index} failed its hello/init/ready handshake within "
                    f"{self.startup_timeout_s}s (exit status {proc.poll()}; see "
                    f"{self._log_path(worker)})"
                )
        except BaseException:
            # A worker that never booted must not leak: mark it dead
            # before killing so the reader's retirement pass no-ops,
            # and never let it into the fleet (close() would otherwise
            # join a never-started reader thread).
            worker.dead = True
            worker.transport.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            log_handle.close()
            raise
        # Only a fully booted worker joins the fleet.
        self._fleet.append(worker)
        self._n_spawned += 1
        return worker

    def _start_worker(self, worker: _Worker) -> bool:  # caller holds self._lock
        """Send the init frame and start the worker's reader thread
        (False, with no reader, when the channel is already broken)."""
        if self._init_blob is None:
            self._init_blob = pickle.dumps(
                {"op": "init", "llm": self.llm}, protocol=pickle.HIGHEST_PROTOCOL
            )
        with worker.write_lock:
            try:
                worker.transport.send_bytes(self._init_blob)
            except (OSError, ValueError):
                return False
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"generation-worker-reader-{worker.index}",
            daemon=True,
        )
        worker.reader.start()
        return True

    def _read_hello(self, transport: SocketTransport) -> "dict | None":
        """A peer's hello within ``startup_timeout_s``, or None."""
        hello = transport.recv_hello(self.startup_timeout_s)
        return hello if hello is not None and hello.get("op") == "hello" else None

    def _accept_loop(self) -> None:
        """One acceptor owns ``accept()``; each connection handshakes on
        its own short-lived thread, bounded by ``startup_timeout_s``, so
        a silent or slow peer never blocks other joins."""
        listener = self._listener
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: supervisor is shutting down
            threading.Thread(
                target=self._handshake,
                args=(conn,),
                name="generation-supervisor-handshake",
                daemon=True,
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
        """Admit one external worker, or drop it before any pickle flows."""
        transport = SocketTransport(conn)
        hello = self._read_hello(transport)
        if hello is None:
            transport.close()
            return
        if self.fleet_token is not None:
            token = hello.get("token")
            presented = token if isinstance(token, str) else ""
            if not hmac.compare_digest(
                presented.encode("utf-8"), self.fleet_token.encode("utf-8")
            ):
                with self._lock:
                    self._n_rejected_hellos += 1
                try:
                    transport.send({"op": "goodbye", "reason": "fleet token rejected"})
                except (OSError, ValueError):
                    pass
                transport.close()
                return
        self._adopt(transport, hello)

    def _adopt(self, transport: SocketTransport, hello: dict) -> None:
        """Admit an external ``repro-worker`` into the fleet."""
        with self._lock:
            if self._closing or not self._started:
                transport.close()
                return
            index = self._next_worker_index
            self._next_worker_index += 1
            worker = _Worker(index, transport, proc=None, remote=True)
            if isinstance(hello.get("pid"), int):
                worker.pid = hello["pid"]
            if not self._start_worker(worker):
                transport.close()
                return
            self._fleet.append(worker)
            self._n_spawned += 1
            self._n_external += 1

    def _log_path(self, worker: _Worker) -> str:
        if worker.remote:
            return f"remote worker pid={worker.pid} (stderr stays on its host)"
        return str(self.log_dir / f"worker-{worker.index}.log")

    def _log_tail(self, worker: "_Worker | None", limit: int = 50) -> str:
        """The last ``limit`` captured stderr lines of ``worker``."""
        if worker is None or worker.remote or self.log_dir is None:
            return ""
        path = self.log_dir / f"worker-{worker.index}.log"
        try:
            lines = path.read_text(errors="replace").splitlines()
        except OSError:
            return ""
        return "\n".join(lines[-limit:])

    def _crash_context(self) -> str:  # caller holds self._lock
        """Log forensics appended to the restart-budget-exhausted error."""
        worker = self._last_dead
        tail = self._log_tail(worker)
        if not tail:
            return ""
        return (
            f"; last log lines from worker {worker.index} "
            f"({self._log_path(worker)}):\n{tail}"
        )

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started:
                return
            self._closing = False
            if self.transport != PIPE_TRANSPORT and self._listener is None:
                self._listener, self._listen_address = create_listener(
                    self.transport, self._address_arg
                )
                self._acceptor = threading.Thread(
                    target=self._accept_loop,
                    name="generation-supervisor-acceptor",
                    daemon=True,
                )
                self._acceptor.start()
            self._started = True  # adopts are legal while spawns boot
            try:
                for _ in range(self.workers):
                    self._spawn_worker()
            except BaseException:
                self._started = bool(self._fleet)
                raise

    def check_health(self) -> int:
        """Reap exited workers, replace them within budget; alive count.

        Cheap (one poll per worker), called before every batch so a
        worker that died idle is replaced *before* requests are
        dispatched at it. A remote worker whose heartbeats stopped for
        ten intervals is presumed dead and retired the same way.
        """
        with self._lock:
            if not self._started:
                return 0
            now = time.monotonic()
            stale_after = 10.0 * self.heartbeat_s if self.heartbeat_s > 0 else None
            for worker in list(self._fleet):
                if worker.dead:
                    continue
                if not worker.alive_probe():
                    self._retire_worker(worker)
                elif (
                    worker.remote
                    and stale_after is not None
                    and now - worker.last_seen > stale_after
                ):
                    self._retire_worker(worker)
            if not self._closing:
                try:
                    self._replenish()
                # repro-lint: ignore[exception-hygiene] a replacement that won't boot must not fail the health check
                except Exception:
                    # A replacement that won't boot must not fail a
                    # batch the survivors could serve; with no survivor
                    # either, dispatch fails each request cleanly.
                    pass
            return len(self._alive())

    def _replenish(self) -> None:  # caller holds self._lock
        """Restart-on-crash: refill the fleet while the budget lasts."""
        while len(self._alive()) < self.workers and self._n_restarts < self.max_restarts:
            self._n_restarts += 1
            self._spawn_worker()

    # -- graceful draining ---------------------------------------------------

    def drain(self, worker_id: int) -> bool:
        """Gracefully retire the alive worker with index ``worker_id``.

        The worker stops receiving new dispatch immediately, finishes
        everything already in flight, then gets a polite ``shutdown`` —
        zero requeues, zero duplicates. A locally-spawned worker is
        replaced up front (a deliberate rotation, so the replacement
        does not consume the restart budget); a remote worker's operator
        brings its successor. Returns False for an unknown/dead id.
        """
        with self._lock:
            worker = next(
                (candidate for candidate in self._alive() if candidate.index == worker_id),
                None,
            )
            if worker is None:
                return False
        self._begin_drain(worker)
        return True

    def _begin_drain(self, worker: _Worker) -> None:
        finish = False
        with self._lock:
            if worker.dead or worker.draining:
                return
            worker.draining = True
            if (
                worker.proc is not None
                and self._started
                and not self._closing
                and self.workers > 0
            ):
                try:
                    self._spawn_worker()
                # repro-lint: ignore[exception-hygiene] capacity dips by one; check_health's _replenish covers the gap
                except Exception:
                    # Capacity dips by one; check_health's _replenish
                    # (restart budget) covers the gap after the drain.
                    pass
            finish = self._drain_ready(worker)
        if finish:  # already idle: deregister right away
            self._finish_drain(worker)

    def _drain_ready(self, worker: _Worker) -> bool:  # caller holds self._lock
        """True when a draining worker has nothing left in flight —
        including deadline-expired requests it is still computing."""
        return (
            worker.draining
            and not worker.dead
            and worker.inflight <= 0
            and not any(pending.worker is worker for pending in self._pending.values())
            and not any(owner is worker for owner in self._expired.values())
        )

    def _finish_drain(self, worker: _Worker) -> None:
        """Deregister a fully-idle draining worker (no requeues by
        construction: nothing was in flight). Reaping happens on a
        side thread because this often runs on the worker's own reader
        thread, which must stay free to observe the closing channel."""
        with self._lock:
            if worker.dead:
                return
            worker.dead = True
            self._n_drained += 1
        with worker.write_lock:
            try:
                worker.transport.send({"op": "shutdown"})
            except (OSError, ValueError):
                pass
            worker.transport.begin_shutdown()
        proc = worker.proc

        def _reap() -> None:
            if proc is not None:
                try:
                    proc.wait(timeout=self.shutdown_timeout_s)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            worker.transport.close()

        threading.Thread(
            target=_reap, name=f"generation-worker-reaper-{worker.index}", daemon=True
        ).start()

    def ping(self, timeout_s: float = 10.0) -> "list[int]":
        """Round-trip a ping through every alive worker; responsive PIDs."""
        self._ensure_started()
        self.check_health()
        with self._lock:
            fleet = list(self._alive())
            entries = []
            for worker in fleet:
                pending = _Pending(request=None)
                pending.worker = worker
                request_id = self._next_id
                self._next_id += 1
                self._pending[request_id] = pending
                entries.append((worker, request_id, pending))
        responsive = []
        for worker, request_id, pending in entries:
            if not self._send(worker, {"op": "ping", "id": request_id}):
                with self._lock:
                    self._pending.pop(request_id, None)
                continue
            if pending.event.wait(timeout_s) and pending.error is None:
                responsive.append(worker.pid)
            else:
                with self._lock:
                    self._pending.pop(request_id, None)
        return responsive

    def close(self) -> None:
        """Shut the fleet down: graceful first, SIGKILL stragglers.

        In-flight requests are failed with a :class:`WorkerCrashError`
        rather than left to hang their submitters. The backend restarts
        cleanly on the next ``generate`` call.
        """
        with self._lock:
            if not self._started and not self._fleet:
                # Not merely "not started": a partial startup failure
                # can leave booted workers behind; tear those down too.
                self._close_listener()
                return
            self._closing = True
            fleet = list(self._fleet)
            stranded = list(self._pending.values())
            self._pending.clear()
        for pending in stranded:
            pending.resolve(error=WorkerCrashError("ProcessBackend closed"))
        for worker in fleet:
            with worker.write_lock:
                try:
                    worker.transport.send({"op": "shutdown"})
                except (OSError, ValueError):
                    pass
                worker.transport.begin_shutdown()
        deadline = time.monotonic() + self.shutdown_timeout_s
        for worker in fleet:
            if worker.proc is not None:
                try:
                    worker.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    worker.proc.kill()
                    worker.proc.wait()
            worker.transport.close()
            if worker.reader is not None:
                worker.reader.join(timeout=5)
            if worker.log_handle is not None:
                worker.log_handle.close()
        self._close_listener()
        with self._lock:
            self._fleet = []
            self._started = False
            self._closing = False

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        acceptor, self._acceptor = self._acceptor, None
        address, self._listen_address = self._listen_address, None
        if listener is not None:
            # close() alone leaves the acceptor blocked in accept();
            # shutdown() wakes it so the join below returns at once.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        if acceptor is not None:
            acceptor.join(timeout=5)
        # A unix socket leaves its filesystem node behind; sweep it (and
        # the temp directory we made for it) best-effort.
        if address is not None and address.startswith(f"{UNIX_TRANSPORT}:"):
            path = Path(parse_address(address)[1])
            try:
                path.unlink(missing_ok=True)
                if self._address_arg is None:
                    path.parent.rmdir()
            except OSError:
                pass

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def generate(
        self, requests: "Sequence[GenerationRequest]"
    ) -> "list[GenerationTrace]":
        requests = list(requests)
        if not requests:
            return []
        self._ensure_started()
        self.check_health()
        timeout = effective_timeout(self.request_timeout_s)
        entries = [self._submit(request) for request in requests]
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for entry in entries:
            if deadline is None:
                entry.event.wait()
            elif not entry.event.wait(max(0.0, deadline - time.monotonic())):
                self._expire_batch(entries, timeout)
                raise DeadlineExceeded(timeout)
            if entry.error is not None:
                raise entry.error
            results.append(entry.value)
        return results

    def _expire_batch(self, entries: "list[_Pending]", timeout: float) -> None:
        """Disown every unresolved entry of a deadline-exceeded batch.

        Each expired id leaves ``_pending`` (so a later worker crash
        cannot requeue it) and is remembered in ``_expired`` (so the
        late result is absorbed into the worker's bookkeeping instead of
        being counted as a duplicate). Entries whose result races the
        expiry keep their resolution — the deadline only wins ties it
        actually wins.
        """
        for entry in entries:
            with self._lock:
                if entry.event.is_set():
                    continue
                if entry.request_id is not None:
                    self._pending.pop(entry.request_id, None)
                    if entry.worker is not None and not entry.worker.dead:
                        self._expired[entry.request_id] = entry.worker
                self._n_deadline_exceeded += 1
                entry.resolve(error=DeadlineExceeded(timeout))

    def _submit(self, request) -> _Pending:
        pending = _Pending(request)
        self._dispatch(pending)
        return pending

    def _pick_worker(self, fleet: "list[_Worker]") -> _Worker:  # caller holds self._lock
        """Latency-aware scheduling: least expected completion time.

        Each worker's cost is its latency EWMA scaled by queue depth, so
        a slow (or far away) worker gets proportionally less traffic.
        Workers with no sample yet cost zero — ties (including the whole
        cold fleet) rotate round-robin so startup still spreads load.
        """
        self._rr += 1

        def cost(worker: _Worker) -> tuple:
            ewma = worker.ewma_s if worker.ewma_s is not None else 0.0
            return (ewma * (worker.inflight + 1), worker.inflight)

        best = min(cost(worker) for worker in fleet)
        candidates = [worker for worker in fleet if cost(worker) == best]
        return candidates[self._rr % len(candidates)]

    def _wait_for_join(self, deadline: float) -> bool:
        """Accept-only mode: block (unlocked) until a worker connects."""
        while time.monotonic() < deadline:
            with self._lock:
                if self._closing or self._dispatchable():
                    return True
            time.sleep(0.05)
        return False

    def _dispatch(self, pending: _Pending) -> None:
        """Assign ``pending`` to an alive worker and send it (or fail it)."""
        join_deadline = time.monotonic() + self.startup_timeout_s
        while True:
            with self._lock:
                if self._closing:
                    pending.resolve(error=WorkerCrashError("ProcessBackend closed"))
                    return
                fleet = self._dispatchable()
                if not fleet and self.workers > 0:
                    try:
                        fleet = [self._replace_worker()]
                    except WorkerCrashError as exc:
                        pending.resolve(error=exc)
                        return
                if fleet:
                    worker = self._pick_worker(fleet)
                    pending.worker = worker
                    pending.sent_at = time.monotonic()
                    worker.inflight += 1
                    request_id = self._next_id
                    self._next_id += 1
                    pending.request_id = request_id
                    self._pending[request_id] = pending
            if not fleet:
                # Accept-only supervisor (workers=0): wait for a remote
                # worker to join rather than failing instantly.
                if self._wait_for_join(join_deadline):
                    continue
                pending.resolve(
                    error=WorkerCrashError(
                        f"no workers joined {self.address} within "
                        f"{self.startup_timeout_s}s"
                    )
                )
                return
            if self._send(
                worker, {"op": "generate", "id": request_id, "request": pending.request}
            ):
                return
            # The channel broke under us: recovery requeues everything
            # that was assigned to this worker — including this request,
            # unless a racing recovery pass already moved it elsewhere.
            self._retire_worker(worker)
            with self._lock:
                if pending.worker is not worker or pending.event.is_set():
                    return  # someone else already re-dispatched or failed it

    def _send(self, worker: _Worker, message: dict) -> bool:
        with worker.write_lock:
            try:
                worker.transport.send(message)
                return True
            except (OSError, ValueError):
                return False

    def _replace_worker(self) -> _Worker:  # caller holds self._lock
        if self._n_restarts >= self.max_restarts:
            raise WorkerCrashError(
                f"workers kept dying: restart budget ({self.max_restarts}) "
                f"exhausted{self._crash_context()}"
            )
        self._n_restarts += 1
        return self._spawn_worker()

    # -- the reader threads --------------------------------------------------

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            message = worker.transport.recv()
            if message is None:
                break
            worker.last_seen = time.monotonic()
            op = message.get("op")
            if op == "ready":
                worker.ready.set()
            elif op == "heartbeat":
                with self._lock:
                    self._n_heartbeats += 1
            elif op == "draining":
                # The worker caught a SIGTERM: same graceful retirement
                # as a supervisor-side drain() call.
                self._begin_drain(worker)
            elif op in ("result", "error", "pong"):
                self._resolve(message, worker)
        self._retire_worker(worker)

    def _resolve(self, message: dict, worker: _Worker) -> None:
        finish = False
        with self._lock:
            pending = self._pending.pop(message["id"], None)
            if pending is None:
                if self._expired.pop(message["id"], None) is not None:
                    # The late answer to a deadline-expired request: its
                    # caller is long gone, but the worker's bookkeeping
                    # (queue depth, drain completion) still needs the
                    # completion. Deliberately not a duplicate.
                    worker.inflight = max(0, worker.inflight - 1)
                    finish = self._drain_ready(worker)
                elif message["op"] != "pong":
                    # A requeued request answered twice (the original
                    # worker turned out to be alive after a torn
                    # write). The first resolution won; identical by
                    # purity, dropped by design. Late pongs after a
                    # ping timeout are just slow workers, not dups.
                    self._n_duplicate_results += 1
                if finish:
                    self._finish_drain(worker)
                return
            if pending.worker is worker:
                worker.inflight = max(0, worker.inflight - 1)
            if message["op"] in ("result", "error") and pending.sent_at is not None:
                latency = time.monotonic() - pending.sent_at
                worker.ewma_s = (
                    latency
                    if worker.ewma_s is None
                    else (1 - _EWMA_ALPHA) * worker.ewma_s + _EWMA_ALPHA * latency
                )
            finish = self._drain_ready(worker)
        if message["op"] == "error":
            pending.resolve(error=WorkerError(message["error"]))
        elif message["op"] == "pong":
            pending.resolve(value=True)
        else:
            pending.resolve(value=message["trace"])
        if finish:
            self._finish_drain(worker)

    # -- crash recovery ------------------------------------------------------

    def _retire_worker(self, worker: _Worker) -> None:
        """Mark a worker dead and requeue its in-flight requests.

        Runs on reader threads, dispatchers that hit a broken channel
        and ``check_health`` — idempotent under the supervisor lock, so
        the racing paths agree on exactly one recovery pass.
        """
        with self._lock:
            if worker.dead:
                return
            worker.dead = True
            self._last_dead = worker
            closing = self._closing
            orphaned = [
                (request_id, pending)
                for request_id, pending in self._pending.items()
                if pending.worker is worker
            ]
            for request_id, _pending in orphaned:
                del self._pending[request_id]
            # Deadline-expired work dies with its worker: nobody is
            # waiting, and the id must not linger as a phantom drain
            # blocker.
            self._expired = {
                request_id: owner
                for request_id, owner in self._expired.items()
                if owner is not worker
            }
            if not closing:
                try:
                    self._replenish()
                # repro-lint: ignore[exception-hygiene] a failed replacement must not strand the orphans; dispatch still tries survivors
                except Exception:
                    # A replacement that won't boot must not strand the
                    # orphans: dispatch below still tries the survivors
                    # (and fails each request cleanly if none remain).
                    pass
        # A closing supervisor sees each worker's EOF while it is still
        # exiting; close() itself escalates the ones that outstay it.
        if not closing and worker.proc is not None and worker.proc.poll() is None:
            worker.proc.kill()  # broken channel but still running
        worker.transport.close()
        for _request_id, pending in orphaned:
            if closing or pending.request is None:  # pings don't requeue
                pending.resolve(error=WorkerCrashError("worker died"))
                continue
            # Claim the orphan before requeueing: a dispatcher whose
            # write broke may be racing this same recovery pass, and an
            # unguarded double-dispatch would run the generation twice
            # and resolve the pending twice. Whoever flips
            # pending.worker under the lock first owns the re-dispatch.
            with self._lock:
                if pending.worker is not worker or pending.event.is_set():
                    continue  # the racing dispatcher already moved it
                pending.worker = None
                # Counted at the actual re-dispatch, not per orphan: an
                # orphan that resolved (or expired) in the race window
                # was not requeued and must not read as one.
                self._n_requeued += 1
            self._dispatch(pending)

    # Pickled as configuration only: a clone in
    # another process spawns its own fleet (and, if the log dir was
    # defaulted, its own temp log dir) on first use.
    def __getstate__(self) -> dict:
        return {
            "llm": self.llm,
            "workers": self.workers,
            "max_restarts": self.max_restarts,
            "startup_timeout_s": self.startup_timeout_s,
            "shutdown_timeout_s": self.shutdown_timeout_s,
            "log_dir": str(self._log_dir_arg) if self._log_dir_arg is not None else None,
            "transport": self.transport,
            "address": self._address_arg,
            "heartbeat_s": self.heartbeat_s,
            "request_timeout_s": self.request_timeout_s,
            "fleet_token": self.fleet_token,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


if __name__ == "__main__":  # pragma: no cover - the worker entry point
    sys.exit(main_worker())
