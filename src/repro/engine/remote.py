"""Distributed campaign execution: a socket coordinator behind the
submit/next_result protocol, and the worker loop it serves.

:class:`RemoteExecutor` is the third executor (after
:class:`~repro.engine.executor.SerialExecutor` and
:class:`~repro.engine.executor.ProcessPoolExecutor`) and speaks the
exact same protocol the sweep driver already drives: ``submit`` queues
a wave of jobs, ``next_result`` blocks for one completion. Behind that
face it is a single-threaded coordinator: it owns a listening TCP
socket, accepts worker connections as they arrive, ships each new
worker the campaign contexts once (the ``context`` frame), and grants
queued jobs to idle workers one at a time. All socket work happens
*inside* ``next_result`` — there are no background threads, so the
executor inherits the driver's sequencing and needs no locks.

Workers join and leave mid-campaign. A connection that dies (EOF,
reset, torn frame) surfaces the jobs it was running as
:class:`~repro.errors.WorkerCrashError` — exactly what a local pool
raises for a dead process — so lost chains flow through the recovery
layer's retry/requeue/quarantine machinery unchanged, and a faulted
distributed run ranks bit-identically to a serial one. Silence (a
wedged worker that neither dies nor answers) is the driver's problem
by design: per-job deadlines (``--job-timeout``) fire in
:func:`~repro.engine.sweep.run_campaigns` and re-grant elsewhere, so a
distributed campaign should always set one.

Two bookkeeping rules keep late workers from poisoning the run:

* A job's crash is only surfaced while that worker still *owns* the
  job (``_inflight``). When a deadline re-grants a job to a second
  worker, the first worker's later death is a worker-left notice, not
  a campaign event.
* A crash is never surfaced for a job whose result was already
  delivered (``_delivered``): the driver would see a failure for work
  it already banked.

:func:`run_worker` is the other side: the loop behind ``repro engine
worker --connect HOST:PORT``. It is deliberately thin — connect, send
``hello``, install contexts, then run one granted chain at a time with
:func:`~repro.engine.worker.run_chain_job` (the same function every
other executor uses), heartbeating while idle. A chain that raises is
reported as an ``error`` result and the worker lives on; the
coordinator converts it into a retryable crash.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Iterable

from repro.engine import worker
from repro.engine.jobs import ChainJob, job_from_json, job_to_json
from repro.engine.serialize import Json
from repro.engine.transport import (BYE, CONTEXT, GRANT, HEARTBEAT, HELLO,
                                    RESULT, TCP_TRANSPORT, WIRE_VERSION,
                                    FrameBuffer, recv_frame, send_frame)
from repro.engine.worker import CampaignContext
from repro.errors import (EngineError, JobTimeoutError, TransportError,
                          WorkerCrashError)

#: How often the coordinator wakes from ``select`` to notice spawned
#: worker processes dying before (or without) ever connecting.
_POLL = 0.25

#: Per-send socket timeout: a worker whose receive buffer stays full
#: this long is as good as dead, and blocking the whole campaign on
#: its TCP window would turn one sick host into a global stall.
_SEND_TIMEOUT = 30.0

_CHUNK = 65536


class _Link:
    """One connected worker: its socket, reassembly buffer, and the
    job it currently owns (workers run one chain at a time)."""

    __slots__ = ("sock", "buffer", "busy")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = FrameBuffer()
        self.busy: tuple[str, str] | None = None


class RemoteExecutor:
    """Coordinates chain jobs over TCP worker connections.

    ``spawn=N`` launches N local worker subprocesses (``repro engine
    worker``) against the coordinator's own address — the loopback
    deployment behind ``--executor tcp:spawn=N``. With ``spawn=0`` the
    executor only listens: start workers by hand (any host that can
    reach ``self.address``) and they join the running campaign.
    """

    transport = TCP_TRANSPORT

    def __init__(self, contexts: dict[str, CampaignContext], *,
                 spawn: int = 0, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if spawn < 0:
            raise EngineError("spawn must be at least 0")
        self.contexts = contexts
        self._spawn = spawn
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
            listener.listen()
        except OSError as exc:
            listener.close()
            raise TransportError(
                f"cannot bind coordinator to {host}:{port}: "
                f"{exc}") from None
        listener.setblocking(False)
        self._listener: socket.socket | None = listener
        #: ``(host, port)`` the coordinator is reachable at; with
        #: ``port=0`` the OS picked a free port, read it from here.
        self.address: tuple[str, int] = listener.getsockname()[:2]
        self._context_json = {name: worker.context_to_json(context)
                              for name, context in contexts.items()}
        self._pending: deque[tuple[str, ChainJob]] = deque()
        self._workers: dict[str, _Link] = {}
        self._joining: dict[socket.socket, FrameBuffer] = {}
        # which worker currently owns each granted-but-undelivered job;
        # a re-grant overwrites the owner, so only the current owner's
        # death surfaces as a crash
        self._inflight: dict[tuple[str, str], str] = {}
        self._deliveries: deque[tuple] = deque()
        self._delivered: set[tuple[str, str]] = set()
        self._completed_counts: dict[str, int] = {}
        #: ("joined", name) / ("left", name, reason) membership
        #: changes, drained by the driver into worker-joined /
        #: worker-left progress events.
        self.notices: deque[tuple] = deque()
        #: Which worker produced the payload most recently returned by
        #: :meth:`next_result`; the driver files per-worker occupancy
        #: under the metrics document's runtime section with it.
        self.last_worker_id: str | None = None
        self._procs: list[subprocess.Popen] = []
        self._name_serial = 0
        self._closed = False

    # -- driver protocol ------------------------------------------------------

    def submit(self, kernel: str, jobs: Iterable[ChainJob]) -> int:
        if self._closed:
            raise EngineError("submit on a closed executor")
        added = 0
        for job in jobs:
            self._pending.append((kernel, job))
            added += 1
        if added and self._spawn and not self._procs:
            # spawn lazily, like the process pool builds its pool on
            # first submit: planning errors surface before any fork
            self._spawn_workers()
        self._dispatch()
        return added

    def next_result(self, timeout: float | None = None) \
            -> tuple[str, Json]:
        if self._closed:
            raise EngineError("next_result on a closed executor")
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            if self._deliveries:
                item = self._deliveries.popleft()
                if item[0] == "crash":
                    raise item[1]
                _, kernel, payload, worker_id = item
                self.last_worker_id = worker_id
                return kernel, payload
            if not self._pending and not self._inflight:
                raise EngineError("next_result with no submitted jobs")
            self._assert_spawned_alive()
            wait = _POLL
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise JobTimeoutError(
                        f"no job result within {timeout:g}s")
                wait = min(wait, remaining)
            assert self._listener is not None
            sockets = ([self._listener]
                       + [link.sock for link in self._workers.values()]
                       + list(self._joining))
            readable, _, _ = select.select(sockets, [], [], wait)
            for sock in readable:
                if sock is self._listener:
                    self._accept()
                elif sock in self._joining:
                    self._pump_joining(sock)
                else:
                    self._pump(sock)
            self._dispatch()

    def close(self) -> None:
        """Graceful shutdown: say goodbye, reap spawned workers."""
        self._shutdown(graceful=True)

    def terminate(self) -> None:
        """Abandon everything in flight (error/interrupt shutdown);
        anything already journaled survives for a later --resume."""
        self._shutdown(graceful=False)

    def _shutdown(self, *, graceful: bool) -> None:
        if self._closed:
            return
        self._closed = True
        if not graceful:
            for proc in self._procs:
                if proc.poll() is None:
                    proc.kill()
        for link in self._workers.values():
            if graceful:
                try:
                    send_frame(link.sock, {"type": BYE})
                except TransportError:
                    pass
            try:
                link.sock.close()
            except OSError:
                pass
        self._workers.clear()
        for sock in self._joining:
            try:
                sock.close()
            except OSError:
                pass
        self._joining.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for proc in self._procs:
            try:
                proc.wait(timeout=_SEND_TIMEOUT if graceful else 10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []

    # -- observability --------------------------------------------------------

    def drain_notices(self) -> list[tuple]:
        """Membership changes since the last drain (driver-polled)."""
        notices, self.notices = list(self.notices), deque()
        return notices

    def worker_stats(self) -> dict[str, int]:
        """Chains delivered per worker (departed workers included)."""
        return dict(self._completed_counts)

    # -- worker processes -----------------------------------------------------

    def _spawn_workers(self) -> None:
        host, port = self.address
        env = dict(os.environ)
        # the worker must import the same repro tree the coordinator
        # runs, installed or not — prepend our source root
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (src_root if not existing else
                             src_root + os.pathsep + existing)
        command = [sys.executable, "-m", "repro.cli", "engine",
                   "worker", "--connect", f"{host}:{port}"]
        for _ in range(self._spawn):
            self._procs.append(subprocess.Popen(command, env=env))

    def _assert_spawned_alive(self) -> None:
        """A campaign whose every spawned worker has exited — with no
        connections left and none joining — would block forever; raise
        the transport failure instead so a supervisor can --resume."""
        if not self._procs or self._workers or self._joining:
            return
        if any(proc.poll() is None for proc in self._procs):
            return
        codes = sorted({proc.returncode for proc in self._procs})
        raise TransportError(
            f"all {len(self._procs)} spawned workers exited "
            f"(exit codes {codes}) with jobs still pending")

    # -- connection handling --------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.settimeout(_SEND_TIMEOUT)
            self._joining[sock] = FrameBuffer()

    def _pump_joining(self, sock: socket.socket) -> None:
        """Advance a connection that has not said hello yet."""
        buffer = self._joining[sock]
        try:
            chunk = sock.recv(_CHUNK)
        except OSError:
            chunk = b""
        if not chunk:
            del self._joining[sock]
            sock.close()
            return
        buffer.feed(chunk)
        try:
            frames = list(buffer.frames())
        except TransportError:
            del self._joining[sock]
            sock.close()
            return
        if not frames:
            return
        del self._joining[sock]
        hello, rest = frames[0], frames[1:]
        name = str(hello.get("worker", "worker"))
        if hello["type"] != HELLO or hello.get("wire") != WIRE_VERSION:
            # a wire-version mismatch costs the worker its connection,
            # never the campaign its life; the membership log records
            # the refusal so the operator can see why nothing joined
            self.notices.append(
                ("left", name,
                 f"refused: wire version "
                 f"{hello.get('wire')!r} != {WIRE_VERSION}"
                 if hello["type"] == HELLO else
                 f"refused: expected hello, got {hello['type']}"))
            sock.close()
            return
        worker_id = self._unique_name(name)
        try:
            send_frame(sock, {"type": CONTEXT, "wire": WIRE_VERSION,
                              "contexts": self._context_json})
        except TransportError:
            sock.close()
            return
        link = _Link(sock)
        self._workers[worker_id] = link
        self._completed_counts.setdefault(worker_id, 0)
        self.notices.append(("joined", worker_id))
        for frame in rest:                  # eager worker, same chunk
            if worker_id not in self._workers:
                break
            self._handle(worker_id, link, frame)

    def _unique_name(self, name: str) -> str:
        if (name not in self._workers
                and name not in self._completed_counts):
            return name
        self._name_serial += 1
        return f"{name}#{self._name_serial}"

    def _pump(self, sock: socket.socket) -> None:
        """Advance one connected worker's stream."""
        worker_id = next((wid for wid, link in self._workers.items()
                          if link.sock is sock), None)
        if worker_id is None:
            return
        link = self._workers[worker_id]
        try:
            chunk = link.sock.recv(_CHUNK)
        except socket.timeout:
            return
        except OSError as exc:
            self._drop(worker_id, f"connection lost: {exc}")
            return
        if not chunk:
            self._drop(worker_id, "connection closed")
            return
        link.buffer.feed(chunk)
        try:
            frames = list(link.buffer.frames())
        except TransportError as exc:
            self._drop(worker_id, str(exc))
            return
        for frame in frames:
            if worker_id not in self._workers:
                break                       # dropped mid-batch
            self._handle(worker_id, link, frame)

    def _handle(self, worker_id: str, link: _Link, frame: Json) -> None:
        kind = frame["type"]
        if kind == HEARTBEAT:
            return
        if kind == BYE:
            self._drop(worker_id, "worker left")
            return
        if kind != RESULT:
            self._drop(worker_id, f"unexpected {kind} frame")
            return
        kernel = frame["kernel"]
        owned, link.busy = link.busy, None
        if "payload" in frame:
            payload = frame["payload"]
            job_id = (payload.get("job_id")
                      if isinstance(payload, dict) else None)
            key = ((kernel, job_id) if isinstance(job_id, str)
                   else owned)
            if key is not None:
                self._delivered.add(key)
                if self._inflight.get(key) == worker_id:
                    del self._inflight[key]
            self._completed_counts[worker_id] = \
                self._completed_counts.get(worker_id, 0) + 1
            self._deliveries.append(
                ("result", kernel, payload, worker_id))
            return
        # an error result: the chain raised on the worker, but the
        # worker itself lives on — surface the same retryable crash a
        # dead pool process would, without losing the connection
        error = frame["error"]
        job_id = error.get("job_id") or (owned[1] if owned else None)
        key = (kernel, job_id) if isinstance(job_id, str) else None
        if key is not None and self._inflight.get(key) == worker_id:
            del self._inflight[key]
        self._deliveries.append(
            ("crash", WorkerCrashError(
                f"worker {worker_id} failed running {job_id}: "
                f"{error.get('message', 'unknown error')}",
                kernel=kernel, job_id=job_id)))

    def _drop(self, worker_id: str, reason: str) -> None:
        link = self._workers.pop(worker_id, None)
        if link is None:
            return
        try:
            link.sock.close()
        except OSError:
            pass
        key = link.busy
        if (key is not None
                and self._inflight.get(key) == worker_id):
            del self._inflight[key]
            if key not in self._delivered:
                kernel, job_id = key
                self._deliveries.append(
                    ("crash", WorkerCrashError(
                        f"worker {worker_id} lost running {job_id}: "
                        f"{reason}", kernel=kernel, job_id=job_id)))
        self.notices.append(("left", worker_id, reason))

    def _dispatch(self) -> None:
        """Grant queued jobs to idle workers, one job per worker."""
        if not self._pending:
            return
        for worker_id, link in list(self._workers.items()):
            if not self._pending:
                return
            if link.busy is not None:
                continue
            kernel, job = self._pending[0]
            try:
                send_frame(link.sock, {"type": GRANT, "kernel": kernel,
                                       "job": job_to_json(job)})
            except TransportError as exc:
                # busy is None, so the drop queues no crash and the
                # job simply waits for the next idle worker
                self._drop(worker_id, f"grant failed: {exc}")
                continue
            self._pending.popleft()
            key = (kernel, job.job_id)
            link.busy = key
            self._inflight[key] = worker_id
            self._delivered.discard(key)


def run_worker(host: str, port: int, *, heartbeat: float = 5.0,
               max_jobs: int | None = None,
               name: str | None = None) -> int:
    """The worker loop behind ``repro engine worker``.

    Connects to a coordinator, installs the campaign contexts it
    sends, then runs granted chains one at a time until the
    coordinator says ``bye``, hangs up, or ``max_jobs`` chains are
    done. Returns the number of chains completed. While idle the
    worker heartbeats every ``heartbeat`` seconds; while running a
    chain it is silent (job-level liveness is the coordinator's
    ``--job-timeout`` deadline, not the heartbeat).
    """
    label = name if name else f"pid-{os.getpid()}"
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to coordinator at {host}:{port}: "
            f"{exc}") from None
    completed = 0
    try:
        send_frame(sock, {"type": HELLO, "wire": WIRE_VERSION,
                          "worker": label})
        try:
            frame = recv_frame(sock, timeout=60.0)
        except socket.timeout:
            raise TransportError(
                "coordinator sent no context within 60s") from None
        if frame is None:
            # the coordinator hung up without a context — a refused
            # hello (wire mismatch); nothing was granted, clean exit
            return completed
        if frame["type"] != CONTEXT:
            raise TransportError(
                f"expected context frame, got {frame['type']}")
        if frame.get("wire") != WIRE_VERSION:
            raise TransportError(
                f"coordinator speaks wire version {frame.get('wire')}, "
                f"this worker speaks {WIRE_VERSION}")
        contexts = {kernel: worker.context_from_json(payload)
                    for kernel, payload in frame["contexts"].items()}
        while True:
            try:
                frame = recv_frame(sock, timeout=heartbeat)
            except socket.timeout:
                send_frame(sock, {"type": HEARTBEAT})
                continue
            if frame is None or frame["type"] == BYE:
                return completed
            if frame["type"] != GRANT:
                raise TransportError(
                    f"unexpected {frame['type']} frame from "
                    f"coordinator")
            kernel = frame["kernel"]
            job = job_from_json(frame["job"])
            context = contexts.get(kernel)
            if context is None:
                send_frame(sock, {
                    "type": RESULT, "kernel": kernel,
                    "error": {"job_id": job.job_id,
                              "message": f"worker has no context for "
                                         f"kernel {kernel!r}"}})
                continue
            try:
                payload = worker.run_chain_job(context, job)
            except Exception as exc:
                # every failure — deterministic or not — reports as a
                # retryable error result; a poisoned chain exhausts
                # its retries and quarantines instead of taking the
                # whole campaign down with it
                send_frame(sock, {
                    "type": RESULT, "kernel": kernel,
                    "error": {"job_id": job.job_id,
                              "message": f"{type(exc).__name__}: "
                                         f"{exc}"}})
            else:
                send_frame(sock, {"type": RESULT, "kernel": kernel,
                                  "payload": payload})
                completed += 1
            if max_jobs is not None and completed >= max_jobs:
                send_frame(sock, {"type": BYE})
                return completed
    finally:
        try:
            sock.close()
        except OSError:
            pass
