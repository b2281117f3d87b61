"""Wire-format codec tests and the frame truncation fuzz.

The first half tortures the pure codec (:mod:`repro.engine.transport`)
without sockets: round-trips, structural validation, split and
corrupted streams. The second half extends the journal-truncation
harness (``test_truncation.py``) to the wire: a worker's ``result``
frame is cut at every sampled byte boundary *on a real socket*, and
the coordinator must drop that connection cleanly — surfacing the job
as :class:`WorkerCrashError` — after which a fresh worker re-delivers
a bit-identical payload. The worker-side read path gets the same
treatment through :func:`recv_frame` over a socketpair.
"""

import json
import socket
import threading

import pytest

from repro.engine.jobs import ChainJob
from repro.engine.remote import RemoteExecutor, run_worker
from repro.engine.transport import (BYE, CONTEXT, GRANT, HEARTBEAT,
                                    HELLO, MAX_FRAME, RESULT,
                                    WIRE_VERSION, FrameBuffer,
                                    decode_frame, encode_frame,
                                    frame_problem, parse_endpoint,
                                    recv_frame, send_frame,
                                    transport_spec)
from repro.engine.worker import CampaignContext, run_chain_job
from repro.errors import (EngineError, TransportError,
                          WorkerCrashError)
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import Validator

#: boundaries sampled per frame; endpoints always included (the same
#: discipline as the journal truncation fuzz).
SAMPLES = 12

FRAMES = [
    {"type": HELLO, "wire": WIRE_VERSION, "worker": "pid-1"},
    {"type": CONTEXT, "wire": WIRE_VERSION, "contexts": {}},
    {"type": GRANT, "kernel": "p01",
     "job": {"job_id": "opt-c000-s000", "kind": "optimization",
             "seed": 5, "start": None}},
    {"type": RESULT, "kernel": "p01", "payload": {"job_id": "x"}},
    {"type": RESULT, "kernel": "p01",
     "error": {"job_id": "x", "message": "boom"}},
    {"type": HEARTBEAT},
    {"type": BYE},
]


# -- pure codec ---------------------------------------------------------------

@pytest.mark.parametrize("frame", FRAMES,
                         ids=lambda frame: frame["type"])
def test_every_frame_type_round_trips(frame):
    assert decode_frame(encode_frame(frame)) == frame


def test_frame_problem_rejects_structural_garbage():
    assert frame_problem("not a dict") is not None
    assert frame_problem({"type": "telegram"}) is not None
    assert frame_problem({}) is not None
    assert frame_problem({"type": HELLO}) is not None   # missing fields
    assert frame_problem({"type": GRANT, "kernel": "p01"}) is not None
    # a result frame needs exactly one of payload / error
    assert frame_problem({"type": RESULT, "kernel": "p01"}) is not None
    assert frame_problem({"type": RESULT, "kernel": "p01",
                          "payload": {}, "error": {}}) is not None
    for frame in FRAMES:
        assert frame_problem(frame) is None


def test_encode_refuses_corrupt_and_oversized_frames():
    with pytest.raises(TransportError, match="refusing to send"):
        encode_frame({"type": "telegram"})
    with pytest.raises(TransportError, match="exceeds the"):
        encode_frame({"type": RESULT, "kernel": "p01",
                      "payload": {"blob": "x" * (MAX_FRAME + 1)}})


def test_frame_buffer_reassembles_byte_by_byte():
    stream = b"".join(encode_frame(frame) for frame in FRAMES)
    buffer = FrameBuffer()
    decoded = []
    for index in range(len(stream)):
        buffer.feed(stream[index:index + 1])
        decoded.extend(buffer.frames())
    assert decoded == FRAMES
    assert buffer.pending == 0


def test_frame_buffer_raises_at_the_first_corrupt_byte():
    oversized = FrameBuffer()
    oversized.feed((MAX_FRAME + 1).to_bytes(4, "big"))
    with pytest.raises(TransportError, match="length prefix"):
        list(oversized.frames())
    bad_json = FrameBuffer()
    body = b"{not json"
    bad_json.feed(len(body).to_bytes(4, "big") + body)
    with pytest.raises(TransportError, match="not valid JSON"):
        list(bad_json.frames())
    bad_frame = FrameBuffer()
    body = json.dumps({"type": "telegram"}).encode()
    bad_frame.feed(len(body).to_bytes(4, "big") + body)
    with pytest.raises(TransportError, match="corrupt frame"):
        list(bad_frame.frames())


def test_decode_frame_wants_exactly_one_frame():
    wire = encode_frame({"type": BYE})
    with pytest.raises(TransportError, match="exactly one"):
        decode_frame(wire + wire)
    with pytest.raises(TransportError, match="exactly one"):
        decode_frame(wire[:-1])
    with pytest.raises(TransportError, match="exactly one"):
        decode_frame(wire + b"\x00")


def test_parse_endpoint_grammar():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_endpoint("host.example:1") == ("host.example", 1)
    for bad in ("no-port", ":9000", "host:", "host:pp", "host:70000"):
        with pytest.raises(EngineError, match="endpoint"):
            parse_endpoint(bad)


def test_transport_spec_is_the_manifest_form():
    assert transport_spec(0) == "local"
    assert transport_spec(1) == f"tcp:wire={WIRE_VERSION}"
    assert transport_spec(8) == f"tcp:wire={WIRE_VERSION}"


# -- worker-side read path: every cut of a frame ------------------------------

def _boundaries(record: bytes) -> list[int]:
    length = len(record)
    if length + 1 <= SAMPLES + 4:
        return list(range(length + 1))
    stride = length / SAMPLES
    sampled = {int(i * stride) for i in range(1, SAMPLES)}
    return sorted(sampled | {0, 1, length - 1, length})


def test_recv_frame_rejects_every_mid_frame_cut():
    """EOF at a frame boundary is clean (None); EOF anywhere inside a
    frame is a TransportError — a torn frame is never half-trusted."""
    wire = encode_frame({"type": CONTEXT, "wire": WIRE_VERSION,
                         "contexts": {"p01": {"pad": "x" * 200}}})
    for cut in _boundaries(wire):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(wire[:cut])
            theirs.close()
            if cut == 0:
                assert recv_frame(ours, timeout=5.0) is None
            elif cut == len(wire):
                assert recv_frame(ours, timeout=5.0) is not None
            else:
                with pytest.raises(TransportError):
                    recv_frame(ours, timeout=5.0)
        finally:
            ours.close()


def test_send_frame_surfaces_a_dead_peer_as_transport_error():
    ours, theirs = socket.socketpair()
    theirs.close()
    big = {"type": RESULT, "kernel": "p01",
           "payload": {"blob": "x" * (1 << 20)}}
    try:
        with pytest.raises(TransportError, match="connection lost"):
            send_frame(ours, big)
    finally:
        ours.close()


# -- coordinator-side: a result frame cut on a real socket --------------------

def _context():
    bench = benchmark("p01")
    config = SearchConfig(ell=12, beta=1.0, seed=5,
                          optimization_proposals=120,
                          optimization_restarts=2,
                          optimization_chains=2,
                          synthesis_chains=0,
                          testcase_count=4)
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=config.seed)
    return CampaignContext(
        target=bench.o0, spec=bench.spec, annotations=bench.annotations,
        config=config, testcases=generator.generate(4),
        validator=Validator())


def _job(context):
    return ChainJob(job_id="opt-c000-s000", kind="optimization",
                    seed=context.config.seed, start=context.target)


def _scrub(payload):
    payload = json.loads(json.dumps(payload, sort_keys=True))
    chain = payload.get("chain")
    if isinstance(chain, dict):
        if isinstance(chain.get("telemetry"), dict):
            chain["telemetry"].pop("runtime", None)
    return json.dumps(payload, sort_keys=True)


def _lying_worker(address, wire_bytes, cut):
    """A worker that handshakes honestly, then sends ``cut`` bytes of
    its result frame and hangs up mid-sentence."""
    def main():
        sock = socket.create_connection(address, timeout=10.0)
        try:
            send_frame(sock, {"type": HELLO, "wire": WIRE_VERSION,
                              "worker": "liar"})
            assert recv_frame(sock, timeout=10.0)["type"] == CONTEXT
            assert recv_frame(sock, timeout=10.0)["type"] == GRANT
            if cut:
                sock.sendall(wire_bytes[:cut])
        finally:
            sock.close()
    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread


def _honest_worker(address):
    def main():
        try:
            run_worker(*address, heartbeat=0.5, max_jobs=1)
        except TransportError:
            pass
    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread


def test_every_cut_of_a_result_frame_drops_cleanly_and_regrants():
    """The wire analogue of the journal truncation fuzz: whatever byte
    the connection dies at, the coordinator converts the loss into a
    retryable WorkerCrashError naming the job, and a re-grant to an
    honest worker delivers the bit-identical payload."""
    context = _context()
    job = _job(context)
    reference = _scrub(run_chain_job(context, job))
    wire = encode_frame({"type": RESULT, "kernel": "p01",
                         "payload": run_chain_job(context, job)})
    for cut in _boundaries(wire):
        executor = RemoteExecutor({"p01": context})
        try:
            executor.submit("p01", [job])
            _lying_worker(executor.address, wire, cut)
            if cut == len(wire):      # the one cut that is a delivery
                kernel, payload = executor.next_result(timeout=60.0)
                assert (kernel, _scrub(payload)) == ("p01", reference)
                continue
            with pytest.raises(WorkerCrashError) as info:
                executor.next_result(timeout=60.0)
            assert info.value.kernel == "p01"
            assert info.value.job_id == job.job_id
            # the driver answers a crash by resubmitting; an honest
            # worker then re-delivers the identical payload
            executor.submit("p01", [job])
            _honest_worker(executor.address)
            kernel, payload = executor.next_result(timeout=120.0)
            assert (kernel, _scrub(payload)) == ("p01", reference)
            notices = executor.drain_notices()
            assert ("joined", "liar") in notices
            assert any(notice[0] == "left" and notice[1] == "liar"
                       for notice in notices)
        finally:
            executor.terminate()


def test_a_corrupt_frame_costs_the_connection_not_the_campaign():
    """A worker that sends JSON garbage after its handshake is dropped
    with its job surfaced as a crash — never a coordinator error."""
    context = _context()
    job = _job(context)
    executor = RemoteExecutor({"p01": context})
    try:
        executor.submit("p01", [job])
        garbage = b"{not json"
        _lying_worker(executor.address,
                      len(garbage).to_bytes(4, "big") + garbage,
                      4 + len(garbage))
        with pytest.raises(WorkerCrashError, match="not valid JSON"):
            executor.next_result(timeout=60.0)
    finally:
        executor.terminate()
