#!/usr/bin/env python3
"""End-to-end smoke test for a running `cpa_server --tcp`.

Usage: tcp_smoke.py [--host HOST] --port PORT
       tcp_smoke.py --router --server-bin build/src/cpa_server

Speaks the server's real wire protocol from scratch — the 8-byte frame
header and the binary codec are reimplemented here in Python, so this
script cross-checks the C++ encoder/decoder pair against an independent
implementation of the spec in docs/API.md. It drives the full session
lifecycle twice over one dataset:

  * a JSON session: every op as a JSON frame (kind 1), several frames
    batched into single `send()` calls;
  * a binary session: observe/snapshot/finalize as binary frames
    (kind 2), open/close as JSON.

and asserts both transports report the same counters and byte-identical
final predictions. Also pokes the server's error paths (unknown op,
malformed binary body), checks the connection survives them, and probes
sequence-number support (a sequenced `methods` request — a server that
echoes the tag pipelines, one that rejects the "reserved" bytes is
legacy). Legacy (unsequenced) replies are still asserted to carry
all-zero reserved header bytes, byte for byte.

With `--router` the script spawns its own fleet — two `cpa_server --tcp`
workers plus a `cpa_server --router` front — and additionally
reimplements the router's FNV-1a consistent-hash ring to pick session
ids it knows land on specific workers, runs the same two sessions
through the router, then SIGKILLs one worker and asserts its sessions
get clean error replies while the other worker's sessions keep serving.

Exit code 0 on success; raises with a diagnostic otherwise.
"""

import argparse
import json
import signal
import socket
import struct
import subprocess
import sys
import time

FRAME_HEADER = struct.Struct("<IBBH")  # length, kind, flags, sequence
KIND_JSON = 1
KIND_BINARY = 2
FLAG_SEQUENCED = 0x01

MSG_OBSERVE_REQUEST = 0x01
MSG_SNAPSHOT_REQUEST = 0x02
MSG_FINALIZE_REQUEST = 0x03
MSG_ERROR = 0x7F
MSG_OBSERVE_ACK = 0x81
MSG_SNAPSHOT_RESPONSE = 0x82

FLAG_REFRESH = 1 << 0
FLAG_PREDICTIONS = 1 << 1

# A small partial-agreement stream: 4 items, 6 workers, label sets that
# overlap without matching exactly (the paper's setting).
ANSWERS = [
    (0, 0, [0, 1]), (0, 1, [0]), (0, 2, [0, 1, 2]),
    (1, 0, [2]), (1, 3, [2, 3]), (1, 4, [2]),
    (2, 1, [1, 3]), (2, 2, [1]), (2, 5, [1, 3]),
    (3, 3, [0, 3]), (3, 4, [3]), (3, 5, [0, 3]),
]
OPEN_CONFIG = {"method": "MV", "num_items": 4, "num_workers": 6, "num_labels": 4}


def frame(kind, payload):
    return FRAME_HEADER.pack(len(payload), kind, 0, 0) + payload


def seq_frame(kind, payload, sequence):
    return FRAME_HEADER.pack(len(payload), kind, FLAG_SEQUENCED,
                             sequence) + payload


def json_frame(obj):
    return frame(KIND_JSON, json.dumps(obj, separators=(",", ":")).encode())


class FrameReader:
    """Incremental decoder for the server's response byte stream."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def _next(self):
        while True:
            if len(self.buffer) >= FRAME_HEADER.size:
                length, kind, flags, seq = FRAME_HEADER.unpack_from(self.buffer)
                end = FRAME_HEADER.size + length
                if len(self.buffer) >= end:
                    payload = self.buffer[FRAME_HEADER.size:end]
                    self.buffer = self.buffer[end:]
                    return kind, payload, flags, seq
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AssertionError("server closed the connection mid-read")
            self.buffer += chunk

    def next_frame(self):
        """A legacy reply: the pre-sequencing reserved-bytes contract."""
        kind, payload, flags, seq = self._next()
        assert flags == 0 and seq == 0, "server sent nonzero reserved bytes"
        return kind, payload

    def next_tagged_frame(self):
        """Returns (kind, payload, sequence-or-None)."""
        kind, payload, flags, seq = self._next()
        assert flags in (0, FLAG_SEQUENCED), f"unknown flags {flags:#x}"
        if flags == 0:
            assert seq == 0, "untagged reply with a nonzero sequence"
            return kind, payload, None
        return kind, payload, seq


def negotiate_sequencing(sock, reader):
    """True iff the server echoes sequence tags. A pre-sequencing server
    answers the probe with an untagged 'reserved bytes' error reply —
    recoverable, so the connection is reusable either way."""
    sock.sendall(seq_frame(KIND_JSON, b'{"op":"methods"}', 1))
    kind, payload, seq = reader.next_tagged_frame()
    assert kind == KIND_JSON, "negotiation: expected a JSON reply"
    reply = json.loads(payload)
    if seq == 1:
        assert reply.get("ok") is True, reply
        return True
    assert seq is None and reply.get("ok") is False, reply
    return False


def encode_string16(text):
    raw = text.encode()
    return struct.pack("<H", len(raw)) + raw


def encode_observe(session, answers):
    body = bytes([MSG_OBSERVE_REQUEST]) + encode_string16(session)
    body += struct.pack("<I", len(answers))
    for item, worker, labels in answers:
        body += struct.pack("<IIH", item, worker, len(labels))
        body += b"".join(struct.pack("<I", label) for label in labels)
    return body


def encode_snapshot_like(msg_type, session, flags):
    return bytes([msg_type]) + encode_string16(session) + bytes([flags])


class BinaryReader:
    def __init__(self, body):
        self.body = body
        self.offset = 0

    def read(self, fmt):
        values = struct.unpack_from(fmt, self.body, self.offset)
        self.offset += struct.calcsize(fmt)
        return values if len(values) > 1 else values[0]

    def read_string(self, length_fmt="<H"):
        length = self.read(length_fmt)
        raw = self.body[self.offset:self.offset + length]
        assert len(raw) == length, "binary string truncated"
        self.offset += length
        return raw.decode()

    def read_label_set(self):
        count = self.read("<H")
        return [self.read("<I") for _ in range(count)]


def decode_binary_response(body):
    """Returns a dict mirroring the fields of the JSON responses."""
    reader = BinaryReader(body)
    msg_type = reader.read("<B")
    if msg_type == MSG_ERROR:
        code = reader.read("<B")
        op = reader.read_string()
        session = reader.read_string()
        message = reader.read_string("<I")
        return {"ok": False, "code": code, "op": op, "session": session,
                "error": message}
    if msg_type == MSG_OBSERVE_ACK:
        session = reader.read_string()
        batches, answers, changed, snap_batches, snap_answers = reader.read("<5Q")
        return {"ok": True, "op": "observe", "session": session,
                "batches_seen": batches, "answers_seen": answers}
    if msg_type == MSG_SNAPSHOT_RESPONSE:
        op_byte = reader.read("<B")
        out = {"ok": True,
               "op": "finalize" if op_byte == MSG_FINALIZE_REQUEST else "snapshot",
               "session": reader.read_string(), "method": reader.read_string()}
        out["batches_seen"], out["answers_seen"], out["iterations"] = \
            reader.read("<3Q")
        out["learning_rate"] = reader.read("<d")
        out["finalized"] = reader.read("<B") != 0
        if reader.read("<B") != 0:  # has_predictions
            out["predictions"] = [reader.read_label_set()
                                  for _ in range(reader.read("<I"))]
        return out
    raise AssertionError(f"unknown binary response type {msg_type:#x}")


def expect_json_ok(kind, payload, op):
    assert kind == KIND_JSON, f"{op}: expected a JSON reply frame"
    reply = json.loads(payload)
    assert reply.get("ok") is True, f"{op}: {reply}"
    return reply


def run_json_session(sock, reader, session):
    """Whole lifecycle as JSON frames, all requests batched in one send."""
    requests = [json_frame({"op": "open", "session": session,
                            "config": OPEN_CONFIG})]
    for start in range(0, len(ANSWERS), 4):
        batch = [{"item": i, "worker": w, "labels": labels}
                 for i, w, labels in ANSWERS[start:start + 4]]
        requests.append(json_frame({"op": "observe", "session": session,
                                    "answers": batch}))
    requests.append(json_frame({"op": "finalize", "session": session}))
    requests.append(json_frame({"op": "close", "session": session}))
    sock.sendall(b"".join(requests))  # batching: 6 frames, one syscall

    expect_json_ok(*reader.next_frame(), op="open")
    for index in range(3):
        ack = expect_json_ok(*reader.next_frame(), op=f"observe[{index}]")
        assert ack["batches_seen"] == index + 1, ack
    final = expect_json_ok(*reader.next_frame(), op="finalize")
    expect_json_ok(*reader.next_frame(), op="close")
    assert final["finalized"] and final["answers_seen"] == len(ANSWERS), final
    return final


def run_binary_session(sock, reader, session):
    """Hot ops as binary frames; open/close stay JSON on the same socket."""
    sock.sendall(json_frame({"op": "open", "session": session,
                             "config": OPEN_CONFIG}))
    expect_json_ok(*reader.next_frame(), op="open")

    # All three observes plus the snapshot request in a single send.
    batched = b"".join(
        frame(KIND_BINARY, encode_observe(session, ANSWERS[start:start + 4]))
        for start in range(0, len(ANSWERS), 4))
    batched += frame(KIND_BINARY, encode_snapshot_like(
        MSG_SNAPSHOT_REQUEST, session, FLAG_REFRESH | FLAG_PREDICTIONS))
    sock.sendall(batched)
    for index in range(3):
        kind, payload = reader.next_frame()
        assert kind == KIND_BINARY, "observe: expected a binary reply frame"
        ack = decode_binary_response(payload)
        assert ack["ok"] and ack["batches_seen"] == index + 1, ack
    kind, payload = reader.next_frame()
    snapshot = decode_binary_response(payload)
    assert snapshot["ok"] and snapshot["answers_seen"] == len(ANSWERS), snapshot

    sock.sendall(frame(KIND_BINARY, encode_snapshot_like(
        MSG_FINALIZE_REQUEST, session, FLAG_PREDICTIONS)))
    final = decode_binary_response(reader.next_frame()[1])
    assert final["ok"] and final["finalized"], final
    assert final["predictions"] == snapshot["predictions"], \
        "finalize changed the MV consensus"

    sock.sendall(json_frame({"op": "close", "session": session}))
    expect_json_ok(*reader.next_frame(), op="close")
    return final


def poke_error_paths(sock, reader):
    """Bad requests must get error replies, not kill the connection."""
    sock.sendall(json_frame({"op": "warp"}))
    kind, payload = reader.next_frame()
    assert kind == KIND_JSON and json.loads(payload)["ok"] is False
    sock.sendall(frame(KIND_BINARY, b"\xee\xee\xee"))
    kind, payload = reader.next_frame()
    assert kind == KIND_BINARY
    error = decode_binary_response(payload)
    # A worker rejects the unknown type byte; a router rejects the frame
    # even earlier, when the bogus session-length prefix overruns the body.
    assert not error["ok"] and ("unknown binary request" in error["error"]
                                or "truncated" in error["error"]), error
    # Connection still serves requests after both rejections.
    sock.sendall(json_frame({"op": "list"}))
    expect_json_ok(*reader.next_frame(), op="list")


# --- the router fleet mode -------------------------------------------------

def ring_hash(data):
    """FNV-1a 64 + Murmur3 finalizer — must match RingHash in
    src/server/router.cc bit for bit."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


def ring_worker(session, workers, virtual_nodes=64):
    """Independent reimplementation of the router's consistent-hash ring."""
    ring = sorted((ring_hash(f"{addr}#{v}".encode()), index)
                  for index, addr in enumerate(workers)
                  for v in range(virtual_nodes))
    key = ring_hash(session.encode())
    for point, index in ring:
        if point >= key:
            return index
    return ring[0][1]


def session_on(worker_index, workers, tag):
    """A session id the ring assigns to `worker_index`."""
    for n in range(10_000):
        candidate = f"{tag}-{worker_index}-{n}"
        if ring_worker(candidate, workers) == worker_index:
            return candidate
    raise AssertionError(f"no session id found for worker {worker_index}")


def spawn_server(server_bin, extra_args, announce):
    """Starts a cpa_server process and parses its announced endpoint."""
    proc = subprocess.Popen([server_bin] + extra_args,
                            stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 30
    for line in proc.stderr:
        if announce in line:
            endpoint = line.split(announce, 1)[1].split()[0]
            return proc, int(endpoint.rsplit(":", 1)[1])
        if time.monotonic() > deadline:
            break
    proc.kill()
    raise AssertionError(f"server never announced '{announce}'")


def run_router_mode(server_bin, host):
    """Spawns 2 workers + a router, drives sessions, kills a worker."""
    procs = []
    try:
        workers = []
        for _ in range(2):
            proc, port = spawn_server(server_bin, ["--tcp", "--bind", host],
                                      "listening on ")
            procs.append(proc)
            workers.append(f"{host}:{port}")
        router_proc, router_port = spawn_server(
            server_bin,
            ["--router", "--workers", ",".join(workers), "--bind", host],
            "routing on ")
        procs.append(router_proc)

        with socket.create_connection((host, router_port), timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = FrameReader(sock)

            # The same two lifecycles as single-server mode, but with ids
            # the Python ring places on *different* workers — exercising
            # cross-worker forwarding on one client connection.
            json_final = run_json_session(sock, reader,
                                          session_on(0, workers, "smoke-json"))
            binary_final = run_binary_session(
                sock, reader, session_on(1, workers, "smoke-binary"))
            assert json_final["predictions"] == binary_final["predictions"], \
                "workers disagree on the same stream"
            poke_error_paths(sock, reader)

            # Session-less opens get router-assigned ids (so they hash
            # back to the worker that owns them).
            sock.sendall(json_frame({"op": "open", "config": OPEN_CONFIG}))
            opened = expect_json_ok(*reader.next_frame(), op="open")
            assert opened["session"].startswith("r"), opened
            sock.sendall(json_frame({"op": "close",
                                     "session": opened["session"]}))
            expect_json_ok(*reader.next_frame(), op="close")

            # One live session per worker, then SIGKILL worker 1.
            survivor = session_on(0, workers, "survivor")
            casualty = session_on(1, workers, "casualty")
            for session in (survivor, casualty):
                sock.sendall(json_frame({"op": "open", "session": session,
                                         "config": OPEN_CONFIG}))
                expect_json_ok(*reader.next_frame(), op="open")
            procs[1].send_signal(signal.SIGKILL)
            procs[1].wait()

            # The dead worker's session fails with a clean router error …
            sock.sendall(json_frame({"op": "snapshot", "session": casualty}))
            kind, payload = reader.next_frame()
            error = json.loads(payload)
            assert error["ok"] is False and error["code"] == "IOError", error
            assert "unavailable" in error["error"], error

            # … the survivor's session still serves, on the same client
            # connection, and `list` degrades to the reachable fleet.
            batch = [{"item": i, "worker": w, "labels": labels}
                     for i, w, labels in ANSWERS[:4]]
            sock.sendall(json_frame({"op": "observe", "session": survivor,
                                     "answers": batch}))
            ack = expect_json_ok(*reader.next_frame(), op="observe")
            assert ack["answers_seen"] == 4, ack
            sock.sendall(json_frame({"op": "list"}))
            listed = expect_json_ok(*reader.next_frame(), op="list")
            ids = sorted(row["session"] for row in listed["sessions"])
            assert ids == [survivor], ids

        print(f"tcp_smoke: OK — router fleet of {len(workers)} workers "
              f"agreed on {len(json_final['predictions'])} predictions, "
              f"survived a SIGKILLed worker")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int,
                        help="port of an already-running cpa_server --tcp")
    parser.add_argument("--router", action="store_true",
                        help="spawn a 2-worker fleet + router and smoke it")
    parser.add_argument("--server-bin", default="build/src/cpa_server",
                        help="cpa_server binary for --router mode")
    args = parser.parse_args()

    if args.router:
        return run_router_mode(args.server_bin, args.host)
    if args.port is None:
        parser.error("--port is required unless --router is given")

    with socket.create_connection((args.host, args.port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = FrameReader(sock)
        sequenced = negotiate_sequencing(sock, reader)
        json_final = run_json_session(sock, reader, "smoke-json")
        binary_final = run_binary_session(sock, reader, "smoke-binary")
        poke_error_paths(sock, reader)

    for key in ("method", "batches_seen", "answers_seen", "finalized"):
        assert json_final[key] == binary_final[key], \
            f"{key}: json={json_final[key]} binary={binary_final[key]}"
    assert json_final["predictions"] == binary_final["predictions"], (
        f"transports disagree:\n  json:   {json_final['predictions']}"
        f"\n  binary: {binary_final['predictions']}")
    print(f"tcp_smoke: OK — both transports agree on "
          f"{len(json_final['predictions'])} predictions "
          f"({json_final['answers_seen']} answers, "
          f"method {json_final['method']}, sequencing "
          f"{'negotiated' if sequenced else 'unsupported (legacy)'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
