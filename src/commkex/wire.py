"""Framed stream protocol for running the exchange between two peers,
plus the passive eavesdropper that breaks every session.

Frame wire format: 4-byte big-endian payload length, one tag byte,
payload.  Payloads are capped at 2**20 bytes.  Tags:

  0x01 PARAMS   canonical params JSON (UTF-8); a responder refuses D
                above max(3, d): z's powers past d-1 add no keys
  0x02 PUBKEY   public-key vector, 8-byte big-endian per entry
  0x03 CONFIRM  8-byte big-endian FNV-1a-64 checksum of the shared key
                bytes (key confirmation only -- deliberately not a MAC;
                the model is a passive adversary)

Session order: the initiator sends PARAMS then PUBKEY; the responder
answers with its PUBKEY; both derive the shared key; the initiator
sends CONFIRM, the responder echoes its own CONFIRM, and each side
compares checksums.  A single round trip, no retransmission, no
authentication.

``Listener`` serves the responder side: ``socketserver`` accepts, and a
pool of ``LISTENER_WORKERS`` threads runs each session on a socket that
times out after ``SESSION_TIMEOUT`` seconds.  A connection beyond the
pool or ``max_sessions`` is closed unserved; ``stop`` ends open sessions.

Every frame either sent or received is appended to a transcript, so a
transcript captured by either peer (or a tap) replays the full session.
``eavesdrop`` consumes such a transcript and recovers the shared key
from public data alone via the passive attack.
"""

from __future__ import annotations

import operator
import socket
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .attacks import passive_commutant_attack
from .errors import (
    ChecksumMismatch,
    FrameTooLarge,
    IncompleteTranscript,
    NeedMoreBytes,
    ParseError,
    ProtocolViolation,
    UnknownTag,
)
from .gf import Rng
from .kex import (
    Params,
    PrivateKey,
    PublicKey,
    SharedKey,
    _loads,
    canonical_json,
    derive_shared,
    keygen,
    params_from_json,
    params_to_json,
    public_key,
    vector_from_bytes,
    vector_to_bytes,
)

TAG_PARAMS = 0x01
TAG_PUBKEY = 0x02
TAG_CONFIRM = 0x03
_TAGS = {TAG_PARAMS, TAG_PUBKEY, TAG_CONFIRM}
_TAG_NAMES = {TAG_PARAMS: "PARAMS", TAG_PUBKEY: "PUBKEY", TAG_CONFIRM: "CONFIRM"}

MAX_PAYLOAD = 1 << 20

SESSION_TIMEOUT = 30.0  # seconds a session's socket waits on its peer
LISTENER_WORKERS = 32  # sessions a Listener serves at once

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"
_session_values = operator.attrgetter("q", "k", "d", "degree", "base_vector", "z_ring")

# Direction labels are relative to the initiator: i2r frames travel
# initiator -> responder.
DIR_I2R = "i2r"
DIR_R2I = "r2i"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def checksum64(data: bytes) -> int:
    """FNV-1a 64-bit."""
    state = FNV_OFFSET
    for byte in data:
        state = ((state ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return state


@dataclass(frozen=True)
class Frame:
    tag: int
    payload: bytes


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {len(frame.payload)} bytes exceeds {MAX_PAYLOAD}")
    if frame.tag not in _TAGS:
        raise UnknownTag(f"tag {frame.tag:#04x} is not defined")
    return len(frame.payload).to_bytes(4, "big") + bytes([frame.tag]) + frame.payload


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of ``data``.

    Returns the frame and the number of bytes consumed.  Raises
    NeedMoreBytes while the buffer is still short, so callers can feed
    a stream incrementally.
    """
    if len(data) < 4:
        raise NeedMoreBytes("frame header incomplete")
    length = int.from_bytes(data[:4], "big")
    if length > MAX_PAYLOAD:
        raise FrameTooLarge(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    if len(data) < 5:
        raise NeedMoreBytes("tag byte missing")
    tag = data[4]
    if tag not in _TAGS:
        raise UnknownTag(f"tag {tag:#04x} is not defined")
    if len(data) < 5 + length:
        raise NeedMoreBytes(f"payload incomplete ({len(data) - 5}/{length} bytes)")
    return Frame(tag, bytes(data[5 : 5 + length])), 5 + length


@dataclass
class Transcript:
    """Append-only record of a session's frames with directions."""

    frames: list[tuple[str, Frame]] = dc_field(default_factory=list)

    def append(self, direction: str, frame: Frame) -> None:
        self.frames.append((direction, frame))

    def to_json(self) -> str:
        return canonical_json(
            {
                "frames": [
                    {"dir": d, "tag": f.tag, "payload_hex": f.payload.hex()}
                    for d, f in self.frames
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        obj = _loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("frames"), list):
            raise ParseError("transcript: expected {\"frames\": [...]}")
        frames = []
        for i, raw in enumerate(obj["frames"]):
            if not isinstance(raw, dict):
                raise ParseError(f"transcript.frames[{i}]: expected an object")
            d = raw.get("dir")
            tag = raw.get("tag")
            hexpay = raw.get("payload_hex")
            if d not in (DIR_I2R, DIR_R2I) or not isinstance(tag, int) or isinstance(tag, bool):
                raise ParseError(f"transcript.frames[{i}]: bad dir/tag")
            if tag not in _TAGS:
                raise ParseError(f"transcript.frames[{i}]: unknown tag {tag}")
            try:
                payload = bytes.fromhex(hexpay)
                if payload.hex() != hexpay:  # fromhex also reads uppercase and spaces
                    raise ValueError
            except (TypeError, ValueError):
                raise ParseError(f"transcript.frames[{i}]: bad payload hex") from None
            frames.append((d, Frame(tag, payload)))
        return cls(frames)


def _pubkey_from_payload(payload: bytes, params: Params) -> PublicKey:
    if len(payload) != 8 * params.m:
        raise ProtocolViolation(
            f"public key payload of {len(payload)} bytes, expected {8 * params.m}"
        )
    vec = vector_from_bytes(payload)
    if any(e >= params.q for e in vec):
        raise ProtocolViolation("public key entry is not a canonical residue")
    return PublicKey(vec)


class _FrameReader:
    def __init__(self, transport):
        self._transport = transport
        self._buf = b""

    def next_frame(self) -> Frame:
        while True:
            try:
                frame, used = decode_frame(self._buf)
            except NeedMoreBytes:
                chunk = self._transport.recv(65536)
                if not chunk:
                    raise ConnectionError("peer closed the connection mid-session")
                self._buf += chunk
                continue
            except (FrameTooLarge, UnknownTag) as exc:
                raise ProtocolViolation(f"received frame: {exc}") from None
            self._buf = self._buf[used:]
            return frame


def run_peer(
    role: str,
    transport,
    params: Optional[Params] = None,
    private_key: Optional[PrivateKey] = None,
    rng: Optional[Rng] = None,
) -> tuple[SharedKey, Transcript]:
    """Run one side of the exchange over a connected byte stream.

    The initiator must bring params and a private key.  A responder may
    bring both (the received PARAMS frame must then match their q, k, d,
    D, zeta and z in R; not the seed or recipe, which nothing reads after
    sampling), or neither, in which case it adopts the received
    parameters and generates an ephemeral key with ``rng``.  Transport errors
    propagate as OSError/ConnectionError; a received frame that does not
    decode (an undefined tag, a declared payload over the cap) raises
    ProtocolViolation.
    """
    if role not in (ROLE_INITIATOR, ROLE_RESPONDER):
        raise ValueError(f"unknown role {role!r}")
    transcript = Transcript()
    reader = _FrameReader(transport)
    send_dir = DIR_I2R if role == ROLE_INITIATOR else DIR_R2I
    recv_dir = DIR_R2I if role == ROLE_INITIATOR else DIR_I2R

    def send(tag: int, payload: bytes) -> None:
        frame = Frame(tag, payload)
        transport.sendall(encode_frame(frame))
        transcript.append(send_dir, frame)

    def expect(tag: int) -> Frame:
        frame = reader.next_frame()
        transcript.append(recv_dir, frame)
        if frame.tag != tag:
            raise ProtocolViolation(
                f"expected {_TAG_NAMES[tag]}, got {_TAG_NAMES[frame.tag]}"
            )
        return frame

    if role == ROLE_INITIATOR:
        if params is None or private_key is None:
            raise ValueError("initiator needs params and a private key")
        send(TAG_PARAMS, params_to_json(params).encode())
        send(TAG_PUBKEY, vector_to_bytes(public_key(params, private_key).vec))
        peer_pub = _pubkey_from_payload(expect(TAG_PUBKEY).payload, params)
        shared = derive_shared(params, private_key, peer_pub)
        confirm = checksum64(shared.to_bytes()).to_bytes(8, "big")
        send(TAG_CONFIRM, confirm)
        peer_confirm = expect(TAG_CONFIRM).payload
    else:
        frame = expect(TAG_PARAMS)
        try:
            wire_params = params_from_json(frame.payload.decode("utf-8"))
        except (ParseError, UnicodeDecodeError) as exc:
            raise ProtocolViolation(f"bad PARAMS frame: {exc}") from None
        cap = max(3, wire_params.d)  # Cayley-Hamilton over R
        if wire_params.degree > cap:
            raise ProtocolViolation(f"PARAMS degree bound {wire_params.degree} exceeds max(3, d) = {cap}")
        if params is None:
            params = wire_params
        elif _session_values(params) != _session_values(wire_params):
            raise ProtocolViolation("received parameters differ from configured ones")
        if private_key is None:
            private_key, own_pub = keygen(params, rng if rng is not None else Rng())
        else:
            own_pub = public_key(params, private_key)
        peer_pub = _pubkey_from_payload(expect(TAG_PUBKEY).payload, params)
        send(TAG_PUBKEY, vector_to_bytes(own_pub.vec))
        shared = derive_shared(params, private_key, peer_pub)
        confirm = checksum64(shared.to_bytes()).to_bytes(8, "big")
        peer_confirm = expect(TAG_CONFIRM).payload
        send(TAG_CONFIRM, confirm)

    if peer_confirm != confirm:
        raise ChecksumMismatch("peers derived different shared keys")
    return shared, transcript


@dataclass
class EavesdropResult:
    shared_key: SharedKey
    verdict: bool
    confirms_observed: int


def eavesdrop(transcript: Transcript) -> EavesdropResult:
    """Recover the session key of a recorded exchange from public data.

    Needs the PARAMS frame and both PUBKEY frames (initiator's first);
    raises IncompleteTranscript when one is missing or unreadable.  The
    verdict is True when at least one CONFIRM frame was observed
    and the recovered key's checksum matches every one of them.
    """
    params_frames = [f for _, f in transcript.frames if f.tag == TAG_PARAMS]
    pubkey_frames = [f for _, f in transcript.frames if f.tag == TAG_PUBKEY]
    confirm_frames = [f for _, f in transcript.frames if f.tag == TAG_CONFIRM]
    if not params_frames:
        raise IncompleteTranscript("transcript has no PARAMS frame")
    if len(pubkey_frames) < 2:
        raise IncompleteTranscript(
            f"transcript has {len(pubkey_frames)} PUBKEY frame(s), need 2"
        )
    try:
        params = params_from_json(params_frames[0].payload.decode("utf-8"))
    except (ParseError, UnicodeDecodeError) as exc:
        raise IncompleteTranscript(f"unreadable PARAMS frame: {exc}") from None
    try:
        pub_a = _pubkey_from_payload(pubkey_frames[0].payload, params)
        pub_b = _pubkey_from_payload(pubkey_frames[1].payload, params)
    except ProtocolViolation as exc:
        raise IncompleteTranscript(f"unreadable PUBKEY frame: {exc}") from None
    attack = passive_commutant_attack(params, pub_a, pub_b)
    expected = checksum64(attack.shared_key.to_bytes()).to_bytes(8, "big")
    verdict = bool(confirm_frames) and all(
        f.payload == expected for f in confirm_frames
    )
    return EavesdropResult(attack.shared_key, verdict, len(confirm_frames))


class Listener(socketserver.TCPServer):
    """TCP listener running the responder side (see the module docstring):
    each session's shared key (or exception) is collected in ``results``
    in completion order; transcripts are not kept.  With a seed, every
    session uses the same deterministic key stream; without one, each
    session draws an ephemeral key from OS entropy."""

    allow_reuse_address = True
    request_queue_size = 16

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        params: Optional[Params] = None,
        private_key: Optional[PrivateKey] = None,
        seed: Optional[int] = None,
        max_sessions: Optional[int] = None,
    ):
        super().__init__((host, port), None, bind_and_activate=False)
        self._params = params
        self._private_key = private_key
        self._seed = seed
        self._max_sessions = max_sessions
        self._admitted = 0
        self._open: set[socket.socket] = set()
        self._done = threading.Condition()
        self._pool = ThreadPoolExecutor(LISTENER_WORKERS)
        self._accept_thread: Optional[threading.Thread] = None
        self.results: list[SharedKey | Exception] = []

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> tuple[str, int]:
        self.server_bind()
        self.server_activate()
        # stop() waits up to one poll interval for the accept loop
        self._accept_thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._accept_thread.start()
        return self.address

    def verify_request(self, conn, client_address) -> bool:
        cap = self._max_sessions
        if len(self._open) >= LISTENER_WORKERS or (cap is not None and self._admitted >= cap):
            return False
        self._admitted += 1
        return True

    def process_request(self, conn, client_address) -> None:
        conn.settimeout(SESSION_TIMEOUT)
        with self._done:
            self._open.add(conn)
        self._pool.submit(self._serve_one, conn)

    def _serve_one(self, conn: socket.socket) -> None:
        rng = Rng(self._seed) if self._seed is not None else Rng()
        try:
            with conn:
                result = run_peer(
                    ROLE_RESPONDER, conn, params=self._params, private_key=self._private_key, rng=rng
                )[0]
        except Exception as exc:  # collected for the owner to inspect
            result = exc
        with self._done:
            self._open.discard(conn)
            self.results.append(result)
            self._done.notify_all()

    def wait(self, sessions: int, timeout: float = SESSION_TIMEOUT) -> None:
        """Block until at least ``sessions`` results are in."""
        with self._done:
            if not self._done.wait_for(lambda: len(self.results) >= sessions, timeout):
                raise TimeoutError(f"listener saw {len(self.results)} of {sessions} sessions")

    def stop(self) -> None:
        if self._accept_thread is not None:
            self.shutdown()
        self.server_close()
        with self._done:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a session blocked in recv
                except OSError:
                    pass
        self._pool.shutdown()


def connect_and_run(
    host: str,
    port: int,
    params: Params,
    private_key: PrivateKey,
    timeout: float = SESSION_TIMEOUT,
) -> tuple[SharedKey, Transcript]:
    """Dial a listener and run the initiator side."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        return run_peer(ROLE_INITIATOR, sock, params=params, private_key=private_key)
