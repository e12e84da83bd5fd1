import functools
import json
import socket
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commkex import commutant, wire
from commkex.attacks import passive_commutant_attack
from commkex.commutant import RingMatrix, RingSample
from commkex.errors import (
    ChecksumMismatch,
    Error,
    FrameTooLarge,
    IncompleteTranscript,
    NeedMoreBytes,
    ParseError,
    ProtocolViolation,
    UnknownTag,
)
from commkex.gf import Rng
from commkex.kex import (
    derive_shared,
    gen_params,
    keygen,
    params_from_json,
    params_to_json,
    public_key,
    vector_to_bytes,
)
from commkex.wire import (
    DIR_I2R,
    DIR_R2I,
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    TAG_CONFIRM,
    TAG_PARAMS,
    TAG_PUBKEY,
    Frame,
    Listener,
    Transcript,
    checksum64,
    connect_and_run,
    decode_frame,
    eavesdrop,
    encode_frame,
    run_peer,
)

from oracles import mat_vec_mod


def respelt_params(obj):
    """(label, object) pairs of a params.json object with one number
    respelt: a repeat down z's main diagonal with a leading zero (like
    "07"), or a zeta entry with a plus sign (like "+7").  int() reads
    each as the number it was; a reader does not."""
    z, zeta = json.loads(json.dumps(obj)), json.loads(json.dumps(obj))
    m = int(obj["k"]) * int(obj["d"])
    z["z"]["matrix"]["entries"][m + 1] = "0" + z["z"]["matrix"]["entries"][m + 1]
    zeta["zeta"]["entries"][0] = "+" + zeta["zeta"]["entries"][0]
    return [("respelt z entry", z), ("respelt zeta entry", zeta)]


def make_session(seed=1, q=101, k=2, d=2, degree=3):
    rng = Rng(seed)
    params = gen_params(q, k, d, degree, rng)
    sk_a, pk_a = keygen(params, rng)
    sk_b, pk_b = keygen(params, rng)
    return params, sk_a, pk_a, sk_b, pk_b


def run_socketpair_session(params, sk_a, sk_b, tamper=None, responder_params=None):
    """Run both peers over a socketpair, the responder configured with
    ``responder_params`` (default: params); optionally tamper with the
    raw bytes the initiator sends."""
    left, right = socket.socketpair()

    class TamperingSocket:
        def __init__(self, sock):
            self._sock = sock

        def sendall(self, data):
            self._sock.sendall(tamper(data) if tamper else data)

        def recv(self, n):
            return self._sock.recv(n)

    results = {}
    errors = {}

    def responder():
        try:
            results["r"] = run_peer(
                ROLE_RESPONDER, right, params=responder_params or params, private_key=sk_b
            )
        except Exception as exc:  # noqa: BLE001 - collected for asserts
            errors["r"] = exc
            right.shutdown(socket.SHUT_RDWR)  # the initiator meets EOF, not a wait

    thread = threading.Thread(target=responder)
    thread.start()
    try:
        results["i"] = run_peer(
            ROLE_INITIATOR, TamperingSocket(left), params=params, private_key=sk_a
        )
    except Exception as exc:  # noqa: BLE001
        errors["i"] = exc
    thread.join(timeout=10)
    left.close()
    right.close()
    return results, errors


# --- checksum -------------------------------------------------------------


def test_checksum64_reference_values():
    assert checksum64(b"") == 0xCBF29CE484222325
    assert checksum64(b"a") == 0xAF63DC4C8601EC8C


def test_checksum64_is_byte_incremental():
    data = b"commuting matrices"
    state = 0xCBF29CE484222325
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) % 2**64
    assert checksum64(data) == state


# --- frame codec ----------------------------------------------------------


def test_frame_encoding_examples():
    payload = (4).to_bytes(8, "big") + (6).to_bytes(8, "big")
    assert encode_frame(Frame(TAG_PUBKEY, payload)) == bytes.fromhex(
        "0000001002"
    ) + payload
    assert encode_frame(Frame(TAG_CONFIRM, b"")) == bytes.fromhex("0000000003")


def test_frame_too_large():
    with pytest.raises(FrameTooLarge):
        encode_frame(Frame(TAG_PUBKEY, b"x" * (2**20 + 1)))
    header = (2**21).to_bytes(4, "big") + bytes([TAG_PUBKEY])
    with pytest.raises(FrameTooLarge):
        decode_frame(header)


def test_decode_unknown_tag():
    with pytest.raises(UnknownTag):
        decode_frame((0).to_bytes(4, "big") + b"\x7f")


def test_decode_incremental():
    frame = Frame(TAG_PUBKEY, b"payload")
    encoded = encode_frame(frame)
    for cut in range(len(encoded)):
        with pytest.raises(NeedMoreBytes):
            decode_frame(encoded[:cut])
    decoded, used = decode_frame(encoded + b"tail")
    assert decoded == frame and used == len(encoded)


@settings(max_examples=200)
@given(
    st.sampled_from([TAG_PARAMS, TAG_PUBKEY, TAG_CONFIRM]),
    st.binary(min_size=0, max_size=4096),
)
def test_frame_round_trip_hypothesis(tag, payload):
    frame = Frame(tag, payload)
    decoded, used = decode_frame(encode_frame(frame))
    assert decoded == frame
    assert used == 5 + len(payload)


def test_frame_round_trip_bulk():
    rng = Rng(2024)
    for _ in range(10_000):
        tag = [TAG_PARAMS, TAG_PUBKEY, TAG_CONFIRM][rng.below(3)]
        size = rng.below(64)
        payload = bytes(rng.below(256) for _ in range(size))
        frame = Frame(tag, payload)
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded == frame


def test_frame_round_trip_at_size_cap():
    frame = Frame(TAG_PARAMS, b"\xaa" * (2**20))
    decoded, _ = decode_frame(encode_frame(frame))
    assert decoded == frame


FRAME_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda length, tag, rest: length.to_bytes(4, "big") + bytes([tag]) + rest,
        st.integers(min_value=0, max_value=40) | st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=64),
    ),
)


@settings(max_examples=500)
@given(FRAME_BYTES)
def test_decode_frame_on_arbitrary_bytes(data):
    # whatever a peer sends, decoding returns one frame from the head of
    # the buffer or raises one of the three frame errors
    try:
        frame, used = decode_frame(data)
    except (NeedMoreBytes, FrameTooLarge, UnknownTag):
        return
    assert used <= len(data)
    assert data[:4] == (used - 5).to_bytes(4, "big")
    assert frame == Frame(data[4], data[5:used])


# --- sessions -------------------------------------------------------------


def test_honest_session_agreement():
    params, sk_a, _, sk_b, _ = make_session()
    results, errors = run_socketpair_session(params, sk_a, sk_b)
    assert not errors
    shared_i, transcript_i = results["i"]
    shared_r, transcript_r = results["r"]
    assert shared_i.vec == shared_r.vec
    assert shared_i.vec == derive_shared(params, sk_a, public_key(params, sk_b)).vec
    # both transcripts capture the full 5-frame session
    assert len(transcript_i.frames) == len(transcript_r.frames) == 5
    tags_i = [f.tag for _, f in transcript_i.frames]
    assert tags_i == [TAG_PARAMS, TAG_PUBKEY, TAG_PUBKEY, TAG_CONFIRM, TAG_CONFIRM]


def test_corrupted_pubkey_yields_checksum_mismatch():
    params, sk_a, _, sk_b, _ = make_session(seed=5)

    state = {"count": 0}

    def tamper(data):
        state["count"] += 1
        if state["count"] == 2:  # second initiator frame is its PUBKEY
            corrupted = bytearray(data)
            corrupted[-1] ^= 0x01
            return bytes(corrupted)
        return data

    results, errors = run_socketpair_session(params, sk_a, sk_b, tamper=tamper)
    assert any(isinstance(e, ChecksumMismatch) for e in errors.values())


def test_out_of_order_frames_rejected():
    params, sk_a, _, _, _ = make_session(seed=6)
    left, right = socket.socketpair()
    try:
        # a fake initiator that leads with CONFIRM
        left.sendall(encode_frame(Frame(TAG_CONFIRM, b"\x00" * 8)))
        with pytest.raises(ProtocolViolation):
            run_peer(ROLE_RESPONDER, right, params=params, private_key=sk_a)
    finally:
        left.close()
        right.close()


def test_responder_rejects_mismatched_params():
    params, sk_a, _, sk_b, _ = make_session(seed=7)
    other = gen_params(7, 1, 2, 1, Rng(1))
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame(Frame(TAG_PARAMS, params_to_json(other).encode())))
        with pytest.raises(ProtocolViolation):
            run_peer(ROLE_RESPONDER, right, params=params, private_key=sk_b)
    finally:
        left.close()
        right.close()


def test_configured_responder_compares_params():
    # a responder with params of its own accepts a frame of the same
    # values (q, k, d, D, zeta, z), whatever its seed or recipe, and
    # refuses one that differs in a single z entry, zeta entry or in D
    params, sk_a, _, sk_b, _ = make_session(seed=9)
    plain = replace(params, ring_base=RingSample(params.z_ring))
    for configured in (
        params_from_json(params_to_json(params)),
        replace(params, seed=1),
        plain,
        replace(plain, seed=None),
    ):
        results, errors = run_socketpair_session(params, sk_a, sk_b, responder_params=configured)
        assert not errors and results["i"][0].vec == results["r"][0].vec
    blocks = [list(b) for b in params.z_ring.blocks]
    blocks[1][-1] = (blocks[1][-1] + 1) % params.q  # entry (0, 2k-1) of the dense z
    other_z = replace(plain, ring_base=RingSample(RingMatrix(params.k, params.d, blocks)))
    zeta = list(params.base_vector)
    zeta[0] = (zeta[0] + 1) % params.q
    for configured, sent in (
        (plain, other_z),
        (params, other_z),
        (params, replace(params, base_vector=zeta)),
        (params, replace(params, degree=params.degree - 1)),
    ):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(Frame(TAG_PARAMS, params_to_json(sent).encode())))
            left.shutdown(socket.SHUT_WR)  # a responder that accepts meets EOF, not a wait
            with pytest.raises(ProtocolViolation, match="^received parameters differ"):
                run_peer(ROLE_RESPONDER, right, params=configured, private_key=sk_b)
        finally:
            left.close()
            right.close()


def test_responder_accepts_equal_params_without_recipe_or_seed():
    # the responder's params.json has no recipe and no seed; the
    # initiator sends the params it sampled, recipe and seed included
    params = gen_params(101, 2, 2, 3, Rng(5), seed=5)
    obj = json.loads(params_to_json(params))
    del obj["z"]["recipe"], obj["seed"]
    configured = params_from_json(json.dumps(obj))
    rng = Rng(6)
    (sk_a, _), (sk_b, _) = keygen(params, rng), keygen(configured, rng)
    results, errors = run_socketpair_session(params, sk_a, sk_b, responder_params=configured)
    assert not errors
    assert results["i"][0].vec == results["r"][0].vec


def test_peer_requires_inputs():
    with pytest.raises(ValueError):
        run_peer(ROLE_INITIATOR, None)
    with pytest.raises(ValueError):
        run_peer("observer", None)


def test_closed_transport_surfaces():
    params, sk_a, _, _, _ = make_session(seed=8)
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(OSError):
            run_peer(ROLE_INITIATOR, right, params=params, private_key=sk_a)
    finally:
        right.close()


# --- eavesdropping --------------------------------------------------------


def test_eavesdrop_recovers_honest_session():
    params, sk_a, _, sk_b, _ = make_session(seed=9)
    results, errors = run_socketpair_session(params, sk_a, sk_b)
    assert not errors
    shared, transcript = results["i"]
    for source in (transcript, results["r"][1]):
        res = eavesdrop(source)
        assert res.verdict
        assert res.shared_key.vec == shared.vec
        assert res.confirms_observed == 2


def test_eavesdrop_missing_frames():
    params, sk_a, _, sk_b, _ = make_session(seed=10)
    results, _ = run_socketpair_session(params, sk_a, sk_b)
    _, transcript = results["i"]
    no_pubkey = Transcript([(d, f) for d, f in transcript.frames if f.tag != TAG_PUBKEY])
    with pytest.raises(IncompleteTranscript):
        eavesdrop(no_pubkey)
    no_params = Transcript([(d, f) for d, f in transcript.frames if f.tag != TAG_PARAMS])
    with pytest.raises(IncompleteTranscript):
        eavesdrop(no_params)


def test_eavesdrop_malformed_recipe_is_incomplete(malformed_recipes):
    params, sk_a, _, sk_b, _ = make_session(seed=12)
    results, _ = run_socketpair_session(params, sk_a, sk_b)
    _, transcript = results["i"]
    assert eavesdrop(transcript).verdict
    obj = json.loads(params_to_json(params))
    for label, bad in malformed_recipes(obj) + respelt_params(obj):
        frames = [
            (d, Frame(TAG_PARAMS, json.dumps(bad).encode()) if f.tag == TAG_PARAMS else f)
            for d, f in transcript.frames
        ]
        with pytest.raises(IncompleteTranscript, match="unreadable PARAMS frame"):
            eavesdrop(Transcript(frames))


def test_eavesdrop_is_deterministic_and_replayable():
    params, sk_a, _, sk_b, _ = make_session(seed=11)
    results, _ = run_socketpair_session(params, sk_a, sk_b)
    _, transcript = results["i"]
    text = transcript.to_json()
    replayed = Transcript.from_json(text)
    assert replayed.to_json() == text
    first = eavesdrop(transcript)
    second = eavesdrop(replayed)
    assert first.shared_key.vec == second.shared_key.vec
    assert first.verdict == second.verdict


Q31 = 2**31 - 1


@functools.lru_cache(maxsize=None)
def recorded_k8d2_session():
    """The transcript of an honest 8x2 session over GF(Q31), as the
    initiator recorded it, the passive attack's key T' (it depends on the
    initiator's public key alone) and the honest shared key."""
    params, sk_a, pk_a, sk_b, pk_b = make_session(seed=13, q=Q31, k=8, d=2)
    results, errors = run_socketpair_session(params, sk_a, sk_b)
    assert not errors
    shared, transcript = results["i"]
    recovered = passive_commutant_attack(params, pk_a, pk_b).recovered.to_rows()
    return transcript, recovered, shared


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, Q31 - 1), min_size=16, max_size=16))
@example(vec=[0] * 16)
@example(vec=[Q31 - 1] * 16)
def test_eavesdrop_on_a_forged_responder_pubkey(vec):
    # the responder's PUBKEY replaced by any vector of in-range residues:
    # the eavesdropper applies T' to it, and its verdict holds only when
    # that reproduces the confirmed key; anything it raises is a
    # documented error class
    transcript, recovered, shared = recorded_k8d2_session()
    frames = [
        (d, Frame(TAG_PUBKEY, vector_to_bytes(vec)) if (d, f.tag) == (DIR_R2I, TAG_PUBKEY) else f)
        for d, f in transcript.frames
    ]
    try:
        res = eavesdrop(Transcript(frames))
    except Error:
        return
    assert res.shared_key.vec == mat_vec_mod(recovered, vec, Q31)
    assert res.verdict == (res.shared_key == shared)
    assert res.confirms_observed == 2


def test_transcript_json_validation():
    with pytest.raises(ParseError):
        Transcript.from_json("{")
    with pytest.raises(ParseError):
        Transcript.from_json('{"frames": [{"dir": "sideways", "tag": 1, "payload_hex": ""}]}')
    with pytest.raises(ParseError):
        Transcript.from_json('{"frames": [{"dir": "i2r", "tag": 9, "payload_hex": ""}]}')
    with pytest.raises(ParseError):
        Transcript.from_json('{"frames": [{"dir": "i2r", "tag": 1, "payload_hex": "zz"}]}')
    # true == 1, but a JSON boolean is not a tag
    with pytest.raises(ParseError):
        Transcript.from_json('{"frames": [{"dir": "i2r", "tag": true, "payload_hex": "00"}]}')
    # bytes.fromhex reads both; a payload has one spelling, lowercase
    for hexpay in ("0A", "0a 0b"):
        with pytest.raises(ParseError, match=r"^transcript\.frames\[0\]: bad payload hex$"):
            Transcript.from_json('{"frames": [{"dir": "i2r", "tag": 1, "payload_hex": "%s"}]}' % hexpay)


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)
FRAME_OBJECTS = st.fixed_dictionaries(
    {},
    optional={
        "dir": st.one_of(st.sampled_from([DIR_I2R, DIR_R2I]), JSON_VALUES),
        "tag": st.one_of(st.integers(min_value=-1, max_value=4), JSON_VALUES),
        "payload_hex": st.one_of(st.binary(max_size=8).map(bytes.hex), JSON_VALUES),
    },
)
TRANSCRIPT_TEXT = st.one_of(
    st.text(max_size=32),
    JSON_VALUES.map(json.dumps),
    st.lists(st.one_of(FRAME_OBJECTS, JSON_VALUES), max_size=4).map(
        lambda frames: json.dumps({"frames": frames})
    ),
)


@settings(max_examples=500, deadline=None)
@given(TRANSCRIPT_TEXT)
@example("1" * 5000)  # more digits than int() converts
@example("[" * 100_000)  # deeper than the JSON decoder recurses
@example('{"frames": [' * 50_000)
def test_transcript_from_arbitrary_json_raises_only_parse_error(text):
    try:
        transcript = Transcript.from_json(text)
    except ParseError:
        return
    assert Transcript.from_json(transcript.to_json()) == transcript


# --- listener -------------------------------------------------------------


@pytest.mark.usefixtures("no_thread_leak")
def test_idle_listener_stops_at_once():
    # stop() must wake an accept loop that no client ever reached
    listener = Listener(params=None, seed=1)
    listener.start()
    time.sleep(0.2)  # the accept loop is now blocked in accept()
    started = time.monotonic()
    listener.stop()
    assert time.monotonic() - started < 1.0
    assert not listener._accept_thread.is_alive()


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_serves_concurrent_sessions():
    params, sk_a, _, _, _ = make_session(seed=12)
    listener = Listener(params=params, seed=999, max_sessions=4)
    host, port = listener.start()
    try:
        outcomes = {}

        def dial(tag):
            sk, _ = keygen(params, Rng(100 + tag))
            outcomes[tag] = connect_and_run(host, port, params, sk)

        threads = [threading.Thread(target=dial, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        listener.wait(4)
    finally:
        listener.stop()
    assert len(outcomes) == 4
    assert len(listener.results) == 4
    assert not any(isinstance(r, Exception) for r in listener.results)
    # every session's transcript breaks to the correct shared key
    for tag, (shared, transcript) in outcomes.items():
        res = eavesdrop(transcript)
        assert res.verdict and res.shared_key.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_adopts_params_from_wire():
    params, sk_a, _, _, _ = make_session(seed=13)
    listener = Listener(seed=55, max_sessions=1)  # no params configured
    host, port = listener.start()
    try:
        shared, transcript = connect_and_run(host, port, params, sk_a)
        listener.wait(1)
    finally:
        listener.stop()
    result = listener.results[0]
    assert not isinstance(result, Exception)
    assert result.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_rejects_degree_above_m_squared_and_keeps_serving():
    # m = 2: a PARAMS frame with D = 5 > m**2 is a protocol violation,
    # and so is D = 4 = m**2 > max(3, d), the wire cap; D = 3 is served,
    # on the same listener, afterwards
    params = gen_params(101, 1, 2, 1, Rng(14))
    obj = json.loads(params_to_json(params))
    listener = Listener(seed=56, max_sessions=3)
    host, port = listener.start()
    try:
        for n, degree in enumerate(("5", "4"), 1):
            obj["D"] = degree
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(encode_frame(Frame(TAG_PARAMS, json.dumps(obj).encode())))
                assert sock.recv(1) == b""  # the listener hangs up
            listener.wait(n)
        obj["D"] = "3"
        at_cap = params_from_json(json.dumps(obj))
        sk, _ = keygen(at_cap, Rng(57))
        shared, _ = connect_and_run(host, port, at_cap, sk)
        listener.wait(3)
    finally:
        listener.stop()
    above_m2, above_cap, good = listener.results
    assert isinstance(above_m2, ProtocolViolation) and "exceeds m**2" in str(above_m2)
    assert isinstance(above_cap, ProtocolViolation) and "exceeds max(3, d) = 3" in str(above_cap)
    assert not isinstance(good, Exception) and good.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_refuses_degree_above_wire_cap_before_keygen(monkeypatch):
    # a 1x16 frame with D = m**2 = 256 is refused before the responder
    # builds z's power table; D = 16 = max(3, d) is served and broken
    params = gen_params(Q31, 1, 16, 16, Rng(16))
    obj = json.loads(params_to_json(params))
    obj["D"] = "256"
    tables = []
    build = commutant.PowerTable.__init__

    def counting_build(self, *args):
        tables.append(args)
        build(self, *args)

    monkeypatch.setattr(commutant.PowerTable, "__init__", counting_build)
    listener = Listener(seed=60, max_sessions=2)
    host, port = listener.start()
    try:
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(encode_frame(Frame(TAG_PARAMS, json.dumps(obj).encode())))
            assert sock.recv(1) == b""
        listener.wait(1)
        assert tables == []
        sk, _ = keygen(params, Rng(61))
        shared, transcript = connect_and_run(host, port, params, sk)
        listener.wait(2)
    finally:
        listener.stop()
    refused, good = listener.results
    assert isinstance(refused, ProtocolViolation) and "degree bound 256 exceeds" in str(refused)
    assert not isinstance(good, Exception) and good.vec == shared.vec
    res = eavesdrop(transcript)
    assert res.verdict and res.shared_key.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_rejects_malformed_recipe_and_keeps_serving(malformed_recipes):
    # a PARAMS frame whose recipe no loader accepts, or with a number
    # respelt, is a protocol violation; the same listener then serves an
    # honest session
    params = gen_params(101, 2, 2, 2, Rng(15))
    obj = json.loads(params_to_json(params))
    bad = dict(malformed_recipes(obj) + respelt_params(obj))
    labels = ("factors not a list", "ragged grid", "zero block size", "huge exponent")
    labels += ("respelt z entry", "respelt zeta entry")
    listener = Listener(seed=58, max_sessions=len(labels) + 1)
    host, port = listener.start()
    try:
        for n, label in enumerate(labels, 1):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(encode_frame(Frame(TAG_PARAMS, json.dumps(bad[label]).encode())))
                assert sock.recv(1) == b""  # the listener hangs up
            listener.wait(n)
        sk, _ = keygen(params, Rng(59))
        shared, _ = connect_and_run(host, port, params, sk)
        listener.wait(len(labels) + 1)
    finally:
        listener.stop()
    *rejected, good = listener.results
    assert all(isinstance(r, ProtocolViolation) for r in rejected), rejected
    assert not isinstance(good, Exception) and good.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_refuses_a_zero_pubkey_and_keeps_serving():
    # a raw-socket peer sends PARAMS and an all-zero PUBKEY, which every
    # key maps to the zero shared key: the listener hangs up before its
    # own PUBKEY, records a protocol violation, then serves an honest
    # session; a transcript with the zero PUBKEY is incomplete
    params, sk_a, _, _, _ = make_session(seed=18, q=101, k=2, d=2, degree=2)
    zero = Frame(TAG_PUBKEY, vector_to_bytes([0] * params.m))
    listener = Listener(seed=62, max_sessions=2)
    host, port = listener.start()
    try:
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(encode_frame(Frame(TAG_PARAMS, params_to_json(params).encode())))
            sock.sendall(encode_frame(zero))
            assert sock.recv(1) == b""  # the listener hangs up
        listener.wait(1)
        shared, transcript = connect_and_run(host, port, params, sk_a)
        listener.wait(2)
    finally:
        listener.stop()
    refused, good = listener.results
    assert isinstance(refused, ProtocolViolation) and "public key is zero" in str(refused)
    assert not isinstance(good, Exception) and good.vec == shared.vec
    forged = Transcript([(d, zero if f.tag == TAG_PUBKEY else f) for d, f in transcript.frames])
    with pytest.raises(IncompleteTranscript, match="unreadable PUBKEY frame: public key is zero"):
        eavesdrop(forged)


@pytest.mark.usefixtures("no_thread_leak")
def test_stop_ends_silent_sessions_at_once():
    # eight clients that never send a byte hold eight sessions open; an
    # honest client is still served, and stop() ends the eight at once,
    # collecting each as a failed session
    before = set(threading.enumerate())
    params, sk_a, _, _, _ = make_session(seed=17)
    listener = Listener(seed=62)
    host, port = listener.start()
    silent = [socket.create_connection((host, port), timeout=10) for _ in range(8)]
    try:
        shared, _ = connect_and_run(host, port, params, sk_a)
        listener.wait(1)
        started = time.monotonic()
        listener.stop()
        assert time.monotonic() - started < 1.0
        assert [t.name for t in threading.enumerate() if t not in before] == []
    finally:
        listener.stop()
        for sock in silent:
            sock.close()
    good, *cut = listener.results
    assert not isinstance(good, Exception) and good.vec == shared.vec
    assert len(cut) == 8 and all(isinstance(r, ConnectionError) for r in cut)


@pytest.mark.usefixtures("no_thread_leak")
def test_silent_session_times_out(monkeypatch):
    monkeypatch.setattr(wire, "SESSION_TIMEOUT", 0.2)
    params, sk_a, _, _, _ = make_session(seed=18)
    listener = Listener(seed=63)
    host, port = listener.start()
    try:
        with socket.create_connection((host, port), timeout=10):
            listener.wait(1, timeout=10)
        shared, _ = connect_and_run(host, port, params, sk_a)
        listener.wait(2)
    finally:
        listener.stop()
    timed_out, good = listener.results
    assert isinstance(timed_out, TimeoutError)
    assert not isinstance(good, Exception) and good.vec == shared.vec


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_closes_connection_beyond_its_workers(monkeypatch):
    monkeypatch.setattr(wire, "LISTENER_WORKERS", 2)
    listener = Listener(seed=64)
    host, port = listener.start()
    busy = [socket.create_connection((host, port), timeout=10) for _ in range(2)]
    try:
        with socket.create_connection((host, port), timeout=10) as third:
            assert third.recv(1) == b""  # closed unserved
    finally:
        listener.stop()
        for sock in busy:
            sock.close()
    # only the two admitted sessions are collected, both cut by stop()
    assert len(listener.results) == 2
    assert all(isinstance(r, ConnectionError) for r in listener.results)


@pytest.mark.usefixtures("no_thread_leak")
def test_listener_closes_connections_after_max_sessions():
    params, sk_a, _, _, _ = make_session(seed=19)
    listener = Listener(seed=65, max_sessions=1)
    host, port = listener.start()
    try:
        shared, _ = connect_and_run(host, port, params, sk_a)
        listener.wait(1)
        with socket.create_connection((host, port), timeout=10) as late:
            assert late.recv(1) == b""
    finally:
        listener.stop()
    (good,) = listener.results
    assert not isinstance(good, Exception) and good.vec == shared.vec
