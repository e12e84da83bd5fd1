"""Command-line interface tying the library together.

Subcommands: gen-params, keygen, derive, attack {recover-key, shared,
passive}, bench, demo {listen, connect, sniff}.  Artifacts are JSON
files except shared keys, which are raw bytes.  Every subcommand that
samples accepts --seed; a seeded pipeline produces byte-identical
artifacts on every run.

Exit codes: 0 success; 2 usage error; 3 parse/validation error;
4 attack failed (target outside reach of the given data); 5 transport
error (including checksum and protocol failures).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import Optional

from . import attacks, dh, kex, wire
from .errors import (
    ChecksumMismatch,
    Error,
    InconsistentSystem,
    InsufficientRank,
    NoSolution,
    OutOfSpan,
    ParseError,
    ProtocolViolation,
)
from .gf import OpCounter, Rng

_ATTACK_ERRORS = (OutOfSpan, InsufficientRank, InconsistentSystem, NoSolution)
_TRANSPORT_ERRORS = (ChecksumMismatch, ProtocolViolation, OSError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ATTACK = 4
EXIT_TRANSPORT = 5

DEFAULT_Q = 2147483647

# Bench defaults give m = 16 over a 31-bit prime: a 512-bit public key,
# matched against DH with a 512-bit exponent bound.
BENCH_DEFAULTS = {"q": DEFAULT_Q, "k": 8, "d": 2, "degree": 3}
DEFAULT_DH_P = 2305843009213693951  # 2**61 - 1
DEFAULT_DH_G = 3


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _load_params(path: str) -> kex.Params:
    return kex.params_from_json(_read_text(path))


def _load_private(path: str, params: kex.Params) -> kex.PrivateKey:
    return kex.private_key_from_json(_read_text(path), params)


def _load_public(path: str, q: int) -> kex.PublicKey:
    return kex.public_key_from_json(_read_text(path), q)


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    try:  # the files' decimal grammar
        number = kex._parse_int(port, "port") if sep else -1
    except ParseError:
        number = -1
    if number < 0:
        raise ParseError(f"address must be host:port, got {text!r}")
    if number > 65535:
        raise ParseError(f"port must be in [0, 65535], got {text!r}")
    return host or "127.0.0.1", number


def _int(text: str) -> int:
    """An integer flag in the files' decimal grammar, else a usage error (exit 2)."""
    try:
        return kex._parse_int(text, "")
    except ParseError:
        raise argparse.ArgumentTypeError(f"must be a decimal integer as str() writes it, got {text!r}") from None


def _count(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a count of 0 or more, got {text!r}")
    return n


def _sample_exponent(rng: Rng, bits: int) -> int:
    """Uniform exponent with the exact given bit length (top bit set)."""
    if bits <= 1:
        return 1
    e = 1 << (bits - 1)
    filled = 0
    while filled < bits - 1:
        take = min(64, bits - 1 - filled)
        e |= (rng.next_u64() & ((1 << take) - 1)) << filled
        filled += take
    return e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commkex",
        description="Commuting-matrix key exchange over GF(q): protocol, attacks, benchmark, live demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-params", help="sample public parameters")
    p.add_argument("--q", type=_int, required=True, help="prime modulus")
    p.add_argument("--k", type=_int, required=True, help="block size")
    p.add_argument("--d", type=_int, required=True, help="block count (>= 2)")
    p.add_argument("--degree", type=_int, required=True, help="key polynomial degree bound")
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("-o", "--out", required=True, help="output params.json")
    p.set_defaults(handler=_cmd_gen_params)

    p = sub.add_parser("keygen", help="sample a key pair under given parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("-o", "--out", required=True, help="output key.json (private)")
    p.add_argument("--pub", required=True, help="output pub.json (public)")
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("derive", help="derive the shared key from a peer public key")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--peer-pub", required=True)
    p.add_argument("-o", "--out", required=True, help="output shared key bytes")
    p.set_defaults(handler=_cmd_derive)

    atk = sub.add_parser("attack", help="run one of the attacks")
    atk_sub = atk.add_subparsers(dest="attack_command", required=True)

    p = atk_sub.add_parser("recover-key", help="recover a private key from known directory pairs")
    p.add_argument("--params", required=True)
    p.add_argument("--dir", dest="directory", required=True, help="dir.json with known pairs")
    p.add_argument("--target-pub", required=True)
    p.add_argument("--mode", choices=["full", "structured"], default="full")
    p.add_argument("-o", "--out", default=None, help="also write the report JSON here")
    p.set_defaults(handler=_cmd_attack_recover)

    p = atk_sub.add_parser("shared", help="recover a session key via the directory span")
    p.add_argument("--params", required=True)
    p.add_argument("--dir", dest="directory", required=True)
    p.add_argument("--victim-pub", required=True)
    p.add_argument("--counterpart-pub", required=True)
    p.add_argument("-o", "--out", default=None, help="also write the shared key bytes here")
    p.set_defaults(handler=_cmd_attack_shared)

    p = atk_sub.add_parser("passive", help="recover a session key from public data only")
    p.add_argument("--params", required=True)
    p.add_argument("--pub-a", required=True)
    p.add_argument("--pub-b", required=True)
    p.add_argument(
        "--degree-bound", type=_int, default=None, help="0 to m**2; default: the params' D"
    )
    p.add_argument("-o", "--out", default=None, help="also write the shared key bytes here")
    p.set_defaults(handler=_cmd_attack_passive)

    p = sub.add_parser("bench", help="operation-count comparison against toy Diffie-Hellman")
    p.add_argument("--q", type=_int, default=BENCH_DEFAULTS["q"])
    p.add_argument("--k", type=_int, default=BENCH_DEFAULTS["k"])
    p.add_argument("--d", type=_int, default=BENCH_DEFAULTS["d"])
    p.add_argument("--degree", type=_int, default=BENCH_DEFAULTS["degree"])
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("-o", "--out", required=True, help="output report.json")
    p.set_defaults(handler=_cmd_bench)

    demo = sub.add_parser("demo", help="live peer / eavesdropper demo")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)

    p = demo_sub.add_parser("listen", help="serve responder sessions")
    p.add_argument("--addr", required=True, help="host:port (port 0 = ephemeral)")
    p.add_argument("--params", default=None, help="optional; otherwise adopted from the wire")
    p.add_argument("--key", default=None, help="optional private key; otherwise ephemeral")
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--max-sessions", type=_count, default=None, help="stop after N sessions")
    p.set_defaults(handler=_cmd_demo_listen)

    p = demo_sub.add_parser("connect", help="run an initiator session")
    p.add_argument("--addr", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--key", default=None, help="optional private key; otherwise ephemeral")
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--transcript", default=None, help="write the session transcript JSON here")
    p.add_argument("-o", "--out", default=None, help="write the shared key bytes here")
    p.set_defaults(handler=_cmd_demo_connect)

    p = demo_sub.add_parser("sniff", help="recover the key from a recorded transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("-o", "--out", default=None, help="write the recovered key bytes here")
    p.set_defaults(handler=_cmd_demo_sniff)

    return parser


def _cmd_gen_params(args) -> int:
    rng = Rng(args.seed)
    params = kex.gen_params(args.q, args.k, args.d, args.degree, rng, seed=args.seed)
    _write_text(args.out, kex.params_to_json(params))
    return EXIT_OK


def _cmd_keygen(args) -> int:
    params = _load_params(args.params)
    rng = Rng(args.seed)
    private, public = kex.keygen(params, rng)
    _write_text(args.out, kex.private_key_to_json(private))
    _write_text(args.pub, kex.public_key_to_json(public))
    return EXIT_OK


def _cmd_derive(args) -> int:
    params = _load_params(args.params)
    private = _load_private(args.key, params)
    peer = _load_public(args.peer_pub, params.q)
    shared = kex.derive_shared(params, private, peer)
    _write_bytes(args.out, shared.to_bytes())
    return EXIT_OK


def _cmd_attack_recover(args) -> int:
    params = _load_params(args.params)
    directory = attacks.directory_from_obj(kex._loads(_read_text(args.directory)), params)
    target = _load_public(args.target_pub, params.q)
    mode = attacks.MODE_FULL if args.mode == "full" else attacks.MODE_STRUCTURED
    result = attacks.recover_private_key(directory, target, mode)
    report = kex.canonical_json(attacks.report_obj(result))
    print(report)
    if args.out:
        _write_text(args.out, report)
    return EXIT_OK


def _cmd_attack_shared(args) -> int:
    params = _load_params(args.params)
    directory = attacks.directory_from_obj(kex._loads(_read_text(args.directory)), params)
    victim = _load_public(args.victim_pub, params.q)
    counterpart = _load_public(args.counterpart_pub, params.q)
    result = attacks.recover_shared_from_directory(directory, victim, counterpart)
    print(kex.canonical_json(attacks.report_obj(result)))
    if args.out:
        _write_bytes(args.out, result.shared_key.to_bytes())
    return EXIT_OK


def _cmd_attack_passive(args) -> int:
    params = _load_params(args.params)
    pub_a = _load_public(args.pub_a, params.q)
    pub_b = _load_public(args.pub_b, params.q)
    result = attacks.passive_commutant_attack(params, pub_a, pub_b, args.degree_bound)
    print(kex.canonical_json(attacks.report_obj(result)))
    if args.out:
        _write_bytes(args.out, result.shared_key.to_bytes())
    return EXIT_OK


def _cmd_bench(args) -> int:
    rng = Rng(args.seed)
    params = kex.gen_params(args.q, args.k, args.d, args.degree, rng, seed=args.seed)
    dh_params = dh.DhParams(DEFAULT_DH_P, DEFAULT_DH_G)
    m = params.m
    # Public-key size matching: m entries at the modulus' byte width,
    # versus a DH exponent bound of the same bit count.
    entry_bits = 8 * ((params.q.bit_length() + 7) // 8)
    matched_bits = m * entry_bits

    sk_a, _pk_a = kex.keygen(params, rng)
    _sk_b, pk_b = kex.keygen(params, rng)
    kex_counter = OpCounter()
    t0 = time.perf_counter_ns()
    kex.derive_shared(params, sk_a, pk_b, counter=kex_counter)
    kex_wall = time.perf_counter_ns() - t0

    exponent = _sample_exponent(rng, matched_bits)
    _, peer_public = dh.dh_keygen(dh_params, rng)
    dh_counter = OpCounter()
    t0 = time.perf_counter_ns()
    dh.dh_shared(dh_params, exponent, peer_public, counter=dh_counter)
    dh_wall = time.perf_counter_ns() - t0

    keygen_report = kex.count_ops("keygen", params)
    report = {
        "entries": [
            {
                "system": "commutant-kex",
                "m_or_p_bits": matched_bits,
                "muls": kex_counter.mul_count,
                "adds": kex_counter.add_count,
                "wall_ns": kex_wall,
            },
            {
                "system": "dh",
                "m_or_p_bits": matched_bits,
                "muls": dh_counter.mul_count,
                "adds": dh_counter.add_count,
                "wall_ns": dh_wall,
            },
        ],
        "mul_ratio": dh_counter.mul_count / kex_counter.mul_count,
        "commutant_keygen": {
            "muls": keygen_report.mul_count,
            "formula": keygen_report.formula,
        },
        "notes": "muls compare one shared-key derivation per system at matched public-key bits; wall_ns is not seed-reproducible",
    }
    _write_text(args.out, kex.canonical_json(report))
    print(
        f"derivation muls at {matched_bits}-bit public keys: "
        f"commutant-kex {kex_counter.mul_count} (m^2={m * m}) vs dh {dh_counter.mul_count}"
    )
    return EXIT_OK


def _cmd_demo_listen(args) -> int:
    host, port = _parse_addr(args.addr)
    params = _load_params(args.params) if args.params else None
    private = None
    if args.key:
        if params is None:
            raise ParseError("--key requires --params")
        private = _load_private(args.key, params)
    # SIGINT stops the listener, even when this process was started with
    # it ignored (a background job of a non-interactive shell)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    listener = wire.Listener(
        host,
        port,
        params=params,
        private_key=private,
        seed=args.seed,
        max_sessions=args.max_sessions,
    )
    bound_host, bound_port = listener.start()
    try:
        print(f"listening on {bound_host}:{bound_port}", flush=True)  # a SIGINT may follow at once
        if args.max_sessions is not None:
            listener.wait(args.max_sessions, timeout=600.0)
        else:
            while True:
                time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        listener.stop()
    failures = 0
    for result in listener.results:
        if isinstance(result, Exception):
            failures += 1
            print(f"session failed: {result}", file=sys.stderr)
        else:
            print(f"session ok (fnv64 {wire.checksum64(result.to_bytes()):016x})")
    return EXIT_OK if failures == 0 else EXIT_TRANSPORT


def _cmd_demo_connect(args) -> int:
    host, port = _parse_addr(args.addr)
    params = _load_params(args.params)
    if args.key:
        private = _load_private(args.key, params)
    else:
        private, _ = kex.keygen(params, Rng(args.seed))
    shared, transcript = wire.connect_and_run(host, port, params, private)
    print(f"session ok (fnv64 {wire.checksum64(shared.to_bytes()):016x})")
    if args.transcript:
        _write_text(args.transcript, transcript.to_json())
    if args.out:
        _write_bytes(args.out, shared.to_bytes())
    return EXIT_OK


def _cmd_demo_sniff(args) -> int:
    transcript = wire.Transcript.from_json(_read_text(args.transcript))
    result = wire.eavesdrop(transcript)
    print(
        kex.canonical_json(
            {
                "verdict": result.verdict,
                "confirms_observed": result.confirms_observed,
                "shared_key_fnv64": f"{wire.checksum64(result.shared_key.to_bytes()):016x}",
            }
        )
    )
    if args.out:
        _write_bytes(args.out, result.shared_key.to_bytes())
    return EXIT_OK if result.verdict else EXIT_ATTACK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except _ATTACK_ERRORS as exc:
        print(f"attack failed: {exc}", file=sys.stderr)
        return EXIT_ATTACK
    except _TRANSPORT_ERRORS as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
