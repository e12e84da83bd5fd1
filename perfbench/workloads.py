"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
closed-loop operation per ``op`` call and checks that operation's
output, raising ``CheckFailed`` when it is wrong.  ``op`` returns the
operation's output bytes, which the determinism fingerprint hashes.
All workloads use q = 2**31 - 1 and key degree D = 3, and call the
library only through module attributes (``kex.keygen``), so the traced
run sees every call.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from commkex import attacks, kex, wire
from commkex.gf import OpCounter, Rng

Q = 2147483647
DEGREE = 3
DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def session_seed(seed: int, i: int) -> int:
    """Seed of the initiator key of session ``i``."""
    return ((seed + 1) << 24) + i


def commkex_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "commkex.cli", *args]


def commkex_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Workload:
    """A workload's inputs are several parameter sets ("instances"),
    because an operation's cost depends on the sampled public base; one
    instance per run would make a run's figures depend on its seed.
    Set-up builds ``instance_count`` of them, one step each, and the timed
    operations cycle through all of them.
    """

    name = ""
    op_name = ""  # what one operation is called in the named metrics
    op_plural = ""
    k = 0
    d = 0
    threads = 1
    instance_count = 1

    def new_state(self, seed: int) -> SimpleNamespace:
        return SimpleNamespace(seed=seed, instances=[])

    def setup_steps(self, st, count: int) -> list:
        """Set-up as a list of steps, called in order: build the first
        ``count`` instances."""
        def add(j):
            return lambda: st.instances.append(self.instance(st.seed, j))

        return [add(j) for j in range(count)]

    def instance(self, seed: int, j: int):
        raise NotImplementedError

    def op(self, st, i: int) -> bytes:
        raise NotImplementedError

    def discard(self, st) -> None:
        """Release a state that is not used further."""

    def finish(self, st) -> list[str]:
        """Release a state after its timed phase; return failed checks."""
        self.discard(st)
        return []


def instance_seed(seed: int, j: int) -> int:
    """Seed of instance ``j``; instance 0 uses the run's seed itself, so
    its params equal ``commkex gen-params --seed SEED``."""
    return (seed + (j << 40)) % 2**64


def params_for(wl: Workload, seed: int, j: int):
    rng = Rng(instance_seed(seed, j))
    return kex.gen_params(Q, wl.k, wl.d, DEGREE, rng, seed=instance_seed(seed, j)), rng


class Exchange(Workload):
    """Honest in-process key agreement: keygen A, keygen B, both derive."""

    name = "exchange-k16d4"
    op_name, op_plural = "exchange", "exchanges"
    k, d = 16, 4
    instance_count = 48

    def instance(self, seed, j):
        params, rng = params_for(self, seed, j)
        return SimpleNamespace(params=params, rng=rng)

    def op(self, st, i):
        inst = st.instances[i % len(st.instances)]
        params = inst.params
        sk_a, pub_a = kex.keygen(params, inst.rng)
        sk_b, pub_b = kex.keygen(params, inst.rng)
        count_a, count_b = OpCounter(), OpCounter()
        key_a = kex.derive_shared(params, sk_a, pub_b, count_a)
        key_b = kex.derive_shared(params, sk_b, pub_a, count_b)
        check(key_a == key_b, "the two sides derived different keys")
        m2 = params.m * params.m
        check(
            count_a.mul_count == m2 and count_b.mul_count == m2,
            f"derive_shared charged {count_a.mul_count}/{count_b.mul_count} muls, not m^2 = {m2}",
        )
        return key_a.to_bytes()


class Break(Workload):
    """Passive attack on sessions between members of a fixed party pool,
    spread over the instances."""

    name = "break-k4d16"
    op_name, op_plural = "break", "breaks"
    k, d = 4, 16
    instance_count = 36
    PARTIES = 2  # per instance

    def instance(self, seed, j):
        params, rng = params_for(self, seed, j)
        keys = [kex.keygen(params, rng) for _ in range(self.PARTIES)]
        honest = {}
        for a in range(self.PARTIES):
            for b in range(a + 1, self.PARTIES):
                shared = kex.derive_shared(params, keys[a][0], keys[b][1]).vec
                honest[a, b] = honest[b, a] = shared
        # The benchmark's own choices use `random`, so that the library's
        # Rng counts only the library's draws.
        sessions = sorted(honest)
        random.Random(instance_seed(seed, j)).shuffle(sessions)
        return SimpleNamespace(
            params=params, pubs=[pub for _, pub in keys], honest=honest, sessions=sessions
        )

    def op(self, st, i):
        inst = st.instances[i % len(st.instances)]
        a, b = inst.sessions[i // len(st.instances) % len(inst.sessions)]
        result = attacks.passive_commutant_attack(inst.params, inst.pubs[a], inst.pubs[b])
        check(result.verified, f"attack on ({a}, {b}) is not verified")
        check(result.shared_key.vec == inst.honest[a, b], f"attack on ({a}, {b}) recovered a wrong key")
        return result.shared_key.to_bytes()


class ListenerProcess:
    """``commkex demo listen`` as a child process that adopts params from
    the wire and draws an ephemeral key per session."""

    def __init__(self):
        self.proc = subprocess.Popen(
            commkex_command("demo", "listen", "--addr", "127.0.0.1:0"),
            cwd=ROOT,
            env=commkex_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        host, sep, port = line.strip().rpartition(" ")[2].rpartition(":")
        if not line.startswith("listening on ") or not sep:
            self.kill()
            raise RuntimeError(f"listener did not start: {line!r}")
        self.addr = (host, int(port))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def stop(self, timeout: float = 60.0) -> tuple[int, str, str]:
        """Interrupt the listener, which then stops and reports its sessions.

        The listener's accept thread stays blocked in accept() after
        the socket closes, so stopping waits out its 5 s join timeout.
        """
        self.proc.send_signal(signal.SIGINT)
        try:
            out, err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, "", "listener did not stop"
        return self.proc.returncode, out, err


class Wire(Workload):
    """Loopback TCP sessions against a ``demo listen`` child process,
    driven by two concurrent connections with a fresh key per session.
    Set-up ends by starting the listener."""

    name = "wire-k8d2"
    op_name, op_plural = "session", "sessions"
    k, d = 8, 2
    threads = 2
    instance_count = 48

    def new_state(self, seed):
        return SimpleNamespace(
            seed=seed, instances=[], listener=None, lock=threading.Lock(), keys=[], sessions=0
        )

    def setup_steps(self, st, count):
        def listen():
            st.listener = ListenerProcess()

        return super().setup_steps(st, count) + [listen]

    def instance(self, seed, j):
        return SimpleNamespace(params=params_for(self, seed, j)[0])

    def op(self, st, i):
        params = st.instances[i % len(st.instances)].params
        sk, _ = kex.keygen(params, Rng(session_seed(st.seed, i)))
        with st.lock:
            st.sessions += 1
        shared, transcript = wire.connect_and_run(*st.listener.addr, params, sk)
        check(len(shared.vec) == params.m, "session key has the wrong length")
        st.keys.append(shared.to_bytes())
        return b"".join(
            f.payload
            for d, f in transcript.frames
            if d == wire.DIR_I2R and f.tag != wire.TAG_CONFIRM
        )

    def discard(self, st):
        if st.listener is not None:
            st.listener.kill()

    def finish(self, st):
        code, out, err = st.listener.stop()
        problems = []
        if code != 0:
            problems.append(f"demo listen exited {code}: {err.strip()[-300:]}")
        ok = Counter(
            line.split("fnv64 ")[1].rstrip(")")
            for line in out.splitlines()
            if line.startswith("session ok (fnv64 ")
        )
        if sum(ok.values()) != st.sessions:
            problems.append(f"demo listen reported {sum(ok.values())} sessions ok of {st.sessions}")
        elif ok != Counter(f"{wire.checksum64(key):016x}" for key in st.keys):
            problems.append("listener and initiator session keys differ")
        return problems


def record_session(params, seed: int, i: int):
    """Run one seeded session over a socketpair; return its transcript
    and the initiator's key."""
    sk, _ = kex.keygen(params, Rng(session_seed(seed, i)))
    left, right = socket.socketpair()
    left.settimeout(30)
    right.settimeout(30)
    box = {}

    def respond():
        try:
            box["shared"] = wire.run_peer(
                wire.ROLE_RESPONDER, right, rng=Rng(~session_seed(seed, i) & (2**64 - 1))
            )[0]
        except Exception as exc:  # re-raised on the initiator's side below
            box["error"] = exc
            right.close()

    responder = threading.Thread(target=respond)
    responder.start()
    try:
        shared, transcript = wire.run_peer(wire.ROLE_INITIATOR, left, params=params, private_key=sk)
    finally:
        left.close()  # a blocked responder then sees the peer close
        responder.join()
        right.close()
    if "error" in box:
        raise box["error"]
    check(box["shared"] == shared, "recorded session: peers derived different keys")
    return transcript, shared


class Sniff(Workload):
    """The eavesdropper's side: recover the key of recorded sessions from
    their transcripts, each round-tripped through its JSON form."""

    name = "sniff-k8d2"
    op_name, op_plural = "sniff", "sniffs"
    k, d = 8, 2
    instance_count = 48
    SESSIONS = 2  # per instance

    def instance(self, seed, j):
        params = params_for(self, seed, j)[0]
        first = j * self.SESSIONS
        return SimpleNamespace(
            params=params,
            recorded=[record_session(params, seed, first + s) for s in range(self.SESSIONS)],
        )

    def op(self, st, i):
        inst = st.instances[i % len(st.instances)]
        s = i // len(st.instances) % self.SESSIONS
        transcript, shared = inst.recorded[s]
        heard = wire.Transcript.from_json(transcript.to_json())
        result = wire.eavesdrop(heard)
        check(result.verdict, f"sniff of session {s}: verdict is false")
        check(result.shared_key == shared, f"sniff of session {s}: wrong key")
        return result.shared_key.to_bytes()


WORKLOADS = {wl.name: wl for wl in (Exchange(), Break(), Wire(), Sniff())}
