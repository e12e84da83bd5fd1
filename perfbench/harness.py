"""Runs one workload: set-up, closed-loop timed phase, checks, metrics.

With ``trace`` off the run reports the end-to-end metrics.  With it on,
half the time runs untraced and half traced, and the run reports the
per-layer metrics from the traced half plus the traced-to-untraced
throughput ratio.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import resource
import statistics
import threading
import time
from pathlib import Path

from commkex import kex

import headline
from tracer import Tracer
from workloads import DEFAULT_SEED, Q, ROOT, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics.  "*.self_ms" and the wire waits are per timed
# operation and, with other.self_ms, add up to trace.op_ms.  Counts and
# wire.transcript_json.ms are per timed operation.  The other "*.ms" and
# "*.us" are the mean time of one call over the whole traced run (set-up
# included), and so are rank and degree_bound.
# commutant.eval_recipe.self_ms is the whole set-up's.
PER_LAYER = (
    ("linalg.mat_mul.self_ms", "ms"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.mults", "count"),
    ("linalg.solve_linear.self_ms", "ms"),
    ("linalg.solve_linear.cells", "count"),
    ("linalg.mat_apply.self_ms", "ms"),
    ("linalg.mat_add.self_ms", "ms"),
    ("linalg.mat_scale.self_ms", "ms"),
    ("commutant.eval_key_poly.self_ms", "ms"),
    ("commutant.eval_recipe.self_ms", "ms"),
    ("commutant.sample_ring_element.accept_ratio", "ratio"),
    ("kex.gen_params.ms", "ms"),
    ("kex.keygen.ms", "ms"),
    ("kex.keygen.accept_ratio", "ratio"),
    ("kex.derive_shared.us", "us"),
    ("kex.derive_shared.muls", "count"),
    ("kex.public_key.us", "us"),
    ("kex.params_to_json.ms", "ms"),
    ("kex.params_from_json.ms", "ms"),
    ("kex.params_json.bytes", "bytes"),
    ("attacks.passive_commutant_attack.self_ms", "ms"),
    ("attacks.passive.rank", "count"),
    ("attacks.passive.degree_bound", "count"),
    ("wire.initiator.self_ms", "ms"),
    ("wire.listener_wait_ms", "ms"),
    ("wire.session.bytes", "bytes"),
    ("wire.session.frames", "count"),
    ("wire.eavesdrop.self_ms", "ms"),
    ("wire.transcript_json.ms", "ms"),
    ("dh.dh_shared.muls", "count"),
    ("gf.Rng.below.calls", "count"),
    ("gf.Field.inv.calls", "count"),
    ("other.self_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.throughput_ratio", "ratio"),
)

# Self-time metric -> the home functions whose self time it sums.
SELF_PARTS = {
    "linalg.mat_mul.self_ms": ("linalg.mat_mul",),
    "linalg.solve_linear.self_ms": ("linalg.solve_linear",),
    "linalg.mat_apply.self_ms": ("linalg.mat_apply",),
    "linalg.mat_add.self_ms": ("linalg.mat_add",),
    "linalg.mat_scale.self_ms": ("linalg.mat_scale",),
    "commutant.eval_key_poly.self_ms": ("commutant.eval_key_poly",),
    "attacks.passive_commutant_attack.self_ms": ("attacks.passive_commutant_attack",),
    "wire.eavesdrop.self_ms": ("wire.eavesdrop",),
    "wire.initiator.self_ms": ("wire.connect_and_run", "wire.run_peer"),
    # Time the initiator spends blocked reading the listener's frames.
    "wire.listener_wait_ms": ("wire._FrameReader.next_frame",),
}


# Machine-speed scaling.  On the shared host the bounds were set on, the
# speed of pure-Python code drifts by about +-20 % over seconds, so raw
# wall times of two runs differ by more than a regression worth catching.
# The timed phase therefore runs in segments of SEGMENT_S.  Between
# segments, with no operation in flight, the harness times a fixed
# reference kernel.  Each segment's latencies are scaled by REFERENCE_MS
# over the mean kernel time of the segment's two boundaries, so times
# read as on a machine where the kernel takes REFERENCE_MS.  Set-up is
# scaled the same way, step by step.  Wall-clock figures are printed
# alongside.
SEGMENT_S = 0.2
REFERENCE_MS = 1.0
_REF_ROWS = [[(64 * i + j) * 2654435761 % Q for j in range(64)] for i in range(16)]
_REF_COLS = [[(64 * i + j) * 40503 % Q for j in range(64)] for i in range(10)]


def reference_kernel() -> list[int]:
    """Dot products of 31-bit residues reduced mod q, the inner loop of
    dense matrix products.  It calls nothing in commkex."""
    mul = operator.mul
    return [sum(map(mul, row, col)) % Q for row in _REF_ROWS for col in _REF_COLS]


def kernel_ms() -> float:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from wall time to reference-speed time for a stretch of work
    with the given kernel times at its two ends."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)


class Phase:
    """Outcome of one closed-loop timed phase: per segment, the wall
    latencies and span, plus the kernel time at each segment boundary."""

    def __init__(self):
        self.segments: list[tuple[list[float], float]] = []
        self.kernel_ms: list[float] = []
        self.failures: list[str] = []

    def scales(self) -> list[float]:
        return [scale(a, b) for a, b in zip(self.kernel_ms, self.kernel_ms[1:])]

    @property
    def latencies_ms(self) -> list[float]:
        """Latencies scaled to the reference speed."""
        return [x * f for (wall, _), f in zip(self.segments, self.scales()) for x in wall]

    @property
    def wall_ms(self) -> list[float]:
        return [x for wall, _ in self.segments for x in wall]

    @property
    def attempted(self) -> int:
        return sum(len(wall) for wall, _ in self.segments) + len(self.failures)

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second at the reference speed."""
        scaled_s = sum(span * f for (_, span), f in zip(self.segments, self.scales()))
        return len(self.wall_ms) / scaled_s if scaled_s else 0.0

    @property
    def wall_s(self) -> float:
        return sum(span for _, span in self.segments)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.wall_ms) / self.wall_s if self.wall_s else 0.0


def timed_phase(wl, state, seconds, tracer=None) -> Phase:
    """Run ``wl.threads`` closed-loop callers until the deadline, in
    segments of SEGMENT_S.  Every caller starts at least one operation
    per segment, so even a very short phase completes some."""
    phase = Phase()
    indices = itertools.count()
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    phase.kernel_ms.append(kernel_ms())
    while True:
        start = time.perf_counter()
        segment_end = min(start + SEGMENT_S, deadline)
        wall, ends = [], [start]

        def caller():
            while True:
                i = next(indices)
                t0 = time.perf_counter_ns()
                try:
                    if tracer is None:
                        wl.op(state, i)
                    else:
                        with tracer.root("op"):
                            wl.op(state, i)
                except Exception as exc:  # every failure counts against the run
                    with lock:
                        phase.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                else:
                    t1 = time.perf_counter_ns()
                    with lock:
                        wall.append((t1 - t0) / 1e6)
                with lock:
                    ends.append(time.perf_counter())
                if time.perf_counter() >= segment_end:
                    break

        if wl.threads == 1:
            caller()
        else:
            threads = [threading.Thread(target=caller) for _ in range(wl.threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        phase.segments.append((wall, max(ends) - start))
        phase.kernel_ms.append(kernel_ms())
        if time.perf_counter() >= deadline:
            return phase


def timed_setup(wl, state, tracer=None) -> tuple[float, float]:
    """Build the workload's state, from its start to its first timed
    operation; return the set-up time at the reference speed and in wall
    time.  The reference kernel is timed between steps, outside both."""
    kernels, walls = [kernel_ms()], []
    for step in wl.setup_steps(state, wl.instance_count):
        t0 = time.perf_counter()
        if tracer is None:
            step()
        else:
            with tracer.root("setup"):
                step()
        walls.append(time.perf_counter() - t0)
        kernels.append(kernel_ms())
    return sum(w * scale(a, b) for w, a, b in zip(walls, kernels, kernels[1:])), sum(walls)


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def fingerprint(wl) -> dict:
    """SHA-256 of the params JSON and of the first operation's output
    at the workload's default seed."""
    state = wl.new_state(DEFAULT_SEED)
    try:
        for step in wl.setup_steps(state, 1):
            step()
        output = wl.op(state, 0)
    finally:
        wl.discard(state)
    params = state.instances[0].params
    return {
        "seed": DEFAULT_SEED,
        "params_sha256": hashlib.sha256(kex.params_to_json(params).encode()).hexdigest(),
        "first_op_sha256": hashlib.sha256(output).hexdigest(),
    }


def check_fingerprint(wl) -> list[str]:
    want = json.loads(FINGERPRINTS.read_text())[wl.name]
    got = fingerprint(wl)
    return [
        f"fingerprint {key} at seed {want['seed']}: {got[key]} != recorded {want[key]}"
        for key in ("params_sha256", "first_op_sha256")
        if got[key] != want[key]
    ]


def layer_metrics(tracer: Tracer, untraced: Phase, traced: Phase, dh_muls: int) -> dict:
    s = tracer.summary()
    ops = len(s.roots["op"])

    def per_op(total):
        return total / ops if ops else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(home, scale):
        return ratio(s.total(s.incl_ns, home), s.total(s.calls, home)) / scale

    def edge(parent, home, name="calls"):
        return sum(s.edges[p, parent, home][name] for p in ("setup", "op"))

    out = {
        name: per_op(sum(s.self_ns["op", h] for h in homes)) / 1e6
        for name, homes in SELF_PARTS.items()
    }
    op_ms = per_op(sum(s.roots["op"])) / 1e6
    out["other.self_ms"] = op_ms - sum(out.values())
    out["trace.op_ms"] = op_ms
    out["trace.throughput_ratio"] = ratio(traced.ops_per_s, untraced.ops_per_s)
    out["linalg.mat_mul.calls"] = per_op(s.calls["op", "linalg.mat_mul"])
    out["linalg.mat_mul.mults"] = per_op(s.attr("op", "linalg.mat_mul", "mults"))
    out["linalg.solve_linear.cells"] = per_op(s.attr("op", "linalg.solve_linear", "cells"))
    out["commutant.eval_recipe.self_ms"] = s.self_ns["setup", "commutant.eval_recipe"] / 1e6
    out["commutant.sample_ring_element.accept_ratio"] = ratio(
        s.total_attr("commutant.sample_ring_element", "ok"),
        edge("commutant.sample_ring_element", "commutant.eval_recipe"),
    )
    out["kex.gen_params.ms"] = per_call("kex.gen_params", 1e6)
    out["kex.keygen.ms"] = per_call("kex.keygen", 1e6)
    out["kex.keygen.accept_ratio"] = ratio(
        s.total_attr("kex.keygen", "ok"), edge("kex.keygen", "commutant.eval_key_poly")
    )
    out["kex.derive_shared.us"] = per_call("kex.derive_shared", 1e3)
    out["kex.derive_shared.muls"] = ratio(
        edge("kex.derive_shared", "linalg.mat_apply", "mults"),
        s.total(s.calls, "kex.derive_shared"),
    )
    out["kex.public_key.us"] = per_call("kex.public_key", 1e3)
    out["kex.params_to_json.ms"] = per_call("kex.params_to_json", 1e6)
    out["kex.params_from_json.ms"] = per_call("kex.params_from_json", 1e6)
    json_homes = ("kex.params_to_json", "kex.params_from_json")
    out["kex.params_json.bytes"] = ratio(
        sum(s.total_attr(h, "bytes") for h in json_homes),
        sum(s.total(s.calls, h) for h in json_homes),
    )
    attack = "attacks.passive_commutant_attack"
    out["attacks.passive.rank"] = ratio(s.total_attr(attack, "rank"), s.total(s.calls, attack))
    out["attacks.passive.degree_bound"] = ratio(
        s.total_attr(attack, "degree_bound"), s.total(s.calls, attack)
    )
    frame_homes = ("wire.Transcript.append", "wire.eavesdrop")
    out["wire.session.bytes"] = per_op(sum(s.attr("op", h, "bytes") for h in frame_homes))
    out["wire.session.frames"] = per_op(sum(s.attr("op", h, "frames") for h in frame_homes))
    out["wire.transcript_json.ms"] = (
        per_op(s.incl_ns["op", "wire.Transcript.to_json"] + s.incl_ns["op", "wire.Transcript.from_json"])
        / 1e6
    )
    out["dh.dh_shared.muls"] = dh_muls
    out["gf.Rng.below.calls"] = per_op(s.calls["op", "gf.Rng.below"])
    out["gf.Field.inv.calls"] = per_op(s.calls["op", "gf.Field.inv"])
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    problems: list[str] = []
    state = wl.new_state(seed)
    try:
        if tracer is not None:
            tracer.install()
        setup_s, setup_wall_s = timed_setup(wl, state, tracer)
        if tracer is None:
            phases = [timed_phase(wl, state, seconds)]
        else:
            tracer.uninstall()
            untraced = timed_phase(wl, state, seconds / 2)
            tracer.install()
            try:
                traced = timed_phase(wl, state, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
    except BaseException:
        wl.discard(state)
        raise
    problems += wl.finish(state)
    rss_mb = peak_rss_mb()
    problems += check_fingerprint(wl)
    counts, headline_problems = headline.headline(wl.k, wl.d, seed, OUT_DIR)
    problems += headline_problems

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  {wl.threads} caller(s), closed loop")
    print(f"  times at reference speed: the reference kernel took {REFERENCE_MS} ms nominal")
    if tracer is None:
        phase = phases[0]
        lat = phase.latencies_ms or [0.0]
        metrics = {
            "op_ms_p50": statistics.median(lat),
            "op_ms_p90": p90(lat),
            "ops_per_s": phase.ops_per_s,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        above = sum(1 for x in lat if x > metrics["op_ms_p90"])
        wall = phase.wall_ms or [0.0]
        named = [
            (f"{wl.op_name}_ms_p50", metrics["op_ms_p50"], "ms", f"n={len(phase.latencies_ms)}; wall {statistics.median(wall):.4g}"),
            (f"{wl.op_name}_ms_p90", metrics["op_ms_p90"], "ms", f"{above} samples above; wall {p90(wall):.4g}"),
            (f"{wl.op_plural}_per_s", metrics["ops_per_s"], "1/s", f"wall {phase.wall_ops_per_s:.4g} over {phase.wall_s:.2f} s"),
            ("setup_s", metrics["setup_s"], "s", f"{len(state.instances)} instances; wall {setup_wall_s:.4g}"),
            ("peak_rss_mb", rss_mb, "MB", "load process or listener child"),
            ("failed_ratio", len(failures) / max(attempted, 1), "ratio", f"{len(failures)} of {attempted}"),
        ]
        units = END_TO_END
    else:
        untraced, traced = phases
        metrics = layer_metrics(tracer, untraced, traced, counts["dh_muls"])
        m2 = counts["m"] ** 2
        if metrics["kex.derive_shared.muls"] != m2:
            problems.append(f"traced derive_shared used {metrics['kex.derive_shared.muls']} muls, not m^2")
        named = [(k, metrics[k], u, "") for k, u in PER_LAYER]
        named.append(
            ("ops_per_s untraced/traced", untraced.ops_per_s, "1/s", f"{traced.ops_per_s:.4g} traced")
        )
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}-s{seed}.jsonl"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    for label, value, unit, note in named:
        print(f"  {label:<44} {value:>14.6g} {unit:<6} {note}")
    print("  " + headline.describe(counts))
    if not attempted:
        problems.append("no operation completed in the timed phase")
    for text in failures[:5] + problems:
        print(f"  FAILED: {text}")
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": max(len(failures), int(not attempted)),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def print_fingerprints() -> int:
    print(json.dumps({name: fingerprint(wl) for name, wl in WORKLOADS.items()}, indent=2))
    return 0
