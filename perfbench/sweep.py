"""m-sweep of the library's main calls, written as a BENCH JSON file.

For each shape (k, d) it times gen_params, keygen, derive_shared, the
passive attack and params_from_json REPEATS times on the same
seeded inputs, and records per call the median and interquartile range
of wall time, the repeat count, and the counted field operations where
the library counts them (derive_shared through an OpCounter, keygen
through count_ops).  The shapes run m from 16 to 128 and split m = 128
three ways, 32x4, 16x8 and 4x32, the last being the split where a ring
representation over k-blocks has nothing to gain.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from commkex import attacks, kex
from commkex.gf import OpCounter, Rng

from workloads import DEFAULT_SEED, DEGREE, Q, check

SHAPES = ((8, 2), (8, 4), (16, 4), (4, 16), (32, 4), (16, 8), (4, 32))
REPEATS = 5
CALLS = ("gen_params", "keygen", "derive_shared", "passive_attack", "params_from_json")


def cell(k: int, d: int, seed: int) -> dict:
    times: dict[str, list[float]] = {name: [] for name in CALLS}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[name].append((time.perf_counter() - t0) * 1e3)
        return result

    for _ in range(REPEATS):
        rng = Rng(seed)
        params = timed("gen_params", kex.gen_params, Q, k, d, DEGREE, rng, seed)
        sk_a, pub_a = timed("keygen", kex.keygen, params, rng)
        _, pub_b = kex.keygen(params, rng)
        counter = OpCounter()
        shared = timed("derive_shared", kex.derive_shared, params, sk_a, pub_b, counter)
        broken = timed("passive_attack", attacks.passive_commutant_attack, params, pub_a, pub_b)
        check(broken.shared_key == shared, f"k={k} d={d}: the attack recovered a wrong key")
        text = kex.params_to_json(params)
        timed("params_from_json", kex.params_from_json, text)
    keygen_ops = kex.count_ops("keygen", params)
    return {
        "k": k,
        "d": d,
        "m": k * d,
        "calls": {
            name: {
                "median_ms": statistics.median(values),
                "iqr_ms": (lambda q: q[2] - q[0])(statistics.quantiles(values, n=4)),
                "repeats": len(values),
            }
            for name, values in times.items()
        },
        "counted": {
            "derive_shared": {"muls": counter.mul_count, "adds": counter.add_count},
            "keygen": {"muls": keygen_ops.mul_count, "adds": keygen_ops.add_count},
        },
    }


def main(out: str, seed: int = DEFAULT_SEED) -> int:
    report = {
        "harness": "perfbench/run.py --sweep",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "q": Q,
        "degree": DEGREE,
        "seed": seed,
        "cells": [],
    }
    print(f"{'k x d':>7} {'m':>4}  " + "  ".join(f"{name:>16}" for name in CALLS) + "   (median ms)")
    for k, d in SHAPES:
        result = cell(k, d, seed)
        report["cells"].append(result)
        row = "  ".join(f"{result['calls'][name]['median_ms']:>16.3f}" for name in CALLS)
        print(f"{k:>3} x {d:<3}{k * d:>4}  {row}", flush=True)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"written to {out}")
    return 0
