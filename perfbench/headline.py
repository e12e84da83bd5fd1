"""The paper's operation-count headline at one workload shape.

Counts, at matched public-key bits, the multiplications of one shared-key
derivation (m^2) against one Diffie-Hellman derivation by square-and-
multiply, plus the counted cost of keygen.  The same counts are taken
from ``commkex bench`` run as a child process with the same seed, and
the two must agree exactly.  The counts follow ``commkex bench``'s draw
order (params, two keys, then the DH exponent), so both see one
exponent; its bit pattern sets the DH count.
"""

from __future__ import annotations

import json
import os
import subprocess

from commkex import cli, dh, kex
from commkex.gf import OpCounter, Rng

from workloads import DEGREE, Q, ROOT, commkex_command, commkex_env


def count_in_process(k: int, d: int, seed: int) -> dict:
    rng = Rng(seed)
    params = kex.gen_params(Q, k, d, DEGREE, rng, seed=seed)
    sk_a, _ = kex.keygen(params, rng)
    _, pub_b = kex.keygen(params, rng)
    derive = OpCounter()
    kex.derive_shared(params, sk_a, pub_b, counter=derive)
    bits = params.m * 8 * ((Q.bit_length() + 7) // 8)
    exponent = cli._sample_exponent(rng, bits)
    dh_params = dh.DhParams(cli.DEFAULT_DH_P, cli.DEFAULT_DH_G)
    _, peer = dh.dh_keygen(dh_params, rng)
    dh_count = OpCounter()
    dh.dh_shared(dh_params, exponent, peer, counter=dh_count)
    return {
        "m": params.m,
        "bits": bits,
        "derive_muls": derive.mul_count,
        "dh_muls": dh_count.mul_count,
        "keygen_muls": kex.count_ops("keygen", params).mul_count,
    }


def count_by_cli(k: int, d: int, seed: int, out_dir) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"bench-k{k}d{d}-s{seed}-{os.getpid()}.json"
    proc = subprocess.run(
        commkex_command("bench", "--k", str(k), "--d", str(d), "--seed", str(seed), "-o", str(path)),
        cwd=ROOT,
        env=commkex_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"commkex bench exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(path.read_text())
    path.unlink()
    by_system = {e["system"]: e for e in report["entries"]}
    return {
        "bits": by_system["dh"]["m_or_p_bits"],
        "derive_muls": by_system["commutant-kex"]["muls"],
        "dh_muls": by_system["dh"]["muls"],
        "keygen_muls": report["commutant_keygen"]["muls"],
    }


def headline(k: int, d: int, seed: int, out_dir) -> tuple[dict, list[str]]:
    """Counts at shape (k, d) and the list of failed cross-checks."""
    mine = count_in_process(k, d, seed)
    theirs = count_by_cli(k, d, seed, out_dir)
    problems = [
        f"headline {name}: in-process {mine[name]} != commkex bench {theirs[name]}"
        for name in theirs
        if mine[name] != theirs[name]
    ]
    if mine["derive_muls"] != mine["m"] ** 2:
        problems.append(f"derive charged {mine['derive_muls']} muls, not m^2 = {mine['m'] ** 2}")
    return mine, problems


def describe(counts: dict) -> str:
    ratio = counts["dh_muls"] / counts["derive_muls"]
    return (
        f"op counts at m={counts['m']} ({counts['bits']}-bit public keys): "
        f"derive {counts['derive_muls']} muls (m^2) vs DH {counts['dh_muls']} muls, "
        f"DH/derive = {ratio:.3f}; keygen {counts['keygen_muls']} muls (degree * m^3)"
    )
