"""Params, private keys and ring matrices are frozen values: no field can
be reassigned and no sequence they hold can be changed in place, so the
caches built from them (z's power table, zeta's packed orbit, a key's
dense matrix, the passive attack's elimination) cannot go stale.  Threads
that share one params get the bytes that fresh params give."""

import dataclasses
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from commkex.attacks import passive_commutant_attack, report_obj
from commkex.commutant import RingMatrix, ShiftPoly
from commkex.gf import Rng
from commkex.kex import (
    Params,
    PrivateKey,
    canonical_json,
    gen_params,
    keygen,
    params_from_json,
    params_to_json,
    private_key_to_json,
    public_key,
    public_key_to_json,
)
from commkex.linalg import mat_apply


def repro():
    """q = 101, 2x2 params from Rng(5) and a key from Rng(3): with a
    writable public vector, bumping its first entry after a keygen left
    ``public_key`` at [7, 53, 92, 45] while the dense T zeta was
    [2, 53, 6, 45]."""
    params = gen_params(101, 2, 2, 3, Rng(5))
    sk, pk = keygen(params, Rng(3))
    return params, sk, pk


def test_the_stale_public_key_cannot_be_made():
    params, sk, pk = repro()
    assert pk.vec == [7, 53, 92, 45]
    with pytest.raises(TypeError):
        params.base_vector[0] = (params.base_vector[0] + 1) % params.q
    with pytest.raises(TypeError):
        params.z_ring.blocks[0] = (1, 0)
    with pytest.raises(TypeError):
        params.z_ring.blocks[0][0] = 1
    with pytest.raises(TypeError):
        sk.coeffs[0] = ShiftPoly((1, 0))
    dense = mat_apply(params.field(), sk.matrix, params.base_vector)
    assert public_key(params, sk).vec == dense == pk.vec


def test_no_field_can_be_reassigned():
    params, sk, _ = repro()
    values = (params, sk, sk.key, params.z_ring)
    for value in values:
        names = [f.name for f in dataclasses.fields(value)]
        # and the cached views, which a frozen value also refuses
        names += {Params: ["z_powers", "zeta_orbit", "json_text"], PrivateKey: ["matrix"]}.get(type(value), [])
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name, None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)


def test_no_sequence_can_be_changed_in_place():
    params, sk, _ = repro()
    z, key = params.z_ring.blocks, sk.key.blocks
    for seq in (params.base_vector, z, z[0], sk.coeffs, key, key[-1]):
        assert type(seq) is tuple
        with pytest.raises(TypeError):
            seq[0] = seq[0]


def test_lists_given_to_a_value_are_read_into_tuples():
    ring = RingMatrix(1, 2, [[1], [1], [0], [1]])
    assert ring.blocks == ((1,), (1,), (0,), (1,))
    assert RingMatrix(1, 2, ([1], [1], [0], [1])) == ring
    params = Params(7, 1, 2, 1, [1, 2], gen_params(7, 1, 2, 1, Rng(3)).ring_base)
    assert params.base_vector == (1, 2)
    sk = PrivateKey([ShiftPoly((1,))], ring)
    assert sk.coeffs == (ShiftPoly((1,)),)
    # equal values are equal whatever they were built from
    assert RingMatrix(1, 2, ((1,), (1,), (0,), (1,))) == ring
    assert hash(RingMatrix(1, 2, ((1,), (1,), (0,), (1,)))) == hash(ring)


def session(params, seed, bound):
    """One party's seeded calls on the params, as bytes: two key pairs, the
    first public key again from its private key, and a passive attack on
    the pair at ``bound``."""
    rng = Rng(seed)
    (sk_a, pk_a), (_, pk_b) = keygen(params, rng), keygen(params, rng)
    res = passive_commutant_attack(params, pk_a, pk_b, bound)
    return (
        private_key_to_json(sk_a),
        public_key_to_json(pk_a),
        public_key_to_json(public_key(params, sk_a)),
        canonical_json(report_obj(res)),
        res.shared_key.to_bytes(),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    q=st.sampled_from([2, 101, 2**31 - 1]),
    k=st.integers(1, 3),
    d=st.integers(2, 3),
    degree=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    bounds=st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=3, max_size=4),
)
def test_threads_sharing_params_get_fresh_params_bytes(
    no_thread_leak, q, k, d, degree, seed, bounds
):
    # the first calls race to build the params' caches, and attacks at
    # other bounds replace the kept elimination under the others
    shared = gen_params(q, k, d, degree, Rng(seed))
    text = params_to_json(shared)
    jobs = [(seed + 1 + t, bound) for t, bound in enumerate(bounds)]
    expect = [session(params_from_json(text), s, bound) for s, bound in jobs]
    barrier = threading.Barrier(len(jobs))
    out = {}

    def worker(t):
        barrier.wait()
        out[t] = session(shared, *jobs[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [out.get(t) for t in range(len(jobs))] == expect
    assert params_to_json(shared) == text
