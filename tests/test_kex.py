import copy
import hashlib
import importlib.util
import json
import operator
import sys
import threading
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commkex.errors import (
    DegenerateKey,
    DegenerateRingElement,
    DimensionMismatch,
    Error,
    InvalidParams,
    InvalidPublic,
    NotBlockToeplitz,
    ParseError,
)
from commkex import kex
from commkex.gf import OpCounter, Rng
from commkex.commutant import (
    BlockGrid,
    GeneratorBlock,
    RingMatrix,
    RingSample,
    ShiftPoly,
    apply_key_poly,
    eval_key_poly,
    random_shift_poly,
)
from commkex.kex import (
    Params,
    PublicKey,
    SharedKey,
    count_ops,
    derive_shared,
    gen_params,
    keygen,
    params_from_json,
    params_from_obj,
    params_to_json,
    params_to_obj,
    private_key_from_coeffs,
    private_key_from_json,
    private_key_from_obj,
    private_key_to_json,
    private_key_to_obj,
    public_key,
    public_key_from_json,
    public_key_to_json,
)
from commkex.linalg import Matrix, mat_mul, vec_add

from conftest import FUZZ_KEYS, FUZZ_PARAMS, GRID_PRIMES, GRID_SHAPES, json_mutations
from oracles import key_poly_mod, mat_vec_mod


def test_gen_params_rejects_bad_inputs():
    rng = Rng(1)
    with pytest.raises(InvalidParams):
        gen_params(6, 1, 2, 1, rng)  # composite modulus
    with pytest.raises(InvalidParams):
        gen_params(7, 0, 2, 1, rng)
    with pytest.raises(InvalidParams):
        gen_params(7, 1, 1, 1, rng)
    with pytest.raises(InvalidParams):
        gen_params(7, 1, 2, 0, rng)


def test_gen_params_smallest_shape():
    params = gen_params(7, 1, 2, 1, Rng(3))
    assert params.m == 2
    assert any(params.base_vector)


def test_gen_params_deterministic_json():
    a = params_to_json(gen_params(101, 2, 2, 3, Rng(42), seed=42))
    b = params_to_json(gen_params(101, 2, 2, 3, Rng(42), seed=42))
    assert a == b


def test_keygen_identity_coeffs_gives_base_vector(micro_params):
    sk = private_key_from_coeffs(micro_params, [ShiftPoly((1,))])
    assert sk.matrix == Matrix.identity(2)
    assert public_key(micro_params, sk).vec == list(micro_params.base_vector)


def test_keygen_worked_example(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    assert pk_a.vec == mat_vec_mod(sk_a.matrix.to_rows(), [1, 2], 7) == [4, 3]
    assert pk_b.vec == [4, 4]


def test_keygen_deterministic():
    params = gen_params(101, 2, 2, 3, Rng(5))
    k1 = keygen(params, Rng(88))
    k2 = keygen(params, Rng(88))
    assert k1[0].matrix == k2[0].matrix
    assert k1[1].vec == k2[1].vec


def test_keygen_public_key_matches_dense():
    # keygen and public_key apply the key polynomial to the public
    # vector's packed orbit; the oracle applies the dense matrix
    rng = Rng(6174)
    for q in GRID_PRIMES:
        for k, d in GRID_SHAPES:
            params = gen_params(q, k, d, 3, rng)
            for _ in range(3):
                sk, pk = keygen(params, rng)
                dense = mat_vec_mod(sk.matrix.to_rows(), params.base_vector, q)
                assert pk.vec == public_key(params, sk).vec == dense


def test_public_key_of_a_short_key_matches_dense():
    # a key loaded with fewer than D+1 coefficients reads only the start
    # of the public vector's orbit, on fresh params before any keygen;
    # keygen then extends the same orbit
    rng = Rng(1729)
    for q in GRID_PRIMES:
        for k, d in GRID_SHAPES:
            text = params_to_json(gen_params(q, k, d, 3, rng))
            for n in range(1, 4):
                params = params_from_json(text)
                coeffs = [random_shift_poly(params.field(), k, rng) for _ in range(n)]
                key_json = private_key_to_json(private_key_from_coeffs(params, coeffs))
                params = params_from_json(text)
                sk = private_key_from_json(key_json, params)
                dense = mat_vec_mod(sk.matrix.to_rows(), params.base_vector, q)
                assert public_key(params, sk).vec == dense
                sk_full, pk = keygen(params, rng)
                assert public_key(params, sk_full).vec == pk.vec
                assert pk.vec == mat_vec_mod(sk_full.matrix.to_rows(), params.base_vector, q)
                assert public_key(params, sk).vec == dense


def test_keygen_rejects_weak_keys():
    params = gen_params(101, 2, 2, 3, Rng(5))
    rng = Rng(17)
    for _ in range(50):
        sk, pk = keygen(params, rng)
        assert any(pk.vec)
        entries, m = sk.matrix.entries, params.m
        ident_scaled = all(
            entries[i * m + j] == (entries[0] if i == j else 0)
            for i in range(m)
            for j in range(m)
        )
        assert not ident_scaled


def test_derive_shared_worked_example(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    k_ab = derive_shared(micro_params, sk_a, pk_b)
    k_ba = derive_shared(micro_params, sk_b, pk_a)
    assert k_ab.vec == k_ba.vec == [4, 6]


def test_derive_shared_identity_peer(micro_params, micro_keys):
    sk_a, pk_a, _, _ = micro_keys
    peer = PublicKey(list(micro_params.base_vector))  # peer key = identity
    assert derive_shared(micro_params, sk_a, peer).vec == pk_a.vec


def test_derive_shared_dimension_check(micro_params, micro_keys):
    sk_a = micro_keys[0]
    with pytest.raises(DimensionMismatch):
        derive_shared(micro_params, sk_a, PublicKey([1, 2, 3]))


def test_derive_refuses_a_zero_peer_key():
    # the example of a zero pub.json: every key maps it to the zero
    # vector, so the "shared" key would be 32 zero bytes
    params = gen_params(101, 2, 2, 2, Rng(3), seed=3)
    sk, pk = keygen(params, Rng(1))
    for vec in ([0, 0, 0, 0], [101, 0, 202, 0]):
        counter = OpCounter()
        with pytest.raises(InvalidPublic, match="zero"):
            derive_shared(params, sk, PublicKey(vec), counter)
        assert counter.mul_count == 0
    counter = OpCounter()
    assert any(derive_shared(params, sk, PublicKey([0, 0, 0, 1]), counter).vec)
    assert counter.mul_count == params.m**2


class _ScalarFirst:
    """An Rng whose first keygen draw is rigged to a scalar key (c*I:
    a_0 = (c, 0, ..., 0), the other coefficients 0); later draws are
    the wrapped Rng's."""

    def __init__(self, rng, c):
        self.rng, self.c, self.rigged = rng, c, False

    def below_many(self, n, count):
        if self.rigged:
            return self.rng.below_many(n, count)
        self.rigged = True
        return [self.c] + [0] * (count - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([101, 2**31 - 1]),
    st.integers(1, 16),
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.booleans(),
)
@example(101, 1, 2, 1, 0, True)
@example(2**31 - 1, 16, 5, 4, 1, True)
def test_keygen_one_pass_matches_evaluating_and_applying_apart(q, k, d, degree, seed, rigged):
    # keygen's one kernel call and reduction give the key and T zeta that
    # eval_key_poly and apply_key_poly give on the same draw
    params = gen_params(q, k, d, degree, Rng(seed))
    rng = _ScalarFirst(Rng(seed + 1), 1 + seed % (q - 1)) if rigged else Rng(seed + 1)
    sk, pk = keygen(params, rng)
    assert not sk.key.is_scalar() and any(pk.vec)  # a rigged scalar draw is refused
    draw = Rng(seed + 1).below_many(q, (degree + 1) * k)
    coeffs = tuple(ShiftPoly(tuple(draw[i : i + k])) for i in range(0, len(draw), k))
    if sk.coeffs != coeffs:  # the first honest draw was weak: keygen drew again
        return
    key = eval_key_poly(params.field(), coeffs, params.z_powers, d)
    pub = apply_key_poly(params.z_powers, coeffs, params.zeta_orbit.upto(degree))
    assert sk.key == key and sk.key.blocks == key.blocks
    assert sk.key.packed == key.packed
    assert pk.vec == pub


def test_agreement_random_instances():
    rng = Rng(20240610)
    for q in (7, 101):
        for k, d in ((1, 2), (2, 2), (2, 3)):
            for degree in (1, 3):
                params = gen_params(q, k, d, degree, rng)
                for _ in range(5):
                    sk_a, pk_a = keygen(params, rng)
                    sk_b, pk_b = keygen(params, rng)
                    assert (
                        derive_shared(params, sk_a, pk_b).vec
                        == derive_shared(params, sk_b, pk_a).vec
                    )
                    assert mat_mul(params.field(), sk_a.matrix, sk_b.matrix) == mat_mul(
                        params.field(), sk_b.matrix, sk_a.matrix
                    )


def test_public_key_linearity():
    rng = Rng(31415)
    params = gen_params(1009, 2, 2, 3, rng)
    field = params.field()
    for _ in range(20):
        sk1, pk1 = keygen(params, rng)
        sk2, pk2 = keygen(params, rng)
        summed = private_key_from_coeffs(
            params,
            [c1.add(c2, field) for c1, c2 in zip(sk1.coeffs, sk2.coeffs)],
        )
        assert public_key(params, summed).vec == vec_add(field, pk1.vec, pk2.vec)


def test_count_ops_derive():
    params = gen_params(101, 1, 2, 1, Rng(1))
    report = count_ops("derive_shared", params)
    assert (report.m, report.mul_count, report.add_count) == (2, 4, 2)

    big = Params(
        2147483647,
        32,
        2,
        3,
        [1] + [0] * 63,
        RingSample(RingMatrix.from_matrix(Matrix.identity(64), 32, 2)),
    )
    report = count_ops("derive_shared", big)
    assert report.mul_count == 64 * 64 == 4096
    assert report.add_count == 64 * 63


def test_count_ops_keygen_formula():
    for q in (7, 2147483647):
        params = gen_params(q, 2, 2, 3, Rng(9))
        report = count_ops("keygen", params)
        assert report.mul_count == params.degree * params.m**3
        again = count_ops("keygen", params)
        assert (again.mul_count, again.add_count) == (report.mul_count, report.add_count)


def test_derive_count_independent_of_modulus():
    counts = []
    for q in (7, 2147483647):
        params = gen_params(q, 2, 2, 1, Rng(4))
        rng = Rng(8)
        sk, _ = keygen(params, rng)
        _, pk = keygen(params, rng)
        ctr = OpCounter()
        derive_shared(params, sk, pk, counter=ctr)
        counts.append((ctr.mul_count, ctr.add_count))
    assert counts[0] == counts[1] == (16, 12)


def test_derive_never_builds_the_dense_key():
    # a derive applies the key in R: the dense T (sk.matrix) stays unbuilt,
    # and the shared key is still T @ pub at the paper's m**2 count
    rng = Rng(2718)
    for q in GRID_PRIMES:
        for k, d in ((1, 2), (3, 2), (4, 3), (16, 4)):
            params = gen_params(q, k, d, 3, rng)
            sk, _ = keygen(params, rng)
            _, pub = keygen(params, rng)
            fresh = kex.PrivateKey(sk.coeffs, sk.key)
            ctr = OpCounter()
            shared = derive_shared(params, fresh, pub, ctr)
            assert "matrix" not in fresh.__dict__
            m = params.m
            assert (ctr.mul_count, ctr.add_count) == (m * m, m * (m - 1))
            assert shared.vec == mat_vec_mod(fresh.matrix.to_rows(), pub.vec, q)


def test_params_json_round_trip():
    params = gen_params(101, 2, 3, 2, Rng(77), seed=77)
    text = params_to_json(params)
    again = params_from_json(text)
    assert params_to_json(again) == text
    assert again.q == 101 and again.k == 2 and again.d == 3 and again.degree == 2
    assert again.seed == 77
    assert again.ring_base.flat == params.ring_base.flat
    assert again == params  # value equality, the base compared in R


def test_a_negative_seed_round_trips():
    # "-" before a nonzero number is its one spelling, so gen-params
    # --seed -1 writes a params.json its own reader accepts
    text = params_to_json(gen_params(101, 1, 2, 1, Rng(-1), seed=-1))
    assert '"seed":"-1"' in text and params_to_json(params_from_json(text)) == text


def test_key_and_pub_json_round_trip(micro_params, micro_keys):
    sk_a, pk_a, _, _ = micro_keys
    text = private_key_to_json(sk_a)
    again = private_key_from_json(text, micro_params)
    assert private_key_to_json(again) == text
    assert again.matrix == sk_a.matrix
    assert again == sk_a

    ptext = public_key_to_json(pk_a)
    assert public_key_to_json(public_key_from_json(ptext, micro_params.q)) == ptext


def test_shared_key_bytes():
    shared = SharedKey([4, 6])
    data = shared.to_bytes()
    assert data == bytes(7) + b"\x04" + bytes(7) + b"\x06"
    assert len(data) == 16
    assert SharedKey.from_bytes(data).vec == [4, 6]
    with pytest.raises(ParseError):
        SharedKey.from_bytes(data[:-1])


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
@example([0, 2**64 - 1, 2**61 - 2])
def test_vector_bytes_match_per_entry_encoding(vec):
    # PUBKEY payloads, shared keys and the CONFIRM checksum input
    data = kex.vector_to_bytes(vec)
    assert data == b"".join(e.to_bytes(8, "big") for e in vec)
    assert kex.vector_from_bytes(data) == vec


def test_parse_errors():
    with pytest.raises(ParseError):
        params_from_json("{ truncated")
    with pytest.raises(ParseError) as exc_info:
        params_from_json('{"q": "6"')
    assert exc_info.value.pos is not None
    with pytest.raises(ParseError):
        params_from_json('{"q": "7"}')  # missing fields
    with pytest.raises(ParseError):
        public_key_from_json('{"xi": {"entries": ["9"]}}', 7)  # residue >= q
    with pytest.raises(ParseError):
        public_key_from_json('{"xi": {"entries": [9]}}', 7)  # not a string


def test_params_constructor_validation():
    base = RingSample(RingMatrix.from_matrix(Matrix.identity(2), 1, 2))
    with pytest.raises(InvalidParams):
        Params(7, 1, 2, 1, [0, 0], base)  # zero public vector
    with pytest.raises(InvalidParams):
        Params(7, 1, 2, 1, [1], base)  # wrong length
    with pytest.raises(InvalidParams):
        Params(7, 1, 1, 1, [1], base)  # d < 2
    with pytest.raises(InvalidParams):
        Params(8, 1, 2, 1, [1, 1], base)  # composite q


def test_degree_bound_is_m_squared():
    # m = 2: D = 4 is accepted, D = 5 is not, constructed or sampled;
    # files and PARAMS frames are covered in test_cli and test_wire
    base = RingSample(RingMatrix.from_matrix(Matrix.from_rows([[1, 1], [0, 1]]), 1, 2))
    assert Params(7, 1, 2, 4, [1, 2], base).degree == 4
    with pytest.raises(InvalidParams):
        Params(7, 1, 2, 5, [1, 2], base)
    assert gen_params(7, 1, 2, 4, Rng(3)).degree == 4
    rng = Rng(3)
    with pytest.raises(InvalidParams):
        gen_params(7, 1, 2, 5, rng)
    assert rng.state == Rng(3).state  # rejected before any sampling


def test_private_key_load_checks_against_params():
    params = gen_params(101, 2, 3, 2, Rng(19))
    sk, _ = keygen(params, Rng(20))
    good = private_key_to_obj(sk)
    assert private_key_from_obj(good, params).matrix == sk.matrix

    tampered = json.loads(json.dumps(good))
    e = tampered["T"]["entries"]
    e[0] = str((int(e[0]) + 1) % 101)
    short = json.loads(json.dumps(good))
    short["coeffs"][1]["coeffs"].pop()
    too_many = json.loads(json.dumps(good))
    too_many["coeffs"].append({"coeffs": ["0", "0"]})  # same T, degree D + 1
    swapped = dict(good, T=private_key_to_obj(keygen(params, Rng(21))[0])["T"])  # T in R
    for bad in (tampered, short, too_many, swapped):
        with pytest.raises(ParseError):
            private_key_from_obj(bad, params)

    # fewer coefficients than D+1 are a lower-degree key, and fine
    low = private_key_from_coeffs(params, sk.coeffs[:1])
    assert private_key_from_json(private_key_to_json(low), params).matrix == low.matrix


def test_keygen_threads_share_a_fresh_params():
    # fixed-params listener workers share one Params, whose power table
    # is built lazily by whichever keygen comes first
    text = params_to_json(gen_params(2147483647, 4, 4, 3, Rng(31)))
    seeds = (1, 2, 3, 4)  # more threads than a small machine has cores
    serial_params = params_from_json(text)
    serial = [keygen(serial_params, Rng(s))[0].matrix for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = params_from_json(text)
            barrier = threading.Barrier(len(seeds))
            out = {}

            def worker(seed):
                barrier.wait()
                out[seed] = keygen(shared, Rng(seed))[0].matrix

            threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in threads)
            assert [out[s] for s in seeds] == serial
    finally:
        sys.setswitchinterval(interval)


def test_keygen_gives_up_on_rigged_rng():
    params = gen_params(7, 1, 2, 1, Rng(3))

    class ZeroRng:
        def below(self, n):
            return 0

        def below_many(self, n, count):
            return [self.below(n) for _ in range(count)]

    # all-zero coefficients give the zero key matrix every attempt
    with pytest.raises(DegenerateKey):
        keygen(params, ZeroRng())


# SHA-256 of params_to_json(gen_params(q, k, d, 3, Rng(11), seed=11)),
# recorded before the grids were drawn in bulk and multiplied as
# V + N*J.  At 2**60 + 33 most grid batches hold a rejected word and
# are drawn again word by word.
PINNED_PARAMS = {
    (2**31 - 1, 4, 16): "e5ed16ba2effeffae49192cca368e795aaa03c1371f54148428bf3634e1b9bc0",
    (2**31 - 1, 16, 4): "42f13f295a7c554fa1a815274bfd5101cedfd46f2fe8435cc2dbac813c041aa0",
    (2**31 - 1, 1, 8): "3c2d6425aab0df5b74c2e3d19348966f914f5413690f9e75701c94689231e719",
    (2**60 + 33, 2, 5): "e1fb8d879f5bb6c0c280f8f78c6752e570453a4cc318f034c6a2fba5a91d47fc",
    (2, 2, 2): "7c45d5825f1f92594cde9707519b3efa9b54bc761f951499c14e9d97a31e2d58",
    (13, 3, 3): "a2ce7bbcaebfb6479db8e083901c712ee093445e5417a632e4fe4454fe6f6a20",
}


@pytest.mark.parametrize("q, k, d", list(PINNED_PARAMS))
def test_gen_params_bytes_are_pinned(q, k, d):
    text = params_to_json(gen_params(q, k, d, 3, Rng(11), seed=11))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PARAMS[q, k, d]


def test_gen_params_propagates_degenerate_base():
    # all-ones draws: the public vector becomes (1, 1) and every base
    # candidate maps it to a scalar multiple of itself, so sampling
    # gives up and the error surfaces through gen_params
    class OnesRng:
        def below(self, n):
            return 1 if n > 1 else 0

        def below_many(self, bounds, count):
            bounds = bounds if isinstance(bounds, tuple) else (bounds,)
            return [self.below(bounds[i % len(bounds)]) for i in range(count)]

    with pytest.raises(DegenerateRingElement):
        gen_params(7, 1, 2, 1, OnesRng())


def test_params_rejects_base_outside_ring():
    z = Matrix.identity(4)
    z.entries[3 * 4 + 2] = 1  # under the diagonal of block (1, 1)
    with pytest.raises(NotBlockToeplitz):
        RingMatrix.from_matrix(z, 2, 2)
    # a file's z is read into R where it is loaded (exit 3: test_cli)
    obj = json.loads(params_to_json(gen_params(7, 2, 2, 1, Rng(3))))
    obj["z"]["matrix"]["entries"] = [str(e) for e in z.entries]
    with pytest.raises(ParseError, match=r"^params: ring base: block \(1, 1\) is not"):
        params_from_json(json.dumps(obj))
    obj["z"]["matrix"] = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}
    with pytest.raises(ParseError, match=r"^params: ring base must be 4x4$"):
        params_from_json(json.dumps(obj))
    # a constructed base of another shape
    six = RingSample(RingMatrix.from_matrix(Matrix.identity(6), 3, 2))
    with pytest.raises(InvalidParams):
        Params(7, 2, 2, 1, [1, 0, 0, 0], six)
    # every k = 1 matrix and the identity at any k are in R
    k1 = RingMatrix.from_matrix(Matrix.from_rows([[1, 2], [3, 4]]), 1, 2)
    Params(7, 1, 2, 1, [1, 0], RingSample(k1))
    Params(7, 4, 2, 1, [1] + [0] * 7, RingSample(RingMatrix.from_matrix(Matrix.identity(8), 4, 2)))


def test_params_rejects_a_base_of_the_wrong_shape():
    # d*d blocks of k residues, or the first keygen would fail inside
    # the packing (a struct.error) or the key application
    good = [[1, 0], [0, 0], [0, 0], [1, 0]]
    Params(101, 2, 2, 3, [1, 2, 3, 4], RingSample(RingMatrix(2, 2, good)))
    for blocks in ([[1], [2], [3], [4]], good[:3], [[1, 0, 0]] * 4):
        with pytest.raises(InvalidParams, match=r"^ring base must be 4x4: 4 blocks of 2 "):
            Params(101, 2, 2, 3, [1, 2, 3, 4], RingSample(RingMatrix(2, 2, blocks)))


def test_params_rejects_non_canonical_residues():
    # such params would write a params.json their own loader rejects
    two = Matrix.identity(4)
    two.entries[0] = two.entries[5] = 2  # block (0, 0) = 2 * I, at q = 2
    with pytest.raises(InvalidParams, match=r"^ring base entries must be canonical .* mod 2$"):
        Params(2, 2, 2, 2, [1, 0, 0, 0], RingSample(RingMatrix.from_matrix(two, 2, 2)))
    base = RingSample(RingMatrix.from_matrix(Matrix.identity(2), 1, 2))
    with pytest.raises(InvalidParams, match=r"^public vector entries must be canonical .* mod 7$"):
        Params(7, 1, 2, 1, [9, 0], base)
    with pytest.raises(InvalidParams):
        Params(7, 1, 2, 1, [1, -1], base)


def test_benchmark_trace_contract():
    # perfbench's traced run reads these two edges; a keygen or derive
    # that bypasses them fails the benchmark's smoke gate
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            rng = Rng(11)
            params = kex.gen_params(101, 2, 3, 2, rng)
            sk_a, _ = kex.keygen(params, rng)
            _, pk_b = kex.keygen(params, rng)
            kex.derive_shared(params, sk_a, pk_b)
    finally:
        tracer.uninstall()
    edges = tracer.summary().edges
    assert edges["op", "kex.keygen", "commutant.eval_key_poly"]["calls"] >= 2
    derive = edges["op", "kex.derive_shared", "linalg.mat_apply"]
    assert derive["calls"] == 1 and derive["mults"] == params.m**2


def test_loaded_key_derives_the_written_bytes():
    # a key read back from key.json carries the packed blocks of its own
    # evaluation, and a ring built from the residues alone packs them on
    # use: both derive the bytes that the written key derives
    for q, k, d in ((101, 2, 3), (2**31 - 1, 16, 4), (2**61 - 1, 1, 5)):
        rng = Rng(q + k)
        params = gen_params(q, k, d, 3, rng)
        sk, _ = keygen(params, rng)
        _, peer = keygen(params, rng)
        loaded = private_key_from_json(private_key_to_json(sk), params)
        bare = kex.PrivateKey(sk.coeffs, RingMatrix(k, d, [list(b) for b in sk.key.blocks]))
        assert loaded.key.packed is not None and bare.key.packed is None
        assert loaded.key == sk.key == bare.key
        shared = derive_shared(params, sk, peer).to_bytes()
        assert derive_shared(params, loaded, peer).to_bytes() == shared
        assert derive_shared(params, bare, peer).to_bytes() == shared


class _Rejected(Exception):
    pass


class _OneDraw:
    """Yields one keygen attempt's coefficients, then raises _Rejected."""

    def __init__(self, values):
        self.values = list(values)

    def below(self, n):
        if not self.values:
            raise _Rejected
        return self.values.pop(0)

    def below_many(self, n, count):
        return [self.below(n) for _ in range(count)]


def test_keygen_rejections_match_dense_rules():
    # Exhaustive over every coefficient draw of small instances: keygen
    # accepts exactly when the oracle's dense key is not scalar and does
    # not kill the public vector.  The last base has the public vector
    # e_0 as an eigenvector, so non-scalar keys can kill it.
    eigen_base = Matrix.from_rows(
        [[2, 1, 1, 0], [0, 2, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    )

    def eigen_params(q, degree):
        base = Matrix(4, 4, [x % q for x in eigen_base.entries])
        return Params(q, 2, 2, degree, [1, 0, 0, 0], RingSample(RingMatrix.from_matrix(base, 2, 2)))

    instances = [
        gen_params(2, 1, 2, 1, Rng(1)),
        gen_params(3, 2, 2, 1, Rng(2)),
        gen_params(2, 3, 2, 1, Rng(3)),
        gen_params(2, 2, 3, 2, Rng(4)),
        eigen_params(3, 1),
        eigen_params(2, 2),
    ]
    seen = {"scalar": 0, "kills": 0, "accepted": 0}
    for params in instances:
        q, k, m = params.q, params.k, params.m
        base_rows = params.ring_base.matrix.to_rows()
        for draw in product(range(q), repeat=(params.degree + 1) * k):
            chunks = [list(draw[i : i + k]) for i in range(0, len(draw), k)]
            dense = key_poly_mod(chunks, base_rows, params.d, q)
            pub = mat_vec_mod(dense, params.base_vector, q)
            scalar = all(dense[i][j] == (dense[0][0] if i == j else 0) for i in range(m) for j in range(m))
            kills = not any(pub)
            try:
                sk, pk = keygen(params, _OneDraw(draw))
            except _Rejected:
                assert scalar or kills, (params.q, params.k, params.d, draw)
                seen["scalar" if scalar else "kills"] += 1
                continue
            assert not scalar and not kills, (params.q, params.k, params.d, draw)
            assert sk.matrix == Matrix.from_rows(dense) and pk.vec == pub
            seen["accepted"] += 1
    assert all(seen.values()), seen


# Entries that int() reads but a canonical decimal would not be written
# as, entries of every other JSON type, out-of-range values and a
# decimal string past int()'s digit limit.
RESIDUE_ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=2**62).map(str),
    st.sampled_from(
        [" 1", "1 ", "1_0", "+1", "-0", "0x1", "", "1.0", "\u0661\u0662", "\uff13"]
        + ["9" * 5000, "1" + "0" * 4000]
    ),
    st.text(max_size=3),
    st.integers(min_value=-3, max_value=2**62),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RESIDUE_ENTRIES, max_size=6), st.sampled_from([2, 101, 2**61 - 1]))
@example([" 1", "1_0", "+1", "\u0661\u0662", "\uff13", "-0"], 101)
@example(["1", "-1"], 101)
@example(["0", "101"], 101)
@example(["1", "9" * 5000], 101)
@example(["1", 1], 101)
@example(["1", None, "x"], 101)
@example([True, 1.0], 2)
@example([], 2)
def test_bulk_residue_parser_matches_per_entry(values, q):
    # vectors, matrices and key coefficients parse in bulk; the per-entry
    # parser is the reference for every accepted value and error text
    def outcome(parse):
        try:
            return parse()
        except ParseError as exc:
            return str(exc)

    def reference(path):
        return outcome(
            lambda: [kex._parse_residue(v, q, f"{path}[{i}]") for i, v in enumerate(values)]
        )

    got = outcome(lambda: kex.vector_from_obj({"entries": values}, q, "v"))
    assert got == reference("v.entries")
    if values:
        mat = {"rows": 1, "cols": len(values), "entries": values}
        got = outcome(lambda: kex.matrix_from_obj(mat, q, "m").entries)
        assert got == reference("m.entries")
        got = outcome(lambda: list(kex.shift_poly_from_obj({"coeffs": values}, q, "c").coeffs))
        assert got == reference("c.coeffs")


# The ParseError text of each malformed_recipes case on
# gen_params(101, 2, 2, 2, Rng(15)), pinned from the reader that built
# recipe objects: the checker that names recipe errors keeps every text.
RECIPE_ERRORS = {
    "recipe not a list": "params.z.recipe: expected a list",
    "term not an object": "params.z.recipe[0]: expected an object",
    "factors not a list": "params.z.recipe[0].factors: expected a list",
    "grid not a list": "params.z.recipe[0].factors[0].grid: expected 2 rows of 2 blocks",
    "grid row not a list": "params.z.recipe[0].factors[0].grid: expected 2 rows of 2 blocks",
    "empty grid": "params.z.recipe[0].factors[0].grid: expected 2 rows of 2 blocks",
    "ragged grid": "params.z.recipe[0].factors[0].grid: expected 2 rows of 2 blocks",
    "1x1 grid": "params.z.recipe[0].factors[0].grid: expected 2 rows of 2 blocks",
    "huge exponent": "params.z.recipe[0].factors[0].exp: expected an integer in [0, 3]",
    "exponent above the sampler's": "params.z.recipe[0].factors[0].exp: expected an integer in [0, 3]",
    "negative exponent": "params.z.recipe[0].factors[0].exp: expected an integer in [0, 3]",
    "boolean exponent": "params.z.recipe[0].factors[0].exp: expected an integer in [0, 3]",
    "string exponent": "params.z.recipe[0].factors[0].exp: expected an integer in [0, 3]",
    "unknown kind": "params.z.recipe[0].factors[0].grid[0][0].kind: unknown kind 'hessenberg'",
    "value not a residue": (
        "params.z.recipe[0].factors[0].grid[0][0].value: 101 is not a canonical residue mod 101"
    ),
    "term without coeff": "params.z.recipe[0]: missing field 'coeff'",
    "block without value": "params.z.recipe[0].factors[0].grid[0][0]: missing field 'value'",
    "z matrix without rows": "params.z.matrix: rows/cols must be positive integers",
    "zero block size": "params.k: block size must be at least 1",
    "one block": "params.d: block count must be at least 2",
}


def test_malformed_recipe_error_texts(malformed_recipes):
    params = gen_params(101, 2, 2, 2, Rng(15))
    cases = malformed_recipes(json.loads(params_to_json(params)))
    assert [label for label, _ in cases] == list(RECIPE_ERRORS)
    for label, bad in cases:
        with pytest.raises(ParseError) as info:
            params_from_obj(bad)
        assert str(info.value) == RECIPE_ERRORS[label], label


# The z reader on edits of a 4 x 2 params object (q = 101): z's entries
# are block heads (row 0 of a block), their repeats down each Toeplitz
# diagonal and zeros below it, and each may be respelt as a string int()
# reads as the same number, one at a time or a whole diagonal at once;
# recipe numbers are respelt the same way, and exponents, kinds, grids,
# keys and the claimed shape are edited.
BULK_PARAMS = params_to_obj(gen_params(101, 4, 2, 3, Rng(9), seed=9))
SPELLINGS = {
    "pad": lambda s: "0" + s,  # "07"
    "space": lambda s: " " + s,
    "plus": lambda s: "+" + s,
    "underscore": lambda s: s[0] + "_" + s[1:] if len(s) > 1 else "0_" + s,  # "7_0"
    "minus": lambda s: "-" + s,  # "-0" where the entry is 0
}
BULK_TERMS = [
    ("z", "recipe", ti, "factors", fi)
    for ti, term in enumerate(BULK_PARAMS["z"]["recipe"])
    for fi in range(len(term["factors"]))
]
BULK_BLOCKS = [f + ("grid", r, c) for f in BULK_TERMS for r in range(2) for c in range(2)]
BULK_NUMBERS = (
    [("z", "matrix", "entries", i) for i in range(64)]
    + [("z", "recipe", ti, "coeff") for ti in range(len(BULK_PARAMS["z"]["recipe"]))]
    + [b + ("value",) for b in BULK_BLOCKS]
)
BULK_ODD = [True, False, "1", 10**12, -1, 4, 0, 3, None, 1.0, "x", "Jordan", "scalar"]
BULK_ODD += [["scalar"], {"kind": "jordan"}, [], [[]], "9" * 30, str(10**6)]
BULK_SLOTS = [("k",), ("d",), ("z", "matrix", "rows"), ("z", "matrix", "cols")]
BULK_SLOTS += [f + (key,) for f in BULK_TERMS for key in ("exp", "grid")]
BULK_SLOTS += [f + ("grid", 0) for f in BULK_TERMS] + [b + ("kind",) for b in BULK_BLOCKS]
BULK_KEYS = [("z", "matrix", key) for key in ("rows", "cols", "entries")] + [("z", "recipe")]
BULK_KEYS += [("z", "recipe", 0, key) for key in ("coeff", "factors")]
BULK_KEYS += [f + (key,) for f in BULK_TERMS for key in ("exp", "grid")]
BULK_KEYS += [b + (key,) for b in BULK_BLOCKS for key in ("kind", "value")]


def _bulk_edited(edits):
    """BULK_PARAMS with each edit applied: ("respell", path, spelling),
    ("diagonal", block row, block col, offset, spelling), ("set", path,
    value), ("ragged", path) (one member fewer) or ("delete", path)."""
    obj = copy.deepcopy(BULK_PARAMS)
    for op, *args in edits:
        if op == "diagonal":
            bi, bj, off, spelling = args
            paths = [("z", "matrix", "entries", (bi * 4 + r) * 8 + bj * 4 + r + off) for r in range(4 - off)]
            edits_here = [(path, SPELLINGS[spelling]) for path in paths]
        elif op == "respell":
            edits_here = [(args[0], SPELLINGS[args[1]])]
        else:
            edits_here = [(args[0], (lambda v: args[1]) if op == "set" else (lambda v: v[:-1]))]
        for path, change in edits_here:
            try:
                target = reduce(operator.getitem, path[:-1], obj)
                value = target[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed the place
            if not isinstance(target, (dict, list)) or op == "ragged" and not isinstance(value, list):
                continue
            if op == "delete":
                del target[path[-1]]
            else:
                target[path[-1]] = change(value)
    return obj


BULK_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("respell"), st.sampled_from(BULK_NUMBERS), st.sampled_from(list(SPELLINGS))),
        st.tuples(
            st.just("diagonal"),
            st.integers(0, 1),
            st.integers(0, 1),
            st.integers(0, 3),
            st.sampled_from(list(SPELLINGS)),
        ),
        st.tuples(st.just("set"), st.sampled_from(BULK_SLOTS), st.sampled_from(BULK_ODD)),
        st.tuples(st.just("ragged"), st.sampled_from(BULK_SLOTS[4:])),
        st.tuples(st.just("delete"), st.sampled_from(BULK_KEYS)),
    ),
    min_size=1,
    max_size=3,
).map(_bulk_edited)


@settings(max_examples=300, deadline=None)
@given(st.one_of(BULK_EDITS, json_mutations(BULK_PARAMS)))
@example(BULK_PARAMS)
@example(_bulk_edited([("respell", BULK_NUMBERS[9], "pad")]))  # a repeat, "07"
@example(_bulk_edited([("respell", BULK_NUMBERS[8], "minus"), ("respell", BULK_NUMBERS[16], "pad")]))  # zeros
@example(_bulk_edited([("diagonal", 0, 1, 1, "underscore")]))  # a whole diagonal respelt
@example(_bulk_edited([("respell", BULK_NUMBERS[64], "space"), ("respell", BULK_NUMBERS[-1], "plus")]))
@example(_bulk_edited([("set", BULK_TERMS[0] + ("exp",), True)]))
@example(_bulk_edited([("set", BULK_TERMS[0] + ("exp",), "1")]))
@example(_bulk_edited([("set", BULK_TERMS[0] + ("exp",), 10**12)]))
@example(_bulk_edited([("set", BULK_BLOCKS[0] + ("kind",), "Jordan")]))
@example(_bulk_edited([("set", BULK_BLOCKS[0] + ("kind",), ["scalar"])]))
@example(_bulk_edited([("ragged", BULK_TERMS[0] + ("grid", 0))]))
@example(_bulk_edited([("delete", BULK_BLOCKS[0] + ("value",))]))
@example(_bulk_edited([("set", ("k",), str(10**6))]))
@example(_bulk_edited([("set", ("d",), str(10**6))]))
def test_bulk_z_reader_is_the_only_value_path(obj):
    # z is read in bulk or its first error named, never read another
    # way: the reader raises exactly when the bulk reads refuse z, and
    # what it returns is what they read, written back as it was read
    z = obj.get("z") if isinstance(obj, dict) else obj
    ring = kex._ring_in_bulk(z.get("matrix") if isinstance(z, dict) else None, 101, 4, 2)
    recipe_ok = not isinstance(z, dict) or "recipe" not in z or (
        kex._recipe_in_bulk(z["recipe"], 101, 2) is not None
    )
    try:
        sample = kex.ring_sample_from_obj(z, 101, 4, 2, "params.z")
    except ParseError:
        assert ring is None or not recipe_ok
    else:
        assert ring is not None and recipe_ok and sample.ring == ring
        assert kex.ring_sample_to_obj(sample)["matrix"]["entries"] == z["matrix"]["entries"]


# What the z reader names for each respelling of a z number: a block
# head (entries[1], "32"), a repeat of the head "36" down a diagonal
# (entries[9]), a zero below it (entries[8]), the whole diagonal of
# head "67" in block (0, 1), a recipe coeff ("81") and a recipe value
# ("20").  "-" before a nonzero number spells a negative one.
Z_PLACES = {
    "head": [("respell", BULK_NUMBERS[1])],
    "repeat": [("respell", BULK_NUMBERS[9])],
    "zero": [("respell", BULK_NUMBERS[8])],
    "diagonal": [("diagonal", 0, 1, 1)],
    "coeff": [("respell", BULK_NUMBERS[64])],
    "value": [("respell", BULK_NUMBERS[-1])],
}
_E, _C = "params.z.matrix.entries", "is not a canonical decimal string"
_V = "params.z.recipe[1].factors[1].grid[1][1].value"
SPELLING_ERRORS = {
    ("pad", "head"): f"{_E}[1]: '032' {_C}",
    ("pad", "repeat"): f"{_E}[9]: '036' {_C}",
    ("pad", "zero"): f"{_E}[8]: '00' {_C}",
    ("pad", "diagonal"): f"{_E}[5]: '067' {_C}",
    ("pad", "coeff"): f"params.z.recipe[0].coeff: '081' {_C}",
    ("pad", "value"): f"{_V}: '020' {_C}",
    ("space", "head"): f"{_E}[1]: ' 32' {_C}",
    ("space", "repeat"): f"{_E}[9]: ' 36' {_C}",
    ("space", "zero"): f"{_E}[8]: ' 0' {_C}",
    ("space", "diagonal"): f"{_E}[5]: ' 67' {_C}",
    ("space", "coeff"): f"params.z.recipe[0].coeff: ' 81' {_C}",
    ("space", "value"): f"{_V}: ' 20' {_C}",
    ("plus", "head"): f"{_E}[1]: '+32' {_C}",
    ("plus", "repeat"): f"{_E}[9]: '+36' {_C}",
    ("plus", "zero"): f"{_E}[8]: '+0' {_C}",
    ("plus", "diagonal"): f"{_E}[5]: '+67' {_C}",
    ("plus", "coeff"): f"params.z.recipe[0].coeff: '+81' {_C}",
    ("plus", "value"): f"{_V}: '+20' {_C}",
    ("underscore", "head"): f"{_E}[1]: '3_2' {_C}",
    ("underscore", "repeat"): f"{_E}[9]: '3_6' {_C}",
    ("underscore", "zero"): f"{_E}[8]: '0_0' {_C}",
    ("underscore", "diagonal"): f"{_E}[5]: '6_7' {_C}",
    ("underscore", "coeff"): f"params.z.recipe[0].coeff: '8_1' {_C}",
    ("underscore", "value"): f"{_V}: '2_0' {_C}",
    ("minus", "head"): f"{_E}[1]: -32 is not a canonical residue mod 101",
    ("minus", "repeat"): f"{_E}[9]: -36 is not a canonical residue mod 101",
    ("minus", "zero"): f"{_E}[8]: '-0' {_C}",
    ("minus", "diagonal"): f"{_E}[5]: -67 is not a canonical residue mod 101",
    ("minus", "coeff"): "params.z.recipe[0].coeff: -81 is not a canonical residue mod 101",
    ("minus", "value"): f"{_V}: -20 is not a canonical residue mod 101",
}


def test_respelt_z_numbers_are_rejected():
    # each respelling the bulk reader once sent down a second value path
    # is now an error that names its place
    assert list(SPELLING_ERRORS) == list(product(SPELLINGS, Z_PLACES))
    for (spelling, place), text in SPELLING_ERRORS.items():
        obj = _bulk_edited([edit + (spelling,) for edit in Z_PLACES[place]])
        with pytest.raises(ParseError) as info:
            params_from_obj(obj)
        assert str(info.value) == text, (spelling, place)


# Spellings int() reads and ``str`` never writes, and the number each
# spells: every one is refused wherever a file holds an integer.
NON_CANONICAL = {" 7": 7, "7 ": 7, "+7": 7, "-0": 0, "07": 7, "7_0": 70, "\u0667": 7, "\uff13": 3}


def _respelt_places(spelling):
    """(reader, object, path) for each place of the BULK_PARAMS files
    (params, a key and its public key) that holds an integer, the object
    with that place spelt ``spelling``.  A z matrix entry is respelt
    down a diagonal set to the value spelling spells: the head
    entries[0] or its repeat entries[9]."""
    params = params_from_obj(BULK_PARAMS)
    sk, pk = keygen(params, Rng(10))
    files = {
        "params": (params_from_obj, BULK_PARAMS),
        "key": (lambda obj: private_key_from_obj(obj, params), private_key_to_obj(sk)),
        "pub": (lambda obj: kex.public_key_from_obj(obj, 101), kex.public_key_to_obj(pk)),
    }
    places = [("params", (key,)) for key in ("q", "k", "d", "D", "seed")]
    places += [("params", ("zeta", "entries", 0)), ("params", ("z", "matrix", "entries", 0))]
    places += [("params", ("z", "matrix", "entries", 9)), ("params", BULK_NUMBERS[64])]
    places += [("params", BULK_NUMBERS[-1]), ("key", ("coeffs", 0, "coeffs", 0))]
    places += [("key", ("T", "entries", 0)), ("pub", ("xi", "entries", 0))]
    for name, path in places:
        reader, obj = files[name]
        obj = copy.deepcopy(obj)
        if path[:2] == ("z", "matrix"):
            for i in (0, 9, 18, 27):  # block (0, 0)'s diagonal
                obj["z"]["matrix"]["entries"][i] = str(NON_CANONICAL[spelling])
        reduce(operator.getitem, path[:-1], obj)[path[-1]] = spelling
        steps = [f"[{p}]" if isinstance(p, int) else f".{p}" for p in path]
        yield reader, obj, name + "".join(steps)


@pytest.mark.parametrize("spelling", list(NON_CANONICAL))
def test_non_canonical_decimals_are_refused_everywhere(spelling):
    assert int(spelling) == NON_CANONICAL[spelling] and str(int(spelling)) != spelling
    for reader, obj, path in _respelt_places(spelling):
        with pytest.raises(ParseError) as info:
            reader(obj)
        assert str(info.value) == f"{path}: {spelling!r} is not a canonical decimal string"


BULK_RECIPE = BULK_PARAMS["z"]["recipe"]


def _recipe_edited(path, value):
    obj = copy.deepcopy(BULK_RECIPE)
    reduce(operator.getitem, path[:-1], obj)[path[-1]] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(json_mutations(BULK_RECIPE))
@example(BULK_RECIPE)
@example([])
@example(_recipe_edited((0, "factors"), []))
@example(_recipe_edited((0, "factors", 0, "grid", 0, 0, "value"), "07"))
@example(_recipe_edited((0, "factors", 0, "grid", 0, 0, "value"), "101"))
@example(_recipe_edited((0, "factors", 0, "grid", 0, 0, "kind"), ["scalar"]))
@example(_recipe_edited((0, "factors", 0, "exp"), True))
@example(_recipe_edited((0, "coeff"), 7))
def test_bulk_recipe_check_refuses_exactly_what_the_checker_names(raw):
    # a recipe is kept or its first error named, never dropped: the bulk
    # check refuses it exactly when the entry-by-entry checker raises
    try:
        kex._check_recipe(raw, 101, 2, "z")
    except ParseError:
        assert kex._recipe_in_bulk(raw, 101, 2) is None
    else:
        assert kex._recipe_in_bulk(raw, 101, 2) is not None


def test_params_reader_builds_nothing_per_entry(monkeypatch):
    # z is read from its block rows and the recipe kept flat: sampling,
    # reading and writing params build no Matrix and no recipe object;
    # key.json's T is written from the key's residue strings and read
    # from its block rows
    built = {"Matrix": 0, "GeneratorBlock": 0, "BlockGrid": 0}
    nothing = dict.fromkeys(built, 0)

    def counting(cls, name):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    for cls in (Matrix, GeneratorBlock, BlockGrid):
        counting(cls, cls.__name__)
    for k, d in ((1, 2), (8, 2), (4, 16)):
        params = gen_params(2147483647, k, d, 3, Rng(k * d), seed=k * d)
        assert built == nothing, (k, d)
        text = params_to_json(params)
        again = params_from_json(text)
        assert built == nothing, (k, d)
        assert params_to_json(again) == text and again == params
        assert built == nothing, (k, d)
        assert again.ring_base.flat == params.ring_base.flat
        sk, _ = keygen(again, Rng(k * d + 1))
        key_text = private_key_to_json(sk)
        assert private_key_to_json(private_key_from_json(key_text, again)) == key_text
        assert built == nothing, (k, d)
    obj = json.loads(text)
    del obj["z"]["recipe"]
    plain = params_from_obj(obj)
    assert plain.ring_base.flat is None
    assert params_to_json(plain) == kex.canonical_json(obj)


# Readers of mutated files: whatever is deleted, replaced or inserted,
# only a commkex error escapes.
@settings(max_examples=200, deadline=None)
@given(json_mutations(params_to_obj(FUZZ_PARAMS)))
def test_params_reader_on_mutated_objects(obj):
    try:
        params_from_obj(obj)
    except Error:
        pass


@settings(max_examples=200, deadline=None)
@given(json_mutations(private_key_to_obj(FUZZ_KEYS[0][0])))
def test_private_key_reader_on_mutated_objects(obj):
    try:
        private_key_from_obj(obj, FUZZ_PARAMS)
    except Error:
        pass
