from dataclasses import replace

import pytest

from commkex.errors import (
    InconsistentSystem,
    InsufficientRank,
    InvalidParams,
    NoSolution,
    OutOfSpan,
)
from commkex.gf import Rng
from commkex.commutant import ShiftPoly
from commkex.kex import (
    PublicKey,
    derive_shared,
    gen_params,
    keygen,
    private_key_from_coeffs,
    public_key,
)
from commkex.attacks import (
    MODE_FULL,
    MODE_STRUCTURED,
    DirectoryEntry,
    KeyDirectory,
    directory_from_obj,
    directory_to_obj,
    passive_commutant_attack,
    recover_private_key,
    recover_shared_from_directory,
    report_obj,
)
from commkex.linalg import Matrix, mat_apply, vec_add

from oracles import key_poly_mod, mat_vec_mod


def fill_directory(params, rng, count, with_private=True):
    entries = []
    for _ in range(count):
        sk, pk = keygen(params, rng)
        entries.append(DirectoryEntry(pk, sk if with_private else None))
    return KeyDirectory(params, entries)


def spanning_directory(params, rng, max_tries=200):
    """Directory whose known public keys span the whole space."""
    entries = []
    directory = KeyDirectory(params, entries)
    for _ in range(max_tries):
        sk, pk = keygen(params, rng)
        entries.append(DirectoryEntry(pk, sk))
        if directory.public_rank() == params.m:
            return directory
    raise AssertionError("could not build a spanning directory")


def test_commuting_images_identity():
    # the relation the attacks ride on: T_i(T(zeta)) == T(T_i(zeta))
    rng = Rng(11)
    for q in (7, 101):
        params = gen_params(q, 2, 2, 2, rng)
        field = params.field()
        for _ in range(25):
            sk_t, pk_t = keygen(params, rng)
            sk_a, pk_a = keygen(params, rng)
            assert mat_apply(field, sk_a.matrix, pk_t.vec) == mat_apply(
                field, sk_t.matrix, pk_a.vec
            )


def test_recover_identity_target(micro_params, micro_keys):
    sk_b, pk_b = micro_keys[2], micro_keys[3]
    ident = private_key_from_coeffs(micro_params, [ShiftPoly((1,))])
    directory = KeyDirectory(
        micro_params,
        [DirectoryEntry(pk_b, sk_b), DirectoryEntry(public_key(micro_params, ident), ident)],
    )
    target = PublicKey(list(micro_params.base_vector))  # target key = identity
    rec = recover_private_key(directory, target, MODE_FULL)
    field = micro_params.field()
    for entry in directory.entries:
        assert mat_apply(field, rec.matrix, entry.public.vec) == entry.public.vec


def test_recover_worked_instance(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    ident = private_key_from_coeffs(micro_params, [ShiftPoly((1,))])
    directory = KeyDirectory(
        micro_params,
        [DirectoryEntry(pk_b, sk_b), DirectoryEntry(public_key(micro_params, ident), ident)],
    )
    rec = recover_private_key(directory, pk_a, MODE_FULL)
    field = micro_params.field()
    assert mat_apply(field, rec.matrix, micro_params.base_vector) == [4, 3]
    assert mat_apply(field, rec.matrix, pk_b.vec) == [4, 6]
    assert rec.matrix == sk_a.matrix  # structured keys are determined
    assert rec.verified and rec.residual_rank_deficit == 0


def test_recover_insufficient_rank(micro_params, micro_keys):
    sk_b, pk_b = micro_keys[2], micro_keys[3]
    doubled = private_key_from_coeffs(
        micro_params, [c.add(c, micro_params.field()) for c in sk_b.coeffs]
    )
    directory = KeyDirectory(
        micro_params,
        [DirectoryEntry(pk_b, sk_b), DirectoryEntry(public_key(micro_params, doubled), doubled)],
    )
    # both public keys are parallel: rank 1 < m = 2
    with pytest.raises(InsufficientRank):
        recover_private_key(directory, micro_keys[1], MODE_FULL)


def test_full_recovery_is_exact_over_random_instances():
    rng = Rng(987)
    for q in (101, 2147483647):
        for k, d in ((1, 2), (2, 2)):
            params = gen_params(q, k, d, 2, rng)
            directory = spanning_directory(params, rng)
            for _ in range(10):
                sk_t, pk_t = keygen(params, rng)
                rec = recover_private_key(directory, pk_t, MODE_FULL)
                assert rec.matrix == sk_t.matrix
                assert rec.verified


def test_structured_recovery_agrees_on_span():
    rng = Rng(654)
    params = gen_params(101, 2, 2, 2, rng)
    field = params.field()
    directory = fill_directory(params, rng, 2)
    for _ in range(10):
        sk_t, pk_t = keygen(params, rng)
        rec = recover_private_key(directory, pk_t, MODE_STRUCTURED)
        assert rec.verified
        # agreement on the base vector, every directory public key, and
        # random combinations of them
        assert mat_apply(field, rec.matrix, params.base_vector) == pk_t.vec
        vectors = [params.base_vector] + [e.public.vec for e in directory.entries]
        for v in vectors:
            assert mat_apply(field, rec.matrix, v) == mat_apply(field, sk_t.matrix, v)
        combo = [0] * params.m
        lincomb_rng = Rng(5)
        for v in vectors:
            c = field.sample(lincomb_rng)
            combo = vec_add(field, combo, [c * x % params.q for x in v])
        assert mat_apply(field, rec.matrix, combo) == mat_apply(
            field, sk_t.matrix, combo
        )


def test_directory_shared_basis_element(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    directory = KeyDirectory(micro_params, [DirectoryEntry(pk_a, sk_a)])
    # victim public key IS the single directory key
    res = recover_shared_from_directory(directory, pk_a, pk_b)
    field = micro_params.field()
    assert res.coefficients == [1]
    assert res.shared_key.vec == mat_apply(field, sk_a.matrix, pk_b.vec)


def test_directory_shared_combination():
    rng = Rng(246)
    params = gen_params(101, 2, 2, 2, rng)
    field = params.field()
    sk_1, pk_1 = keygen(params, rng)
    sk_2, pk_2 = keygen(params, rng)
    directory = KeyDirectory(
        params, [DirectoryEntry(pk_1, sk_1), DirectoryEntry(pk_2, sk_2)]
    )
    # victim with public key xi_1 + xi_2: derive against a counterpart
    victim_pub = PublicKey(vec_add(field, pk_1.vec, pk_2.vec))
    summed = private_key_from_coeffs(
        params, [c1.add(c2, field) for c1, c2 in zip(sk_1.coeffs, sk_2.coeffs)]
    )
    assert public_key(params, summed).vec == victim_pub.vec
    sk_c, pk_c = keygen(params, rng)
    honest = derive_shared(params, summed, pk_c)
    res = recover_shared_from_directory(directory, victim_pub, pk_c)
    assert res.shared_key.vec == honest.vec
    assert res.verified


def test_directory_shared_out_of_span(micro_params, micro_keys):
    sk_a, pk_a, _, pk_b = micro_keys
    directory = KeyDirectory(micro_params, [DirectoryEntry(pk_a, sk_a)])
    # pk_a = (4, 3); anything independent of it is out of reach
    outside = PublicKey([1, 0])
    assert mat_vec_mod([[4, 1], [3, 0]], [1, 1], 7) != [0, 0]  # sanity: independent
    with pytest.raises(OutOfSpan):
        recover_shared_from_directory(directory, outside, pk_b)


def test_passive_attack_worked_instance(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    res = passive_commutant_attack(micro_params, pk_a, pk_b)
    assert res.recovered == sk_a.matrix == Matrix.from_rows([[5, 3], [0, 5]])
    assert res.shared_key.vec == [4, 6]
    assert res.verified


def test_passive_attack_identity_party(micro_params, micro_keys):
    _, _, sk_b, pk_b = micro_keys
    pub_ident = PublicKey(list(micro_params.base_vector))
    res = passive_commutant_attack(micro_params, pub_ident, pk_b)
    assert res.shared_key.vec == pk_b.vec


def test_passive_attack_random_instances():
    rng = Rng(13579)
    for q in (7, 101, 2147483647):
        for k, d in ((1, 2), (2, 2), (2, 3)):
            params = gen_params(q, k, d, 3, rng)
            for _ in range(5):
                sk_a, pk_a = keygen(params, rng)
                sk_b, pk_b = keygen(params, rng)
                honest = derive_shared(params, sk_a, pk_b)
                res = passive_commutant_attack(params, pk_a, pk_b)
                assert res.shared_key.vec == honest.vec
                assert res.degree_bound == params.degree


def test_passive_attack_degree_retry():
    # an attacker who starts below the honest degree doubles its bound
    rng = Rng(8642)
    params = gen_params(101, 1, 2, 3, rng)
    found = False
    for _ in range(40):
        sk_a, pk_a = keygen(params, rng)
        sk_b, pk_b = keygen(params, rng)
        try:
            res0 = passive_commutant_attack(params, pk_a, pk_b, degree_bound=0)
        except NoSolution:
            continue
        honest = derive_shared(params, sk_a, pk_b)
        assert res0.shared_key.vec == honest.vec
        if res0.degree_bound > 0:
            found = True
            break
    assert found, "expected at least one instance needing a degree retry"


def test_passive_recovered_above_degree_matches_oracle():
    # keygen caches D+1 = 4 powers of z; a bound of D + 3 needs 7
    rng = Rng(9753)
    for q, k, d in ((101, 2, 3), (2147483647, 3, 2)):
        params = gen_params(q, k, d, 3, rng)
        _, pk_a = keygen(params, rng)
        _, pk_b = keygen(params, rng)
        res = passive_commutant_attack(params, pk_a, pk_b, degree_bound=6)
        assert res.degree_bound == 6 and len(res.coefficients) == 7 * k
        assert mat_apply(params.field(), res.recovered, params.base_vector) == pk_a.vec
        # the echelon solution leaves the top powers' coefficients zero;
        # random ones make every power of z count
        dense = [rng.below(q) for _ in range(7 * k)]
        for coeffs in (res.coefficients, dense):
            chunks = [coeffs[i : i + k] for i in range(0, 7 * k, k)]
            oracle = key_poly_mod(chunks, params.ring_base.matrix.to_rows(), d, q)
            assert replace(res, coefficients=coeffs).recovered == Matrix.from_rows(oracle)


def test_passive_degree_bound_is_capped_at_m_squared():
    rng = Rng(1729)
    params = gen_params(101, 1, 2, 3, rng)  # m**2 = 4
    sk_a, pk_a = keygen(params, rng)
    sk_b, pk_b = keygen(params, rng)
    res = passive_commutant_attack(params, pk_a, pk_b, degree_bound=4)
    assert res.degree_bound == 4 and res.verified
    assert res.shared_key == derive_shared(params, sk_a, pk_b)
    for bad in (5, 2000, -1):
        with pytest.raises(InvalidParams):
            passive_commutant_attack(params, pk_a, pk_b, degree_bound=bad)


def test_passive_attack_keeps_the_params_power_table():
    # the attack applies z to vectors; a report on a raised bound builds
    # its powers aside, so the params keep at most the key degree's D+1
    rng = Rng(6765)
    params = gen_params(101, 2, 2, 2, rng)  # m**2 = 16
    _, pk_a = keygen(params, rng)
    _, pk_b = keygen(params, rng)
    for bound in (0, 16):
        try:
            res = passive_commutant_attack(params, pk_a, pk_b, degree_bound=bound)
        except NoSolution:
            continue
        assert mat_apply(params.field(), res.recovered, params.base_vector) == pk_a.vec
        assert params.z_ring._powers.count <= params.degree + 1


def test_corrupted_directory_raises_inconsistent():
    # pair a public key with the WRONG private key: the recovery
    # equations then contradict each other
    rng = Rng(4242)
    params = gen_params(101, 2, 2, 2, rng)
    directory = spanning_directory(params, rng)
    wrong_sk, _ = keygen(params, rng)
    directory.entries[0] = DirectoryEntry(directory.entries[0].public, wrong_sk)
    sk_t, pk_t = keygen(params, rng)
    with pytest.raises(InconsistentSystem):
        recover_private_key(directory, pk_t, MODE_STRUCTURED)
    with pytest.raises(InconsistentSystem):
        recover_private_key(directory, pk_t, MODE_FULL)


def test_directory_serialization_round_trip(micro_params, micro_keys):
    sk_a, pk_a, _, pk_b = micro_keys
    directory = KeyDirectory(
        micro_params, [DirectoryEntry(pk_a, sk_a), DirectoryEntry(pk_b, None)]
    )
    obj = directory_to_obj(directory)
    again = directory_from_obj(obj, micro_params)
    assert directory_to_obj(again) == obj
    assert again.entries[1].private is None
    assert len(again.known_pairs()) == 1


def test_report_serialization(micro_params, micro_keys):
    sk_a, pk_a, sk_b, pk_b = micro_keys
    res = passive_commutant_attack(micro_params, pk_a, pk_b)
    obj = report_obj(res)
    assert obj["mode"] == "passive-commutant"
    assert obj["verified"] is True
    assert set(obj) == {
        "mode",
        "equations_used",
        "rank",
        "recovered_key",
        "shared_key",
        "verified",
    }
