import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings

from commkex.errors import (
    Error,
    InconsistentSystem,
    InsufficientRank,
    InvalidParams,
    NoSolution,
    OutOfSpan,
)
from commkex.gf import Field, Rng
from commkex.commutant import PowerTable, ShiftPoly
from commkex.kex import (
    PublicKey,
    derive_shared,
    gen_params,
    keygen,
    params_from_json,
    params_to_json,
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

from conftest import FUZZ_KEYS, FUZZ_PARAMS, json_mutations, kept_passive_system
from oracles import key_poly_mod, mat_vec_mod, structured_columns_mod, textbook_solve


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
    # the params keep D+1 powers of z; a bound of 6 needs 7, and with
    # d > D+1 rows the solution uses powers past D.  The attack still
    # applies them through zeta's kept orbit, since the params' table
    # holds sums of 2*6+1 = 13 coefficients at all three shapes
    # (PowerTable.capacity); only the report's dense key
    # (_structured_key) builds a table of its own
    rng = Rng(9753)
    for q, k, d, degree in ((101, 2, 3, 3), (2147483647, 3, 2, 3), (2305843009213693951, 2, 4, 1)):
        params = gen_params(q, k, d, degree, rng)
        sk_a, pk_a = keygen(params, rng)
        _, pk_b = keygen(params, rng)
        res = passive_commutant_attack(params, pk_a, pk_b, degree_bound=6)
        assert res.degree_bound == 6 and len(res.coefficients) == 7 * k
        assert res.verified and res.shared_key == derive_shared(params, sk_a, pk_b)
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
    # the attack applies z to vectors through the params' table; a report
    # on a raised bound builds its powers aside, so the params keep their
    # one table of the key degree's D+1 powers
    rng = Rng(6765)
    params = gen_params(101, 2, 2, 2, rng)  # m**2 = 16
    _, pk_a = keygen(params, rng)
    _, pk_b = keygen(params, rng)
    table = params.z_powers
    for bound in (0, 16):
        try:
            res = passive_commutant_attack(params, pk_a, pk_b, degree_bound=bound)
        except NoSolution:
            continue
        assert mat_apply(params.field(), res.recovered, params.base_vector) == pk_a.vec
        assert params.z_powers is table and table.count == params.degree + 1


def test_cold_attack_applies_z_only_to_the_columns_it_reads(monkeypatch):
    # at 8x2, D = 3 (the sniff workload's shape) both rows take unit
    # pivots in powers 0 and 1, so the elimination reads zeta and z zeta,
    # and the product of the two keys, of degree 2, reads z**2 zeta: a
    # cold attack applies z twice to zeta and never to pub_b
    rng = Rng(2718)
    params = gen_params(2**31 - 1, 8, 2, 3, rng)
    sk_a, pk_a = keygen(params, rng)
    _, pk_b = keygen(params, rng)
    cold = params_from_json(params_to_json(params))
    calls, packed = [], []
    act, pack = PowerTable.act, PowerTable.pack
    monkeypatch.setattr(
        PowerTable, "act", lambda table, chunks: calls.append(1) or act(table, chunks)
    )
    monkeypatch.setattr(
        PowerTable, "pack", lambda table, vec: packed.append(list(vec)) or pack(table, vec)
    )
    res = passive_commutant_attack(cold, pk_a, pk_b)
    assert kept_passive_system(cold, res.degree_bound)[2].exps == (8, 8, 0, 0)
    assert len(calls) == 2
    assert pk_b.vec not in packed
    assert res.verified and res.shared_key == derive_shared(params, sk_a, pk_b)


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


# one known pair and one public key only
FUZZ_DIRECTORY = KeyDirectory(
    FUZZ_PARAMS,
    [DirectoryEntry(FUZZ_KEYS[0][1], FUZZ_KEYS[0][0]), DirectoryEntry(FUZZ_KEYS[1][1])],
)


@settings(max_examples=200, deadline=None)
@given(json_mutations(directory_to_obj(FUZZ_DIRECTORY)))
def test_directory_reader_on_mutated_objects(obj):
    # whatever is deleted, replaced or inserted, only a commkex error escapes
    try:
        directory_from_obj(obj, FUZZ_PARAMS)
    except Error:
        pass


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


# The passive attack eliminates its system once per params and bound and
# replays that elimination on each session's public key.


def fresh(params):
    """A copy of the params with nothing cached, as a new reader of the
    same params.json gets."""
    return params_from_json(params_to_json(params))


def passive_outcome(params, pub_a, pub_b, bound):
    try:
        res = passive_commutant_attack(params, pub_a, pub_b, bound)
    except NoSolution as exc:
        return repr(exc)
    return (report_obj(res), res.degree_bound, res.rank, res.coefficients)


def textbook_passive(params, pub_a, bound):
    """(degree bound reached, rank, coefficients) of the passive attack
    from the dense structured system, solved by the textbook loop, with
    the attack's bound doubling; None when no bound up to m**2 works."""
    q, k, m = params.q, params.k, params.m
    z_rows = params.ring_base.matrix.to_rows()
    bound = params.degree if bound is None else bound
    while True:
        columns = structured_columns_mod(z_rows, [params.base_vector], k, bound, q)
        rows = [list(r) for r in zip(*columns)]
        pivots, (x,), _ = textbook_solve(Field(q), rows, [pub_a.vec])
        if x is not None:
            return bound, len(pivots), x
        if bound >= m * m:
            return None
        bound = min(m * m, bound * 2 if bound else 1)


def test_passive_attack_matches_textbook_solve():
    # the attack solves over R; pivots that are not units there (e_i
    # strictly between 0 and k) must occur, and do at small q
    rng, target_rng = Rng(3141), Rng(2718)
    shapes = ((1, 2), (2, 2), (3, 2), (2, 3), (6, 2))
    nonunit = 0
    for q in (2, 101, 2147483647, 2305843009213693951):
        for k, d in shapes:
            params = gen_params(q, k, d, 3, rng)
            keys = [keygen(params, rng)[1] for _ in range(3)]
            # a target no structured key may reach: the attack then runs
            # every retry up to m**2
            keys.append(PublicKey([target_rng.below(q) for _ in range(params.m)]))
            cap = params.m**2 if params.m <= 6 else 2 * params.m
            for bound in (None, 0, 1, params.degree, cap):
                for a, b in ((0, 1), (2, 0), (3, 1)):
                    expect = textbook_passive(params, keys[a], bound)
                    for target in (params, fresh(params)):
                        got = passive_outcome(target, keys[a], keys[b], bound)
                        if expect is None:
                            assert isinstance(got, str) and "NoSolution" in got
                        else:
                            assert got[1:] == expect
                            assert got[0]["verified"] is True
                    reached = expect[0] if expect else params.m**2
                    elim = kept_passive_system(params, reached)[2]
                    nonunit += sum(0 < e < params.k for e in elim.exps)
    assert nonunit > 0


def test_passive_reports_equal_on_fresh_and_reused_params():
    # one params object attacked over and over at alternating bounds,
    # against a fresh copy for every attack; the kept system is the one
    # for the bound the last attack reached, retries included
    rng = Rng(2236)
    for q, k, d in ((2, 2, 2), (101, 1, 3), (2147483647, 3, 2), (2305843009213693951, 2, 3)):
        params = gen_params(q, k, d, 3, rng)
        keys = [keygen(params, rng)[1] for _ in range(3)]
        sessions = [(0, 1), (1, 0), (2, 1)]
        for n, bound in enumerate((0, params.degree, params.m**2) * 3 + (None,)):
            a, b = sessions[n % len(sessions)]
            reused = passive_outcome(params, keys[a], keys[b], bound)
            assert reused == passive_outcome(fresh(params), keys[a], keys[b], bound)
            if not isinstance(reused, str):
                assert kept_passive_system(params, reused[1])[0] == reused[1]


def test_passive_attack_threads_share_a_fresh_params():
    # eavesdroppers on one params: the first attacks race to build the
    # kept system, and attacks at other bounds replace it under the others
    text = params_to_json(gen_params(2147483647, 4, 4, 3, Rng(37)))
    base = params_from_json(text)
    key_rng = Rng(38)
    pubs = [keygen(base, key_rng)[1] for _ in range(4)]
    jobs = [[(t, (t + 1) % 4, bound) for bound in (None, t % 2, None, 5)] for t in range(4)]
    serial = [[passive_outcome(fresh(base), pubs[a], pubs[b], n) for a, b, n in job] for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = params_from_json(text)
            barrier = threading.Barrier(len(jobs))
            out = {}

            def worker(t):
                barrier.wait()
                out[t] = [passive_outcome(shared, pubs[a], pubs[b], n) for a, b, n in jobs[t]]

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [out[t] for t in range(len(jobs))] == serial
    finally:
        sys.setswitchinterval(interval)


def test_passive_shared_key_matches_dense_oracle():
    # the shared key is the product of the keys solved for pub_a and pub_b
    # applied to zeta's orbit; it must equal T' applied to pub_b densely,
    # and the honest derivation, at every bound, on fresh and reused
    # params, including shapes with non-unit pivots and bounds whose
    # product outgrows the params' table
    rng = Rng(1618)
    shapes = ((1, 2), (2, 2), (3, 2), (2, 3), (6, 2))
    own_table = nonunit = 0
    for q in (2, 101, 2147483647, 2305843009213693951):
        for k, d in shapes:
            params = gen_params(q, k, d, 3, rng)
            keys = [keygen(params, rng) for _ in range(3)]
            m = params.m
            for bound in (None, 0, 1, params.degree, min(m * m, params.degree + 2), 2 * m):
                for a, b in ((0, 1), (2, 0), (1, 2)):
                    (sk_a, pk_a), (_, pk_b) = keys[a], keys[b]
                    honest = derive_shared(params, sk_a, pk_b)
                    for target in (params, fresh(params)):
                        res = passive_commutant_attack(target, pk_a, pk_b, bound)
                        dense = mat_vec_mod(res.recovered.to_rows(), pk_b.vec, q)
                        assert res.shared_key.vec == dense == honest.vec
                        assert res.verified
                        _, orbit, elim = kept_passive_system(target, res.degree_bound)
                        own_table += orbit is not target.zeta_orbit
                        nonunit += sum(0 < e < k for e in elim.exps)
                        assert orbit.table.capacity >= 2 * res.degree_bound + 1
    assert own_table > 0 and nonunit > 0


def test_passive_attack_on_an_off_span_peer_key():
    # a pub_b that no structured key reaches from zeta (a forged PUBKEY)
    # is applied to through its own orbit, and still gets T' pub_b
    rng, forged_rng = Rng(1414), Rng(1732)
    fallbacks = 0
    for q in (2, 101, 2147483647, 2305843009213693951):
        for k, d in ((1, 2), (2, 2), (3, 2), (2, 3), (8, 2)):
            params = gen_params(q, k, d, 3, rng)
            _, pk_a = keygen(params, rng)
            for bound in (None, 0, 2 * params.m):
                forged = PublicKey([forged_rng.below(q) for _ in range(params.m)])
                for target in (params, fresh(params)):
                    res = passive_commutant_attack(target, pk_a, forged, bound)
                    dense = mat_vec_mod(res.recovered.to_rows(), forged.vec, q)
                    assert res.shared_key.vec == dense and res.verified
                    elim = kept_passive_system(target, res.degree_bound)[2]
                    fallbacks += elim.solve(forged.vec) is None
    assert fallbacks > 0


def test_structured_recovery_matches_textbook_solve():
    rng = Rng(1732)
    for q, k, d, known in ((2, 2, 2, 1), (101, 1, 3, 2), (2147483647, 3, 2, 2), (2305843009213693951, 2, 3, 3)):
        params = gen_params(q, k, d, 2, rng)
        field = params.field()
        directory = fill_directory(params, rng, known)
        z_rows = params.ring_base.matrix.to_rows()
        for _ in range(3):
            sk_t, pk_t = keygen(params, rng)
            pairs = directory.known_pairs()
            inputs = [params.base_vector] + [pk.vec for _, pk in pairs]
            rhs = list(pk_t.vec)
            for sk, _ in pairs:
                rhs += mat_apply(field, sk.matrix, pk_t.vec)
            columns = structured_columns_mod(z_rows, inputs, k, params.degree, q)
            pivots, (x,), _ = textbook_solve(field, [list(r) for r in zip(*columns)], [rhs])
            chunks = [x[i : i + k] for i in range(0, len(x), k)]
            rec = recover_private_key(directory, pk_t, MODE_STRUCTURED)
            assert rec.matrix == Matrix.from_rows(key_poly_mod(chunks, z_rows, d, q))
            assert (rec.rank, rec.residual_rank_deficit) == (len(pivots), len(columns) - len(pivots))
            assert (rec.equations_used, rec.verified) == (known + 1, True)
