"""The design's product counts: how many packed products (``kron.dots``,
len(row) per column) each step takes, pinned at several shapes.

A counting fake replaces ``kron.dots`` for the test, so the library
carries no counting code.  A change that alters one of these exponents
(say, keygen without z's power table) changes its test on purpose."""

import pytest

from commkex import kron
from commkex.attacks import passive_commutant_attack
from commkex.commutant import Orbit, PowerTable, ShiftPoly, eval_recipe
from commkex.gf import Field, OpCounter, Rng
from commkex.kex import derive_shared, gen_params, keygen, private_key_from_coeffs, public_key
from commkex.linalg import Matrix, mat_apply, mat_mul

from conftest import kept_passive_system

Q = 2**31 - 1  # weak draws, which would repeat an attempt, are then rare
SHAPES = [(2, 3, 3), (3, 4, 2), (1, 5, 3)]  # (k, d, D)


@pytest.fixture
def counted(monkeypatch):
    """counted(f, *args): (f(*args), the packed products it took)."""
    taken = []
    dots = kron.dots

    def counting(row, cols):
        out = dots(row, cols)
        taken.append(len(row) * len(out))
        return out

    monkeypatch.setattr(kron, "dots", counting)

    def run(f, *args):
        taken.clear()
        return f(*args), sum(taken)

    return run


@pytest.fixture(params=SHAPES, ids=lambda s: "k%dd%dD%d" % s)
def warm(request):
    """Params of one shape with z's power table and the public vector's
    orbit built by a first keygen, and two key pairs."""
    k, d, degree = request.param
    rng = Rng(1000 * k + 10 * d + degree)
    params = gen_params(Q, k, d, degree, rng)
    sk_a, pk_a = keygen(params, rng)
    sk_b, pk_b = keygen(params, rng)
    return params, rng, (sk_a, pk_a), (sk_b, pk_b)


def test_keygen_on_warm_params(counted, warm):
    params, rng, _, _ = warm
    d, terms = params.d, params.degree + 1
    # eval_key_poly's d**2 dots and the public key's d, one attempt
    _, products = counted(keygen, params, rng)
    assert products == terms * d * d + terms * d


class _Attempts:
    """Counts keygen attempts (its below_many calls); with
    ``scalar_first`` the first draw is rigged to the scalar key 1*I, so
    that keygen draws again."""

    def __init__(self, rng, scalar_first):
        self.rng, self.attempts, self.rigged = rng, 0, scalar_first

    def below_many(self, n, count):
        self.attempts += 1
        if self.rigged:
            self.rigged = False
            return [1] + [0] * (count - 1)
        return self.rng.below_many(n, count)


def test_keygen_takes_one_kernel_call_and_one_reduction_per_attempt(monkeypatch, warm):
    params, rng, _, _ = warm
    calls = []
    for name in ("dots", "reduced_bytes"):
        fn = getattr(kron, name)
        monkeypatch.setattr(kron, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for scalar_first in (False, True):
        counting = _Attempts(rng, scalar_first)
        calls.clear()
        keygen(params, counting)
        assert counting.attempts >= 1 + scalar_first
        # the key's blocks and its public key: one kron.dots, one reduction
        assert calls == ["dots", "reduced_bytes"] * counting.attempts


def test_derive_shared(counted, warm):
    params, _, (sk_a, _), (_, pk_b) = warm
    _, products = counted(derive_shared, params, sk_a, pk_b)
    assert products == params.d**2


def test_public_key(counted, warm):
    params, rng, _, _ = warm
    for n in (1, params.degree + 1):
        coeffs = [ShiftPoly(tuple(rng.below_many(Q, params.k))) for _ in range(n)]
        sk = private_key_from_coeffs(params, coeffs)
        _, products = counted(public_key, params, sk)
        assert products == n * params.d


def test_power_table_columns(counted, warm):
    params, _, _, _ = warm
    d = params.d
    for count in (2, params.degree + 1, params.degree + 3):
        table = PowerTable(params.field(), params.z_ring, count)
        _, products = counted(lambda: table.columns)
        assert products == (count - 2) * d**3


def test_orbit_step(counted, warm):
    params, _, _, _ = warm
    orbit = Orbit(params.z_powers, params.base_vector)
    _, products = counted(orbit.upto, 0)
    assert products == 0
    for top in (1, 2, 3):
        _, products = counted(orbit.upto, top)
        assert products == params.d**2


def test_eval_recipe(counted, warm):
    params, _, _, _ = warm
    recipe = params.ring_base.flat
    ring, products = counted(eval_recipe, params.field(), params.k, params.d, recipe)
    assert ring == params.z_ring
    assert products == params.d**2 * sum(recipe.exps)


def test_warm_passive_attack(counted, warm):
    params, _, (_, pk_a), (_, pk_b) = warm
    cold = passive_commutant_attack(params, pk_a, pk_b)
    warm_result, products = counted(passive_commutant_attack, params, pk_a, pk_b)
    assert warm_result.verified and warm_result.shared_key.vec == cold.shared_key.vec
    # apply_key_product: one dot of 2*top + 1 terms per image chunk
    elim = kept_passive_system(params, warm_result.degree_bound)[2]
    top = max(i for i, e in enumerate(elim.exps) if e)
    assert products == (2 * top + 1) * params.d


def test_dense_kernels(counted):
    rng = Rng(7)
    field = Field(101, OpCounter())
    a = Matrix(3, 4, [field.sample(rng) for _ in range(12)])
    b = Matrix(4, 5, [field.sample(rng) for _ in range(20)])
    # one product of residues per counted multiply: n * inner * p, and rows * cols
    assert counted(mat_mul, field, a, b)[1] == field.counter.mul_count == 3 * 4 * 5
    field.counter.mul_count = 0
    assert counted(mat_apply, field, a, [1, 2, 3, 4])[1] == field.counter.mul_count == 3 * 4
