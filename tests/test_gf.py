import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commkex.errors import InvalidParams, ZeroInverse
from commkex.gf import RNG_BATCH, RNG_CACHE_SIZE, Field, OpCounter, Rng, _lanes, is_prime
from commkex.linalg import Matrix, mat_add

from conftest import TEST_PRIMES
from oracles import inv_by_search, pow_by_repeated_mul


def test_add_mul_neg_trivia():
    f = Field(7)
    assert f.mul(3, 5) == 1


def test_inverse_examples():
    f = Field(7)
    assert f.inv(1) == 1
    assert f.inv(3) == inv_by_search(3, 7) == 5
    with pytest.raises(ZeroInverse):
        f.inv(0)


def test_inverse_matches_search_exhaustively():
    for q in (2, 7, 13):
        f = Field(q)
        for a in range(1, q):
            assert f.inv(a) == inv_by_search(a, q)


def test_pow_examples():
    assert Field(7).pow(5, 0) == 1
    assert Field(7).pow(0, 0) == 1
    assert Field(7).pow(3, 6) == 1
    assert Field(1009).pow(2, 10) == pow_by_repeated_mul(2, 10, 1009) == 15


def test_pow_matches_repeated_multiplication():
    rng = Rng(2024)
    for q in TEST_PRIMES:
        f = Field(q)
        for _ in range(50):
            a = f.sample(rng)
            e = rng.below(200)
            assert f.pow(a, e) == pow_by_repeated_mul(a, e, q)


def test_fermat_little_theorem():
    for q in TEST_PRIMES:
        f = Field(q)
        for a in range(1, min(q, 200)):
            assert f.pow(a, q - 1) == 1
    big = Field(2147483647)
    rng = Rng(5)
    for _ in range(20):
        a = 1 + rng.below(big.q - 1)
        assert big.pow(a, big.q - 1) == 1


def test_pow_multiplication_count():
    # At most 2*floor(log2 e) + 1; exact count is the square-and-multiply
    # trace and reproducible.
    for e in [1, 2, 3, 10, 255, 256, 1023, 2**31 - 1]:
        counts = []
        for _ in range(2):
            ctr = OpCounter()
            Field(1009, ctr).pow(3, e)
            counts.append(ctr.mul_count)
        expected = (e.bit_length() - 1) + (bin(e).count("1") - 1)
        assert counts[0] == counts[1] == expected
        assert counts[0] <= 2 * math.floor(math.log2(e)) + 1


def test_field_laws_randomized():
    for q in TEST_PRIMES:
        f = Field(q)
        rng = Rng(q * 7919 + 1)
        for _ in range(10_000):
            a, b, c = f.sample(rng), f.sample(rng), f.sample(rng)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, (b + c) % q) == (f.mul(a, b) + f.mul(a, c)) % q
            if a:
                assert f.mul(a, f.inv(a)) == 1


@given(st.integers(min_value=0, max_value=1008), st.integers(min_value=0, max_value=1008))
def test_mul_commutes_hypothesis(a, b):
    f = Field(1009)
    assert f.mul(a, b) == f.mul(b, a)


def test_sample_range_and_determinism():
    f = Field(7)
    r1, r2 = Rng(123), Rng(123)
    seq1 = [f.sample(r1) for _ in range(100)]
    seq2 = [f.sample(r2) for _ in range(100)]
    assert seq1 == seq2
    assert all(0 <= x < 7 for x in seq1)


def test_sample_frequencies_within_five_sigma():
    f = Field(7)
    rng = Rng(20240601)
    n = 10_000
    counts = [0] * 7
    for _ in range(n):
        counts[f.sample(rng)] += 1
    p = 1 / 7
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) <= 5 * sigma


def test_counter_counts_muls_and_adds():
    ctr = OpCounter()
    f = Field(7, ctr)
    f.mul(3, 5)
    f.mul(2, 2)
    mat_add(f, Matrix(1, 2, [1, 1]), Matrix(1, 2, [1, 6]))
    assert ctr.mul_count == 2
    assert ctr.add_count == 2
    # inversion is extended Euclid: no counted multiplications
    f.inv(3)
    assert ctr.mul_count == 2


def test_counterless_field_counts_nothing():
    f = Field(7)
    assert f.counter is None
    f.mul(3, 5)  # must not crash


def test_modulus_validation():
    with pytest.raises(InvalidParams):
        Field(6)
    with pytest.raises(InvalidParams):
        Field(1)
    with pytest.raises(InvalidParams):
        Field(2**61 + 9)  # prime but out of range
    Field(2)
    Field(2305843009213693951)  # 2**61 - 1, largest allowed prime


def test_is_prime_cache_keeps_rejecting():
    is_prime.cache_clear()
    for _ in range(3):
        Field(2147483647)
        with pytest.raises(InvalidParams):
            Field(2147483649)  # 3 * 715827883: composite, cached as such
        with pytest.raises(InvalidParams):
            Field(2**61 + 9)  # prime but out of range, rejected before the test
    info = is_prime.cache_info()
    assert info.misses == 2 and info.hits == 4
    assert info.maxsize is not None  # bounded


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % i for i in range(2, int(n**0.5) + 1))

    for n in range(0, 2000):
        assert is_prime(n) == trial(n)
    assert is_prime(2147483647)
    assert not is_prime(2147483647 * 3)


def test_rng_matches_reference_splitmix64():
    # First outputs of splitmix64 seeded with 0 and 42; computed from the
    # published constants with an independent step-by-step trace.
    def reference(seed, count):
        mask = (1 << 64) - 1
        out = []
        s = seed
        for _ in range(count):
            s = (s + 0x9E3779B97F4A7C15) & mask
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 42, 2**64 - 1):
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(8)] == reference(seed, 8)


def test_rng_below_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Rng(1).below(0)
    # 2**64 accepts every 64-bit word; above it none would be accepted,
    # so the draw is refused before it starts
    assert Rng(1).below(2**64) == Rng(1).next_u64()
    for n in (2**64 + 1, 2**512):
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            Rng(1).below(n)


# Bounds from 1 to 2**64 whose share of rejected words runs from none
# (powers of two) through about 1/16 (2**60 + 1) to about a half
# (2**63 + 1), so that batches with and without a rejection are drawn.
BULK_BOUNDS = (1, 2, 3, 2**31 - 1, 2**60 + 1, 2**61 - 1, 2**63 + 1, 2**64)
# Bounds taken in turn, as a grid's blocks are drawn (kind, then value):
# at 2**60 + 33 about 1/16 of the words are rejected, and at 2**63 + 1
# about half, so batches fall back to scalar draws in either phase.
TUPLE_BOUNDS = tuple((2, q) for q in (2, 3, 101, 2**31 - 1, 2**60 + 33, 2**61 - 1)) + (
    (2**63 + 1, 3),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(BULK_BOUNDS + TUPLE_BOUNDS),
    st.one_of(st.integers(min_value=0, max_value=600), st.sampled_from([255, 256, 257, 511, 513])),
    st.one_of(st.integers(0, 2**16), st.integers(2**64 - 2**16, 2**64 - 1)),
)
def test_below_many_is_the_scalar_stream(bounds, count, seed):
    # the same draws in the same order, and the same state after them,
    # from seeds at both ends of the state range; word i is drawn below
    # bounds[i % len(bounds)], and an int is the 1-tuple
    cycle = bounds if isinstance(bounds, tuple) else (bounds,)
    bulk, scalar = Rng(seed), Rng(seed)
    assert bulk.below_many(bounds, count) == [
        scalar.below(cycle[i % len(cycle)]) for i in range(count)
    ]
    assert bulk.state == scalar.state


def test_below_many_across_batches_and_bad_bounds():
    # a draw longer than a batch, with and without rejected words
    for n in (2**31 - 1, 2**63 + 1):
        bulk, scalar = Rng(5), Rng(5)
        count = 2 * RNG_BATCH + 3
        assert bulk.below_many(n, count) == [scalar.below(n) for _ in range(count)]
        assert bulk.state == scalar.state
    # a bad bound, alone or anywhere in a tuple, raises what below
    # raises, even for no draws
    for n in (0, -1, 2**64 + 1, 2**512):
        with pytest.raises(ValueError) as scalar_error:
            Rng(1).below(n)
        for bounds in (n, (n,), (n, 3), (2, n), (2, 3, n)):
            for count in (0, 3):
                with pytest.raises(ValueError) as bulk_error:
                    Rng(1).below_many(bounds, count)
                assert str(bulk_error.value) == str(scalar_error.value)
    with pytest.raises(ValueError, match="^bounds must not be empty$"):
        Rng(1).below_many((), 3)
    with pytest.raises(ValueError, match="^count must be non-negative$"):
        Rng(1).below_many(7, -1)


def test_below_many_lane_cache_stays_bounded():
    # lane constants are kept for at most RNG_CACHE_SIZE batch sizes,
    # however many sizes are drawn, and a long draw reuses the constants
    # of a full batch instead of keeping its own
    for count in range(1, 2 * RNG_CACHE_SIZE):
        Rng(count).below_many(7, count)
    assert _lanes.cache_info().currsize == RNG_CACHE_SIZE
    Rng(1).below_many(7, RNG_BATCH)
    misses = _lanes.cache_info().misses
    Rng(1).below_many(7, 40 * RNG_BATCH)
    assert _lanes.cache_info().misses == misses
