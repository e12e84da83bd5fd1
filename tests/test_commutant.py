from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commkex.errors import (
    DegenerateRingElement,
    DimensionMismatch,
    InvalidDimension,
    NotBlockToeplitz,
)
from commkex.gf import Field, Rng
from commkex import kron
from commkex.commutant import (
    BlockGrid,
    FlatRecipe,
    GeneratorBlock,
    Orbit,
    PowerTable,
    RingMatrix,
    ShiftPoly,
    apply_key_poly,
    apply_key_product,
    check_commute,
    embed_block_diag,
    eval_key_poly,
    eval_recipe,
    random_block_grid,
    random_shift_poly,
    sample_ring_element,
)
from commkex.linalg import Matrix, mat_add, mat_apply, mat_mul

from conftest import CODEC_PRIMES, GRID_DEGREES, GRID_PRIMES, GRID_SHAPES
from oracles import (
    block_matrix,
    generator_rows,
    key_poly_apply_mod,
    key_poly_mod,
    mat_mul_mod,
    mat_pow_mod,
    mat_vec_mod,
    poly_of_matrix_mod,
    recipe_mod,
)

F7 = Field(7)


def block_product(field, a, b):
    """a @ b over R through the packed block products, at a slot that
    holds d*k terms."""
    k, d, q = a.k, a.d, field.q
    slot = kron.slot_bytes(q, d * k)
    a_packed = [kron.pack(e, slot) for e in a.blocks]
    b_packed = [kron.pack(e, slot) for e in b.blocks]
    product = kron.reduce(kron.block_dots(a_packed, [b_packed[j::d] for j in range(d)], d), k, slot, q)
    return RingMatrix(k, d, [kron.slot_values((x,), k, slot, q) for x in product])


def block_matrix_of(field, blk):
    """A generator block's dense k x k matrix."""
    return embed_block_diag(field, ShiftPoly(tuple(blk.residues(field))), 1)


def test_generator_block_examples():
    assert block_matrix_of(F7, GeneratorBlock("scalar", 3, 2)) == Matrix.from_rows(
        [[3, 0], [0, 3]]
    )
    assert block_matrix_of(F7, GeneratorBlock("jordan", 2, 2)) == Matrix.from_rows(
        [[2, 1], [0, 2]]
    )
    assert block_matrix_of(F7, GeneratorBlock("jordan", 0, 3)) == Matrix.from_rows(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )
    # k = 1 collapses the jordan kind to a bare scalar
    assert block_matrix_of(F7, GeneratorBlock("jordan", 5, 1)) == Matrix.from_rows([[5]])
    with pytest.raises(InvalidDimension):
        GeneratorBlock("scalar", 1, 0)
    with pytest.raises(InvalidDimension):
        GeneratorBlock("hessenberg", 1, 2)


def test_generator_blocks_commute_pairwise():
    rng = Rng(404)
    for q in (2, 7, 101):
        field = Field(q)
        for k in (1, 2, 3, 4):
            blocks = [
                block_matrix_of(field, random_generator(field, k, rng)) for _ in range(8)
            ]
            for a in blocks:
                for b in blocks:
                    assert check_commute(field, a, b)


def random_generator(field, k, rng):
    return random_block_grid(field, k, 1, rng).blocks[0][0]


def flat_recipe(terms):
    """The FlatRecipe of terms [(coeff, [(grid, exp), ...]), ...], each
    grid a d x d list of rows of (kind, value) pairs."""
    factors = [f for _, fs in terms for f in fs]
    blocks = [b for grid, _ in factors for row in grid for b in row]
    return FlatRecipe(
        tuple(c for c, _ in terms),
        tuple(len(fs) for _, fs in terms),
        tuple(e for _, e in factors),
        tuple(kind for kind, _ in blocks),
        tuple(value for _, value in blocks),
    )


def recipe_terms(flat, d):
    """Inverse of ``flat_recipe``."""
    blocks = iter(zip(flat.kinds, flat.values))
    factors = iter([([list(islice(blocks, d)) for _ in range(d)], e) for e in flat.exps])
    return [(c, list(islice(factors, n))) for c, n in zip(flat.coeffs, flat.counts)]


def grid_pairs(grid):
    """A BlockGrid as rows of (kind, value) pairs."""
    return [[(b.kind, b.value) for b in row] for row in grid.blocks]


def dense_terms(terms, k, q):
    """terms with each grid as its dense rows, for ``recipe_mod``."""
    return [
        (
            c,
            [
                (block_matrix([[generator_rows(kd, v, k, q) for kd, v in row] for row in grid], q), e)
                for grid, e in fs
            ],
        )
        for c, fs in terms
    ]


def test_embed_block_diag_examples():
    assert embed_block_diag(F7, ShiftPoly((1, 0)), 2) == Matrix.identity(4)
    expected = block_matrix(
        [
            [[[2, 1], [0, 2]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[2, 1], [0, 2]]],
        ],
        7,
    )
    assert embed_block_diag(F7, ShiftPoly((2, 1)), 2) == Matrix.from_rows(expected)
    assert embed_block_diag(F7, ShiftPoly((0, 0, 0)), 2) == Matrix.zero(6, 6)


def test_shift_poly_realization_is_toeplitz():
    p = ShiftPoly((4, 5, 6))
    assert embed_block_diag(F7, p, 1) == Matrix.from_rows([[4, 5, 6], [0, 4, 5], [0, 0, 4]])


def test_shift_poly_closure_matches_matrix_product():
    rng = Rng(99)
    for q in (2, 7, 1009):
        field = Field(q)
        for k in (1, 2, 3, 5):
            for _ in range(25):
                a = random_shift_poly(field, k, rng)
                b = random_shift_poly(field, k, rng)
                ra, rb = RingMatrix.embed(field, a, 1), RingMatrix.embed(field, b, 1)
                via_poly = block_product(field, ra, rb).to_matrix()
                da, db = ra.to_matrix(), rb.to_matrix()
                assert via_poly == mat_mul(field, da, db)
                assert RingMatrix.embed(field, a.add(b, field), 1).to_matrix() == mat_add(
                    field, da, db
                )


def test_block_grid_examples():
    zero_grid = BlockGrid(
        tuple(tuple(GeneratorBlock("scalar", 0, 1) for _ in range(2)) for _ in range(2))
    )
    assert zero_grid.realize(F7) == Matrix.zero(2, 2)

    grid = BlockGrid(
        (
            (GeneratorBlock("scalar", 1, 1), GeneratorBlock("scalar", 1, 1)),
            (GeneratorBlock("scalar", 0, 1), GeneratorBlock("scalar", 1, 1)),
        )
    )
    assert grid.realize(F7) == Matrix.from_rows([[1, 1], [0, 1]])


def test_block_grid_mixed_matches_blockwise_oracle():
    blocks = (
        (GeneratorBlock("scalar", 3, 2), GeneratorBlock("jordan", 1, 2)),
        (GeneratorBlock("jordan", 0, 2), GeneratorBlock("scalar", 5, 2)),
    )
    grid = BlockGrid(blocks)
    oracle = block_matrix(
        [[block_matrix_of(F7, blk).to_rows() for blk in row] for row in blocks], 7
    )
    assert grid.realize(F7) == Matrix.from_rows(oracle)


def test_block_grid_validation():
    with pytest.raises(DimensionMismatch):
        BlockGrid(
            (
                (GeneratorBlock("scalar", 1, 1), GeneratorBlock("scalar", 1, 2)),
                (GeneratorBlock("scalar", 1, 1), GeneratorBlock("scalar", 1, 1)),
            )
        )
    with pytest.raises(DimensionMismatch):
        BlockGrid(((GeneratorBlock("scalar", 1, 1),),) * 2)


def test_diag_and_grid_families_commute():
    # 1000+ random pairs across shapes and primes
    rng = Rng(2718)
    checked = 0
    while checked < 1000:
        for q in (7, 101, 2147483647):
            for k, d in GRID_SHAPES:
                field = Field(q)
                a = embed_block_diag(field, random_shift_poly(field, k, rng), d)
                b = random_block_grid(field, k, d, rng).realize(field)
                assert check_commute(field, a, b)
                checked += 1


def test_grids_do_not_commute_in_general():
    # explicit witness for every k: one off-diagonal unit block on each
    # side of the diagonal
    for q in (2, 7, 101):
        field = Field(q)
        for k in (1, 2, 3):
            for d in (2, 3):
                upper = [
                    [GeneratorBlock("scalar", 0, k) for _ in range(d)] for _ in range(d)
                ]
                lower = [row[:] for row in upper]
                upper[0][1] = GeneratorBlock("scalar", 1, k)
                lower[1][0] = GeneratorBlock("scalar", 1, k)
                ga = BlockGrid(tuple(tuple(r) for r in upper)).realize(field)
                gb = BlockGrid(tuple(tuple(r) for r in lower)).realize(field)
                assert not check_commute(field, ga, gb)


def test_check_commute_examples():
    ident = Matrix.identity(2)
    anything = Matrix.from_rows([[1, 2], [3, 4]])
    assert check_commute(F7, ident, anything)
    a = Matrix.from_rows([[0, 1], [0, 0]])
    b = Matrix.from_rows([[0, 0], [1, 0]])
    ab = mat_mul_mod(a.to_rows(), b.to_rows(), 7)
    ba = mat_mul_mod(b.to_rows(), a.to_rows(), 7)
    assert ab != ba
    assert not check_commute(F7, a, b)
    with pytest.raises(DimensionMismatch):
        check_commute(F7, ident, Matrix.identity(3))


def test_sample_single_mono_term_is_the_grid():
    field = Field(101)
    rng = Rng(12)
    grid = random_block_grid(field, 2, 2, rng)
    recipe = flat_recipe([(1, [(grid_pairs(grid), 1)])])
    assert eval_recipe(field, 2, 2, recipe).to_matrix() == grid.realize(field)
    with pytest.raises(DimensionMismatch):
        eval_recipe(field, 2, 3, recipe)
    with pytest.raises(DimensionMismatch):
        eval_recipe(field, 2, 2, recipe._replace(counts=(2,)))


def test_sampled_base_commutes_with_diag_family():
    rng = Rng(55)
    for q in (7, 2147483647):
        field = Field(q)
        for k, d in ((1, 2), (2, 2), (2, 3)):
            for _ in range(20):
                base = sample_ring_element(field, k, d, rng)
                a = embed_block_diag(field, random_shift_poly(field, k, rng), d)
                assert check_commute(field, base.matrix, a)


def test_sample_determinism():
    field = Field(101)
    s1 = sample_ring_element(field, 2, 2, Rng(7777))
    s2 = sample_ring_element(field, 2, 2, Rng(7777))
    assert s1.matrix == s2.matrix
    assert s1.flat == s2.flat


def _is_coefficient_embedding(field, mat, k, d):
    """Dense check: mat is diag(P, ..., P) for the upper-triangular
    Toeplitz P whose first row is mat's first k entries."""
    first = ShiftPoly(tuple(mat.entries[:k]))
    return mat.rows == k * d and mat == embed_block_diag(field, first, d)


def test_sample_rejects_coefficient_embeddings():
    rng = Rng(31)
    field = Field(7)
    for _ in range(50):
        s = sample_ring_element(field, 1, 2, rng)
        assert not _is_coefficient_embedding(field, s.matrix, 1, 2)


def test_sample_respects_base_vector_rejection():
    field = Field(7)
    rng = Rng(900)
    vec = [1, 2]
    for _ in range(30):
        s = sample_ring_element(field, 1, 2, rng, base_vector=vec)
        from commkex.linalg import mat_apply

        image = mat_apply(field, s.matrix, vec)
        # never parallel: image is not c*vec for any c
        assert all(image != [c * v % 7 for v in vec] for c in range(7))


def test_sample_raises_after_max_attempts(monkeypatch):
    # GF(2), k=1, d=2 with a rigged rng that always produces the identity
    # grid: every draw degenerates, so the sampler must give up.
    field = Field(2)

    class RiggedRng:
        def below(self, n):
            return 0

        def below_many(self, bounds, count):
            bounds = bounds if isinstance(bounds, tuple) else (bounds,)
            return [self.below(bounds[i % len(bounds)]) for i in range(count)]

        def next_u64(self):
            return 0

    with pytest.raises(DegenerateRingElement):
        sample_ring_element(field, 1, 2, RiggedRng())


def test_is_coefficient_embedding():
    for mat, expected in (
        (Matrix.identity(4), True),
        (embed_block_diag(F7, ShiftPoly((3, 4)), 2), True),
        (Matrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]), False),
    ):
        assert _is_coefficient_embedding(F7, mat, 2, 2) is expected
        assert RingMatrix.from_matrix(mat, 2, 2).is_embedding() is expected


def test_eval_key_poly_examples(micro_params):
    field = Field(7)
    base = micro_params.ring_base.matrix
    assert eval_key_poly(field, [ShiftPoly((1,))], base, 2) == Matrix.identity(2)
    combo = eval_key_poly(field, [ShiftPoly((2,)), ShiftPoly((3,))], base, 2)
    oracle = poly_of_matrix_mod([2, 3], base.to_rows(), 7)
    assert combo == Matrix.from_rows(oracle) == Matrix.from_rows([[5, 3], [0, 5]])


def test_eval_key_poly_outputs_commute():
    rng = Rng(606)
    for q in (7, 2147483647):
        field = Field(q)
        for k, d in ((1, 2), (2, 2), (3, 3)):
            base = sample_ring_element(field, k, d, rng).matrix
            for _ in range(10):
                t1 = eval_key_poly(
                    field,
                    [random_shift_poly(field, k, rng) for _ in range(3)],
                    base,
                    d,
                )
                t2 = eval_key_poly(
                    field,
                    [random_shift_poly(field, k, rng) for _ in range(4)],
                    base,
                    d,
                )
                assert check_commute(field, t1, t2)
                assert check_commute(field, t1, base)


def test_eval_key_poly_validation():
    with pytest.raises(DimensionMismatch):
        eval_key_poly(F7, [], Matrix.identity(2), 2)
    with pytest.raises(DimensionMismatch):
        eval_key_poly(F7, [ShiftPoly((1, 0))], Matrix.identity(2), 2)


def test_diag_and_grid_rings_commute():
    # products and sums from both families still commute (ring level)
    rng = Rng(515)
    for q in (7, 101):
        field = Field(q)
        for k, d in ((1, 2), (2, 2), (2, 3)):
            for _ in range(30):
                p1 = random_shift_poly(field, k, rng)
                p2 = random_shift_poly(field, k, rng)
                a = mat_add(
                    field,
                    mat_mul(
                        field,
                        embed_block_diag(field, p1, d),
                        embed_block_diag(field, p2, d),
                    ),
                    embed_block_diag(field, p1, d),
                )
                z1 = sample_ring_element(field, k, d, rng).matrix
                z2 = sample_ring_element(field, k, d, rng).matrix
                product = mat_mul(field, z1, z2)
                assert check_commute(field, a, z1)
                assert check_commute(field, a, product)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
)
def test_shift_poly_product_commutes_hypothesis(k, c1, c2):
    field = Field(101)
    a = ShiftPoly(tuple((c1 * (k // len(c1) + 1))[:k]))
    b = ShiftPoly(tuple((c2 * (k // len(c2) + 1))[:k]))
    ra, rb = RingMatrix.embed(field, a, 1), RingMatrix.embed(field, b, 1)
    assert block_product(field, ra, rb).blocks == block_product(field, rb, ra).blocks


# The ring path against the numpy oracle: every grid shape (k = 1
# included) and one larger k = 4, d = 8 shape.
RING_CASES = [(q, k, d) for q in GRID_PRIMES for k, d in GRID_SHAPES] + [(2147483647, 4, 8)]


# Every residue q - 1: the largest sums a packed slot must hold, at the
# widest modulus and at q = 2.
EDGE_CASES = [(2305843009213693951, 32, 4), (2, 3, 2), (2, 32, 4)]


def top_ring_matrix(q, k, d):
    return RingMatrix(k, d, [[q - 1] * k for _ in range(d * d)])


def test_eval_key_poly_ring_matches_oracle():
    rng = Rng(8128)
    cases = [(q, k, d, False) for q, k, d in RING_CASES]
    cases += [(q, k, d, True) for q, k, d in EDGE_CASES]
    for q, k, d, top in cases:
        field = Field(q)
        if top:
            z = top_ring_matrix(q, k, d)
            base = z.to_matrix()
        else:
            base = sample_ring_element(field, k, d, rng).matrix
            z = RingMatrix.from_matrix(base, k, d)
            assert z.to_matrix() == base
        # one table serves every shorter polynomial, the constant included
        table = PowerTable(field, z, max(GRID_DEGREES) + 1)
        for degree in (*GRID_DEGREES, 0):
            if top:
                coeffs = [ShiftPoly((q - 1,) * k)] * (degree + 1)
            else:
                coeffs = [random_shift_poly(field, k, rng) for _ in range(degree + 1)]
            key = eval_key_poly(field, coeffs, table, d)
            assert isinstance(key, RingMatrix)
            oracle = key_poly_mod([c.coeffs for c in coeffs], base.to_rows(), d, q)
            assert key.to_matrix() == Matrix.from_rows(oracle)
            assert eval_key_poly(field, coeffs, base, d) == Matrix.from_rows(oracle)
            # the same key applied to a vector, from its packed orbit
            vec = [q - 1] * (k * d) if top else [field.sample(rng) for _ in range(k * d)]
            images = Orbit(table, vec).upto(degree)
            assert apply_key_poly(table, coeffs, images) == mat_vec_mod(oracle, vec, q)
        with pytest.raises(DimensionMismatch):
            eval_key_poly(field, [coeffs[0]] * (table.count + 1), table, d)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 101, 2147483647, 2305843009213693951]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
@example(q=7, k=1, d=2, count=4, above=3, top=False, seed=1)
@example(q=2305843009213693951, k=1, d=2, count=1, above=2, top=True, seed=0)
@example(q=3, k=1, d=2, count=2, above=0, top=True, seed=0)  # a full slot at capacity
def test_packed_orbit_and_key_application_match_dense(q, k, d, count, above, top, seed):
    # z acting on packed vectors, past the table's count too (an attack's
    # bound above D), and key polynomials of up to count coefficients
    # applied from the packed orbit, against dense powers of z
    field, rng = Field(q), Rng(seed)
    if top:
        z, vec = top_ring_matrix(q, k, d), [q - 1] * (k * d)
        coeffs = [ShiftPoly((q - 1,) * k)] * count
    else:
        z = RingMatrix(k, d, [[field.sample(rng) for _ in range(k)] for _ in range(d * d)])
        vec = [field.sample(rng) for _ in range(k * d)]
        coeffs = [random_shift_poly(field, k, rng) for _ in range(count)]
    rows = z.to_matrix().to_rows()
    table = PowerTable(field, z, count)
    orbit = Orbit(table, vec)
    powers = orbit.upto(count - 1 + above)
    assert len(powers) == count + above
    for i, packed in enumerate(powers):
        assert table.unpack(packed) == mat_vec_mod(mat_pow_mod(rows, i, q), vec, q)
    assert orbit.upto(0) == powers[:1]
    assert table.unpack(table.act(table.pack(vec))) == mat_vec_mod(rows, vec, q)
    oracle = key_poly_mod([c.coeffs for c in coeffs], rows, d, q)
    assert apply_key_poly(table, coeffs, powers[:count]) == mat_vec_mod(oracle, vec, q)
    # the slot holds sums of up to its capacity's coefficients, which is
    # at least the count; one coefficient more does not fit
    cap = table.capacity
    assert cap >= count
    short = key_poly_apply_mod([c.coeffs for c in coeffs], rows, vec, d, q)
    assert short == mat_vec_mod(oracle, vec, q)
    full = (coeffs * cap)[:cap]
    expect = key_poly_apply_mod([c.coeffs for c in full], rows, vec, d, q)
    assert apply_key_poly(table, full, orbit.upto(cap - 1)) == expect
    with pytest.raises(DimensionMismatch):
        apply_key_poly(table, full + coeffs[:1], orbit.upto(cap))
    with pytest.raises(DimensionMismatch):
        apply_key_poly(table, coeffs, powers[: count - 1])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 101, 2147483647, 2305843009213693951]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
@example(q=2305843009213693951, k=4, d=2, n=4, top=True, seed=0)
def test_key_product_application_matches_dense(q, k, d, n, top, seed):
    # (sum a_i z**i)(sum b_j z**j) vec and (sum a_i z**i) vec, both from
    # the same dot products over vec's packed orbit, for n coefficients
    # each and for the most the table's slot holds, against the two keys
    # applied densely one after the other
    field, rng = Field(q), Rng(seed)
    if top:
        z, vec = top_ring_matrix(q, k, d), [q - 1] * (k * d)
    else:
        z = RingMatrix(k, d, [[field.sample(rng) for _ in range(k)] for _ in range(d * d)])
        vec = [field.sample(rng) for _ in range(k * d)]
    rows = z.to_matrix().to_rows()
    table = PowerTable(field, z, 2 * n - 1)
    most = (table.capacity + 1) // 2
    orbit = Orbit(table, vec)
    for size in (n, most):
        a, b = ([q - 1 if top else field.sample(rng) for _ in range(size * k)] for _ in "ab")
        chunks = [[x[i : i + k] for i in range(0, size * k, k)] for x in (a, b)]
        inner = key_poly_apply_mod(chunks[1], rows, vec, d, q)
        expect = key_poly_apply_mod(chunks[0], rows, inner, d, q)
        first = key_poly_apply_mod(chunks[0], rows, vec, d, q)
        assert apply_key_product(table, a, b, orbit.upto(2 * size - 2)) == (expect, first)
    with pytest.raises(DimensionMismatch):
        apply_key_product(table, a + a[:k], b + b[:k], orbit.upto(2 * most))
    with pytest.raises(DimensionMismatch):
        apply_key_product(table, a, b[:-k], orbit.upto(2 * most - 2))
    with pytest.raises(DimensionMismatch):
        apply_key_product(table, a, b, orbit.upto(2 * most - 3))


def test_eval_recipe_starts_from_the_first_grid_power():
    # terms whose exponents are all 0 (the identity), that open with an
    # exponent 0, or that repeat a grid, each and summed, against dense
    # powers of the grids
    rng = Rng(8191)
    exponents = [(0,), (0, 0), (0, 2), (3, 0, 1), (1,), (2, 2, 0), (0, 0, 3)]
    for q, k, d in RING_CASES:
        field = Field(q)
        grids = [grid_pairs(random_block_grid(field, k, d, rng)) for _ in range(3)]
        grids[2] = grids[0]
        terms = [(field.sample(rng), list(zip(grids, exps))) for exps in exponents]
        for term in terms:
            oracle = Matrix.from_rows(recipe_mod(dense_terms([term], k, q), k * d, q))
            assert eval_recipe(field, k, d, flat_recipe([term])).to_matrix() == oracle
        oracle = Matrix.from_rows(recipe_mod(dense_terms(terms, k, q), k * d, q))
        assert eval_recipe(field, k, d, flat_recipe(terms)).to_matrix() == oracle


def test_eval_recipe_ring_matches_oracle():
    rng = Rng(496)
    for q, k, d in RING_CASES:
        field = Field(q)
        sample = sample_ring_element(field, k, d, rng)
        terms = recipe_terms(sample.flat, d)
        assert flat_recipe(terms) == sample.flat
        oracle = Matrix.from_rows(recipe_mod(dense_terms(terms, k, q), k * d, q))
        assert eval_recipe(field, k, d, sample.flat).to_matrix() == oracle == sample.matrix


@st.composite
def grid_recipes(draw):
    """(q, k, d, terms) for ``flat_recipe``: k = 1..16 and d = 2..8 with m
    at most 48, so that the dense oracle stays quick; grids that are
    mixed, all scalar, all Jordan or all zero, exponents from 0, and
    values and coefficients that include 0 and q - 1."""
    q = draw(st.sampled_from(CODEC_PRIMES))
    d = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(16, 48 // d)))
    residue = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(min_value=0, max_value=q - 1))

    def grid():
        style = draw(st.sampled_from(["mixed", "scalar", "jordan", "zero"]))
        kind = {"mixed": st.sampled_from(["scalar", "jordan"]), "zero": st.just("scalar")}.get(
            style, st.just(style)
        )
        value = st.just(0) if style == "zero" else residue
        return [[(draw(kind), draw(value)) for _ in range(d)] for _ in range(d)]

    exponent = st.integers(min_value=0, max_value=3)
    terms = [
        (draw(residue), [(grid(), draw(exponent)) for _ in range(draw(st.integers(1, 3)))])
        for _ in range(draw(st.integers(1, 3)))
    ]
    return q, k, d, terms


@settings(max_examples=150, deadline=None)
@given(grid_recipes())
def test_eval_recipe_matches_dense_oracle(case):
    q, k, d, terms = case
    oracle = Matrix.from_rows(recipe_mod(dense_terms(terms, k, q), k * d, q))
    assert eval_recipe(Field(q), k, d, flat_recipe(terms)).to_matrix() == oracle


def test_ring_matrix_product_matches_dense():
    rng = Rng(33550336)
    pairs = []
    for q, k, d in RING_CASES:
        field = Field(q)
        a = sample_ring_element(field, k, d, rng).matrix
        pairs.append((q, k, d, a, sample_ring_element(field, k, d, rng).matrix))
    for q, k, d in EDGE_CASES:
        top = top_ring_matrix(q, k, d).to_matrix()
        pairs.append((q, k, d, top, top))
    for q, k, d, a, b in pairs:
        field = Field(q)
        ra, rb = RingMatrix.from_matrix(a, k, d), RingMatrix.from_matrix(b, k, d)
        assert block_product(field, ra, rb).to_matrix() == Matrix.from_rows(
            mat_mul_mod(a.to_rows(), b.to_rows(), q)
        )
        # ring-vs-dense application to vectors, every entry q - 1 included
        table = PowerTable(field, ra, 1)
        for vec in ([q - 1] * (k * d), [field.sample(rng) for _ in range(k * d)]):
            assert table.unpack(table.act(table.pack(vec))) == mat_apply(field, a, vec)
    with pytest.raises(DimensionMismatch):
        table.pack([0] * (k * d + 1))


def test_ring_matrix_from_matrix_rejects_non_toeplitz_blocks():
    # k = 1: every matrix is in R
    assert RingMatrix.from_matrix(Matrix.from_rows([[1, 2], [3, 4]]), 1, 2).blocks == (
        (1,), (2,), (3,), (4,)
    )
    assert RingMatrix.from_matrix(Matrix.identity(6), 3, 2).is_scalar()
    below = Matrix.identity(4)
    below.entries[1 * 4 + 0] = 1  # under the diagonal of block (0, 0)
    off_diagonal = Matrix.identity(4)
    off_diagonal.entries[0 * 4 + 2] = 5  # block (0, 1) = 5 at (0, 0) only
    for bad in (below, off_diagonal):
        with pytest.raises(NotBlockToeplitz):
            RingMatrix.from_matrix(bad, 2, 2)
        assert not _is_coefficient_embedding(F7, bad, 2, 2)
    with pytest.raises(DimensionMismatch):
        RingMatrix.from_matrix(Matrix.identity(4), 2, 3)
