import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commkex.commutant import PowerTable, RingMatrix, ShiftPoly, eval_key_poly
from commkex.errors import DimensionMismatch, InvalidDimension
from commkex.gf import Field, OpCounter, Rng
from commkex import kron
from commkex.linalg import (
    Matrix,
    eliminate_ring,
    mat_add,
    mat_apply,
    mat_mul,
    rank,
)

from conftest import CODEC_PRIMES
from oracles import (
    dot_products,
    mat_mul_mod,
    mat_vec_mod,
    rank_by_minors,
    shifted_columns,
    textbook_solve,
)

F7 = Field(7)


def rand_matrix(field, rows, cols, rng):
    return Matrix(rows, cols, [field.sample(rng) for _ in range(rows * cols)])


def test_matrix_construction_checks():
    with pytest.raises(InvalidDimension):
        Matrix(0, 1, [])
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])


def test_mat_mul_examples():
    ident = Matrix.identity(3)
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [0, 1, 2]])
    assert mat_mul(F7, ident, m) == m

    a = Matrix.from_rows([[3, 0], [0, 3]])
    b = Matrix.from_rows([[2, 1], [0, 2]])
    expect = Matrix.from_rows(mat_mul_mod(a.to_rows(), b.to_rows(), 7))
    assert mat_mul(F7, a, b) == expect == Matrix.from_rows([[6, 3], [0, 6]])
    assert mat_mul(F7, b, a) == expect

    shift = Matrix.from_rows([[0, 1], [0, 0]])
    assert mat_mul(F7, shift, shift) == Matrix.zero(2, 2)

    with pytest.raises(DimensionMismatch):
        mat_mul(F7, Matrix.zero(2, 3), Matrix.zero(2, 3))


def test_mat_apply_examples():
    ident = Matrix.identity(2)
    assert mat_apply(F7, ident, [1, 2]) == [1, 2]
    t = Matrix.from_rows([[1, 1], [0, 1]])
    assert mat_apply(F7, t, [1, 2]) == mat_vec_mod(t.to_rows(), [1, 2], 7) == [3, 2]
    assert mat_apply(F7, Matrix.zero(2, 2), [3, 4]) == [0, 0]
    with pytest.raises(DimensionMismatch):
        mat_apply(F7, t, [1, 2, 3])


def test_rank_examples():
    assert rank(F7, Matrix.identity(4)) == 4
    assert rank(F7, Matrix.zero(3, 3)) == 0
    a = Matrix.from_rows([[1, 1], [2, 2]])
    assert rank(F7, a) == rank_by_minors(a.to_rows(), 7) == 1


def test_mat_mul_associativity_random():
    rng = Rng(31337)
    for q in (2, 7, 101):
        field = Field(q)
        for _ in range(60):
            a = rand_matrix(field, 3, 4, rng)
            b = rand_matrix(field, 4, 2, rng)
            c = rand_matrix(field, 2, 5, rng)
            assert mat_mul(field, mat_mul(field, a, b), c) == mat_mul(
                field, a, mat_mul(field, b, c)
            )


def test_mat_apply_matches_mat_mul_column():
    rng = Rng(8)
    field = Field(13)
    for _ in range(40):
        t = rand_matrix(field, 3, 3, rng)
        v = [field.sample(rng) for _ in range(3)]
        as_col = Matrix.from_columns([v])
        assert mat_apply(field, t, v) == mat_mul(field, t, as_col).col(0)


def test_operation_counting():
    ctr = OpCounter()
    field = Field(7, ctr)
    a = Matrix.identity(3)
    b = Matrix.zero(3, 3)
    mat_mul(field, a, b)
    assert ctr.mul_count == 27  # 3*3*3 regardless of zeros
    assert ctr.add_count == 3 * 2 * 3
    ctr2 = OpCounter()
    mat_apply(Field(7, ctr2), Matrix.identity(4), [1, 2, 3, 4])
    assert ctr2.mul_count == 16
    assert ctr2.add_count == 12


def test_mat_helpers():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert mat_add(F7, a, a) == Matrix.from_rows([[2, 4], [6, 1]])


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4))
def test_from_columns_transposes(entries):
    m = Matrix(2, 2, entries)
    again = Matrix.from_columns([m.col(0), m.col(1)])
    assert again == m


# The eliminator at k = 1 (GF(q) itself) against the textbook loop in
# oracles.py: the pivots, every right-hand side's solution and the
# nullspace read off the record.
RREF_PRIMES = [2, 101, 2147483647, 2305843009213693951]


def rref_cases(q, rng):
    """(rows, pivot_cols) systems over GF(q): random, sparse, rank
    deficient, inconsistent, every entry q - 1, and several right-hand
    sides."""
    field = Field(q)

    def rand_rows(nrows, ncols, density=1.0):
        return [
            [field.sample(rng) if rng.below(100) < 100 * density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]

    cases = []
    for _ in range(25):
        nrows, ncols = 1 + rng.below(8), 1 + rng.below(8)
        cases.append((rand_rows(nrows, ncols), ncols))
        cases.append((rand_rows(nrows, ncols, 0.3), rng.below(ncols + 1)))
        # rank <= 2 coefficients: later rows are combinations of two
        basis = rand_rows(2, ncols)
        deficient = [
            [(a * x + b * y) % q for x, y in zip(*basis)]
            for a, b in (rand_rows(1, 2)[0] for _ in range(nrows + 2))
        ]
        cases.append((deficient, ncols))
        # three random right-hand sides, almost surely outside the span
        rhs = rand_rows(len(deficient), 3)
        cases.append(([row + extra for row, extra in zip(deficient, rhs)], ncols))
        cases.append(([[q - 1] * (ncols + 2) for _ in range(nrows)], ncols))
    return cases


def assert_record_matches_textbook(field, rows, pivot_cols):
    """The k = 1 record of the first ``pivot_cols`` columns of ``rows``
    against ``textbook_solve`` with the remaining columns as right-hand
    sides: pivots (e_i = 1), solutions, and the nullspace vector of each
    free column f, e_f minus the solution for column f."""
    q = field.q
    columns = [[row[j] for row in rows] for j in range(len(rows[0]))]
    pivots, sols, nullspace = textbook_solve(
        field, [row[:pivot_cols] for row in rows], columns[pivot_cols:]
    )
    elim = eliminate_ring(field, 1, columns[:pivot_cols])
    assert [j for j, e in enumerate(elim.exps) if e] == pivots
    assert elim.rank == len(pivots)
    assert [elim.solve(b) for b in columns[pivot_cols:]] == sols
    free = []
    for f, e in enumerate(elim.exps):
        if not e:
            vec = [-x % q for x in elim.solve(columns[f])]
            vec[f] = 1
            free.append(vec)
    assert free == nullspace
    return elim


def test_rref_matches_textbook():
    rng = Rng(2718)
    for q in RREF_PRIMES:
        field = Field(q)
        for rows, pivot_cols in rref_cases(q, rng):
            if pivot_cols:
                assert_record_matches_textbook(field, rows, pivot_cols)
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 1, [])
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 1, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 1, [[1, 2]]).solve([1, 2, 3])


def test_rref_slot_holds_many_pivots():
    # 69 pivots at q = 2**61 - 1: a slot then needs 2*61 + 7 bits, which
    # no longer fit the 16 bytes of 2*61.  Row "ones" meets every later
    # pivot row e_i with a right-hand side of q - 1, so its augmented
    # slots gain (q - 1)**2 per pivot before any read reduces them.
    q = RREF_PRIMES[-1]
    field = Field(q)
    n = 70
    unit_rows = [[int(j == i) for j in range(n)] + [q - 1, q - 2] for i in range(1, n)]
    ones = [1] * n + [q - 1, q - 1]
    for rows in ([ones] + unit_rows, unit_rows + [ones]):
        assert_record_matches_textbook(field, rows, n)
    rng = Rng(1618)
    dense = [[field.sample(rng) for _ in range(n + 1)] for _ in range(n)]
    assert assert_record_matches_textbook(field, dense, n).rank >= 64


def test_solvers_match_textbook_eliminator():
    # rank and the k = 1 record's pivots against the textbook loop's
    # reduced form; its solutions are checked by test_rref_matches_textbook
    rng = Rng(1414)
    for q in RREF_PRIMES:
        field = Field(q)
        runs = [
            Matrix.from_rows([row[:pivot_cols] for row in rows])
            for rows, pivot_cols in rref_cases(q, rng)[:60]
            if 0 < pivot_cols < len(rows[0])
        ]
        n = 6
        runs.append(Matrix(n, n, [field.sample(rng) for _ in range(n * n)]))
        runs.append(Matrix.identity(n))
        for a in runs:
            pivots, _, _ = textbook_solve(field, a.to_rows(), [])
            assert rank(field, a) == len(pivots)
            record = eliminate_ring(field, 1, [a.col(j) for j in range(a.cols)])
            assert [j for j, e in enumerate(record.exps) if e] == pivots


def ring_cases(q, rng):
    """(k, columns) systems over R = GF(q)[x]/(x**k): random, sparse (so
    that at small q many pivots are not units), with repeated and
    x-multiple columns, more columns than rows, and all q - 1."""
    cases = []
    shapes = ((1, 3, 2), (2, 2, 4), (3, 2, 3), (4, 3, 2), (2, 5, 4), (6, 2, 4), (5, 1, 6))
    for k, rows, cols in shapes:
        for percent in (100, 50, 20):
            columns = [
                [rng.below(q) if rng.below(100) < percent else 0 for _ in range(rows * k)]
                for _ in range(cols)
            ]
            cases.append((k, columns))
        # column 1 repeats column 0 times x (shifted up within each chunk)
        base = [rng.below(q) for _ in range(rows * k)]
        times_x = [x for s in range(0, rows * k, k) for x in base[s + 1 : s + k] + [0]]
        cases.append((k, [base, times_x, list(base)] + [[rng.below(q) for _ in range(rows * k)]]))
        cases.append((k, [[q - 1] * (rows * k) for _ in range(cols)]))
    return cases


def test_ring_elimination_matches_textbook():
    # the solution over R, read over GF(q), against the textbook loop on
    # the m x cols*k system: rank, pivots (exactly j < e_i in column i)
    # and the reduced-echelon solution, for right-hand sides in the span
    # and random ones (mostly inconsistent)
    rng = Rng(1729)
    nonunit = 0
    for q in (2, 3, *RREF_PRIMES[1:]):
        field = Field(q)
        for k, columns in ring_cases(q, rng):
            elim = eliminate_ring(field, k, columns)
            a_rows = [list(r) for r in zip(*shifted_columns(columns, k))]
            n = len(a_rows[0])
            spanned = [rng.below(q) for _ in range(n)]
            rhs = [
                [sum(x * y for x, y in zip(row, spanned)) % q for row in a_rows],
                [rng.below(q) for _ in a_rows],
                [0] * len(a_rows),
            ]
            pivots, sols, _ = textbook_solve(field, a_rows, rhs)
            assert pivots == [i * k + j for i, e in enumerate(elim.exps) for j in range(e)]
            assert elim.rank == len(pivots)
            assert [elim.solve(b) for b in rhs] == sols
            assert sols[0] is not None
            nonunit += sum(0 < e < k for e in elim.exps)
    assert nonunit > 20
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 2, [[1, 2, 3, 4], [1, 2]])
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 2, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        eliminate_ring(F7, 2, [[1, 2, 3, 4]]).solve([1, 2])


def test_ring_elimination_slot_holds_many_pivots():
    q = RREF_PRIMES[-1]
    field = Field(q)
    k, units = 8, 12
    zero = [0] * k
    one = zero[:-1] + [1]  # chunk entry r is the coefficient of x**(k-1-r)
    n = (units + 1) * k
    # Rows 0..11 hold the unit 1 in one column each and the last row
    # holds 1 + x + ... + x**7 everywhere, so each of the 12 pivots adds
    # (q - 1) * (q - 1 + x*(q - 1) + ...) to the last row before any read
    # reduces it: 8 * 12 products in its top slot.
    last_row = [
        [x for r in range(units) for x in (one if r == i else zero)] + [1] * k
        for i in range(units)
    ]
    # A replay leaves w*s unreduced in the pivot row, so the worst slot is
    # an early pivot row's.  Row 0 pivots column 0 on (q - 1) + x, whose
    # inverse w is (q - 1)(1 + x + ... + x**7), so a right-hand side of
    # q - 1 everywhere leaves 8 products (q - 1)**2 in its top slot; every
    # later column holds q - 1 in row 0, which w turns into 1 + x + ... +
    # x**7, and the unit 1 in its own row, so each of the 12 later pivots
    # adds (q - 1)(1 + ... + x**7) times itself to row 0: 8 * 13 products
    # in its top slot before any read reduces it.
    first_row = [[0] * (k - 2) + [1, q - 1] + zero * units] + [
        zero[:-1] + [q - 1] + [x for r in range(units) for x in (one if r == i else zero)]
        for i in range(units)
    ]
    rng = Rng(4)
    cases = ((last_row, [q - 1] * (n - k) + zero), (first_row, [q - 1] * k + [0] * (n - k)))
    for columns, partial in cases:
        rhs = [[q - 1] * n, partial, [rng.below(q) for _ in range(n)]]
        elim = eliminate_ring(field, k, columns)
        a_rows = [list(r) for r in zip(*shifted_columns(columns, k))]
        pivots, sols, _ = textbook_solve(field, a_rows, rhs)
        assert elim.rank == len(pivots) == len(columns) * k
        assert [elim.solve(b) for b in rhs] == sols


# The slot codec against a per-slot oracle: every slot read through
# bytes and reduced by %.  Slot contents include 0, q - 1, q and a full
# slot, 2**(8*slot) - 1, the largest value a Barrett step must reduce.


def oracle_slots(x, k, slot, order="little"):
    """The low k slots of x, slot by slot, in ``order`` byte order."""
    raw = (x & ((1 << (8 * k * slot)) - 1)).to_bytes(k * slot, order)
    return [int.from_bytes(raw[o : o + slot], order) for o in range(0, k * slot, slot)]


def oracle_pack(cells, slot, order="little"):
    return int.from_bytes(b"".join(c.to_bytes(slot, order) for c in cells), order)


@st.composite
def packed_values(draw):
    """(q, k, slot, values): a few integers of k slots each, at a slot
    width that kron.slot_bytes gives for 1..2**10 terms, and some spill
    above the k slots that every reader drops."""
    q = draw(st.sampled_from(CODEC_PRIMES))
    slot = kron.slot_bytes(q, draw(st.integers(min_value=1, max_value=2**10)))
    k = draw(st.integers(min_value=1, max_value=16))
    full = (1 << (8 * slot)) - 1
    cell = st.one_of(st.sampled_from([0, q - 1, q, full]), st.integers(min_value=0, max_value=full))
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        cells = draw(st.lists(cell, min_size=k, max_size=k))
        spill = draw(st.integers(min_value=0, max_value=full))
        values.append(oracle_pack(cells, slot) + (spill << (8 * k * slot)))
    return q, k, slot, values


@settings(max_examples=300, deadline=None)
@given(packed_values())
def test_slot_codec_matches_per_slot_oracle(case):
    q, k, slot, values = case
    expect = [[c % q for c in oracle_slots(x, k, slot)] for x in values]
    assert [kron.slot_values((x,), k, slot, q) for x in values] == expect
    assert kron.reduce(values, k, slot, q) == [oracle_pack(e, slot) for e in expect]
    assert [kron.pack(e, slot) for e in expect] == [oracle_pack(e, slot) for e in expect]
    # all slots of all values at once: the low k of each, side by side
    low = [oracle_slots(x, k, slot) for x in values]
    joined = oracle_pack([c for cells in low for c in cells], slot)
    n = len(values) * k
    assert kron.slot_mod(n, slot, q)(joined) == oracle_pack([c for e in expect for c in e], slot)


@st.composite
def dot_cases(draw):
    """(rows, cols): 1 to 4 rows of n integers below 2**200, n from 1 to
    8, and zero, one or several columns of n."""
    n = draw(st.integers(min_value=1, max_value=8))
    big = st.one_of(st.sampled_from([0, 1, 2**200]), st.integers(min_value=0, max_value=2**200))
    line = st.lists(big, min_size=n, max_size=n)
    return draw(st.lists(line, min_size=1, max_size=4)), draw(st.lists(line, max_size=5))


@settings(max_examples=300, deadline=None)
@given(dot_cases(), st.booleans())
def test_dot_kernel_matches_plain_dots(case, one_shot):
    rows, cols = case
    given_cols = (lambda: iter(cols)) if one_shot else (lambda: cols)
    for row in rows:
        assert kron.dots(row, given_cols()) == dot_products([row], cols)
    blocks = [x for row in rows for x in row]
    assert kron.block_dots(blocks, given_cols(), len(rows[0])) == dot_products(rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CODEC_PRIMES),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2**10),
    st.data(),
)
def test_power_table_codec_matches_per_slot_oracle(q, k, d, count, data):
    # big-endian vectors: each chunk of k entries is one integer whose
    # highest slot holds the chunk's first entry
    table = PowerTable(Field(q), RingMatrix(k, d, [[0] * k for _ in range(d * d)]), count)
    slot = table.slot
    full = (1 << (8 * slot)) - 1
    residue = st.one_of(st.sampled_from([0, q - 1]), st.integers(min_value=0, max_value=q - 1))
    vec = data.draw(st.lists(residue, min_size=k * d, max_size=k * d))
    chunks = [oracle_pack(vec[i : i + k], slot, "big") for i in range(0, k * d, k)]
    assert table.pack(vec) == chunks
    assert table.unpack(chunks) == vec
    cell = st.one_of(st.sampled_from([0, q - 1, q, full]), st.integers(min_value=0, max_value=full))
    chunk = st.lists(cell, min_size=k + 1, max_size=k + 1)
    raw = data.draw(st.lists(chunk, min_size=d, max_size=d))
    # the first cell of each chunk is spill above its k slots
    chunks = [oracle_pack(cells, slot, "big") for cells in raw]
    assert table.unpack(chunks) == [c % q for cells in raw for c in cells[1:]]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CODEC_PRIMES),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_eliminator_layout_matches_chunk_pair(q, k, d, data):
    # one orientation: element r of an eliminator column holds in its low
    # k slots what chunk r of the vector pair holds, and the pair's reader
    # returns the vector
    slot = kron.slot_bytes(q, 2 * d * k * k)
    residue = st.one_of(st.sampled_from([0, q - 1]), st.integers(min_value=0, max_value=q - 1))
    vec = data.draw(st.lists(residue, min_size=k * d, max_size=k * d))
    chunks = kron.pack_chunks(vec, k, slot)
    column = kron.pack_vector(vec, k, slot)
    low, stride = (1 << (8 * k * slot)) - 1, 8 * (2 * k - 1) * slot
    assert [column >> (stride * r) & low for r in range(d)] == chunks
    assert kron.unpack_chunks(chunks, k, slot, q) == vec


def kernel_entries(draw, q):
    """Draws of kernel entries from one drawn seed, so that thousands of
    them cost no test-case buffer, which large shapes would overrun: a
    residue, drawn to hit 0 and q - 1, and a wild int, a residue or
    negative, at least q or at least 2**64."""
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def residue():
        return rnd.choice((0, q - 1, rnd.randrange(q)))

    def wild():
        big = rnd.randrange(2**70)
        return rnd.choice((residue(), -1 - big, q + big, 2**64 + big))

    return residue, wild


@st.composite
def dense_kernel_cases(draw):
    """(q, a, b, v): an r x n and an n x p matrix of residues, shapes in
    1..70, and n ints for a vector, some of them wild (``kernel_entries``)."""
    q = draw(st.sampled_from(CODEC_PRIMES))
    r, n, p = (draw(st.integers(min_value=1, max_value=70)) for _ in range(3))
    residue, wild = kernel_entries(draw, q)
    a = Matrix(r, n, [residue() for _ in range(r * n)])
    b = Matrix(n, p, [residue() for _ in range(n * p)])
    v = [wild() if draw(st.booleans()) else residue() for _ in range(n)]
    return q, a, b, v


@settings(max_examples=50, deadline=None)
@given(dense_kernel_cases())
@example((2**61 - 1, Matrix(1, 1, [2**61 - 2]), Matrix(1, 1, [2**61 - 2]), [-1]))
@example((2**31 - 1, Matrix(70, 1, [2**31 - 2] * 70), Matrix(1, 70, [2**31 - 2] * 70), [2**64]))
@example((2, Matrix(1, 70, [1] * 70), Matrix(70, 3, [1] * 210), [-3] * 70))
def test_dense_kernels_match_oracle(case):
    # the packed-column kernels against numpy object arithmetic: any int
    # vector gives the exact dot products mod q, at schoolbook counts
    q, a, b, v = case
    ctr = OpCounter()
    field = Field(q, ctr)
    assert mat_apply(field, a, v) == mat_vec_mod(a.to_rows(), v, q)
    assert (ctr.mul_count, ctr.add_count) == (a.rows * a.cols, a.rows * (a.cols - 1))
    ctr.mul_count = ctr.add_count = 0
    assert mat_mul(field, a, b).to_rows() == mat_mul_mod(a.to_rows(), b.to_rows(), q)
    assert (ctr.mul_count, ctr.add_count) == (
        a.rows * a.cols * b.cols,
        a.rows * (a.cols - 1) * b.cols,
    )


@st.composite
def ring_kernel_cases(draw):
    """(q, ring, z, coeffs, v): two d x d matrices over
    R = GF(q)[x]/(x**k) of canonical blocks, k in 1..16 and d in 1..8,
    1..4 key-polynomial coefficients of canonical residues, and m ints
    for a vector, some of them wild (``kernel_entries``)."""
    q = draw(st.sampled_from(CODEC_PRIMES))
    k = draw(st.integers(min_value=1, max_value=16))
    d = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=4))
    residue, wild = kernel_entries(draw, q)
    ring, z = (
        RingMatrix(k, d, [[residue() for _ in range(k)] for _ in range(d * d)]) for _ in "rz"
    )
    coeffs = [ShiftPoly(tuple(residue() for _ in range(k))) for _ in range(n)]
    v = [wild() if draw(st.booleans()) else residue() for _ in range(k * d)]
    return q, ring, z, coeffs, v


@settings(max_examples=60, deadline=None)
@given(ring_kernel_cases())
@example(
    (
        2**61 - 1,
        RingMatrix(16, 1, [[2**61 - 2] * 16]),
        RingMatrix(16, 1, [[2**61 - 2] * 16]),
        [ShiftPoly((2**61 - 2,) * 16)] * 4,
        [-1] * 16,
    )
)
@example(
    (2, RingMatrix(1, 8, [[1]] * 64), RingMatrix(1, 8, [[1]] * 64), [ShiftPoly((1,))], [2**64] * 8)
)
def test_ring_kernels_match_dense_and_oracle(case):
    # a matrix over R is applied without its dense form: from blocks it
    # packs first (built by hand) or from the packed blocks a key carries
    # out of eval_key_poly; mat_apply on it agrees with the dense kernel
    # and numpy, at the same schoolbook counts
    q, ring, z, coeffs, v = case
    key = eval_key_poly(Field(q), coeffs, PowerTable(Field(q), z, len(coeffs)), z.d)
    assert ring.packed is None and key.packed is not None
    m = ring.rows
    for r in (ring, key):
        dense = r.to_matrix()
        counts = []
        for t in (r, dense):
            ctr = OpCounter()
            assert mat_apply(Field(q, ctr), t, v) == mat_vec_mod(dense.to_rows(), v, q)
            counts.append((ctr.mul_count, ctr.add_count))
        assert counts[0] == counts[1] == (m * m, m * (m - 1))


def test_codec_caches_stay_bounded():
    # a process that meets many shapes (a listener fed hostile PARAMS)
    # keeps the constants of at most CODEC_CACHE_SIZE of them, and none
    # of a shape above CODEC_CACHE_SLOTS slots
    for n in range(1, 2 * kron.CODEC_CACHE_SIZE):
        assert kron.slot_mod(n, 2, 101)(n) == n % 101
        assert kron.pack([1] * n, 2) == oracle_pack([1] * n, 2)
        assert kron.elements(bytes(2 * n), 2) == [0] * n
    for cache in (kron.slot_mod, kron.slots, kron._pieces):
        assert cache.cache_info().currsize == kron.CODEC_CACHE_SIZE
    misses = kron.slot_mod.cache_info().misses, kron.slots.cache_info().misses
    pieces = kron._pieces.cache_info().misses
    big = kron.CODEC_CACHE_SLOTS + 1
    x = oracle_pack([101] * big, 2)
    assert kron.slot_values([x], big, 2, 101) == [0] * big
    assert kron.elements(bytes(2 * big), 2) == [0] * big
    assert (kron.slot_mod.cache_info().misses, kron.slots.cache_info().misses) == misses
    assert kron._pieces.cache_info().misses == pieces
