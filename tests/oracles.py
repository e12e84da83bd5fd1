"""Independent reference computations for fixing expected test values.

Everything here deliberately avoids the library's code paths: matrix
work goes through numpy object arrays, scalar work through plain
integer loops, and solves through a textbook Gauss-Jordan loop
(``rref_rows``).
"""

import numpy as np


def np_mat(rows):
    return np.array(rows, dtype=object)


def mat_mul_mod(a_rows, b_rows, q):
    return ((np_mat(a_rows) @ np_mat(b_rows)) % q).tolist()


def mat_vec_mod(rows, vec, q):
    return ((np_mat(rows) @ np.array(vec, dtype=object)) % q).tolist()


def mat_add_mod(a_rows, b_rows, q):
    return ((np_mat(a_rows) + np_mat(b_rows)) % q).tolist()


def mat_pow_mod(rows, e, q):
    n = len(rows)
    acc = np.eye(n, dtype=object) % q
    base = np_mat(rows)
    for _ in range(e):
        acc = (acc @ base) % q
    return acc.tolist()


def poly_of_matrix_mod(coeffs, rows, q):
    """sum_i coeffs[i] * rows**i by direct expansion (scalar coeffs)."""
    n = len(rows)
    total = np.zeros((n, n), dtype=object)
    for i, c in enumerate(coeffs):
        total = (total + c * np_mat(mat_pow_mod(rows, i, q))) % q
    return total.tolist()


def pow_by_repeated_mul(base, e, q):
    acc = 1 % q
    for _ in range(e):
        acc = acc * base % q
    return acc


def inv_by_search(a, q):
    for b in range(q):
        if a * b % q == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {q}")


def rank_by_minors(a_rows, q):
    """Rank as the largest r with a nonzero r x r minor (determinant by
    Laplace expansion; exponential, only for tiny matrices)."""
    from itertools import combinations

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0] % q
        total = 0
        for j in range(n):
            if rows[0][j] % q == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            sign = 1 if j % 2 == 0 else -1
            total += sign * rows[0][j] * det(minor)
        return total % q

    nrows, ncols = len(a_rows), len(a_rows[0])
    for r in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), r):
            for ci in combinations(range(ncols), r):
                sub = [[a_rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return r
    return 0


def block_matrix(blocks, q):
    """Assemble a grid of equally sized blocks into one matrix."""
    d = len(blocks)
    k = len(blocks[0][0])
    m = d * k
    out = [[0] * m for _ in range(m)]
    for bi in range(d):
        for bj in range(d):
            for i in range(k):
                for j in range(k):
                    out[bi * k + i][bj * k + j] = blocks[bi][bj][i][j] % q
    return out


def toeplitz_rows(coeffs, q):
    """The k x k upper-triangular Toeplitz block with first row coeffs."""
    k = len(coeffs)
    return [[coeffs[j - i] % q if j >= i else 0 for j in range(k)] for i in range(k)]


def generator_rows(kind, value, k, q):
    """value * I, plus the upper shift N for kind "jordan"."""
    return [
        [
            value % q if i == j else (1 if kind == "jordan" and j == i + 1 else 0)
            for j in range(k)
        ]
        for i in range(k)
    ]


def key_poly_mod(coeff_lists, base_rows, d, q):
    """sum_i diag(T_i, ..., T_i) @ base**i by direct expansion, with T_i
    the Toeplitz block of coeff_lists[i]."""
    k = len(coeff_lists[0])
    zero = [[0] * k for _ in range(k)]
    total = np.zeros((d * k, d * k), dtype=object)
    for i, coeffs in enumerate(coeff_lists):
        blk = toeplitz_rows(coeffs, q)
        emb = block_matrix([[blk if bi == bj else zero for bj in range(d)] for bi in range(d)], q)
        total = (total + np_mat(emb) @ np_mat(mat_pow_mod(base_rows, i, q))) % q
    return total.tolist()


def key_poly_apply_mod(coeff_lists, base_rows, vec, d, q):
    """key_poly_mod(coeff_lists, base_rows, d, q) @ vec without building
    the key: sum_i diag(T_i, ..., T_i) @ (base**i @ vec), the powers of
    base applied to vec one at a time, for polynomials too long to
    expand."""
    k = len(coeff_lists[0])
    zero = [[0] * k for _ in range(k)]
    base = np_mat(base_rows)
    image = np.array(vec, dtype=object) % q
    total = np.zeros(d * k, dtype=object)
    for coeffs in coeff_lists:
        blk = toeplitz_rows(coeffs, q)
        emb = block_matrix([[blk if bi == bj else zero for bj in range(d)] for bi in range(d)], q)
        total = (total + np_mat(emb) @ image) % q
        image = (base @ image) % q
    return total.tolist()


def recipe_mod(terms, m, q):
    """sum coeff * prod rows**exp over terms [(coeff, [(rows, exp), ...])]."""
    total = np.zeros((m, m), dtype=object)
    for coeff, factors in terms:
        prod = np.eye(m, dtype=object)
        for rows, exp in factors:
            prod = (prod @ np_mat(mat_pow_mod(rows, exp, q))) % q
        total = (total + coeff * prod) % q
    return total.tolist()


def rref_rows(field, rows, pivot_cols):
    """The textbook Gauss-Jordan loop, one list comprehension per row
    operation: the reference for ``linalg.eliminate_ring`` at k = 1
    (GF(q)) and the solvers built on it.  In-place reduced row echelon
    form; pivots are searched only in the first ``pivot_cols`` columns.
    Returns the pivot column indices in order."""
    q = field.q
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [x * inv % q for x in rows[r]]
        reduced = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], reduced)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def textbook_solve(field, a_rows, rhs_cols):
    """(pivots, solutions, nullspace) of a_rows @ x = each column in
    rhs_cols, read off ``rref_rows`` of [a | rhs]: a solution sets free
    variables to zero and is None for an inconsistent column; the
    nullspace has one vector per free column, in column order."""
    q = field.q
    n = len(a_rows[0])
    rows = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(a_rows)]
    pivots = rref_rows(field, rows, n)
    rank = len(pivots)
    solutions = []
    for j in range(len(rhs_cols)):
        if any(row[n + j] for row in rows[rank:]):
            solutions.append(None)
            continue
        x = [0] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][n + j]
        solutions.append(x)
    nullspace = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f] % q
        nullspace.append(vec)
    return pivots, solutions, nullspace


def structured_columns_mod(z_rows, vecs, k, bound, q):
    """Columns N**j z**i v of the structured attack systems, for i <= bound
    and j < k (i major), each stacking the images of every v in vecs; N
    is the block-diagonal upper shift."""
    m = len(z_rows)
    shift = np.zeros((m, m), dtype=object)
    for r in range(m):
        if r % k != k - 1:
            shift[r][r + 1] = 1
    columns = []
    for i in range(bound + 1):
        zi = np_mat(mat_pow_mod(z_rows, i, q))
        nj = np.eye(m, dtype=object)
        for _ in range(k):
            op = (nj @ zi) % q
            columns.append([x for v in vecs for x in (op @ np.array(v, dtype=object) % q).tolist()])
            nj = (nj @ shift) % q
    return columns


def shifted_columns(columns, k):
    """The GF(q) columns N**j v (j < k, v major) of a system whose columns
    v are read over R = GF(q)[x]/(x**k) chunk by chunk, N the
    block-diagonal upper shift: within each k-chunk, entry r picks up
    entry r + j."""
    return [
        [x for s in range(0, len(v), k) for x in v[s + j : s + k] + [0] * j]
        for v in columns
        for j in range(k)
    ]


def dot_products(rows, cols):
    """Each row dotted with each column, row by row, by a plain loop."""
    out = []
    for row in rows:
        for col in cols:
            acc = 0
            for x, y in zip(row, col, strict=True):
                acc += x * y
            out.append(acc)
    return out
