"""Dense exact linear algebra over GF(q).

Matrices are row-major flat lists of canonical residues; vectors are
plain lists of ints.  Every operation takes the field context
explicitly.  Multiplication and vector application charge the field's
counter with schoolbook counts (rows*inner*cols multiplies and the
matching addition count); elimination, rank and inversion are not
instrumented.

Elimination pivots on the first nonzero entry in column order -- there
is no magnitude over GF(q) -- and always fully reduces, so echelon
forms, particular solutions and nullspace bases are identical across
runs.  Multi-column right-hand sides are supported so a batch of
systems sharing a coefficient matrix reduces in one pass.  The one
eliminator (``_rref``) packs each column into a single integer
(Kronecker substitution), so a row operation costs one big-integer
multiply-add per column rather than a Python loop over its entries; it
performs the textbook loop's row operations and swaps, so its results
are the textbook's, and like the rest of elimination it is not charged
to an OpCounter.

JSON forms: matrix {"rows": r, "cols": c, "entries": [decimal, ...]}
row-major; vector {"entries": [decimal, ...]}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .errors import DimensionMismatch, InvalidDimension, Singular
from .gf import Field

Vector = list  # list[int]; alias for documentation purposes


class Matrix:
    """Row-major dense matrix; entries are canonical residues."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 1 or cols < 1:
            raise InvalidDimension(f"matrix shape {rows}x{cols} is not positive")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        if not rows:
            raise InvalidDimension("matrix needs at least one row")
        width = len(rows[0])
        flat: list[int] = []
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(len(rows), width, flat)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "Matrix":
        if not cols:
            raise InvalidDimension("matrix needs at least one column")
        height = len(cols[0])
        for c in cols:
            if len(c) != height:
                raise DimensionMismatch("ragged columns")
        flat = [cols[j][i] for i in range(height) for j in range(len(cols))]
        return cls(height, len(cols), flat)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[int]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.to_rows()})"


@dataclass
class SolveResult:
    """Outcome of solve_linear.

    ``particular`` is one exact solution (free variables set to zero,
    read off the reduced echelon form) or None when the system is
    inconsistent; it matches the right-hand side's kind (vector in,
    vector out).  ``nullspace`` is a basis of the homogeneous solutions
    of the coefficient matrix, independent of consistency.
    """

    particular: list[int] | Matrix | None
    nullspace: list[list[int]] = dc_field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    """Schoolbook product; charges a.rows*a.cols*b.cols multiplies."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    q = field.q
    n, inner, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    bcols = [be[j::p] for j in range(p)]
    out: list[int] = []
    append = out.append
    mul = operator.mul
    for i in range(n):
        arow = ae[i * inner : (i + 1) * inner]
        for bc in bcols:
            append(sum(map(mul, arow, bc)) % q)
    if field.counter is not None:
        field.counter.mul_count += n * inner * p
        field.counter.add_count += n * (inner - 1) * p
    return Matrix(n, p, out)


def mat_apply(field: Field, t: Matrix, v: Sequence[int]) -> list[int]:
    """t @ v; charges exactly t.rows*t.cols multiplies."""
    if t.cols != len(v):
        raise DimensionMismatch(f"{t.rows}x{t.cols} applied to length {len(v)}")
    q = field.q
    c = t.cols
    te = t.entries
    mul = operator.mul
    out = [sum(map(mul, te[i * c : (i + 1) * c], v)) % q for i in range(t.rows)]
    if field.counter is not None:
        field.counter.mul_count += t.rows * c
        field.counter.add_count += t.rows * (c - 1)
    return out


def mat_add(field: Field, a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix addition shape mismatch")
    q = field.q
    out = [(x + y) % q for x, y in zip(a.entries, b.entries)]
    if field.counter is not None:
        field.counter.add_count += a.rows * a.cols
    return Matrix(a.rows, a.cols, out)


def vec_add(field: Field, u: Sequence[int], v: Sequence[int]) -> list[int]:
    if len(u) != len(v):
        raise DimensionMismatch("vector addition length mismatch")
    q = field.q
    return [(x + y) % q for x, y in zip(u, v)]


def vec_scale(field: Field, c: int, v: Sequence[int]) -> list[int]:
    q = field.q
    return [c * x % q for x in v]


def _slot_bytes(q: int, terms: int) -> int:
    """Width of a packed slot that holds a sum of ``terms`` products of
    residues mod q exactly: carries then never cross into the next slot."""
    return (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8


def _pack(residues: Sequence[int], slot: int) -> int:
    """Kronecker substitution: sum_j c_j * 2**(8*slot*j) for canonical c_j."""
    return int.from_bytes(b"".join([c.to_bytes(slot, "little") for c in residues]), "little")


def _unpack(packed: int, k: int, slot: int, q: int) -> list[int]:
    """The low k slots of a packed integer, each reduced mod q; higher
    slots (in a product over R, the N**k = 0 part) are dropped."""
    width = k * slot
    raw = (packed & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    return [int.from_bytes(raw[i : i + slot], "little") % q for i in range(0, width, slot)]


def _rref(field: Field, rows: list[list[int]], pivot_cols: int) -> list[int]:
    """In-place reduced row echelon form.

    Pivots are searched only in the first ``pivot_cols`` columns (the
    remainder is the augmented part).  Returns the pivot column indices
    in order.

    Kronecker-packed Gauss-Jordan: column j is one integer whose slot s
    holds the entry of input row s, so a row operation is one integer
    operation per column.  Per pivot, column c is unpacked mod q; then
    every column from c on gets the pivot row's slot replaced by its
    scaled entry y and y * G added, where G packs (q - f_i) for each
    other row's column-c entry f_i.  Slots are reduced mod q only when
    read, so a slot grows by less than q**2 per pivot; its width holds
    that for min(rows, pivot_cols) pivots.  Swaps permute ``order`` (the
    slot of each row position), and the rows are unpacked once at the
    end: the same row operations as the textbook loop, so the same rows.
    """
    if not rows:
        return []
    q = field.q
    nrows, ncols = len(rows), len(rows[0])
    # a slot holds a residue plus one product per pivot
    slot = _slot_bytes(q, min(nrows, pivot_cols) + 2)
    bits = 8 * slot
    mask = (1 << bits) - 1
    cols = [_pack([row[j] for row in rows], slot) for j in range(ncols)]
    order = list(range(nrows))
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        f = _unpack(cols[c], nrows, slot, q)
        pivot_row = next((i for i in range(r, nrows) if f[order[i]]), None)
        if pivot_row is None:
            continue
        order[r], order[pivot_row] = order[pivot_row], order[r]
        p = order[r]
        inv = field.inv(f[p])
        f[p] = 0
        g = _pack([-x % q for x in f], slot)
        shift = bits * p
        for j in range(c, ncols):
            col = cols[j]
            x = (col >> shift) & mask
            if x:
                y = x * inv % q
                cols[j] = col + ((y - x) << shift) + y * g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    entries = [_unpack(col, nrows, slot, q) for col in cols]
    for i, s in enumerate(order):
        rows[i] = [col[s] for col in entries]
    return pivots


def solve_linear(field: Field, a: Matrix, rhs: Matrix | Sequence[int]) -> SolveResult:
    """Row-reduce [a | rhs]; exact solve over GF(q).

    Accepts a single right-hand-side vector or a Matrix of stacked
    right-hand sides.  The particular solution sets free variables to
    zero; the nullspace basis comes straight off the reduced form.
    """
    vector_rhs = not isinstance(rhs, Matrix)
    rhs_mat = Matrix.from_columns([list(rhs)]) if vector_rhs else rhs
    if rhs_mat.rows != a.rows:
        raise DimensionMismatch(
            f"system has {a.rows} equations but rhs has {rhs_mat.rows} rows"
        )
    n = a.cols
    aug = [a.row(i) + rhs_mat.row(i) for i in range(a.rows)]
    pivots = _rref(field, aug, n)
    rank_a = len(pivots)

    # Rows below the pivot rows have all-zero coefficient parts; any
    # nonzero augmented entry there certifies inconsistency.
    consistent = all(
        not any(aug[i][n:]) for i in range(rank_a, a.rows)
    )

    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    q = field.q
    nullspace = []
    for f in free_cols:
        vec = [0] * n
        vec[f] = 1
        for r_idx, c in enumerate(pivots):
            vec[c] = (-aug[r_idx][f]) % q
        nullspace.append(vec)

    if not consistent:
        return SolveResult(None, nullspace)

    k = rhs_mat.cols
    sols = []
    for j in range(k):
        x = [0] * n
        for r_idx, c in enumerate(pivots):
            x[c] = aug[r_idx][n + j]
        sols.append(x)
    particular: list[int] | Matrix
    if vector_rhs:
        particular = sols[0]
    else:
        particular = Matrix.from_columns(sols)
    return SolveResult(particular, nullspace)


def rank(field: Field, a: Matrix) -> int:
    """Row rank over GF(q)."""
    rows = a.to_rows()
    return len(_rref(field, rows, a.cols))


def pivot_columns(field: Field, a: Matrix) -> list[int]:
    """Column indices of the first maximal independent column set (the
    reduced echelon form's pivots, in column order)."""
    rows = a.to_rows()
    return _rref(field, rows, a.cols)


def invert(field: Field, a: Matrix) -> Matrix:
    """Two-sided inverse; raises Singular when rank < n."""
    if a.rows != a.cols:
        raise DimensionMismatch("only square matrices are invertible")
    result = solve_linear(field, a, Matrix.identity(a.rows))
    if result.nullspace or result.particular is None:
        raise Singular(f"matrix of rank {rank(field, a)} < {a.rows} has no inverse")
    assert isinstance(result.particular, Matrix)
    return result.particular
