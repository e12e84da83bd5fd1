"""Dense exact linear algebra over GF(q).

Matrices are row-major flat lists of canonical residues; vectors are
plain lists of ints.  Every operation takes the field context
explicitly.  Multiplication and vector application charge the field's
counter with schoolbook counts (rows*inner*cols multiplies and the
matching addition count); elimination, rank and inversion are not
instrumented.

Elimination pivots on the first nonzero entry in column order -- there
is no magnitude over GF(q) -- and always fully reduces, so particular
solutions and nullspace bases are identical across runs.  There is one
eliminator, ``eliminate_ring``, over the chain ring R = GF(q)[x]/(x**k);
GF(q) is R at k = 1.  It takes a system by columns whose elements are
vectors' k-chunks (the structured attack systems: d rows per input
vector in degree+1 unknowns over R) and packs each column into a single
integer (Kronecker substitution, 2k - 1 slots per element), so a pivot
step costs a few big-integer operations per column rather than a Python
loop over its entries.  It records its pivot steps, and a right-hand
side is solved by replaying that record (``RingElimination.solve``), so
systems that share a coefficient matrix are eliminated once and solved
many times.  Its solution, read over GF(q), is the reduced-echelon one
of the GF(q) system, with the same rank (see RingElimination).
``solve_linear``, ``rank`` and ``invert`` run it at k = 1, where every
pivot is a unit: the pivots are the columns with e_i = 1.  Like the
rest of elimination it is not charged to an OpCounter.

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

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[int]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

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


def _reduce(values: Sequence[int], k: int, slot: int, q: int) -> list[int]:
    """The low k slots of each packed integer, each reduced mod q, packed
    again at the same slot: ``_pack(_unpack(x, k, slot, q), slot)`` for
    every x, in one pass over all their slots."""
    width = k * slot
    low = (1 << (8 * width)) - 1
    read = int.from_bytes
    raw = b"".join([(x & low).to_bytes(width, "little") for x in values])
    reduced = b"".join(
        [
            (read(raw[i : i + slot], "little") % q).to_bytes(slot, "little")
            for i in range(0, len(raw), slot)
        ]
    )
    return [read(reduced[i : i + width], "little") for i in range(0, len(reduced), width)]


def _reduce_element(x: int, k: int, slot: int, q: int) -> int:
    """``_reduce([x], k, slot, q)[0]``, slot by slot: for a single value,
    shifts cost less than a pass through bytes."""
    bits = 8 * slot
    mask = (1 << bits) - 1
    out = 0
    for shift in range(0, k * bits, bits):
        out |= ((x >> shift) & mask) % q << shift
    return out


def _pack_vector(vec: Sequence[int], k: int, slot: int) -> int:
    """A vector's k-chunks packed as elements of R = GF(q)[x]/(x**k).
    An element's k residues, lowest power first, fill the low k of 2k - 1
    slots; the high k - 1 slots take the overflow of a product with
    another element, which the caller masks off (x**k = 0).  Each chunk
    is reversed, so that the shift N (entry r picks up entry r + 1) acts
    as x: slot t of element r holds entry r*k + k - 1 - t."""
    stride = 2 * k - 1
    cells = [c.to_bytes(slot, "little") for c in vec]
    layout = [bytes(slot)] * (len(vec) // k * stride)
    for t in range(k):
        layout[t::stride] = cells[k - 1 - t :: k]
    return int.from_bytes(b"".join(layout), "little")


def _ring_replay(
    packed: int, steps: Sequence[tuple[int, int, int]], k: int, slot: int, q: int, mask: int
) -> int:
    """Apply recorded pivot steps (shift, w, G) to one packed column: per
    step, the pivot row's element s is read mod q and replaced by
    y = w*s, and G*y, masked to the low k slots of every element
    (x**k = 0), is added.  A zero element is skipped: y and G*y are 0.
    At k = 1 an element is one slot, and y is s * w mod q."""
    low = (1 << (8 * k * slot)) - 1
    for shift, w, g in steps:
        s = (packed >> shift) & low
        if s:
            if k == 1:
                y = s % q * w % q
            else:
                y = _reduce_element(_reduce_element(s, k, slot, q) * w, k, slot, q)
            packed += ((y - s) << shift) + ((g * y) & mask)
    return packed


def _series_inverse(field: Field, u: Sequence[int]) -> list[int]:
    """w with u * w = 1 mod x**len(u), for u[0] != 0."""
    q = field.q
    inv = field.inv(u[0])
    w = [inv]
    mul = operator.mul
    for t in range(1, len(u)):
        w.append(-inv * sum(map(mul, u[1 : t + 1], reversed(w))) % q)
    return w


@dataclass(frozen=True, slots=True)
class RingElimination:
    """The recorded elimination of a system over the chain ring
    R = GF(q)[x]/(x**k): ``rows`` equations in ``cols`` unknowns
    c_0 .. c_{cols-1} in R.

    Every nonzero element of R is a unit times x**v, v < k.  Column i is
    eliminated with the first free row of least valuation v, scaled so
    that its pivot is x**v.  Every other row is reduced by a multiple of
    it, which clears column i in the free rows and leaves a residue of
    degree < v in the earlier pivot rows; for v > 0 the pivot row times
    x**(k-v), zero in column i, joins the free rows.  So the free rows
    keep spanning every combination of rows that vanishes on the columns
    done (Howell form).  ``exps[i]`` is e_i = k - v, or 0 when column i
    has no pivot.

    A right-hand side replays ``steps``; it is consistent iff every free
    row then vanishes, and back-substitution in reverse pivot order gives
    the unique solution with deg c_i < e_i.  Read over GF(q), with unknown
    (i, j) the coefficient of x**j in c_i, the pivots of column i are
    exactly j < e_i, so that solution is the reduced-echelon one with free
    variables zero, and the rank is sum(e_i).

    At k = 1, GF(q) itself, every pivot is a unit, nothing is left to
    back-substitute, and the record is that of Gauss-Jordan elimination:
    the pivots are the columns with e_i = 1.

    Elements are packed as in ``_pack_vector``.  Per pivot, ``steps``
    holds the bit shift of the pivot row, the packed inverse w of the
    pivot's unit part (the pivot row is scaled by w) and the packed G:
    minus the row's element divided by x**v in every other row, x**(k-v)
    in the annihilator row, and 0 in the pivot row.  ``reads`` holds the
    byte offsets of the slots to read after a replay: the free rows',
    then each pivot row's; ``back`` holds, per pivot, its column, v,
    (column, packed -r) for its residues r in later pivot columns (none
    when all pivots are units), and whether a residue refers to it.
    ``size`` is the width in bytes of a replayed column.
    Never changed once built, so threads may share one.
    """

    q: int
    k: int
    rows: int
    cols: int
    slot: int
    size: int
    mask: int
    exps: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]
    reads: tuple[int, ...]
    back: tuple[tuple[int, int, tuple[tuple[int, int], ...], bool], ...]

    @property
    def rank(self) -> int:
        return sum(self.exps)

    def solve(self, vec: Sequence[int]) -> list[int] | None:
        """The solution with deg c_i < e_i of sum_i c_i * column_i = vec,
        as cols*k residues (index i*k + j for x**j in c_i); None when the
        system is inconsistent.  ``vec`` is read like the columns."""
        k, slot, q = self.k, self.slot, self.q
        if len(vec) != self.rows * k:
            raise DimensionMismatch(
                f"system has {self.rows * k} equations but rhs has {len(vec)} rows"
            )
        packed = _ring_replay(_pack_vector(vec, k, slot), self.steps, k, slot, q, self.mask)
        raw = packed.to_bytes(self.size, "little")
        read = int.from_bytes
        values = [read(raw[o : o + slot], "little") % q for o in self.reads]
        start = len(values) - k * len(self.back)
        if any(values[:start]):
            return None
        coeffs = [0] * (self.cols * k)
        solved: dict[int, int] = {}
        for t in range(len(self.back) - 1, -1, -1):
            i, v, later, referred = self.back[t]
            c = values[start + t * k : start + (t + 1) * k]
            if later:
                s = _pack(c, slot)
                for j, a in later:
                    s += a * solved[j]
                c = _unpack(s, k, slot, q)
            c = c[v:]
            coeffs[i * k : i * k + k - v] = c
            if referred:
                solved[i] = _pack(c, slot)
        return coeffs


def eliminate_ring(field: Field, k: int, columns: Sequence[Sequence[int]]) -> RingElimination:
    """Eliminate over R = GF(q)[x]/(x**k), recorded for replay, the
    system whose columns are these vectors of canonical residues; each
    k-chunk of a column is one row's element of R, read as in
    ``PowerTable.pack`` (reversed, so that the shift N acts as x).

    Kronecker-packed: column i is one integer, reduced by replaying the
    steps recorded so far and read mod q, and then its pivot step is
    recorded (see RingElimination).  A slot gains less than k*q**2 per
    step, and back-substitution adds as much per later pivot; there are
    at most min(cols, rows*k) pivots, and the slot width holds that.

    Once every row holds a pivot, no later column can have one, so
    ``columns[i]`` is read only while free rows remain: a lazy sequence
    (the attacks' packed orbits) is unpacked only as far as it is read.
    """
    q = field.q
    cols = len(columns)
    first = columns[0] if cols else ()
    n = len(first)
    ragged = f"columns of a system over R with k={k} are empty or ragged"
    if not n or n % k:
        raise DimensionMismatch(ragged)
    rows = n // k
    slot = _slot_bytes(q, 2 * min(cols, n) * k)
    step = (2 * k - 1) * slot
    width = k * slot
    # the low k slots of every element, room for one annihilator per column
    mask = int.from_bytes((b"\xff" * width + bytes(step - width)) * (rows + cols), "little")
    offsets = [o for r in range(rows + cols) for o in range(r * step, r * step + width, slot)]
    read = int.from_bytes
    zero, one = bytes(slot), (1).to_bytes(slot, "little")
    free = list(range(rows))
    total = rows
    exps: list[int] = []
    steps: list[tuple[int, int, int]] = []
    pivots: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    for i in range(cols):
        if not free:
            exps.append(0)
            continue
        col = columns[i] if i else first
        if len(col) != n:
            raise DimensionMismatch(ragged)
        packed = _ring_replay(_pack_vector(col, k, slot), steps, k, slot, q, mask)
        # element r of the column is entries[r*k : r*k + k]; the read ends at
        # the last element's k-th slot, so a high slot left set overflows it
        raw = packed.to_bytes((total - 1) * step + width, "little")
        entries = [read(raw[o : o + slot], "little") % q for o in offsets[: total * k]]
        # the first free row of least valuation v
        for v in range(k):
            p = next((r for r in free if entries[r * k + v]), None)
            if p is not None:
                break
        else:
            exps.append(0)
            continue
        free.remove(p)
        w = _series_inverse(field, entries[p * k + v : p * k + k])
        # G, slot by slot: slot t - v of element r is slot t of -entries[r]
        neg = [(-x % q).to_bytes(slot, "little") for x in entries]
        neg[p * k : p * k + k] = [zero] * k
        g = [zero] * (total * (2 * k - 1))
        for t in range(v, k):
            g[t - v :: 2 * k - 1] = neg[t::k]
        if v:
            for _, r, _, later in pivots:
                if any(entries[r * k : r * k + v]):
                    later.append((i, read(b"".join(neg[r * k : r * k + v]), "little")))
            g += [zero] * (k - v) + [one]  # x**(k-v), the annihilator row
            free.append(total)
            total += 1
        steps.append((8 * step * p, _pack(w, slot), read(b"".join(g), "little")))
        pivots.append((i, p, v, []))
        exps.append(k - v)
    referred = {j for _, _, _, later in pivots for j, _ in later}
    read_rows = free + [p for _, p, _, _ in pivots]
    return RingElimination(
        q,
        k,
        rows,
        cols,
        slot,
        (total - 1) * step + width,
        mask,
        tuple(exps),
        tuple(steps),
        tuple(o for r in read_rows for o in range(r * step, r * step + width, slot)),
        tuple((i, v, tuple(later), i in referred) for i, _, v, later in pivots),
    )


def _eliminate_matrix(field: Field, a: Matrix) -> RingElimination:
    """The record of a over GF(q), the chain ring at k = 1."""
    return eliminate_ring(field, 1, [a.col(j) for j in range(a.cols)])


def solve_linear(field: Field, a: Matrix, rhs: Matrix | Sequence[int]) -> SolveResult:
    """Exact solve of a x = rhs over GF(q).

    Accepts a single right-hand-side vector or a Matrix of stacked
    right-hand sides.  The coefficient matrix is eliminated once and
    each right-hand side replays that elimination.  The particular
    solution sets free variables to zero.  The nullspace has one vector
    per free column f, e_f minus the solution for column f: a free
    column's reduced entries are zero at later pivots, so this is the
    reduced-echelon basis.
    """
    vector_rhs = not isinstance(rhs, Matrix)
    rhs_cols = [list(rhs)] if vector_rhs else [rhs.col(j) for j in range(rhs.cols)]
    if len(rhs_cols[0]) != a.rows:
        raise DimensionMismatch(
            f"system has {a.rows} equations but rhs has {len(rhs_cols[0])} rows"
        )
    elim = _eliminate_matrix(field, a)
    q = field.q
    nullspace = []
    for f, e in enumerate(elim.exps):
        if not e:
            vec = [-x % q for x in elim.solve(a.col(f))]
            vec[f] = 1
            nullspace.append(vec)
    sols = [elim.solve(col) for col in rhs_cols]
    if any(x is None for x in sols):
        return SolveResult(None, nullspace)
    return SolveResult(sols[0] if vector_rhs else Matrix.from_columns(sols), nullspace)


def rank(field: Field, a: Matrix) -> int:
    """Row rank over GF(q)."""
    return _eliminate_matrix(field, a).rank


def invert(field: Field, a: Matrix) -> Matrix:
    """Two-sided inverse; raises Singular when rank < n."""
    if a.rows != a.cols:
        raise DimensionMismatch("only square matrices are invertible")
    n = a.rows
    elim = _eliminate_matrix(field, a)
    if elim.rank < n:
        raise Singular(f"matrix of rank {elim.rank} < {n} has no inverse")
    return Matrix.from_columns([elim.solve([int(i == j) for i in range(n)]) for j in range(n)])
