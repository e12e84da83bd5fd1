"""Dense exact linear algebra over GF(q).

Matrices are row-major flat lists of canonical residues; vectors are
plain lists of ints.  Every operation takes the field context
explicitly.  ``mat_mul`` and ``mat_apply`` charge the field's counter
with schoolbook counts (rows*inner*cols multiplies and the matching
addition count); elimination and rank are not instrumented.  A dense
product is computed as it is counted, one residue dot per entry
(``kron.dots``) reduced by %.  ``mat_apply`` applies anything with
``rows``, ``cols`` and ``apply(q, v)``: a Matrix, or a key held in R
(``commutant.RingMatrix``), which applies itself without its dense
form.

Elimination pivots on the first nonzero entry in column order -- there
is no magnitude over GF(q) -- and always fully reduces, so particular
solutions and nullspace bases are identical across runs.  There is one
eliminator, ``eliminate_ring``, over the chain ring R = GF(q)[x]/(x**k);
GF(q) is R at k = 1.  It takes a system by columns whose elements are
vectors' k-chunks (the structured attack systems: d rows per input
vector in degree+1 unknowns over R) and packs each column into a single
integer (``kron.pack_vector``, 2k - 1 slots per element), so a pivot
step costs a few big-integer operations per column rather than a Python
loop over its entries.  It records its pivot steps, and a right-hand
side is solved by replaying that record (``RingElimination.solve``), so
systems that share a coefficient matrix are eliminated once and solved
many times.  Its solution, read over GF(q), is the reduced-echelon one
of the GF(q) system, with the same rank (see RingElimination).
``rank`` runs it at k = 1, where every pivot is a unit: the pivots are
the columns with e_i = 1.  The attacks, which solve systems, call it
directly.

JSON forms: matrix {"rows": r, "cols": c, "entries": [decimal, ...]}
row-major; vector {"entries": [decimal, ...]}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Protocol, Sequence

from . import kron
from .errors import DimensionMismatch, InvalidDimension
from .gf import Field


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

    def apply(self, q: int, v: Sequence[int]) -> list[int]:
        """(self @ v) mod q: one residue dot per row."""
        e, c = self.entries, self.cols
        return [x % q for x in kron.dots(v, (e[i : i + c] for i in range(0, len(e), c)))]


class Linear(Protocol):
    """What ``mat_apply`` applies: an m x n map over GF(q)."""

    rows: int
    cols: int

    def apply(self, q: int, v: Sequence[int]) -> list[int]: ...


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    """a @ b; charges a.rows*a.cols*b.cols multiplies, the schoolbook
    count, and takes as many products: row i of a dotted with each
    column of b (``kron.dots``), reduced by %."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    q = field.q
    n, inner, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    bcols = [be[j::p] for j in range(p)]
    out = [x % q for i in range(0, n * inner, inner) for x in kron.dots(ae[i : i + inner], bcols)]
    if field.counter is not None:
        field.counter.mul_count += n * inner * p
        field.counter.add_count += n * (inner - 1) * p
    return Matrix(n, p, out)


def mat_apply(field: Field, t: Linear, v: Sequence[int]) -> list[int]:
    """(t @ v) mod q for any ints v, as ``t.apply`` computes it from v
    reduced to canonical residues; charges exactly t.rows*t.cols
    multiplies, the schoolbook count, whatever t's form."""
    if t.cols != len(v):
        raise DimensionMismatch(f"{t.rows}x{t.cols} applied to length {len(v)}")
    q = field.q
    if min(v) < 0 or max(v) >= q:
        v = [x % q for x in v]
    out = t.apply(q, v)
    if field.counter is not None:
        field.counter.mul_count += t.rows * t.cols
        field.counter.add_count += t.rows * (t.cols - 1)
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


def _ring_replay(
    packed: int, steps: Sequence[tuple[int, int, int]], k: int, slot: int, q: int, mask: int
) -> int:
    """Apply recorded pivot steps (shift, w, G*w) to one packed column:
    per step, the pivot row's element s is reduced mod q once and
    replaced by w*s, left unreduced, and (G*w)*s, masked to the low k
    slots of every element (x**k = 0), is added; G*w is reduced when the
    step is recorded.  A zero element is skipped: w*s and (G*w)*s are 0.
    At k = 1 an element is one slot, reduced by %."""
    low = (1 << (8 * k * slot)) - 1
    mod = kron.slot_mod(k, slot, q)
    for shift, w, gw in steps:
        s = (packed >> shift) & low
        if s:
            r = mod(s) if k > 1 else s % q
            packed += (((r * w & low) - s) << shift) + (gw * r & mask)
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

    Elements are packed as in ``kron.pack_vector``.  Per pivot, ``steps``
    holds the bit shift of the pivot row, the packed inverse w of the
    pivot's unit part (the pivot row is scaled by w) and the packed G*w,
    reduced mod q, where G holds minus the row's element divided by x**v
    in every other row, x**(k-v) in the annihilator row, and 0 in the
    pivot row.  A replay reduces the pivot row's element s once, adds
    (G*w)*s and leaves w*s in the pivot row unreduced (``_ring_replay``).
    Every slot stays below 2*P*k*(q-1)**2 for P pivots, which the slot
    width holds (see ``eliminate_ring``).  A replayed column has
    ``slots`` slots, all reduced mod q by one ``kron.slot_mod``; ``free``
    masks the slots of the rows left free, which a consistent right-hand
    side leaves zero, and one struct call reads all of them.  ``back``
    holds, per pivot, its column, the index of its row's first slot, v,
    (column, packed q - r, -r once reduced) for its residues r in later
    pivot columns (none when all pivots are units), and whether a residue
    refers to it.
    Never changed once built, so threads may share one.
    """

    q: int
    k: int
    rows: int
    cols: int
    slot: int
    slots: int
    mask: int
    free: int
    exps: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]
    back: tuple[tuple[int, int, int, tuple[tuple[int, int], ...], bool], ...]

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
        packed = _ring_replay(kron.pack_vector(vec, k, slot), self.steps, k, slot, q, self.mask)
        reduced = kron.slot_mod(self.slots, slot, q)(packed)
        if reduced & self.free:
            return None
        entries = kron.slots(self.slots, slot).unpack(reduced.to_bytes(self.slots * slot, "little"))
        coeffs = [0] * (self.cols * k)
        solved: dict[int, int] = {}
        for i, at, v, later, referred in reversed(self.back):
            c = entries[at : at + k]
            if later:
                c = kron.pack(c, slot) + sum(a * solved[j] for j, a in later)
                c = kron.slot_values((c,), k, slot, q)
            c = c[v:]
            coeffs[i * k : i * k + k - v] = c
            if referred:
                solved[i] = kron.pack(c, slot)
        return coeffs


def eliminate_ring(field: Field, k: int, columns: Sequence[Sequence[int]]) -> RingElimination:
    """Eliminate over R = GF(q)[x]/(x**k), recorded for replay, the
    system whose columns are these vectors of canonical residues; each
    k-chunk of a column is one row's element of R, read as in
    ``kron.pack_chunks`` (reversed, so that the shift N acts as x).

    Kronecker-packed (``kron.pack_vector``): column i is one integer,
    reduced by replaying the steps recorded so far, then every slot mod
    q (``kron.slot_mod``) and read by one struct call, and then its pivot
    step is recorded (see RingElimination); G comes from the column's
    slot-wise negation (q - c for each slot c), shifted down by v slots,
    and is multiplied by w and reduced once.

    The slot width holds 2*P*k products of residues for the P <=
    min(cols, rows*k) pivots.  A replay starts from canonical residues,
    and each step adds a product of two reduced elements masked to x**k,
    at most k*(q-1)**2 per slot, to every row but its pivot row.  The
    pivot row instead takes w*s, a product of the same size, and then
    every later step's update, so no slot exceeds (q-1) + P*k*(q-1)**2
    before the column is reduced.  G and the residues of back-substitution
    are cut from the column's negation, q - c in each slot c, at most q:
    G*w is below k*q*(q-1) <= 2*k*(q-1)**2 per slot when it is reduced,
    and back-substitution, which starts from reduced slots, adds as much
    per later pivot, below 2*P*k*(q-1)**2 in all.

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
    slot = kron.slot_bytes(q, 2 * min(cols, n) * k)
    bits = 8 * slot
    stride = 2 * k - 1
    # the low k slots of every element, and q in each of them, with room
    # for one annihilator row per column
    mask = int.from_bytes((b"\xff" * (k * slot) + bytes((k - 1) * slot)) * (rows + cols), "little")
    qs = q * int.from_bytes(
        ((b"\x01" + bytes(slot - 1)) * k + bytes((k - 1) * slot)) * (rows + cols), "little"
    )
    low = (1 << (bits * k)) - 1
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
        # the column has total rows, reduced and read whole: slot v of
        # element r is entries[r*stride + v]
        slots = total * stride
        mod = kron.slot_mod(slots, slot, q)
        reduced = mod(_ring_replay(kron.pack_vector(col, k, slot), steps, k, slot, q, mask))
        entries = kron.slots(slots, slot).unpack(reduced.to_bytes(slots * slot, "little"))
        # the first free row of least valuation v
        for v in range(k):
            p = next((r for r in free if entries[r * stride + v]), None)
            if p is not None:
                break
        else:
            exps.append(0)
            continue
        free.remove(p)
        w = _series_inverse(field, entries[p * stride + v : p * stride + k])
        shift = bits * stride * p
        # q - c for each low slot c of an element: -c wherever it is
        # multiplied and then reduced, as G*w and in back-substitution
        neg = (qs & ((1 << (bits * slots)) - 1)) - reduced
        # G: slot t - v of element r is slot t of neg[r], 0 in row p
        g = neg >> (bits * v) & mask
        g -= g & (low << shift)
        if v:
            below = (1 << (bits * v)) - 1
            for _, r, _, later in pivots:
                if any(entries[r * stride : r * stride + v]):
                    later.append((i, neg >> (bits * stride * r) & below))
            g |= 1 << (bits * (total * stride + k - v))  # x**(k-v), the annihilator row
            free.append(total)
            total += 1
        w = kron.pack(w, slot)
        steps.append((shift, w, kron.slot_mod(total * stride, slot, q)(g * w & mask)))
        pivots.append((i, p, v, []))
        exps.append(k - v)
    referred = {j for _, _, _, later in pivots for j, _ in later}
    return RingElimination(
        q,
        k,
        rows,
        cols,
        slot,
        total * stride,
        mask,
        sum(low << (bits * stride * r) for r in free),
        tuple(exps),
        tuple(steps),
        tuple((i, stride * p, v, tuple(later), i in referred) for i, p, v, later in pivots),
    )


def rank(field: Field, a: Matrix) -> int:
    """Row rank over GF(q)."""
    return eliminate_ring(field, 1, [a.col(j) for j in range(a.cols)]).rank
