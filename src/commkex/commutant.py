"""Commuting matrix families over GF(q) and the private-key ring.

Two kinds of k x k generator blocks are used, and they commute
pairwise:

  * scalar blocks  mu * I, and
  * Jordan blocks  lambda * I + N,

where N is the upper-shift nilpotent (ones on the first superdiagonal,
N**k = 0).  For k = 1 the shift part is empty and both kinds collapse
to 1x1 scalars.

From these, two families of m x m matrices are built (m = d*k, d >= 2):

  * coefficient embeddings: diag(P, ..., P), d identical copies of an
    upper-triangular Toeplitz block P = sum_j c_j N**j (a ShiftPoly).
    Every such matrix commutes with everything in the second family.
  * block grids: d x d grids of generator blocks.  Grids do NOT
    commute among themselves in general, so products of grids are
    ordered mono-terms.

Sums of scaled mono-terms form a ring.  One fixed element of it, the
public base, is sampled here; private keys are polynomials in the base
with coefficient embeddings as coefficients, which makes any two
private keys commute -- the property the key exchange rides on.

Every matrix above is a d x d matrix over the commutative ring
R = GF(q)[N]/(N**k): each k x k block is upper-triangular Toeplitz,
i.e. a ShiftPoly.  The algebra is computed in that form (RingMatrix),
including such a matrix applied to a vector (PowerTable.act,
apply_key_poly, apply_key_product); dense m x m matrices are only built
where a caller needs one.  Packed integers are written and read through
the slot codec (``kron``), and their dot products are taken by its one
dot kernel (``kron.dots``).  A public base's packed powers, which key
evaluation reads, live in one PowerTable kept by the parameters
(``kex.Params.z_powers``), and so does the public vector's packed orbit
(``kex.Params.zeta_orbit``), which key application reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import chain, compress, islice
from typing import NamedTuple, Optional, Sequence

from . import kron
from .errors import (
    DegenerateRingElement,
    DimensionMismatch,
    InvalidDimension,
    NotBlockToeplitz,
)
from .gf import Field, Rng
from .linalg import Matrix, mat_apply, mat_mul

KIND_SCALAR = "scalar"
KIND_JORDAN = "jordan"
# Sampled grids are raised to exponents in [0, MAX_GRID_EXP].
MAX_GRID_EXP = 3
# Draws the base sampler rejects before it gives up.
SAMPLE_MAX_ATTEMPTS = 16


@dataclass(frozen=True)
class GeneratorBlock:
    """A k x k commuting generator: scalar (value*I) or Jordan
    (value*I + N)."""

    kind: str
    value: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidDimension("block size must be at least 1")
        if self.kind not in (KIND_SCALAR, KIND_JORDAN):
            raise InvalidDimension(f"unknown generator kind {self.kind!r}")

    def residues(self, field: Field) -> list[int]:
        """The block as an element of R: its k shift coefficients."""
        out = [self.value % field.q] + [0] * (self.k - 1)
        if self.kind == KIND_JORDAN and self.k > 1:
            out[1] = 1
        return out


@dataclass(frozen=True)
class ShiftPoly:
    """Coefficients (c0, ..., c_{k-1}) of sum_j c_j N**j.

    Its dense form (``embed_block_diag(field, poly, 1)``) is the
    upper-triangular Toeplitz matrix with entry (i, j) = c_{j-i} for
    j >= i.  Closed under sum and product; the product is coefficient
    convolution truncated to length k because N**k = 0, which the packed
    block products (``PowerTable.columns``) compute.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidDimension("shift polynomial needs at least one coefficient")

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def add(self, other: "ShiftPoly", field: Field) -> "ShiftPoly":
        if self.k != other.k:
            raise DimensionMismatch("shift polynomial sizes differ")
        q = field.q
        return ShiftPoly(tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)))


@dataclass(frozen=True, slots=True)
class RingMatrix:
    """A d x d matrix over R = GF(q)[N]/(N**k), a frozen value.

    ``blocks`` holds the d*d entries row-major, a tuple of k-tuples (lists
    are read into them): the canonical residues (c_0, ..., c_{k-1}) of
    sum_j c_j N**j, the first row of the Toeplitz block it realizes as.
    Products are taken packed (``PowerTable.columns``): each block is one
    integer (see ``kron.pack``), so entry (i, j) of a product is one dot
    product of d packed integers, d**3 big-integer products in all
    against (d*k)**3 multiplications for the dense m x m product.  Applied
    to a vector (``apply``, ``PowerTable.act``), it costs d**2 big-integer
    products against m**2 multiplications.  The packed powers of a public
    base live in a ``PowerTable``.  Ring operations are not charged to an
    OpCounter.

    ``packed`` is (slot, the bytes of the blocks packed as
    ``PowerTable.base`` packs them) when the matrix came out of a
    reduction that had them at hand (``eval_key_poly``), else None;
    equality ignores it.  With ``rows``, ``cols`` and ``apply`` it stands
    in for its dense realization in ``linalg.mat_apply``, so a derive
    applies a key at the paper's m**2 count without building it densely.
    """

    k: int
    d: int
    blocks: tuple[tuple[int, ...], ...]
    packed: Optional[tuple[int, bytes]] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # via a list: tuple() of an iterator resizes its result, which is
        # freed to a free list it was not taken from, so they fill up
        object.__setattr__(self, "blocks", tuple(list(map(tuple, self.blocks))))

    # m, the side of the dense realization
    rows = cols = property(lambda self: self.k * self.d)

    def apply(self, q: int, v: Sequence[int]) -> list[int]:
        """self @ v for canonical residues v, without the dense form: block
        row i against v's k-chunks packed reversed (``kron.pack_chunks``),
        d**2 packed products (``kron.block_dots``, the product
        ``PowerTable.act`` takes), every slot reduced by one
        ``kron.slot_mod`` and read by one struct call.  The packed blocks
        are cut from the carried bytes (``packed``) by one struct call, or
        packed from the residues at a slot that holds m terms."""
        if self.packed is not None:
            slot, raw = self.packed
            blocks = kron.elements(raw, self.k * slot)
        else:
            slot = kron.slot_bytes(q, self.rows)
            blocks = kron.pack_elements(list(chain.from_iterable(self.blocks)), self.k, slot)
        chunks = kron.pack_chunks(v, self.k, slot)
        return kron.unpack_chunks(kron.block_dots(blocks, [chunks], self.d), self.k, slot, q)

    @classmethod
    def embed(cls, field: Field, poly: ShiftPoly, d: int) -> "RingMatrix":
        """diag(P, ..., P), d copies of the poly."""
        if d < 1:
            raise InvalidDimension("block count must be at least 1")
        k, q = poly.k, field.q
        diag = tuple([c % q for c in poly.coeffs])
        zero = (0,) * k
        return cls(k, d, [diag if i == j else zero for i in range(d) for j in range(d)])

    @classmethod
    def from_matrix(cls, mat: Matrix, k: int, d: int) -> "RingMatrix":
        """Read a dense m x m matrix as a d x d matrix over R.

        Raises DimensionMismatch for a wrong shape and NotBlockToeplitz
        when some k x k block is not upper-triangular Toeplitz.
        """
        m = d * k
        if mat.rows != m or mat.cols != m:
            raise DimensionMismatch(
                f"matrix is {mat.rows}x{mat.cols}, expected {m}x{m} for k={k}, d={d}"
            )
        e = mat.entries
        # Each block's first row; the matrix is in R iff it is the
        # realization of those rows.
        starts = [bi * k * m + bj * k for bi in range(d) for bj in range(d)]
        ring = cls(k, d, [e[s : s + k] for s in starts])
        back = _realize(ring.blocks, k, d, 0)
        if back != e:
            bad = next(i for i, (x, y) in enumerate(zip(back, e)) if x != y)
            raise NotBlockToeplitz(
                f"block ({bad // m // k}, {bad % m // k}) is not upper-triangular Toeplitz"
            )
        return ring

    def to_matrix(self) -> Matrix:
        """The dense m x m realization (``_realize``)."""
        return Matrix(self.rows, self.cols, _realize(self.blocks, self.k, self.d, 0))

    def is_embedding(self) -> bool:
        """True iff this is diag(P, ..., P) for one P in R."""
        d, first = self.d, self.blocks[0]
        return all(
            blk == first if n // d == n % d else not any(blk)
            for n, blk in enumerate(self.blocks)
        )

    def is_scalar(self) -> bool:
        """True iff the dense matrix is a multiple of the identity."""
        return self.is_embedding() and not any(self.blocks[0][1:])


class PowerTable:
    """The packed powers z**0 .. z**(count-1) of a ring matrix z, for
    key polynomials of up to ``count`` coefficients, and z acting on
    packed vectors; ``Params.z_powers`` is the public base's, at count
    D+1.  A table's count is fixed.

    ``base`` is z's blocks, packed, row-major.  ``columns[n][i]`` is
    block n of z**i, packed (z**0 is the identity); the columns are built
    on first read and published by one assignment, so threads sharing a
    table at worst build them twice.  Slots are wide enough for a sum of
    count*k terms (a key-polynomial block) and of d*k terms (a block row
    applied to a vector).  ``capacity`` is how many coefficients a key
    polynomial applied to a packed orbit may have for its sums to fit a
    slot, n*k*(q-1)**2 < 2**(8*slot): at least count, and with the
    slot's byte rounding often far more.

    A vector of m residues is packed (``pack``) as d chunks of k, each
    reversed (``kron.pack_chunks``), since a block then acts on a chunk
    as a truncated convolution.  ``act`` applies z to a packed vector
    and keeps it packed, so an orbit v, z v, z**2 v, ... (``Orbit``) is
    packed once and unpacked only where a caller reads a vector.
    """

    __slots__ = ("field", "z", "count", "slot", "capacity", "base", "_columns")

    def __init__(self, field: Field, z: RingMatrix, count: int):
        self.field = field
        self.z = z
        self.count = count
        self.slot = kron.slot_bytes(field.q, max(count, z.d) * z.k)
        self.capacity = ((1 << (8 * self.slot)) - 1) // (z.k * (field.q - 1) ** 2)
        self.base = kron.pack_elements(list(chain.from_iterable(z.blocks)), z.k, self.slot)
        self._columns: Optional[list[tuple[int, ...]]] = None

    @property
    def columns(self) -> list[tuple[int, ...]]:
        columns = self._columns
        if columns is None:
            k, d, q, slot = self.z.k, self.z.d, self.field.q, self.slot
            # z**i = z**(i-1) @ z over R: d**3 packed products, d*k per slot
            zcols = [self.base[j::d] for j in range(d)]
            packed = [[int(n % (d + 1) == 0) for n in range(d * d)], self.base]
            for _ in range(2, self.count):
                packed.append(kron.reduce(kron.block_dots(packed[-1], zcols, d), k, slot, q))
            columns = self._columns = list(zip(*packed[: self.count]))
        return columns

    def pack(self, vec: Sequence[int]) -> list[int]:
        """A vector of m canonical residues as d packed chunks, each
        reversed (``kron.pack_chunks``): a chunk's first entry lands in
        its highest slot."""
        k, d = self.z.k, self.z.d
        if len(vec) != k * d:
            raise DimensionMismatch(f"ring matrix of size {k * d} applied to length {len(vec)}")
        return kron.pack_chunks(vec, k, self.slot)

    def act(self, chunks: Sequence[int]) -> list[int]:
        """z @ v for v packed by ``pack``, packed the same way: output
        chunk i is the low k slots of one dot product of row i's packed
        blocks with the chunks (``kron.block_dots``), each slot reduced
        mod q (d**2 products)."""
        z = self.z
        return kron.reduce(kron.block_dots(self.base, [chunks], z.d), z.k, self.slot, self.field.q)

    def unpack(self, chunks: Sequence[int]) -> list[int]:
        """The vector that packed chunks hold: each chunk's low k slots,
        reduced mod q, in vector order (``kron.unpack_chunks``)."""
        return kron.unpack_chunks(chunks, self.z.k, self.slot, self.field.q)


class Orbit:
    """vec, z vec, z**2 vec, ... packed by a PowerTable of z, built only
    as far as it is read; ``Params.zeta_orbit`` is the public vector's.
    ``upto`` extends the powers built so far and republishes them by one
    assignment, so threads sharing an orbit at worst build a power
    twice."""

    __slots__ = ("table", "vec", "_powers")

    def __init__(self, table: PowerTable, vec: Sequence[int]):
        self.table = table
        self.vec = vec
        self._powers: tuple[list[int], ...] = ()

    def upto(self, top: int) -> tuple[list[int], ...]:
        """The packed z**0 vec .. z**top vec."""
        powers = self._powers
        if len(powers) <= top:
            table = self.table
            grown = list(powers) or [table.pack(self.vec)]
            while len(grown) <= top:
                grown.append(table.act(grown[-1]))
            powers = self._powers = tuple(grown)
        return powers[: top + 1]


def _realize(blocks: Sequence[Sequence], k: int, d: int, zero) -> list:
    """The dense m x m realization, row-major, of d*d blocks given by
    their first rows, residues or their decimal strings: row r of a block
    is its first row shifted right by r, the slice pad[k-1-r : 2k-1-r] of
    the row left-padded once with k - 1 ``zero``s."""
    zeros = [zero] * (k - 1)
    padded = [[*zeros, *blk] for blk in blocks]
    entries: list = []
    extend = entries.extend
    for bi in range(0, d * d, d):
        row_blocks = padded[bi : bi + d]
        for s in reversed(range(k)):  # row k - 1 - s of the block row
            for pad in row_blocks:
                extend(pad[s : s + k])
    return entries


def _key_pass(
    table: PowerTable,
    coeffs: Sequence[ShiftPoly],
    columns: Sequence[Sequence[int]],
    images: Sequence[Sequence[int]],
) -> tuple[bytes, tuple[int, ...], list[int]]:
    """The one pass of a key polynomial sum_i diag(a_i) * z**i.  The a_i
    are packed by one struct call (reduced mod q first only when some
    residue is not canonical; a drawn key's are), and dotted by one
    ``kron.dots`` with each of ``columns`` (block columns of the table's
    powers, or none) and with the d chunk columns of ``images`` (a
    vector's packed orbit, or none).  Every dot's low k slots are reduced
    by one ``kron.reduced_bytes`` and read by one struct call per part.
    Returns the reduced bytes of the block dots, their residues, and the
    vector that the chunk dots hold (read as ``PowerTable.unpack``
    reads)."""
    k, slot, q, n = table.z.k, table.slot, table.field.q, len(columns)
    residues = list(chain.from_iterable(c.coeffs for c in coeffs))
    if min(residues) < 0 or max(residues) >= q:
        residues = [x % q for x in residues]
    dots = kron.dots(kron.pack_elements(residues, k, slot), chain(columns, zip(*images)))
    # the chunk dots reversed: the vector is then the slots after the blocks', reversed
    raw = kron.reduced_bytes(dots[:n] + dots[n:][::-1], k, slot, q)
    # a struct per part: one over both is past CODEC_CACHE_SLOTS, and
    # compiled per call, at shapes where neither part is (8x16, 2x32)
    cut = n * k * slot
    chunks = kron.slots((len(dots) - n) * k, slot).unpack_from(raw, cut)
    return raw[:cut], kron.slots(n * k, slot).unpack_from(raw), list(chunks[::-1])


def embed_block_diag(field: Field, poly: ShiftPoly, d: int) -> Matrix:
    """m x m block diagonal with d copies of the poly's realization."""
    return RingMatrix.embed(field, poly, d).to_matrix()


@dataclass(frozen=True)
class BlockGrid:
    """A d x d grid of generator blocks, realized as an m x m matrix."""

    blocks: tuple[tuple[GeneratorBlock, ...], ...]

    def __post_init__(self):
        d = len(self.blocks)
        if d < 1:
            raise DimensionMismatch("grid needs at least one row")
        k = self.blocks[0][0].k
        for row in self.blocks:
            if len(row) != d:
                raise DimensionMismatch("grid must be square")
            for blk in row:
                if blk.k != k:
                    raise DimensionMismatch("grid blocks must share one size")

    @property
    def d(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return self.blocks[0][0].k

    def realize(self, field: Field) -> Matrix:
        residues = [blk.residues(field) for row in self.blocks for blk in row]
        return RingMatrix(self.k, self.d, residues).to_matrix()


class FlatRecipe(NamedTuple):
    """A sum of mono-terms, coeff * prod grid**exp over ordered factors,
    as plain data: per term its coefficient and factor count, per factor
    its exponent, and per generator block (the factors' d x d grids in
    order, each row-major) its kind and value."""

    coeffs: tuple[int, ...]
    counts: tuple[int, ...]
    exps: tuple[int, ...]
    kinds: tuple[str, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class RingSample:
    """A sampled element of the grid ring, held in R, plus the recipe it
    was built from as a ``FlatRecipe`` (None when loaded without one):
    provenance that params.json carries and that nothing reads after
    sampling.  The dense m x m ``matrix`` is built on first read."""

    ring: RingMatrix
    flat: Optional[FlatRecipe] = None

    @cached_property
    def matrix(self) -> Matrix:
        return self.ring.to_matrix()


def eval_recipe(field: Field, k: int, d: int, recipe: FlatRecipe) -> RingMatrix:
    """Evaluate a recipe's sum of mono-terms in R.  A generator grid is
    G = V + N*J, V the d x d matrix of its block values and J the 0/1
    matrix of its Jordan flags, so a running product P times G is
    P*V + N*(P*J): no block product of two full elements of R is taken.

    P is held as d packed column integers, element (i, l) at slots
    i*k .. i*k + k - 1, first residue lowest.  Column l of P*G is
    sum_j v_jl * P_j plus the sum of the P_j with J_jl set, times N:
    shifted up one slot after each element's top slot is dropped
    (N**k = 0; at k = 1 that term is 0).  So a grid power costs d**2
    products of a residue by a column integer (one ``kron.dots``), and
    one reduction of all its slots (``kron.reduce``).  A term's product
    starts from its first grid power (the identity only when every
    exponent is 0); the term sum stays in column form until it is
    unpacked, once."""
    q, n = field.q, d * d
    coeffs, counts, exps, kinds, values = recipe
    consistent = len(kinds) == len(values) == n * len(exps) == n * sum(counts)
    if not consistent or len(coeffs) != len(counts):
        raise DimensionMismatch(f"recipe lengths disagree with d={d} or each other")
    # a slot holds d*k products, more than a column sum's d*(q-1)**2 + d*(q-1)
    dk, slot = d * k, kron.slot_bytes(q, d * k)
    width = 8 * slot
    # each element's low k - 1 slots: the ones that N shifts up, not out
    trunc = int.from_bytes((b"\xff" * (slot * (k - 1)) + bytes(slot)) * d, "little")
    identity = [1 << (width * k * l) for l in range(d)]
    total = [0] * d
    factors = iter(enumerate(exps))
    for coeff, count in zip(coeffs, counts):
        prod: Optional[list[int]] = None
        for f, exp in islice(factors, count):
            if not exp:
                continue
            cols = [slice(f * n + l, f * n + n, d) for l in range(d)]
            vcols = [[v % q for v in values[c]] for c in cols]
            jcols = [[kd == KIND_JORDAN for kd in kinds[c]] if k > 1 else () for c in cols]
            for _ in range(exp):
                p = prod or identity
                vdots = kron.dots(p, vcols)
                new = [x + ((sum(compress(p, jc)) & trunc) << width) for x, jc in zip(vdots, jcols)]
                # the identity times G is G, whose residues are canonical
                prod = kron.reduce(new, dk, slot, q) if prod else new
        c = coeff % q
        total = kron.reduce([t + c * p for t, p in zip(total, prod or identity)], dk, slot, q)
    flat = kron.slot_values(total, dk, slot, q)
    # flat is column-major: block (i, l) starts at (l*d + i)*k
    starts = [(l * d + i) * k for i in range(d) for l in range(d)]
    return RingMatrix(k, d, [flat[s : s + k] for s in starts])


def _draw_grid(field: Field, d: int, rng: Rng) -> tuple[list[str], list[int]]:
    """A grid's d*d blocks, row-major, each drawn as its kind, then its
    value, by one ``Rng.below_many`` call: their kinds and their values."""
    draws = rng.below_many((2, field.q), 2 * d * d)
    return [KIND_JORDAN if b else KIND_SCALAR for b in draws[0::2]], draws[1::2]


def random_block_grid(field: Field, k: int, d: int, rng: Rng) -> BlockGrid:
    """Grid with blocks drawn row-major (fixed order for reproducibility)."""
    blocks = [GeneratorBlock(kd, v, k) for kd, v in zip(*_draw_grid(field, d, rng))]
    return BlockGrid(tuple(tuple(blocks[i : i + d]) for i in range(0, d * d, d)))


def random_shift_poly(field: Field, k: int, rng: Rng) -> ShiftPoly:
    return ShiftPoly(tuple(rng.below_many(field.q, k)))


def _is_parallel(field: Field, u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u = c*v for some scalar c (v must be nonzero)."""
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        raise ValueError("reference vector is zero")
    c = u[pivot] * field.inv(v[pivot]) % field.q
    return all(x == c * y % field.q for x, y in zip(u, v))


def sample_ring_element(
    field: Field,
    k: int,
    d: int,
    rng: Rng,
    base_vector: Optional[Sequence[int]] = None,
) -> RingSample:
    """Sample a non-degenerate public base from the grid ring.

    Builds a sum of 1..4 mono-terms, each a product of 1..3 random
    grids raised to exponents in [0, 3], with random coefficients.  A
    draw is rejected when it collapses into the coefficient family (the
    key ring would then be commutative for trivial reasons), or, once
    the public vector is known, when it maps that vector to a scalar
    multiple of itself; both rules are decided in R.  Raises after
    ``SAMPLE_MAX_ATTEMPTS`` rejections.

    Draw order (fixed so seeded runs reproduce byte-for-byte): number
    of terms, then per term the factor count, per factor the grid
    (blocks row-major: kind then value, its 2*d*d draws by one
    ``Rng.below_many((2, q), ...)`` call) and its exponent, then the
    term coefficient.  The draws go straight into a ``FlatRecipe``,
    which one ``eval_recipe`` call per draw evaluates.
    """
    for _ in range(SAMPLE_MAX_ATTEMPTS):
        coeffs: list[int] = []
        counts: list[int] = []
        exps: list[int] = []
        kinds: list[str] = []
        values: list[int] = []
        for _ in range(1 + rng.below(4)):
            counts.append(1 + rng.below(3))
            for _ in range(counts[-1]):
                grid_kinds, grid_values = _draw_grid(field, d, rng)
                kinds += grid_kinds
                values += grid_values
                exps.append(rng.below(MAX_GRID_EXP + 1))
            coeffs.append(field.sample(rng))
        recipe = FlatRecipe(*map(tuple, (coeffs, counts, exps, kinds, values)))
        ring = eval_recipe(field, k, d, recipe)
        if ring.is_embedding():
            continue
        if base_vector is not None and _is_parallel(
            field, mat_apply(field, ring, base_vector), base_vector
        ):
            continue
        return RingSample(ring, recipe)
    raise DegenerateRingElement(
        f"no usable ring element after {SAMPLE_MAX_ATTEMPTS} attempts (k={k}, d={d})"
    )


def eval_key_poly(
    field: Field,
    coeffs: Sequence[ShiftPoly],
    base: PowerTable | Matrix,
    d: int,
    images: Optional[Sequence[Sequence[int]]] = None,
) -> RingMatrix | Matrix | tuple[RingMatrix, list[int]]:
    """Evaluate sum_i diag(a_i) * z**i in R, in one pass.

    R is commutative, so block n of the result is sum_i a_i * (z**i)_n:
    the packed a_i dotted with column n of z's power table (``kron.dots``).
    The result commutes with z.  ``base`` is a PowerTable of at least
    len(coeffs) powers, and the result is a RingMatrix; or z's dense
    m x m matrix, read into R (raising NotBlockToeplitz if it is not in
    R) with a table of its own, and the result is dense.  The d**2 dots
    are reduced once; the residues are read from that reduction's bytes,
    and the RingMatrix carries the bytes (``packed``), from which
    ``RingMatrix.apply`` cuts the packed blocks at the table's slot (it
    holds m terms).

    With ``images``, a vector's packed orbit z**i vec for i <
    len(coeffs) by the PowerTable ``base`` (``Orbit.upto``), it returns
    (key, key @ vec): the same ``kron.dots`` call also dots the packed a_i
    with the images' d chunk columns, as ``apply_key_poly`` does, and the
    same reduction reads the vector (``_key_pass``).  Keygen computes a
    key and its public key so.
    """
    if not coeffs:
        raise DimensionMismatch("key polynomial needs at least one coefficient")
    k = coeffs[0].k
    for c in coeffs:
        if c.k != k:
            raise DimensionMismatch("coefficient sizes differ")
    dense = isinstance(base, Matrix)
    table = PowerTable(field, RingMatrix.from_matrix(base, k, d), len(coeffs)) if dense else base
    z, slot = table.z, table.slot
    if z.k != k or z.d != d or len(coeffs) > table.count:
        raise DimensionMismatch(
            f"{len(coeffs)} coefficients (k={k}, d={d}) for {table.count} powers (k={z.k}, d={z.d})"
        )
    if images is not None and (
        dense or len(images) != len(coeffs) or any(len(v) != d for v in images)
    ):
        raise DimensionMismatch("images need a PowerTable base, d chunks each, one per coefficient")
    raw, flat, vec = _key_pass(table, coeffs, table.columns, images or ())
    key = RingMatrix(k, d, [flat[s : s + k] for s in range(0, len(flat), k)], (slot, raw))
    if dense:
        return key.to_matrix()
    return key if images is None else (key, vec)


def apply_key_poly(
    table: PowerTable, coeffs: Sequence[ShiftPoly], images: Sequence[Sequence[int]]
) -> list[int]:
    """sum_i diag(a_i) @ z**i vec for the table's z, given vec's packed
    orbit images[i] = z**i vec (``Orbit.upto``): the key polynomial
    applied to vec without building the key.  Output chunk b is the
    packed a_i dotted with chunk b of the images: d dots of len(coeffs)
    products in one ``kron.dots``, reduced once (``_key_pass``, the pass
    ``eval_key_poly`` takes, here with no block columns).  It needs
    len(coeffs) <= table.capacity, so that the table's slot holds the sum.
    """
    z = table.z
    if not coeffs or len(images) != len(coeffs) or len(coeffs) > table.capacity:
        raise DimensionMismatch(
            f"{len(coeffs)} coefficients for {len(images)} images "
            f"and a slot that holds {table.capacity}"
        )
    if any(c.k != z.k for c in coeffs) or any(len(v) != z.d for v in images):
        raise DimensionMismatch("coefficient and image sizes disagree")
    return _key_pass(table, coeffs, (), images)[2]


def apply_key_product(
    table: PowerTable, a: Sequence[int], b: Sequence[int], images: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """(T' T'' vec, T' vec) for the table's z and the key polynomials
    T' = sum_i a_i z**i and T'' = sum_j b_j z**j of n coefficients each,
    given flat as canonical residues (a_i is a[i*k : i*k + k], as
    ``RingElimination.solve`` returns it), against vec's packed orbit
    images[t] = z**t vec, t <= 2n - 2.  Each diag(a_i) is central, so
    T' T'' is the key polynomial sum_t e_t z**t with e_t = sum_{i+j=t}
    a_i b_j in R: n**2 packed products and one reduction.  Each e_t then
    carries a_t in a second lane 2k - 1 slots up, above the 2k - 1 slots
    of a product with an image chunk, so that one ``kron.dots`` of the
    e_t with the d image chunks ((2n - 1)*d products), as in
    ``apply_key_poly``, returns both vectors.  It needs
    2n - 1 <= table.capacity.
    """
    z, q, slot = table.z, table.field.q, table.slot
    k = z.k
    n = len(a) // k
    terms = 2 * n - 1
    if (
        not a
        or len(a) != n * k
        or len(b) != len(a)
        or len(images) != terms
        or terms > table.capacity
        or any(len(v) != z.d for v in images)
    ):
        raise DimensionMismatch(
            f"key polynomials of {len(a)} and {len(b)} residues (k={k}) for "
            f"{len(images)} images and a slot that holds {table.capacity}"
        )
    elements = kron.pack_elements(list(chain(a, b)), k, slot)
    sums = [0] * terms
    for i, x in enumerate(elements[:n]):
        for j, y in enumerate(elements[n:]):
            sums[i + j] += x * y
    lane = 8 * slot * (2 * k - 1)
    fused = kron.reduce(sums, k, slot, q)
    fused[:n] = [e + (x << lane) for e, x in zip(fused, elements[:n])]
    dots = kron.dots(fused, zip(*images))
    both = table.unpack(dots + [x >> lane for x in dots])
    return both[: z.d * k], both[z.d * k :]


def check_commute(field: Field, a: Matrix, b: Matrix) -> bool:
    """True iff a@b == b@a exactly."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch("commutation check needs equal square matrices")
    return mat_mul(field, a, b) == mat_mul(field, b, a)
