"""The slot codec: residues mod q in fixed-width slots of one integer.

Packed integers (R's kernels in ``commutant`` and the eliminator in
``linalg``) leave and enter the packed form through this codec
(Kronecker substitution).  ``slot_mod`` reduces every slot of a packed
integer mod q at once, by Barrett reduction run on the whole integer:
with W = 8*slot bits per slot and mu = floor(2**W / q), the quotient
estimate floor(v*mu / 2**W) of a slot value v < 2**W is floor(v/q) or
one less, because v/q - 1 < v*mu / 2**W <= v/q, so one conditional
subtraction of q finishes the residue.  Even and odd slots are reduced apart, each value
alone in a window of two slots, so that the products v*mu never carry
into a neighbour; about twenty whole-integer operations reduce any
number of slots.  Canonical residues are written and read by one
``struct`` call per packed value or list, one machine word per slot plus
pad bytes (``slots``), always lowest slot first.  The constants of each
shape are kept in bounded caches (``_shape_cache``).

A vector is packed as elements of R = GF(q)[x]/(x**k), its k-chunks
each reversed, so that the shift N acts as x: ``pack_chunks`` and
``unpack_chunks`` write and read it one integer per chunk, and the
eliminator's ``pack_vector`` lays out the same elements in one integer.

The one dot kernel is here too: every dot product of packed integers in
``linalg`` and ``commutant``, and of residues in the dense kernels, is a
``dots`` (``block_dots`` for block matrices), len(row) products per
column; single products stay inline.
"""

from __future__ import annotations

import functools
import operator
import struct
from itertools import repeat
from typing import Callable, Iterable, Sequence


def slot_bytes(q: int, terms: int) -> int:
    """Width of a packed slot that holds a sum of ``terms`` products of
    residues mod q exactly: carries then never cross into the next slot."""
    return (2 * (q - 1).bit_length() + terms.bit_length() + 7) // 8


# The codec keeps the constants of its CODEC_CACHE_SIZE most recent
# shapes of at most CODEC_CACHE_SLOTS slots.  They grow with the slot
# count (about 190 KB at 2048 slots of 18 bytes), so a long-lived process
# that meets many shapes (a listener fed hostile PARAMS) holds about
# 12 MB of them at most.  Larger shapes are built per call.  For a
# reduction (``slot_mod``) the work on the slots outweighs the build: at
# 4096 slots of 9 bytes, about 140 us of build against 320 us of
# reduction (2-core x86-64, CPython 3.11).  For a struct it does not:
# compiling one costs about 160 us there against 90 us of packing.
CODEC_CACHE_SIZE = 64
CODEC_CACHE_SLOTS = 2048


def _shape_cache(build):
    """``build(n, ...)`` with its results kept as above."""
    kept = functools.lru_cache(maxsize=CODEC_CACHE_SIZE)(build)

    @functools.wraps(build)
    def get(n: int, *shape):
        return kept(n, *shape) if n <= CODEC_CACHE_SLOTS else build(n, *shape)

    get.cache_info = kept.cache_info
    return get


@_shape_cache
def slots(n: int, slot: int) -> struct.Struct:
    """The struct that reads or writes n consecutive slots of ``slot``
    bytes, lowest first, one canonical residue each: the widest machine
    word that fits a slot, plus pad bytes.  A slot holds 2*bitlen(q - 1)
    bits or more and q < 2**61, so the word (Q from 8 bytes up) holds any
    canonical residue; pad bytes are written as zeros and skipped when
    read."""
    word = next(w for w in "QIHB" if struct.calcsize("<" + w) <= slot)
    return struct.Struct("<" + f"{word}{slot - struct.calcsize('<' + word)}x" * n)


@_shape_cache
def slot_mod(n: int, slot: int, q: int) -> Callable[[int], int]:
    """The function that reduces each of the n slots of a packed integer
    mod q, by Barrett reduction on the whole integer (SIMD within a
    register); the integer must have no bits above its n slots.

    With W = 8*slot and mu = floor(2**W / q), a slot value v < 2**W has
    v/q - 1 < v*mu/2**W <= v/q, so the quotient estimate floor(v*mu/2**W)
    is floor(v/q) or one less, and v minus q times it lies in [0, 2q).
    The even and the odd slots are reduced apart, each value in a window
    of two slots, so that v*mu < 2**(2W) never carries into the next
    window.  The one conditional subtraction of q is read off bit b + 1
    of r + 2**(b+1) - q (b = bitlen(q)), which is set iff r >= q."""
    bits = 8 * slot
    pairs = (n + 1) // 2
    even = int.from_bytes((b"\xff" * slot + bytes(slot)) * pairs, "little")
    ones = int.from_bytes((b"\x01" + bytes(2 * slot - 1)) * pairs, "little")
    mu = (1 << bits) // q
    top = q.bit_length() + 1
    fix = ((1 << top) - q) * ones

    def mod(x: int) -> int:
        lo = x & even
        hi = x >> bits & even
        lo -= (lo * mu >> bits & even) * q
        hi -= (hi * mu >> bits & even) * q
        lo -= ((lo + fix) >> top & ones) * q
        hi -= ((hi + fix) >> top & ones) * q
        return lo | hi << bits

    return mod


def pack(residues: Sequence[int], slot: int) -> int:
    """Kronecker substitution: sum_j c_j * 2**(8*slot*j) for canonical c_j."""
    return int.from_bytes(slots(len(residues), slot).pack(*residues), "little")


def pack_elements(residues: Sequence[int], k: int, slot: int) -> list[int]:
    """Consecutive k-chunks of canonical residues, each packed into one
    integer (``pack``), written by one struct call."""
    return elements(slots(len(residues), slot).pack(*residues), k * slot)


def elements(raw: bytes, width: int) -> list[int]:
    """Consecutive ``width``-byte pieces of raw, each read as one integer."""
    pieces = _pieces(len(raw) // width, width).unpack(raw)
    return list(map(int.from_bytes, pieces, repeat("little")))


@_shape_cache
def _pieces(n: int, width: int) -> struct.Struct:
    """The struct that cuts n consecutive ``width``-byte strings."""
    return struct.Struct(f"{width}s" * n)


def reduced_bytes(values: Sequence[int], k: int, slot: int, q: int) -> bytes:
    """The low k slots of each packed integer, side by side, value 0
    lowest, each slot reduced mod q by one ``slot_mod`` of all of them:
    the bytes of the result."""
    n, width = len(values) * k, k * slot
    low = (1 << (8 * width)) - 1
    joined = b"".join([(x & low).to_bytes(width, "little") for x in values])
    return slot_mod(n, slot, q)(int.from_bytes(joined, "little")).to_bytes(n * slot, "little")


def slot_values(values: Sequence[int], k: int, slot: int, q: int) -> list[int]:
    """The low k slots of each packed integer, reduced mod q, in one flat
    list: value by value, each lowest slot first."""
    return list(slots(len(values) * k, slot).unpack(reduced_bytes(values, k, slot, q)))


def reduce(values: Sequence[int], k: int, slot: int, q: int) -> list[int]:
    """The low k slots of each packed integer, each reduced mod q, packed
    again at the same slot: ``pack(slot_values((x,), k, slot, q), slot)``
    for every x, with one reduction of all their slots."""
    return elements(reduced_bytes(values, k, slot, q), k * slot)


def pack_chunks(vec: Sequence[int], k: int, slot: int) -> list[int]:
    """A vector of canonical residues as its k-chunks, each packed
    reversed into one integer: a chunk's first entry in its highest slot."""
    return pack_elements(vec[::-1], k, slot)[::-1]


def unpack_chunks(chunks: Sequence[int], k: int, slot: int, q: int) -> list[int]:
    """The vector that chunks packed by ``pack_chunks`` hold, each slot
    reduced mod q; a chunk's bits above its k slots are dropped."""
    return slot_values(chunks[::-1], k, slot, q)[::-1]


def pack_vector(vec: Sequence[int], k: int, slot: int) -> int:
    """A vector's k-chunks packed as elements of R, reversed as by
    ``pack_chunks``, in one integer: element r fills the low k of slots
    r*(2k - 1) .. r*(2k - 1) + 2k - 2, and the high k - 1 slots take the
    overflow of a product with another element, which the caller masks
    off (x**k = 0).  The slots are laid out by k slice assignments."""
    stride = 2 * k - 1
    layout = [0] * (len(vec) // k * stride)
    for t in range(k):
        layout[t::stride] = vec[k - 1 - t :: k]
    return pack(layout, slot)


def dots(row: Sequence[int], cols: Iterable[Sequence[int]]) -> list[int]:
    """The dot product of ``row`` with each of ``cols``, left unreduced:
    len(row) products per column."""
    mul = operator.mul
    return [sum(map(mul, row, c)) for c in cols]


def block_dots(blocks: Sequence[int], cols: Iterable[Sequence[int]], d: int) -> list[int]:
    """Row by row of d x d packed blocks (row-major), its ``dots`` with
    each of ``cols``, d packed integers each: d products per dot.  Block
    products over R (``commutant.PowerTable.columns``) take the block
    columns of the other factor; a block matrix applied to a vector
    (``PowerTable.act``, ``RingMatrix.apply``) takes the vector's d
    chunks (``pack_chunks``)."""
    cols = list(cols)
    return [x for i in range(0, len(blocks), d) for x in dots(blocks[i : i + d], cols)]
