"""Exact arithmetic in prime fields GF(q) for word-sized q.

Elements are plain ints kept as canonical residues in [0, q); the
modulus lives in a :class:`Field` context object, not on each element.
A Field may carry an :class:`OpCounter`, in which case multiplications
and additions performed through it are tallied.  All operation
accounting in the package bottoms out here.

Moduli are restricted to primes below 2**61 so that every product fits
a 128-bit intermediate.  Inverses go through the extended Euclidean
algorithm (no counted multiplications, and exact for q = 2).

Serialization conventions: field elements are decimal strings in JSON
and 8-byte big-endian unsigned integers on the wire.

Randomness comes from :class:`Rng`, a splitmix64 stream.  The generator
is pinned (constants below) so that two runs, or two implementations,
sharing a seed produce identical transcripts; with no seed it boots
from OS entropy, which is the default for key generation.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

from .errors import InvalidParams, ZeroInverse

MAX_MODULUS_BITS = 61

_U64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment

# Deterministic Miller-Rabin witnesses; exact for n < 3.317e24 > 2**61.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64.

    Cached, because every Field re-checks its modulus and a protocol run
    builds several Fields over the same q."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class OpCounter:
    """Tally of counted field operations.

    Counts only grow while a counter is attached to a Field; callers
    confine a counter to one logical task (no internal locking).
    """

    mul_count: int = 0
    add_count: int = 0


class Rng:
    """splitmix64 pseudorandom stream.

    State update: ``s += 0x9E3779B97F4A7C15`` (mod 2**64); output is the
    new state mixed with the constants 0xBF58476D1CE4E5B9 (xor-shift 30)
    and 0x94D049BB133111EB (xor-shift 27), then xor-shift 31.  Bounded
    draws reject words at or above the largest multiple of the bound, so
    they are exactly uniform.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection on 64-bit words, for
        1 <= n <= 2**64; a larger bound raises ValueError, since no
        64-bit word could then be accepted."""
        _check_bound(n)
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.next_u64()
            if w < threshold:
                return w % n

    def below_many(self, bounds: int | tuple[int, ...], count: int) -> list[int]:
        """``count`` bounded draws, word i below ``bounds[i % len(bounds)]``
        (an int is the 1-tuple): the draws of as many ``below`` calls, in
        order, and the same state after them.

        splitmix64 is counter-based, so a batch of words is computed at
        once, in 128-bit lanes of one integer (SIMD within a register):
        lane i holds state + (i+1)*gamma, and the mixing rounds run on
        the whole integer, each cut back to 64 bits per lane.  Each bound
        owns the lanes of its phase (``_phases``), where its words are
        reduced by Barrett reduction with its own constants, as
        ``kron.slot_mod`` does per slot, and one struct call reads the
        batch.  In a batch in which some word is rejected, the words are
        instead taken one by one, as ``below`` takes them, so the batch
        may yield fewer draws than words.  Batches hold at most RNG_BATCH
        words, whose lane constants are cached."""
        if not isinstance(bounds, tuple):
            bounds = (bounds,)
        if not bounds:
            raise ValueError("bounds must not be empty")
        for n in bounds:
            _check_bound(n)
        if count < 0:
            raise ValueError("count must be non-negative")
        period = len(bounds)
        out: list[int] = []
        while len(out) < count:
            start, size = len(out), min(count - len(out), RNG_BATCH)
            ones, ramp, mask, read = _lanes(size)
            rejected, phases = _phases(bounds, size, start % period)
            x = (self.state * ones + ramp) & mask
            x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
            x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
            x = (x ^ (x >> 31)) & mask
            self.state = (self.state + size * _GAMMA) & _U64
            # bit 64 of a lane is set by + rejected iff its word is rejected
            if rejected and (x + rejected) >> 64 & ones:
                # take the words in turn, as below does: a rejected word
                # is skipped, and its bound passes to the next word
                limits = [(1 << 64) - (1 << 64) % n for n in bounds]
                for w in read.unpack(x.to_bytes(16 * size, "little")):
                    t = len(out) % period
                    if w < limits[t]:
                        out.append(w % bounds[t])
                continue
            reduced = 0
            for n, mu, top, fix, lane, low in phases:
                # Barrett per lane: the quotient estimate is at most one short
                y = x & low
                y -= ((y * mu >> 64) & mask) * n
                reduced |= y - ((y + fix) >> top & lane) * n
            out += read.unpack(reduced.to_bytes(16 * size, "little"))
        return out


def _check_bound(n: int) -> None:
    if n <= 0:
        raise ValueError("bound must be positive")
    if n > 1 << 64:
        raise ValueError("bound must be at most 2**64")


# ``Rng.below_many`` draws in batches of at most RNG_BATCH words, and
# keeps the lane constants of its RNG_CACHE_SIZE most recent batch sizes
# (about 12 KB each at most) and the bounds' constants of as many
# batches (about 4 KB plus 12 KB per bound at most), so a long-lived
# process that meets many sizes and moduli (a listener fed PARAMS with
# large D) holds about 3 MB of them for the bounds the library draws
# below (one modulus, or a bit and a modulus).
RNG_BATCH = 256
RNG_CACHE_SIZE = 64


@functools.lru_cache(maxsize=RNG_CACHE_SIZE)
def _phases(bounds: tuple[int, ...], size: int, start: int) -> tuple[int, tuple]:
    """For a batch of ``size`` 128-bit lanes, lane i drawing below
    bounds[(start + i) % len(bounds)]: the rejection offsets 2**64 % n in
    their lanes, and per phase t < min(len(bounds), size) its bound n,
    Barrett constants mu and top, the offset 2**top - n in its lanes, 1
    in its lanes, and the low 64 bits of its lanes."""
    period = len(bounds)
    every = int.from_bytes((b"\x01" + bytes(16 * period - 1)) * -(-size // period), "little")
    rejected, phases = 0, []
    for t in range(min(period, size)):
        n = bounds[(start + t) % period]
        lane = (every << (128 * t)) % (1 << (128 * size))
        top = n.bit_length() + 1
        rejected += (1 << 64) % n * lane
        phases.append((n, (1 << 64) // n, top, ((1 << top) - n) * lane, lane, lane * _U64))
    return rejected, tuple(phases)


@functools.lru_cache(maxsize=RNG_CACHE_SIZE)
def _lanes(size: int) -> tuple[int, int, int, struct.Struct]:
    """For ``size`` 128-bit lanes: 1 in each lane, (i+1)*gamma in lane i,
    the low 64 bits of each lane, and the struct that reads those."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
    ramp = int.from_bytes(b"".join([(i + 1).to_bytes(16, "little") for i in range(size)]), "little")
    return ones, ramp * _GAMMA, ones * _U64, struct.Struct("<" + "Q8x" * size)


class Field:
    """Arithmetic context for GF(q).

    All methods are total on canonical residues.  ``mul`` bumps the
    attached counter's mul_count (additions are charged by the linalg
    kernels that make them).  Inversion is not counted.
    """

    __slots__ = ("q", "counter")

    def __init__(self, q: int, counter: OpCounter | None = None):
        if q < 2 or q.bit_length() > MAX_MODULUS_BITS or not is_prime(q):
            raise InvalidParams(f"modulus must be a prime in [2, 2**61), got {q}")
        self.q = q
        self.counter = counter

    def mul(self, a: int, b: int) -> int:
        if self.counter is not None:
            self.counter.mul_count += 1
        return a * b % self.q

    def inv(self, a: int) -> int:
        """Inverse by extended Euclid; raises ZeroInverse for a = 0."""
        if a == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.q}")
        old_r, r = a, self.q
        old_s, s = 1, 0
        while r:
            quot = old_r // r
            old_r, r = r, old_r - quot * r
            old_s, s = s, old_s - quot * s
        return old_s % self.q

    def pow(self, a: int, e: int) -> int:
        """a**e by left-to-right square-and-multiply; 0**0 = 1.

        Uses at most 2*floor(log2 e) counted multiplications for e >= 1
        (bit_length - 1 squarings plus popcount - 1 extra multiplies).
        """
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if e == 0:
            return 1 % self.q
        acc = a
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def sample(self, rng: Rng) -> int:
        """Uniform residue in [0, q)."""
        return rng.below(self.q)

    def __repr__(self) -> str:
        return f"Field({self.q})"
