"""The key-exchange protocol: parameters, keys, derivation, accounting.

Public parameters are (q, k, d, degree bound, a public vector, and a
public ring element called the base).  A private key is a polynomial in
the base with coefficient-embedding coefficients.  The base and every
private key are held as matrices over R = GF(q)[N]/(N**k); their dense
m x m matrices are built only when a caller reads one (``matrix``).
Keys are evaluated from the base's packed powers z**0 .. z**D, which
the params keep (``z_powers``), and carry their packed blocks.  The
public key is the private key applied to the public vector, computed
from the vector's packed orbit zeta, z zeta, ..., z**D zeta, which the
params also keep (``zeta_orbit``).  The shared key is one's own
private key applied to the peer's public key, from the key's packed
blocks.  Any two private keys commute, so both parties derive the same
vector.

Both the base and the public vector are public: without a shared base
the two parties' keys would not commute, and without the vector nobody
could compute a public key in the first place.  The shared key is the
raw derived vector with a canonical byte encoding; no KDF is layered on
top -- this artifact studies the algebra, not deployment hygiene.

File formats (every integer as the decimal string ``str`` writes):

  params.json  {"q", "k", "d", "D", "zeta", "z", "seed"?}
  key.json     {"coeffs": [{"coeffs": [...]}, ...], "T": matrix}
               (1..D+1 coefficients of k entries; T must be their key
               polynomial in the params' base)
  pub.json     {"xi": {"entries": [...]}}
  shared       raw bytes, 8-byte big-endian per entry

JSON is always emitted in canonical form (sorted keys, no spaces), so
equal values serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import chain, islice
from typing import Optional, Sequence

from .commutant import (
    MAX_GRID_EXP,
    FlatRecipe,
    Orbit,
    PowerTable,
    RingMatrix,
    RingSample,
    ShiftPoly,
    apply_key_poly,
    eval_key_poly,
    _realize,
    sample_ring_element,
)
from .errors import (
    DegenerateKey,
    DimensionMismatch,
    InvalidParams,
    NotBlockToeplitz,
    ParseError,
)
from .gf import Field, OpCounter, Rng
from .linalg import Matrix, RingElimination, mat_apply

KEYGEN_MAX_ATTEMPTS = 16


@dataclass(frozen=True)
class Params:
    """Public parameters, a frozen value (the public vector a tuple).  The
    constructor checks shapes, including that the base is a d x d matrix
    over R, that the public vector and the base hold canonical residues
    mod q, and that the degree bound D is at most m**2 (the passive
    attack's retry cap).  ``z_ring`` is the base in R; a file's z is
    checked to lie in R where it is read (``ring_sample_from_obj``), and
    semantic non-degeneracy of the base is enforced where it is sampled.

    ``z_powers`` is the base's one ``PowerTable``, at count D+1, and
    ``zeta_orbit`` the public vector's packed ``Orbit`` zeta, z zeta, ...
    by that table, which keygen and ``public_key`` read up to z**D zeta
    and the passive attack as far as its elimination reads, then up to
    z**(2*top) zeta for the product of its two solutions (top, the last
    power with a pivot, is at most the bound).  Each is built on first
    use and kept (``functools.cached_property``); a longer polynomial
    gets a table of its own.  ``_passive_system`` is the passive attack's
    cache, which only ``attacks._passive_system`` reads and writes."""

    q: int
    k: int
    d: int
    degree: int
    base_vector: tuple[int, ...]
    ring_base: RingSample
    seed: Optional[int] = None
    _passive_system: Optional[tuple[int, Orbit, RingElimination]] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "base_vector", tuple(self.base_vector))
        if self.k < 1:
            raise InvalidParams("block size k must be at least 1")
        if self.d < 2:
            raise InvalidParams("block count d must be at least 2")
        if self.degree < 1:
            raise InvalidParams("degree bound must be at least 1")
        Field(self.q)  # validates primality and the size bound
        m = self.k * self.d
        if self.degree > m * m:
            raise InvalidParams(f"degree bound {self.degree} exceeds m**2 = {m * m}")
        if len(self.base_vector) != m:
            raise InvalidParams(f"public vector must have length {m}")
        if not any(self.base_vector):
            raise InvalidParams("public vector must be nonzero")
        q, k, d, z = self.q, self.k, self.d, self.z_ring
        if not all(0 <= x < q for x in self.base_vector):
            raise InvalidParams(f"public vector entries must be canonical residues mod {q}")
        if (z.k, z.d, len(z.blocks)) != (k, d, d * d) or set(map(len, z.blocks)) != {k}:
            raise InvalidParams(f"ring base must be {m}x{m}: {d * d} blocks of {k} residues")
        if not all(0 <= x < q for blk in z.blocks for x in blk):
            raise InvalidParams(f"ring base entries must be canonical residues mod {q}")

    @property
    def z_ring(self) -> RingMatrix:
        return self.ring_base.ring

    @cached_property
    def z_powers(self) -> PowerTable:
        return PowerTable(self.field(), self.z_ring, self.degree + 1)

    @cached_property
    def zeta_orbit(self) -> Orbit:
        return Orbit(self.z_powers, self.base_vector)

    @property
    def m(self) -> int:
        return self.k * self.d

    def field(self, counter: OpCounter | None = None) -> Field:
        return Field(self.q, counter)


@dataclass(frozen=True)
class PrivateKey:
    """Polynomial coefficients (a tuple) plus the key they evaluate to in
    R, which ``derive_shared`` applies; a frozen value.  The dense m x m
    ``matrix`` is built on first read; the library never reads it."""

    coeffs: tuple[ShiftPoly, ...]
    key: RingMatrix

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @cached_property
    def matrix(self) -> Matrix:
        return self.key.to_matrix()


@dataclass
class PublicKey:
    vec: list[int]


@dataclass
class SharedKey:
    vec: list[int]

    def to_bytes(self) -> bytes:
        """Canonical encoding: 8-byte big-endian per entry."""
        return vector_to_bytes(self.vec)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SharedKey":
        if len(data) % 8:
            raise ParseError(f"shared key byte length {len(data)} is not a multiple of 8")
        return cls(vector_from_bytes(data))


def vector_to_bytes(vec: Sequence[int]) -> bytes:
    """The binary form of a vector (shared keys, PUBKEY payloads): 8-byte
    big-endian per entry, written by one struct call."""
    return struct.pack(f">{len(vec)}Q", *vec)


def vector_from_bytes(data: bytes) -> list[int]:
    """Inverse of ``vector_to_bytes`` for data of a length divisible by 8,
    which the caller checks."""
    return list(struct.unpack(f">{len(data) // 8}Q", data))


def gen_params(
    q: int, k: int, d: int, degree: int, rng: Rng, seed: Optional[int] = None
) -> Params:
    """Sample public parameters.

    The public vector is drawn uniformly over nonzero vectors (whole
    vector redrawn if zero), then the ring base is sampled against it.
    Deterministic for a fixed rng seed; ``seed`` is recorded in the
    params for reproducibility and has no effect on sampling.
    """
    if k < 1 or d < 2 or not 1 <= degree <= (k * d) ** 2:
        raise InvalidParams(f"bad shape parameters k={k}, d={d}, degree={degree}")
    field = Field(q)
    m = k * d
    while True:
        vec = rng.below_many(q, m)
        if any(vec):
            break
    base = sample_ring_element(field, k, d, rng, base_vector=vec)
    return Params(q, k, d, degree, vec, base, seed)


def private_key_from_coeffs(params: Params, coeffs: Sequence[ShiftPoly]) -> PrivateKey:
    """Build a private key from 1..D+1 coefficients (no rejection rules)."""
    key = eval_key_poly(params.field(), coeffs, params.z_powers, params.d)
    return PrivateKey(coeffs, key)


def public_key(params: Params, sk: PrivateKey) -> PublicKey:
    """T zeta from the key's coefficients and the public vector's packed
    orbit: d * len(sk.coeffs) packed products, the key itself unread."""
    orbit = params.zeta_orbit.upto(len(sk.coeffs) - 1)
    return PublicKey(apply_key_poly(params.z_powers, sk.coeffs, orbit))


def keygen(params: Params, rng: Rng) -> tuple[PrivateKey, PublicKey]:
    """Sample a key pair.

    Coefficients are drawn uniformly (degree+1 polynomials of k
    coefficients each, in order, by one ``Rng.below_many`` call per
    attempt).  A draw is rejected when the key matrix kills the public
    vector or is a scalar multiple of the identity; both are weak keys
    the construction does not need.  The key is evaluated in R from
    ``params.z_powers``, and the public key from ``params.zeta_orbit``
    (d*(D+1) packed products), where both rules are decided.
    """
    field, table, k = params.field(), params.z_powers, params.k
    orbit = params.zeta_orbit.upto(params.degree)
    for _ in range(KEYGEN_MAX_ATTEMPTS):
        draw = rng.below_many(field.q, (params.degree + 1) * k)
        coeffs = [ShiftPoly(tuple(draw[i : i + k])) for i in range(0, len(draw), k)]
        key = eval_key_poly(field, coeffs, table, params.d)
        if key.is_scalar():
            continue
        pub = apply_key_poly(table, coeffs, orbit)
        if not any(pub):
            continue
        return PrivateKey(coeffs, key), PublicKey(pub)
    raise DegenerateKey(f"no usable key after {KEYGEN_MAX_ATTEMPTS} attempts")


def derive_shared(
    params: Params,
    sk: PrivateKey,
    peer: PublicKey,
    counter: OpCounter | None = None,
) -> SharedKey:
    """Own private matrix applied to the peer's public key.

    Exactly m*m counted multiplications and m*(m-1) additions, the
    paper's unit; ``mat_apply`` computes them as d**2 packed block
    products, the key's packed blocks (kept by ``eval_key_poly``)
    against the peer key's chunks, so the dense matrix is never built.
    """
    if len(peer.vec) != params.m:
        raise DimensionMismatch(
            f"peer public key has length {len(peer.vec)}, expected {params.m}"
        )
    field = params.field(counter)
    return SharedKey(mat_apply(field, sk.key, peer.vec))


@dataclass
class OpReport:
    """Operation count for one protocol action at given parameters."""

    action: str
    m: int
    mul_count: int
    add_count: int
    formula: str


def count_ops(action: str, params: Params) -> OpReport:
    """Count field operations for a protocol action.

    ``derive_shared`` costs exactly m**2 multiplications (and m*(m-1)
    additions): one matrix-vector application, which the library
    computes as d**2 packed block products.  ``keygen`` reports the
    dense schoolbook figure for a Horner evaluation of the key
    polynomial: ``degree`` products of m x m matrices plus as many
    matrix additions, i.e. degree * m**3 multiplications and
    degree * m**3 additions -- assembling a coefficient embedding places
    entries and multiplies nothing.  keygen itself computes in R: it
    packs the degree+1 coefficients and takes one dot product per block
    against the packed powers z**0 .. z**degree that ``Params.z_powers``
    keeps, (degree+1) * d**2 big-integer products, and one per chunk of
    the public key against the public vector's packed orbit that
    ``Params.zeta_orbit`` keeps, (degree+1) * d more; the reported figure
    is the dense one.  Counts are structural, so they do not depend on
    the sampled values.
    """
    m = params.m
    if action == "derive_shared":
        counter = OpCounter()
        mat_apply(params.field(counter), Matrix.identity(m), params.base_vector)
        return OpReport(action, m, counter.mul_count, counter.add_count, "m^2")
    if action == "keygen":
        ops = params.degree * m**3
        return OpReport(action, m, ops, ops, "degree * m^3")
    raise ValueError(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# Serialization.  Canonical JSON: sorted keys, compact separators.


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    return obj[key]


def _parse_int(value, path: str) -> int:
    if not isinstance(value, str):
        raise ParseError(f"{path}: integers must be decimal strings")
    try:
        v = int(value, 10)
    except ValueError:
        raise ParseError(f"{path}: bad decimal string {value!r}") from None
    if str(v) != value:
        raise ParseError(f"{path}: {value!r} is not a canonical decimal string")
    return v


def _parse_residue(value, q: int, path: str) -> int:
    v = _parse_int(value, path)
    if not 0 <= v < q:
        raise ParseError(f"{path}: {v} is not a canonical residue mod {q}")
    return v


def _parse_residues(values: list, q: int, path: Optional[str]) -> Optional[list[int]]:
    """Every entry of a JSON list as ``_parse_residue`` reads it (entry i
    at ``path[i]``): strings are converted in bulk, spelling and range
    checked once; only a list that fails is read entry by entry, to name
    its first bad entry, or is None when there is no path."""
    if set(map(type, values)) <= {str}:
        try:
            out = list(map(int, values))
        except ValueError:
            pass
        else:
            if list(map(str, out)) == values and (not out or min(out) >= 0 and max(out) < q):
                return out
    if path is None:
        return None
    return [_parse_residue(v, q, f"{path}[{i}]") for i, v in enumerate(values)]


def vector_to_obj(vec: Sequence[int]) -> dict:
    return {"entries": [str(e) for e in vec]}


def vector_from_obj(obj, q: int, path: str) -> list[int]:
    entries = _need(obj, "entries", path)
    if not isinstance(entries, list):
        raise ParseError(f"{path}.entries: expected a list")
    return _parse_residues(entries, q, f"{path}.entries")


def matrix_to_obj(mat: Matrix) -> dict:
    return {"rows": mat.rows, "cols": mat.cols, "entries": [str(e) for e in mat.entries]}


def matrix_from_obj(obj, q: int, path: str) -> Matrix:
    """Entry by entry; the readers call it only to name z's or T's error."""
    rows = _need(obj, "rows", path)
    cols = _need(obj, "cols", path)
    entries = _need(obj, "entries", path)
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (rows, cols)):
        raise ParseError(f"{path}: rows/cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(f"{path}.entries: expected {rows * cols} entries")
    return Matrix(rows, cols, _parse_residues(entries, q, f"{path}.entries"))


def ring_matrix_to_obj(ring: RingMatrix) -> dict:
    """z or key.T: the realization of the blocks' residue strings."""
    entries = _realize([list(map(str, blk)) for blk in ring.blocks], ring.k, ring.d, "0")
    return {"rows": ring.rows, "cols": ring.cols, "entries": entries}


def shift_poly_from_obj(obj, q: int, path: str) -> ShiftPoly:
    coeffs = _need(obj, "coeffs", path)
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError(f"{path}.coeffs: expected a non-empty list")
    return ShiftPoly(tuple(_parse_residues(coeffs, q, f"{path}.coeffs")))


def ring_sample_to_obj(sample: RingSample) -> dict:
    """z as params.json holds it: the matrix, and the recipe, if any."""
    d, obj = sample.ring.d, {"matrix": ring_matrix_to_obj(sample.ring)}
    flat = sample.flat
    if flat is not None:
        blocks = iter([{"kind": kd, "value": str(v)} for kd, v in zip(flat.kinds, flat.values)])
        grids = [[list(islice(blocks, d)) for _ in range(d)] for _ in flat.exps]
        factors = iter([{"grid": g, "exp": e} for g, e in zip(grids, flat.exps)])
        obj["recipe"] = [
            {"coeff": str(c), "factors": list(islice(factors, n))}
            for c, n in zip(flat.coeffs, flat.counts)
        ]
    return obj


def ring_sample_from_obj(obj, q: int, k: int, d: int, path: str) -> RingSample:
    """A z object for params of shape (k, d), which the caller has
    checked: a recipe's grids must be d x d and its exponents within the
    sampler's [0, MAX_GRID_EXP], and the matrix must be m x m with every
    k x k block upper-triangular Toeplitz (a matrix over R).  Every
    malformed part is a ParseError.

    The one value path reads the matrix from its block rows and keeps the
    recipe flat (``_ring_in_bulk``, ``_recipe_in_bulk``).  A z either
    refuses is read entry by entry only to name its first error, in this
    order: the matrix's entries, the recipe, then the matrix's shape and
    blocks."""
    ring = _ring_in_bulk(obj.get("matrix") if isinstance(obj, dict) else None, q, k, d)
    has_recipe = ring is not None and "recipe" in obj
    flat = _recipe_in_bulk(obj["recipe"], q, d) if has_recipe else None
    if ring is None or has_recipe and flat is None:
        matrix = matrix_from_obj(_need(obj, "matrix", path), q, f"{path}.matrix")
        if "recipe" in obj:
            _check_recipe(obj["recipe"], q, d, path)
        try:
            RingMatrix.from_matrix(matrix, k, d)
        except DimensionMismatch:
            raise ParseError(f"params: ring base must be {k * d}x{k * d}") from None
        except NotBlockToeplitz as exc:
            raise ParseError(f"params: ring base: {exc}") from None
    return RingSample(ring, flat)


def _ring_in_bulk(mat, q: int, k: int, d: int) -> Optional[RingMatrix]:
    """An m x m matrix object (m = k*d) read from its block rows, or
    None: its entries must be the realization of the blocks' first-row
    strings, and only those d*d*k strings are parsed."""
    m = k * d
    if not isinstance(mat, dict) or [type(mat.get("rows")), type(mat.get("cols"))] != [int, int]:
        return None
    entries = mat.get("entries")
    if mat["rows"] != m or mat["cols"] != m or not isinstance(entries, list) or len(entries) != m * m:
        return None
    heads = [entries[r + c : r + c + k] for r in range(0, m * m, k * m) for c in range(0, m, k)]
    flat = _parse_residues(list(chain.from_iterable(heads)), q, None)
    if flat is None or _realize(heads, k, d, "0") != entries:
        return None
    return RingMatrix(k, d, [flat[s : s + k] for s in range(0, len(flat), k)])


def _recipe_in_bulk(raw, q: int, d: int) -> Optional[FlatRecipe]:
    """z's recipe checked in bulk, or None exactly when ``_check_recipe``
    raises: its structure level by level by comprehensions, the kinds by
    one set test, and every coeff and value by one ``_parse_residues``
    pass."""
    if not isinstance(raw, list) or not all(
        isinstance(t, dict) and "coeff" in t and isinstance(t.get("factors"), list) for t in raw
    ):
        return None
    factors = [f for t in raw for f in t["factors"]]
    if not all(isinstance(f, dict) and "grid" in f and "exp" in f for f in factors):
        return None
    # tuples are built from lists: tuple() of a generator resizes its
    # result, and every resized tuple freed adds to CPython's free lists
    exps, grids = tuple([f["exp"] for f in factors]), [f["grid"] for f in factors]
    if not all(type(e) is int and 0 <= e <= MAX_GRID_EXP for e in exps) or not all(
        isinstance(g, list) and len(g) == d and all(isinstance(r, list) and len(r) == d for r in g)
        for g in grids
    ):
        return None
    blocks = [b for g in grids for r in g for b in r]
    if not all(isinstance(b, dict) and "kind" in b and "value" in b for b in blocks):
        return None
    kinds = tuple([b["kind"] for b in blocks])
    nums = _parse_residues([t["coeff"] for t in raw] + [b["value"] for b in blocks], q, None)
    if nums is None or not set(map(type, kinds)) <= {str} or not set(kinds) <= {"scalar", "jordan"}:
        return None
    counts = tuple([len(t["factors"]) for t in raw])
    return FlatRecipe(tuple(nums[: len(raw)]), counts, exps, kinds, tuple(nums[len(raw) :]))


def _check_recipe(raw, q: int, d: int, path: str) -> None:
    """Raise the ParseError that names the first bad entry of a recipe
    that ``_recipe_in_bulk`` refuses, reading it entry by entry.  It
    builds nothing and returns nothing."""
    if not isinstance(raw, list):
        raise ParseError(f"{path}.recipe: expected a list")
    for ti, term_obj in enumerate(raw):
        tpath = f"{path}.recipe[{ti}]"
        _parse_residue(_need(term_obj, "coeff", tpath), q, f"{tpath}.coeff")
        raw_factors = _need(term_obj, "factors", tpath)
        if not isinstance(raw_factors, list):
            raise ParseError(f"{tpath}.factors: expected a list")
        for fi, f_obj in enumerate(raw_factors):
            fpath = f"{tpath}.factors[{fi}]"
            grid_rows = _need(f_obj, "grid", fpath)
            exp = _need(f_obj, "exp", fpath)
            if isinstance(exp, bool) or not isinstance(exp, int) or not 0 <= exp <= MAX_GRID_EXP:
                raise ParseError(f"{fpath}.exp: expected an integer in [0, {MAX_GRID_EXP}]")
            if not isinstance(grid_rows, list) or len(grid_rows) != d or any(
                not isinstance(row, list) or len(row) != d for row in grid_rows
            ):
                raise ParseError(f"{fpath}.grid: expected {d} rows of {d} blocks")
            for ri, row in enumerate(grid_rows):
                for ci, blk in enumerate(row):
                    bpath = f"{fpath}.grid[{ri}][{ci}]"
                    kind = _need(blk, "kind", bpath)
                    _parse_residue(_need(blk, "value", bpath), q, f"{bpath}.value")
                    if kind not in ("scalar", "jordan"):
                        raise ParseError(f"{bpath}.kind: unknown kind {kind!r}")


def params_to_obj(params: Params) -> dict:
    obj = {
        "q": str(params.q),
        "k": str(params.k),
        "d": str(params.d),
        "D": str(params.degree),
        "zeta": vector_to_obj(params.base_vector),
        "z": ring_sample_to_obj(params.ring_base),
    }
    if params.seed is not None:
        obj["seed"] = str(params.seed)
    return obj


def params_from_obj(obj) -> Params:
    q = _parse_int(_need(obj, "q", "params"), "params.q")
    k = _parse_int(_need(obj, "k", "params"), "params.k")
    d = _parse_int(_need(obj, "d", "params"), "params.d")
    degree = _parse_int(_need(obj, "D", "params"), "params.D")
    if q < 2:
        raise ParseError("params.q: modulus must be at least 2")
    if k < 1:
        raise ParseError("params.k: block size must be at least 1")
    if d < 2:
        raise ParseError("params.d: block count must be at least 2")
    vec = vector_from_obj(_need(obj, "zeta", "params"), q, "params.zeta")
    base = ring_sample_from_obj(_need(obj, "z", "params"), q, k, d, "params.z")
    seed = None
    if isinstance(obj, dict) and "seed" in obj:
        seed = _parse_int(obj["seed"], "params.seed")
    try:
        return Params(q, k, d, degree, vec, base, seed)
    except InvalidParams as exc:
        raise ParseError(f"params: {exc}") from None


def params_to_json(params: Params) -> str:
    return canonical_json(params_to_obj(params))


def params_from_json(text: str) -> Params:
    return params_from_obj(_loads(text))


def private_key_to_obj(sk: PrivateKey) -> dict:
    return {
        "coeffs": [{"coeffs": [str(c) for c in poly.coeffs]} for poly in sk.coeffs],
        "T": ring_matrix_to_obj(sk.key),
    }


def private_key_from_obj(obj, params: Params) -> PrivateKey:
    """Read a key.json body and check it against ``params``: 1..D+1
    coefficients of k entries each, and T equal to their key polynomial
    in the base.  Any mismatch is a ParseError."""
    q, k = params.q, params.k
    raw = _need(obj, "coeffs", "key")
    if not isinstance(raw, list) or not 1 <= len(raw) <= params.degree + 1:
        raise ParseError(f"key.coeffs: expected a list of 1 to {params.degree + 1} coefficients")
    coeffs = [shift_poly_from_obj(c, q, f"key.coeffs[{i}]") for i, c in enumerate(raw)]
    for i, c in enumerate(coeffs):
        if c.k != k:
            raise ParseError(f"key.coeffs[{i}]: expected {k} entries, got {c.k}")
    t = _need(obj, "T", "key")
    key = eval_key_poly(params.field(), coeffs, params.z_powers, params.d)
    if _ring_in_bulk(t, q, k, params.d) != key:
        matrix_from_obj(t, q, "key.T")
        raise ParseError("key.T: not the key polynomial of key.coeffs in the params' base")
    return PrivateKey(coeffs, key)


def private_key_to_json(sk: PrivateKey) -> str:
    return canonical_json(private_key_to_obj(sk))


def private_key_from_json(text: str, params: Params) -> PrivateKey:
    return private_key_from_obj(_loads(text), params)


def public_key_to_obj(pk: PublicKey) -> dict:
    return {"xi": vector_to_obj(pk.vec)}


def public_key_from_obj(obj, q: int) -> PublicKey:
    return PublicKey(vector_from_obj(_need(obj, "xi", "pub"), q, "pub.xi"))


def public_key_to_json(pk: PublicKey) -> str:
    return canonical_json(public_key_to_obj(pk))


def public_key_from_json(text: str, q: int) -> PublicKey:
    return public_key_from_obj(_loads(text), q)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", pos=exc.pos) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise ParseError(f"malformed JSON: {exc}") from None
