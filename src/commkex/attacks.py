"""Linear-algebra cryptanalysis of the commuting-matrix exchange.

Because every private key commutes with every other one, a directory
member who knows private keys can turn each known pair into exact
linear equations on a victim's key: if T is the victim's key with
public xi, and (T_i, xi_i) is a known pair, then

    T_i(xi) = T_i(T(zeta)) = T(T_i(zeta)) = T(xi_i),

so T maps the known public key xi_i to the computable vector
rho_i = T_i(xi).  Three executable attacks build on this:

* ``recover_private_key`` -- solve for the victim's key itself, either
  as a full m x m matrix from m independent public keys, or as
  coefficients over the structured basis {embedded shift power *
  base power}, which needs far fewer equations because the keys have
  only (degree+1)*k free coefficients.
* ``recover_shared_from_directory`` -- skip the key: express the victim
  public key as a combination of directory publics and combine the
  corresponding known images into the session key directly.
* ``passive_commutant_attack`` -- use no private keys at all.  Any
  matrix from the structured span that maps the public vector to one
  party's public key commutes with the other party's key, so applying
  it to the other public key reproduces the shared key exactly.

All attacks are deterministic: underdetermined systems return the
reduced-echelon solution with free variables set to zero, which acts
identically to the true key on the subspace the equations cover.

The structured systems (structured recovery and the passive attack)
are m-row systems in (degree+1)*k unknowns over GF(q), but since N acts
on a k-chunk as x on R = GF(q)[x]/(x**k), each is a system of d rows per
input vector in degree+1 unknowns over R, and is solved there
(``linalg.eliminate_ring``): the GF(q) pivots of power i are exactly its
first e_i shifts, so the reduced-echelon solution is the one with
deg c_i < e_i and the rank is sum(e_i).  The full-matrix and directory
attacks solve over GF(q), the same eliminator at k = 1, and eliminate
the known public keys once: full-matrix recovery reads both the pivot
keys and their inverse off one record.  Known private keys are applied
to a vector as key polynomials against one packed orbit of it
(``apply_key_poly``), which every key shares; the directory attack
combines the keys' coefficients first and applies one polynomial.  The
structured systems read each input vector's orbit v, z v, ..., packed
(``commutant.Orbit``) and unpacked only for the columns the elimination
reads.  The public vector's orbit is the one ``Params.zeta_orbit``
keeps.  A solution is applied to a vector as a key polynomial against
the vector's packed orbit (``apply_key_poly``), and a dense matrix is
built only for a recovered key that a report carries.  The passive
attack replays its record on both public keys and applies the product
of the two solutions, itself a key polynomial, to the public vector's
kept orbit (``apply_key_product``); the same dot products apply the
first solution alone, which checks it against pub_a.  So it builds no
orbit of pub_b unless pub_b is off the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .commutant import (
    Orbit,
    PowerTable,
    ShiftPoly,
    apply_key_poly,
    apply_key_product,
    eval_key_poly,
)
from .errors import (
    InconsistentSystem,
    InsufficientRank,
    InvalidParams,
    NoSolution,
    OutOfSpan,
    ParseError,
)
from .gf import Field
from .kex import (
    Params,
    PrivateKey,
    PublicKey,
    SharedKey,
    matrix_to_obj,
    private_key_from_obj,
    private_key_to_obj,
    public_key_from_obj,
    public_key_to_obj,
    vector_to_obj,
)
from .linalg import (
    Matrix,
    RingElimination,
    eliminate_ring,
    mat_apply,
    mat_mul,
)

MODE_FULL = "full-matrix"
MODE_STRUCTURED = "structured-basis"


@dataclass
class DirectoryEntry:
    public: PublicKey
    private: Optional[PrivateKey] = None


@dataclass
class KeyDirectory:
    """The adversary's view: public keys, some with known private keys."""

    params: Params
    entries: list[DirectoryEntry]

    def known_pairs(self) -> list[tuple[PrivateKey, PublicKey]]:
        return [(e.private, e.public) for e in self.entries if e.private is not None]

    def public_rank(self) -> int:
        cols = [e.public.vec for e in self.entries]
        if not cols:
            return 0
        return eliminate_ring(self.params.field(), 1, cols).rank


@dataclass
class RecoveredKey:
    """Result of private-key recovery.

    ``residual_rank_deficit`` is 0 for full-matrix mode (the system of
    public keys was invertible) and the number of free basis
    coefficients for structured mode; any choice of the free
    coefficients acts identically on the span the equations cover.
    ``equations_used`` counts input/output vector pairs fed to the
    solver (structured mode includes the public-vector pair).
    """

    matrix: Matrix
    mode: str
    residual_rank_deficit: int
    equations_used: int
    rank: int
    verified: bool


@dataclass
class DirectorySharedResult:
    shared_key: SharedKey
    coefficients: list[int]
    equations_used: int
    rank: int
    verified: bool


@dataclass
class PassiveResult:
    """Result of the passive attack.  ``coefficients`` are T' over the
    structured basis (index i*k + j for N**j z**i, i <= degree_bound);
    ``recovered`` builds T' as a dense matrix when it is read."""

    shared_key: SharedKey
    degree_bound: int
    equations_used: int
    rank: int
    verified: bool
    params: Params = dc_field(repr=False)
    coefficients: list[int] = dc_field(repr=False)

    @property
    def recovered(self) -> Matrix:
        return _structured_key(self.params, self.coefficients)


class _Columns:
    """A structured system's columns, as ``eliminate_ring`` reads them:
    column i holds z**i v for every input v (``orbits[v]`` is input v's
    packed orbit), stacked, d rows per input, and the shifts N**j are
    the powers of x; unknown (i, j), the coefficient of N**j z**i, has
    index i*k + j.  A column is unpacked when it is read, so the orbits
    grow only as far as the elimination reads."""

    __slots__ = ("orbits", "count")

    def __init__(self, orbits: Sequence[Orbit], count: int):
        self.orbits = orbits
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> list[int]:
        return [x for orbit in self.orbits for x in orbit.table.unpack(orbit.upto(i)[i])]


def _passive_system(field: Field, params: Params, bound: int) -> tuple[int, Orbit, RingElimination]:
    """(bound, the public vector's packed orbit, the elimination of the
    passive system) at ``bound``.  The attack applies a product of two
    key polynomials of up to bound+1 coefficients to the orbit, so its
    table must hold 2*bound+1: the orbit is ``params.zeta_orbit`` when
    the params' table does, and by a table of 2*bound+1 powers of its own
    otherwise.  The system depends on the frozen params alone, so the
    entry is kept in their private slot, which only this function writes
    (by ``object.__setattr__``, as ``cached_property`` fills a frozen
    value); one for another bound replaces it.  Threads sharing the
    params read a whole entry and at worst build one twice."""
    entry = params._passive_system
    if entry is None or entry[0] != bound:
        orbit = params.zeta_orbit
        if orbit.table.capacity < 2 * bound + 1:
            orbit = Orbit(PowerTable(field, params.z_ring, 2 * bound + 1), params.base_vector)
        entry = (bound, orbit, eliminate_ring(field, params.k, _Columns([orbit], bound + 1)))
        object.__setattr__(params, "_passive_system", entry)
    return entry


def _key_chunks(params: Params, coeffs: Sequence[int]) -> list[ShiftPoly]:
    k = params.k
    return [ShiftPoly(tuple(coeffs[i : i + k])) for i in range(0, len(coeffs), k)]


def _known_images(
    params: Params, pairs: Sequence[tuple[PrivateKey, PublicKey]], pub: PublicKey
) -> list[list[int]]:
    """Each known private key applied to ``pub``: the key polynomial
    against one packed orbit of ``pub``, which all keys share."""
    table = params.z_powers
    orbit = Orbit(table, pub.vec)
    return [
        apply_key_poly(table, sk.coeffs, orbit.upto(len(sk.coeffs) - 1)) for sk, _ in pairs
    ]


def _structured_key(params: Params, coeffs: Sequence[int]) -> Matrix:
    """sum_{i,j} c_{i*k+j} N**j z**i as a dense matrix.  A polynomial
    longer than the params' table (a report on a raised degree bound)
    is evaluated against a table of its own."""
    chunks = _key_chunks(params, coeffs)
    field, table = params.field(), params.z_powers
    if len(chunks) > table.count:
        table = PowerTable(field, params.z_ring, len(chunks))
    return eval_key_poly(field, chunks, table, params.d).to_matrix()


def recover_private_key(
    directory: KeyDirectory, target_pub: PublicKey, mode: str = MODE_FULL
) -> RecoveredKey:
    """Recover a private key from directory entries with known privates.

    Full-matrix mode inverts the matrix of m independent known public
    keys; structured mode solves for the key's coefficients over the
    structured basis and additionally uses the (public vector -> target
    public key) pair, so the result maps the public vector correctly
    even when the directory equations alone underdetermine it.
    """
    params = directory.params
    field = params.field()
    m = params.m
    pairs = directory.known_pairs()

    if mode == MODE_FULL:
        if not pairs:
            raise InsufficientRank("directory has no entries with known private keys")
        # one record of every known public key gives both the pivots and,
        # by solving the unit vectors, the inverse of the pivot keys' matrix
        elim = eliminate_ring(field, 1, [pk.vec for _, pk in pairs])
        chosen = [i for i, e in enumerate(elim.exps) if e]
        if len(chosen) < m:
            raise InsufficientRank(
                f"public keys span rank {len(chosen)} < {m}; need m independent keys"
            )
        units = [elim.solve([int(i == j) for i in range(m)]) for j in range(m)]
        xi_inv = Matrix.from_columns([[x[i] for i in chosen] for x in units])
        rhos = _known_images(params, [pairs[i] for i in chosen], target_pub)
        t_hat = mat_mul(field, Matrix.from_columns(rhos), xi_inv)
        if mat_apply(field, t_hat, params.base_vector) != target_pub.vec:
            raise InconsistentSystem(
                "recovered key does not map the public vector to the target public key"
            )
        verified = all(
            mat_apply(field, t_hat, pairs[i][1].vec) == rho for i, rho in zip(chosen, rhos)
        )
        return RecoveredKey(t_hat, MODE_FULL, 0, m, m, verified)

    if mode != MODE_STRUCTURED:
        raise ValueError(f"unknown recovery mode {mode!r}")

    table, degree = params.z_powers, params.degree
    orbits = [params.zeta_orbit] + [Orbit(table, pk.vec) for _, pk in pairs]
    rhos = _known_images(params, pairs, target_pub)
    outputs: list[int] = list(target_pub.vec)
    for r in rhos:
        outputs.extend(r)
    elim = eliminate_ring(field, params.k, _Columns(orbits, degree + 1))
    coeffs = elim.solve(outputs)
    if coeffs is None:
        raise InconsistentSystem("structured recovery system is inconsistent")
    t_hat = _structured_key(params, coeffs)
    rank = elim.rank
    deficit = (degree + 1) * params.k - rank
    chunks = _key_chunks(params, coeffs)
    verified = all(
        apply_key_poly(table, chunks, orbit.upto(degree)) == out
        for orbit, out in zip(orbits, [target_pub.vec] + rhos)
    )
    return RecoveredKey(
        t_hat, MODE_STRUCTURED, deficit, len(orbits), rank, verified
    )


def recover_shared_from_directory(
    directory: KeyDirectory, victim_pub: PublicKey, counterpart_pub: PublicKey
) -> DirectorySharedResult:
    """Recover the session key of (victim, counterpart) without any
    private key of either.

    Writes the victim public key as a combination of known-private
    directory publics and combines the corresponding images of the
    counterpart public key with the same coefficients.  Exact whenever
    the victim public key lies in the directory span.
    """
    params = directory.params
    field = params.field()
    pairs = directory.known_pairs()
    if not pairs:
        raise OutOfSpan("directory has no entries with known private keys")
    columns = [pk.vec for _, pk in pairs]
    elim = eliminate_ring(field, 1, columns)
    coeffs = elim.solve(victim_pub.vec)
    if coeffs is None:
        raise OutOfSpan("victim public key is outside the directory span")
    # sum_j c_j T_j is itself a key polynomial, with the same combination
    # of the keys' coefficients, so one application to the counterpart
    # public key gives the combined images
    q, table = field.q, params.z_powers
    used = [(c, sk.coeffs) for c, (sk, _) in zip(coeffs, pairs) if c]
    combined = [[0] * params.k for _ in range(max((len(p) for _, p in used), default=1))]
    for c, polys in used:
        for acc, poly in zip(combined, polys):
            acc[:] = [(a + c * x) % q for a, x in zip(acc, poly.coeffs)]
    orbit = Orbit(table, counterpart_pub.vec).upto(len(combined) - 1)
    shared = apply_key_poly(table, [ShiftPoly(tuple(acc)) for acc in combined], orbit)
    reconstructed = mat_apply(field, Matrix.from_columns(columns), coeffs)
    verified = reconstructed == list(victim_pub.vec)
    return DirectorySharedResult(SharedKey(shared), coeffs, len(pairs), elim.rank, verified)


def passive_commutant_attack(
    params: Params,
    pub_a: PublicKey,
    pub_b: PublicKey,
    degree_bound: Optional[int] = None,
) -> PassiveResult:
    """Break a session from public data only.

    Solves for any structured-basis matrix T' mapping the public vector
    to pub_a; because every matrix in that span commutes with the honest
    counterpart key, applying it to pub_b yields the exact shared key.
    The same recorded elimination also solves T'' zeta = pub_b, so
    T' pub_b = (T' T'') zeta, the product of the two key polynomials
    applied to the public vector's kept orbit (``apply_key_product``,
    fed the solutions' canonical residues as they are).  Its dot
    products also return T' zeta, which ``verified`` compares with
    pub_a.  Only a pub_b off the span at the bound reached (a forged
    key) is applied to through an orbit of its own, and T' then to the
    public vector's orbit for ``verified``.
    The system is always consistent when the degree bound is at least
    the honest keys' degree (the honest key is itself a solution); if a
    caller picks a smaller bound the attack retries with doubled bounds
    up to m**2 before giving up.  A caller's bound must lie in
    [0, m**2]: powers of z past m - 1 add no new keys (Cayley-Hamilton),
    and the system grows with the bound.
    """
    field = params.field()
    m = params.m
    cap = m * m
    bound = params.degree if degree_bound is None else degree_bound
    if not 0 <= bound <= cap:
        raise InvalidParams(f"degree bound {bound} is outside [0, m**2 = {cap}]")
    while True:
        _, orbit, elim = _passive_system(field, params, bound)
        coeffs = elim.solve(pub_a.vec)
        if coeffs is not None:
            break
        if bound >= cap:
            raise NoSolution(
                f"no structured key maps the public vector to the target "
                f"at degree bound {bound} (cap {cap})"
            )
        bound = min(cap, bound * 2 if bound else 1)
    # powers without a pivot (e_i = 0) have zero coefficients
    top = max((i for i, e in enumerate(elim.exps) if e), default=0)
    n = (top + 1) * params.k
    table = orbit.table
    peer = elim.solve(pub_b.vec)
    if peer is None:  # no T'' maps zeta to pub_b at this bound
        used = _key_chunks(params, coeffs[:n])
        shared = apply_key_poly(table, used, Orbit(table, pub_b.vec).upto(top))
        image = apply_key_poly(table, used, orbit.upto(top))
    else:
        shared, image = apply_key_product(table, coeffs[:n], peer[:n], orbit.upto(2 * top))
    verified = image == list(pub_a.vec)
    return PassiveResult(SharedKey(shared), bound, m, elim.rank, verified, params, coeffs)


def directory_to_obj(directory: KeyDirectory) -> dict:
    """dir.json body: entries carry a pub.json object and, when the
    private key is known, a key.json object."""
    entries = []
    for e in directory.entries:
        item: dict = {"pub": public_key_to_obj(e.public)}
        if e.private is not None:
            item["key"] = private_key_to_obj(e.private)
        entries.append(item)
    return {"entries": entries}


def directory_from_obj(obj, params: Params) -> KeyDirectory:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ParseError("dir: expected {\"entries\": [...]}")
    entries = []
    for i, raw in enumerate(obj["entries"]):
        if not isinstance(raw, dict) or "pub" not in raw:
            raise ParseError(f"dir.entries[{i}]: expected an object with a 'pub' field")
        pub = public_key_from_obj(raw["pub"], params.q)
        private = None
        if "key" in raw:
            private = private_key_from_obj(raw["key"], params)
        entries.append(DirectoryEntry(pub, private))
    return KeyDirectory(params, entries)


def report_obj(
    result: RecoveredKey | DirectorySharedResult | PassiveResult,
) -> dict:
    """Attack report: {mode, equations_used, rank, recovered_key?,
    shared_key?, verified}."""
    if isinstance(result, RecoveredKey):
        return {
            "mode": result.mode,
            "equations_used": result.equations_used,
            "rank": result.rank,
            "recovered_key": matrix_to_obj(result.matrix),
            "verified": result.verified,
        }
    if isinstance(result, DirectorySharedResult):
        return {
            "mode": "directory-shared",
            "equations_used": result.equations_used,
            "rank": result.rank,
            "shared_key": vector_to_obj(result.shared_key.vec),
            "verified": result.verified,
        }
    return {
        "mode": "passive-commutant",
        "equations_used": result.equations_used,
        "rank": result.rank,
        "recovered_key": matrix_to_obj(result.recovered),
        "shared_key": vector_to_obj(result.shared_key.vec),
        "verified": result.verified,
    }
