"""Commuting-matrix key exchange over GF(q) -- and its breaks.

A small laboratory around a linear-algebra key-exchange scheme: the
commuting private-key ring and the protocol itself, executable attacks
that recover keys and sessions, an operation-count comparison against a
toy Diffie-Hellman, and a framed wire demo with a passive eavesdropper.
The scheme is insecure by construction; this package exists to make
that statement executable.
"""

from .errors import Error
from .gf import Field, OpCounter, Rng, is_prime
from .linalg import Matrix, mat_apply, mat_mul, rank
from .commutant import (
    BlockGrid,
    GeneratorBlock,
    RingMatrix,
    RingSample,
    ShiftPoly,
    check_commute,
    embed_block_diag,
    eval_key_poly,
    sample_ring_element,
)
from .kex import (
    Params,
    PrivateKey,
    PublicKey,
    SharedKey,
    count_ops,
    derive_shared,
    gen_params,
    keygen,
    private_key_from_coeffs,
    public_key,
)
from .attacks import (
    DirectoryEntry,
    KeyDirectory,
    PassiveResult,
    RecoveredKey,
    passive_commutant_attack,
    recover_private_key,
    recover_shared_from_directory,
)
from .dh import DhParams, dh_keygen, dh_shared
from .wire import Frame, Listener, Transcript, checksum64, eavesdrop, run_peer

__version__ = "0.1.0"

__all__ = [
    "Error",
    "Field",
    "OpCounter",
    "Rng",
    "is_prime",
    "Matrix",
    "mat_apply",
    "mat_mul",
    "rank",
    "BlockGrid",
    "GeneratorBlock",
    "RingMatrix",
    "RingSample",
    "ShiftPoly",
    "check_commute",
    "embed_block_diag",
    "eval_key_poly",
    "sample_ring_element",
    "Params",
    "PrivateKey",
    "PublicKey",
    "SharedKey",
    "count_ops",
    "derive_shared",
    "gen_params",
    "keygen",
    "private_key_from_coeffs",
    "public_key",
    "DirectoryEntry",
    "KeyDirectory",
    "PassiveResult",
    "RecoveredKey",
    "passive_commutant_attack",
    "recover_private_key",
    "recover_shared_from_directory",
    "DhParams",
    "dh_keygen",
    "dh_shared",
    "Frame",
    "Listener",
    "Transcript",
    "checksum64",
    "eavesdrop",
    "run_peer",
    "__version__",
]
