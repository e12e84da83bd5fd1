"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class ZeroInverse(Error):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(Error):
    """Operand shapes are incompatible."""


class InvalidDimension(Error):
    """A size parameter is outside its legal range (e.g. block size 0)."""


class NotBlockToeplitz(Error):
    """A dense matrix has a k x k block that is not upper-triangular
    Toeplitz, so it is not a matrix over R = GF(q)[N]/(N**k)."""


class InvalidParams(Error):
    """Parameter validation failed (composite modulus, bad shape, ...)."""


class ParseError(Error):
    """Malformed serialized artifact.  Carries a byte position when the
    underlying JSON decoder reported one."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class DegenerateRingElement(Error):
    """Sampling the public ring element kept producing degenerate values."""


class DegenerateKey(Error):
    """Key generation kept producing rejected (weak) private keys."""


class InsufficientRank(Error):
    """Full-matrix recovery needs m independent public keys; fewer were given."""


class InconsistentSystem(Error):
    """A recovery system had no solution; the inputs are corrupted."""


class OutOfSpan(Error):
    """The victim public key is not spanned by the directory's public keys."""


class NoSolution(Error):
    """The passive attack ran out of degree headroom without a solution."""


class FrameTooLarge(Error):
    """Frame payload exceeds the 2**20-byte cap."""


class UnknownTag(Error):
    """Frame tag byte is not one of the defined tags."""


class NeedMoreBytes(Error):
    """The buffer does not yet hold a complete frame."""


class ChecksumMismatch(Error):
    """Peers derived different shared keys (confirmation checksums differ)."""


class ProtocolViolation(Error):
    """Peer sent frames out of order or with malformed contents."""


class IncompleteTranscript(Error):
    """Transcript is missing the params frame or a public-key frame."""


class InvalidPublic(Error):
    """A Diffie-Hellman public value is outside [1, p-1]."""
