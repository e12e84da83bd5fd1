import copy

import pytest

from commkex.commutant import RingMatrix, RingSample, ShiftPoly
from commkex.kex import Params, private_key_from_coeffs, public_key
from commkex.linalg import Matrix

# Shapes the whole suite samples over: primes crossed with (k, d).
TEST_PRIMES = [2, 7, 13, 101, 1009]
GRID_PRIMES = [7, 101, 2147483647]
GRID_SHAPES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]
GRID_DEGREES = [1, 3]


@pytest.fixture
def micro_params():
    """The hand-checkable q=7, k=1, d=2 instance used throughout."""
    base = Matrix.from_rows([[1, 1], [0, 1]])
    return Params(7, 1, 2, 1, [1, 2], RingSample(RingMatrix.from_matrix(base, 1, 2)))


@pytest.fixture
def micro_keys(micro_params):
    """Key pair (2*I + 3*base, I + base) with known public keys."""
    sk_a = private_key_from_coeffs(micro_params, [ShiftPoly((2,)), ShiftPoly((3,))])
    sk_b = private_key_from_coeffs(micro_params, [ShiftPoly((1,)), ShiftPoly((1,))])
    return sk_a, public_key(micro_params, sk_a), sk_b, public_key(micro_params, sk_b)


def _edited(obj, path, value):
    new = copy.deepcopy(obj)
    target = new
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return new


@pytest.fixture
def malformed_recipes():
    """Given a params.json object with a z.recipe, (label, object) pairs
    that each break one rule of z's recipe or matrix, or of the shape;
    loading any of them is a ParseError."""

    def variants(obj):
        d = int(obj["d"])
        factor = ("z", "recipe", 0, "factors", 0)
        blk = obj["z"]["recipe"][0]["factors"][0]["grid"][0][0]
        cases = [
            ("recipe not a list", ("z", "recipe"), {"coeff": "1"}),
            ("term not an object", ("z", "recipe", 0), []),
            ("factors not a list", ("z", "recipe", 0, "factors"), 1),
            ("grid not a list", factor + ("grid",), 1),
            ("grid row not a list", factor + ("grid", 0), 1),
            ("empty grid", factor + ("grid",), []),
            ("ragged grid", factor + ("grid",), [[blk] * d] * (d - 1) + [[blk] * (d - 1)]),
            ("1x1 grid", factor + ("grid",), [[blk]]),
            ("huge exponent", factor + ("exp",), 10**12),
            ("exponent above the sampler's", factor + ("exp",), 4),
            ("negative exponent", factor + ("exp",), -1),
            ("boolean exponent", factor + ("exp",), True),
            ("string exponent", factor + ("exp",), "1"),
            ("z matrix without rows", ("z", "matrix"), {"rows": 0, "cols": 4, "entries": []}),
            ("zero block size", ("k",), "0"),
            ("one block", ("d",), "1"),
        ]
        return [(label, _edited(obj, path, value)) for label, path, value in cases]

    return variants
