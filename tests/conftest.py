import copy
import threading
import time

import pytest
from hypothesis import strategies as st

from commkex import attacks
from commkex.commutant import RingMatrix, RingSample, ShiftPoly
from commkex.gf import Rng
from commkex.kex import Params, gen_params, keygen, private_key_from_coeffs, public_key
from commkex.linalg import Matrix

# Shapes the whole suite samples over: primes crossed with (k, d).
TEST_PRIMES = [2, 7, 13, 101, 1009]
GRID_PRIMES = [7, 101, 2147483647]
GRID_SHAPES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]
GRID_DEGREES = [1, 3]
# Moduli for the packed kernels: the smallest, word-sized and the largest.
CODEC_PRIMES = [2, 3, 101, 65537, 2**31 - 1, 2**61 - 1]


@pytest.fixture
def no_thread_leak():
    """Fail the test if a thread it started is still alive 1 s after it
    ends (a listener's accept loop or session workers, say)."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still alive 1 s after the test: {leaked}")


def kept_passive_system(params, bound):
    """The passive attack's system kept on the params at ``bound``, read
    through ``attacks._passive_system``; fails unless that entry is kept,
    so that reading it eliminates nothing."""

    def no_elimination(*args):
        raise AssertionError(f"no passive system kept at bound {bound}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attacks, "eliminate_ring", no_elimination)
        return attacks._passive_system(params.field(), params, bound)


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
            ("unknown kind", factor + ("grid", 0, 0, "kind"), "hessenberg"),
            ("value not a residue", factor + ("grid", 0, 0, "value"), obj["q"]),
            ("term without coeff", ("z", "recipe", 0), {"factors": obj["z"]["recipe"][0]["factors"]}),
            ("block without value", factor + ("grid", 0, 0), {"kind": blk["kind"]}),
            ("z matrix without rows", ("z", "matrix"), {"rows": 0, "cols": 4, "entries": []}),
            ("zero block size", ("k",), "0"),
            ("one block", ("d",), "1"),
        ]
        return [(label, _edited(obj, path, value)) for label, path, value in cases]

    return variants


# What the reader fuzz tests mutate: params of a small shape with a
# recipe (q = 101, k = d = 2, D = 3), and two key pairs on them.
FUZZ_PARAMS = gen_params(101, 2, 2, 3, Rng(5), seed=5)
FUZZ_KEYS = [keygen(FUZZ_PARAMS, Rng(seed)) for seed in (6, 7)]

# Small JSON values a mutation writes: decimal strings that parse as
# small residues or shapes, other scalars, and flat containers of them.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=300)
    | st.integers(min_value=-2, max_value=300).map(str)
    | st.sampled_from(["", "x", "scalar", "jordan", "9" * 30])
    | st.floats(allow_nan=False, allow_infinity=False)
)
SMALL_JSON = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3)
)


def _containers(node):
    """Every dict and list inside node, itself first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def json_mutations(draw, obj, max_edits=3):
    """A copy of the JSON value obj with 1..max_edits edits.  Each edit
    picks a dict or list anywhere in the value and deletes one of its
    members, replaces one with a small JSON value, or inserts one (a new
    key, or a list item at a random index); or it replaces the whole
    value (target None)."""
    new = copy.deepcopy(obj)
    for _ in range(draw(st.integers(min_value=1, max_value=max_edits))):
        target = draw(st.sampled_from([*_containers(new), None]))
        if target is None:
            new = draw(SMALL_JSON)
            continue
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        op = draw(st.sampled_from(["delete", "replace", "insert"] if keys else ["insert"]))
        if op == "insert" and isinstance(target, dict):
            target[draw(st.text(max_size=4))] = draw(SMALL_JSON)
        elif op == "insert":
            target.insert(draw(st.integers(min_value=0, max_value=len(target))), draw(SMALL_JSON))
        elif op == "delete":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(SMALL_JSON)
    return new
