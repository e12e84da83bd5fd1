"""The slot codec is a leaf, and the modules that use it share no
private names: ``kron`` imports no commkex module, and ``linalg`` and
``commutant`` import no underscore name from each other or from
``kron`` (they call ``kron.<name>``), and ``linalg`` imports nothing
from ``commutant``: a key in R applies itself.  Their dot products of packed
integers go through ``kron.dots``, and the library imports nothing
beyond the standard library.  The values that caches are built from
are frozen, and only a constructor or the passive attack's cache
writes past a frozen ``__setattr__``."""

import ast
import dataclasses
import sys
from pathlib import Path

import commkex
from commkex.commutant import BlockGrid, GeneratorBlock, RingMatrix, RingSample, ShiftPoly
from commkex.kex import Params, PrivateKey

SRC = Path(commkex.__file__).resolve().parent
CODEC_USERS = ("linalg", "commutant")


def imports(module):
    """(module imported from, names) for every import in a source file;
    a relative import's module is its commkex name."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "commkex" + ("." + base if base else "")
            out.append((base, tuple(alias.name for alias in node.names)))
    return out, tree


def test_codec_imports_no_commkex_module():
    found, _ = imports("kron")
    assert [m for m, _ in found if m.split(".")[0] == "commkex"] == []


def test_codec_users_share_no_private_names():
    shared = {f"commkex.{m}" for m in (*CODEC_USERS, "kron")}
    for module in CODEC_USERS:
        found, tree = imports(module)
        private = [
            (m, name)
            for m, names in found
            for name in names
            if name.startswith("_") and (m in shared or f"{m}.{name}" in shared)
        ]
        assert private == [], module
        # and none reached through the module object
        reached = [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("kron", *CODEC_USERS)
            and node.attr.startswith("_")
        ]
        assert reached == [], module


def test_linalg_imports_nothing_from_commutant():
    # ast.walk reaches imports under `if TYPE_CHECKING:` too
    found, _ = imports("linalg")
    assert [m for m, names in found if "commutant" in (m.split(".")[-1], *names)] == []


def test_library_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"__future__", "commkex"}
    for path in sorted(SRC.glob("*.py")):
        found, _ = imports(path.stem)
        assert [m for m, _ in found if m.split(".")[0] not in allowed] == [], path.name


def test_packed_dots_go_through_the_kernel():
    # a sum(map(...)) dot is left only in _series_inverse, on residues
    for module in CODEC_USERS:
        _, tree = imports(module)
        owners = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "sum"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "map"
        ]
        assert set(owners) <= {"_series_inverse"}, module


def test_cached_from_values_are_frozen_dataclasses():
    for cls in (Params, PrivateKey, RingMatrix, RingSample, ShiftPoly, GeneratorBlock, BlockGrid):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__


def test_frozen_fields_are_written_only_by_constructors_and_the_attack_cache():
    # object.__setattr__ is how a frozen value is written; a cache field
    # written anywhere else could go stale
    writers = []
    for path in sorted(SRC.glob("*.py")):
        _, tree = imports(path.stem)
        owner = {}  # node -> its innermost function (walked outer first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        writers += [
            (path.stem, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "__setattr__"
            and getattr(node.func.value, "id", None) == "object"
        ]
    assert ("attacks", "_passive_system") in writers
    assert {w for w in writers if w[1] != "__post_init__"} == {("attacks", "_passive_system")}
