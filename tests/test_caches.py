"""One list of caches: every ``functools.lru_cache`` in ``src/concordance``
is emptied by both cache-clearing helpers, ``tests/_oracles.clear_caches``
and ``bench/layers.clear_caches``, or is named in ``KEPT`` with the reason
it is kept.  A helper that misses a cache leaves a cold-cache test or a
layer timing warm; found by ``ast``, so a new cache fails this test until
both helpers clear it or it is listed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "concordance"
HELPERS = (ROOT / "tests" / "_oracles.py", ROOT / "bench" / "layers.py")

# module.function -> why neither helper empties it
KEPT = {
    "cyclotomic._pi_fixed": "pi enclosed at a given precision, a constant: no input of a test or a layer changes it",
    "cyclotomic.cyclotomic_coeffs": "Phi_b, a constant: no input of a test or a layer changes it",
}


def _is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target) in {"functools.lru_cache", "lru_cache", "functools.cache"}


def _cached_functions(node, prefix):
    """The dotted names under `prefix` of the functions in `node` (nested
    ones and methods too) that an lru_cache decorates."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and any(map(_is_lru_cache, child.decorator_list)):
                yield name
            yield from _cached_functions(child, name)


def library_caches():
    return {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _cached_functions(ast.parse(path.read_text()), path.stem)
    }


def cleared_by(path):
    """The `x.y` of each `x.y.cache_clear()` in the file's clear_caches."""
    tree = ast.parse(path.read_text())
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "clear_caches")
    return {
        ast.unparse(node.func.value)
        for node in ast.walk(helper)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cache_clear"
    }


def test_both_helpers_clear_every_cache_not_kept():
    caches = library_caches()
    assert set(KEPT) <= caches, "a kept entry names no cache"
    for path in HELPERS:
        assert cleared_by(path) == caches - set(KEPT), path.relative_to(ROOT)


def test_a_decorated_method_and_a_bare_decorator_are_found():
    source = (
        "import functools\n"
        "class A:\n"
        "    @functools.lru_cache\n"
        "    def m(self): pass\n"
        "def f():\n"
        "    @functools.cache\n"
        "    def g(): pass\n"
    )
    assert set(_cached_functions(ast.parse(source), "mod")) == {"mod.A.m", "mod.f.g"}
