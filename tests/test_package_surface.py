"""The package republishes each module's public names, and only those.

Every public name in ``src/``, and every method of a class that is
reached, is reached from ``cli.main``, imported by the README's library
example, or listed in ``UNREACHED`` with the caller that keeps it.  A
public name is one in a module's ``__all__``; in a module without
``__all__``, a top-level def, class or assignment with no ``_`` prefix.
``cli.main`` reaches a name when a chain of ``ast.Name`` loads leads
there, each load in reached code, through relative imports at module
level or inside a function.  A sibling module imported whole at module
level (``from . import legendrian``) passes on each attribute read
through it: ``legendrian.name`` in reached code reaches what
``from .legendrian import name`` would.  Reached code is a reached top-level def,
class or assignment (decorators and defaults included), without the
bodies of a class's methods, and each reached method.  A name that the
def binds itself (an argument, an assignment or loop target, a
comprehension target, a nested def) is not a reference.

A method, property or dunder of a reached class, named
``Class.method``, is reached only when a run-time census calls it.  The
walk resolves no types, so a read of ``x.size`` in reached code cannot
tell whose ``size`` it reads, and operators and the protocols of the
language dispatch on the type, which the walk does not see.  The census
(``CENSUS``) runs the README's command forms, in table and json output,
and its library example in a fresh interpreter, under a profile hook
installed before the package is imported, and reports each function of
``src/`` it called by file and first line (``co_qualname`` is 3.11 and
later).  ``__repr__`` is always reached: pytest, tracebacks and the REPL
call it."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import concordance
from concordance import cabling, catalog, laurent, legendrian, seifert, surgery
from test_doc_examples import library_example
from test_readme_forms import both_outputs, readme_forms

MODULES = (laurent, seifert, cabling, legendrian, surgery, catalog)

SRC = Path(concordance.__file__).parent

ROOT = ("cli", "main")

# Public names that cli.main does not reach and the README does not
# import, and methods of reached classes that the census does not call,
# each with the file of the caller that keeps it: one outside src/, or a
# src/ caller that no README form runs.
UNREACHED = {
    "cabling.tau_cable_rule":
        "perfbench/workloads.py builds its tau-rule cables with it",
    "cabling.MissingTau":
        "tests/test_cabling.py checks that tau_cable_rule raises it",
    "cyclotomic.CycloInt":
        "perfbench/tracer.py targets CycloInt.sign; tests/_oracles.py's signature oracle",
    "cyclotomic.hermitian_signature":
        "perfbench/tracer.py targets it; tests/_oracles.py's signature oracle",
    "legendrian.cable_front":
        "perfbench/workloads.py's diagram-homology and bench/layers.py build fronts with it",
    "legendrian.satellite_front":
        "perfbench/workloads.py's diagram-homology and bench/layers.py build fronts with it",
    "surgery.smith_normal_form":
        "perfbench/workloads.py's diagram-homology calls it and perfbench/tracer.py "
        "targets it (first_homology never forms U and V)",
    "seifert.block_sum":
        "tests/test_acceptance.py builds connected sums with it",
    "seifert.mirror":
        "tests/test_acceptance.py builds connected sums of mirrors with it",
    "legendrian.FrontDiagram.component_count":
        "perfbench/workloads.py's run_cable and bench/layers.py call it",
    "seifert.SignatureFunction.evaluate":
        "perfbench/workloads.py's sigma-sweep checker calls it, and perfbench/tracer.py targets it",
    "catalog.Catalog.entries":
        "README.md's migration note names len(catalog.entries), and Catalog.__iter__ reads it",
    "laurent.LaurentPoly.parse":
        "src/concordance/catalog.py reads an entry's alexander string with it, "
        "which no bundled entry has",
    "laurent.Record.__eq__":
        "tests/test_records.py pins it: records of one class with equal fields are equal",
    "laurent.Record.__hash__":
        "tests/test_records.py pins it: a record hashes by its fields",
    "laurent.Record.__setattr__":
        "tests/test_records.py pins it: a record refuses assignment",
    "laurent.Record.__delattr__":
        "tests/test_records.py pins it: a record refuses deletion",
    "laurent.LaurentPoly.__new__":
        "the public constructor from a dict {exponent: coefficient}, as tests/test_laurent.py "
        "builds polynomials; LaurentPoly.parse in src/concordance/laurent.py calls it",
    "laurent.LaurentPoly.__pow__":
        "src/concordance/laurent.py's fox_milnor_pairing, for the norm witness at an even "
        "multiplicity of a self-reciprocal factor, as perfbench/workloads.py's "
        "cable-obstruct asks and no README form",
    "catalog.Catalog.__iter__":
        "README.md's note on the removed Catalog.names(): [entry.name for entry in catalog]",
    "surgery.ClassMismatch.__init__":
        "perfbench/workloads.py's diagram-homology torsion probes and tests/test_surgery.py; "
        "homology-check builds a presentation that always passes",
}

CENSUS = """\
import contextlib, io, json, sys

job = json.load(sys.stdin)
called = set()


def census(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(census)
from concordance.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in job["forms"]:
        main(argv)
    exec(compile(job["example"], "README.md", "exec"), {})
sys.setprofile(None)
json.dump(sorted(called), sys.stdout)
"""


def census():
    """The (module, first line) of each function of src/ that CENSUS
    calls, in a fresh interpreter that imports the package from SRC."""
    forms = both_outputs(readme_forms())
    src = SRC.resolve()
    run = subprocess.run(
        [sys.executable, "-c", CENSUS],
        input=json.dumps({"forms": forms, "example": library_example()}),
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src.parent)),
    )
    return {
        (Path(file).stem, line)
        for file, line in json.loads(run.stdout)
        if Path(file).resolve().parent == src
    }


_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _own_nodes(scope):
    """The nodes of a scope, not entering the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _binds(scope):
    """The names a function, lambda or comprehension binds for itself."""
    names = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _free_loads(node, bound=frozenset()):
    """The names node loads that no scope inside it binds."""
    if isinstance(node, _SCOPES):
        bound = bound | _binds(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _index(tree):
    """A module's definitions by name, top-level ones and each class's
    methods as Class.method, and its relative imports as local name ->
    (module, name); a sibling module imported whole is (module, None)."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                defs.update(
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, _DEFS)
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    (node.module, alias.name) if node.module else (alias.name, None)
                )
    return defs, imports


def _code(node):
    """The parts of a definition that run when it is reached: a class's
    body without its methods' bodies, which run only when reached."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    for stmt in node.body:
        if isinstance(stmt, _DEFS):
            parts += [*stmt.decorator_list, stmt.args]
        else:
            parts.append(stmt)
    return parts


def _first_line(node):
    """A definition's first line, its first decorator's if it has one, as
    a code object counts it."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def reached(sources, root, called=frozenset()):
    """The (module, name) definitions that root reaches, in the modules
    given as module name -> source text; a method's name is
    Class.method.  A method of a reached class is reached when its
    (module, first line) is in called, or when it is ``__repr__``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    index = {module: _index(tree) for module, tree in trees.items()}
    seen, todo = set(), [root]
    while todo:
        module, name = todo.pop()
        if (module, name) in seen or module not in index:
            continue
        seen.add((module, name))
        defs, imports = index[module]
        if name in imports:
            todo.append(imports[name])
        if name not in defs:
            continue
        node = defs[name]
        for part in _code(node):
            todo.extend(
                (module, load) for load in _free_loads(part) if load in defs or load in imports
            )
            for inner in ast.walk(part):
                if isinstance(inner, ast.ImportFrom) and inner.level == 1:
                    todo.extend((inner.module, alias.name) for alias in inner.names)
                elif (
                    isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load)
                    and isinstance(inner.value, ast.Name) and inner.value.id in imports
                ):
                    sibling, whole = imports[inner.value.id]
                    if whole is None:
                        todo.append((sibling, inner.attr))
        if isinstance(node, ast.ClassDef):
            todo.extend(
                (module, f"{name}.{method.name}")
                for method in node.body
                if isinstance(method, _DEFS)
                and (method.name == "__repr__" or (module, _first_line(method)) in called)
            )
    return {(module, name) for module, name in seen if name in index[module][0]}


def public_names(tree):
    """A module's ``__all__``, or its top-level names with no ``_`` prefix."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [name for name in _index(tree)[0] if not name.startswith("_") and "." not in name]


def unlisted_and_stale(sources, readme, unreached, called):
    """The public names and the methods of reached classes that are
    neither reached from ROOT (a method: called, see ``reached``), named
    in readme nor listed in unreached, and the entries of unreached that
    name none of those, each sorted."""
    found = reached(sources, ROOT, called)
    trees = {module: ast.parse(text) for module, text in sources.items()}
    flagged = {f"{module}.{name}" for module, tree in trees.items() for name in public_names(tree)}
    flagged |= {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _index(tree)[0]
        if "." in name and (module, name.split(".")[0]) in found
    }
    covered = {f"{module}.{name}" for module, name in found}
    covered |= {name for name in flagged if name.split(".", 1)[1] in readme}
    unlisted = flagged - covered
    return sorted(unlisted - unreached.keys()), sorted(unreached.keys() - unlisted)


def readme_names():
    """The names the README's library example imports from the package."""
    return {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "concordance"
        for alias in node.names
    }


def test_package_names_are_the_sorted_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # each name has one home
    assert concordance.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(concordance, name) is getattr(module, name)
    # cabling imports first_witness by name; the package does not export it
    assert not hasattr(concordance, "first_witness")


def test_every_public_name_is_reached_named_by_the_readme_or_listed():
    sources = {
        path.stem: path.read_text()
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
    }
    assert len(sources) >= 10
    assert unlisted_and_stale(sources, readme_names(), UNREACHED, census()) == ([], [])


def test_a_local_binding_does_not_reach_the_name_it_shadows():
    source = (
        "def main(arg, *rest, kw=None):\n"
        "    bound = arg\n"
        "    for loop in rest:\n"
        "        pass\n"
        "    def nested():\n"
        "        return [comp for comp in bound]\n"
        "    return arg, rest, kw, bound, loop, nested, comp, used()\n"
        "def arg(): pass\n"
        "def rest(): pass\n"
        "def kw(): pass\n"
        "def bound(): pass\n"
        "def loop(): pass\n"
        "def nested(): pass\n"
        "def used(): pass\n"
    )
    # comp is no definition of the module: the load after the
    # comprehension is free but reaches nothing
    assert reached({"m": source}, ("m", "main")) == {("m", "main"), ("m", "used")}


def test_an_import_inside_a_function_reaches_its_name():
    sources = {
        "a": "from .b import top\n"
             "def main():\n"
             "    from .b import lazy\n"
             "    return lazy(), top()\n",
        "b": "def lazy():\n"
             "    return helper()\n"
             "def helper(): pass\n"
             "def top(): pass\n"
             "def unused(): pass\n",
    }
    assert reached(sources, ("a", "main")) == {
        ("a", "main"), ("b", "lazy"), ("b", "helper"), ("b", "top"),
    }


def test_a_read_through_a_sibling_module_reaches_its_name():
    sources = {
        "a": "from . import b\n"
             "def main():\n"
             "    return b.used()\n"
             "def unused():\n"
             "    return b.idle()\n",
        "b": "def used():\n"
             "    return helper()\n"
             "def helper(): pass\n"
             "def idle(): pass\n",
    }
    assert reached(sources, ("a", "main")) == {("a", "main"), ("b", "used"), ("b", "helper")}


def test_a_method_loaded_only_in_unreached_code_is_not_reached():
    source = (
        "def main():\n"
        "    return Thing().used\n"
        "def unused():\n"
        "    return Thing().idle()\n"
        "class Thing:\n"
        "    @property\n"
        "    def used(self): pass\n"
        "    def idle(self): pass\n"
    )
    # the census calls the property used, by its decorator's line
    assert reached({"m": source}, ("m", "main"), {("m", 6)}) == {
        ("m", "main"), ("m", "Thing"), ("m", "Thing.used"),
    }


def test_a_method_reached_only_through_a_reached_method_is_reached():
    source = (
        "def main():\n"
        "    return Thing().first()\n"
        "class Thing:\n"
        "    def first(self):\n"
        "        return self._second()\n"
        "    def _second(self):\n"
        "        return helper()\n"
        "    def third(self): pass\n"
        "def helper(): pass\n"
    )
    # the census calls first and _second, and _second's body reaches helper
    assert reached({"m": source}, ("m", "main"), {("m", 4), ("m", 6)}) == {
        ("m", "main"), ("m", "Thing"), ("m", "Thing.first"), ("m", "Thing._second"),
        ("m", "helper"),
    }


def test_a_dunder_is_reached_only_when_the_census_calls_it():
    source = (
        "def main():\n"
        "    return Thing() + Other()\n"
        "class Thing:\n"
        "    def __init__(self): pass\n"
        "    def __add__(self, other): return helper()\n"
        "    def __repr__(self): return shown()\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def __init_subclass__(cls): pass\n"
        "    def __radd__(self, other): pass\n"
        "class Unused:\n"
        "    def __init__(self): pass\n"
        "def helper(): pass\n"
        "def shown(): pass\n"
    )
    # called: Thing.__add__, Other.__init_subclass__ by its decorator's
    # line, and Unused.__init__, whose class is not reached; __repr__ is
    # reached uncalled, Thing.__init__ and Other.__radd__ are not
    called = {("m", 5), ("m", 8), ("m", 12)}
    assert reached({"m": source}, ("m", "main"), called) == {
        ("m", "main"), ("m", "Thing"), ("m", "Thing.__add__"), ("m", "helper"),
        ("m", "Thing.__repr__"), ("m", "shown"), ("m", "Other"), ("m", "Other.__init_subclass__"),
    }


def test_an_uncalled_dunder_must_be_listed():
    sources = {
        "cli": "def main():\n"
               "    return Thing() * Thing()\n"
               "class Thing:\n"
               "    def __mul__(self, other): pass\n"
               "    def __add__(self, other): pass\n",
    }
    assert unlisted_and_stale(sources, set(), {}, {("cli", 4)}) == (["cli.Thing.__add__"], [])
    listed = {"cli.Thing.__add__": "a caller outside src/"}
    assert unlisted_and_stale(sources, set(), listed, {("cli", 4)}) == ([], [])
    # a census that calls __add__ too makes its entry stale
    assert unlisted_and_stale(sources, set(), listed, {("cli", 4), ("cli", 5)}) == ([], ["cli.Thing.__add__"])


def test_an_unreached_method_must_be_listed_and_a_stale_entry_fails():
    sources = {
        "cli": "def main():\n"
               "    return Thing().used()\n"
               "class Thing:\n"
               "    def used(self): pass\n"
               "    def idle(self): pass\n",
    }
    called = {("cli", 4)}
    assert unlisted_and_stale(sources, set(), {}, called) == (["cli.Thing.idle"], [])
    # a README name covers the class it names, not the class's methods
    assert unlisted_and_stale(sources, {"Thing"}, {}, called) == (["cli.Thing.idle"], [])
    listed = {"cli.Thing.idle": "a caller outside src/"}
    assert unlisted_and_stale(sources, set(), listed, called) == ([], [])
    stale = dict(listed, **{"cli.Thing.used": "reached, so stale"})
    assert unlisted_and_stale(sources, set(), stale, called) == ([], ["cli.Thing.used"])


def test_a_method_whose_name_is_read_is_reached_only_when_called():
    sources = {
        "cli": "def main():\n"
               "    return Report().size, Matrix().genus()\n"
               "class Report:\n"
               "    size = 1\n"
               "class Matrix:\n"
               "    def genus(self): pass\n"
               "    @property\n"
               "    def size(self): pass\n",
    }
    # main reads .size and calls .genus(); neither read reaches a method
    classes = {("cli", "main"), ("cli", "Report"), ("cli", "Matrix")}
    assert reached(sources, ROOT) == classes
    called = {("cli", 6)}
    assert reached(sources, ROOT, called) == classes | {("cli", "Matrix.genus")}
    # Report's size read does not stand in for the uncalled Matrix.size
    assert unlisted_and_stale(sources, set(), {}, called) == (["cli.Matrix.size"], [])
    listed = {"cli.Matrix.size": "a caller outside src/"}
    assert unlisted_and_stale(sources, set(), listed, called) == ([], [])
    # a census call of the property, by its decorator's line, makes the entry stale
    assert unlisted_and_stale(sources, set(), listed, called | {("cli", 7)}) == ([], ["cli.Matrix.size"])


# a repo path in an UNREACHED reason: a word with a slash, or a file name
REASON_PATH = re.compile(r"[\w.-]*/[\w./-]*\w|\b\w+\.(?:py|md)\b")


def test_each_unreached_reason_names_the_file_of_its_caller():
    repo = SRC.parents[1]
    for entry, reason in UNREACHED.items():
        paths = REASON_PATH.findall(reason)
        assert paths and all((repo / path).is_file() for path in paths), (entry, paths)
        short = entry.rsplit(".", 1)[1]
        # operators and protocols call a dunder by no name
        if not short.startswith("__"):
            assert any(short in (repo / path).read_text() for path in paths), entry
