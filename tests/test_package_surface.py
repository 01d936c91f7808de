"""The package republishes each module's public names, and only those.

Every public name in ``src/`` is reached from ``cli.main``, imported by
the README's library example, or listed in ``UNREACHED`` with the caller
that keeps it.  A public name is one in a module's ``__all__``; in a
module without ``__all__``, a top-level def, class or assignment with no
``_`` prefix.  ``cli.main`` reaches a name when a chain of ``ast.Name``
loads leads there, each load in a reached top-level def, class or
assignment (decorators and defaults included), through relative imports
at module level or inside a function.  A name that the def binds itself
(an argument, an assignment or loop target, a comprehension target, a
nested def) is not a reference."""

import ast
from pathlib import Path

import concordance
from concordance import cabling, catalog, laurent, legendrian, seifert, surgery
from test_doc_examples import library_example

MODULES = (laurent, seifert, cabling, legendrian, surgery, catalog)

SRC = Path(concordance.__file__).parent

ROOT = ("cli", "main")

# Public names that cli.main does not reach and the README does not
# import, each with the caller outside src/ that keeps it there.
UNREACHED = {
    "cabling.tau_cable_rule":
        "perfbench/workloads.py builds its tau-rule cables with it",
    "cabling.MissingTau":
        "raised only by tau_cable_rule",
    "cyclotomic.CycloInt":
        "perfbench/tracer.py targets CycloInt.sign; the tests' signature oracle",
    "cyclotomic.hermitian_signature":
        "perfbench/tracer.py targets it; the tests' signature oracle",
    "legendrian.cable_front":
        "perfbench's diagram-homology and bench/layers.py build fronts with it",
    "legendrian.satellite_front":
        "perfbench's diagram-homology and bench/layers.py build fronts with it",
    "surgery.smith_normal_form":
        "perfbench's diagram-homology calls it and its tracer targets it "
        "(first_homology never forms U and V)",
    "seifert.block_sum":
        "the tests build connected sums with it",
    "seifert.mirror":
        "the tests build connected sums of mirrors with it",
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


def _index(tree):
    """A module's top-level definitions by name, and its relative imports
    as local name -> (module, name)."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def reached(sources, root):
    """The (module, name) definitions that root reaches, in the modules
    given as module name -> source text."""
    index = {module: _index(ast.parse(text)) for module, text in sources.items()}
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
        todo.extend(
            (module, load) for load in _free_loads(node) if load in defs or load in imports
        )
        todo.extend(
            (inner.module, alias.name)
            for inner in ast.walk(node)
            if isinstance(inner, ast.ImportFrom) and inner.level == 1
            for alias in inner.names
        )
    return {(module, name) for module, name in seen if name in index[module][0]}


def public_names(tree):
    """A module's ``__all__``, or its top-level names with no ``_`` prefix."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [name for name in _index(tree)[0] if not name.startswith("_")]


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
    public = {
        f"{module}.{name}"
        for module, text in sources.items()
        for name in public_names(ast.parse(text))
    }
    readme = readme_names()
    covered = {f"{module}.{name}" for module, name in reached(sources, ROOT)}
    covered |= {name for name in public if name.split(".")[1] in readme}
    assert sorted(public - covered - UNREACHED.keys()) == []  # unlisted
    assert sorted(UNREACHED.keys() - (public - covered)) == []  # stale


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
