"""The package republishes each module's public names, and only those.

Every public name in ``src/``, and every method of a class that is
reached, is reached from ``cli.main``, imported by the README's library
example, or listed in ``UNREACHED`` with the caller that keeps it.  A
public name is one in a module's ``__all__``; in a module without
``__all__``, a top-level def, class or assignment with no ``_`` prefix.
``cli.main`` reaches a name when a chain of ``ast.Name`` loads leads
there, each load in reached code, through relative imports at module
level or inside a function.  Reached code is a reached top-level def,
class or assignment (decorators and defaults included), without the
bodies of a class's methods, and each reached method.  A name that the
def binds itself (an argument, an assignment or loop target, a
comprehension target, a nested def) is not a reference.

A method of a reached class, named ``Class.method``, is reached when its
name is loaded as an ``ast.Attribute`` in reached code.  The walk does
not resolve the object's type, so a load of another class's attribute of
the same name reaches it too.  Every dunder of a reached class is
reached, as operators and the protocols of the language dispatch on the
type."""

import ast
from pathlib import Path

import concordance
from concordance import cabling, catalog, laurent, legendrian, seifert, surgery
from test_doc_examples import library_example

MODULES = (laurent, seifert, cabling, legendrian, surgery, catalog)

SRC = Path(concordance.__file__).parent

ROOT = ("cli", "main")

# Public names and methods that cli.main does not reach and the README
# does not import, each with the caller outside src/ that keeps it there.
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
    "legendrian.FrontDiagram.component_count":
        "perfbench's run_cable and bench/layers.py call it",
    "seifert.SignatureFunction.evaluate":
        "perfbench's sigma-sweep checker calls it, and its tracer targets it",
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
    (module, name)."""
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
                imports[alias.asname or alias.name] = (node.module, alias.name)
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


def reached(sources, root):
    """The (module, name) definitions that root reaches, in the modules
    given as module name -> source text; a method's name is
    Class.method."""
    index = {module: _index(ast.parse(text)) for module, text in sources.items()}
    seen, todo = set(), [root]
    attributes, waiting = set(), {}  # waiting: method name -> its unreached defs
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
                elif isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load):
                    attributes.add(inner.attr)
                    todo.extend(waiting.pop(inner.attr, ()))
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, _DEFS):
                    key = (module, f"{name}.{method.name}")
                    if method.name in attributes or method.name[:2] == method.name[-2:] == "__":
                        todo.append(key)
                    else:
                        waiting.setdefault(method.name, []).append(key)
    return {(module, name) for module, name in seen if name in index[module][0]}


def public_names(tree):
    """A module's ``__all__``, or its top-level names with no ``_`` prefix."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [name for name in _index(tree)[0] if not name.startswith("_") and "." not in name]


def unlisted_and_stale(sources, readme, unreached):
    """The public names and the methods of reached classes that are
    neither reached from ROOT, named in readme nor listed in unreached,
    and the entries of unreached that name none of those, each sorted."""
    found = reached(sources, ROOT)
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
    assert unlisted_and_stale(sources, readme_names(), UNREACHED) == ([], [])


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
    assert reached({"m": source}, ("m", "main")) == {
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
    assert reached({"m": source}, ("m", "main")) == {
        ("m", "main"), ("m", "Thing"), ("m", "Thing.first"), ("m", "Thing._second"),
        ("m", "helper"),
    }


def test_the_dunders_of_a_reached_class_are_reached():
    source = (
        "def main():\n"
        "    return Thing() + Other()\n"
        "class Thing:\n"
        "    def __init__(self): pass\n"
        "    def __add__(self, other): return helper()\n"
        "    def plain(self): pass\n"
        "class Other:\n"
        "    def __radd__(self, other): pass\n"
        "class Unused:\n"
        "    def __init__(self): pass\n"
        "def helper(): pass\n"
    )
    assert reached({"m": source}, ("m", "main")) == {
        ("m", "main"), ("m", "Thing"), ("m", "Thing.__init__"), ("m", "Thing.__add__"),
        ("m", "helper"), ("m", "Other"), ("m", "Other.__radd__"),
    }


def test_an_unreached_method_must_be_listed_and_a_stale_entry_fails():
    sources = {
        "cli": "def main():\n"
               "    return Thing().used()\n"
               "class Thing:\n"
               "    def used(self): pass\n"
               "    def idle(self): pass\n",
    }
    assert unlisted_and_stale(sources, set(), {}) == (["cli.Thing.idle"], [])
    # a README name covers the class it names, not the class's methods
    assert unlisted_and_stale(sources, {"Thing"}, {}) == (["cli.Thing.idle"], [])
    listed = {"cli.Thing.idle": "a caller outside src/"}
    assert unlisted_and_stale(sources, set(), listed) == ([], [])
    stale = dict(listed, **{"cli.Thing.used": "reached, so stale"})
    assert unlisted_and_stale(sources, set(), stale) == ([], ["cli.Thing.used"])
