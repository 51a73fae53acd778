import ast
import pathlib

import cfmoments
from cfmoments import cfrac, cli, pipeline, ring, series, triangle

ROOT = pathlib.Path(__file__).resolve().parent.parent

# exports kept although nothing in the library, the demos or the benchmark
# uses them: the documented JSON round trip
_KEPT_WITHOUT_CALLER = {"parse_matrix_json"}

# methods with no caller in the code: a constructor that many tests use,
# and the hook through which argparse reports a usage error
_METHODS_WITHOUT_CALLER = {"Triangle.identity", "_Parser.error"}


def test_all_lists_every_submodule_export_once():
    assert len(cfmoments.__all__) == len(set(cfmoments.__all__))
    for module in (ring, triangle, series, cfrac, pipeline):
        for name in module.__all__:
            exported = "matrix_mul" if module is triangle and name == "mul" else name
            assert exported in cfmoments.__all__
            assert getattr(cfmoments, exported) is getattr(module, name)
    assert not hasattr(cfmoments, "mul")


def _references(tree):
    """Each name or attribute in a module's code, with the names of the
    defs and classes it sits in.  An attribute of a plain name also comes
    whole, as ``Cls.attr``.  A def or class statement and an __all__
    string are neither."""
    stack = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id, owners
        elif isinstance(node, ast.Attribute):
            yield node.attr, owners
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}", owners
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))


def _referenced_names():
    # a name counts as called when src/, demos/ or bench/ refers to it
    # from outside its own definition
    referenced = set()
    for folder in ("src", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, owners in _references(tree):
                if name not in owners:
                    referenced.add(name)
    return referenced


def test_every_export_has_a_caller():
    exports = set(cfmoments.__all__) | set(cli.__all__)
    assert sorted(exports - _referenced_names()) == sorted(_KEPT_WITHOUT_CALLER)


def test_every_module_level_definition_has_a_caller():
    # private helpers and methods too, so a helper that a change leaves
    # behind fails; a method counts as called when any attribute of its
    # name is referenced, a static method only when it is referenced as
    # Cls.name (QRat.make must not stand in for QPoly.make), and dunder
    # methods are the language's to call
    defined = {}
    for path in (ROOT / "src" / "cfmoments").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined[top.name] = top.name
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.endswith("__"):
                        key = f"{top.name}.{node.name}"
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in node.decorator_list
                        )
                        defined[key] = key if static else node.name
    referenced = _referenced_names()
    uncalled = {key for key, name in defined.items() if name not in referenced}
    assert sorted(uncalled) == sorted(_KEPT_WITHOUT_CALLER | _METHODS_WITHOUT_CALLER)


def _assigned(statement):
    """The non-dunder names a module-level assignment binds."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return set()
    return {
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and not node.id.endswith("__")
    }


def test_every_module_level_assignment_is_read():
    # a constant or reference table that a change leaves behind fails: the
    # name must be read in src/, demos/ or bench/ outside the statement
    # that assigns it
    assigned = set()
    for path in (ROOT / "src" / "cfmoments").glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            assigned |= _assigned(top)
    read = set()
    for folder in ("src", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                own = _assigned(top)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name not in own:
                        read.add(name)
    assert assigned, "no module-level assignment found"
    assert sorted(assigned - read) == []
