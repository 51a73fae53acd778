import ast
import pathlib

import cfmoments
from cfmoments import cfrac, cli, pipeline, ring, series, triangle

ROOT = pathlib.Path(__file__).resolve().parent.parent

# exports kept although nothing in the library, the demos or the benchmark
# uses them: the only evidence that the Schröder checks can fail, and the
# documented JSON round trip
_KEPT_WITHOUT_CALLER = {"schroder_structure_checks", "parse_matrix_json"}


def test_all_lists_every_submodule_export_once():
    assert len(cfmoments.__all__) == len(set(cfmoments.__all__))
    for module in (ring, triangle, series, cfrac, pipeline):
        for name in module.__all__:
            exported = "matrix_mul" if module is triangle and name == "mul" else name
            assert exported in cfmoments.__all__
            assert getattr(cfmoments, exported) is getattr(module, name)
    assert not hasattr(cfmoments, "mul")


def _references(tree):
    """Each name or attribute in a module's code, with the module-level
    def or class it sits in (None outside them).  A def or class
    statement and an __all__ string are neither."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def _referenced_names():
    # a name counts as called when src/, demos/ or bench/ refers to it
    # from outside its own definition
    referenced = set()
    for folder in ("src", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, owner in _references(tree):
                if name != owner:
                    referenced.add(name)
    return referenced


def test_every_export_has_a_caller():
    exports = set(cfmoments.__all__) | set(cli.__all__)
    assert sorted(exports - _referenced_names()) == sorted(_KEPT_WITHOUT_CALLER)


def test_every_module_level_definition_has_a_caller():
    # private helpers too, so a helper that a change leaves behind fails
    defined = set()
    for path in (ROOT / "src" / "cfmoments").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(top.name)
    assert sorted(defined - _referenced_names()) == sorted(_KEPT_WITHOUT_CALLER)
