"""Every code reference in the package's docstrings and in README.md names
a live attribute, as does every name in ``freequandle.__all__``.

A dotted reference is read from the package, or from the module its first
name names; a bare first name is read from the module whose docstring
holds it and from the classes that module defines.
"""

import ast
import importlib
import pkgutil
import re
import typing
from pathlib import Path

import freequandle

PACKAGE = Path(freequandle.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name: importlib.import_module(f"freequandle.{m.name}")
           for m in pkgutil.iter_modules([str(PACKAGE)])}
ROOTS = {"freequandle": freequandle, **MODULES}  # the first names of module.name

ROLE = re.compile(r":(?:func|meth|class|attr|mod):`~?([\w.]+?)(?:\(\))?`")
DOTTED = r"([A-Za-z_]\w*(?:\.\w+)+)"
LITERAL = re.compile(rf"``{DOTTED}``")
BACKTICKED = re.compile(rf"(?<!`)`{DOTTED}`(?!`)")


def _docstrings(name):
    """The module, class and function docstrings of a package module."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def _names_a_module(path):
    return path.split(".")[0] in ROOTS


def _resolves(path, module):
    head, *rest = path.split(".")
    scopes = [module] + [v for v in vars(module).values()
                         if isinstance(v, type) and v.__module__ == module.__name__]
    roots = [ROOTS[head]] if head in ROOTS else []
    roots += [getattr(s, head) for s in scopes if hasattr(s, head)]
    for obj in roots:
        for part in rest:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def _unresolved(refs):
    refs = list(refs)
    assert refs  # the patterns still match something
    return [(where, path) for where, module, path in refs if not _resolves(path, module)]


def _docstring_refs(pattern, keep=lambda path: True):
    for name, module in MODULES.items():
        for doc in _docstrings(name):
            yield from ((name, module, path) for path in pattern.findall(doc) if keep(path))


class TestReferences:
    def test_docstring_roles(self):
        assert _unresolved(_docstring_refs(ROLE)) == []

    def test_docstring_module_literals(self):
        assert _unresolved(_docstring_refs(LITERAL, _names_a_module)) == []

    def test_readme_names(self):
        paths = filter(_names_a_module, BACKTICKED.findall(README.read_text(encoding="utf-8")))
        assert _unresolved(("README.md", freequandle, p) for p in paths) == []

    def test_all_names(self):
        assert _unresolved(("__all__", freequandle, n) for n in freequandle.__all__) == []


def _hinted():
    """Every function, method and class that a package module defines, with
    a property's getter and a cached property's function as its methods."""
    for module in MODULES.values():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            yield obj
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
                    attr = getattr(attr, "fget", None) or getattr(attr, "func", None) or attr
                    if callable(attr) and getattr(attr, "__module__", None) == module.__name__:
                        yield attr


def test_annotations_resolve():
    # each annotation names what its module imports or defines
    unresolved = []
    for obj in _hinted():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append((obj.__qualname__, str(exc)))
    assert unresolved == []
