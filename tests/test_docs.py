"""The docs name code that exists.

Every double-backticked name in the package's docstrings, and every
`module.name` in README.md, must resolve to a module global, a class
attribute or a builtin, so that a rename or a deletion cannot leave a doc
describing code that is gone.
"""

import ast
import builtins
import importlib
import pathlib
import pkgutil
import re

import spacing_auctions

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(spacing_auctions.__path__))
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def has_attr(obj, name):
    """Whether `name` is an attribute of `obj`, counting a dataclass's fields,
    which need not exist on the class itself."""
    return hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", {})


def resolves(token, module, scopes):
    """Whether the dotted `token` names an attribute chain that starts at a
    class in `scopes`, a global of `module`, a package module or a builtin."""
    head, *rest = token.split(".")
    roots = [obj for obj in scopes if has_attr(obj, head)]
    if hasattr(module, head):
        roots.append(module)
    if head in MODULES:
        roots.append(spacing_auctions)
        importlib.import_module(f"spacing_auctions.{head}")
    if hasattr(builtins, head):
        roots.append(builtins)
    for root in roots:
        obj = root
        for part in [head, *rest]:
            if not has_attr(obj, part):
                break
            obj = getattr(obj, part, None)
        else:
            return True
    return False


def unresolved_docstring_names(name, source):
    """The double-backticked names in `source`'s docstrings that do not
    resolve in module spacing_auctions.`name`.  A name may also start at an
    attribute of a class the module defines (a method such as ``encode``)."""
    module = importlib.import_module(f"spacing_auctions.{name}")
    own = [obj for obj in vars(module).values()
           if isinstance(obj, type) and obj.__module__ == module.__name__]
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for token in re.findall(r"``([^`]+)``", ast.get_docstring(node, clean=False) or ""):
            if NAME.fullmatch(token) and not resolves(token, module, own):
                bad.append(token)
    return bad


def test_docstring_names_resolve():
    bad = {
        name: unresolved
        for name in MODULES
        if (unresolved := unresolved_docstring_names(
            name, (ROOT / "src" / "spacing_auctions" / f"{name}.py").read_text()
        ))
    }
    assert bad == {}


def test_a_name_the_module_lacks_is_reported():
    source = '"""Mixtures for ``policy_from_occupancy`` and ``_solve_twice``."""\n'
    assert unresolved_docstring_names("benchmark", source) == [
        "policy_from_occupancy", "_solve_twice"
    ]


def test_readme_module_names_resolve():
    tokens = re.findall(r"`([^`\s]+)`", (ROOT / "README.md").read_text())
    refs = [
        t for t in tokens
        if NAME.fullmatch(t) and "." in t and t.split(".")[0] in MODULES
        and not re.search(r"\.(py|csv|json|md|toml)$", t)
    ]
    assert len(refs) >= 3
    assert [t for t in refs if not resolves(t, spacing_auctions, [])] == []
