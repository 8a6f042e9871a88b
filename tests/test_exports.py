"""The package's public surface: `__all__` lists exactly what it imports."""

import ast
import inspect

import huliu


def _imported_names() -> list[str]:
    """Every name the package's __init__ imports from its own modules."""
    tree = ast.parse(inspect.getsource(huliu))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from huliu import *", namespace)
    missing = [name for name in huliu.__all__ if name not in namespace]
    assert not missing


def test_every_imported_name_is_listed():
    names = _imported_names()
    assert {"embed_check", "enumerate_ideals", "component_ring"} <= set(names)
    assert [name for name in names if name not in huliu.__all__] == []
