"""The package's public names: ``__all__`` lists exactly what ``__init__``
imports, and every name in it resolves, so a retired export cannot dangle."""

import ast
import pathlib

import pauliflow


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(pathlib.Path(pauliflow.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(pauliflow.__all__)) == len(pauliflow.__all__)
    assert sorted(pauliflow.__all__) == sorted(imported)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from pauliflow import *", namespace)
    assert set(pauliflow.__all__) <= namespace.keys()
