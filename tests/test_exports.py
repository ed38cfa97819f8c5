"""The package namespace re-exports only names its modules declare public."""

import ast
import importlib
import pathlib

import pytest

import quantum_replicator

PACKAGE_IMPORTS = [
    node for node in ast.parse(pathlib.Path(quantum_replicator.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom)
]


def test_package_imports_found():
    assert {node.module for node in PACKAGE_IMPORTS} == {
        "games", "dynamics", "stability", "ess", "scenarios"}


@pytest.mark.parametrize("node", PACKAGE_IMPORTS, ids=lambda node: node.module)
def test_every_package_import_is_in_module_all(node):
    module = importlib.import_module(f"quantum_replicator.{node.module}")
    missing = [alias.name for alias in node.names if alias.name not in module.__all__]
    assert missing == []
