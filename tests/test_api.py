"""Every module-level function and class of `flatlie` has a use: another
definition of the package refers to it, `flatlie._EXPORTS` exports it, or
it is an entry point of the console script, the catalog or the input
format.  A helper that only the tests call belongs in the tests."""

import ast
from pathlib import Path

import flatlie

SRC = Path(flatlie.__file__).parent
ENTRY_POINTS = {"cli.entry", "catalog.build", "inputdoc.load", "inputdoc.loads", "inputdoc.emit_document"}


def unused_definitions():
    """module.name of each module-level def or class with no use.  A name
    is used by another top-level statement that reads it as a bare name in
    its own module or in one that imports it from there, or that reads it
    as `<module>.<name>` anywhere in the package (`m.<name>` is no use)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    imported = {
        (module, node.module.rpartition(".")[2], alias.name)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module for alias in node.names
    }
    statements = []  # (module, statement, its bare names, its (module, name) attribute reads)
    for module, tree in trees.items():
        for node in tree.body:
            nodes = list(ast.walk(node))
            statements.append((module, node, {x.id for x in nodes if isinstance(x, ast.Name)},
                               {(x.value.id, x.attr) for x in nodes
                                if isinstance(x, ast.Attribute) and isinstance(x.value, ast.Name)}))
    exported = {name for names in flatlie._EXPORTS.values() for name in names}
    unused = []
    for module, node, _, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name in exported or f"{module}.{name}" in ENTRY_POINTS or name.startswith("__"):
            continue
        readers = {module} | {reader for reader, source, alias in imported if (source, alias) == (module, name)}
        if not any((module, name) in attrs or name in names and owner in readers
                   for owner, other, names, attrs in statements if other is not node):
            unused.append(f"{module}.{name}")
    return sorted(unused)


def test_every_definition_has_a_use():
    assert unused_definitions() == []
