"""Every module-level function and class of `flatlie` has a use: another
definition of the package refers to it, `flatlie._EXPORTS` exports it, or
it is an entry point of the console script, the catalog or the input
format.  So has every method and property of its classes: another
statement of the package reads it.  A helper that only the tests call
belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

import flatlie

SRC = Path(flatlie.__file__).parent
ENTRY_POINTS = {"cli.entry", "catalog.build", "inputdoc.load", "inputdoc.loads", "inputdoc.emit_document"}
#: class members that no statement of the package reads, each with its use
MEMBER_USES = {
    "CheckedRecord._make": "the NamedTuple protocol: `_replace` builds its copy with it",
    "MetricLieAlgebra.make": "the public constructor from a Gram matrix, called by a README python block",
    "MetricLieAlgebra.change_basis": "the public change of basis, which README describes",
    "Subspace.span": "the public constructor that checks vector lengths",
}


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


def unused_members():
    """Class.name of each method or property, dunders aside, of a
    module-level class that no other statement of the package reads as
    `.name`: a member's reads of its own name do not count."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]

    def reads(node):
        return Counter(x.attr for x in ast.walk(node) if isinstance(x, ast.Attribute) and isinstance(x.ctx, ast.Load))

    total = sum(map(reads, trees), Counter())
    return sorted(
        f"{cls.name}.{member.name}"
        for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
        if total[member.name] == reads(member)[member.name]
    )


def test_every_member_has_a_use():
    assert [name for name in unused_members() if name not in MEMBER_USES] == []
