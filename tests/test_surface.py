"""Every public top-level def and class of a library module has a caller.

A public name in `src/patclass/*.py` (`cli.py` and `__init__.py` aside) must
be named in `src/patclass` outside its own definition, in `perfbench/*.py`,
or be exported through `patclass.__all__`. Names are read from the AST's
`Name`, `Attribute` and import `alias` nodes. What only tests call belongs
in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import patclass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "patclass"
ENTRY_MODULES = {"cli.py", "__init__.py"}


def _referenced(node):
    """The names a node refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _public_defs(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def test_every_public_def_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # (file, top-level statement) -> names it refers to
    refs = {(path, i): set(_referenced(stmt))
            for path, tree in trees.items() for i, stmt in enumerate(tree.body)}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench.update(_referenced(ast.parse(path.read_text())))
    exported = set(patclass.__all__)

    unused = []
    for path, tree in trees.items():
        if path.name in ENTRY_MODULES:
            continue
        for node in _public_defs(tree):
            own = (path, tree.body.index(node))
            used = (node.name in exported or node.name in bench
                    or any(node.name in names for key, names in refs.items()
                           if key != own))
            if not used:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, (
        f"public names with no caller in src/, perfbench/ or __all__: {unused}; "
        "move test-only helpers to tests/oracles.py")
