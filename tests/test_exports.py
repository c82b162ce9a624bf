"""Every name the package exports is reached by a command or a test oracle.

The walk starts from every name ``cli.py`` references and follows name
references (``ast.Name``, relative-import aliases and string annotations)
into the top-level definitions of the package's modules.  Attribute
accesses do not count: ``space.identity`` keeps no function called
``identity`` alive.
"""

import ast
from pathlib import Path

import ulamcode

PACKAGE = Path(ulamcode.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"


def _names(tree: ast.AST) -> set[str]:
    """Identifiers a subtree reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.AST):
                for sub in ast.walk(ann):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        names |= _names(ast.parse(sub.value, mode="eval"))
    return names


def _index():
    """(refs, aliases) over the package's modules.

    ``refs`` maps (module, name) of each top-level definition to the names
    its statement reads; ``aliases`` maps (module, name) bound by a
    relative import to the (module, name) it imports.
    """
    refs, aliases = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    target = (stmt.module or "__init__", alias.name)
                    aliases[module, alias.asname or alias.name] = target
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs[module, stmt.name] = _names(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in _names(target):
                        refs[module, name] = _names(stmt) - {name}
    return refs, aliases


def _resolve(key, aliases):
    while key in aliases:
        key = aliases[key]
    return key


def _reached_from_cli(refs, aliases) -> set:
    reached = set()
    todo = [("cli", name) for name in _names(ast.parse((PACKAGE / "cli.py").read_text()))]
    while todo:
        key = _resolve(todo.pop(), aliases)
        if key in reached or key not in refs:
            continue
        reached.add(key)
        todo += [(key[0], name) for name in refs[key]]
    return reached


def _oracle_imports(aliases) -> set:
    """(module, name) of each package name tests/oracles.py imports."""
    found = set()
    for stmt in ast.parse(ORACLES.read_text()).body:
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("ulamcode"):
            module = stmt.module.partition(".")[2] or "__init__"
            found |= {_resolve((module, alias.name), aliases) for alias in stmt.names}
    return found


def test_every_export_is_reached_by_a_command_or_an_oracle():
    refs, aliases = _index()
    kept = _reached_from_cli(refs, aliases) | _oracle_imports(aliases)
    exports = {name for module, name in [*refs, *aliases] if module == "__init__"}
    unreached = sorted(
        name for name in exports if _resolve(("__init__", name), aliases) not in kept
    )
    assert not unreached, f"exported, but no command or oracle reaches: {unreached}"


def test_the_walk_reads_names_and_annotations_but_not_attributes():
    # ``space.identity`` keeps ``space`` alive and no ``identity``.
    assert _names(ast.parse("space.identity(x)")) == {"space", "x"}
    tree = ast.parse('def f(a: "Perm") -> "list[Code]": return a.words')
    assert _names(tree) == {"Perm", "list", "Code", "a"}
