"""Nothing in tmlwb is there for tests alone.

Every module-level function, class, non-dunder method and UPPER_CASE
constant of the package must be used by the package itself or by the
benchmark in perfbench/: its name has to appear as a Name, an Attribute
or an import alias somewhere outside its own definition. A reference or
helper that only tests call belongs under tests/.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tmlwb"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

Definition = tuple[str, str, ast.AST]  # (module file, name, defining node)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(path: Path) -> list[Definition]:
    defs: list[Definition] = []
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((path.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(path.name, f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(path.name, t.id, node) for t in targets
                     if isinstance(t, ast.Name) and t.id.isupper()]
    return defs


def _uses(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every Name, Attribute and imported name of a file."""
    uses = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            uses += [(part, node.lineno) for part in node.name.split(".")]
    return uses


def unused_definitions() -> list[str]:
    uses = {path.name: _uses(path) for path in SOURCES}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, qualname, node in _definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and not (file == module and line in own)
                       for file, found in uses.items() for used, line in found):
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_package_name_is_used_outside_tests():
    assert unused_definitions() == []


def test_the_walk_sees_definitions_of_every_kind():
    names = {qualname for path in SOURCES if path.parent == PACKAGE
             for _, qualname, _ in _definitions(path)}
    assert {"Store", "Store.save_corpus", "corpus_fingerprint", "STORE_VERSION",
            "TLINK_RELATIONS", "Document.tlinks"} <= names
