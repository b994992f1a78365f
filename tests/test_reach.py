"""``src/tt2`` holds only what the script and the library use: each of its
top-level functions, classes and methods is named somewhere in ``src/tt2``
outside its own definition, or is a listed public entry point."""

import ast
from collections import defaultdict

from conftest import REPO_ROOT

# Entry points that nothing in src/tt2 names, each with its reason.
PUBLIC = {
    "parse_term": "the library's entry point for a single term",
    "lex": "the token list that tests/golden/tokens.sha256 pins and perfbench's traced runs count",
}


def unnamed_definitions() -> set[str]:
    """The name of each definition that nothing else names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((REPO_ROOT / "src" / "tt2").glob("*.py"))}
    # Where each name occurs: as a name, an attribute, or a string that is
    # one, as in __all__ and __match_args__.
    uses = defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                uses[node.value].append((path, node.lineno))
    unnamed = set()
    for path, tree in trees.items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else ()
            for node in (top, *members):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue  # Python calls these
                if all(where == path and node.lineno <= line <= node.end_lineno
                       for where, line in uses[node.name]):
                    unnamed.add(node.name)
    return unnamed


def test_only_public_entry_points_go_unnamed():
    assert unnamed_definitions() == set(PUBLIC)
