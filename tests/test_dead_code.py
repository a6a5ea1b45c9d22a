"""Every public module-level function or class of the package has a caller in
the package or the benchmark harness; code that only tests reach belongs in
the tests."""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadgrad"

# the point reference that tests/test_solver.py checks inner_coefficients against
EXEMPT = {"k_delta"}


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in
             sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}
    uses = defaultdict(list)  # name -> (file, line) of each identifier or attribute
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
    unused = [
        f"{path.name}: {node.name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in EXEMPT
        and all(user == path and node.lineno <= line <= node.end_lineno
                for user, line in uses[node.name])
    ]
    assert not unused, f"defined but never referenced: {unused}"
