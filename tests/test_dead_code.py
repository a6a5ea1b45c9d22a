"""Every public module-level function or class of the package has a caller in
the package or the benchmark harness; code that only tests reach belongs in
the tests.  Every defaulted parameter of a package function is passed by some
call in the package, the harness or the tests; one nobody sets is a constant.
Every parameter of a package function is read by its body."""

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


def _defaulted(fn):
    """(name, positional index or None) of each parameter of ``fn`` that has
    a default; the index counts from the first argument a call writes, so a
    leading ``self`` or ``cls`` is skipped."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _passes(call, name, index):
    """Whether ``call`` writes parameter ``name`` (positional ``index``);
    a ``*args`` or ``**kwargs`` in the call may write any parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default that no call in the package, the benchmark
    harness or the tests ever passes has one value in use: a constant."""
    package = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(path.read_text())
              for folder in (ROOT / "perfbench", ROOT / "tests")
              for path in sorted(folder.glob("*.py"))]
    calls = defaultdict(list)  # callee name -> every call of that name
    for tree in list(package.values()) + others:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in package.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def descends(cls, ancestor):
        return cls == ancestor or any(descends(b, ancestor)
                                      for b in bases.get(cls, ()))

    unset = []
    for path, tree in package.items():
        owners = {id(item): cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "__init__" and id(fn) in owners:
                # a class call runs its own or an inherited __init__
                sites = [c for cls in bases if descends(cls, owners[id(fn)])
                         for c in calls[cls]]
            else:
                sites = calls[fn.name]
            unset += [f"{path.name}: {fn.name}({name})"
                      for name, index in _defaulted(fn)
                      if not any(_passes(c, name, index) for c in sites)]
    assert not unset, f"defaulted parameters that no call passes: {unset}"


def test_every_parameter_is_read():
    """A package function reads each of its parameters (``self`` and ``cls``
    aside); one its body never reads only widens the signature."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}: {fn.name}({name})" for name in params
                       if name not in ("self", "cls") and name not in read]
    assert not unread, f"parameters that the body never reads: {unread}"
