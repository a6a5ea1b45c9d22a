"""Every public module-level function or class of the package has a caller in
the package or the benchmark harness; code that only tests reach belongs in
the tests.  Every defaulted parameter of a package function is passed by some
call in the package or the harness; one that only tests set is a constant.
Every parameter of a package function is read by its body.  A ``ScalarField``
is built only where nodal data enters or a solution leaves.  Only ``config``
reads inside the raw config document.  The solver reads the problem's
constants, never the constants command's report, and an ``Experiment`` holds
those constants once, in ``data.constants``."""

import ast
import pathlib
from collections import defaultdict
from dataclasses import fields

from conftest import config_path
from quadgrad.config import experiment_from_file
from quadgrad.constants import ProblemConstants

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadgrad"

# the point reference that tests/test_solver.py checks inner_coefficients against
EXEMPT = {"k_delta"}
# defaulted parameters that only tests pass, each with the reason
EXEMPT_PARAMETERS = {
    # only a test can exhaust CG's budget: with the exact preconditioner, CG
    # at tol 1e-300 breaks down after about 100 iterations, far short of its
    # 20 n + 100
    "grid.py: cg_solve(maxiter)",
    # the Sobolev ascent converges in a few of its 400 steps; only a test can
    # stop it short to reach the unconverged result
    "grid.py: estimate_sobolev_constant(max_iter)",
}
# data enters through a CSV file or an expression, and a solve's solution
# leaves; everything else passes the grid and a plain nodal array
FIELD_BUILDERS = {"read_field_csv", "field_from_expression", "outer_fixed_point"}


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
    """A parameter with a default that no call in the package or the
    benchmark harness ever passes has one value in use: a constant."""
    package = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(path.read_text())
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
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
    assert set(unset) == EXEMPT_PARAMETERS, \
        f"defaulted parameters that no call passes, against the exemptions: " \
        f"{sorted(set(unset) ^ EXEMPT_PARAMETERS)}"


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


def test_scalar_fields_are_built_only_where_data_enters_or_leaves():
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = [(fn.lineno, fn.end_lineno) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in FIELD_BUILDERS]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ScalarField" and not any(lo <= node.lineno <= hi
                                                 for lo, hi in allowed):
                misplaced.append(f"{path.name}:{node.lineno}")
    assert not misplaced, f"ScalarField built outside {sorted(FIELD_BUILDERS)}: {misplaced}"


def test_solver_reads_no_report():
    """The a priori estimate takes theta and the curvature from
    ``ProblemConstants``; the ``CriticalReport`` is an output record."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    reads = [f"solver.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "CriticalReport")
             or (isinstance(node, ast.Attribute) and node.attr == "report")
             or (isinstance(node, ast.alias) and node.name == "CriticalReport")]
    assert not reads, f"the solver reads the critical report: {reads}"


def test_only_config_reads_the_raw_document():
    """Every other module takes what it needs from the Experiment's fields;
    ``Experiment.raw`` leaves ``config`` only whole, to be rebuilt."""
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Subscript, ast.Attribute))
             and isinstance(node.value, ast.Attribute) and node.value.attr == "raw"]
    assert not reads, f"the raw config document read outside config: {reads}"


def test_experiment_holds_the_constants_once():
    exp = experiment_from_file(config_path("benchmark_1d.json"), for_solve=False)
    assert isinstance(exp.data.constants, ProblemConstants)
    holders = [f.name for f in fields(exp)
               if isinstance(getattr(exp, f.name), ProblemConstants)]
    assert not holders, f"Experiment fields beside data.constants: {holders}"
