"""Pass 4: protocol exhaustiveness — verbs, handlers, and crash points.

The cluster protocol is stringly-typed by design (verbs ride the frame
header as JSON), which keeps the wire simple and makes the compiler
useless: nothing stops a client shipping ``"scrubread"`` to a node that
only knows ``"scrub-read"``, or a handler rotting caller-less after a
refactor, or a brand-new node crash point that no crash-sweep test ever
arms.  This pass rebuilds the protocol model from the AST and proves it
closed:

* **handlers** -- string literals compared against the dispatch
  variable inside the node's ``_serve``/``_dispatch`` path
  (``if verb == "put":``), plus membership tests against literal
  tuples/sets of verbs.
* **callers** -- first-argument string literals of ``.request(...)``
  and ``_fan_out(...)``, and second-argument literals of
  ``send_verb(...)`` and ``_rpc(...)``,
  collected across the whole source tree (and the test tree, for
  handler-liveness: some verbs -- ``fault`` -- exist *for* the
  harness).
* **crash points** -- the ``NodeCrashPlan.POINTS`` tuple, cross-checked
  against every string literal in ``tests/``: a declared crash point
  that no test arms is an untested protocol state transition.

Findings:

* ``PRO401`` -- a production caller sends a verb no handler accepts:
  a guaranteed ``bad-verb`` error at runtime.
* ``PRO402`` -- a handler accepts a verb nothing (src *or* tests)
  sends: dead protocol surface, or a caller lost in a refactor.
* ``PRO403`` -- a declared crash point never exercised by the test
  tree: the node crash sweeps have a blind spot exactly one crash
  wide.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.concurrency.findings import (
    Finding,
    apply_suppressions,
    iter_modules,
    project_root,
)

__all__ = [
    "extract_handled_verbs",
    "extract_caller_verbs",
    "extract_crash_points",
    "check_protocol",
]

#: Call shapes whose Nth positional argument is a verb literal.
_VERB_ARG_INDEX = {
    "request": 0,         # client.request("get", ...)
    "send_verb": 1,       # send_verb(address, "stats", ...)
    "_fan_out": 0,        # array._fan_out("get", [(col, stripes)])
    "_rpc": 1,            # rebalancer._rpc(node_id, "release", ...)
}

#: Internal marker replies, not protocol verbs a caller could send.
_NON_VERBS = frozenset({"bad-verb"})


def _str_const(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def extract_handled_verbs(source: str, path: str = "node.py") -> dict[str, int]:
    """Verb literals the node dispatch accepts, with their lines.

    Matches ``verb == "x"`` / ``"x" == verb`` comparisons and
    ``verb in ("x", "y")`` membership over literal containers, inside
    any function whose name contains ``serve`` or ``dispatch``.  The
    compared name must be a **parameter** of that function -- that is
    what makes it the dispatch variable; comparisons against locals
    (``state == "committed"`` inside a handler) are protocol *payload*,
    not protocol *surface*, and counting them would fabricate phantom
    verbs.  The parameter's spelling is deliberately not hardcoded to
    ``verb``, so a rename does not blind the pass.
    """
    tree = ast.parse(source, filename=path)
    verbs: dict[str, int] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if "serve" not in fn.name and "dispatch" not in fn.name:
            continue
        params = {
            a.arg
            for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
            if a.arg != "self"
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            op = node.ops[0]
            left, right = node.left, node.comparators[0]
            if isinstance(op, ast.Eq):
                lit = _str_const(right) or _str_const(left)
                other = left if _str_const(right) else right
                if (
                    lit is not None
                    and isinstance(other, ast.Name)
                    and other.id in params
                ):
                    verbs.setdefault(lit, node.lineno)
            elif (
                isinstance(op, ast.In)
                and isinstance(left, ast.Name)
                and left.id in params
                and isinstance(right, (ast.Tuple, ast.List, ast.Set))
            ):
                for elt in right.elts:
                    lit = _str_const(elt)
                    if lit is not None:
                        verbs.setdefault(lit, elt.lineno)
    return verbs


def extract_caller_verbs(
    modules: list[tuple[str, str]],
) -> dict[str, list[tuple[str, int]]]:
    """Verb literals sent by callers: verb -> [(path, line), ...]."""
    sent: dict[str, list[tuple[str, int]]] = {}
    for path, source in modules:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            idx = _VERB_ARG_INDEX.get(name or "")
            if idx is None or len(node.args) <= idx:
                continue
            verb = _str_const(node.args[idx])
            if verb is not None:
                sent.setdefault(verb, []).append((path, node.lineno))
    return sent


def extract_crash_points(source: str, path: str = "node.py") -> list[str]:
    """The ``POINTS`` tuple of the crash plan class, in declared order."""
    tree = ast.parse(source, filename=path)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or "CrashPlan" not in cls.name:
            continue
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "POINTS"
                    for t in stmt.targets
                )
                and isinstance(stmt.value, (ast.Tuple, ast.List))
            ):
                return [
                    v for v in (_str_const(e) for e in stmt.value.elts)
                    if v is not None
                ]
    return []


def _string_literals(modules: list[tuple[str, str]]) -> set[str]:
    out: set[str] = set()
    for path, source in modules:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            lit = _str_const(node) if isinstance(node, ast.expr) else None
            if lit is not None:
                out.add(lit)
    return out


def _tests_root(src_root: Path) -> Path | None:
    """Locate the repo's ``tests/`` tree relative to the package root."""
    for candidate in (
        src_root.parent.parent / "tests",  # src/repro -> repo/tests
        src_root.parent / "tests",
    ):
        if candidate.is_dir():
            return candidate
    return None


def check_protocol(
    root: Path | None = None,
    tests_root: Path | None = None,
) -> list[Finding]:
    """Run the full protocol exhaustiveness check.

    ``root`` defaults to the installed ``repro`` package; ``tests_root``
    defaults to the sibling ``tests/`` directory when one exists (absent
    in installed-wheel contexts, where PRO402/PRO403 degrade gracefully
    to src-only evidence).
    """
    if root is None:
        root = project_root()
    root = Path(root)
    node_path = root / "cluster" / "node.py"
    if not node_path.exists():
        return [Finding(
            "PRO400", "cluster/node.py", 0, "missing",
            "node module not found; protocol model cannot be built",
        )]
    node_source = node_path.read_text(encoding="utf-8")
    handled = extract_handled_verbs(node_source, "cluster/node.py")

    src_modules = list(iter_modules(root, seams=("bench", "analysis")))
    src_callers = extract_caller_verbs(src_modules)

    if tests_root is None:
        tests_root = _tests_root(root)
    test_modules: list[tuple[str, str]] = []
    if tests_root is not None and tests_root.is_dir():
        test_modules = [
            (p.relative_to(tests_root).as_posix(), p.read_text(encoding="utf-8"))
            for p in sorted(tests_root.rglob("*.py"))
        ]
    test_callers = extract_caller_verbs(test_modules)

    findings: list[Finding] = []

    # PRO401: a production caller sends an unhandled verb.
    for verb in sorted(src_callers):
        if verb not in handled and verb not in _NON_VERBS:
            path, line = src_callers[verb][0]
            findings.append(Finding(
                "PRO401", path, line, verb,
                f"caller sends verb {verb!r} but the node dispatch has no "
                f"handler for it -- this request can only come back bad-verb",
            ))

    # PRO402: a handler nothing sends (src or tests).
    for verb in sorted(handled):
        if verb in _NON_VERBS:
            continue
        if verb not in src_callers and verb not in test_callers:
            findings.append(Finding(
                "PRO402", "cluster/node.py", handled[verb], verb,
                f"handler for verb {verb!r} has no caller anywhere in src or "
                f"tests -- dead protocol surface or a refactor casualty",
            ))

    # PRO403: a declared crash point no test arms.
    points = extract_crash_points(node_source, "cluster/node.py")
    test_literals = _string_literals(test_modules)
    for point in points:
        if point not in test_literals:
            findings.append(Finding(
                "PRO403", "cluster/node.py", 0, point,
                f"crash point {point!r} is declared in NodeCrashPlan.POINTS "
                f"but never appears in the test tree -- the node crash "
                f"sweeps have a blind spot here",
            ))

    # inline suppressions live in node.py; apply them only to findings
    # anchored there (caller-side findings keep their own line numbers
    # in other files and must not collide with node.py's markers)
    node_anchored = [f for f in findings if f.path == "cluster/node.py"]
    others = [f for f in findings if f.path != "cluster/node.py"]
    kept, _ = apply_suppressions(node_anchored, node_source)
    return sorted(kept + others, key=lambda f: (f.path, f.line, f.code))
