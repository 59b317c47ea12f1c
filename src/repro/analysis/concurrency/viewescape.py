"""Pass 3: memoryview escape/aliasing analysis for the zero-copy path.

PR 7 made borrowed views the wire currency: ``words_view`` returns a
memoryview over the coder's working buffer, ``frame_parts`` casts
payloads to flat byte views, node/client/rebuild/rebalance ship
``np.ascontiguousarray(...).data`` straight onto the asyncio transport.
The performance is real and so is the hazard: a view is a *loan*, and
Python will not stop the lender from reusing the buffer while the loan
is out.  The two failure shapes this pass hunts:

* the **escaping loan** -- a view stored into long-lived state
  (``self.something = view``, ``self.cache[k] = view``, a module
  global, a closure that outlives the frame).  The borrowed buffer's
  owner has no idea the reference exists; the next encode reuses the
  scratch buffer and the stored "snapshot" silently changes under the
  reader.
* the **concurrent write** -- the buffer is mutated while an exported
  view is still in flight (e.g. queued on a transport that has not
  drained).  Static analysis approximates this as "view handed to an
  awaited call, then the source buffer written in the same function";
  the runtime alias sanitizer (:mod:`.sanitizer`) catches the cases
  dataflow cannot see.

Findings:

* ``MVE301`` -- a view-typed value assigned into ``self.*`` /
  ``cls.*`` / a subscript of an attribute / a module-level name.
* ``MVE302`` -- a view captured by a closure (``lambda``/nested def)
  that is itself returned or stored, extending the loan past the frame.
* ``MVE303`` -- a write through a buffer after a view of it was handed
  to an awaited call in the same function body (the static shadow of
  the sanitizer's write-after-handoff event).

**Laundering** ends the loan: ``bytes(v)``, ``v.tobytes()``,
``v.copy()``, ``np.array(v)`` (copy=True default), ``bytearray(v)``
all materialise fresh storage, and the result is no longer tracked.
Returning a view is *not* flagged: the whole zero-copy design is
producers loaning views upward, and the API contract (documented in
``docs/engine.md``) puts the burden on the caller -- which is exactly
where this pass looks.
"""

from __future__ import annotations

import ast

from repro.analysis.concurrency.findings import (
    Finding,
    apply_suppressions,
    iter_modules,
)

__all__ = ["VIEW_SEAMS", "scan_views_source", "scan_views_project"]

#: analysis/ reasons *about* views symbolically; bench is wall-clock land.
VIEW_SEAMS: tuple[str, ...] = ("bench", "analysis")

#: Call names (terminal) that produce a borrowed view.
_VIEW_CALLS = frozenset({"memoryview", "words_view", "frame_parts"})
_VIEW_QUALS = frozenset({"np.frombuffer", "numpy.frombuffer"})
#: Method names that produce a view of the receiver.
_VIEW_METHODS = frozenset({"cast", "view"})
#: Attribute access producing a view (numpy ``.data``).
_VIEW_ATTRS = frozenset({"data"})
#: Calls/methods that copy -- the result owns its storage.
_LAUNDER_CALLS = frozenset({"bytes", "bytearray", "list"})
_LAUNDER_QUALS = frozenset({"np.array", "numpy.array", "np.copy", "numpy.copy"})
_LAUNDER_METHODS = frozenset({"tobytes", "copy", "hex"})


def _terminal_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _qual(func: ast.expr, aliases: dict[str, str]) -> str | None:
    parts: list[str] = []
    expr = func
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(aliases.get(expr.id, expr.id))
    return ".".join(reversed(parts))


class _FuncViewScanner:
    """Dataflow over one function body tracking view-tainted names."""

    def __init__(
        self, outer: "_ViewVisitor",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.outer = outer
        self.node = node
        #: local name -> source-buffer expr text (or "" if unknown)
        self.views: dict[str, str] = {}
        #: buffers whose views were handed to an awaited call: text -> lineno
        self.handed: dict[str, int] = {}

    # -- taint sources -------------------------------------------------------

    def is_view_expr(self, expr: ast.expr) -> bool:
        """Does this expression evaluate to a borrowed view?"""
        if isinstance(expr, ast.Name):
            return expr.id in self.views
        if isinstance(expr, ast.Attribute):
            # ``np.ascontiguousarray(x).data`` / ``arr.data`` where arr is
            # itself a tracked view; a bare ``obj.data`` on an unknown
            # receiver is NOT assumed to be a buffer view (too many false
            # positives on response objects and dataclasses).
            return expr.attr in _VIEW_ATTRS and (
                isinstance(expr.value, ast.Call) or self.is_view_expr(expr.value)
            )
        if isinstance(expr, ast.Call):
            name = _terminal_name(expr.func)
            qual = _qual(expr.func, self.outer.aliases)
            if name in _LAUNDER_CALLS or name in _LAUNDER_METHODS:
                return False
            if qual in _LAUNDER_QUALS:
                return False
            if name in _VIEW_CALLS or qual in _VIEW_QUALS:
                return True
            if (
                name in _VIEW_METHODS
                and isinstance(expr.func, ast.Attribute)
                and self.is_view_expr(expr.func.value)
            ):
                return True
            return False
        if isinstance(expr, ast.Subscript):
            # slicing a view yields a view of the same buffer
            return (
                isinstance(expr.slice, ast.Slice)
                and self.is_view_expr(expr.value)
            )
        if isinstance(expr, ast.IfExp):
            return self.is_view_expr(expr.body) or self.is_view_expr(expr.orelse)
        return False

    def _source_of(self, expr: ast.expr) -> str:
        """Best-effort name of the underlying buffer for an expr."""
        if isinstance(expr, ast.Name):
            return self.views.get(expr.id, expr.id)
        if isinstance(expr, ast.Call):
            # memoryview(buf) / words_view(buf) / buf.cast(...)
            if isinstance(expr.func, ast.Attribute):
                return self._source_of(expr.func.value)
            if expr.args:
                return self._source_of(expr.args[0])
        if isinstance(expr, ast.Attribute):
            return self._source_of(expr.value)
        if isinstance(expr, ast.Subscript):
            return self._source_of(expr.value)
        try:
            return ast.unparse(expr)
        except Exception:  # pragma: no cover
            return "<expr>"

    # -- walk ----------------------------------------------------------------

    def scan(self) -> None:
        for stmt in self.node.body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.outer._scan_function(stmt, parent_views=set(self.views))
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._check_write(stmt.target, stmt.lineno)
        # recurse into compound statements
        for field in ("body", "orelse", "finalbody"):
            for sub in getattr(stmt, field, []):
                self._stmt(sub)
        for handler in getattr(stmt, "handlers", []):
            for sub in handler.body:
                self._stmt(sub)
        # expression statements: look for awaited handoffs + writes
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr):
                self._expr(expr)

    def _assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        self._expr(value)
        is_view = self.is_view_expr(value)
        src = self._source_of(value) if is_view else ""
        for target in targets:
            if isinstance(target, ast.Name):
                if is_view:
                    self.views[target.id] = src
                else:
                    self.views.pop(target.id, None)
            elif is_view and isinstance(target, ast.Attribute):
                # self.x = view / obj.x = view -- the escaping loan
                self.outer._flag(
                    value, "MVE301", self._escape_symbol(target),
                    "borrowed view stored into long-lived state: the buffer's "
                    "owner can reuse it and this reference silently mutates -- "
                    "copy (bytes()/tobytes()) or document ownership transfer",
                )
            elif is_view and isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Attribute) or (
                    isinstance(base, ast.Name) and base.id in self.outer.module_names
                ):
                    self.outer._flag(
                        value, "MVE301", self._escape_symbol(target),
                        "borrowed view stored into a long-lived container: "
                        "the loaned buffer outlives no one's intent -- copy "
                        "before storing or pin the source explicitly",
                    )
            else:
                self._check_write(target, getattr(target, "lineno", 0))

    def _escape_symbol(self, target: ast.expr) -> str:
        try:
            return ast.unparse(target)
        except Exception:  # pragma: no cover
            return "<target>"

    def _check_write(self, target: ast.expr, lineno: int) -> None:
        """A subscript-store into a buffer with a live handed-off view."""
        if isinstance(target, ast.Subscript):
            src = self._source_of(target.value)
            if src in self.handed:
                self.outer._flag_at(
                    lineno, "MVE303", src,
                    f"buffer {src!r} written after a view of it was handed "
                    f"to an awaited call (line {self.handed[src]}): the "
                    "consumer may still be reading -- reorder, copy, or let "
                    "the alias sanitizer arbitrate at runtime",
                )

    def _expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                for arg in node.value.args:
                    if self.is_view_expr(arg):
                        self.handed[self._source_of(arg)] = node.lineno
            elif isinstance(node, ast.Lambda):
                for name in {
                    n.id for n in ast.walk(node.body)
                    if isinstance(n, ast.Name) and n.id in self.views
                }:
                    self.outer._flag(
                        node, "MVE302", name,
                        f"closure captures borrowed view {name!r}: if the "
                        "closure outlives this frame the loan does too -- "
                        "bind a copy instead",
                    )


class _ViewVisitor:
    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self.aliases: dict[str, str] = {}
        #: module-level assigned names (stores into these = long-lived)
        self.module_names: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.module_names.add(t.id)
        self._tree = tree

    def run(self) -> None:
        for node in ast.walk(self._tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, parent_views=set())

    _scanned: set[int]

    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        parent_views: set[str],
    ) -> None:
        if not hasattr(self, "_scanned"):
            self._scanned = set()
        if id(node) in self._scanned:
            return
        self._scanned.add(id(node))
        scanner = _FuncViewScanner(self, node)
        for name in parent_views:
            scanner.views[name] = name
        scanner.scan()
        # closure capture of a view by a *named* nested def that escapes
        # is approximated by the lambda check inside _expr; nested defs
        # were scanned with parent views seeded above.

    def _flag(self, node: ast.AST, code: str, symbol: str, message: str) -> None:
        self.findings.append(
            Finding(code, self.path, getattr(node, "lineno", 0), symbol, message)
        )

    def _flag_at(self, lineno: int, code: str, symbol: str, message: str) -> None:
        self.findings.append(Finding(code, self.path, lineno, symbol, message))


def scan_views_source(source: str, path: str) -> list[Finding]:
    """Scan one module; inline suppressions applied."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("MVE300", path, exc.lineno or 0, "syntax", str(exc.msg))]
    visitor = _ViewVisitor(path, tree)
    visitor.run()
    kept, _ = apply_suppressions(visitor.findings, source)
    return kept


def scan_views_project(root=None, *, seams: tuple[str, ...] = VIEW_SEAMS) -> list[Finding]:
    """Scan every module under ``root`` (default: installed package)."""
    findings: list[Finding] = []
    for rel, source in iter_modules(root, seams=seams):
        findings.extend(scan_views_source(source, rel))
    return findings
