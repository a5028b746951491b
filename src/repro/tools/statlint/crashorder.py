"""``crash-ordering`` — persistence writes must publish before they
destroy.

docs/PERSISTENCE.md's crash-ordering table states the rule in prose:
every segment/order-log truncation and section GC happens *after* the
manifest swap that stops referencing the old data, and the manifest
swap itself happens *after* the section/order-log writes it points to —
so a crash between any two steps leaves a loadable tree. This checker
enforces that write order statically, per function, in the persistence
modules (files named ``wal.py`` or ``persistence.py``; the rules are
meaningless elsewhere, e.g. for the DFS primitive that *implements*
``write_lines``).

Events are DFS calls (``write_lines``, ``append_lines``, ``delete``,
``delete_if_exists``) collected in source pre-order — a linear
approximation of the CFG that matches this codebase's straight-line
persistence functions. Targets are classified: the **manifest** is
``self.path`` or a parameter named ``path``; **section/order-log/
segment** files are variables assigned from the path helpers
(``section_file_path``, ``order_log_path``, ``segment_file_path``,
``self._segment_path``). A ``write_lines(target, [])`` is a
truncation.

Rules, within one function:

* R1 *truncate-after-publish* — a truncation or delete that precedes a
  manifest write destroys data the old manifest still references;
* R2 *publish-after-content* — a section/order-log/segment write after
  the manifest write means the new manifest references files that do
  not exist yet;
* R3 *atomic-manifest* — deleting the manifest in a function that also
  writes it is the non-atomic delete-then-write idiom; the swap must be
  one ``write_lines(..., overwrite=True)`` call (write-new-then-swap);
* R4 — a manifest ``write_lines`` without ``overwrite=True`` (or via
  ``append_lines``) is not a swap at all.
"""

import ast

from repro.tools.statlint.core import register

_PATH_HELPERS = {"section_file_path": "section",
                 "order_log_path": "order log",
                 "segment_file_path": "segment",
                 "_segment_path": "segment"}
_DFS_CALLS = {"write_lines", "append_lines", "delete", "delete_if_exists"}


class _Event:
    __slots__ = ("kind", "category", "line", "overwrite")

    def __init__(self, kind, category, line, overwrite):
        self.kind = kind            # "write" | "truncate" | "delete"
        self.category = category    # "manifest" | helper category | None
        self.line = line
        self.overwrite = overwrite


@register
class CrashOrdering:
    rule = "crash-ordering"
    description = ("in wal.py/persistence.py, truncations/deletes follow "
                   "the manifest swap, content writes precede it, and "
                   "the swap is one overwrite=True write")

    MODULES = ("wal.py", "persistence.py")

    def run(self, project):
        for mod in project.modules:
            basename = mod.relpath.rsplit("/", 1)[-1]
            if basename not in self.MODULES:
                continue
            for func in ast.walk(mod.tree):
                if isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield from self._check_function(mod, func)

    def _check_function(self, mod, func):
        events = _collect_events(func)
        manifest_writes = [e for e in events
                           if e.kind == "write" and e.category == "manifest"]
        if not manifest_writes:
            return
        last_publish = max(e.line for e in manifest_writes)
        first_publish = min(e.line for e in manifest_writes)
        for event in events:
            if event.kind in ("truncate", "delete"):
                if event.category == "manifest" and event.kind == "delete":
                    yield mod.finding(self.rule, event.line, (
                        "delete-then-write of the manifest is not crash-"
                        "atomic; replace with a single "
                        "write_lines(..., overwrite=True) swap"))
                elif event.line < last_publish:
                    yield mod.finding(self.rule, event.line, (
                        "%s at line %d precedes the manifest swap at line "
                        "%d; a crash between them loses data the old "
                        "manifest still references"
                        % (event.kind, event.line, last_publish)))
            elif event.kind == "write" and event.category not in (
                    "manifest", None):
                if event.line > first_publish:
                    yield mod.finding(self.rule, event.line, (
                        "%s write at line %d follows the manifest swap at "
                        "line %d; the new manifest references data not "
                        "yet durable" % (event.category, event.line,
                                         first_publish)))
        for event in manifest_writes:
            if not event.overwrite:
                yield mod.finding(self.rule, event.line, (
                    "manifest write is not an atomic swap; use "
                    "write_lines(..., overwrite=True)"))


def _collect_events(func):
    categories = _target_categories(func)
    events = []

    def classify(expr):
        text = ast.unparse(expr)
        if text in ("self.path", "path"):
            return "manifest"
        if isinstance(expr, ast.Name):
            return categories.get(expr.id)
        if isinstance(expr, ast.Call):
            name = (expr.func.attr if isinstance(expr.func, ast.Attribute)
                    else expr.func.id if isinstance(expr.func, ast.Name)
                    else None)
            return _PATH_HELPERS.get(name)
        return None

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            return
        if isinstance(node, ast.Call):
            name = (node.func.attr
                    if isinstance(node.func, ast.Attribute) else None)
            if name in _DFS_CALLS and node.args:
                category = classify(node.args[0])
                if name in ("delete", "delete_if_exists"):
                    events.append(_Event("delete", category,
                                         node.lineno, False))
                else:
                    truncates = (name == "write_lines" and len(node.args) > 1
                                 and isinstance(node.args[1], ast.List)
                                 and not node.args[1].elts)
                    overwrite = (name == "write_lines" and any(
                        kw.arg == "overwrite"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in node.keywords))
                    events.append(_Event(
                        "truncate" if truncates else "write",
                        category, node.lineno, overwrite))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(func)
    return events


def _target_categories(func):
    """Map local variable names to path-helper categories."""
    categories = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            call = node.value
            name = (call.func.attr if isinstance(call.func, ast.Attribute)
                    else call.func.id if isinstance(call.func, ast.Name)
                    else None)
            if name in _PATH_HELPERS:
                categories[node.targets[0].id] = _PATH_HELPERS[name]
    return categories
