"""Lock checkers: ``lock-discipline`` and ``lock-ordering``.

**lock-discipline** — a class declares its locking contract with a
``GUARDED_BY`` class attribute mapping field names to the lock that
protects them::

    class IngestQueue:
        GUARDED_BY = {"_records": "_lock", "_closed": "_lock"}

Every ``self.<field>`` access in the class's methods must then sit
lexically inside ``with self.<lock>:``. Three escape hatches, all
conventions this repo already uses:

* ``__init__``/``__del__`` are exempt (no concurrency yet/anymore);
* methods named ``*_locked`` assert "caller holds the lock";
* ``# statlint: holds=<lock>`` on the ``def`` line records an
  interprocedural contract (e.g. the manager's apply hooks, which the
  registrar only invokes under the ingest lock).

Nested functions defined inside a method are not analyzed: the lock
held at the definition site says nothing about the call site.

**lock-ordering** — builds the static lock-acquisition graph: locks are
``self.X = threading.Lock()/RLock()`` assignments (aggregated by
attribute name across classes; ``Condition(lock)`` aliases to its
lock), and an edge A→B means code acquires B while holding A, either
via a nested ``with`` or via a call whose transitive callees (matched
by function name) acquire B. Repository mutators (``insert``,
``remove``, ...) fan out to change-event listeners the AST cannot see,
so those call names imply ``_on_event`` — the edge through which the
ingest lock orders before the wal mutex. Cycles are findings, as is
re-acquiring a non-reentrant lock already held.
"""

import ast

from repro.tools.statlint.core import register


def _unparse(node):
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed synthetic nodes
        return ""


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _guarded_by(cls):
    """Parse a ``GUARDED_BY = {"field": "lock"}`` class attribute."""
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id == "GUARDED_BY"
                and isinstance(stmt.value, ast.Dict)):
            continue
        mapping = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                mapping[key.value] = value.value
        return mapping
    return None


def _with_self_specs(node):
    """Lock specs acquired by a ``with`` statement: ``self.`` paths."""
    specs = set()
    for item in node.items:
        text = _unparse(item.context_expr)
        if text.startswith("self."):
            specs.add(text[len("self."):])
    return specs


@register
class LockDiscipline:
    rule = "lock-discipline"
    description = ("fields named in a class's GUARDED_BY map are only "
                   "read/written inside 'with self.<lock>:'")

    EXEMPT = ("__init__", "__del__")

    def run(self, project):
        for mod in project.modules:
            for cls in ast.walk(mod.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                guarded = _guarded_by(cls)
                if not guarded:
                    continue
                for func in cls.body:
                    if not isinstance(func, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                        continue
                    if (func.name in self.EXEMPT
                            or func.name.endswith("_locked")):
                        continue
                    yield from self._check_method(mod, guarded, func)

    def _check_method(self, mod, guarded, func):
        findings = []
        assumed = frozenset(mod.func_holds(func))

        def visit(node, held):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held | _with_self_specs(node)
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                    and guarded[node.attr] not in held):
                lock = guarded[node.attr]
                findings.append(mod.finding(
                    self.rule, node,
                    "'%s' is GUARDED_BY 'self.%s' but is accessed outside "
                    "'with self.%s:'" % (node.attr, lock, lock)))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in func.body:
            visit(stmt, assumed)
        return findings


class _Edge:
    __slots__ = ("src", "dst", "path", "line", "via")

    def __init__(self, src, dst, path, line, via):
        self.src = src
        self.dst = dst
        self.path = path
        self.line = line
        self.via = via


@register
class LockOrdering:
    rule = "lock-ordering"
    description = ("the static lock-acquisition graph (nested 'with's "
                   "plus name-matched transitive calls) must be acyclic")

    #: Repository mutation entry points call ``_notify``, which fans
    #: out to change-event listeners (``RepositoryLog._on_event`` takes
    #: ``_mutex`` there). The listener list is runtime state the AST
    #: cannot see, so these call names imply a ``_on_event`` call.
    NOTIFY_CALLS = {"insert", "_stage", "remove",
                    "record_use", "force_scan_order"}
    LOCK_FACTORIES = {"Lock": False, "RLock": True}

    def run(self, project):
        locks, aliases = self._lock_nodes(project)

        def resolve(spec):
            attr = spec.split(".")[-1]
            seen = set()
            while attr in aliases and attr not in seen:
                seen.add(attr)
                attr = aliases[attr]
            return attr if attr in locks else None

        infos = []
        by_name = {}
        for mod in project.modules:
            owners = {}
            for cls in ast.walk(mod.tree):
                if isinstance(cls, ast.ClassDef):
                    for member in cls.body:
                        if isinstance(member, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
                            owners[member] = cls
            for func in _functions(mod.tree):
                cls = owners.get(func)
                own_methods = ({m.name for m in cls.body
                                if isinstance(m, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))}
                               if cls is not None else set())
                info = self._scan_function(mod, func, resolve,
                                           cls.name if cls else None,
                                           own_methods)
                infos.append(info)
                by_name.setdefault(func.name, []).append(info)
                if cls is not None:
                    by_name.setdefault("%s.%s" % (cls.name, func.name),
                                       []).append(info)

        self._close_over_calls(infos, by_name)

        edges = {}
        for info in infos:
            for held, lock, line in info["nested"]:
                for src in held:
                    edges.setdefault((src, lock),
                                     _Edge(src, lock, info["path"], line,
                                           "nested 'with'"))
            for held, name, line in info["scoped_calls"]:
                for callee in by_name.get(name, ()):
                    for lock in callee["all_locks"]:
                        for src in held:
                            edges.setdefault(
                                (src, lock),
                                _Edge(src, lock, info["path"], line,
                                      "call to %s()" % (name,)))

        yield from self._report(edges, locks)

    # -- graph construction ------------------------------------------------

    def _lock_nodes(self, project):
        """Lock attributes (name -> reentrant?) and Condition aliases."""
        locks, aliases = {}, {}
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                call = node.value
                factory = (call.func.attr
                           if isinstance(call.func, ast.Attribute)
                           else call.func.id
                           if isinstance(call.func, ast.Name) else None)
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if factory in self.LOCK_FACTORIES:
                        reentrant = self.LOCK_FACTORIES[factory]
                        locks[target.attr] = (locks.get(target.attr, False)
                                              or reentrant)
                    elif factory == "Condition":
                        if (call.args
                                and isinstance(call.args[0], ast.Attribute)):
                            aliases[target.attr] = call.args[0].attr
                        else:
                            locks.setdefault(target.attr, False)
        return locks, aliases

    def _scan_function(self, mod, func, resolve, class_name=None,
                       own_methods=()):
        info = {"path": mod.relpath, "name": func.name,
                "direct_locks": set(), "all_calls": set(),
                "scoped_calls": [], "nested": [], "all_locks": set()}

        def record_call(node, held):
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
                # `self.m()` where the enclosing class defines m is
                # resolved precisely — same-named methods on unrelated
                # classes (e.g. every `flush`) must not create edges.
                if (isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and class_name is not None
                        and name in own_methods):
                    name = "%s.%s" % (class_name, name)
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            else:
                return
            names = {name}
            if name.rsplit(".", 1)[-1] in self.NOTIFY_CALLS:
                names.add("_on_event")
            for called in names:
                info["all_calls"].add(called)
                if held:
                    info["scoped_calls"].append(
                        (tuple(held), called, node.lineno))

        def visit(node, held):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)) and node is not func):
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = [lock for lock in
                            (resolve(spec)
                             for spec in _with_self_specs(node))
                            if lock is not None]
                inner = held
                for lock in acquired:
                    info["direct_locks"].add(lock)
                    info["nested"].append((tuple(inner), lock, node.lineno))
                    inner = inner + (lock,)
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if isinstance(node, ast.Call):
                record_call(node, held)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(func, ())
        return info

    def _close_over_calls(self, infos, by_name):
        """Fixpoint: a function's lock set includes its callees'."""
        for info in infos:
            info["all_locks"] = set(info["direct_locks"])
        changed = True
        while changed:
            changed = False
            for info in infos:
                for name in info["all_calls"]:
                    for callee in by_name.get(name, ()):
                        if not callee["all_locks"] <= info["all_locks"]:
                            info["all_locks"] |= callee["all_locks"]
                            changed = True

    # -- reporting ---------------------------------------------------------

    def _report(self, edges, locks):
        adjacency = {}
        for (src, dst), edge in edges.items():
            if src == dst:
                if not locks.get(src, False):
                    yield edge_finding(edge, (
                        "non-reentrant lock '%s' may be re-acquired while "
                        "already held (%s)" % (src, edge.via)))
                continue
            adjacency.setdefault(src, set()).add(dst)

        def reaches(start, goal):
            stack, seen = [start], set()
            while stack:
                node = stack.pop()
                if node == goal:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return False

        reported = set()
        for (src, dst), edge in sorted(edges.items()):
            if src == dst or frozenset((src, dst)) in reported:
                continue
            if reaches(dst, src):
                reported.add(frozenset((src, dst)))
                yield edge_finding(edge, (
                    "lock-ordering cycle: '%s' is acquired while holding "
                    "'%s' (%s) but other code orders '%s' before '%s'"
                    % (dst, src, edge.via, dst, src)))


def edge_finding(edge, message):
    from repro.tools.statlint.core import Finding
    return Finding(LockOrdering.rule, edge.path, edge.line, message)
