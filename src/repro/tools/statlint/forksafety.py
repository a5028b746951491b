"""``fork-safety`` — keep worker-process code free of front-end state.

Shard workers are spawned with the ``fork`` multiprocessing context
(ARCHITECTURE §6): whatever the child touches must be its own
(``ShardWorkerState``), never the front-end's threads, locks, queues or
repository. This checker walks the static call graph from the worker
entrypoints and flags, in any reachable function:

* creation of ``threading`` primitives (``Thread``, ``Lock``, ...) —
  thread state does not survive a fork and must not exist in workers;
* access to front-end-only attributes (``self._workers``,
  ``self._buffers``, ``self._repository``, ...) — state that lives in
  the parent process only.

The file-system handle is front-end state too: the simulated DFS is
an in-process object, so a forked worker writing to its inherited copy
would mutate private memory the front-end never sees, and every
repository file is written by the front-end ``RepositoryLog``. Hence
``dfs`` is a front-end-only attribute — ``self.dfs`` reachable from a
worker entrypoint is a write into the void, even though the same
spelling is fine in coordinator code.

Roots are functions marked ``# statlint: process-entrypoint`` on their
``def`` line plus any function passed as ``target=`` to a
``Process(...)`` call. Independently of reachability, a ``Process``
target that is a lambda, a bound method, or a function nested in the
enclosing scope is flagged: it would not survive a switch to the
``spawn`` context (pickling), and closures capture front-end state.

Call-graph resolution is deliberately conservative — an edge exists
only when the callee is nameable: bare-name calls resolve to
module-level functions and class constructors anywhere in the project;
``self.m()`` resolves within the enclosing class and its
project-visible bases; ``v.m()`` resolves only when ``v`` was assigned
``v = ClassName(...)`` in the same function. Attribute calls on
untyped receivers are not followed.
"""

import ast

from repro.tools.statlint.core import register


@register
class ForkSafety:
    rule = "fork-safety"
    description = ("no threading primitives or front-end-only state "
                   "reachable from worker-process entrypoints; Process "
                   "targets must be module-level functions")

    #: attributes that only exist in the front-end process (the routing
    #: pool, its mutation buffers, the authoritative repository, the
    #: ingest facade, and the DFS handle); touching them from
    #: worker-reachable code reads another process's state.
    FRONT_END_ATTRS = {"_workers", "_buffers", "_repository", "_context",
                       "_ingest", "worker_pool", "persistence",
                       "persistence_log", "dfs"}
    THREADING_FACTORIES = {"Thread", "Lock", "RLock", "Condition", "Event",
                           "Semaphore", "BoundedSemaphore", "Barrier",
                           "Timer", "local"}

    def run(self, project):
        table = _FunctionTable(project)
        findings = list(table.target_findings(self.rule))
        reachable = table.reachable()
        for node in reachable:
            root = node.root_name or "worker entrypoint"
            for line, what in node.threading_creations:
                findings.append(node.mod.finding(
                    self.rule, line,
                    "threading.%s created in code reachable from process "
                    "entrypoint '%s'; workers must not own thread state"
                    % (what, root)))
            for line, attr in node.front_end_accesses:
                findings.append(node.mod.finding(
                    self.rule, line,
                    "front-end-only attribute 'self.%s' reachable from "
                    "process entrypoint '%s'; that state lives in the "
                    "parent process" % (attr, root)))
        return findings


class _FuncNode:
    def __init__(self, mod, func, class_name):
        self.mod = mod
        self.func = func
        self.class_name = class_name
        self.edges = []        # ("bare"|"self"|"typed", [class], name)
        self.threading_creations = []
        self.front_end_accesses = []
        self.is_root = False
        self.root_name = None  # entrypoint this node was reached from


class _FunctionTable:
    def __init__(self, project):
        self.project = project
        self.nodes = []
        self.module_funcs = {}   # name -> [node]
        self.classes = {}        # name -> [{"methods": {}, "bases": []}]
        self.bad_targets = []    # (mod, line, description)
        self._target_names = []  # Name targets, resolved after the build
        self._build()
        for name in self._target_names:
            for target_node in self.module_funcs.get(name, ()):
                target_node.is_root = True

    def _build(self):
        for mod in self.project.modules:
            threading_names = _threading_imports(mod.tree)
            for cls in [n for n in ast.walk(mod.tree)
                        if isinstance(n, ast.ClassDef)]:
                entry = {"methods": {}, "bases":
                         [b.id for b in cls.bases
                          if isinstance(b, ast.Name)]}
                self.classes.setdefault(cls.name, []).append(entry)
                for func in cls.body:
                    if isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        node = self._scan(mod, func, cls.name,
                                          threading_names)
                        entry["methods"][func.name] = node
            for func in mod.tree.body:
                if isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    node = self._scan(mod, func, None, threading_names)
                    self.module_funcs.setdefault(func.name,
                                                 []).append(node)

    def _scan(self, mod, func, class_name, threading_names):
        node = _FuncNode(mod, func, class_name)
        self.nodes.append(node)
        node.is_root = mod.func_is_entrypoint(func)

        var_types = {}
        nested = {child.name for child in ast.walk(func)
                  if isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                  and child is not func}
        for stmt in ast.walk(func):
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Name)):
                var_types[stmt.targets[0].id] = stmt.value.func.id

        for child in ast.walk(func):
            if isinstance(child, ast.Call):
                self._scan_call(node, child, var_types, nested,
                                threading_names)
            elif (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "self"
                    and child.attr in ForkSafety.FRONT_END_ATTRS):
                node.front_end_accesses.append((child.lineno, child.attr))
        return node

    def _scan_call(self, node, call, var_types, nested, threading_names):
        func = call.func
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "threading"
                    and func.attr in ForkSafety.THREADING_FACTORIES):
                node.threading_creations.append((call.lineno, func.attr))
            if isinstance(func.value, ast.Name):
                receiver = func.value.id
                if receiver == "self":
                    node.edges.append(("self", node.class_name, func.attr))
                elif receiver in var_types:
                    node.edges.append(("typed", var_types[receiver],
                                       func.attr))
            if func.attr == "Process":
                self._scan_process_target(node, call, nested)
        elif isinstance(func, ast.Name):
            if func.id in threading_names:
                node.threading_creations.append((call.lineno, func.id))
            node.edges.append(("bare", None, func.id))
            if func.id == "Process":
                self._scan_process_target(node, call, nested)

    def _scan_process_target(self, node, call, nested):
        for keyword in call.keywords:
            if keyword.arg != "target":
                continue
            value = keyword.value
            if isinstance(value, ast.Lambda):
                self.bad_targets.append(
                    (node.mod, value.lineno,
                     "Process target is a lambda; use a module-level "
                     "function (spawn-context pickling, closure capture)"))
            elif isinstance(value, ast.Attribute):
                self.bad_targets.append(
                    (node.mod, value.lineno,
                     "Process target '%s' is a bound method; use a "
                     "module-level function so no instance state is "
                     "shipped to the worker" % (ast.unparse(value),)))
            elif isinstance(value, ast.Name):
                if value.id in nested:
                    self.bad_targets.append(
                        (node.mod, value.lineno,
                         "Process target '%s' is a nested function; use "
                         "a module-level function" % (value.id,)))
                self._target_names.append(value.id)

    def target_findings(self, rule):
        for mod, line, message in self.bad_targets:
            yield mod.finding(rule, line, message)

    # -- reachability ------------------------------------------------------

    def _methods_of(self, class_name, method):
        """Resolve ``method`` on ``class_name`` or its visible bases."""
        results, queue, seen = [], [class_name], set()
        while queue:
            name = queue.pop()
            if name in seen or name not in self.classes:
                continue
            seen.add(name)
            for entry in self.classes[name]:
                if method in entry["methods"]:
                    results.append(entry["methods"][method])
                else:
                    queue.extend(entry["bases"])
        return results

    def _callees(self, node):
        for kind, class_name, name in node.edges:
            if kind == "bare":
                yield from self.module_funcs.get(name, ())
                for entry in self.classes.get(name, ()):
                    init = entry["methods"].get("__init__")
                    if init is not None:
                        yield init
            elif kind in ("self", "typed") and class_name is not None:
                yield from self._methods_of(class_name, name)

    def reachable(self):
        queue = [node for node in self.nodes if node.is_root]
        for node in queue:
            node.root_name = node.func.name
        seen = set(map(id, queue))
        order = list(queue)
        while queue:
            node = queue.pop()
            for callee in self._callees(node):
                if id(callee) not in seen:
                    seen.add(id(callee))
                    callee.root_name = node.root_name
                    queue.append(callee)
                    order.append(callee)
        return order


def _threading_imports(tree):
    """Names imported directly from ``threading`` at module level."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module == "threading"):
            names.update(alias.asname or alias.name
                         for alias in node.names)
    return names & ForkSafety.THREADING_FACTORIES
