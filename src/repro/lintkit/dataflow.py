"""R2 and R8–R11: dataflow rules powered by the call graph.

These are the detectors single-node AST matching cannot express.  Each
rule states the contract it protects, computes a may-analysis over the
:class:`~repro.lintkit.callgraph.CallGraph` summaries, and attaches a
witness chain — the call path or taint path that proves the finding —
to every diagnostic.

R2   budget-charge reachability: every unbounded loop in a kernel
     module (``while True:``, ``for`` over ``itertools.count`` /
     ``cycle`` / two-argument ``iter``) must reach a budget
     charge/check either in its own body or *transitively through the
     functions it calls* — replacing the historical same-scope name
     heuristic, which it keeps as a fast path.
R8   lock-discipline: fields of lock-owning serve-layer classes (and
     the session base classes they extend) must not be written on a
     path from a thread-pool entry point that holds no lock; mutate
     under the owning lock or through the ``bump()`` funnel.
R9   deadline discipline in ``repro/serve/`` + ``repro/session/``:
     blocking waits (``acquire``/``wait``/``join``/``result``) must
     carry a timeout, and a ``with <lock>:`` acquisition that holds
     the lock across unbounded reasoning work (anything that can
     reach a ``while True:`` kernel loop) must acquire with a
     deadline instead.
R10  event-loop hygiene: blocking calls (file I/O, ``subprocess``,
     ``time.sleep``, undeadlined waits) must not be reachable from an
     ``async def`` body except through the executor.
R11  determinism taint: iteration over a ``set``/``frozenset`` must
     not flow into ordered output (list/tuple/join accumulation)
     without an intervening ``sorted()`` in the solver and component
     layers and the session's query routing.  (``dict`` iteration is
     insertion-ordered in the kernels and therefore deterministic by
     construction.)
"""

from __future__ import annotations

import ast

from repro.lintkit.astrules import KERNEL_MODULES
from repro.lintkit.callgraph import CallGraph
from repro.lintkit.findings import Finding
from repro.lintkit.loader import Project
from repro.lintkit.model import (
    CallSite,
    FunctionInfo,
    ModuleModel,
    expr_text,
)
from repro.lintkit.rules import Rule, register

SERVE_MODULES = ("repro/serve/",)
SESSION_MODULES = ("repro/session/",)
DEADLINE_MODULES = SERVE_MODULES + SESSION_MODULES
DETERMINISM_MODULES = (
    "repro/solver/",
    "repro/components/",
    "repro/session/session.py",
)

_WAIT_ATTRS = frozenset({"acquire", "wait", "join", "result"})

_OS_BLOCKING_ATTRS = frozenset(
    {
        "replace",
        "rename",
        "fsync",
        "remove",
        "unlink",
        "makedirs",
        "mkdir",
        "rmdir",
    }
)
_PATH_IO_ATTRS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes"}
)

_SET_LAUNDER_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len"}
)
_ORDERED_CONSUMERS = frozenset({"list", "tuple"})


def _walk_scope(scope: ast.AST):
    """Pre-order child walk of one lexical scope, pruned at nested
    ``def`` boundaries — every function gets exactly one scan pass, so
    a snippet inside a function is never also reported by the
    enclosing scope's pass."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _walk_scope(child)


def _in_scope(path: str, scope: tuple[str, ...]) -> bool:
    return any(
        path == entry or path.startswith(entry) for entry in scope
    )


def _scoped_functions(
    project: Project, scope: tuple[str, ...]
) -> list[FunctionInfo]:
    selected = []
    for module in project.modules_in_scope(scope):
        for qualname in sorted(module.functions):
            selected.append(module.functions[qualname])
    return selected


# ----------------------------------------------------------------- R2


def check_budget_reachability(project: Project) -> list[Finding]:
    graph = project.callgraph
    budget_aware = graph.can_reach(
        sorted(
            qualname
            for qualname, func in project.functions.items()
            if func.has_budget_marker
        )
    )
    findings = []
    for func in _scoped_functions(project, KERNEL_MODULES):
        targets = graph.call_targets(func.qualname)
        for loop in func.loops:
            if loop.has_budget_marker:
                continue
            if any(
                target in budget_aware
                for call in loop.calls
                for target in targets.get(id(call), ())
            ):
                continue
            findings.append(
                Finding(
                    rule="R2",
                    path=func.path,
                    line=loop.line,
                    message=(
                        f"{loop.detail} without a budget charge/check "
                        "in its body; unbounded kernel loops must be "
                        "budget-governed"
                    ),
                    scope=func.label(),
                    witness=(
                        f"{func.qualname} ({func.path}:{loop.line}) "
                        f"{loop.detail}",
                        "no call in the loop body reaches a budget "
                        "charge/check transitively",
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------- R8


def _protected_classes(project: Project) -> frozenset[str]:
    """Lock-owning serve classes plus their in-project bases."""
    graph = project.callgraph
    protected: set[str] = set()
    for module in project.modules_in_scope(SERVE_MODULES):
        for cls in module.classes.values():
            chain = graph.class_chain(cls)
            if any(member.owns_lock for member in chain):
                protected.update(member.qualname for member in chain)
    return frozenset(protected)


def _serve_entry_points(project: Project) -> list[str]:
    seeds = []
    for func in _scoped_functions(project, SERVE_MODULES):
        if func.name == "<module>" or func.name.startswith("_"):
            continue
        seeds.append(func.qualname)
    return sorted(seeds)


def check_lock_discipline(project: Project) -> list[Finding]:
    graph = project.callgraph
    protected = _protected_classes(project)
    seeds = [(qualname, None) for qualname in _serve_entry_points(project)]
    unlocked = graph.forward_reachable(
        seeds, edge_ok=lambda call: not call.in_lock
    )
    findings = []
    for qualname in sorted(unlocked):
        func = project.functions.get(qualname)
        if func is None or func.cls is None:
            continue
        if func.name in ("__init__", "__post_init__"):
            continue
        cls_qualname = f"{func.modname}.{func.cls}"
        if cls_qualname not in protected:
            continue
        chain = graph.witness_chain(unlocked, qualname)
        for write in func.writes:
            if write.in_lock:
                continue
            findings.append(
                Finding(
                    rule="R8",
                    path=func.path,
                    line=write.line,
                    message=(
                        f"write to {write.target} is reachable from a "
                        "serving-layer entry point with no lock held; "
                        "shared state must be mutated under the owning "
                        "lock or through the stats bump() funnel"
                    ),
                    scope=func.label(),
                    witness=chain
                    + (f"unguarded write at {func.path}:{write.line}",),
                )
            )
    return findings


# ----------------------------------------------------------------- R9


def _deadlined_guard_targets(
    graph: CallGraph, func: FunctionInfo, call: CallSite
) -> bool:
    """Does a ``with <call>:`` context resolve to a helper that
    acquires its lock with a timeout (a deadlined guard)?"""
    targets = graph.call_targets(func.qualname).get(id(call), ())
    for target in targets:
        resolved = graph.project.functions.get(target)
        if (
            resolved is not None
            and resolved.is_contextmanager
            and resolved.has_deadlined_acquire()
        ):
            return True
    return False


def check_deadline_discipline(project: Project) -> list[Finding]:
    graph = project.callgraph
    long_running_direct = frozenset(
        qualname
        for qualname, func in project.functions.items()
        if func.has_while_true
    )
    long_running = graph.can_reach(sorted(long_running_direct))
    findings = []
    for func in _scoped_functions(project, DEADLINE_MODULES):
        targets = graph.call_targets(func.qualname)
        for call in func.calls:
            wait_name = call.attr if call.attr in _WAIT_ATTRS else None
            if wait_name is None and call.name in ("wait", "as_completed"):
                wait_name = call.name
            if wait_name is None or call.awaited or call.has_deadline:
                continue
            findings.append(
                Finding(
                    rule="R9",
                    path=func.path,
                    line=call.line,
                    message=(
                        f"{call.text}() without a deadline in the "
                        "serving layer; every blocking wait must carry "
                        "a timeout so a wedged peer degrades to an "
                        "error instead of a hang"
                    ),
                    scope=func.label(),
                    witness=(
                        f"{func.qualname} ({func.path}:{call.line}) "
                        f"calls {call.text}() with no timeout",
                    ),
                )
            )
        for site in func.with_locks:
            if site.callee is not None and _deadlined_guard_targets(
                graph, func, site.callee
            ):
                continue
            reaching_call = None
            for call in site.calls:
                if any(
                    target in long_running
                    for target in targets.get(id(call), ())
                ):
                    reaching_call = call
                    break
            if reaching_call is None and not site.has_while_true:
                continue
            witness: tuple[str, ...] = (
                f"{func.qualname} ({func.path}:{site.line}) "
                f"holds 'with {site.text}:'",
            )
            if reaching_call is not None:
                chained = graph.chain_between(
                    func.qualname,
                    long_running_direct,
                    first_call=reaching_call,
                )
                if chained is not None:
                    chain, reached = chained
                    witness = witness + chain[1:]
                    target_func = project.functions[reached]
                    witness = witness + (
                        "unbounded loop at "
                        f"{target_func.path}:"
                        f"{target_func.loops[0].line}"
                        if target_func.loops
                        else f"unbounded loop in {reached}",
                    )
            else:
                witness = witness + (
                    "unbounded loop directly inside the held region",
                )
            findings.append(
                Finding(
                    rule="R9",
                    path=func.path,
                    line=site.line,
                    message=(
                        f"'with {site.text}:' acquires a lock with no "
                        "deadline and holds it across unbounded "
                        "reasoning work; acquire with a bounded "
                        "timeout so a wedged build degrades to an "
                        "error instead of a pile-up"
                    ),
                    scope=func.label(),
                    witness=witness,
                )
            )
    return findings


# ---------------------------------------------------------------- R10


def _blocking_primitive(
    module: ModuleModel, call: CallSite
) -> str | None:
    if call.awaited:
        return None
    if call.name == "open":
        return "open()"
    if call.base == "os" and call.attr in _OS_BLOCKING_ATTRS:
        return f"os.{call.attr}()"
    if call.attr in _PATH_IO_ATTRS:
        return f".{call.attr}()"
    if call.base == "time" and call.attr == "sleep":
        return "time.sleep()"
    if (
        call.name is not None
        and module.imports.get(call.name, "").startswith("time.")
        and call.name == "sleep"
    ):
        return "time.sleep()"
    if call.base == "subprocess":
        return f"subprocess.{call.attr}()"
    if call.name is not None and module.imports.get(
        call.name, ""
    ).startswith("subprocess."):
        return f"subprocess {call.name}()"
    if call.attr in _WAIT_ATTRS and not call.has_deadline:
        # Only undeadlined waits: a deadline implies a bounded stall,
        # and requiring it also rules out ``str.join(iterable)``.
        return f".{call.attr}()"
    return None


def check_async_blocking(project: Project) -> list[Finding]:
    graph = project.callgraph
    roots = sorted(
        func.qualname
        for func in _scoped_functions(project, SERVE_MODULES)
        if func.is_async
    )
    findings = []
    reported: set[tuple[str, int]] = set()
    for root in roots:
        parents: dict[str, tuple[str | None, int]] = {root: (None, 0)}
        queue = [root]
        while queue:
            current = queue.pop(0)
            for call, targets in graph.edges.get(current, ()):
                for target in targets:
                    if target in parents:
                        continue
                    resolved = project.functions.get(target)
                    if call.awaited and (
                        resolved is None or not resolved.is_async
                    ):
                        continue
                    parents[target] = (current, call.line)
                    queue.append(target)
        for qualname in sorted(parents):
            func = project.functions.get(qualname)
            if func is None:
                continue
            module = project.modules_by_name[func.modname]
            for call in func.calls:
                primitive = _blocking_primitive(module, call)
                if primitive is None:
                    continue
                key = (func.path, call.line)
                if key in reported:
                    continue
                reported.add(key)
                chain = graph.witness_chain(parents, qualname)
                root_func = project.functions[root]
                findings.append(
                    Finding(
                        rule="R10",
                        path=func.path,
                        line=call.line,
                        message=(
                            f"blocking call {primitive} is reachable "
                            f"from async {root_func.label()}(); the "
                            "event loop must never block — move it "
                            "into the executor"
                        ),
                        scope=func.label(),
                        witness=chain
                        + (
                            f"blocking {primitive} at "
                            f"{func.path}:{call.line}",
                        ),
                    )
                )
    return findings


# ---------------------------------------------------------------- R11


class _SetTaintVisitor(ast.NodeVisitor):
    """Per-module, per-scope local taint pass for R11."""

    def __init__(self, module: ModuleModel) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self.set_names: dict[str, int] = {}
        self.nonset_names: set[str] = set()
        self.parents: dict[int, ast.AST] = {}

    def run(self) -> list[Finding]:
        for node in ast.walk(self.module.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[id(child)] = node
        self._scan_scope(self.module.tree)
        for node in ast.walk(self.module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_scope(node)
        return self.findings

    def _scan_scope(self, scope: ast.AST) -> None:
        self.set_names = {}
        self.nonset_names = set()
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign):
                self._track_assign(node)
        for node in _walk_scope(scope):
            self._check_node(node)

    def _track_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if self._is_set_expr(node.value):
                self.set_names.setdefault(target.id, node.lineno)
            else:
                self.nonset_names.add(target.id)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
            ):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(
                node.right
            )
        if isinstance(node, ast.Name):
            return (
                node.id in self.set_names
                and node.id not in self.nonset_names
            )
        return False

    def _set_source(self, node: ast.expr) -> tuple[str, int] | None:
        if not self._is_set_expr(node):
            return None
        if isinstance(node, ast.Name):
            return (node.id, self.set_names[node.id])
        return (expr_text(node), node.lineno)

    def _finding(
        self,
        line: int,
        source: tuple[str, int],
        sink: str,
        sink_line: int,
    ) -> None:
        name, source_line = source
        self.findings.append(
            Finding(
                rule="R11",
                path=self.module.path,
                line=line,
                message=(
                    "iteration over an unordered set flows into "
                    f"ordered output ({sink}) without sorted(); "
                    "determinism requires a canonical order at the "
                    "boundary"
                ),
                scope=self.module.scope_at(line),
                witness=(
                    f"set {name} constructed at "
                    f"{self.module.path}:{source_line}",
                    f"iterated at {self.module.path}:{line}",
                    f"ordered sink {sink} at "
                    f"{self.module.path}:{sink_line}",
                ),
            )
        )

    def _check_node(self, node: ast.AST) -> None:
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            self._check_comprehension(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_for(node)

    def _consumer(self, node: ast.AST) -> str | None:
        """The ordering-sensitive consumer wrapping ``node``."""
        parent = self.parents.get(id(node))
        if not isinstance(parent, ast.Call):
            return None
        func = parent.func
        if isinstance(func, ast.Name):
            if func.id in _SET_LAUNDER_CALLS:
                return None
            if func.id in _ORDERED_CONSUMERS:
                return f"{func.id}(...)"
            return None
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return ".join(...)"
        return None

    def _check_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp
    ) -> None:
        source = None
        for comp in node.generators:
            source = self._set_source(comp.iter)
            if source is not None:
                break
        if source is None:
            return
        if isinstance(node, ast.ListComp):
            parent = self.parents.get(id(node))
            if isinstance(parent, ast.Call) and isinstance(
                parent.func, ast.Name
            ):
                if parent.func.id in _SET_LAUNDER_CALLS:
                    return
            self._finding(
                node.lineno, source, "list comprehension", node.lineno
            )
            return
        consumer = self._consumer(node)
        if consumer is not None:
            self._finding(node.lineno, source, consumer, node.lineno)

    def _check_for(self, node: ast.For | ast.AsyncFor) -> None:
        source = self._set_source(node.iter)
        if source is None:
            return
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("append", "extend")
            ):
                self._finding(
                    node.lineno,
                    source,
                    f".{child.func.attr}(...)",
                    child.lineno,
                )
                return
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                self._finding(
                    node.lineno, source, "yield", child.lineno
                )
                return


def check_determinism_taint(project: Project) -> list[Finding]:
    findings = []
    for module in project.modules_in_scope(DETERMINISM_MODULES):
        findings.extend(_SetTaintVisitor(module).run())
    return findings


# --------------------------------------------------------- registry


register(
    Rule(
        rule_id="R2",
        title="budget-charge reachability",
        contract=(
            "every unbounded loop in a kernel module reaches a budget "
            "charge/check, transitively through calls"
        ),
        scope=KERNEL_MODULES,
        check_project=check_budget_reachability,
    )
)
register(
    Rule(
        rule_id="R8",
        title="lock-disciplined shared state",
        contract=(
            "serve-layer shared fields are written under the owning "
            "lock or through bump()"
        ),
        scope=SERVE_MODULES + SESSION_MODULES,
        check_project=check_lock_discipline,
    )
)
register(
    Rule(
        rule_id="R9",
        title="deadlined waits and lock holds",
        contract=(
            "serving-layer waits carry timeouts; locks held across "
            "unbounded work are acquired with a deadline"
        ),
        scope=DEADLINE_MODULES,
        check_project=check_deadline_discipline,
    )
)
register(
    Rule(
        rule_id="R10",
        title="non-blocking event loop",
        contract=(
            "no blocking call is reachable from an async def outside "
            "the executor"
        ),
        scope=SERVE_MODULES,
        check_project=check_async_blocking,
    )
)
register(
    Rule(
        rule_id="R11",
        title="determinism taint",
        contract=(
            "set iteration never feeds ordered output without "
            "sorted()"
        ),
        scope=DETERMINISM_MODULES,
        check_project=check_determinism_taint,
    )
)
