"""Per-module AST model: scopes, call sites, writes, locks, loops.

:func:`build_module` parses one source file and extracts the facts the
rule passes consume, so every rule works off one shared, deterministic
representation instead of re-walking raw ASTs:

* every *call site* with its rendered callee text, keyword names, and
  whether it is awaited or lexically inside a ``with <lock>:`` body;
* every *self-attribute write* (assignments, augmented assignments,
  subscript stores, mutating container-method calls, ``setattr``) —
  the raw material of the lock-discipline rule;
* every unbounded *loop* (``while True:``, ``for`` over
  ``itertools.count``/``cycle`` or two-argument ``iter``) with the
  calls made in its body — the raw material of budget reachability;
* every ``with``-acquired lock with the calls made while it is held;
* the import alias table and class table (bases, methods, whether the
  class owns a ``threading.Lock``/``RLock``) used by call resolution.

Nested functions and lambdas are *merged into their enclosing
top-level definition*: their calls, loops, and writes are attributed
to the function that creates them.  This is a deliberate may-analysis
over-approximation — a closure handed to ``run_governed`` or a thread
pool executes on behalf of its creator, and the summaries must see
through it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lintkit.findings import MODULE_SCOPE

MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "extend",
        "remove",
        "discard",
        "insert",
        "move_to_end",
        "setdefault",
    }
)
"""Container methods that mutate ``self``-owned state in place."""

_BUDGET_MARKERS = ("budget", "charge")
"""Identifier fragments that mark code as budget-aware (shared with
the historical R2 heuristic, which transitive reachability extends)."""

_LOCK_FACTORY_NAMES = frozenset({"Lock", "RLock"})

_UNBOUNDED_ITERATOR_CALLS = frozenset({"count", "cycle", "repeat"})


def expr_text(node: ast.expr) -> str:
    """A compact, stable rendering of a callee/context expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{expr_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{expr_text(node.func)}(...)"
    if isinstance(node, ast.Subscript):
        return f"{expr_text(node.value)}[...]"
    return f"<{type(node).__name__}>"


def _mentions_budget(node: ast.AST) -> bool:
    for child in ast.walk(node):
        name: str | None = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        if name is None:
            continue
        lowered = name.lower()
        if any(marker in lowered for marker in _BUDGET_MARKERS):
            return True
    return False


@dataclass(frozen=True)
class CallSite:
    """One call expression, pre-digested for the rule passes."""

    line: int
    text: str
    name: str | None
    attr: str | None
    base: str | None
    is_self_method: bool
    is_super: bool
    num_args: int
    keywords: tuple[str | None, ...]
    awaited: bool
    in_lock: bool
    node: ast.Call = field(repr=False, compare=False)

    @property
    def has_timeout_kw(self) -> bool:
        return "timeout" in self.keywords

    @property
    def has_deadline(self) -> bool:
        """A timeout keyword or any positional argument — covers both
        ``result(timeout=t)`` and ``join(30.0)`` spellings."""
        return self.has_timeout_kw or self.num_args > 0


@dataclass(frozen=True)
class WriteSite:
    """One mutation of ``self``-owned state."""

    line: int
    target: str
    in_lock: bool


@dataclass
class LoopSite:
    """One unbounded loop and the calls made in its body."""

    line: int
    kind: str  # "while-true" | "for-unbounded"
    detail: str
    has_budget_marker: bool
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class WithLockSite:
    """One ``with <lock>:`` acquisition and its held-region calls."""

    line: int
    text: str
    callee: CallSite | None
    calls: list[CallSite] = field(default_factory=list)
    has_while_true: bool = False


@dataclass
class FunctionInfo:
    """Facts about one top-level function or method (nested defs and
    lambdas merged in, per the module docstring)."""

    qualname: str
    name: str
    cls: str | None
    path: str
    modname: str
    line: int
    end_line: int
    is_async: bool
    decorators: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)
    writes: list[WriteSite] = field(default_factory=list)
    loops: list[LoopSite] = field(default_factory=list)
    with_locks: list[WithLockSite] = field(default_factory=list)
    has_budget_marker: bool = False
    has_while_true: bool = False

    @property
    def is_contextmanager(self) -> bool:
        return any("contextmanager" in deco for deco in self.decorators)

    def has_deadlined_acquire(self) -> bool:
        return any(
            call.attr == "acquire" and call.has_deadline
            for call in self.calls
        )

    def label(self) -> str:
        if self.cls is not None:
            return f"{self.cls}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class definition: bases, methods, lock ownership."""

    name: str
    qualname: str
    line: int
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)
    owns_lock: bool = False


@dataclass
class ModuleModel:
    """The extracted model of one source module."""

    path: str
    modname: str
    tree: ast.Module = field(repr=False)
    source: str = field(repr=False)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)

    def scope_at(self, line: int) -> str:
        """Innermost definition containing ``line`` (for suppression
        keys), or ``<module>`` for top-level code."""
        best: FunctionInfo | None = None
        for func in self.functions.values():
            if func.name == MODULE_SCOPE:
                continue
            if func.line <= line <= func.end_line:
                if best is None or func.line > best.line:
                    best = func
        return best.label() if best is not None else MODULE_SCOPE

    @property
    def module_scope(self) -> FunctionInfo:
        return self.functions[f"{self.modname}.{MODULE_SCOPE}"]


def _modname_for(path: str) -> str:
    dotted = path[:-3] if path.endswith(".py") else path
    dotted = dotted.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _is_lock_factory(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _LOCK_FACTORY_NAMES:
            return True
    return False


def _is_lockish(node: ast.expr) -> bool:
    return "lock" in expr_text(node).lower()


class _Extractor:
    """Single-pass recursive walk populating a :class:`ModuleModel`."""

    def __init__(self, module: ModuleModel) -> None:
        self.module = module
        self.func: FunctionInfo | None = None
        self.cls: ClassInfo | None = None
        self.lock_stack: list[WithLockSite] = []
        self.loop_stack: list[LoopSite] = []

    # -- module / class / function structure ------------------------

    def run(self) -> None:
        module_scope = FunctionInfo(
            qualname=f"{self.module.modname}.{MODULE_SCOPE}",
            name=MODULE_SCOPE,
            cls=None,
            path=self.module.path,
            modname=self.module.modname,
            line=1,
            end_line=len(self.module.source.splitlines()) + 1,
            is_async=False,
        )
        self.module.functions[module_scope.qualname] = module_scope
        self.func = module_scope
        for stmt in self.module.tree.body:
            self._top_level(stmt)

    def _top_level(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._record_import(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._define_function(stmt)
        elif isinstance(stmt, ast.ClassDef):
            self._define_class(stmt)
        else:
            self._scan(stmt)

    def _record_import(self, stmt: ast.Import | ast.ImportFrom) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else bound
                self.module.imports[bound] = target
        else:
            if stmt.module is None or stmt.level:
                return  # relative imports are not used in this repo
            for alias in stmt.names:
                bound = alias.asname or alias.name
                self.module.imports[bound] = f"{stmt.module}.{alias.name}"

    def _define_class(self, stmt: ast.ClassDef) -> None:
        info = ClassInfo(
            name=stmt.name,
            qualname=f"{self.module.modname}.{stmt.name}",
            line=stmt.lineno,
            bases=tuple(expr_text(base) for base in stmt.bases),
        )
        self.module.classes[stmt.name] = info
        previous = self.cls
        self.cls = info
        for node in stmt.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define_function(node)
            else:
                self._scan(node)
        self.cls = previous

    def _define_function(
        self, stmt: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        cls_name = self.cls.name if self.cls is not None else None
        if cls_name is not None:
            qualname = (
                f"{self.module.modname}.{cls_name}.{stmt.name}"
            )
        else:
            qualname = f"{self.module.modname}.{stmt.name}"
        info = FunctionInfo(
            qualname=qualname,
            name=stmt.name,
            cls=cls_name,
            path=self.module.path,
            modname=self.module.modname,
            line=stmt.lineno,
            end_line=stmt.end_lineno or stmt.lineno,
            is_async=isinstance(stmt, ast.AsyncFunctionDef),
            decorators=tuple(
                expr_text(deco) for deco in stmt.decorator_list
            ),
        )
        info.has_budget_marker = _mentions_budget(stmt)
        self.module.functions[qualname] = info
        if self.cls is not None:
            self.cls.methods[stmt.name] = qualname
        outer_func = self.func
        outer_locks, outer_loops = self.lock_stack, self.loop_stack
        self.func = info
        self.lock_stack, self.loop_stack = [], []
        for deco in stmt.decorator_list:
            self._scan(deco)
        for node in stmt.body:
            self._scan(node)
        self.func = outer_func
        self.lock_stack, self.loop_stack = outer_locks, outer_loops

    # -- statement / expression scan --------------------------------

    def _scan(self, node: ast.AST, awaited: bool = False) -> None:
        if isinstance(node, ast.Await):
            value = node.value
            self._scan(value, awaited=isinstance(value, ast.Call))
            return
        if isinstance(node, ast.Call):
            self._record_call(node, awaited)
            for child in ast.iter_child_nodes(node):
                self._scan(child)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._scan_with(node)
            return
        if isinstance(node, ast.While):
            self._scan_while(node)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_for(node)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._record_writes(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            # Nested definition: merge its body into the enclosing
            # function (see module docstring).
            body = (
                [node.body]
                if isinstance(node, ast.Lambda)
                else list(node.body)
            )
            for child in body:
                self._scan(child)
            return
        for child in ast.iter_child_nodes(node):
            self._scan(child)

    def _scan_with(self, node: ast.With | ast.AsyncWith) -> None:
        opened: list[WithLockSite] = []
        for item in node.items:
            self._scan(item.context_expr)
            if item.optional_vars is not None:
                self._scan(item.optional_vars)
            if not _is_lockish(item.context_expr):
                continue
            callee = None
            if isinstance(item.context_expr, ast.Call):
                callee = self._last_recorded_call(item.context_expr)
            site = WithLockSite(
                line=node.lineno,
                text=expr_text(item.context_expr),
                callee=callee,
            )
            assert self.func is not None
            self.func.with_locks.append(site)
            opened.append(site)
        self.lock_stack.extend(opened)
        for stmt in node.body:
            self._scan(stmt)
        del self.lock_stack[len(self.lock_stack) - len(opened) :]

    def _last_recorded_call(self, node: ast.Call) -> CallSite | None:
        assert self.func is not None
        for call in reversed(self.func.calls):
            if call.node is node:
                return call
        return None

    def _scan_while(self, node: ast.While) -> None:
        is_true = (
            isinstance(node.test, ast.Constant)
            and node.test.value is True
        )
        self._scan(node.test)
        if is_true:
            loop = LoopSite(
                line=node.lineno,
                kind="while-true",
                detail="'while True:'",
                has_budget_marker=_mentions_budget(node),
            )
            assert self.func is not None
            self.func.loops.append(loop)
            self.func.has_while_true = True
            for site in self.lock_stack:
                site.has_while_true = True
            self.loop_stack.append(loop)
            for stmt in node.body + node.orelse:
                self._scan(stmt)
            self.loop_stack.pop()
        else:
            for stmt in node.body + node.orelse:
                self._scan(stmt)

    def _unbounded_iter(self, node: ast.expr) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "iter" and len(node.args) == 2:
                return "iter(callable, sentinel)"
            target = self.module.imports.get(func.id, "")
            if (
                func.id in _UNBOUNDED_ITERATOR_CALLS
                and target.startswith("itertools.")
                and len(node.args) < 2
            ):
                return f"itertools.{func.id}(...)"
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools"
            and func.attr in _UNBOUNDED_ITERATOR_CALLS
            and len(node.args) < 2
        ):
            return f"itertools.{func.attr}(...)"
        return None

    def _scan_for(self, node: ast.For | ast.AsyncFor) -> None:
        detail = self._unbounded_iter(node.iter)
        self._scan(node.target)
        self._scan(node.iter)
        if detail is not None:
            loop = LoopSite(
                line=node.lineno,
                kind="for-unbounded",
                detail=f"'for' over {detail}",
                has_budget_marker=_mentions_budget(node),
            )
            assert self.func is not None
            self.func.loops.append(loop)
            self.func.has_while_true = True
            for site in self.lock_stack:
                site.has_while_true = True
            self.loop_stack.append(loop)
            for stmt in node.body + node.orelse:
                self._scan(stmt)
            self.loop_stack.pop()
        else:
            for stmt in node.body + node.orelse:
                self._scan(stmt)

    # -- fact recording ---------------------------------------------

    def _record_call(self, node: ast.Call, awaited: bool) -> None:
        func = node.func
        name = attr = base = None
        is_self_method = is_super = False
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name):
                base = value.id
                is_self_method = value.id == "self"
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
            ):
                is_super = True
            else:
                root = value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    base = root.id
        site = CallSite(
            line=node.lineno,
            text=expr_text(func),
            name=name,
            attr=attr,
            base=base,
            is_self_method=is_self_method,
            is_super=is_super,
            num_args=len(node.args),
            keywords=tuple(kw.arg for kw in node.keywords),
            awaited=awaited,
            in_lock=bool(self.lock_stack),
            node=node,
        )
        assert self.func is not None
        self.func.calls.append(site)
        for loop in self.loop_stack:
            loop.calls.append(site)
        for lock in self.lock_stack:
            lock.calls.append(site)
        self._record_call_writes(site)

    def _record_call_writes(self, site: CallSite) -> None:
        assert self.func is not None
        node = site.node
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self.func.writes.append(
                WriteSite(
                    line=node.lineno,
                    target=(
                        f"self.{func.value.attr}.{func.attr}()"
                    ),
                    in_lock=site.in_lock,
                )
            )
        elif (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            self.func.writes.append(
                WriteSite(
                    line=node.lineno,
                    target="setattr(self, ...)",
                    in_lock=site.in_lock,
                )
            )

    def _record_writes(
        self, node: ast.Assign | ast.AugAssign | ast.AnnAssign
    ) -> None:
        assert self.func is not None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: ast.expr | None = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = node.value
        else:
            targets = [node.target]
            value = node.value
        for target in targets:
            rendered = self._self_write_target(target)
            if rendered is None:
                continue
            self.func.writes.append(
                WriteSite(
                    line=node.lineno,
                    target=rendered,
                    in_lock=bool(self.lock_stack),
                )
            )
            if (
                self.cls is not None
                and value is not None
                and isinstance(target, ast.Attribute)
                and _is_lock_factory(value)
            ):
                self.cls.owns_lock = True

    @staticmethod
    def _self_write_target(target: ast.expr) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "self"
        ):
            return f"self.{target.value.attr}[...]"
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                rendered = _Extractor._self_write_target(element)
                if rendered is not None:
                    return rendered
        return None


def build_module(source: str, relative_path: str) -> ModuleModel:
    """Parse ``source`` and extract its :class:`ModuleModel`.

    ``relative_path`` is repo-relative to ``src/`` and posix-styled,
    e.g. ``repro/serve/engine.py``.  Raises :class:`SyntaxError` on
    unparsable input, like ``ast.parse``.
    """
    normalized = relative_path.replace("\\", "/")
    tree = ast.parse(source, filename=normalized)
    module = ModuleModel(
        path=normalized,
        modname=_modname_for(normalized),
        tree=tree,
        source=source,
    )
    _Extractor(module).run()
    return module
