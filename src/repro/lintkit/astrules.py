"""R1 and R3–R7: single-module AST rules.

These are the pattern rules of the repo's first invariant walker,
rehoused on the lintkit registry next to the dataflow rules; each
finding carries the enclosing-definition scope so baseline
suppressions can target it, and ``tests/test_lintkit.py`` pins every
rule on violating and clean inputs.  R1 has since been tightened: it
resolves ``math`` through every import form (``import math as m``,
``from math import sqrt``), flags any reference to a ``math``
function, not only a call, and allows only the integer-exact ``gcd``
and ``lcm``.

R2 (budget-governed loops) also lived here historically; its dataflow
replacement — transitive budget-charge reachability — is in
:mod:`repro.lintkit.dataflow`.
"""

from __future__ import annotations

import ast

from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleModel
from repro.lintkit.rules import Rule, register

EXACT_KERNEL = ("repro/solver/core.py",)
"""Scope of R1 (float ban), repo-relative."""

INTEGER_MATH = frozenset({"gcd", "lcm"})
"""The ``math`` functions R1 allows: exact on ``int`` arguments, as the
fraction-free tableau's row normalisation needs."""

KERNEL_MODULES = ("repro/solver/",)
"""Scope of R2 (budgeted loops) and R3 (popitem ban)."""

PARALLEL_MODULES = ("repro/parallel/",)
"""Scope of R4 (spawn-only start method) and R5 (deadlined waits)."""

STORE_MODULES = ("repro/store/",)
"""Scope of R6 (atomic writes only)."""

COMPONENT_MODULES = ("repro/components/",)
"""Scope of R7 (no whole-schema expansion)."""

STORE_WRITE_HELPER = "repro/store/atomic.py"
"""The one module allowed to open files for writing inside the store."""

_EXPANSION_CALLS = ("Expansion", "build_system")
_WRITE_MODE_CHARS = frozenset("wax+")
_WRITE_METHODS = ("write_text", "write_bytes")
_START_METHOD_CALLS = ("get_context", "set_start_method")
_WAIT_CALLS = ("result", "wait", "as_completed", "map")


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _finding(
    module: ModuleModel, line: int, rule: str, message: str
) -> Finding:
    return Finding(
        rule=rule,
        path=module.path,
        line=line,
        message=message,
        scope=module.scope_at(line),
    )


def _math_aliases(tree: ast.AST) -> set[str]:
    """``math`` and the names bound to the module by ``import math as
    m``."""
    return {"math"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math" and alias.asname
    }


def check_floats(module: ModuleModel) -> list[Finding]:
    findings = []
    math_aliases = _math_aliases(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Constant) and isinstance(
            node.value, float
        ):
            findings.append(
                _finding(
                    module,
                    node.lineno,
                    "R1",
                    f"float literal {node.value!r} in the "
                    "exact-arithmetic kernel; use Fraction",
                )
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    findings.append(
                        _finding(
                            module,
                            node.lineno,
                            "R1",
                            f"math.{alias.name} imported into the "
                            "exact-arithmetic kernel; math operates on "
                            "floats",
                        )
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                findings.append(
                    _finding(
                        module,
                        node.lineno,
                        "R1",
                        "float() conversion in the exact-arithmetic "
                        "kernel; use Fraction",
                    )
                )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr not in INTEGER_MATH
        ):
            findings.append(
                _finding(
                    module,
                    node.lineno,
                    "R1",
                    f"math.{node.attr} in the exact-arithmetic kernel; "
                    "math operates on floats",
                )
            )
    return findings


def check_popitem(module: ModuleModel) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr == "popitem":
            findings.append(
                _finding(
                    module,
                    node.lineno,
                    "R3",
                    "popitem in a kernel module; kernels promise "
                    "deterministic iteration — pop an explicit key "
                    "instead",
                )
            )
    return findings


def check_start_method(module: ModuleModel) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) not in _START_METHOD_CALLS:
            continue
        method: ast.expr | None = node.args[0] if node.args else None
        if method is None:
            for keyword in node.keywords:
                if keyword.arg == "method":
                    method = keyword.value
        if isinstance(method, ast.Constant) and method.value == "spawn":
            continue
        findings.append(
            _finding(
                module,
                node.lineno,
                "R4",
                "multiprocessing start method must be the literal "
                "'spawn'; fork copies ambient budgets, contextvars, "
                "and locks into workers",
            )
        )
    return findings


def check_undeadlined_waits(module: ModuleModel) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _WAIT_CALLS:
            continue
        if any(keyword.arg == "timeout" for keyword in node.keywords):
            continue
        findings.append(
            _finding(
                module,
                node.lineno,
                "R5",
                f"{name}() without timeout= in repro.parallel; every "
                "pool wait must carry a deadline so a stuck worker "
                "cannot hang the parent",
            )
        )
    return findings


def _open_mode(node: ast.Call) -> ast.expr | None:
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def check_nonatomic_writes(module: ModuleModel) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if mode is None:
                continue  # bare open(path) reads; reads are lock-free
            if isinstance(mode, ast.Constant) and isinstance(
                mode.value, str
            ):
                if not _WRITE_MODE_CHARS & set(mode.value):
                    continue
                detail = f"open(..., {mode.value!r})"
            else:
                detail = "open() with a computed mode"
            findings.append(
                _finding(
                    module,
                    node.lineno,
                    "R6",
                    f"{detail} in the store; all writes must go "
                    "through the atomic temp+fsync+rename helper "
                    "(repro.store.atomic.atomic_write_bytes)",
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _WRITE_METHODS
        ):
            findings.append(
                _finding(
                    module,
                    node.lineno,
                    "R6",
                    f".{func.attr}() in the store; all writes must go "
                    "through the atomic temp+fsync+rename helper "
                    "(repro.store.atomic.atomic_write_bytes)",
                )
            )
    return findings


def check_whole_schema_expansion(module: ModuleModel) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _EXPANSION_CALLS:
            continue
        findings.append(
            _finding(
                module,
                node.lineno,
                "R7",
                f"{name}() in the component layer; expansion must "
                "happen per component through the session cache, "
                "never on the whole schema",
            )
        )
    return findings


register(
    Rule(
        rule_id="R1",
        title="exact arithmetic only",
        contract=(
            "no float literals, float() conversions, or math functions "
            "other than the integer gcd and lcm in the exact-arithmetic "
            "kernel, however math is imported"
        ),
        scope=EXACT_KERNEL,
        check_module=check_floats,
    )
)
register(
    Rule(
        rule_id="R3",
        title="deterministic iteration",
        contract="no popitem in kernel modules",
        scope=KERNEL_MODULES,
        check_module=check_popitem,
    )
)
register(
    Rule(
        rule_id="R4",
        title="spawn-only multiprocessing",
        contract=(
            "get_context()/set_start_method() must pass the literal "
            "'spawn'"
        ),
        scope=PARALLEL_MODULES,
        check_module=check_start_method,
    )
)
register(
    Rule(
        rule_id="R5",
        title="deadlined pool waits",
        contract=(
            "result()/wait()/as_completed()/map() must pass timeout= "
            "in repro.parallel"
        ),
        scope=PARALLEL_MODULES,
        check_module=check_undeadlined_waits,
    )
)
register(
    Rule(
        rule_id="R6",
        title="atomic writes only",
        contract=(
            "all store writes go through the temp+fsync+rename helper"
        ),
        scope=STORE_MODULES,
        exempt=(STORE_WRITE_HELPER,),
        check_module=check_nonatomic_writes,
    )
)
register(
    Rule(
        rule_id="R7",
        title="no whole-schema expansion",
        contract=(
            "the component layer never calls Expansion()/build_system()"
        ),
        scope=COMPONENT_MODULES,
        check_module=check_whole_schema_expansion,
    )
)
