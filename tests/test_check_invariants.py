"""Unit tests for ``tools/check_invariants.py``, the repo-wide AST
lint that keeps the exact-arithmetic kernel honest."""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_invariants", ROOT / "tools" / "check_invariants.py"
)
assert _SPEC is not None and _SPEC.loader is not None
check_invariants = importlib.util.module_from_spec(_SPEC)
sys.modules["check_invariants"] = check_invariants
_SPEC.loader.exec_module(check_invariants)

KERNEL_PATH = "repro/solver/core.py"


def violations(source, path=KERNEL_PATH):
    return check_invariants.check_source(textwrap.dedent(source), path)


def rules(source, path=KERNEL_PATH):
    return [violation.rule for violation in violations(source, path)]


class TestFloatBan:
    def test_float_literal_flagged(self):
        assert rules("x = 0.5\n") == ["R1"]

    def test_float_call_flagged(self):
        assert rules("y = float(3)\n") == ["R1"]

    def test_math_module_flagged(self):
        assert rules("import math\nz = math.sqrt(2)\n") == ["R1"]

    def test_fractions_are_fine(self):
        assert rules(
            """
            from fractions import Fraction

            half = Fraction(1, 2)
            """
        ) == []

    def test_rule_only_applies_to_the_exact_kernel(self):
        assert rules("x = 0.5\n", path="repro/cli.py") == []
        assert rules("x = 0.5\n", path="repro/solver/pruned.py") == []
        assert rules("x = 0.5\n", path=KERNEL_PATH) == ["R1"]


class TestUnbudgetedLoops:
    def test_bare_while_true_flagged(self):
        assert rules(
            """
            def spin():
                while True:
                    pass
            """
        ) == ["R2"]

    def test_budget_charged_loop_is_fine(self):
        assert rules(
            """
            def pivot(budget):
                while True:
                    budget.charge(1)
            """
        ) == []

    def test_bounded_loops_are_fine(self):
        assert rules(
            """
            def scan(rows):
                for row in rows:
                    while row:
                        row = row.tail
            """
        ) == []


class TestPopitemBan:
    def test_popitem_flagged_in_kernel_modules(self):
        source = "state.popitem()\n"
        assert rules(source, path=KERNEL_PATH) == ["R3"]
        assert rules(source, path="repro/solver/pruned.py") == ["R3"]

    def test_popitem_allowed_outside_the_kernel(self):
        assert rules("cache.popitem(last=False)\n", path="repro/session/cache.py") == []


PARALLEL_PATH = "repro/parallel/pool.py"


class TestStartMethodBan:
    def test_fork_context_flagged(self):
        source = 'ctx = multiprocessing.get_context("fork")\n'
        assert rules(source, path=PARALLEL_PATH) == ["R4"]

    def test_forkserver_flagged(self):
        source = 'multiprocessing.set_start_method("forkserver")\n'
        assert rules(source, path=PARALLEL_PATH) == ["R4"]

    def test_default_context_flagged(self):
        # A bare get_context() inherits the platform default, which is
        # fork on Linux — the start method must be spelled out.
        source = "ctx = multiprocessing.get_context()\n"
        assert rules(source, path=PARALLEL_PATH) == ["R4"]

    def test_method_keyword_checked(self):
        source = 'multiprocessing.set_start_method(method="fork")\n'
        assert rules(source, path=PARALLEL_PATH) == ["R4"]

    def test_spawn_is_fine(self):
        source = 'ctx = multiprocessing.get_context("spawn")\n'
        assert rules(source, path=PARALLEL_PATH) == []

    def test_rule_scoped_to_the_parallel_package(self):
        source = 'ctx = multiprocessing.get_context("fork")\n'
        assert rules(source, path="repro/cli.py") == []


class TestUndeadlinedWaits:
    def test_bare_result_flagged(self):
        assert rules("value = future.result()\n", path=PARALLEL_PATH) == [
            "R5"
        ]

    def test_bare_wait_flagged(self):
        source = "done, pending = wait(futures)\n"
        assert rules(source, path=PARALLEL_PATH) == ["R5"]

    def test_bare_as_completed_flagged(self):
        source = "for future in as_completed(futures):\n    pass\n"
        assert rules(source, path=PARALLEL_PATH) == ["R5"]

    def test_bare_pool_map_flagged(self):
        source = "results = pool.map(task, items)\n"
        assert rules(source, path=PARALLEL_PATH) == ["R5"]

    def test_timeout_keyword_satisfies_the_rule(self):
        source = """
            value = future.result(timeout=0.05)
            done, pending = wait(futures, timeout=0.05)
            """
        assert rules(source, path=PARALLEL_PATH) == []

    def test_shutdown_wait_keyword_is_not_a_wait_call(self):
        source = "executor.shutdown(wait=True, cancel_futures=True)\n"
        assert rules(source, path=PARALLEL_PATH) == []

    def test_rule_scoped_to_the_parallel_package(self):
        assert rules("value = future.result()\n", path="repro/cli.py") == []


STORE_PATH = "repro/store/store.py"


class TestNonatomicWriteBan:
    def test_write_mode_open_flagged(self):
        source = 'handle = open(path, "w")\n'
        assert rules(source, path=STORE_PATH) == ["R6"]

    def test_binary_append_and_exclusive_modes_flagged(self):
        assert rules('open(path, "wb")\n', path=STORE_PATH) == ["R6"]
        assert rules('open(path, "a")\n', path=STORE_PATH) == ["R6"]
        assert rules('open(path, "x")\n', path=STORE_PATH) == ["R6"]
        assert rules('open(path, "r+")\n', path=STORE_PATH) == ["R6"]

    def test_mode_keyword_checked(self):
        source = 'open(path, mode="w")\n'
        assert rules(source, path=STORE_PATH) == ["R6"]

    def test_computed_mode_flagged(self):
        # A mode the AST cannot prove read-only counts as a write.
        source = "open(path, mode)\n"
        assert rules(source, path=STORE_PATH) == ["R6"]

    def test_path_write_helpers_flagged(self):
        assert rules('path.write_text("x")\n', path=STORE_PATH) == ["R6"]
        assert rules('path.write_bytes(b"x")\n', path=STORE_PATH) == ["R6"]

    def test_reads_are_fine(self):
        source = """
            blob = path.read_bytes()
            with open(path) as handle:
                handle.read()
            with open(path, "rb") as handle:
                handle.read()
            """
        assert rules(source, path=STORE_PATH) == []

    def test_the_atomic_helper_is_exempt(self):
        source = 'open(path, "wb")\n'
        assert rules(source, path="repro/store/atomic.py") == []

    def test_rule_scoped_to_the_store_package(self):
        source = 'open(path, "w")\n'
        assert rules(source, path="repro/cli.py") == []
        assert rules(source, path="repro/store/locks.py") == ["R6"]


COMPONENTS_PATH = "repro/components/decompose.py"


class TestWholeSchemaExpansionBan:
    def test_direct_expansion_call_flagged(self):
        source = "expansion = Expansion(schema)\n"
        assert rules(source, path=COMPONENTS_PATH) == ["R7"]

    def test_build_system_call_flagged(self):
        source = "system = build_system(expansion)\n"
        assert rules(source, path=COMPONENTS_PATH) == ["R7"]

    def test_attribute_call_form_flagged(self):
        # Reaching the banned entry points through the module object
        # (`expansion_mod.Expansion(...)`) is the same violation.
        source = "expansion = cr_expansion.Expansion(schema)\n"
        assert rules(source, path=COMPONENTS_PATH) == ["R7"]

    def test_delegating_to_sessions_is_fine(self):
        source = """
            session = ReasoningSession(component.schema, cache=cache)
            entry = cache.artifacts(component.schema, fingerprint)
            """
        assert rules(source, path=COMPONENTS_PATH) == []

    def test_rule_scoped_to_the_component_package(self):
        source = "expansion = Expansion(schema)\n"
        assert rules(source, path="repro/cli.py") == []
        assert rules(source, path="repro/components/session.py") == ["R7"]


class TestDiagnostics:
    def test_violations_render_file_line_rule(self):
        (violation,) = violations("x = 0.5\n")
        rendered = violation.render()
        assert rendered.startswith(f"{KERNEL_PATH}:1: R1")

    def test_line_numbers_point_at_the_offence(self):
        (violation,) = violations("a = 1\nb = 2\nc = 3.0\n")
        assert violation.line == 3


class TestRepoIsClean:
    def test_the_shipped_kernel_passes(self):
        checked = list(check_invariants.iter_checked_files())
        assert checked, "invariant scope resolved to no files"
        problems = [
            violation
            for path in checked
            for violation in check_invariants.check_file(path)
        ]
        assert problems == [], [v.render() for v in problems]
