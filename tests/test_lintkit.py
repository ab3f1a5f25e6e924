"""Tests for ``repro.lintkit`` — the dataflow-aware repo contract
checker behind ``repro lint --repo``.

Three layers:

* a **fixture corpus** of known-bad snippets, one per rule (R1–R3,
  R6–R11), each asserting the expected rule id, line anchor, and (for
  the dataflow rules) the witness chain — plus the matching known-good
  twin that must stay silent;
* the **clean-repo gate**: the real repo, linted against the
  checked-in baseline, reports zero new findings;
* a **Hypothesis order-stability** property: rule output is identical
  under every module discovery order.
"""

from __future__ import annotations

import json
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.lintkit import (
    Baseline,
    Project,
    RULES,
    all_rule_ids,
    default_baseline_path,
    lint_repo,
    run_rules,
    sort_findings,
)
from repro.lintkit.model import build_module


def project_of(*mods: tuple[str, str]) -> Project:
    return Project(
        [build_module(textwrap.dedent(src), path) for path, src in mods]
    )


def findings_for(rule_id: str, *mods: tuple[str, str]):
    return run_rules(project_of(*mods), (rule_id,))


class TestRegistry:
    def test_the_live_rules_are_registered(self):
        # R4, R5 and R12 are retired ids, never reused, so baselines
        # and docs that cite a rule by id keep their meaning.
        assert all_rule_ids() == (
            "R1", "R2", "R3", "R6", "R7", "R8", "R9", "R10", "R11",
        )

    def test_every_rule_states_its_contract(self):
        run_rules(project_of(), ())  # force registry population
        for rule in RULES.values():
            assert rule.title and rule.contract and rule.scope

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ReproError):
            run_rules(project_of(), ("R99",))


class TestR1Floats:
    def test_float_literal(self):
        (f,) = findings_for("R1", ("repro/solver/core.py", "X = 0.5\n"))
        assert (f.rule, f.line, f.scope) == ("R1", 1, "<module>")
        assert "float literal 0.5" in f.message

    def test_scope_is_enclosing_function(self):
        (f,) = findings_for(
            "R1",
            ("repro/solver/core.py", "def f():\n    return float(3)\n"),
        )
        assert f.scope == "f"

    def test_out_of_scope_module_ignored(self):
        assert not findings_for("R1", ("repro/serve/app.py", "X = 0.5\n"))

    def test_rule_only_applies_to_the_exact_kernel(self):
        for path in ("repro/cli.py", "repro/solver/pruned.py"):
            assert not findings_for("R1", (path, "x = 0.5\n")), path
        (f,) = findings_for("R1", ("repro/solver/core.py", "x = 0.5\n"))
        assert f.rule == "R1"

    @pytest.mark.parametrize(
        "source",
        ["y = float(3)\n", "import math\nz = math.sqrt(2)\n"],
        ids=["float-call", "math-module"],
    )
    def test_module_level_float_arithmetic_flagged(self, source):
        (f,) = findings_for("R1", ("repro/solver/core.py", source))
        assert f.rule == "R1"

    def test_fractions_allowed(self):
        good = (
            "from fractions import Fraction\n"
            "\n"
            "half = Fraction(1, 2)\n"
        )
        assert not findings_for("R1", ("repro/solver/core.py", good))

    def test_violations_render_file_line_rule(self):
        (f,) = findings_for("R1", ("repro/solver/core.py", "x = 0.5\n"))
        assert f.render().startswith("repro/solver/core.py:1: R1")

    def test_line_numbers_point_at_the_offence(self):
        (f,) = findings_for(
            "R1", ("repro/solver/core.py", "a = 1\nb = 2\nc = 3.0\n")
        )
        assert f.line == 3
        assert f.render().startswith("repro/solver/core.py:3: R1")

    def test_from_import_of_a_float_function_flagged(self):
        (f,) = findings_for(
            "R1",
            ("repro/solver/core.py", "from math import sqrt\nz = sqrt(2)\n"),
        )
        assert (f.rule, f.line) == ("R1", 1)
        assert "math.sqrt imported" in f.message

    def test_aliased_math_module_flagged(self):
        (f,) = findings_for(
            "R1",
            ("repro/solver/core.py", "import math as m\nz = m.sqrt(2)\n"),
        )
        assert (f.rule, f.line) == ("R1", 2)
        assert "math.sqrt in" in f.message

    def test_integer_gcd_and_lcm_allowed(self):
        good = (
            "import math\n"
            "from math import gcd, lcm\n"
            "g = math.gcd(4, 6) + gcd(4, 6) + lcm(4, 6)\n"
        )
        assert not findings_for("R1", ("repro/solver/core.py", good))


class TestR2BudgetReachability:
    BAD = (
        "repro/solver/spin.py",
        """
        def spin():
            while True:
                step()

        def step():
            return 1
        """,
    )

    def test_unreached_while_true_flagged_with_witness(self):
        (f,) = findings_for("R2", self.BAD)
        assert (f.rule, f.line, f.scope) == ("R2", 3, "spin")
        assert "'while True:' without a budget charge/check" in f.message
        assert f.witness == (
            "repro.solver.spin.spin (repro/solver/spin.py:3) "
            "'while True:'",
            "no call in the loop body reaches a budget charge/check "
            "transitively",
        )

    def test_transitive_budget_charge_silences(self):
        # The charge is two calls away — the historical same-scope
        # heuristic could not see it; the call-graph analysis must.
        good = (
            "repro/solver/spin.py",
            """
            def spin():
                while True:
                    step()

            def step():
                deduct()

            def deduct(budget=None):
                budget.charge(1)
            """,
        )
        assert not findings_for("R2", good)

    def test_for_over_unbounded_iterable_flagged(self):
        (f,) = findings_for(
            "R2",
            (
                "repro/solver/sweep.py",
                """
                import itertools

                def sweep():
                    for k in itertools.count():
                        probe(k)

                def probe(k):
                    return k
                """,
            ),
        )
        assert f.line == 5
        assert "'for' over itertools.count(...)" in f.message

    def test_bare_while_true_flagged(self):
        (f,) = findings_for(
            "R2",
            (
                "repro/solver/core.py",
                "def spin():\n    while True:\n        pass\n",
            ),
        )
        assert (f.rule, f.line) == ("R2", 2)

    def test_bounded_loops_clean(self):
        good = (
            "repro/solver/core.py",
            """
            def scan(rows):
                for row in rows:
                    while row:
                        row = row.tail
            """,
        )
        assert not findings_for("R2", good)

    def test_in_body_marker_is_still_a_fast_path(self):
        good = (
            "repro/solver/spin.py",
            """
            def spin(budget):
                while True:
                    budget.charge(1)
            """,
        )
        assert not findings_for("R2", good)


class TestR3Popitem:
    def test_popitem_flagged(self):
        (f,) = findings_for(
            "R3",
            ("repro/solver/tab.py", "def f(d):\n    d.popitem()\n"),
        )
        assert (f.rule, f.line) == ("R3", 2)

    @pytest.mark.parametrize(
        "path",
        ["repro/solver/core.py", "repro/solver/pruned.py"],
        ids=["core", "pruned"],
    )
    def test_module_level_popitem_flagged_in_kernel_modules(self, path):
        (f,) = findings_for("R3", (path, "state.popitem()\n"))
        assert (f.rule, f.line) == ("R3", 1)

    def test_popitem_allowed_outside_the_kernel(self):
        assert not findings_for(
            "R3",
            ("repro/session/cache.py", "cache.popitem(last=False)\n"),
        )


class TestR6AtomicWrites:
    def test_write_mode_open_flagged(self):
        (f,) = findings_for(
            "R6",
            ("repro/store/index.py", 'def f(p):\n    open(p, "w")\n'),
        )
        assert (f.rule, f.line) == ("R6", 2)

    def test_atomic_helper_module_exempt(self):
        assert not findings_for(
            "R6",
            ("repro/store/atomic.py", 'def f(p):\n    open(p, "w")\n'),
        )

    @pytest.mark.parametrize(
        "source",
        [
            'open(path, "wb")\n',
            'open(path, "a")\n',
            'open(path, "x")\n',
            'open(path, "r+")\n',
            'open(path, mode="w")\n',
            # A mode the AST cannot prove read-only counts as a write.
            "open(path, mode)\n",
            'path.write_text("x")\n',
            'path.write_bytes(b"x")\n',
        ],
        ids=[
            "wb",
            "a",
            "x",
            "r+",
            "mode-keyword",
            "computed-mode",
            "write-text",
            "write-bytes",
        ],
    )
    def test_other_write_primitives_flagged(self, source):
        (f,) = findings_for("R6", ("repro/store/store.py", source))
        assert (f.rule, f.line) == ("R6", 1)

    def test_reads_clean(self):
        good = (
            "repro/store/store.py",
            """
            blob = path.read_bytes()
            with open(path) as handle:
                handle.read()
            with open(path, "rb") as handle:
                handle.read()
            """,
        )
        assert not findings_for("R6", good)

    def test_rule_scoped_to_the_store_package(self):
        source = 'open(path, "w")\n'
        assert not findings_for("R6", ("repro/cli.py", source))
        (f,) = findings_for("R6", ("repro/store/locks.py", source))
        assert f.rule == "R6"


class TestR7NoWholeSchemaExpansion:
    def test_expansion_call_flagged(self):
        (f,) = findings_for(
            "R7",
            (
                "repro/components/split.py",
                "def f(schema):\n    return Expansion(schema)\n",
            ),
        )
        assert (f.rule, f.line) == ("R7", 2)

    @pytest.mark.parametrize(
        "source",
        [
            "system = build_system(expansion)\n",
            # Reaching the banned entry point through the module object
            # is the same violation.
            "expansion = cr_expansion.Expansion(schema)\n",
        ],
        ids=["build-system", "attribute-call"],
    )
    def test_other_whole_schema_calls_flagged(self, source):
        (f,) = findings_for("R7", ("repro/components/decompose.py", source))
        assert (f.rule, f.line) == ("R7", 1)

    def test_delegating_to_sessions_clean(self):
        good = (
            "repro/components/decompose.py",
            """
            session = ReasoningSession(component.schema, cache=cache)
            entry = cache.artifacts(component.schema, fingerprint)
            """,
        )
        assert not findings_for("R7", good)

    def test_rule_scoped_to_the_component_package(self):
        source = "expansion = Expansion(schema)\n"
        assert not findings_for("R7", ("repro/cli.py", source))
        (f,) = findings_for("R7", ("repro/components/diff.py", source))
        assert f.rule == "R7"

    def test_rule_covers_the_session_routing(self):
        # The session routes queries to islands; only its cache builds.
        source = "expansion = Expansion(schema)\n"
        (f,) = findings_for("R7", ("repro/session/session.py", source))
        assert f.rule == "R7"
        assert not findings_for("R7", ("repro/session/cache.py", source))


class TestR8LockDiscipline:
    BAD = (
        "repro/serve/state.py",
        """
        import threading

        class Handler:
            def __init__(self):
                self.lock = threading.Lock()
                self.count = 0

            def handle(self):
                self.count += 1
        """,
    )

    def test_unguarded_write_flagged_with_chain(self):
        (f,) = findings_for("R8", self.BAD)
        assert (f.rule, f.line, f.scope) == ("R8", 10, "Handler.handle")
        assert "write to self.count" in f.message
        assert f.witness[-1] == (
            "unguarded write at repro/serve/state.py:10"
        )
        assert "repro.serve.state.Handler.handle" in f.witness[0]

    def test_write_under_owning_lock_clean(self):
        good = (
            "repro/serve/state.py",
            """
            import threading

            class Handler:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def handle(self):
                    with self.lock:
                        self.count += 1
            """,
        )
        assert not findings_for("R8", good)

    def test_lockless_class_not_protected(self):
        good = (
            "repro/serve/state.py",
            """
            class Plain:
                def handle(self):
                    self.count = 1
            """,
        )
        assert not findings_for("R8", good)


class TestR9DeadlineDiscipline:
    def test_undeadlined_acquire_flagged(self):
        (f,) = findings_for(
            "R9",
            (
                "repro/session/cache.py",
                "def f(lock):\n    lock.acquire()\n",
            ),
        )
        assert (f.rule, f.line) == ("R9", 2)
        assert "lock.acquire() without a deadline" in f.message

    def test_deadlined_acquire_clean(self):
        assert not findings_for(
            "R9",
            (
                "repro/session/cache.py",
                "def f(lock):\n    lock.acquire(timeout=5)\n",
            ),
        )

    def test_lock_held_across_unbounded_work_flagged(self):
        (f,) = findings_for(
            "R9",
            (
                "repro/serve/eng.py",
                """
                import threading

                LOCK = threading.Lock()

                def serve():
                    with LOCK:
                        grind()

                def grind():
                    while True:
                        pass
                """,
            ),
        )
        assert (f.rule, f.line, f.scope) == ("R9", 7, "serve")
        assert "'with LOCK:' acquires a lock with no deadline" in f.message
        assert f.witness[0] == (
            "repro.serve.eng.serve (repro/serve/eng.py:7) "
            "holds 'with LOCK:'"
        )
        assert f.witness[-1] == "unbounded loop at repro/serve/eng.py:11"

    def test_loop_directly_inside_held_region(self):
        (f,) = findings_for(
            "R9",
            (
                "repro/serve/eng.py",
                """
                import threading

                LOCK = threading.Lock()

                def serve():
                    with LOCK:
                        while True:
                            pass
                """,
            ),
        )
        assert f.witness[-1] == (
            "unbounded loop directly inside the held region"
        )

    def test_deadlined_guard_contextmanager_exempts_hold(self):
        good = (
            "repro/serve/eng.py",
            """
            import threading
            from contextlib import contextmanager

            LOCK = threading.Lock()

            @contextmanager
            def hold_lock():
                if not LOCK.acquire(timeout=30):
                    raise RuntimeError("wedged")
                try:
                    yield
                finally:
                    LOCK.release()

            def serve():
                with hold_lock():
                    grind()

            def grind():
                while True:
                    pass
            """,
        )
        assert not findings_for("R9", good)


class TestR10AsyncBlocking:
    BAD = (
        "repro/serve/app.py",
        """
        async def handler():
            return load()

        def load():
            return open("x")
        """,
    )

    def test_blocking_call_reachable_from_async_flagged(self):
        (f,) = findings_for("R10", self.BAD)
        assert (f.rule, f.path, f.line) == ("R10", "repro/serve/app.py", 6)
        assert (
            "blocking call open() is reachable from async handler()"
            in f.message
        )
        assert f.witness[-1] == "blocking open() at repro/serve/app.py:6"

    def test_sync_only_entry_points_ignored(self):
        good = (
            "repro/serve/app.py",
            """
            def handler():
                return load()

            def load():
                return open("x")
            """,
        )
        assert not findings_for("R10", good)

    def test_str_join_with_argument_not_a_thread_join(self):
        # Regression: ``"sep".join(parts)`` carries a positional
        # argument, so the wait-attr heuristic must not fire.
        good = (
            "repro/serve/http.py",
            """
            async def render(parts):
                return ",".join(parts)
            """,
        )
        assert not findings_for("R10", good)


class TestR11DeterminismTaint:
    BAD = (
        "repro/solver/order.py",
        """
        def f(items):
            chosen = {x for x in items}
            return [x for x in chosen]
        """,
    )

    def test_set_into_list_comprehension_flagged(self):
        (f,) = findings_for("R11", self.BAD)
        assert (f.rule, f.line, f.scope) == ("R11", 4, "f")
        assert f.witness == (
            "set chosen constructed at repro/solver/order.py:3",
            "iterated at repro/solver/order.py:4",
            "ordered sink list comprehension at repro/solver/order.py:4",
        )

    def test_sorted_launders(self):
        good = (
            "repro/solver/order.py",
            """
            def f(items):
                chosen = {x for x in items}
                return sorted(chosen)
            """,
        )
        assert not findings_for("R11", good)

    def test_for_over_set_with_append_flagged(self):
        (f,) = findings_for(
            "R11",
            (
                "repro/components/fan.py",
                """
                def f(items):
                    out = []
                    for x in set(items):
                        out.append(x)
                    return out
                """,
            ),
        )
        assert f.line == 4
        assert ".append(...)" in f.message

    def test_rule_covers_the_session_routing(self):
        _path, source = self.BAD
        (f,) = findings_for("R11", ("repro/session/session.py", source))
        assert (f.rule, f.line) == ("R11", 4)
        assert not findings_for("R11", ("repro/session/cache.py", source))

    def test_reassigned_nonset_name_untainted(self):
        good = (
            "repro/solver/order.py",
            """
            def f(items):
                chosen = {x for x in items}
                chosen = sorted(chosen)
                return [x for x in chosen]
            """,
        )
        assert not findings_for("R11", good)


class TestBaselineGate:
    def test_suppression_requires_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": [
                        {"rule": "R1", "path": "x.py", "scope": "f"}
                    ],
                }
            )
        )
        with pytest.raises(ReproError, match="justification"):
            Baseline.load(path)

    def test_split_new_baselined_stale(self):
        from repro.lintkit import Suppression
        from repro.lintkit.findings import Finding

        baseline = Baseline(
            suppressions=(
                Suppression("R1", "a.py", "f", "accepted"),
                Suppression("R3", "gone.py", "g", "obsolete"),
            )
        )
        matched = Finding("R1", "a.py", 3, "msg", scope="f")
        fresh = Finding("R1", "b.py", 9, "msg", scope="h")
        new, baselined, stale = baseline.split([matched, fresh])
        assert new == [fresh]
        assert baselined == [matched]
        assert [s.rule for s in stale] == ["R3"]

    def test_suppression_survives_line_drift(self):
        from repro.lintkit.findings import Finding

        early = Finding("R1", "a.py", 3, "msg", scope="f")
        late = Finding("R1", "a.py", 300, "msg", scope="f")
        assert early.suppression_key() == late.suppression_key()


class TestCleanRepo:
    def test_repo_has_no_new_findings(self):
        report = lint_repo()
        rendered = "\n".join(report.render_human())
        assert report.is_clean, rendered
        assert not report.stale_suppressions, rendered
        assert report.files_checked > 50

    def test_every_baselined_finding_is_justified(self):
        baseline = Baseline.load(default_baseline_path())
        for suppression in baseline.suppressions:
            assert len(suppression.justification) > 20
            assert suppression.rule in all_rule_ids()


FIXTURE_MODULES = [
    TestR2BudgetReachability.BAD,
    TestR8LockDiscipline.BAD,
    TestR10AsyncBlocking.BAD,
    TestR11DeterminismTaint.BAD,
    ("repro/solver/core.py", "X = 0.5\n"),
    ("repro/store/index.py", 'def f(p):\n    open(p, "w")\n'),
]


class TestDiscoveryOrderStability:
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(list(range(len(FIXTURE_MODULES)))),
    )
    def test_findings_identical_under_any_order(self, order):
        baseline_run = run_rules(project_of(*FIXTURE_MODULES))
        shuffled = [FIXTURE_MODULES[i] for i in order]
        assert run_rules(project_of(*shuffled)) == baseline_run

    def test_sort_findings_is_canonical(self):
        findings = run_rules(project_of(*FIXTURE_MODULES))
        assert findings == sort_findings(list(reversed(findings)))
        assert len(findings) >= 5
