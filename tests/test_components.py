"""The component-decomposition layer, outside-in.

Three layers of pinning:

* **properties** — on random multi-island schemas (namespaced unions
  from :func:`tests.strategies.multi_component_schemas`), the
  decomposition finds exactly the constraint-graph components an
  independent union-find oracle finds, and a
  :class:`~repro.session.ReasoningSession` answers every batch record
  byte-identically to one over
  :func:`~repro.components.monolithic_decomposition` (the whole schema
  as one island) — same verdicts, same ``unknown_reason`` strings, same
  error behaviour, same query counts;
* **counters** — component classification (``components_reused`` vs
  ``components_rebuilt``) against memory and store tiers, through the
  :meth:`~repro.session.cache.CacheStats.bump` funnel;
* **surfaces** — ``repro diff`` end to end (a one-statement edit
  rebuilds only the touched island), the serve engine's ``diff``
  endpoint, and the decompose/combine pipeline stages.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import answer_query
from repro.cli import main as cli_main
from repro.components import (
    compute_delta,
    decompose_schema,
    monolithic_decomposition,
)
from repro.cr.constraints import (
    IsaStatement,
    MinCardinalityStatement,
)
from repro.cr.schema import Card, CRSchema, Relationship
from repro.dsl import serialize_schema
from repro.errors import SchemaError, UnknownSymbolError
from repro.pipeline import PipelineRun, activate_run
from repro.session import ReasoningSession, SessionCache
from repro.session.cache import CacheStats
from repro.store import ArtifactStore

from tests.strategies import (
    multi_component_schemas,
    property_max_examples,
    query_mixes,
)

PARITY = settings(
    max_examples=max(5, property_max_examples() // 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _two_island_schema(max_card: int = 3, name: str = "Fixture") -> CRSchema:
    """Two independent islands: {A, B} via R and {C, D} via S.

    ``max_card`` parameterises one cardinality in the *second* island,
    so two calls with different values model a one-statement edit that
    leaves the first island untouched.
    """
    return CRSchema(
        classes=("A", "B", "C", "D"),
        relationships=(
            Relationship("R", (("x", "A"), ("y", "B"))),
            Relationship("S", (("w", "C"), ("z", "D"))),
        ),
        cards={
            ("A", "R", "x"): Card(1, 2),
            ("C", "S", "w"): Card(1, max_card),
        },
        name=name,
    )


def _monolithic(schema: CRSchema) -> ReasoningSession:
    """The whole-schema reference: a session over one island."""
    return ReasoningSession(
        schema, decomposition=monolithic_decomposition(schema)
    )


# ---------------------------------------------------------------------------
# Properties: decomposition structure and session parity
# ---------------------------------------------------------------------------


@PARITY
@given(data=st.data())
def test_components_match_the_union_find_oracle(data):
    """Components partition the classes into exactly the groups an
    independent union-find over the constraint edges produces."""
    schema, expected_count = data.draw(multi_component_schemas())
    decomposition = decompose_schema(schema)
    assert len(decomposition.components) == expected_count
    seen: set[str] = set()
    for component in decomposition.components:
        assert component.classes, "a component cannot be empty"
        assert not (component.classes & seen), "components must be disjoint"
        seen |= component.classes
    assert seen == set(schema.classes)


@PARITY
@given(data=st.data())
def test_decomposed_session_matches_monolithic_records(data):
    """Every batch record — verdicts, reasons, texts, the query counter
    — is identical whether the schema is reasoned whole or by island."""
    schema, _count = data.draw(multi_component_schemas())
    queries = data.draw(query_mixes(schema))
    monolithic = _monolithic(schema)
    decomposed = ReasoningSession(schema)
    for kind, query in queries:
        expected = answer_query(monolithic, kind, query)
        actual = answer_query(decomposed, kind, query)
        assert actual == expected
    assert decomposed.queries == monolithic.queries
    assert decomposed.satisfiable_classes() == monolithic.satisfiable_classes()
    assert decomposed.queries == monolithic.queries


@PARITY
@given(data=st.data())
def test_decomposed_session_matches_monolithic_errors(data):
    """Validation failures — unknown names, illegal cardinality triples
    — raise the same exception type with the same message."""
    schema, _count = data.draw(multi_component_schemas())
    monolithic = _monolithic(schema)
    decomposed = ReasoningSession(schema)
    probes = [
        lambda s: s.is_class_satisfiable("NoSuchClass"),
        lambda s: s.implies(IsaStatement("NoSuchClass", schema.classes[0])),
        lambda s: s.implies(
            MinCardinalityStatement(
                schema.classes[0], "NoSuchRelationship", "u", 1
            )
        ),
    ]
    for probe in probes:
        with pytest.raises((SchemaError, UnknownSymbolError)) as expected:
            probe(monolithic)
        with pytest.raises((SchemaError, UnknownSymbolError)) as actual:
            probe(decomposed)
        assert type(actual.value) is type(expected.value)
        assert str(actual.value) == str(expected.value)
    assert decomposed.queries == monolithic.queries


# ---------------------------------------------------------------------------
# Fingerprints and deltas
# ---------------------------------------------------------------------------


class TestDeltas:
    def test_unchanged_island_keeps_its_fingerprint(self):
        old = decompose_schema(_two_island_schema(max_card=3))
        new = decompose_schema(_two_island_schema(max_card=4))
        assert old.whole_fingerprint != new.whole_fingerprint
        old_ab = old.component_of("A")
        new_ab = new.component_of("A")
        assert old_ab.fingerprint == new_ab.fingerprint
        assert (
            old.component_of("C").fingerprint
            != new.component_of("C").fingerprint
        )

    def test_identical_schemas_diff_to_all_unchanged(self):
        old = decompose_schema(_two_island_schema())
        new = decompose_schema(_two_island_schema())
        delta = compute_delta(old, new)
        assert len(delta.unchanged) == 2
        assert not delta.changed
        assert not delta.removed

    def test_one_island_edit_changes_exactly_one_component(self):
        old = decompose_schema(_two_island_schema(max_card=3))
        new = decompose_schema(_two_island_schema(max_card=4))
        delta = compute_delta(old, new)
        assert [c.classes for c in delta.unchanged] == [frozenset("AB")]
        assert [c.classes for c in delta.changed] == [frozenset("CD")]
        assert [c.classes for c in delta.removed] == [frozenset("CD")]
        as_dict = delta.as_dict()
        assert as_dict["old_total"] == 2
        assert as_dict["new_total"] == 2
        assert as_dict["changed"][0]["classes"] == ["C", "D"]


# ---------------------------------------------------------------------------
# Reuse counters, through the bump() funnel
# ---------------------------------------------------------------------------


class RecordingStats(CacheStats):
    """Counts every increment that flows through :meth:`bump`."""

    def __init__(self) -> None:
        super().__init__()
        self.bumped: dict[str, int] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        self.bumped[counter] = self.bumped.get(counter, 0) + amount
        super().bump(counter, amount)


class TestReuseCounters:
    def test_cold_run_rebuilds_every_component(self, tmp_path):
        cache = SessionCache(store=ArtifactStore(str(tmp_path)))
        session = ReasoningSession(_two_island_schema(), cache=cache)
        session.satisfiable_classes()
        assert session.components_total == 2
        assert session.components_reused == 0
        assert session.components_rebuilt == 2
        stats = session.stats.as_dict()
        assert stats["components_total"] == 2
        assert stats["components_rebuilt"] == 2

    def test_store_warm_run_reuses_every_component(self, tmp_path):
        store_dir = str(tmp_path)
        first = ReasoningSession(
            _two_island_schema(),
            cache=SessionCache(store=ArtifactStore(store_dir)),
        )
        first.satisfiable_classes()
        # A fresh process: new memory tier, same persistent store.
        second = ReasoningSession(
            _two_island_schema(),
            cache=SessionCache(store=ArtifactStore(store_dir)),
        )
        second.classify_all()
        assert second.components_total == 2
        assert second.components_reused == 2
        assert second.components_rebuilt == 0

    def test_edit_rebuilds_only_the_touched_island(self, tmp_path):
        store_dir = str(tmp_path)
        old = ReasoningSession(
            _two_island_schema(max_card=3),
            cache=SessionCache(store=ArtifactStore(store_dir)),
        )
        old.satisfiable_classes()
        new = ReasoningSession(
            _two_island_schema(max_card=4),
            cache=SessionCache(store=ArtifactStore(store_dir)),
        )
        new.classify_all()
        assert new.components_reused == 1
        assert new.components_rebuilt == 1

    def test_cardinality_queries_classify_nothing(self):
        """Cardinality implications reason over the Section-4 extended
        schema — their artifacts live under its fingerprint, so no base
        component gets (mis)counted."""
        session = ReasoningSession(_two_island_schema())
        session.implies(MinCardinalityStatement("A", "R", "x", 2))
        assert session.components_total == 0

    def test_counters_flow_through_the_bump_funnel(self):
        stats = RecordingStats()
        session = ReasoningSession(
            _two_island_schema(), cache=SessionCache(stats=stats)
        )
        session.classify_all()
        assert stats.bumped.get("components_total") == 2
        assert stats.bumped.get("components_rebuilt") == 2
        assert "components_reused" not in stats.bumped
        for counter, value in stats.bumped.items():
            assert getattr(stats, counter) == value


# ---------------------------------------------------------------------------
# CLI: repro diff end to end
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return out.getvalue(), code


class TestCliDiff:
    QUERIES = ["sat A", "sat C", "A isa B", "disjoint(C, D)"]

    def _write_inputs(self, tmp: Path) -> tuple[Path, Path, Path]:
        old_path = tmp / "old.cr"
        old_path.write_text(serialize_schema(_two_island_schema(max_card=3)))
        new_path = tmp / "new.cr"
        new_path.write_text(serialize_schema(_two_island_schema(max_card=4)))
        queries_path = tmp / "queries.txt"
        queries_path.write_text("\n".join(self.QUERIES) + "\n")
        return old_path, new_path, queries_path

    def test_one_statement_edit_rebuilds_one_component(self):
        with tempfile.TemporaryDirectory() as tmp:
            old_path, new_path, queries_path = self._write_inputs(Path(tmp))
            store = str(Path(tmp) / "store")
            _text, warm_code = _run_cli(
                ["batch", str(old_path), str(queries_path), "--cache-dir", store]
            )
            diff_text, diff_code = _run_cli(
                [
                    "diff",
                    str(old_path),
                    str(new_path),
                    str(queries_path),
                    "--json",
                    "--cache-dir",
                    store,
                ]
            )
            report = json.loads(diff_text)
            assert report["components"]["old_total"] == 2
            assert len(report["components"]["unchanged"]) == 1
            assert len(report["components"]["changed"]) == 1
            assert report["stats"]["components_reused"] == 1
            assert report["stats"]["components_rebuilt"] == 1
            assert "decompose" in report["stages"]

            cold_text, cold_code = _run_cli(
                [
                    "batch",
                    str(new_path),
                    str(queries_path),
                    "--json",
                    "--no-cache",
                ]
            )
            cold = json.loads(cold_text)
            assert report["results"] == cold["results"]
            assert diff_code == cold_code == warm_code

    def test_report_only_diff_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            old_path, new_path, _queries = self._write_inputs(Path(tmp))
            text, code = _run_cli(
                ["diff", str(old_path), str(new_path), "--no-cache"]
            )
            assert code == 0
            assert "1 unchanged, 1 changed, 1 removed" in text


# ---------------------------------------------------------------------------
# Serve: the diff endpoint
# ---------------------------------------------------------------------------


class TestServeDiff:
    def test_diff_endpoint_reports_reuse_and_answers(self, tmp_path):
        from repro.serve.engine import ServeEngine

        old_text = serialize_schema(_two_island_schema(max_card=3))
        new_text = serialize_schema(_two_island_schema(max_card=4))
        engine = ServeEngine(cache_dir=str(tmp_path))
        warm = engine.handle(
            "batch", {"schema": old_text, "queries": ["sat A", "sat C"]}
        )
        assert warm["payload"]["exit_code"] == 0
        response = engine.handle(
            "diff",
            {
                "old_schema": old_text,
                "new_schema": new_text,
                "queries": ["sat A", "sat C"],
            },
        )
        payload = response["payload"]
        assert payload["old_fingerprint"] != payload["new_fingerprint"]
        assert payload["components"]["new_total"] == 2
        assert len(payload["components"]["unchanged"]) == 1
        assert payload["stats"]["components_reused"] == 1
        assert payload["stats"]["components_rebuilt"] == 1
        assert payload["exit_code"] == 0
        assert [r["verdict"] for r in payload["results"]] == ["sat", "sat"]
        metrics = engine.cache_metrics()
        assert metrics["components_total"] >= 4
        assert metrics["components_reused"] >= 1

    def test_report_only_diff_needs_no_queries(self, tmp_path):
        from repro.serve.engine import ServeEngine

        engine = ServeEngine(cache_dir=str(tmp_path))
        response = engine.handle(
            "diff",
            {
                "old_schema": serialize_schema(_two_island_schema(max_card=3)),
                "new_schema": serialize_schema(_two_island_schema(max_card=4)),
            },
        )
        assert response["payload"]["results"] == []
        assert response["payload"]["exit_code"] == 0


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class TestStages:
    def test_construction_times_the_decompose_stage(self):
        run = PipelineRun()
        with activate_run(run):
            ReasoningSession(_two_island_schema())
        assert run.as_dict()["decompose"]["runs"] == 1

    def test_cross_component_query_enters_the_combine_stage(self):
        run = PipelineRun()
        with activate_run(run):
            session = ReasoningSession(_two_island_schema())
            session.implies(IsaStatement("A", "C"))
        assert run.as_dict()["combine"]["runs"] == 1

    def test_same_component_queries_never_combine(self):
        run = PipelineRun()
        with activate_run(run):
            session = ReasoningSession(_two_island_schema())
            session.implies(IsaStatement("A", "B"))
            session.is_class_satisfiable("C")
        assert "combine" not in run.as_dict()
