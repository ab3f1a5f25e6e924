"""Differential harness: the serve daemon versus ``batch --json``.

The daemon's contract is that serving adds *nothing observable* to the
reasoning: for any schema and any query mix, the records coming back
over HTTP are byte-identical to the records ``repro batch --json``
prints for the same inputs — same verdicts, same ``unknown_reason``
strings, same ordering, same exit-code semantics (carried as
``exit_code`` in the response body).  Both paths share one batch loop
(:func:`repro.cli.answer_all`), and these properties pin that sharing
down from the outside:

* random schemas and mixed query batches (from the same
  :func:`tests.strategies.query_mixes` generator the component parity
  suite uses) through a live in-process server and through the CLI;
* budget-capped requests whose queries exhaust mid-pipeline and
  degrade to UNKNOWN records with ``exit_code`` 3 — compared cold
  against cold, because exhaustion is a property of cold builds (a
  warm entry answers without spending budget, on either path);
* a warm second daemon adopting the first daemon's persisted store
  entries, still answering byte-for-byte what a cold CLI run answers;
* capped NOT_IMPLIED answers, served and from the CLI, which never
  build a countermodel (no record carries one);
* the engine's parsed-schema memo: one parse per text, per-text schema
  names, no memoized parse errors, its bound, and ``/diff`` bodies
  equal to a cold engine's.

The only tolerated difference is the wall-clock figure embedded in
exhaustion reasons (``after 0.004s``) — physical time, not reasoning
output — which :func:`scrub_elapsed` canonicalises on both sides.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cr.implication
import repro.serve.engine
import repro.session.session
from repro.cli import main as cli_main
from repro.dsl import serialize_schema
from repro.errors import ReproError
from repro.paper import meeting_schema
from repro.serve import ServeClient, ServeConfig, running_server
from repro.serve.engine import ServeEngine

from tests.strategies import query_lines, query_mixes, schemas

SERVED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_ELAPSED = re.compile(r"after \d+(?:\.\d+)?s")


def scrub_elapsed(records: list[dict]) -> list[dict]:
    """Canonicalise the wall-clock token inside exhaustion reasons."""
    scrubbed = []
    for record in records:
        reason = record.get("unknown_reason")
        if isinstance(reason, str):
            record = {**record, "unknown_reason": _ELAPSED.sub("after <t>s", reason)}
        scrubbed.append(record)
    return scrubbed


def as_bytes(records: list[dict]) -> str:
    """The byte-level comparison key: full JSON serialisation."""
    return json.dumps(records, sort_keys=True)


def run_cli_batch(
    schema_text: str, lines: list[str], extra_args: tuple[str, ...] = ()
) -> tuple[dict, int]:
    """``repro batch --json`` in-process: the exact CLI code path,
    without paying a subprocess per Hypothesis example."""
    with tempfile.TemporaryDirectory() as tmp:
        schema_path = Path(tmp) / "schema.cr"
        schema_path.write_text(schema_text)
        queries_path = Path(tmp) / "queries.txt"
        queries_path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(
                ["batch", str(schema_path), str(queries_path), "--json", *extra_args]
            )
        return json.loads(out.getvalue()), code


@pytest.fixture(scope="module")
def server():
    """One long-lived daemon shared by every example in this module —
    deliberately *warm*: without budgets, a warm answer must equal a
    cold one, so reusing the server is itself part of the property."""
    with running_server(ServeConfig()) as srv:
        yield srv


@SERVED
@given(data=st.data())
def test_random_query_mixes_match_batch_json(server, data):
    schema = data.draw(schemas(max_classes=3, max_relationships=1))
    queries = data.draw(query_mixes(schema))
    lines = query_lines(queries)
    text = serialize_schema(schema)

    report, cli_code = run_cli_batch(text, lines)
    client = ServeClient(server.base_url)
    status, payload = client.batch(text, lines)

    assert status == 200
    assert as_bytes(payload["results"]) == as_bytes(report["results"])
    assert payload["fingerprint"] == report["fingerprint"]
    assert payload["exit_code"] == cli_code


@SERVED
@given(data=st.data())
def test_check_and_implies_match_their_batch_records(server, data):
    """The single-query endpoints are one-line batches: same records."""
    schema = data.draw(schemas(max_classes=3, max_relationships=1))
    queries = data.draw(query_mixes(schema, max_size=1))
    (kind, query_payload), = queries
    line = query_lines(queries)[0]
    text = serialize_schema(schema)

    report, cli_code = run_cli_batch(text, [line])
    client = ServeClient(server.base_url)
    if kind == "sat":
        status, payload = client.check(text, query_payload)
    else:
        status, payload = client.implies(text, query_payload.pretty())

    assert status == 200
    assert as_bytes(payload["results"]) == as_bytes(report["results"])
    assert payload["exit_code"] == cli_code


@SERVED
@given(data=st.data())
def test_budget_exhaustion_parity_cold_vs_cold(data):
    """A deterministic LP cap exhausts mid-pipeline identically on both
    paths: same UNKNOWN records (modulo the embedded wall-clock token),
    same exit-3 semantics.  Fresh daemon per example — exhaustion is a
    cold-build phenomenon and a warm entry would (correctly) answer
    without spending budget at all."""
    schema = data.draw(schemas(max_classes=3, max_relationships=1))
    queries = data.draw(query_mixes(schema))
    lines = query_lines(queries)
    cap = data.draw(st.integers(min_value=1, max_value=3))
    text = serialize_schema(schema)

    report, cli_code = run_cli_batch(text, lines, ("--max-lp", str(cap)))
    with running_server(ServeConfig()) as fresh:
        status, payload = ServeClient(fresh.base_url).batch(
            text, lines, budget={"max_lp": cap}
        )

    assert status == 200
    assert as_bytes(scrub_elapsed(payload["results"])) == as_bytes(
        scrub_elapsed(report["results"])
    )
    assert payload["exit_code"] == cli_code
    if any(r["verdict"] == "unknown" for r in payload["results"]):
        assert payload["exit_code"] == 3


@SERVED
@given(data=st.data())
def test_warm_store_adoption_matches_cold_cli(data):
    """Daemon #2 adopts daemon #1's persisted artifacts and still
    answers exactly what a cold, store-less CLI run answers."""
    schema = data.draw(schemas(max_classes=3, max_relationships=1))
    queries = data.draw(query_mixes(schema, max_size=3))
    lines = query_lines(queries)
    text = serialize_schema(schema)
    report, cli_code = run_cli_batch(text, lines)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = str(Path(tmp) / "store")
        with running_server(ServeConfig(cache_dir=store_dir)) as first:
            status1, cold = ServeClient(first.base_url).batch(text, lines)
        with running_server(ServeConfig(cache_dir=store_dir)) as second:
            client = ServeClient(second.base_url)
            status2, warm = client.batch(text, lines)
            _, metrics = client.metrics()

    assert status1 == status2 == 200
    assert as_bytes(cold["results"]) == as_bytes(report["results"])
    assert as_bytes(warm["results"]) == as_bytes(report["results"])
    assert cold["exit_code"] == warm["exit_code"] == cli_code
    # The second daemon really did adopt from the store rather than
    # rebuild — unless the analyzer short-circuited the whole pipeline,
    # in which case nothing was persisted (nothing was built).
    stats = metrics["cache"]
    if cold["results"] and metrics["store"]["hits"] == 0:
        assert stats["analysis_short_circuits"] > 0 or stats["expansion_builds"] == 0


def test_bad_schema_is_http_400_and_cli_exit_2(server):
    text = "this is not a schema"
    client = ServeClient(server.base_url)
    status, payload = client.batch(text, ["sat A"])
    assert status == 400
    assert "error" in payload

    with tempfile.TemporaryDirectory() as tmp:
        schema_path = Path(tmp) / "bad.cr"
        schema_path.write_text(text)
        queries_path = Path(tmp) / "q.txt"
        queries_path.write_text("sat A\n")
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(
                    ["batch", str(schema_path), str(queries_path), "--json"]
                )
    assert code == 2


def test_bad_query_and_bad_budget_are_http_400(server):
    text = serialize_schema(meeting_schema())
    client = ServeClient(server.base_url)
    status, payload = client.batch(text, ["frobnicate Speaker"])
    assert status == 400 and "error" in payload
    status, payload = client.batch(text, ["sat Speaker"], budget={"max_warp": 9})
    assert status == 400 and "error" in payload
    status, payload = client.batch(text, ["sat Speaker"], budget={"max_lp": "many"})
    assert status == 400 and "error" in payload


# ---------------------------------------------------------------------------
# the counter keys both surfaces export, pinned in order
# ---------------------------------------------------------------------------

# Readers of these reports (perfbench's ``_delta`` among them) take a
# missing key as 0, so a dropped or renamed counter would go unnoticed
# without an exact list.
CACHE_COUNTER_KEYS = [
    "hits",
    "misses",
    "evictions",
    "analysis_runs",
    "analysis_short_circuits",
    "expansion_builds",
    "system_builds",
    "fixpoint_runs",
    "store_hits",
    "store_misses",
    "store_writes",
    "store_write_failures",
    "components_total",
    "components_reused",
    "components_rebuilt",
    "zero_sets_enumerated",
    "pruned_by_orbit",
    "pruned_by_nogood",
    "orbits_found",
]
STORE_COUNTER_KEYS = [
    "hits",
    "misses",
    "writes",
    "write_errors",
    "lock_timeouts",
    "quarantined",
]


def test_batch_json_stats_keys_are_pinned():
    report, code = run_cli_batch(
        serialize_schema(meeting_schema()), ["sat Speaker"]
    )
    assert code == 0
    assert list(report["stats"]) == ["queries", *CACHE_COUNTER_KEYS]


def test_metrics_cache_and_store_keys_are_pinned(tmp_path):
    config = ServeConfig(cache_dir=str(tmp_path / "store"))
    with running_server(config) as server:
        client = ServeClient(server.base_url)
        status, _ = client.batch(
            serialize_schema(meeting_schema()), ["sat Speaker"]
        )
        assert status == 200
        _, metrics = client.metrics()
    assert list(metrics["cache"]) == [
        *CACHE_COUNTER_KEYS,
        "memory_entries",
        "max_entries",
    ]
    assert list(metrics["store"]) == STORE_COUNTER_KEYS


# ---------------------------------------------------------------------------
# capped NOT_IMPLIED answers never build a countermodel
# ---------------------------------------------------------------------------


def _refuse_countermodels(monkeypatch) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("a countermodel was built")

    monkeypatch.setattr(repro.session.session, "construct_model", refuse)
    monkeypatch.setattr(repro.cr.implication, "construct_model", refuse)


CAPS = {"timeout": 60, "max_lp": 1000, "max_expansion": 100000}
NOT_IMPLIED_LINES = ["Talk isa Speaker", "minc(Speaker, Holds, U1) = 2"]


def test_capped_served_implies_answers_without_a_countermodel(monkeypatch):
    _refuse_countermodels(monkeypatch)
    text = serialize_schema(meeting_schema())
    engine = ServeEngine()
    for line in NOT_IMPLIED_LINES:
        response = engine.handle(
            "implies", {"schema": text, "statement": line, "budget": CAPS}
        )
        payload = response["payload"]
        assert [r["verdict"] for r in payload["results"]] == ["not-implied"]
        assert payload["exit_code"] == 1


def test_capped_cli_answers_without_a_countermodel(monkeypatch):
    _refuse_countermodels(monkeypatch)
    text = serialize_schema(meeting_schema())
    flags = ("--timeout", "60", "--max-lp", "1000", "--max-expansion", "100000")
    report, code = run_cli_batch(text, NOT_IMPLIED_LINES, flags)
    assert [r["verdict"] for r in report["results"]] == ["not-implied"] * 2
    assert code == 1
    with tempfile.TemporaryDirectory() as tmp:
        schema_path = Path(tmp) / "meeting.cr"
        schema_path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(
                ["implies", str(schema_path), NOT_IMPLIED_LINES[0], *flags]
            )
    assert code == 1
    assert out.getvalue() == "S |/= Talk isa Speaker\n"


# ---------------------------------------------------------------------------
# the engine's parsed-schema memo
# ---------------------------------------------------------------------------

ISLANDS = """schema Islands {{
  class A;
  class B;
  class C;
  class D;
  relationship R(x: A, y: B);
  relationship S(w: C, z: D);
  cardinality A in R.x: (1, 2);
  cardinality C in S.w: (1, {max_card});
}}"""


class TestParsedSchemaMemo:
    @staticmethod
    def _count_parses(monkeypatch) -> list[str]:
        parsed: list[str] = []
        parse = repro.serve.engine.parse_schema

        def spy(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(repro.serve.engine, "parse_schema", spy)
        return parsed

    def test_one_text_is_parsed_once(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        engine = ServeEngine()
        text = serialize_schema(meeting_schema())
        bodies = [
            engine.handle("check", {"schema": text, "class": "Speaker"})["payload"]
            for _ in range(10)
        ]
        assert parsed == [text]
        assert all(body == bodies[0] for body in bodies)

    def test_texts_sharing_a_fingerprint_keep_their_own_names(self):
        engine = ServeEngine()
        first = ISLANDS.format(max_card=3)
        second = first.replace("schema Islands", "schema Renamed")
        one = engine.handle("check", {"schema": first, "class": "A"})["payload"]
        two = engine.handle("check", {"schema": second, "class": "A"})["payload"]
        assert one["fingerprint"] == two["fingerprint"]
        assert (one["schema"], two["schema"]) == ("Islands", "Renamed")
        assert one["results"] == two["results"]

    def test_an_unparsable_text_is_a_400_every_time_and_never_memoized(self):
        text = "this is not a schema"
        with running_server(ServeConfig()) as srv:
            client = ServeClient(srv.base_url)
            answers = [client.check(text, "A") for _ in range(3)]
            assert all(status == 400 for status, _payload in answers)
            assert all(payload == answers[0][1] for _status, payload in answers)
            assert text not in srv.engine._parsed

    def test_the_memo_holds_at_most_memory_entries_texts(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        engine = ServeEngine(memory_entries=2)
        texts = [ISLANDS.format(max_card=card) for card in range(2, 7)]
        for text in texts:
            engine.handle("check", {"schema": text, "class": "C"})
            assert len(engine._parsed) <= 2
        assert list(engine._parsed) == texts[-2:]
        engine.handle("check", {"schema": texts[-1], "class": "C"})
        assert len(parsed) == len(texts)  # the newest text stayed memoized

    def test_a_diff_over_memoized_texts_equals_a_cold_diff(self, monkeypatch):
        old = ISLANDS.format(max_card=3)
        new = ISLANDS.format(max_card=4)
        payload = {"old_schema": old, "new_schema": new, "queries": ["sat C"]}
        cold = ServeEngine().handle("diff", payload)["payload"]

        memoized = ServeEngine()
        for text in (old, new):
            # A request that fails on its query memoizes its schema
            # text without touching the reasoning cache.
            with pytest.raises(ReproError):
                memoized.handle("batch", {"schema": text, "queries": ["bogus"]})
        assert list(memoized._parsed) == [old, new]
        parsed = self._count_parses(monkeypatch)
        warm = memoized.handle("diff", payload)["payload"]
        assert parsed == []
        assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
