"""Concurrency soak for the serve daemon: shared state under fire.

The daemon multiplexes every request over ONE process-wide cache and
ONE persistent store, so the hazards worth testing are exactly the
shared-state ones:

* **torn adoption** — N clients hammering overlapping schema
  fingerprints must each get the full, correct record set; a half-built
  entry must never be observable (the per-fingerprint lock plus the
  staged cache build make this hold);
* **counter monotonicity** — ``/metrics`` sampled *during* the storm
  must never show any counter going backwards (the lost-update race
  that plain ``+=`` would introduce is the thing the self-locking
  :class:`~repro.runtime.stats.Counters` and
  :class:`~repro.session.SessionCache` exist to kill);
* **store faults mid-request** — a scripted crash inside the store's
  atomic-write protocol (the global :mod:`repro.runtime.faults` hook
  reaches the in-process server's threads) must degrade to
  rebuild-and-answer: the response is a normal 200 with the same bytes
  a fault-free run produces, never a 500 carrying partial output;
* **solver faults mid-request** — a scripted kernel fault inside a
  served zero-set walk is answered by the fixpoint, with the unfaulted
  verdict;
* **a shared walk ledger** — two schemas that share an island but not a
  fingerprint lock walk that island concurrently; its nogood ledger is
  published copy-on-write, so a lost update may cost an LP, but every
  answer must stay the serial one and every fact in the ledger must
  still verify;
* **a bounded extension memo** — request threads sharing one
  decomposition ask, hit and evict its island extensions concurrently;
  every ask must return its own query's extension;
* **saturation** — past ``max_inflight`` the daemon answers 503 +
  ``Retry-After`` immediately instead of queueing unboundedly, and the
  in-flight gauge returns to zero afterwards.

Everything here runs the server in-process (:func:`running_server`),
which is what lets tests hold engine locks and install fault hooks the
served requests actually hit.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import answer_all, parse_batch_query
from repro.components import decompose, decompose_schema
from repro.components.decompose import EXTENSION_ENTRIES
from repro.cr.constraints import MaxCardinalityStatement
from repro.cr.construction import witness_violation
from repro.cr.satisfiability import decision_problem
from repro.dsl import parse_schema, serialize_schema
from repro.paper import refined_meeting_schema
from repro.runtime.faults import inject_faults
from repro.serve import ServeClient, ServeConfig, running_server
from repro.serve.engine import ServeEngine
from repro.session import ReasoningSession
from repro.solver.pruned import nogood_source_system
from repro.solver.registry import pin_backend
from tests.test_session import PLANTED_STYLE

CLIENTS = 8
ROUNDS = 3

SCHEMA_TEXTS = {
    "Duo": """schema Duo {
  class A;
  class B isa A;
  relationship R(U1: A, U2: B);
  cardinality A in R.U1: (1, 2);
  cardinality B in R.U2: (1, 1);
}""",
    "Trio": """schema Trio {
  class A;
  class B isa A;
  class C isa B;
  relationship R(U1: A, U2: C);
  cardinality C in R.U2: (1, 1);
  cardinality A in R.U1: (0, 1);
}""",
    "Tight": """schema Tight {
  class A;
  class B isa A;
  relationship R(U1: A, U2: B);
  cardinality A in R.U1: (2, 2);
  cardinality B in R.U2: (1, 1);
}""",
}

QUERY_LINES = ["sat A", "sat B", "B isa A", "A isa B", "disjoint(A, B)",
               "maxc(A, R, U1) = 3", "minc(B, R, U1) = 1"]


def serial_records(text: str) -> list[dict]:
    """The oracle: one cold session through the shared batch loop."""
    session = ReasoningSession(parse_schema(text))
    return answer_all(session, list(map(parse_batch_query, QUERY_LINES)))[0]


@pytest.fixture(scope="module")
def expected():
    return {name: serial_records(text) for name, text in SCHEMA_TEXTS.items()}


def test_overlapping_fingerprints_concurrent_parity(expected):
    """8 clients × 3 rounds × 3 schemas, all interleaved: every response
    must carry the complete serial record set — cold builds, warm hits,
    and store adoptions all racing on the same fingerprints."""
    with running_server(ServeConfig(max_inflight=CLIENTS)) as server:
        def storm(client_index: int) -> list[tuple[str, int, list]]:
            client = ServeClient(server.base_url)
            out = []
            for round_index in range(ROUNDS):
                # Rotate the starting schema per client so cold builds,
                # warm hits, and lock waits genuinely overlap.
                names = list(SCHEMA_TEXTS)
                names = names[client_index % len(names):] + names[: client_index % len(names)]
                for name in names:
                    status, payload = client.batch(
                        SCHEMA_TEXTS[name], QUERY_LINES
                    )
                    out.append((name, status, payload["results"]))
            return out

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            all_answers = [
                answer
                for answers in pool.map(storm, range(CLIENTS))
                for answer in answers
            ]
        _, metrics = ServeClient(server.base_url).metrics()

    assert len(all_answers) == CLIENTS * ROUNDS * len(SCHEMA_TEXTS)
    for name, status, results in all_answers:
        assert status == 200
        assert results == expected[name], f"torn/partial answer for {name}"
    assert metrics["server"]["in_flight"] == 0
    assert metrics["server"]["requests_by_endpoint"]["/batch"] == len(all_answers)
    # Per-fingerprint serialization means each entry built at most once:
    # one fixpoint per base schema plus one per cardinality query's
    # Section-4 extended schema — never once per request.
    card_queries = sum(
        1 for line in QUERY_LINES if line.startswith(("minc", "maxc"))
    )
    assert 0 < metrics["cache"]["fixpoint_runs"] <= len(SCHEMA_TEXTS) * (
        1 + card_queries
    )


MONOTONE_KEYS = (
    ("server", "requests_total"),
    ("cache", "hits"),
    ("cache", "misses"),
    ("cache", "analysis_runs"),
    ("cache", "expansion_builds"),
    ("cache", "fixpoint_runs"),
    ("store", "hits"),
    ("store", "misses"),
    ("store", "writes"),
)


def test_metrics_counters_stay_monotone_under_load(tmp_path, expected):
    """Sample ``/metrics`` continuously while clients hammer the daemon;
    no sampled counter may ever be smaller than the previous sample."""
    config = ServeConfig(
        cache_dir=str(tmp_path / "store"), max_inflight=CLIENTS
    )
    with running_server(config) as server:
        stop_sampling = threading.Event()
        samples: list[dict] = []

        def sample() -> None:
            client = ServeClient(server.base_url)
            while not stop_sampling.is_set():
                _, payload = client.metrics()
                samples.append(payload)

        def hammer(client_index: int) -> None:
            client = ServeClient(server.base_url)
            for _ in range(ROUNDS):
                for name, text in SCHEMA_TEXTS.items():
                    status, payload = client.batch(text, QUERY_LINES)
                    assert status == 200
                    assert payload["results"] == expected[name]

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            list(pool.map(hammer, range(CLIENTS)))
        stop_sampling.set()
        sampler.join(30.0)
        _, final = ServeClient(server.base_url).metrics()
    samples.append(final)

    assert len(samples) >= 2
    for section, key in MONOTONE_KEYS:
        values = [sample[section][key] for sample in samples]
        assert values == sorted(values), f"{section}.{key} went backwards: {values}"
    stage_runs = [
        sum(timing["runs"] for timing in sample["stages"].values())
        for sample in samples
    ]
    assert stage_runs == sorted(stage_runs)
    assert final["server"]["in_flight"] == 0
    # The persistent tier genuinely participated.
    assert final["store"]["writes"] > 0


@pytest.mark.parametrize(
    "crash_point",
    ["store:write:start", "store:write:torn", "store:write:pre-rename"],
)
def test_store_crash_mid_request_degrades_to_rebuild_and_answer(
    tmp_path, expected, crash_point
):
    """A simulated crash inside the first persistence attempt unwinds
    through the request, the engine retries against the (warm, fully
    consistent) in-memory entry, and every client — including the ones
    that raced the crashing request — gets the fault-free bytes."""
    config = ServeConfig(
        cache_dir=str(tmp_path / "store"), max_inflight=CLIENTS
    )
    with running_server(config) as server:
        with inject_faults(disk_failures={crash_point: {1}}) as plan:
            def one(client_index: int):
                client = ServeClient(server.base_url)
                return client.batch(SCHEMA_TEXTS["Duo"], QUERY_LINES)

            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                answers = list(pool.map(one, range(CLIENTS)))
        _, metrics = ServeClient(server.base_url).metrics()

    assert plan.injected == [(crash_point, 1)]
    for status, payload in answers:
        assert status == 200, payload
        assert payload["results"] == expected["Duo"]
        assert payload["exit_code"] in (0, 1)
    assert metrics["server"]["retries"] >= 1
    assert metrics["server"]["responses_by_status"].get("500") is None


def test_solver_fault_in_a_served_walk_is_answered_by_the_fixpoint():
    """One kernel fault inside the pinned pruned walk of a served
    ``/check`` (Section 3.3's schema, ``Speaker``): the walk faults as a
    whole and the fixpoint answers the request, with the unfaulted
    verdict and no other LP faulted."""
    text = serialize_schema(refined_meeting_schema())
    with running_server(ServeConfig(backend="pruned")) as server:
        with inject_faults(simplex_failures={1}) as plan:
            status, payload = ServeClient(server.base_url).check(
                text, "Speaker"
            )
    assert status == 200, payload
    assert [record["verdict"] for record in payload["results"]] == ["unsat"]
    assert plan.injected == [("simplex", 1)]


def test_schemas_sharing_an_island_share_its_walk_ledger_safely():
    """Two whole schemas share one island but hold different fingerprint
    locks, so their pinned-pruned ``/check`` requests walk that island
    at the same time, each from its own copy of the island's ledger.
    Every answer must equal the serial one, and every nogood and
    witness the published ledger holds must still verify."""
    texts = {
        "island": PLANTED_STYLE,
        "island+lone": PLANTED_STYLE.replace(
            "class TS isa T;", "class TS isa T;\n  class Lone;"
        ),
    }
    schemas = {name: parse_schema(text) for name, text in texts.items()}
    island = decompose_schema(schemas["island"]).component_of("T")
    assert decompose_schema(schemas["island+lone"]).component_of(
        "T"
    ).fingerprint == island.fingerprint
    classes = island.schema.classes
    with pin_backend("pruned"):
        serial = {
            (name, cls): ReasoningSession(schema)
            .is_class_satisfiable(cls)
            .verdict.value
            for name, schema in schemas.items()
            for cls in classes
        }
    asks = sorted(serial)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with running_server(
            ServeConfig(backend="pruned", max_inflight=CLIENTS)
        ) as server:
            def storm(client_index: int) -> list[tuple[tuple[str, str], int, list]]:
                client = ServeClient(server.base_url)
                start = client_index % len(asks)
                out = []
                for name, cls in asks[start:] + asks[:start]:
                    status, payload = client.check(texts[name], cls)
                    out.append(((name, cls), status, payload["results"]))
                return out

            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                answers = [
                    answer
                    for future in [pool.submit(storm, i) for i in range(CLIENTS)]
                    for answer in future.result(timeout=300)
                ]
            entry = server.engine.cache.artifacts(island.schema, island.fingerprint)
    finally:
        sys.setswitchinterval(interval)

    assert len(answers) == CLIENTS * len(asks)
    for key, status, results in answers:
        assert status == 200
        assert [record["verdict"] for record in results] == [serial[key]], key
    cr_system = entry.cr_system
    problem = decision_problem(cr_system, frozenset())
    assert entry.ledger.nogoods and entry.ledger.witnesses
    for nogood in entry.ledger.nogoods:
        assert nogood.certificate.verify(nogood_source_system(problem, nogood))
    for zero_set, witness in entry.ledger.witnesses.items():
        assert witness_violation(cr_system, witness) is None
        assert {c for c in problem.class_unknowns if witness[c] == 0} == zero_set


def test_corrupted_store_entry_quarantined_on_restart(tmp_path, expected):
    """Silent bit-rot on the first daemon's write is caught by the
    second daemon's checksum verification: the damaged entry is
    quarantined and rebuilt from source — answers unchanged."""
    store_dir = str(tmp_path / "store")
    with inject_faults(disk_corruptions={"store:put:encoded": {1}}) as plan:
        with running_server(ServeConfig(cache_dir=store_dir)) as first:
            status, payload = ServeClient(first.base_url).batch(
                SCHEMA_TEXTS["Duo"], QUERY_LINES
            )
            assert status == 200
            assert payload["results"] == expected["Duo"]
    assert plan.corrupted == [("store:put:encoded", 1)]

    with running_server(ServeConfig(cache_dir=store_dir)) as second:
        client = ServeClient(second.base_url)
        status, payload = client.batch(SCHEMA_TEXTS["Duo"], QUERY_LINES)
        _, metrics = client.metrics()
    assert status == 200
    assert payload["results"] == expected["Duo"]
    assert metrics["store"]["quarantined"] >= 1


def test_saturation_answers_503_with_retry_after(expected):
    """Hold the engine's fingerprint lock from the test thread so the
    single permitted request parks deterministically; the next request
    must bounce with 503 + Retry-After instead of queueing."""
    from repro.session.fingerprint import schema_fingerprint

    text = SCHEMA_TEXTS["Duo"]
    fingerprint = schema_fingerprint(parse_schema(text))
    with running_server(ServeConfig(max_inflight=1)) as server:
        results: dict[str, tuple] = {}
        with server.engine.hold_fingerprint_lock(fingerprint):
            blocked = threading.Thread(
                target=lambda: results.__setitem__(
                    "first", ServeClient(server.base_url).batch(text, QUERY_LINES)
                )
            )
            blocked.start()
            client = ServeClient(server.base_url)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _, metrics = client.metrics()
                if metrics["server"]["in_flight"] == 1:
                    break
            else:
                pytest.fail("first request never reached the engine")
            status, payload, headers = client.request(
                "POST", "/batch", {"schema": text, "queries": QUERY_LINES}
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert "error" in payload
        blocked.join(30.0)
        status, payload = results["first"]
        assert status == 200
        assert payload["results"] == expected["Duo"]
        _, metrics = client.metrics()
    assert metrics["server"]["rejected_busy"] >= 1
    assert metrics["server"]["in_flight"] == 0


def test_lock_table_is_empty_after_serving_distinct_schemas():
    """Each distinct whole schema gets a build lock only while a request
    holds or waits on it: after ten distinct schemas and the diffs
    between them, the engine's lock table is empty again."""
    engine = ServeEngine()
    texts = [
        SCHEMA_TEXTS["Duo"].replace("(1, 2)", f"(1, {bound})")
        for bound in range(2, 12)
    ]
    for old, new in zip(texts, texts[1:]):
        engine.handle("check", {"schema": old, "class": "B"})
        engine.handle("diff", {"old_schema": old, "new_schema": new})
    assert engine._fingerprint_locks == {}


def test_extension_memo_stays_bounded_across_distinct_maxc_values():
    """A client asking ``maxc(A, R, U1) = n`` for more distinct ``n``
    than the memo holds leaves one decomposition with at most
    :data:`EXTENSION_ENTRIES` island extensions, the newest kept."""
    engine = ServeEngine()
    text = SCHEMA_TEXTS["Duo"]
    values = range(1, EXTENSION_ENTRIES + 9)
    for value in values:
        response = engine.handle(
            "implies", {"schema": text, "statement": f"maxc(A, R, U1) = {value}"}
        )
        assert response["payload"]["results"][0]["verdict"] == "implied"
    (decomposition,) = engine._parsed.values()
    memo = decomposition._extensions
    assert len(memo) == EXTENSION_ENTRIES
    assert [query.value for query in memo] == list(values)[-EXTENSION_ENTRIES:]


def test_extension_memo_survives_threads_evicting_each_other(monkeypatch):
    """More threads than cores ask one decomposition for three ``maxc``
    values through a memo shrunk to two entries, under a shortened
    switch interval, so hits and evictions of one key interleave.
    Without the memo's lock a hit can reorder an entry another thread
    has just evicted (a ``KeyError``); every ask must instead return
    its own query's extension."""
    monkeypatch.setattr(decompose, "EXTENSION_ENTRIES", 2)
    decomposition = decompose_schema(parse_schema(SCHEMA_TEXTS["Duo"]))
    queries = [
        MaxCardinalityStatement("A", "R", "U1", value) for value in (1, 2, 3)
    ]
    threads_count, rounds = 8, 2000
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        rng = random.Random(offset)
        try:
            for _ in range(rounds):
                query = rng.choice(queries)
                reduction, _fingerprint = decomposition.extension(query)
                card = reduction.schema.declared_cards[
                    (reduction.strip, "R", "U1")
                ]
                assert card.minc == query.value + 1
        except BaseException as error:  # reported after the join
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(decomposition._extensions) <= 2


def test_fingerprint_locks_stay_exclusive_while_entries_come_and_go():
    """More threads than cores take and drop a few fingerprints' locks
    under a shortened switch interval.  An entry dropped while another
    request still waits on it would let two threads into one critical
    section, and the unguarded read-modify-write below would lose an
    update."""
    engine = ServeEngine()
    fingerprints = ("a" * 64, "b" * 64, "c" * 64)
    counts = dict.fromkeys(fingerprints, 0)
    threads_count, rounds = 8, 200

    def worker(offset: int) -> None:
        for index in range(rounds):
            fingerprint = fingerprints[(offset + index) % len(fingerprints)]
            with engine.hold_fingerprint_lock(fingerprint):
                value = counts[fingerprint]
                time.sleep(0)  # yield the interpreter mid-update
                counts[fingerprint] = value + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(counts.values()) == threads_count * rounds
    assert engine._fingerprint_locks == {}
