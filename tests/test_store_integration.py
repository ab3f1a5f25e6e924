"""The persistent tier end to end: two-tier :class:`SessionCache`,
``repro batch --cache-dir`` warm-equals-cold byte identity, and the
``repro cache`` maintenance subcommand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import answer_query, main, parse_batch_query, parse_statement
from repro.cr.checker import check_model
from repro.cr.construction import construct_model_for_result
from repro.dsl import parse_schema, serialize_schema
from repro.paper import figure1_schema, meeting_schema
from repro.render.figures import render_interpretation
from repro.session import ReasoningSession, SessionCache, schema_fingerprint
from repro.solver.registry import pin_backend
from repro.store import DEFAULT_KIND, ArtifactStore

QUERIES = [
    "sat Speaker",
    "sat Talk",
    "Speaker isa Discussant",
    "maxc(Speaker, Holds, U1) = 2",
]


@pytest.fixture
def meeting_file(tmp_path):
    path = tmp_path / "meeting.cr"
    path.write_text(serialize_schema(meeting_schema()))
    return str(path)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def batch(meeting_file, capsys, *extra):
    args = ["batch", meeting_file]
    for query in QUERIES:
        args += ["--query", query]
    code = main(args + list(extra))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# The two-tier SessionCache
# ---------------------------------------------------------------------------


class TestTwoTierCache:
    def test_warm_entry_writes_through(self, meeting, cache_dir):
        cache = SessionCache(store=ArtifactStore(cache_dir))
        session = ReasoningSession(meeting, cache=cache)
        assert session.is_class_satisfiable("Speaker").satisfiable
        stats = session.stats
        assert stats.store_misses == 1  # the cold lookup
        assert stats.store_writes == 1  # the fixpoint's completion
        assert stats.fixpoint_runs == 1

    def test_second_process_starts_warm(self, meeting, cache_dir):
        first = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        baseline = first.is_class_satisfiable("Speaker")
        # A "second process": a brand-new cache over the same directory.
        second = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        result = second.is_class_satisfiable("Speaker")
        stats = second.stats
        assert stats.store_hits == 1
        assert stats.expansion_builds == 0
        assert stats.fixpoint_runs == 0
        assert result.satisfiable == baseline.satisfiable
        assert result.solution == baseline.solution
        assert result.support == baseline.support

    def test_cardinality_queries_warm_their_extended_schema(
        self, meeting, cache_dir
    ):
        from repro.cli import parse_statement

        query = parse_statement("maxc(Speaker, Holds, U1) = 2")
        first = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        assert first.implies(query).implied
        second = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        assert second.implies(query).implied
        assert second.stats.store_hits == 1
        assert second.stats.fixpoint_runs == 0

    def test_damaged_store_entry_degrades_to_cold_build(
        self, meeting, cache_dir
    ):
        store = ArtifactStore(cache_dir)
        first = ReasoningSession(meeting, cache=SessionCache(store=store))
        first.is_class_satisfiable("Speaker")
        entry_path = store.entry_path(first.fingerprint)
        entry_path.write_bytes(entry_path.read_bytes()[:-5])
        second = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        assert second.is_class_satisfiable("Speaker").satisfiable
        stats = second.stats
        assert stats.store_hits == 0
        assert stats.store_misses == 1
        assert stats.fixpoint_runs == 1  # rebuilt from source
        assert stats.store_writes == 1  # and re-persisted

    def test_partial_bundles_are_not_adopted(self, meeting, cache_dir):
        from repro.session.fingerprint import schema_fingerprint

        store = ArtifactStore(cache_dir)
        fingerprint = schema_fingerprint(meeting)
        store.put(
            fingerprint,
            {
                "analysis": None,
                "expansion": None,
                "cr_system": None,
                "support": None,  # half-built state must not go live
                "witness": None,
                "class_verdicts": None,
            },
        )
        session = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        assert session.is_class_satisfiable("Speaker").satisfiable
        assert session.stats.store_hits == 0
        assert session.stats.fixpoint_runs == 1

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("witness", lambda witness: {**witness, "c1": True}),
            ("support", lambda support: support | {1}),
            ("classes", lambda classes: {k: tuple(v) for k, v in classes.items()}),
            ("class_verdicts", lambda verdicts: dict(list(verdicts.items())[1:])),
            ("analysis", lambda analysis: {"schema_name": "Meeting"}),
        ],
        ids=["bool-count", "int-unknown", "tuple-members", "missing-class",
             "dict-report"],
    )
    def test_misshapen_bundles_are_not_adopted(
        self, meeting, cache_dir, field, damage
    ):
        store = ArtifactStore(cache_dir)
        first = ReasoningSession(meeting, cache=SessionCache(store=store))
        first.is_class_satisfiable("Speaker")
        bundle = store.get(first.fingerprint)
        bundle[field] = damage(bundle[field])
        assert store.put(first.fingerprint, bundle)
        second = ReasoningSession(
            meeting, cache=SessionCache(store=ArtifactStore(cache_dir))
        )
        assert second.is_class_satisfiable("Speaker").satisfiable
        assert second.stats.store_hits == 0
        assert second.stats.fixpoint_runs == 1

    def test_storeless_cache_has_zero_store_counters(self, meeting):
        session = ReasoningSession(meeting, cache=SessionCache())
        session.is_class_satisfiable("Speaker")
        stats = session.stats
        assert stats.store_hits == 0
        assert stats.store_misses == 0
        assert stats.store_writes == 0


# ---------------------------------------------------------------------------
# The batch CLI against the store
# ---------------------------------------------------------------------------


class TestBatchCachePersistence:
    def test_warm_run_is_byte_identical_to_cold(
        self, meeting_file, cache_dir, capsys
    ):
        cold_code, cold = batch(
            meeting_file, capsys, "--cache-dir", cache_dir
        )
        warm_code, warm = batch(
            meeting_file, capsys, "--cache-dir", cache_dir
        )
        uncached_code, uncached = batch(meeting_file, capsys, "--no-cache")
        assert cold_code == warm_code == uncached_code == 0
        assert warm == cold == uncached

    def test_stats_line_reports_store_traffic(
        self, meeting_file, cache_dir, capsys
    ):
        _, cold = batch(
            meeting_file, capsys, "--cache-dir", cache_dir, "--stats"
        )
        _, warm = batch(
            meeting_file, capsys, "--cache-dir", cache_dir, "--stats"
        )
        assert "# store: 0 hit(s), 2 miss(es), 2 write(s)" in cold
        assert "# store: 2 hit(s), 0 miss(es), 0 write(s)" in warm

    def test_json_report_carries_store_counters(
        self, meeting_file, cache_dir, capsys
    ):
        import json

        batch(meeting_file, capsys, "--cache-dir", cache_dir)
        _, out = batch(
            meeting_file, capsys, "--cache-dir", cache_dir, "--json"
        )
        report = json.loads(out)
        assert report["stats"]["store_hits"] == 2
        assert report["stats"]["fixpoint_runs"] == 0

    def test_env_var_names_the_store(
        self, meeting_file, cache_dir, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        batch(meeting_file, capsys)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 entr(ies)" in out

    def test_no_cache_flag_skips_the_env_store(
        self, meeting_file, cache_dir, capsys, monkeypatch
    ):
        import os

        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        code, _ = batch(meeting_file, capsys, "--no-cache")
        assert code == 0
        assert not os.path.exists(cache_dir)


# ---------------------------------------------------------------------------
# The cache maintenance subcommand
# ---------------------------------------------------------------------------


class TestCacheCli:
    def warm(self, meeting_file, cache_dir, capsys):
        batch(meeting_file, capsys, "--cache-dir", cache_dir)
        capsys.readouterr()

    def test_stats(self, meeting_file, cache_dir, capsys):
        self.warm(meeting_file, cache_dir, capsys)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 entr(ies)" in out and "0 quarantined" in out

    def test_stats_json(self, meeting_file, cache_dir, capsys):
        import json

        self.warm(meeting_file, cache_dir, capsys)
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2
        assert report["quarantined"] == 0

    def test_verify_clean_exits_zero(self, meeting_file, cache_dir, capsys):
        self.warm(meeting_file, cache_dir, capsys)
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0

    def test_verify_damage_exits_one_then_heals(
        self, meeting_file, cache_dir, capsys
    ):
        self.warm(meeting_file, cache_dir, capsys)
        store = ArtifactStore(cache_dir)
        entry = next(store.entries())
        entry.path.write_bytes(entry.path.read_bytes()[:-1])
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        assert "truncated-payload" in capsys.readouterr().out
        # The damage was quarantined, so the next verify is clean ...
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        # ... and a re-run rebuilds the missing entry without error.
        code, _ = batch(meeting_file, capsys, "--cache-dir", cache_dir)
        assert code == 0

    def test_quarantine_list(self, meeting_file, cache_dir, capsys):
        self.warm(meeting_file, cache_dir, capsys)
        assert (
            main(["cache", "quarantine", "list", "--cache-dir", cache_dir])
            == 0
        )
        assert "quarantine is empty" in capsys.readouterr().out
        store = ArtifactStore(cache_dir)
        entry = next(store.entries())
        entry.path.write_bytes(b"junk")
        main(["cache", "verify", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert (
            main(["cache", "quarantine", "list", "--cache-dir", cache_dir])
            == 0
        )
        assert entry.fingerprint in capsys.readouterr().out

    def test_clear(self, meeting_file, cache_dir, capsys):
        self.warm(meeting_file, cache_dir, capsys)
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2 entr(ies)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 entr(ies)" in capsys.readouterr().out

    def test_missing_dir_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Entries restored from the store: the slim bundle answers every warm
# query kind; only the paths that read Psi_S rebuild it
# ---------------------------------------------------------------------------

RESTORED_SCHEMA = """\
schema Restored {
  class Speaker;
  class Discussant isa Speaker;
  class Talk;
  class Room;
  class Hall isa Room;
  relationship Holds(U1: Speaker, U2: Talk);
  relationship Participates(U3: Discussant, U4: Talk);
  cardinality Discussant in Holds.U1: (0, 2);
  cardinality Discussant in Participates.U3: (1, 1);
  cardinality Speaker in Holds.U1: (1, *);
  cardinality Talk in Holds.U2: (1, 1);
  cardinality Talk in Participates.U4: (1, *);
  disjoint Speaker, Talk;
}
"""
"""The meeting schema plus a declared disjointness, and a second island
(``Room``/``Hall``) so that cross-island queries read a merged entry."""

WARM_QUERIES = [
    ("sat Speaker", True),
    ("sat Hall", True),
    ("Speaker isa Discussant", True),
    ("Talk isa Speaker", False),
    ("Hall isa Speaker", False),
    ("disjoint(Speaker, Talk)", True),
    ("disjoint(Speaker, Discussant)", False),
    ("disjoint(Talk, Room)", False),
    ("minc(Speaker, Holds, U1) = 1", True),
    ("minc(Speaker, Holds, U1) = 2", False),
    ("maxc(Speaker, Holds, U1) = 1", True),
    ("maxc(Speaker, Holds, U1) = 0", False),
]
"""Each warm query kind, implied (or satisfiable) and not."""

NOT_IMPLIED = [line for line, positive in WARM_QUERIES if not positive]


def _answers(session: ReasoningSession) -> list[bool]:
    return [
        answer_query(session, *parse_batch_query(line))[2]
        for line, _ in WARM_QUERIES
    ]


def _cold_then_restored(
    cache_dir: str,
) -> tuple[ReasoningSession, ReasoningSession]:
    """A cold session that answers :data:`WARM_QUERIES` through a store,
    and a session over a fresh cache on the same store directory."""
    schema = parse_schema(RESTORED_SCHEMA)
    cold = ReasoningSession(
        schema, cache=SessionCache(store=ArtifactStore(cache_dir))
    )
    assert _answers(cold) == [positive for _, positive in WARM_QUERIES]
    restored = ReasoningSession(
        schema, cache=SessionCache(store=ArtifactStore(cache_dir))
    )
    return cold, restored


def _builds(session: ReasoningSession) -> tuple[int, int, int]:
    stats = session.stats
    return stats.expansion_builds, stats.system_builds, stats.fixpoint_runs


class TestRestoredEntries:
    def test_every_warm_query_kind_builds_nothing(self, cache_dir):
        cold, restored = _cold_then_restored(cache_dir)
        assert _answers(restored) == [positive for _, positive in WARM_QUERIES]
        restored.classify_all()
        assert restored.satisfiable_classes() == cold.satisfiable_classes()
        stats = restored.stats
        assert stats.store_hits == cold.stats.store_writes > 0
        assert stats.components_reused == stats.components_total == 2
        assert _builds(restored) == (0, 0, 0)

    def test_models_from_a_restored_entry_check_and_render_like_cold(
        self, cache_dir
    ):
        cold, restored = _cold_then_restored(cache_dir)
        schema = restored.schema
        renders = []
        for session in (cold, restored):
            models = [
                construct_model_for_result(session.is_class_satisfiable(cls))
                for cls in ("Discussant", "Hall")
            ]
            models += [
                session.implies(parse_statement(line)).countermodel
                for line in NOT_IMPLIED
            ]
            for model in models:
                assert check_model(schema, model) == []
            renders.append([render_interpretation(model) for model in models])
        assert renders[0] == renders[1]
        # One rebuild per entry read: two islands, the merged islands of
        # the cross-island queries, and the two extended schemas.
        expansions, systems, fixpoints = _builds(restored)
        assert expansions == systems == restored.stats.store_hits
        assert fixpoints == 0

    def test_a_restored_result_builds_its_system_on_first_read(
        self, cache_dir
    ):
        cold, restored = _cold_then_restored(cache_dir)
        result = restored.is_class_satisfiable("Talk")
        assert _builds(restored) == (0, 0, 0)
        reference = cold.is_class_satisfiable("Talk").cr_system
        assert result.cr_system.class_var == reference.class_var
        assert result.cr_system.rel_var == reference.rel_var
        assert result.cr_system is result.cr_system
        assert _builds(restored) == (1, 1, 0)

    def test_a_pinned_walk_on_a_restored_entry_rebuilds_once(
        self, cache_dir
    ):
        _, restored = _cold_then_restored(cache_dir)
        with pin_backend("pruned"):
            walked = [
                restored.is_class_satisfiable(cls).satisfiable
                for cls in ("Speaker", "Talk", "Discussant")
            ]
        assert walked == [True, True, True]
        # The deliberate trade-off of the slim bundle: the walk reads
        # Psi_S, which a restored entry rebuilds (once) from the schema.
        assert _builds(restored) == (1, 1, 0)


# ---------------------------------------------------------------------------
# The cache reads the store outside its map lock
# ---------------------------------------------------------------------------


def _stored(cache_dir: str, *schemas) -> None:
    cache = SessionCache(store=ArtifactStore(cache_dir))
    for schema in schemas:
        cache.artifacts(schema).ensure_support()


class TestStoreReadsOutsideTheLock:
    def test_a_slow_read_does_not_stall_a_warm_hit_on_another_schema(
        self, cache_dir, monkeypatch
    ):
        slow, fast = meeting_schema(), figure1_schema()
        _stored(cache_dir, slow, fast)
        store = ArtifactStore(cache_dir)
        reading, release = threading.Event(), threading.Event()
        real_get = store.get

        def get(fingerprint, kind=DEFAULT_KIND):
            if fingerprint == schema_fingerprint(slow):
                reading.set()
                release.wait(timeout=30)
            return real_get(fingerprint, kind)

        monkeypatch.setattr(store, "get", get)
        cache = SessionCache(store=store)
        slow_reader = threading.Thread(target=cache.artifacts, args=(slow,))
        slow_reader.start()
        try:
            assert reading.wait(timeout=30)
            found = []
            fast_reader = threading.Thread(
                target=lambda: found.append(cache.artifacts(fast))
            )
            fast_reader.start()
            fast_reader.join(timeout=10)
            # Answered while the slow read is still blocked.
            assert not fast_reader.is_alive()
            assert found[0].warm
        finally:
            release.set()
            slow_reader.join(timeout=30)
        assert not slow_reader.is_alive()
        assert cache.stats.store_hits == 2
        assert cache.stats.misses == 2

    def test_racing_readers_of_one_entry_share_the_first_adoption(
        self, cache_dir, monkeypatch
    ):
        schema = meeting_schema()
        _stored(cache_dir, schema)
        store = ArtifactStore(cache_dir)
        both_reading = threading.Barrier(2, timeout=30)
        real_get = store.get

        def get(fingerprint, kind=DEFAULT_KIND):
            both_reading.wait()
            return real_get(fingerprint, kind)

        monkeypatch.setattr(store, "get", get)
        cache = SessionCache(store=store)
        entries = []
        readers = [
            threading.Thread(
                target=lambda: entries.append(cache.artifacts(schema))
            )
            for _ in range(2)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)
        assert len(entries) == 2 and entries[0] is entries[1]
        assert len(cache) == 1
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 1)
        assert (stats.store_hits, stats.store_misses) == (1, 0)
        assert store.stats.hits == 2  # both read; one adoption won


# ---------------------------------------------------------------------------
# Warm output equals cold output in fresh processes, whatever the hash seed
# ---------------------------------------------------------------------------


def test_warm_batch_output_equals_cold_at_every_hash_seed(tmp_path):
    schema_file = tmp_path / "restored.cr"
    schema_file.write_text(RESTORED_SCHEMA)
    query_file = tmp_path / "queries.txt"
    query_file.write_text("".join(f"{line}\n" for line, _ in WARM_QUERIES))
    source = str(Path(__file__).resolve().parents[1] / "src")

    def start(seed: int, *extra: str) -> subprocess.Popen:
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(seed),
            PYTHONPATH=source,
            REPRO_CACHE_DIR=str(tmp_path / "store"),
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", str(schema_file),
             str(query_file), *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def output(run: subprocess.Popen) -> str:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 1, stderr  # some answers are negative
        return stdout

    cold = output(start(0))
    cold_results = json.loads(output(start(0, "--json", "--no-cache")))
    for seed in range(16):
        plain, as_json = start(seed), start(seed, "--json")
        assert output(plain) == cold, seed
        warm = json.loads(output(as_json))
        assert warm["stats"]["fixpoint_runs"] == 0
        assert warm["results"] == cold_results["results"], seed

