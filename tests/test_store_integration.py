"""The persistent tier end to end: two-tier :class:`SessionCache`,
``repro batch --cache-dir`` warm-equals-cold byte identity, and the
``repro cache`` maintenance subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.dsl import serialize_schema
from repro.paper import meeting_schema
from repro.session import ReasoningSession, SessionCache
from repro.store import ArtifactStore

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
