"""Unit and property tests for the crash-safe persistent artifact store.

The headline property (``TestCrashRecovery``): after a simulated crash
at *any* point of the atomic-write protocol, every fingerprint is
either absent or reads back checksum-valid — and a recovered process
can always write again (the crash leaves a lock file behind, exactly
like a killed process, so this also exercises stale-lock reclaim).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.cr.builder import SchemaBuilder
from repro.errors import (
    StoreError,
    StoreIntegrityError,
    StoreLockTimeout,
)
from repro.runtime.faults import (
    DISK_ENCODE_POINT,
    DISK_WRITE_POINTS,
    SimulatedCrash,
    inject_faults,
)
from repro.store import (
    ARTIFACT_VERSION,
    AdvisoryLock,
    ArtifactStore,
    LockOwner,
    atomic_write_bytes,
    backoff_delay,
    decode_entry,
    encode_entry,
    resolve_cache_dir,
    sweep_temp_files,
)
from repro.store import codec
from repro.store.format import HEADER_SIZE, MAGIC
from tests.strategies import schemas

FP = "a" * 64
FP2 = "b" * 64


# ---------------------------------------------------------------------------
# The envelope format
# ---------------------------------------------------------------------------


class TestFormat:
    def test_round_trip(self):
        payload = b"some pickled artifact bytes"
        blob = encode_entry(payload, ARTIFACT_VERSION)
        assert decode_entry(blob, ARTIFACT_VERSION) == payload

    def test_empty_payload_round_trips(self):
        blob = encode_entry(b"", ARTIFACT_VERSION)
        assert decode_entry(blob, ARTIFACT_VERSION) == b""

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda blob: blob[: HEADER_SIZE - 1], "truncated-header"),
            (lambda blob: b"XXXX" + blob[4:], "magic"),
            (lambda blob: blob[: len(blob) - 1], "truncated-payload"),
            (lambda blob: blob + b"!", "trailing-garbage"),
            (
                lambda blob: blob[:HEADER_SIZE]
                + bytes([blob[HEADER_SIZE] ^ 0xFF])
                + blob[HEADER_SIZE + 1 :],
                "checksum",
            ),
        ],
        ids=[
            "truncated-header",
            "magic",
            "truncated-payload",
            "trailing-garbage",
            "checksum",
        ],
    )
    def test_damage_reasons(self, mutate, reason):
        blob = mutate(encode_entry(b"payload", ARTIFACT_VERSION))
        with pytest.raises(StoreIntegrityError) as excinfo:
            decode_entry(blob, ARTIFACT_VERSION)
        assert excinfo.value.reason == reason

    def test_artifact_version_mismatch(self):
        blob = encode_entry(b"payload", ARTIFACT_VERSION)
        with pytest.raises(StoreIntegrityError) as excinfo:
            decode_entry(blob, ARTIFACT_VERSION + 1)
        assert excinfo.value.reason == "artifact-version"

    def test_format_version_mismatch(self):
        blob = bytearray(encode_entry(b"payload", ARTIFACT_VERSION))
        blob[4:6] = (99).to_bytes(2, "big")
        with pytest.raises(StoreIntegrityError) as excinfo:
            decode_entry(bytes(blob), ARTIFACT_VERSION)
        assert excinfo.value.reason == "format-version"

    def test_header_starts_with_magic(self):
        assert encode_entry(b"x", ARTIFACT_VERSION).startswith(MAGIC)


# ---------------------------------------------------------------------------
# The atomic write helper
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_the_bytes(self, tmp_path):
        path = tmp_path / "sub" / "entry.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"

    def test_replaces_atomically(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_no_temp_files_left_on_success(self, tmp_path):
        atomic_write_bytes(tmp_path / "entry.bin", b"data")
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    @pytest.mark.parametrize("point", DISK_WRITE_POINTS)
    def test_crash_points_fire_in_protocol_order(self, tmp_path, point):
        path = tmp_path / "entry.bin"
        with inject_faults(disk_failures={point: {1}}) as plan:
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"doomed" * 10)
        assert plan.injected == [(point, 1)]
        # Fault points strictly before the scripted one all fired once.
        for earlier in DISK_WRITE_POINTS[: DISK_WRITE_POINTS.index(point)]:
            assert plan.calls[earlier] == 1

    def test_crash_before_rename_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write_bytes(path, b"old")
        for point in DISK_WRITE_POINTS[:4]:  # everything before the rename
            with inject_faults(disk_failures={point: {1}}):
                with pytest.raises(SimulatedCrash):
                    atomic_write_bytes(path, b"new")
            assert path.read_bytes() == b"old"

    def test_crash_after_rename_publishes_the_new_bytes(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write_bytes(path, b"old")
        with inject_faults(disk_failures={"store:write:pre-dirsync": {1}}):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_torn_crash_leaves_a_sweepable_temp_file(self, tmp_path):
        path = tmp_path / "entry.bin"
        with inject_faults(disk_failures={"store:write:torn": {1}}):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"0123456789")
        temps = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert len(temps) == 1
        # The temp really is torn: only the first half made it out.
        assert temps[0].read_bytes() == b"01234"
        assert sweep_temp_files(tmp_path) == 1
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_real_io_errors_clean_up_the_temp_file(self, tmp_path):
        path = tmp_path / "entry.bin"
        with inject_faults(
            disk_failures={"store:write:pre-fsync": {1}},
            error_factory=lambda point, index: OSError(28, "ENOSPC"),
        ):
            with pytest.raises(OSError):
                atomic_write_bytes(path, b"data")
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Advisory locks
# ---------------------------------------------------------------------------


class TestLocks:
    def test_acquire_release_round_trip(self, tmp_path):
        lock = AdvisoryLock(tmp_path / "x.lock")
        with lock:
            assert (tmp_path / "x.lock").exists()
            owner = LockOwner.decode((tmp_path / "x.lock").read_bytes())
            assert owner is not None and owner.pid == os.getpid()
        assert not (tmp_path / "x.lock").exists()

    def test_contention_times_out(self, tmp_path):
        path = tmp_path / "x.lock"
        with AdvisoryLock(path):
            contender = AdvisoryLock(path, timeout=0.05)
            with pytest.raises(StoreLockTimeout):
                contender.acquire()

    def test_dead_owner_is_reclaimed(self, tmp_path):
        # A finished child's pid is a realistic dead owner.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        path = tmp_path / "x.lock"
        path.write_bytes(LockOwner(child.pid, time.time(), "here").encode())
        with AdvisoryLock(path, timeout=0.5):
            pass  # acquired by reclaiming the dead owner's lock

    def test_overaged_lock_is_reclaimed_even_if_pid_lives(self, tmp_path):
        path = tmp_path / "x.lock"
        stale = LockOwner(os.getpid(), time.time() - 3600.0, "here")
        path.write_bytes(stale.encode())
        with AdvisoryLock(path, timeout=0.5, stale_after=1.0):
            pass

    def test_unreadable_owner_is_reclaimed(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_bytes(b"\xff\xfe not an owner record")
        with AdvisoryLock(path, timeout=0.5):
            pass

    def test_live_fresh_lock_is_respected(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_bytes(LockOwner(os.getpid(), time.time(), "here").encode())
        contender = AdvisoryLock(path, timeout=0.05, stale_after=30.0)
        with pytest.raises(StoreLockTimeout):
            contender.acquire()

    def test_a_missing_lock_directory_is_made_on_acquire(self, tmp_path):
        path = tmp_path / "gone" / "x.lock"
        with AdvisoryLock(path):
            assert path.exists()
        assert not path.exists()

    def test_release_without_acquire_is_a_noop(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_bytes(LockOwner(os.getpid(), time.time(), "here").encode())
        AdvisoryLock(path).release()  # never held it; must not unlink
        assert path.exists()

    def test_backoff_is_deterministic_and_bounded(self):
        delays = [backoff_delay(attempt) for attempt in range(20)]
        assert delays == [backoff_delay(attempt) for attempt in range(20)]
        assert all(0.0 < delay <= 0.2 for delay in delays)
        # The exponential component grows until the cap.
        assert delays[5] > delays[0]

    def test_owner_record_round_trips(self):
        owner = LockOwner(123, 456.25, "host:with:colons")
        assert LockOwner.decode(owner.encode()) == owner


# ---------------------------------------------------------------------------
# The store proper
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = {"support": frozenset({"x"}), "witness": {"x": 1}}
        assert store.put(FP, artifact)
        assert store.get(FP) == artifact
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_a_fresh_store_makes_no_directory_before_a_write(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        assert store.get(FP) is None
        assert not root.exists()
        assert store.put(FP, 1)
        assert store.entry_path(FP).exists()

    def test_a_tree_deleted_underneath_grows_back(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        assert store.put(FP, {"value": 1})
        shutil.rmtree(root)
        assert store.get(FP) is None
        # The write makes the shard and lock directories again.
        assert store.put(FP, {"value": 2})
        assert store.get(FP) == {"value": 2}
        assert store.stats.writes == 2
        # The quarantine makes its own directory on its first move.
        path = store.entry_path(FP)
        path.write_bytes(path.read_bytes()[:-3])
        assert not store.quarantine_dir.exists()
        assert store.get(FP) is None
        assert store.stats.quarantined == 1
        assert [info.reason for info in store.quarantined()] == [
            "truncated-payload"
        ]
        assert store.put(FP, {"value": 3})
        assert store.get(FP) == {"value": 3}

    def test_keys_beyond_hex_are_checked(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put("with-dash_and_underscore", 1)
        assert store.get("with-dash_and_underscore") == 1
        for unsafe in ("\u00e9" * 8, "", "a/b", FP + "\n"):
            with pytest.raises(StoreError):
                store.get(unsafe)

    def test_missing_entry_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(FP) is None
        assert store.stats.misses == 1

    def test_entries_are_sharded_by_fingerprint_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, 1)
        path = store.entry_path(FP)
        assert path.parent.name == FP[:2]
        assert path.exists()

    def test_unsafe_keys_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("../escape", 1)
        with pytest.raises(StoreError):
            store.get("dotted.name")

    def test_truncated_entry_quarantined_and_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, {"value": 1})
        path = store.entry_path(FP)
        path.write_bytes(path.read_bytes()[:-3])
        assert store.get(FP) is None  # damage reads as a miss
        assert store.stats.quarantined == 1
        infos = store.quarantined()
        assert len(infos) == 1 and infos[0].reason == "truncated-payload"
        assert store.put(FP, {"value": 2})  # rebuild lands cleanly
        assert store.get(FP) == {"value": 2}

    def test_bit_flip_quarantined_as_checksum(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, {"value": 1})
        path = store.entry_path(FP)
        blob = bytearray(path.read_bytes())
        blob[HEADER_SIZE + 2] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get(FP) is None
        assert [info.reason for info in store.quarantined()] == ["checksum"]

    def test_injected_corruption_is_caught_on_read(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject_faults(
            disk_corruptions={DISK_ENCODE_POINT: {1}}
        ) as plan:
            assert store.put(FP, {"value": 1})  # silent bit-rot
        assert plan.corrupted == [(DISK_ENCODE_POINT, 1)]
        assert store.get(FP) is None  # checksum catches it
        assert [info.reason for info in store.quarantined()] == ["checksum"]

    def test_version_mismatch_degrades_to_rebuild(self, tmp_path):
        old = ArtifactStore(tmp_path, artifact_version=ARTIFACT_VERSION)
        old.put(FP, {"value": "old-codec"})
        new = ArtifactStore(tmp_path, artifact_version=ARTIFACT_VERSION + 1)
        assert new.get(FP) is None
        reasons = [info.reason for info in new.quarantined()]
        assert reasons == ["artifact-version"]
        assert new.put(FP, {"value": "new-codec"})
        assert new.get(FP) == {"value": "new-codec"}

    def test_mislabelled_entry_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, {"value": 1})
        source = store.entry_path(FP)
        target = store.entry_path(FP2)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())  # stale copy, wrong key
        assert store.get(FP2) is None
        assert [info.reason for info in store.quarantined()] == [
            "key-mismatch"
        ]

    def test_unpicklable_artifact_degrades_put(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put(FP, lambda: None) is False  # the codec refuses it
        assert store.stats.write_errors == 1
        assert store.get(FP) is None

    def test_contended_put_degrades_not_raises(self, tmp_path):
        store = ArtifactStore(tmp_path, lock_timeout=0.05)
        lock = store._lock_for(FP, "artifacts")
        lock.acquire()
        try:
            assert store.put(FP, {"value": 1}) is False
            assert store.stats.lock_timeouts == 1
        finally:
            lock.release()

    def test_io_error_degrades_put(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject_faults(
            disk_failures={"store:write:pre-fsync": {1}},
            error_factory=lambda point, index: OSError(28, "ENOSPC"),
        ):
            assert store.put(FP, {"value": 1}) is False
        assert store.stats.write_errors == 1
        assert store.get(FP) is None
        assert store.put(FP, {"value": 1})  # disk pressure relieved

    def test_crash_leaves_lock_and_next_writer_reclaims(self, tmp_path):
        store = ArtifactStore(tmp_path, stale_lock_after=0.0)
        with inject_faults(
            disk_failures={"store:write:pre-rename": {1}}
        ):
            with pytest.raises(SimulatedCrash):
                store.put(FP, {"value": 1})
        lock_path = store._lock_for(FP, "artifacts").path
        assert lock_path.exists()  # the "killed process" held it
        fresh = ArtifactStore(tmp_path, stale_lock_after=0.0)
        assert fresh.put(FP, {"value": 2})  # reclaims, then writes
        assert fresh.get(FP) == {"value": 2}

    def test_startup_sweeps_crashed_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with inject_faults(disk_failures={"store:write:torn": {1}}):
            with pytest.raises(SimulatedCrash):
                store.put(FP, {"value": 1})
        shard = store.entry_path(FP).parent
        assert any(p.suffix == ".tmp" for p in shard.iterdir())
        ArtifactStore(tmp_path)  # a new process starts up
        assert not any(p.suffix == ".tmp" for p in shard.iterdir())

    def test_verify_quarantines_damage_and_reports(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, {"value": 1})
        store.put(FP2, {"value": 2})
        bad = store.entry_path(FP2)
        bad.write_bytes(bad.read_bytes()[:-1])
        outcome = store.verify()
        assert (outcome.checked, outcome.valid) == (2, 1)
        assert not outcome.clean
        assert outcome.quarantined == [
            {
                "fingerprint": FP2,
                "kind": "artifacts",
                "reason": "truncated-payload",
            }
        ]
        assert store.verify().clean  # damage was moved aside

    def test_clear_removes_entries_and_optionally_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, 1)
        store.put(FP2, 2)
        bad = store.entry_path(FP)
        bad.write_bytes(b"garbage")
        assert store.get(FP) is None  # quarantines the garbage
        assert store.clear() == 1
        assert store.summary()["entries"] == 0
        assert store.summary()["quarantined"] == 1
        store.clear(include_quarantine=True)
        assert store.summary()["quarantined"] == 0

    def test_summary_shape(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, {"value": 1})
        summary = store.summary()
        assert summary["entries"] == 1
        assert summary["bytes"] == store.entry_path(FP).stat().st_size
        assert summary["artifact_version"] == ARTIFACT_VERSION

    def test_kinds_are_independent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(FP, "a", kind="artifacts")
        store.put(FP, "b", kind="other")
        assert store.get(FP, kind="artifacts") == "a"
        assert store.get(FP, kind="other") == "b"


class TestResolveCacheDir:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from/env")
        assert resolve_cache_dir("/from/flag") == "/from/flag"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from/env")
        assert resolve_cache_dir(None) == "/from/env"

    def test_no_cache_overrides_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from/env")
        assert resolve_cache_dir("/from/flag", no_cache=True) is None

    def test_nothing_set_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None


# ---------------------------------------------------------------------------
# Crash-point recovery properties
# ---------------------------------------------------------------------------

artifact_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=8)
    | st.frozensets(st.text(max_size=4), max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


class TestCrashRecovery:
    @settings(max_examples=60)
    @given(
        point=st.sampled_from(DISK_WRITE_POINTS),
        old=artifact_values,
        new=artifact_values,
        have_old=st.booleans(),
    )
    def test_crash_at_any_point_leaves_absent_or_valid(
        self, point, old, new, have_old
    ):
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, stale_lock_after=0.0)
            if have_old:
                assert store.put(FP, old)
            with inject_faults(disk_failures={point: {1}}) as plan:
                with pytest.raises(SimulatedCrash):
                    store.put(FP, new)
            assert plan.injected == [(point, 1)]
            # "Reboot": a fresh process opens the store (sweeping temp
            # wreckage) and reads.  The entry is absent, the old value,
            # or the new value — never an error, never garbage.
            recovered = ArtifactStore(root, stale_lock_after=0.0)
            found = recovered.get(FP)
            assert found is None or found == old or found == new
            if have_old and point != "store:write:pre-dirsync":
                # Until the rename happens the old entry must survive.
                assert found == old
            # And the recovered process can always write again, even
            # though the crashed writer's lock file is still on disk.
            assert recovered.put(FP, new)
            assert recovered.get(FP) == new

    @settings(max_examples=30)
    @given(value=artifact_values)
    def test_warm_read_equals_what_was_written(self, value):
        with tempfile.TemporaryDirectory() as root:
            ArtifactStore(root).put(FP, value)
            # A different process would re-open the store from scratch;
            # a value read back encodes to the bytes of the value
            # written, which is what the batch CLI's warm-equals-cold
            # guarantee rests on (equal frozensets can iterate, and so
            # pickle, differently; the codec sorts them).
            found = ArtifactStore(root).get(FP)
            assert found == value
            assert codec.encode(found) == codec.encode(value)

    @settings(max_examples=25)
    @given(
        corrupt_first=st.booleans(),
        value=artifact_values,
    )
    def test_corruption_never_serves_bad_data(self, corrupt_first, value):
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            bundle = {"v": value}  # non-None wrapper: a miss is unambiguous
            failures = {DISK_ENCODE_POINT: {1 if corrupt_first else 2}}
            with inject_faults(disk_corruptions=failures):
                store.put(FP, bundle)
                store.put(FP2, bundle)
            # Exactly one entry was silently flipped; reads either
            # return the true value or quarantine — never wrong data.
            results = [store.get(FP), store.get(FP2)]
            assert results.count(None) == 1
            assert bundle in results
            assert len(store.quarantined()) == 1


# ---------------------------------------------------------------------------
# The payload codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unlisted:
    """A frozen dataclass the codec's allow-list does not name."""

    value: int


def _cycle() -> list:
    loop: list = []
    loop.append(loop)
    return loop


class TestCodec:
    @settings(max_examples=60)
    @given(value=artifact_values)
    def test_round_trip_returns_an_equal_value(self, value):
        found = codec.decode(codec.encode(value))
        assert found == value
        assert type(found) is type(value)

    def test_tuples_and_nested_sets_keep_their_types(self):
        value = (
            ("c1", frozenset({"A"})),
            ("c2", frozenset({"A", "B"})),
            [frozenset({("x", 1), ("y", 2)}), None, True, -(10**30)],
        )
        assert codec.decode(codec.encode(value)) == value

    @settings(max_examples=60)
    @given(value=artifact_values)
    def test_encoding_is_json_with_sorted_keys(self, value):
        encoded = codec.encode(value)
        canonical = json.dumps(
            json.loads(encoded), sort_keys=True, separators=(",", ":")
        )
        assert canonical.encode("ascii") == encoded

    @settings(max_examples=60)
    @given(
        items=st.lists(st.text(max_size=6), unique=True, max_size=12),
        order=st.randoms(use_true_random=False),
    )
    def test_insertion_order_does_not_reach_the_bytes(self, items, order):
        shuffled = list(items)
        order.shuffle(shuffled)
        first = {item: index for index, item in enumerate(items)}
        second = {item: first[item] for item in shuffled}
        assert codec.encode(first) == codec.encode(second)
        assert codec.encode(frozenset(items)) == codec.encode(
            frozenset(shuffled)
        )
        nested = frozenset(frozenset(items[i : i + 2]) for i in range(len(items)))
        rebuilt = frozenset(
            frozenset(reversed(items[i : i + 2]))
            for i in reversed(range(len(items)))
        )
        assert codec.encode(nested) == codec.encode(rebuilt)

    @settings(max_examples=40, deadline=None)
    @given(schema=schemas())
    def test_analysis_reports_round_trip_through_their_constructors(
        self, schema
    ):
        report = analyze(schema)
        found = codec.decode(codec.encode(report))
        assert found == report
        assert found.verify(schema)

    def test_a_report_failing_its_own_checks_does_not_decode(self):
        report = analyze(
            SchemaBuilder("Inverted")
            .classes("A", "B")
            .relationship("R", u="A", v="B")
            .card("A", "R", "u", 2, 1)
            .build()
        )
        assert report.unsat_classes == frozenset({"A"})
        forged = codec.encode(report).replace(
            b'"unsat_classes":["S","A"]', b'"unsat_classes":["S"]'
        )
        assert forged != codec.encode(report)
        with pytest.raises(codec.CodecError):
            codec.decode(forged)

    @pytest.mark.parametrize(
        "value",
        [lambda: None, 0.5, Unlisted(1), {"support": {"x"}}, {1: "x"}, _cycle()],
        ids=["lambda", "float", "unlisted-dataclass", "set", "int-key", "cycle"],
    )
    def test_values_outside_the_codec_are_refused_at_put(
        self, tmp_path, value
    ):
        store = ArtifactStore(tmp_path)
        assert store.put(FP, {"artifact": value}) is False
        assert store.stats.write_errors == 1
        assert store.stats.writes == 0
        assert not store.entry_path(FP).exists()

    def test_an_old_pickle_payload_is_quarantined_never_unpickled(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        payload = pickle.dumps(
            {"fingerprint": FP, "kind": "artifacts", "artifact": {"v": 1}},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = store.entry_path(FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_entry(payload, ARTIFACT_VERSION))

        def refuse(*args, **kwargs):
            raise AssertionError("the store unpickled a payload")

        for name in ("loads", "load", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        assert store.get(FP) is None
        assert [info.reason for info in store.quarantined()] == [
            "undecodable"
        ]
        assert store.stats.quarantined == 1
