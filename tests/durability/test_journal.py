"""The write-ahead journal: framing, commit semantics, tamper defense."""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro.attacks.wiretap import Wiretap
from repro.durability import DurableStore, Journal
from repro.errors import JournalCorrupt, JournalRolledBack
from repro.migration.testbed import build_testbed
from repro.sim.clock import VirtualClock
from repro.sim.trace import EventTrace
from tests.conftest import build_counter_app
from tests.test_serde import reference_pack


@pytest.fixture
def store() -> DurableStore:
    clock = VirtualClock()
    return DurableStore(clock, EventTrace(clock), 0)


@pytest.fixture
def journal(store) -> Journal:
    return Journal(store, "enclave/source/demo", "source")


class TestAppendReplay:
    def test_roundtrip(self, journal):
        journal.append("begin", {"image": "demo"})
        journal.append("checkpoint", {"sequence": 1, "blob": b"\x00\x01"})
        journal.append("released")
        records = journal.records()
        assert [r.kind for r in records] == ["begin", "checkpoint", "released"]
        assert [r.counter for r in records] == [1, 2, 3]
        assert records[1].payload == {"sequence": 1, "blob": b"\x00\x01"}
        assert records[2].payload is None

    def test_append_returns_counter_and_bumps_hardware(self, store, journal):
        assert journal.append("a") == 1
        assert journal.append("b") == 2
        assert store.counter(journal.name) == 2

    def test_queries(self, journal):
        journal.append("checkpoint", {"sequence": 1})
        journal.append("channel")
        journal.append("checkpoint", {"sequence": 2})
        assert journal.has("channel")
        assert not journal.has("released")
        assert journal.last("checkpoint").payload == {"sequence": 2}
        assert len(journal.find("checkpoint")) == 2
        assert journal.kinds() == ["checkpoint", "channel", "checkpoint"]
        assert len(journal) == 3

    def test_journals_are_independent(self, store):
        a = Journal(store, "enclave/source/a", "source")
        b = Journal(store, "enclave/target/a", "target")
        a.append("one")
        assert b.records() == []
        assert store.counter(b.name) == 0

    def test_append_writes_one_canonical_frame(self, store, journal):
        store.trace = EventTrace(VirtualClock())
        journal.append("begin", {"image": "demo"})
        before = bytes(store.log(journal.name))
        payload = {"sequence": 2, "blob": bytes(range(256)) * 64, "hops": (1, "\u00e9")}
        journal.append("checkpoint", payload)
        body = reference_pack({"c": 2, "k": "checkpoint", "p": payload})
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        assert bytes(store.log(journal.name)) == before + frame
        appends = [e for e in store.trace.events if (e.category, e.name) == ("journal", "append")]
        assert [e.payload["counter"] for e in appends] == [1, 2]
        assert appends[1].payload["n_bytes"] == len(frame)


class TestTamperDefense:
    def test_crc_flip_is_corrupt(self, store, journal):
        journal.append("checkpoint", {"sequence": 1})
        log = store.log(journal.name)
        log[len(log) // 2] ^= 0x40
        with pytest.raises(JournalCorrupt):
            journal.records()

    def test_torn_tail_header_is_dropped(self, store, journal):
        journal.append("a")
        # A crash mid-append leaves a partial frame header with no commit.
        store.log(journal.name).extend(b"\x99\x00")
        assert [r.kind for r in journal.records()] == ["a"]

    def test_uncommitted_full_frame_is_dropped(self, store, journal):
        journal.append("a")
        # Frame fully written but the counter bump never happened: the
        # record has counter == hw_counter + 1 and must not replay.
        from repro import serde

        body = serde.pack({"c": 2, "k": "b", "p": None})
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        store.log(journal.name).extend(frame)
        assert [r.kind for r in journal.records()] == ["a"]

    def test_append_after_torn_header_lands_behind_committed_frames(
        self, store, journal
    ):
        journal.append("a")
        store.log(journal.name).extend(b"\x99\x00")
        journal.append("done")
        assert journal.kinds() == ["a", "done"]

    def test_append_after_uncommitted_frame_drops_it(self, store, journal):
        from repro import serde

        journal.append("a")
        body = serde.pack({"c": 2, "k": "b", "p": None})
        store.log(journal.name).extend(
            struct.pack("<II", len(body), zlib.crc32(body)) + body
        )
        journal.append("done")
        assert journal.kinds() == ["a", "done"]

    def test_append_leaves_a_truncated_log_for_replay_to_refuse(
        self, store, journal
    ):
        journal.append("a")
        keep = len(store.log(journal.name))
        journal.append("b")
        del store.log(journal.name)[keep:]
        journal.append("c")
        with pytest.raises(JournalCorrupt, match="out of sequence"):
            journal.records()

    def test_truncated_journal_is_refused_as_rollback(self, store, journal):
        journal.append("a")
        before_released = len(store.log(journal.name))
        journal.append("released")
        # The adversary truncates the log back to before the release —
        # the classic rollback.  The monotonic counter refuses it.
        del store.log(journal.name)[before_released:]
        with pytest.raises(JournalRolledBack):
            journal.records()

    def test_substituted_earlier_copy_is_refused(self, store, journal):
        journal.append("a")
        snapshot = bytes(store.log(journal.name))
        journal.append("b")
        journal.append("c")
        log = store.log(journal.name)
        log.clear()
        log.extend(snapshot)
        with pytest.raises(JournalRolledBack):
            journal.records()

    def test_counter_gap_is_corrupt(self, store, journal):
        from repro import serde

        journal.append("a")
        body = serde.pack({"c": 3, "k": "skip", "p": None})
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        store.log(journal.name).extend(frame)
        store.counter_bump(journal.name)
        store.counter_bump(journal.name)
        with pytest.raises(JournalCorrupt):
            journal.records()


class TestCommittedEndCache:
    """The store remembers where each journal's last commit ends."""

    def test_torn_tail_after_a_warm_cache_is_dropped(self, store, journal):
        for kind in ("a", "b", "c"):
            journal.append(kind)
        assert store.journal_ends[journal.name] == (3, len(store.log(journal.name)))
        store.log(journal.name).extend(b"\x99\x00\x00")
        journal.append("done")
        assert journal.kinds() == ["a", "b", "c", "done"]

    def test_truncation_after_a_warm_cache_is_refused(self, store, journal):
        journal.append("a")
        keep = len(store.log(journal.name))
        journal.append("b")
        journal.append("released")
        del store.log(journal.name)[keep:]
        with pytest.raises(JournalRolledBack):
            journal.records()
        journal.append("c")  # written behind the hole, not over it
        with pytest.raises(JournalCorrupt, match="out of sequence"):
            journal.records()

    def test_append_reads_constant_headers(self, store, journal, monkeypatch):
        from repro.durability import journal as journal_module

        for i in range(1_000):
            journal.append("tick", {"i": i})

        class CountingHeader:
            def __init__(self, real):
                self.real, self.size, self.reads = real, real.size, 0

            def pack(self, *values):
                return self.real.pack(*values)

            def unpack_from(self, buffer, offset=0):
                self.reads += 1
                return self.real.unpack_from(buffer, offset)

        header = CountingHeader(journal_module._FRAME_HEADER)
        monkeypatch.setattr(journal_module, "_FRAME_HEADER", header)
        journal.append("done")
        assert header.reads <= 1
        assert len(journal) == 1_001


class TestSealedRecords:
    def test_seal_roundtrip_inside_enclave(self):
        tb = build_testbed(seed=61)
        app = build_counter_app(tb, tag="seal")
        secret = {"kmigrate": b"\xaa" * 16, "sequence": 3}

        def seal(rt):
            return rt.journal_seal(secret)

        blob = app.library.control_call(seal)
        assert b"\xaa" * 16 not in blob  # sealed, not encoded

        def unseal(rt, sealed):
            return rt.journal_unseal(sealed)

        assert app.library.control_call(unseal, blob) == secret

    def test_seal_survives_instance_rebuild(self):
        """Same measurement + same machine ⇒ a rebuilt enclave can unseal."""
        tb = build_testbed(seed=62)
        app = build_counter_app(tb, tag="reseal")
        blob = app.library.control_call(lambda rt: rt.journal_seal({"v": 9}))
        app.library.destroy()
        app.library.launch(owner=None)
        assert app.library.control_call(
            lambda rt, b: rt.journal_unseal(b), blob
        ) == {"v": 9}

    def test_other_measurement_cannot_unseal(self):
        from repro.errors import ReproError

        tb = build_testbed(seed=63)
        app = build_counter_app(tb, tag="sealer")
        other = build_counter_app(tb, tag="intruder")
        blob = app.library.control_call(lambda rt: rt.journal_seal({"v": 1}))
        with pytest.raises(ReproError):
            other.library.control_call(lambda rt, b: rt.journal_unseal(b), blob)


class TestMigrationJournaling:
    def test_every_party_journals_a_clean_migration(self):
        from repro.durability import wal
        from repro.migration.orchestrator import MigrationOrchestrator

        tb = build_testbed(seed=64)
        app = build_counter_app(tb, tag="journaled")
        app.ecall_once(0, "incr", 5)
        MigrationOrchestrator(tb).migrate_enclave(app)
        image = app.image.name
        orch_journal = Journal(
            tb.durable, wal.orchestrator_journal_name(image), wal.PARTY_ORCHESTRATOR
        )
        src_journal = Journal(
            tb.durable, wal.enclave_journal_name("source", image), wal.PARTY_SOURCE
        )
        tgt_journal = Journal(
            tb.durable, wal.enclave_journal_name("target", image), wal.PARTY_TARGET
        )
        assert orch_journal.kinds() == [
            wal.WAL_BEGIN,
            wal.WAL_CHECKPOINT,
            wal.WAL_TARGET_BUILT,
            wal.WAL_CHANNEL,
            wal.WAL_TRANSFERRED,
            wal.WAL_RELEASE,
            wal.WAL_DELIVERED,
            wal.WAL_RESTORED,
            wal.WAL_DONE,
        ]
        assert src_journal.kinds() == [
            wal.REC_CHECKPOINT,
            wal.REC_CHANNEL_OPEN,
            wal.REC_RELEASED,
        ]
        assert tgt_journal.kinds() == [
            wal.REC_CHANNEL,
            wal.REC_KEY_INSTALLED,
            wal.REC_LIVE,
        ]

    def test_journaled_secrets_are_sealed(self):
        """K_migrate never hits the untrusted store in the clear.

        serde writes bytes as hex, so a key journaled in the clear shows
        up hex-encoded in a log: the scan looks for both forms, in every
        log and every blob, over a whole migration."""
        from repro.migration.orchestrator import MigrationOrchestrator
        from repro.sdk import control

        tb = build_testbed(seed=65)
        app = build_counter_app(tb, tag="sealed-secrets")
        orch = MigrationOrchestrator(tb)
        orch.checkpoint_enclave(app)
        kmigrate = app.library.control_call(
            lambda rt: (rt.load_obj(control.OBJ_CHANNEL) or {}).get("kmigrate")
        )
        assert kmigrate is not None
        orch.migrate_enclave(app)
        store = tb.durable
        assert store.digests()
        disk = [bytes(store.log(name)) for name in store.names()]
        disk += [store.blob(digest) for digest in store.digests()]
        for data in disk:
            assert kmigrate not in data
            assert kmigrate.hex().encode() not in data


class TestBlobStore:
    def test_put_is_content_addressed_and_idempotent(self, store):
        digest = store.put_blob(b"sealed envelope")
        assert digest == hashlib.sha256(b"sealed envelope").hexdigest()
        assert store.put_blob(bytearray(b"sealed envelope")) == digest
        assert store.digests() == [digest]
        assert store.blob(digest) == b"sealed envelope"

    def test_missing_blob_is_corrupt(self, store):
        with pytest.raises(JournalCorrupt, match="missing"):
            store.blob(hashlib.sha256(b"never stored").hexdigest())

    def test_altered_blob_is_corrupt(self, store):
        digest = store.put_blob(b"sealed envelope")
        store._blobs[digest] = b"sealed envelopf"
        with pytest.raises(JournalCorrupt, match="does not match"):
            store.blob(digest)

    def test_clean_migration_keeps_one_raw_copy_of_the_envelope(self):
        from repro.durability import wal
        from repro.migration.orchestrator import MigrationOrchestrator

        tb = build_testbed(seed=66)
        app = build_counter_app(tb, tag="one-blob")
        wiretap = Wiretap.install(tb.network)
        MigrationOrchestrator(tb).migrate_enclave(app)
        image = app.image.name
        store = tb.durable
        orch_journal = Journal(
            store, wal.orchestrator_journal_name(image), wal.PARTY_ORCHESTRATOR
        )
        src_journal = Journal(
            store, wal.enclave_journal_name("source", image), wal.PARTY_SOURCE
        )
        (wire_envelope,) = wiretap.captured("checkpoint")
        checkpoint = src_journal.last(wal.REC_CHECKPOINT).payload
        digest = checkpoint["envelope"]
        assert orch_journal.last(wal.WAL_TRANSFERRED).payload == {"blob": digest}
        assert store.digests() == [digest]
        assert store.blob(digest) == wire_envelope
        assert orch_journal.last(wal.WAL_CHECKPOINT).payload == {
            "sequence": checkpoint["sequence"]
        }
        for name in store.names():
            log = bytes(store.log(name))
            assert wire_envelope not in log
            assert wire_envelope.hex().encode() not in log
