"""Crash-safe live mutation: journal, replay, atomic republish, recovery.

The tier's one invariant, asserted here from unit level up to SIGKILL'd
subprocess writers: **an acknowledged write survives any crash**. After
recovery, state is bit-identical to a clean rebuild over the journaled
history, acknowledged mutations are always included, and a torn trailing
record (durable but never acknowledged) may replay — it must never
corrupt anything.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from datetime import date
from pathlib import Path

import pytest

from repro import faults
from repro.datasets import mixed, mondial
from repro.db.fulltext import FullTextIndex
from repro.errors import (
    FaultInjectedError,
    IndexArtifactError,
    JournalCorruptError,
    JournalError,
)
from repro.faults import FaultPlan
from repro.journal import MutationJournal, crc32c
from repro.storage import create_backend, recover

from tests.conftest import backend_for

SEED_COUNTRIES = 6
SEED = 31


def seed_db():
    return mondial.generate(countries=SEED_COUNTRIES, seed=SEED)


def fresh_backend():
    return create_backend("memory", seed_db())


def ranking_digest(backend, probes):
    """Exact scores for every probe keyword (bit-identity proxy), read
    from the dicts while a write delta is unsealed."""
    return [backend.fulltext.attribute_scores(probe) for probe in probes]


def apply_workload(backend, count=30, profile="oltp", seed=7, db=None):
    """Apply a deterministic write workload; returns its probe keywords.

    *db* is the schema/seed view the generator reads (defaults to the
    backend's in-memory database; SQLite backends must pass it in)."""
    view = db if db is not None else backend.database
    ops = mixed.generate_ops(view, count, profile=profile, seed=seed)
    writes = mixed.write_ops(ops)
    for op in writes:
        mixed.apply_op(backend, op)
    return [op.probe for op in writes if op.kind == "add"]


class TestMutationJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "m.journal"
        with MutationJournal(path) as journal:
            s1 = journal.append("add", "city", rows=[[1, "Lund", "SE", None, 9]])
            s2 = journal.append("delete", "city", keys=[[1]])
            assert (s1, s2) == (1, 2)
            assert journal.last_seq == 2
        with MutationJournal(path) as journal:
            records = list(journal.records())
            assert [r.seq for r in records] == [1, 2]
            assert records[0].op == "add"
            assert records[0].rows == ((1, "Lund", "SE", None, 9),)
            assert records[1].keys == ((1,),)
            assert list(journal.records(after_seq=1)) == [records[1]]

    def test_dates_and_booleans_round_trip_as_json(self, tmp_path):
        path = tmp_path / "m.journal"
        with MutationJournal(path) as journal:
            journal.append("add", "t", rows=[[date(2001, 2, 3), True, None]])
        with MutationJournal(path) as journal:
            (record,) = journal.records()
            # Dates journal as ISO text; replay re-coerces via the schema.
            assert record.rows == (("2001-02-03", True, None),)

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "m.journal"
        with MutationJournal(path) as journal:
            journal.append("add", "t", rows=[[1]])
            journal.append("add", "t", rows=[[2]])
        intact = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\x40\x00\x00\x00\xde\xad\xbe\xef partial record torn by")
        with MutationJournal(path) as journal:
            assert journal.truncated_bytes > 0
            assert journal.last_seq == 2
            assert len(journal) == 2
        assert path.stat().st_size == intact

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "m.journal"
        with MutationJournal(path) as journal:
            journal.append("add", "t", rows=[[1]])
            journal.append("add", "t", rows=[[2]])
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # flip a payload byte of the *first* record
        path.write_bytes(bytes(data))
        # The tail scan stops at the first bad frame — everything after a
        # corrupt interior record would be silently dropped, so opening
        # must refuse outright once any valid record follows the damage.
        with MutationJournal(path) as journal:
            assert journal.last_seq == 0  # both framed records discarded...
        # ...which is only acceptable because nothing valid followed; a
        # CRC-valid record that is not a mutation payload raises instead.
        path.write_bytes(b"")
        payload = b'{"not": "a mutation"}'
        import struct

        frame = struct.pack("<II", len(payload), crc32c(payload)) + payload
        path.write_bytes(frame)
        with pytest.raises(JournalCorruptError):
            MutationJournal(path)

    def test_sequence_gap_raises(self, tmp_path):
        import struct

        path = tmp_path / "m.journal"
        frames = b""
        for seq in (1, 3):  # skip 2: acknowledged history went missing
            payload = (
                f'{{"seq":{seq},"op":"add","table":"t","rows":[[1]]}}'.encode()
            )
            frames += struct.pack("<II", len(payload), crc32c(payload)) + payload
        path.write_bytes(frames)
        with pytest.raises(JournalCorruptError, match="sequence gap"):
            MutationJournal(path)

    def test_readonly_follower_never_repairs(self, tmp_path):
        path = tmp_path / "m.journal"
        with MutationJournal(path) as journal:
            journal.append("add", "t", rows=[[1]])
        with open(path, "ab") as f:
            f.write(b"torn-tail-the-writer-is-still-appending")
        size = path.stat().st_size
        with MutationJournal(path, readonly=True) as follower:
            assert follower.last_seq == 1
            assert follower.truncated_bytes > 0
            with pytest.raises(JournalError, match="readonly"):
                follower.append("add", "t", rows=[[2]])
        assert path.stat().st_size == size  # tail left for the owner

    def test_append_crash_window_loses_only_unacked(self, tmp_path):
        path = tmp_path / "m.journal"
        journal = MutationJournal(path)
        journal.append("add", "t", rows=[[1]])
        plan = FaultPlan(seed=3).inject("journal.append", kind="error", rate=1.0)
        with faults.injected(plan):
            with pytest.raises(FaultInjectedError):
                journal.append("add", "t", rows=[[2]])
        journal.close()
        with MutationJournal(path) as journal:
            assert journal.last_seq == 1  # the failed append left no trace


class TestJournaledMutations:
    def test_acknowledged_writes_reach_the_journal(self, tmp_path):
        backend = fresh_backend()
        journal = MutationJournal(tmp_path / "m.journal")
        backend.attach_journal(journal)
        probes = apply_workload(backend, count=24)
        assert probes
        assert backend.applied_seq == journal.last_seq > 0
        assert all(
            record.op in ("add", "delete") for record in journal.records()
        )

    def test_validation_failure_journals_nothing(self, tmp_path):
        backend = fresh_backend()
        journal = MutationJournal(tmp_path / "m.journal")
        backend.attach_journal(journal)
        table = backend.database.tables[0].name
        row = list(backend.database.tables[0].rows[0])
        with pytest.raises(Exception):
            backend.add_rows(table, [row])  # duplicate primary key
        assert journal.last_seq == 0
        assert backend.applied_seq == 0

    def test_replay_reproduces_rankings_bit_identically(self, tmp_path):
        path = tmp_path / "m.journal"
        source = fresh_backend()
        with MutationJournal(path) as journal:
            source.attach_journal(journal)
            probes = apply_workload(source, count=30)
        replayed = fresh_backend()
        with MutationJournal(path) as journal:
            assert replayed.replay_journal(journal) == journal.last_seq
        assert ranking_digest(replayed, probes) == ranking_digest(source, probes)

    def test_matrix_backend_round_trips_through_the_journal(self, tmp_path):
        """The configured tier-1 backend (memory or SQLite) must ack and
        replay the same journal identically."""
        path = tmp_path / "m.journal"
        db = seed_db()
        source = backend_for(db)
        with MutationJournal(path) as journal:
            source.attach_journal(journal)
            probes = apply_workload(source, count=20, db=db)
        again = backend_for(seed_db())
        with MutationJournal(path) as journal:
            again.replay_journal(journal)
        for probe in probes:
            assert again.attribute_scores(probe) == source.attribute_scores(probe)


class TestArtifactIntegrity:
    def test_byte_truncated_artifact_is_rejected(self, tmp_path):
        path = tmp_path / "index.npz"
        db = seed_db()
        FullTextIndex(db).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data) // 3])
        with pytest.raises(IndexArtifactError):
            FullTextIndex.load(path, seed_db())

    def test_bit_flipped_array_fails_its_checksum(self, tmp_path):
        import zipfile

        path = tmp_path / "index.npz"
        db = seed_db()
        FullTextIndex(db).save(path)
        # Rewrite the zip with one member's payload corrupted but sizes
        # intact — only the header checksum pass can catch this.
        corrupted = tmp_path / "corrupted.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(
            corrupted, "w", zipfile.ZIP_STORED
        ) as dst:
            for name in src.namelist():
                payload = src.read(name)
                if name != "header.npy" and len(payload) > 200:
                    payload = payload[:-50] + bytes(
                        b ^ 0xFF for b in payload[-50:]
                    )
                dst.writestr(name, payload)
        with pytest.raises(IndexArtifactError, match="checksum"):
            FullTextIndex.load(corrupted, seed_db())

    def test_save_is_atomic_under_replace_fault(self, tmp_path):
        path = tmp_path / "index.npz"
        backend = fresh_backend()
        backend.save_index(path)
        before = path.read_bytes()
        apply_workload(backend, count=10)
        plan = FaultPlan(seed=5).inject("artifact.replace", kind="error", rate=1.0)
        with faults.injected(plan):
            with pytest.raises(FaultInjectedError):
                backend.save_index(path)
        # The published artifact is byte-identical; no temp file leaks.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_peek_generation_tolerates_garbage(self, tmp_path):
        path = tmp_path / "index.npz"
        assert FullTextIndex.peek_generation(path) is None
        path.write_bytes(b"not a zip archive at all")
        assert FullTextIndex.peek_generation(path) is None


class TestRecover:
    def test_journal_only_recovery(self, tmp_path):
        path = tmp_path / "m.journal"
        source = fresh_backend()
        with MutationJournal(path) as journal:
            source.attach_journal(journal)
            probes = apply_workload(source, count=24)
            total = journal.last_seq
        recovered = fresh_backend()
        report = recover(recovered, path)
        assert report.replayed == total
        assert report.artifact_loaded is False
        assert recovered.applied_seq == total
        assert recovered.journal is not None  # ready for new writes
        assert ranking_digest(recovered, probes) == ranking_digest(source, probes)
        recovered.journal.close()

    def test_artifact_plus_tail_recovery(self, tmp_path):
        journal_path = tmp_path / "m.journal"
        artifact = tmp_path / "index.npz"
        source = fresh_backend()
        ops = mixed.generate_ops(source.database, 30, profile="oltp", seed=7)
        writes = mixed.write_ops(ops)
        with MutationJournal(journal_path) as journal:
            source.attach_journal(journal)
            half = len(writes) // 2
            for op in writes[:half]:
                mixed.apply_op(source, op)
            source.save_index(artifact)  # sealed at generation = applied_seq
            generation = source.applied_seq
            for op in writes[half:]:
                mixed.apply_op(source, op)
            total = journal.last_seq
        probes = [op.probe for op in writes if op.kind == "add"]

        recovered = fresh_backend()
        report = recover(recovered, journal_path, artifact)
        assert report.artifact_generation == generation
        assert report.artifact_loaded is True
        assert report.replayed_to_artifact == generation
        assert report.replayed_past_artifact == total - generation
        assert ranking_digest(recovered, probes) == ranking_digest(source, probes)
        recovered.journal.close()

    def test_corrupt_artifact_falls_back_to_rebuild(self, tmp_path):
        journal_path = tmp_path / "m.journal"
        artifact = tmp_path / "index.npz"
        source = fresh_backend()
        with MutationJournal(journal_path) as journal:
            source.attach_journal(journal)
            probes = apply_workload(source, count=16)
            source.save_index(artifact)
        # Truncate the artifact body: peek still reads the generation,
        # strict validation then refuses it.
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) - len(data) // 4])
        recovered = fresh_backend()
        report = recover(recovered, journal_path, artifact)
        assert report.artifact_loaded is False
        assert ranking_digest(recovered, probes) == ranking_digest(source, probes)
        recovered.journal.close()

    def test_recovered_backend_keeps_acknowledging(self, tmp_path):
        path = tmp_path / "m.journal"
        source = fresh_backend()
        with MutationJournal(path) as journal:
            source.attach_journal(journal)
            apply_workload(source, count=10)
        recovered = fresh_backend()
        recover(recovered, path)
        before = recovered.applied_seq
        more = apply_workload(recovered, count=10, seed=99)
        assert recovered.applied_seq > before
        assert more
        recovered.journal.close()
        # And a second recovery sees the post-crash writes too.
        final = fresh_backend()
        report = recover(final, path)
        assert final.applied_seq == recovered.applied_seq
        assert ranking_digest(final, more) == ranking_digest(recovered, more)
        final.journal.close()


#: Writer subprocess: journaled mixed writes with periodic republish,
#: acking each applied seq durably, under an inherited seeded FaultPlan.
WRITER_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from repro import faults
    from repro.datasets import mixed, mondial
    from repro.faults import FaultPlan
    from repro.journal import MutationJournal
    from repro.storage import create_backend

    journal_path, artifact_path, acks_path, point, after = sys.argv[1:6]
    db = mondial.generate(countries=%(countries)d, seed=%(seed)d)
    backend = create_backend("memory", db)
    journal = MutationJournal(journal_path)
    backend.attach_journal(journal)
    if point != "none":
        faults.install(
            FaultPlan(seed=41).inject(
                point, kind="crash", rate=1.0, after=int(after)
            )
        )
    ops = mixed.generate_ops(db, 60, profile="oltp", seed=7)
    acks = open(acks_path, "a")
    for i, op in enumerate(mixed.write_ops(ops)):
        mixed.apply_op(backend, op)
        acks.write(f"{backend.applied_seq}\\n")
        acks.flush()
        os.fsync(acks.fileno())
        if i %% 4 == 3:
            backend.save_index(artifact_path)
    os._exit(0)
    """
    % {"countries": SEED_COUNTRIES, "seed": SEED}
)


def run_writer(tmp_path, point, after, expect_crash=True):
    journal_path = tmp_path / "m.journal"
    artifact = tmp_path / "index.npz"
    acks = tmp_path / "acks.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    process = subprocess.run(
        [sys.executable, "-c", WRITER_SCRIPT,
         str(journal_path), str(artifact), str(acks), point, str(after)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if expect_crash:
        assert process.returncode == 13, process.stderr  # the crash exit_code
    else:
        assert process.returncode == 0, process.stderr
    acked = [int(line) for line in acks.read_text().split()] if acks.exists() else []
    return journal_path, artifact, acked


def assert_crash_invariant(journal_path, artifact, acked):
    """Acked ⊆ recovered, and recovery == clean rebuild of the journal."""
    recovered = fresh_backend()
    report = recover(recovered, journal_path, artifact if artifact.exists() else None)
    assert recovered.applied_seq >= (max(acked) if acked else 0)
    clean = fresh_backend()
    with MutationJournal(journal_path) as journal:
        clean.replay_journal(journal)
    assert recovered.applied_seq == clean.applied_seq
    probes = {
        f"probe7x{i}" for i in range(1, 40)
    }  # superset of every generated probe
    assert ranking_digest(recovered, sorted(probes)) == ranking_digest(
        clean, sorted(probes)
    )
    recovered.journal.close()
    return report


class TestCrashConsistency:
    @pytest.mark.parametrize(
        "point,after",
        [
            ("journal.append", 9),
            ("fs.fsync", 14),
            ("artifact.replace", 2),
            ("journal.append", 31),
        ],
    )
    def test_seeded_crash_points_never_lose_acked_writes(
        self, tmp_path, point, after
    ):
        journal_path, artifact, acked = run_writer(tmp_path, point, after)
        assert acked, "the writer crashed before acknowledging anything"
        assert_crash_invariant(journal_path, artifact, acked)

    def test_clean_writer_round_trips(self, tmp_path):
        journal_path, artifact, acked = run_writer(
            tmp_path, "none", 0, expect_crash=False
        )
        report = assert_crash_invariant(journal_path, artifact, acked)
        assert report.artifact_loaded is True
        assert report.artifact_generation is not None

    def test_sigkilled_writer_mid_stream(self, tmp_path):
        """kill -9 at an arbitrary moment: the invariant must hold
        wherever the writer happened to be."""
        journal_path = tmp_path / "m.journal"
        artifact = tmp_path / "index.npz"
        acks = tmp_path / "acks.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT,
             str(journal_path), str(artifact), str(acks), "none", "0"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if acks.exists() and acks.read_text().count("\n") >= 5:
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.01)
            if process.poll() is None:
                os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
        acked = (
            [int(line) for line in acks.read_text().split()]
            if acks.exists()
            else []
        )
        assert acked, "the writer was killed before acknowledging anything"
        assert_crash_invariant(journal_path, artifact, acked)

    def test_replay_fault_surfaces_not_corrupts(self, tmp_path):
        """A fault mid-replay aborts recovery loudly; re-running with the
        fault gone completes from the seed unharmed."""
        path = tmp_path / "m.journal"
        source = fresh_backend()
        with MutationJournal(path) as journal:
            source.attach_journal(journal)
            probes = apply_workload(source, count=12)
        plan = FaultPlan(seed=9).inject(
            "journal.replay", kind="error", rate=1.0, after=3
        )
        with faults.injected(plan):
            with pytest.raises(FaultInjectedError):
                recover(fresh_backend(), path)
        recovered = fresh_backend()
        recover(recovered, path)
        assert ranking_digest(recovered, probes) == ranking_digest(source, probes)
        recovered.journal.close()
