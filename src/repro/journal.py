"""Write-ahead mutation journal: the durability floor of live mutation.

Every batched mutation (``add_rows``/``delete_rows``) is appended here
*before* it is applied to the storage backend, and the append is fsync'd
before the mutation is acknowledged — so an acknowledged write survives
``kill -9`` at any later point and is reconstructed by replay on boot.

Record framing (all integers little-endian)::

    [length: u32][crc32c: u32][payload: `length` bytes of UTF-8 JSON]

The payload is a compact JSON object::

    {"seq": <int>, "op": "add"|"delete", "table": <name>,
     "rows": [[...], ...]}            # op == "add"
    {"seq": ..., "op": "delete", "table": ..., "keys": [[...], ...]}

``seq`` is a per-journal monotonic sequence number starting at 1; it is
the unit the artifact *generation* and the backend's ``applied_seq``
speak in. Dates are journaled as ISO strings and booleans as JSON
booleans; replay funnels rows back through the schema's normalisation
(:func:`repro.db.types.coerce`), so a round-tripped row is value-equal
to the original.

Torn tails: a crash mid-append can leave a partial record at the end of
the file. :meth:`MutationJournal.open` scans forward record by record,
verifying each length/CRC pair, and truncates the file at the first
invalid byte — everything before it is intact (CRC32C-verified),
everything after was never acknowledged. A corrupt record *before* the
tail (bit rot, not a torn write) raises :class:`JournalCorruptError`
instead: silently dropping acknowledged history is the one thing a
journal must never do.

The checksum is CRC32C (Castagnoli) — the polynomial used by ext4,
iSCSI and leveldb journals — implemented in pure Python (table-driven;
the stdlib only ships the IEEE polynomial as ``zlib.crc32``). Journal
records are small, so the software CRC is never on a hot path.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Iterator

from repro import faults
from repro.errors import JournalCorruptError, JournalError

__all__ = ["MutationJournal", "MutationRecord", "crc32c"]

_HEADER = struct.Struct("<II")  # (payload length, crc32c of payload)
#: Guard against reading an absurd length from a torn/corrupt header.
_MAX_RECORD_BYTES = 64 * 1024 * 1024

_CRC32C_POLY = 0x82F63B78


def _crc_table() -> list[int]:
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _crc_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of *data*, optionally continuing from *crc*."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _json_default(value: Any) -> Any:
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"cannot journal value of type {type(value).__name__}")


@dataclass(frozen=True)
class MutationRecord:
    """One acknowledged (or at least fully journaled) mutation."""

    seq: int
    op: str
    table: str
    rows: tuple[tuple, ...] = ()
    keys: tuple[tuple, ...] = ()

    @classmethod
    def from_payload(cls, payload: dict) -> "MutationRecord":
        return cls(
            seq=int(payload["seq"]),
            op=str(payload["op"]),
            table=str(payload["table"]),
            rows=tuple(tuple(row) for row in payload.get("rows", ())),
            keys=tuple(tuple(key) for key in payload.get("keys", ())),
        )


class MutationJournal:
    """Append-only, CRC-framed, fsync'd mutation log for one source.

    Opening scans the whole file: valid records establish ``last_seq``,
    a torn tail is truncated (``truncated_bytes`` records how much), a
    corrupt interior record raises :class:`JournalCorruptError`.

    ``readonly=True`` opens a *follower* view for a process that only
    reads (a replica replaying the writer's log, or a check that the
    writer left the file well-formed):
    the file is opened read-only, a torn tail is skipped but **never**
    truncated (the writer may be mid-append at that very byte), and
    :meth:`append` refuses. Only the owning writer repairs the file.
    """

    def __init__(self, path: str | os.PathLike, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self.truncated_bytes = 0
        self._last_seq = 0
        self._record_count = 0
        self._closed = False
        if readonly:
            # Followers never create or repair: the file must exist.
            self._file = open(self.path, "rb")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # "a+b" creates the file when missing and confines every
            # write to the end — exactly the append-only discipline the
            # format assumes. Reads seek freely.
            self._file = open(self.path, "a+b")
        try:
            self._scan()
        except BaseException:
            self._file.close()
            raise

    # -- opening ---------------------------------------------------------

    def _scan(self) -> None:
        """Validate the file, set ``last_seq``, truncate a torn tail."""
        self._file.seek(0)
        data = self._file.read()
        offset = 0
        end = len(data)
        valid_end = 0
        while offset < end:
            frame = self._frame_at(data, offset)
            if frame is None:  # torn tail: truncate and stop
                break
            payload_bytes, next_offset = frame
            try:
                record = MutationRecord.from_payload(json.loads(payload_bytes))
            except (ValueError, KeyError, TypeError) as exc:
                raise JournalCorruptError(
                    f"{self.path}: CRC-valid record at byte {offset} is not "
                    f"a mutation payload: {exc}"
                ) from exc
            if record.seq != self._last_seq + 1:
                raise JournalCorruptError(
                    f"{self.path}: sequence gap at byte {offset}: expected "
                    f"seq {self._last_seq + 1}, found {record.seq}"
                )
            self._last_seq = record.seq
            self._record_count += 1
            valid_end = next_offset
            offset = next_offset
        if valid_end < end:
            tail = end - valid_end
            # A torn record can only be the *last* thing in the file —
            # every append is framed and fsync'd before the next starts.
            # Anything CRC-invalid after a valid interior record is
            # therefore a torn tail, never silent interior loss.
            self.truncated_bytes = tail
            if not self.readonly:
                self._file.truncate(valid_end)
                self._file.flush()
                os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)

    @staticmethod
    def _frame_at(data: bytes, offset: int) -> tuple[bytes, int] | None:
        """The payload at *offset* and the next offset, or ``None`` if torn."""
        if offset + _HEADER.size > len(data):
            return None
        length, checksum = _HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD_BYTES:
            return None
        start = offset + _HEADER.size
        if start + length > len(data):
            return None
        payload = data[start : start + length]
        if crc32c(payload) != checksum:
            return None
        return payload, start + length

    # -- writing ---------------------------------------------------------

    def append(
        self,
        op: str,
        table: str,
        rows: tuple[tuple, ...] | list | None = None,
        keys: tuple[tuple, ...] | list | None = None,
    ) -> int:
        """Frame, append and fsync one mutation; return its ``seq``.

        Returning *is* the acknowledgement: once this method returns,
        the record is durable and recovery will replay it.
        """
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        if self.readonly:
            raise JournalError(f"{self.path}: journal opened readonly")
        if op not in ("add", "delete"):
            raise JournalError(f"unknown journal op {op!r}")
        seq = self._last_seq + 1
        payload: dict[str, Any] = {"seq": seq, "op": op, "table": table}
        if rows is not None:
            payload["rows"] = [list(row) for row in rows]
        if keys is not None:
            payload["keys"] = [list(key) for key in keys]
        data = json.dumps(
            payload, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
        faults.fire("journal.append")
        self._file.write(_HEADER.pack(len(data), crc32c(data)))
        self._file.write(data)
        self._file.flush()
        faults.fire("fs.fsync")
        os.fsync(self._file.fileno())
        self._last_seq = seq
        self._record_count += 1
        return seq

    # -- reading ---------------------------------------------------------

    def records(self, after_seq: int = 0) -> Iterator[MutationRecord]:
        """Yield every journaled record with ``seq > after_seq``, in order."""
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        self._file.flush()
        self._file.seek(0)
        data = self._file.read()
        self._file.seek(0, os.SEEK_END)
        offset = 0
        while offset < len(data):
            frame = self._frame_at(data, offset)
            if frame is None:  # pragma: no cover - scan() truncated tails
                break
            payload_bytes, offset = frame
            record = MutationRecord.from_payload(json.loads(payload_bytes))
            if record.seq > after_seq:
                yield record

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    def __len__(self) -> int:
        return self._record_count

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()

    def __enter__(self) -> "MutationJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutationJournal(path={str(self.path)!r}, "
            f"records={self._record_count}, last_seq={self._last_seq})"
        )
