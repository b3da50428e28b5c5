"""Seeded mixed read/write workloads for the live-mutation tier.

The durability work (journal, delta postings, atomic republish) is only
worth its complexity if search latency holds up *while writers churn* —
so the recovery suite and perfbench's ``write_oltp`` workload replay
deterministic interleavings of searches, batched inserts and batched
deletes against one backend.

Three profiles, named for the workloads they caricature:

========== ============= ==============================================
profile    reads/writes  shape
========== ============= ==============================================
ecommerce  85 / 15       browse-heavy storefront: mostly searches, a
                         steady trickle of catalogue updates.
oltp       40 / 60       write-dominated transactional system; the
                         delta buffer and merge cadence carry the load.
analytics  99 / 1        near-read-only reporting; writes are rare
                         corrections.
========== ============= ==============================================

Every ``add`` op carries a *probe* keyword that exists nowhere in the
seed data and lands in a text column of every inserted row. Searching
for the probe immediately after applying the op is therefore a **fresh
read** — it can only be answered by the delta layer, never by the sealed
snapshot — which is exactly the latency the benchmark wants to watch.
Deletes only target rows a previous ``add`` op in the same workload
inserted, so seed data survives and replaying any prefix of the op list
is always valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

from repro.db.types import DataType
from repro.errors import QuestError

__all__ = [
    "MixedOp",
    "MixedProfile",
    "PROFILES",
    "apply_op",
    "generate_ops",
    "write_ops",
]


@dataclass(frozen=True)
class MixedOp:
    """One step of a mixed workload.

    Attributes:
        kind: ``"search"``, ``"add"`` or ``"delete"``.
        query: the keyword query text (search ops only).
        table: the mutated table (write ops only).
        rows: full row tuples to insert (add ops only).
        keys: primary keys to delete (delete ops only).
        probe: a keyword unique to this op's inserted rows (add ops
            only) — search it after applying to measure a fresh read.
    """

    kind: str
    query: str = ""
    table: str = ""
    rows: tuple[tuple, ...] = ()
    keys: tuple[tuple, ...] = ()
    probe: str = ""


@dataclass(frozen=True)
class MixedProfile:
    """A read/write mix.

    Attributes:
        name: profile key in :data:`PROFILES`.
        read_fraction: probability an op is a search.
        delete_fraction: probability a *write* op is a delete (adds get
            the rest); deletes are silently turned into adds while
            nothing this workload inserted is left to delete.
    """

    name: str
    read_fraction: float
    delete_fraction: float


PROFILES: dict[str, MixedProfile] = {
    "ecommerce": MixedProfile("ecommerce", read_fraction=0.85, delete_fraction=0.3),
    "oltp": MixedProfile("oltp", read_fraction=0.40, delete_fraction=0.3),
    "analytics": MixedProfile("analytics", read_fraction=0.99, delete_fraction=0.2),
}


def _keyword_pool(db: Any, limit: int = 200) -> list[str]:
    """Deterministic sample of single tokens present in *db* text columns."""
    from repro.db.fulltext import tokenize_value

    pool: list[str] = []
    seen: set[str] = set()
    for table in db.tables:
        text_positions = [
            i
            for i, column in enumerate(table.schema.columns)
            if column.dtype is DataType.TEXT
        ]
        for row in table.rows:
            for position in text_positions:
                for token in tokenize_value(row[position]):
                    if token not in seen and len(token) >= 3:
                        seen.add(token)
                        pool.append(token)
            if len(pool) >= limit:
                break
        if len(pool) >= limit:
            break
    if not pool:
        raise QuestError("database has no text tokens to build queries from")
    return pool


def _fresh_row(
    table: Any, pk_counter: int, probe: str, words: list[str], rng: random.Random
) -> tuple:
    """A new valid row for *table* whose text fields contain *probe*."""
    values: list[Any] = []
    primary = set(table.schema.primary_key)
    probe_planted = False
    for column in table.schema.columns:
        if column.name in primary:
            if column.dtype is DataType.TEXT:
                values.append(f"{probe}-{pk_counter}")
                probe_planted = True
            else:
                values.append(pk_counter)
            continue
        if column.dtype is DataType.TEXT:
            values.append(f"{rng.choice(words)} {probe}")
            probe_planted = True
        elif column.dtype is DataType.INTEGER:
            values.append(rng.randrange(1, 1_000_000))
        elif column.dtype is DataType.FLOAT:
            values.append(round(rng.uniform(1.0, 10_000.0), 2))
        elif column.dtype is DataType.BOOLEAN:
            values.append(bool(rng.getrandbits(1)))
        else:  # DATE — deterministic, schema-agnostic
            values.append(None if column.nullable else "2001-01-01")
    if not probe_planted:
        raise QuestError(
            f"table {table.name!r} has no text column to carry a probe keyword"
        )
    return tuple(values)


def generate_ops(
    db: Any,
    count: int,
    profile: str = "ecommerce",
    seed: int = 11,
    table: str | None = None,
    batch: int = 4,
) -> list[MixedOp]:
    """A deterministic *count*-op mixed workload against *db*.

    Args:
        db: the seed :class:`~repro.db.database.Database` (only read —
            generation never mutates it).
        count: ops to generate.
        profile: a :data:`PROFILES` key.
        seed: RNG seed; same (db, args) → identical op list.
        table: the table write ops target; defaults to the first table
            with a non-text primary key and at least one text column.
        batch: rows per add op (deletes use up to the same batch size).
    """
    try:
        mix = PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise QuestError(
            f"unknown mixed-workload profile {profile!r} (known: {known})"
        ) from None
    rng = random.Random(seed)
    pool = _keyword_pool(db)
    target = db.table(table) if table is not None else _default_target(db)
    key_positions = [
        target.column_position(name) for name in target.schema.primary_key
    ]

    # PK allocation starts past everything the seed holds, so generated
    # adds can never collide with seed rows (or each other).
    pk_counter = _max_int_pk(target, key_positions) + 1

    ops: list[MixedOp] = []
    live_keys: list[tuple] = []  # keys inserted by this workload, not yet deleted
    probe_counter = 0
    for _ in range(count):
        roll = rng.random()
        if roll < mix.read_fraction:
            k = rng.randint(1, 3)
            ops.append(MixedOp(kind="search", query=" ".join(rng.sample(pool, k))))
            continue
        if live_keys and rng.random() < mix.delete_fraction:
            take = min(len(live_keys), rng.randint(1, batch))
            keys = tuple(live_keys.pop(rng.randrange(len(live_keys))) for _ in range(take))
            ops.append(MixedOp(kind="delete", table=target.name, keys=keys))
            continue
        probe_counter += 1
        probe = f"probe{seed}x{probe_counter}"
        rows = []
        for _ in range(batch):
            row = _fresh_row(target, pk_counter, probe, pool, rng)
            pk_counter += 1
            rows.append(row)
            live_keys.append(tuple(row[p] for p in key_positions))
        ops.append(
            MixedOp(kind="add", table=target.name, rows=tuple(rows), probe=probe)
        )
    return ops


def _default_target(db: Any) -> Any:
    for table in db.tables:
        has_text = any(
            column.dtype is DataType.TEXT
            and column.name not in table.schema.primary_key
            for column in table.schema.columns
        )
        if has_text:
            return table
    raise QuestError("no table with a non-key text column to mutate")


def _max_int_pk(table: Any, key_positions: list[int]) -> int:
    top = 0
    for row in table.rows:
        for position in key_positions:
            value = row[position]
            if isinstance(value, int) and value > top:
                top = value
    return top


def apply_op(backend: Any, op: MixedOp) -> None:
    """Apply one *write* op to *backend* (searches are the caller's job:
    the interesting part — which engine, what to time — is theirs)."""
    if op.kind == "add":
        backend.add_rows(op.table, [list(row) for row in op.rows])
    elif op.kind == "delete":
        backend.delete_rows(op.table, [list(key) for key in op.keys])
    else:
        raise QuestError(f"apply_op only applies writes, got {op.kind!r}")


def write_ops(ops: Iterable[MixedOp]) -> list[MixedOp]:
    """Just the mutation ops of a workload, in order."""
    return [op for op in ops if op.kind != "search"]
