"""Transient undo logging (OP3 substrate).

H-Store keeps a per-transaction, in-memory undo buffer that is discarded at
commit and replayed (in reverse) at abort.  The paper's OP3 optimization
disables this buffer for transactions that are predicted never to abort; the
cost of maintaining the buffer is what the optimization saves, and the danger
is that an abort after disabling it is unrecoverable.

The :class:`UndoLog` here is *real*: aborting a transaction rolls the
in-memory tables back to their previous state, and a rollback attempted while
logging is disabled raises :class:`~repro.errors.UnrecoverableError` so tests
can prove Houdini never triggers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..errors import UnrecoverableError


class UndoAction(Enum):
    """Kind of change recorded in an undo record."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class UndoRecord:
    """A single logical undo record.

    ``before_image`` is the full previous row for UPDATE/DELETE and ``None``
    for INSERT (undoing an insert simply deletes the row again).
    """

    action: UndoAction
    table: str
    partition_id: int
    row_id: int
    before_image: dict[str, Any] | None = None


class UndoLog:
    """Per-transaction undo buffer.

    The log may be *disabled* (OP3): records are then not retained, the
    counter of skipped records is kept for metrics, and any later attempt to
    roll back raises :class:`UnrecoverableError`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._records: list[UndoRecord] = []
        self._skipped = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        """Stop recording undo information (the OP3 optimization)."""
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records_written(self) -> int:
        """Number of records actually retained (undo-log maintenance cost)."""
        return len(self._records)

    @property
    def records_skipped(self) -> int:
        """Number of records that OP3 allowed the engine to skip."""
        return self._skipped

    # ------------------------------------------------------------------
    def record(self, record: UndoRecord) -> None:
        if self._enabled:
            self._records.append(record)
        else:
            self._skipped += 1

    def record_insert(self, table: str, partition_id: int, row_id: int) -> None:
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(UndoRecord(UndoAction.INSERT, table, partition_id, row_id))

    def note_skipped(self) -> None:
        """Count a record the caller proved unnecessary to even build.

        The executor uses this when undo logging is disabled to skip the
        before-image copy entirely while keeping the skipped-records metric
        (which drives OP3 accounting and lock-escalation safety) exact.
        """
        self._skipped += 1

    def record_update(
        self, table: str, partition_id: int, row_id: int, before_image: dict[str, Any]
    ) -> None:
        """Record a row's previous image.  The log takes ownership of
        ``before_image`` — callers must pass a dict they will not mutate
        afterwards (the row heap hands back a fresh copy)."""
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(
            UndoRecord(UndoAction.UPDATE, table, partition_id, row_id, before_image)
        )

    def record_delete(
        self, table: str, partition_id: int, row_id: int, before_image: dict[str, Any]
    ) -> None:
        """Record a deleted row.  Takes ownership of ``before_image`` (the
        heap no longer references the popped row dict)."""
        if not self._enabled:
            self._skipped += 1
            return
        self._records.append(
            UndoRecord(UndoAction.DELETE, table, partition_id, row_id, before_image)
        )

    # ------------------------------------------------------------------
    def rollback(self, store_resolver) -> int:
        """Undo every recorded change, newest first.

        ``store_resolver(partition_id)`` must return the
        :class:`~repro.storage.partition_store.PartitionStore` owning the
        partition.  Returns the number of records undone.

        Raises
        ------
        UnrecoverableError
            If changes were made while the log was disabled — the situation
            the paper describes as requiring the node to halt.
        """
        if self._skipped:
            raise UnrecoverableError(
                f"abort requested but {self._skipped} changes were made without undo logging"
            )
        undone = 0
        for record in reversed(self._records):
            store = store_resolver(record.partition_id)
            heap = store.heap(record.table)
            if record.action is UndoAction.INSERT:
                heap.delete(record.row_id)
            elif record.action is UndoAction.UPDATE:
                assert record.before_image is not None
                current = heap.get(record.row_id)
                heap.update(record.row_id, {
                    column: record.before_image[column]
                    for column in current
                })
            else:  # DELETE
                assert record.before_image is not None
                heap.insert_raw(record.before_image, record.row_id)
            undone += 1
        self._records.clear()
        return undone

    def clear(self) -> None:
        """Discard the buffer (what commit does)."""
        self._records.clear()
        self._skipped = 0
