"""Transaction execution context.

The :class:`TransactionContext` is the object handed to stored-procedure
control code (Fig. 2's ``run`` method).  It is responsible for

* resolving statement names to :class:`~repro.catalog.statement.Statement`
  definitions,
* computing the partitions each invocation accesses (the internal API),
* enforcing the coordinator's lock set — touching a partition outside the
  locked set raises :class:`~repro.errors.MispredictionAbort`,
* recording every invocation (the transaction's *actual execution path*,
  which Houdini and the Markov-model builder consume),
* maintaining the per-transaction undo log,
* notifying registered listeners (the Houdini runtime monitor) after each
  query.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..catalog.procedure import StoredProcedure
from ..catalog.schema import Catalog
from ..errors import MispredictionAbort, UserAbort
from ..storage.partition_store import Database
from ..storage.undo_log import UndoLog
from ..types import PartitionId, PartitionSet, QueryInvocation
from .executor import StatementExecutor

#: Listener signature: called after each query with (context, invocation).
QueryListener = Callable[["TransactionContext", QueryInvocation], None]


class TransactionContext:
    """Execution state for a single transaction attempt."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        procedure: StoredProcedure,
        parameters: Sequence[Any],
        *,
        txn_id: int = 0,
        base_partition: PartitionId = 0,
        locked_partitions: PartitionSet | None = None,
        undo_enabled: bool = True,
        executor: StatementExecutor | None = None,
    ) -> None:
        self.catalog = catalog
        self.database = database
        self.procedure = procedure
        self.parameters = tuple(parameters)
        self.txn_id = txn_id
        self.base_partition = base_partition
        #: Partitions the coordinator locked for this transaction.  ``None``
        #: means every partition is available (a fully distributed txn).
        self.locked_partitions = locked_partitions
        self.undo_log = UndoLog(enabled=undo_enabled)
        # The statement executor is stateless; the engine shares one across
        # attempts instead of allocating one per transaction.
        self.executor = executor or StatementExecutor(catalog, database)
        #: Direct table lookup (statement.table is catalog-validated).
        self._tables = catalog.schema._tables
        self.invocations: list[QueryInvocation] = []
        self.touched_partitions: set[PartitionId] = set()
        self._statement_counters: dict[str, int] = {}
        self._listeners: list[QueryListener] = []
        self.finished_partitions: set[PartitionId] = set()
        #: Partitions added to the lock set *after* undo logging had been
        #: disabled.  Aborting such a transaction would be unrecoverable, so
        #: the engine escalates the lock set instead of restarting; the
        #: simulator charges the late acquisition as a stall.
        self.escalated_partitions: set[PartitionId] = set()

    # ------------------------------------------------------------------
    # Listener registration (Houdini runtime monitoring)
    # ------------------------------------------------------------------
    def add_listener(self, listener: QueryListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # API used by stored-procedure control code
    # ------------------------------------------------------------------
    def execute(self, statement_name: str, parameters: Sequence[Any]) -> list[dict[str, Any]]:
        """Execute one of the procedure's statements.

        Raises
        ------
        MispredictionAbort
            If the statement touches a partition outside the coordinator's
            lock set.  The coordinator catches this, rolls back and restarts
            the transaction with a larger lock set (Section 2, OP2).
        """
        statement = self.procedure.statement(statement_name)
        table = self._tables[statement.table]
        partitions = self.catalog.estimator.partitions_for(
            table, statement, parameters, base_partition=self.base_partition
        )
        self._check_lock_set(partitions)
        counter = self._statement_counters.get(statement_name, 0)
        self._statement_counters[statement_name] = counter + 1
        rows = self.executor.execute(statement, parameters, partitions, self.undo_log)
        invocation = QueryInvocation(
            statement=statement_name,
            parameters=tuple(parameters),
            partitions=partitions,
            counter=counter,
            query_type=statement.query_type,
        )
        self.invocations.append(invocation)
        self.touched_partitions.update(partitions.partitions)
        for listener in self._listeners:
            listener(self, invocation)
        return rows

    def abort(self, reason: str = "") -> None:
        """Roll back the transaction from inside control code."""
        raise UserAbort(reason)

    # ------------------------------------------------------------------
    # API used by the coordinator / Houdini runtime
    # ------------------------------------------------------------------
    def disable_undo_logging(self) -> None:
        """Apply OP3: stop recording undo information for later queries."""
        self.undo_log.disable()

    def mark_partition_finished(self, partition_id: PartitionId) -> None:
        """Apply OP4: record that this transaction is done with a partition."""
        self.finished_partitions.add(partition_id)

    def rollback(self) -> int:
        """Undo every change this attempt made."""
        return self.undo_log.rollback(self.database.partition)

    def commit_cleanup(self) -> None:
        """Discard the undo buffer after a successful commit."""
        self.undo_log.clear()

    # ------------------------------------------------------------------
    @property
    def touched_partition_set(self) -> PartitionSet:
        return PartitionSet.of(self.touched_partitions)

    def query_count(self) -> int:
        return len(self.invocations)

    def _check_lock_set(self, partitions: PartitionSet) -> None:
        if self.locked_partitions is None:
            return
        allowed = self.locked_partitions.as_frozenset()
        for partition_id in partitions.partitions:
            if partition_id not in allowed:
                if self.undo_log.records_skipped > 0:
                    # The transaction already wrote data without undo records
                    # (OP3); restarting it is impossible, so the only safe
                    # recovery from the OP2 misprediction is to escalate the
                    # lock set and keep going.
                    self.locked_partitions = self.locked_partitions.union(
                        PartitionSet.of([partition_id])
                    )
                    self.escalated_partitions.add(partition_id)
                    allowed = self.locked_partitions.as_frozenset()
                    continue
                raise MispredictionAbort(partition_id)
