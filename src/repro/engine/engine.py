"""Single-attempt procedure execution.

The :class:`ExecutionEngine` runs one *attempt* of a stored procedure against
the in-memory database: it builds a :class:`TransactionContext`, invokes the
procedure's control code, and converts the three possible outcomes (commit,
user abort, misprediction abort) into an :class:`AttemptResult`.

Retry policy — what to do after a misprediction — is deliberately *not* here:
that is the coordinator's/strategy's job (see :mod:`repro.txn.coordinator`
and :mod:`repro.strategies`), because the whole point of the paper is that
different policies for the same misprediction produce very different
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from ..catalog.schema import Catalog
from ..errors import MispredictionAbort, UserAbort
from ..storage.partition_store import Database
from ..types import PartitionId, PartitionSet, ProcedureRequest, QueryInvocation
from .context import QueryListener, TransactionContext
from .executor import StatementExecutor


class AttemptOutcome(Enum):
    """How a single execution attempt ended."""

    COMMITTED = "committed"
    USER_ABORT = "user_abort"
    MISPREDICTION = "misprediction"


@dataclass
class AttemptResult:
    """Outcome of one execution attempt of a stored procedure."""

    outcome: AttemptOutcome
    procedure: str
    parameters: tuple[Any, ...]
    base_partition: PartitionId
    touched_partitions: PartitionSet
    invocations: list[QueryInvocation] = field(default_factory=list)
    return_value: Any = None
    abort_reason: str | None = None
    #: The partition whose access triggered a misprediction abort, if any.
    mispredicted_partition: PartitionId | None = None
    undo_records_written: int = 0
    undo_records_skipped: int = 0
    finished_partitions: frozenset[PartitionId] = frozenset()
    #: Partitions acquired late because a misprediction was detected after
    #: undo logging had been disabled (see TransactionContext._check_lock_set).
    escalated_partitions: frozenset[PartitionId] = frozenset()

    @property
    def committed(self) -> bool:
        return self.outcome is AttemptOutcome.COMMITTED

    @property
    def single_partitioned(self) -> bool:
        return len(self.touched_partitions) <= 1


class ExecutionEngine:
    """Runs stored procedures against the database, one attempt at a time."""

    def __init__(self, catalog: Catalog, database: Database) -> None:
        self.catalog = catalog
        self.database = database
        #: One stateless statement executor shared by every attempt.
        self.executor = StatementExecutor(catalog, database)

    def new_context(
        self,
        request: ProcedureRequest,
        *,
        txn_id: int = 0,
        base_partition: PartitionId = 0,
        locked_partitions: PartitionSet | None = None,
        undo_enabled: bool = True,
    ) -> TransactionContext:
        """Build a transaction context for a request without running it."""
        procedure = self.catalog.procedure(request.procedure)
        procedure.validate_parameters(request.parameters)
        return TransactionContext(
            self.catalog,
            self.database,
            procedure,
            request.parameters,
            txn_id=txn_id,
            base_partition=base_partition,
            locked_partitions=locked_partitions,
            undo_enabled=undo_enabled,
            executor=self.executor,
        )

    # ------------------------------------------------------------------
    def execute_attempt(
        self,
        request: ProcedureRequest,
        *,
        txn_id: int = 0,
        base_partition: PartitionId = 0,
        locked_partitions: PartitionSet | None = None,
        undo_enabled: bool = True,
        listeners: Sequence[QueryListener] = (),
    ) -> AttemptResult:
        """Run one attempt of ``request`` and return its outcome.

        On a user abort or misprediction abort the attempt's changes are
        rolled back before returning (using the undo log).  On commit the
        undo buffer is discarded.
        """
        context = self.new_context(
            request,
            txn_id=txn_id,
            base_partition=base_partition,
            locked_partitions=locked_partitions,
            undo_enabled=undo_enabled,
        )
        for listener in listeners:
            context.add_listener(listener)
        procedure = context.procedure
        try:
            return_value = procedure.run(context, *request.parameters)
        except UserAbort as abort:
            context.rollback()
            return self._result(
                AttemptOutcome.USER_ABORT, context, request, abort_reason=abort.reason
            )
        except MispredictionAbort as abort:
            context.rollback()
            return self._result(
                AttemptOutcome.MISPREDICTION,
                context,
                request,
                abort_reason=abort.reason,
                mispredicted_partition=abort.partition_id,
            )
        result = self._result(
            AttemptOutcome.COMMITTED, context, request, return_value=return_value
        )
        context.commit_cleanup()
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _result(
        outcome: AttemptOutcome,
        context: TransactionContext,
        request: ProcedureRequest,
        *,
        return_value: Any = None,
        abort_reason: str | None = None,
        mispredicted_partition: PartitionId | None = None,
    ) -> AttemptResult:
        return AttemptResult(
            outcome=outcome,
            procedure=request.procedure,
            parameters=tuple(request.parameters),
            base_partition=context.base_partition,
            touched_partitions=context.touched_partition_set,
            invocations=list(context.invocations),
            return_value=return_value,
            abort_reason=abort_reason,
            mispredicted_partition=mispredicted_partition,
            undo_records_written=context.undo_log.records_written,
            undo_records_skipped=context.undo_log.records_skipped,
            finished_partitions=frozenset(context.finished_partitions),
            escalated_partitions=frozenset(context.escalated_partitions),
        )
