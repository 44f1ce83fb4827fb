"""Statement executor.

Executes a bound :class:`~repro.catalog.statement.Statement` against the row
heaps of one or more partitions, recording undo information for writes.  The
executor is deliberately partition-oblivious about *policy*: it is told which
partitions to touch; deciding that set (and whether touching it is allowed)
is the transaction context's and coordinator's job.

Statements are executed tens of thousands of times per simulated run, so the
executor compiles a per-statement *access plan* on first use: the target
heap per partition is pre-resolved, and statements whose WHERE clause is an
exact primary-key match (the dominant OLTP access, "transactions touch a
small subset of data using index look-ups") bind their key tuple directly
from the parameters — no predicate dict, no generic access-path selection.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..catalog.schema import Catalog
from ..catalog.statement import BoundDelta, ColumnDelta, Operation, Statement
from ..errors import ExecutionError
from ..storage.heap import RowHeap
from ..storage.partition_store import Database
from ..storage.undo_log import UndoLog
from ..types import PartitionId, PartitionSet


class _AccessPlan:
    """Pre-resolved execution recipe for one statement."""

    __slots__ = (
        "statement",
        "table_name",
        "heaps",
        "pk_bindings",
        "pk_max_param",
        "update_touches_pk",
        "update_has_deltas",
    )

    def __init__(
        self,
        statement: Statement,
        table_name: str,
        heaps: tuple[RowHeap, ...],
        pk_bindings: tuple[tuple[int, Any], ...] | None,
        pk_max_param: int,
        update_touches_pk: bool,
        update_has_deltas: bool,
    ) -> None:
        self.statement = statement
        self.table_name = table_name
        self.heaps = heaps
        #: ``((is_param, payload), ...)`` aligned to the primary key, or
        #: ``None`` when the WHERE clause is not an exact primary-key match.
        self.pk_bindings = pk_bindings
        self.pk_max_param = pk_max_param
        self.update_touches_pk = update_touches_pk
        self.update_has_deltas = update_has_deltas


class StatementExecutor:
    """Executes individual statements against the in-memory database.

    Stateless with respect to any single transaction, so one instance is
    shared by every attempt an :class:`~repro.engine.engine.ExecutionEngine`
    runs.
    """

    def __init__(self, catalog: Catalog, database: Database) -> None:
        self.catalog = catalog
        self.database = database
        #: Direct partition-store list (bounds are enforced by the catalog's
        #: partition estimator before execution reaches this layer).
        self._stores = database._partitions
        #: Per-statement access plans, keyed by statement identity (the
        #: statement object is pinned inside the plan).
        self._plans: dict[int, _AccessPlan] = {}

    # ------------------------------------------------------------------
    def _plan_for(self, statement: Statement) -> _AccessPlan:
        plan = self._plans.get(id(statement))
        if plan is None:
            plan = self._compile(statement)
            self._plans[id(statement)] = plan
        return plan

    def _compile(self, statement: Statement) -> _AccessPlan:
        table = self.catalog.schema.table(statement.table)
        heaps = tuple(store._heaps[statement.table] for store in self._stores)
        where_plan, where_max_param = statement._where_plan
        pk_bindings: tuple[tuple[int, Any], ...] | None = None
        primary_key = tuple(table.primary_key or ())
        if primary_key and len(where_plan) == len(primary_key):
            by_column = {column: (kind, payload) for column, kind, payload in where_plan}
            if set(by_column) == set(primary_key):
                pk_bindings = tuple(by_column[column] for column in primary_key)
        update_touches_pk = any(
            column in primary_key for column in statement.set_values
        )
        update_has_deltas = any(
            isinstance(value, ColumnDelta) for value in statement.set_values.values()
        )
        return _AccessPlan(
            statement,
            statement.table,
            heaps,
            pk_bindings,
            where_max_param,
            update_touches_pk,
            update_has_deltas,
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        statement: Statement,
        parameters: Sequence[Any],
        partitions: Iterable[PartitionId],
        undo_log: UndoLog,
    ) -> list[dict[str, Any]]:
        """Execute ``statement`` at every partition in ``partitions``.

        Returns the merged result rows (for SELECT) or a single-row summary
        with the number of modified rows (for writes), matching the shape
        stored-procedure control code expects.
        """
        if type(partitions) is PartitionSet:
            partition_list: Sequence[PartitionId] = partitions.partitions
        else:
            partition_list = list(partitions)
        if not partition_list:
            raise ExecutionError(f"statement {statement.name!r} targeted no partitions")
        plan = self._plans.get(id(statement))
        if plan is None:
            plan = self._compile(statement)
            self._plans[id(statement)] = plan
        operation = statement.operation
        if operation is Operation.SELECT:
            bindings = plan.pk_bindings
            if bindings is not None and plan.pk_max_param < len(parameters):
                # Exact primary-key read: bind the key tuple straight from
                # the parameters and probe the unique index.
                key = tuple(
                    parameters[payload] if kind else payload
                    for kind, payload in bindings
                )
                output_columns = statement.output_columns
                rows: list[dict[str, Any]] = []
                heaps = plan.heaps
                for partition_id in partition_list:
                    for row in heaps[partition_id].pk_rows(key):
                        if output_columns:
                            rows.append({c: row[c] for c in output_columns})
                        else:
                            rows.append(dict(row))
                # A unique key yields at most one row per partition, so
                # per-partition ordering/limit are no-ops; only the
                # multi-partition merge (same rule as the generic path
                # below) can need them.
                if statement.order_by is not None and len(partition_list) > 1:
                    column, descending = statement.order_by
                    rows.sort(key=lambda r: r[column], reverse=descending)
                    if statement.limit is not None:
                        rows = rows[: statement.limit]
                return rows
            rows = []
            for partition_id in partition_list:
                rows.extend(self._select(plan, parameters, partition_id))
            if statement.order_by is not None and len(partition_list) > 1:
                column, descending = statement.order_by
                rows.sort(key=lambda r: r[column], reverse=descending)
                if statement.limit is not None:
                    rows = rows[: statement.limit]
            return rows
        modified = 0
        for partition_id in partition_list:
            modified += self._write(plan, parameters, partition_id, undo_log)
        return [{"modified": modified}]

    # ------------------------------------------------------------------
    def _select(
        self, plan: _AccessPlan, parameters: Sequence[Any], partition_id: PartitionId
    ) -> list[dict[str, Any]]:
        statement = plan.statement
        predicate = statement.bind_where(parameters)
        return plan.heaps[partition_id].select(
            predicate,
            output_columns=statement.output_columns,
            order_by=statement.order_by,
            limit=statement.limit,
        )

    def _write(
        self,
        plan: _AccessPlan,
        parameters: Sequence[Any],
        partition_id: PartitionId,
        undo_log: UndoLog,
    ) -> int:
        statement = plan.statement
        heap = plan.heaps[partition_id]
        operation = statement.operation
        if operation is Operation.INSERT:
            values = statement.bind_insert(parameters)
            row_id = heap.insert(values)
            undo_log.record_insert(plan.table_name, partition_id, row_id)
            return 1
        bindings = plan.pk_bindings
        if bindings is not None and plan.pk_max_param < len(parameters):
            key = tuple(
                parameters[payload] if kind else payload for kind, payload in bindings
            )
            bucket = heap.pk_row_ids(key)
            if operation is Operation.DELETE or plan.update_touches_pk:
                # The mutation below reindexes the bucket: iterate a copy.
                row_ids: Sequence[int] = list(bucket)
            else:
                row_ids = bucket
        else:
            predicate = statement.bind_where(parameters)
            row_ids = heap.find(predicate)
        if operation is Operation.UPDATE:
            assignments = statement.bind_set(parameters)
            has_deltas = plan.update_has_deltas
            if not has_deltas and row_ids:
                # One shared assignment dict for every matched row: validate
                # it once instead of per row.
                heap.table.validate_update(assignments)
            logging = undo_log.enabled
            for row_id in row_ids:
                if has_deltas:
                    resolved = self._resolve_deltas(heap.row(row_id), assignments)
                    before = heap.update(row_id, resolved, capture_before=logging)
                else:
                    before = heap.update(
                        row_id, assignments, validate=False, capture_before=logging
                    )
                if logging:
                    undo_log.record_update(plan.table_name, partition_id, row_id, before)
                else:
                    # OP3 active: no image was built, but the skipped-record
                    # count must stay exact.
                    undo_log.note_skipped()
            return len(row_ids)
        if operation is Operation.DELETE:
            count = 0
            for row_id in row_ids:
                before = heap.delete(row_id)
                undo_log.record_delete(plan.table_name, partition_id, row_id, before)
                count += 1
            return count
        raise ExecutionError(f"unsupported operation {operation!r}")  # pragma: no cover

    @staticmethod
    def _resolve_deltas(current_row: dict[str, Any], assignments: dict[str, Any]) -> dict[str, Any]:
        resolved: dict[str, Any] = {}
        for column, value in assignments.items():
            if isinstance(value, BoundDelta):
                resolved[column] = current_row[column] + value.amount
            else:
                resolved[column] = value
        return resolved
