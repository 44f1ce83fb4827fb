"""Markov-model construction from workload traces (paper §3.2).

The builder replays each trace record's query sequence, computes the
partitions every query accesses using the catalog's partition estimator (the
"internal API for the target cluster configuration"), and folds the resulting
path into the procedure's model.  Because partitions are re-estimated from
parameters rather than copied from the trace, the same trace can be used to
build models for *any* cluster size — exactly the property the paper relies
on when it regenerates models after a repartitioning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..catalog.procedure import StoredProcedure
from ..catalog.schema import Catalog
from ..errors import ModelError
from ..types import PartitionId, PartitionSet, QueryInvocation
from ..workload.trace import TransactionTraceRecord, WorkloadTrace
from .model import MarkovModel, PathStep

#: Chooses the base partition assumed for a trace record (controls where
#: replicated-table reads are located).
TraceBaseChooser = Callable[[TransactionTraceRecord], PartitionId]


def steps_from_queries(
    catalog: Catalog,
    procedure: StoredProcedure,
    queries: Sequence[tuple[str, Sequence]],
    base_partition: PartitionId,
) -> list[PathStep]:
    """Convert (statement, parameters) pairs into :class:`PathStep` objects.

    Tracks the per-statement invocation counter and the accumulated
    previously-accessed partition set, the two history components of the
    vertex identity.
    """
    steps: list[PathStep] = []
    counters: dict[str, int] = {}
    previous = PartitionSet.of([])
    for statement_name, parameters in queries:
        statement = procedure.statement(statement_name)
        table = catalog.schema.table(statement.table)
        partitions = catalog.estimator.partitions_for(
            table, statement, parameters, base_partition=base_partition
        )
        counter = counters.get(statement_name, 0)
        counters[statement_name] = counter + 1
        steps.append(PathStep(
            statement=statement_name,
            query_type=statement.query_type,
            partitions=partitions,
            previous=previous,
            counter=counter,
        ))
        previous = previous.union(partitions)
    return steps


def steps_from_invocations(invocations: Sequence[QueryInvocation]) -> list[PathStep]:
    """Convert already-executed invocations (with known partitions) to steps."""
    steps: list[PathStep] = []
    previous = PartitionSet.of([])
    for invocation in invocations:
        steps.append(PathStep(
            statement=invocation.statement,
            query_type=invocation.query_type,
            partitions=invocation.partitions,
            previous=previous,
            counter=invocation.counter,
        ))
        previous = previous.union(invocation.partitions)
    return steps


class MarkovModelBuilder:
    """Builds one Markov model per stored procedure from a workload trace."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        base_partition_chooser: TraceBaseChooser | None = None,
        precompute_tables: bool = True,
    ) -> None:
        self.catalog = catalog
        self.precompute_tables = precompute_tables
        self._choose_base = base_partition_chooser or self._default_base_chooser

    # ------------------------------------------------------------------
    def build(self, trace: WorkloadTrace) -> dict[str, MarkovModel]:
        """Build models for every procedure present in ``trace``."""
        return {
            procedure_name: self._build_model(procedure_name, records)
            for procedure_name, records in trace.by_procedure().items()
        }

    def build_for_procedure(
        self, trace: WorkloadTrace, procedure_name: str
    ) -> MarkovModel:
        """Build (and process) the model for one procedure."""
        return self._build_model(
            procedure_name, (r for r in trace if r.procedure == procedure_name)
        )

    def _build_model(
        self, procedure_name: str, records: Iterable[TransactionTraceRecord]
    ) -> MarkovModel:
        model = MarkovModel(procedure_name, self.catalog.num_partitions)
        self.extend(model, records)
        model.process(precompute_tables=self.precompute_tables)
        return model

    def extend(self, model: MarkovModel, records: Iterable[TransactionTraceRecord]) -> int:
        """Construction phase only: fold records into an existing model."""
        added = 0
        for record in records:
            if record.procedure != model.procedure:
                raise ModelError(
                    f"record for {record.procedure!r} cannot extend model of "
                    f"{model.procedure!r}"
                )
            steps = self.steps_for_record(record)
            model.add_path(steps, aborted=record.aborted)
            added += 1
        return added

    def steps_for_record(self, record: TransactionTraceRecord) -> list[PathStep]:
        """Compute the path steps (with partition estimates) for one record."""
        procedure = self.catalog.procedure(record.procedure)
        base_partition = self._choose_base(record)
        queries = [(q.statement, q.parameters) for q in record.queries]
        return steps_from_queries(self.catalog, procedure, queries, base_partition)

    # ------------------------------------------------------------------
    def _default_base_chooser(self, record: TransactionTraceRecord) -> PartitionId:
        """Home partition of the first scalar parameter (same as the recorder)."""
        for value in record.parameters:
            if isinstance(value, (int, str)) and not isinstance(value, bool):
                return self.catalog.scheme.partition_for_value(value)
        return 0


def build_models_from_trace(
    catalog: Catalog,
    trace: WorkloadTrace,
    *,
    base_partition_chooser: TraceBaseChooser | None = None,
    precompute_tables: bool = True,
) -> dict[str, MarkovModel]:
    """Convenience wrapper: build and process models for a whole trace."""
    builder = MarkovModelBuilder(
        catalog,
        base_partition_chooser=base_partition_chooser,
        precompute_tables=precompute_tables,
    )
    return builder.build(trace)


def models_summary(models: Mapping[str, MarkovModel]) -> str:
    """One-line-per-model summary used by examples and experiment logs."""
    lines = []
    for name in sorted(models):
        model = models[name]
        lines.append(
            f"{name}: {model.vertex_count()} vertices, {model.edge_count()} edges, "
            f"{model.transactions_observed} transactions"
        )
    return "\n".join(lines)
