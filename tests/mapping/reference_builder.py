"""All-pairs parameter-mapping discovery: the reference for the tally builder.

This is the direct reading of paper §4.1: for every query invocation, every
scalar query parameter is compared with every procedure parameter (or, for
an array procedure parameter, with the element aligned with the query's
invocation counter), and each (statement, query slot, procedure parameter)
pair keeps per-position comparison and match counts.  It costs one
comparison per pair per invocation, which is why the package builds the
same entries from per-record value indexes and a tally instead.  The tests
hold the two to identical ``entries`` lists, order and coefficient bits
included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.mapping.parameter_mapping import (
    DEFAULT_COEFFICIENT_THRESHOLD,
    MappingEntry,
    ParameterMapping,
    geometric_mean,
)
from repro.workload.trace import TransactionTraceRecord, WorkloadTrace


@dataclass
class PairCounter:
    """Match counts per alignment position for one candidate pair."""

    matches: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    comparisons: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, position: int, matched: bool) -> None:
        self.comparisons[position] += 1
        if matched:
            self.matches[position] += 1

    def coefficient(self) -> float:
        ratios = []
        for position, total in self.comparisons.items():
            if total <= 0:
                continue
            ratios.append(self.matches[position] / total)
        return geometric_mean(ratios)

    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())


class AllPairsMappingBuilder:
    """Builds one procedure's mapping by comparing every parameter pair."""

    def __init__(
        self,
        *,
        threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
        min_comparisons: int = 3,
    ) -> None:
        self.threshold = threshold
        self.min_comparisons = min_comparisons

    def build(self, trace: WorkloadTrace, procedure_name: str) -> ParameterMapping:
        scalar_pairs: dict[tuple[str, int, int], PairCounter] = defaultdict(PairCounter)
        array_pairs: dict[tuple[str, int, int], PairCounter] = defaultdict(PairCounter)
        for record in trace:
            if record.procedure != procedure_name:
                continue
            self._scan_record(record, scalar_pairs, array_pairs)
        mapping = ParameterMapping(procedure_name, threshold=self.threshold)
        self._emit_entries(mapping, scalar_pairs, array_aligned=False)
        self._emit_entries(mapping, array_pairs, array_aligned=True)
        return mapping

    def _scan_record(
        self, record: TransactionTraceRecord, scalar_pairs, array_pairs
    ) -> None:
        counters: dict[str, int] = defaultdict(int)
        for query in record.queries:
            counter = counters[query.statement]
            counters[query.statement] += 1
            for query_index, query_value in enumerate(query.parameters):
                if isinstance(query_value, (list, tuple)):
                    continue
                for proc_index, proc_value in enumerate(record.parameters):
                    key = (query.statement, query_index, proc_index)
                    if isinstance(proc_value, (list, tuple)):
                        if counter < len(proc_value):
                            array_pairs[key].record(
                                counter, values_equal(proc_value[counter], query_value)
                            )
                    else:
                        scalar_pairs[key].record(
                            counter, values_equal(proc_value, query_value)
                        )

    def _emit_entries(self, mapping: ParameterMapping, pairs, *, array_aligned: bool) -> None:
        for (statement, query_index, proc_index), counter in pairs.items():
            if counter.total_comparisons() < self.min_comparisons:
                continue
            coefficient = counter.coefficient()
            if coefficient < self.threshold:
                continue
            mapping.add(MappingEntry(
                statement=statement,
                query_param_index=query_index,
                procedure_param_index=proc_index,
                array_aligned=array_aligned,
                coefficient=coefficient,
            ))


def values_equal(left: Any, right: Any) -> bool:
    """Value equality that never treats booleans and integers as equal."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right
