"""Derives parameter mappings from workload traces by dynamic analysis.

Paper §4.1 compares every query parameter with every procedure parameter
over the trace: for each (statement, query slot, procedure parameter) pair
it counts comparisons and matches per position (the query's invocation
counter, which is also the element index for array procedure parameters),
turns each position's counts into a match ratio, and folds the ratios into
one coefficient with a geometric mean.  Pairs below the pruning threshold
are dropped as coincidences.

Comparing pair by pair costs one comparison per procedure parameter for
every scalar query parameter in the trace.  This builder gets the same
counts from a tally instead:

* per record, an index maps each scalar procedure-parameter value to the
  bitmask of procedure parameters holding it, and a per-position index does
  the same for the array elements at one invocation counter;
* each scalar query parameter then costs one lookup per index and one
  increment of ``tally[(statement, slot, counter, scalar mask, scalar-match
  mask, live-array mask, array-match mask)]``, where the scalar mask marks
  the record's scalar procedure parameters and the live-array mask its
  arrays long enough to have an element at ``counter``;
* at emit time every tally entry is expanded into the per-pair, per-position
  comparison and match counts it stands for.

The output is exactly the pair-by-pair one: the same entries in the same
order with the same coefficient bits.  A tally key fixes which pairs it
compares and which of them match, so the expanded counts are equal integers.
Pairs and their positions are created in tally order, and a pair's first
tally entry is the one recorded at the pair's first comparison, so both
appear in the order the pair-by-pair scan first met them; the coefficient
then folds the same ratios in the same order.  Matching keeps the
comparison's semantics, ``procedure value == query value`` with booleans
never equal to numbers: the indexes keep booleans apart from other values,
and values a hash lookup would misjudge are compared by hand.  Those are
unhashable values and values unequal to themselves such as NaN, which a
lookup would match to the same object.  Every other value is trusted to
keep Python's hashing contract (equal values hash equal) with an equality
that is transitive, as the numbers, strings and ``None`` of a trace do.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog.schema import Catalog
from ..workload.trace import TransactionTraceRecord, WorkloadTrace
from .parameter_mapping import (
    DEFAULT_COEFFICIENT_THRESHOLD,
    MappingEntry,
    ParameterMapping,
    ParameterMappingSet,
    geometric_mean,
)

#: ``(plain values, booleans, by-hand values, all values)``: the first two
#: map a value to the bitmask of procedure parameters holding it; the last two
#: list ``(bit, value)`` pairs, those a hash lookup could misjudge and all.
_ValueIndex = tuple[
    dict[Any, int], dict[bool, int], list[tuple[int, Any]], list[tuple[int, Any]]
]

#: ``(statement, query slot, procedure parameter) -> {position: [comparisons,
#: matches]}``, in first-comparison order.
_PairCounts = dict[tuple[str, int, int], dict[int, list[int]]]


class ParameterMappingBuilder:
    """Builds :class:`ParameterMapping` objects from traces."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
        min_comparisons: int = 3,
    ) -> None:
        self.catalog = catalog
        self.threshold = threshold
        #: Pairs observed fewer times than this are ignored: a single lucky
        #: match should not create a mapping.
        self.min_comparisons = min_comparisons

    # ------------------------------------------------------------------
    def build_all(self, trace: WorkloadTrace) -> ParameterMappingSet:
        """Build mappings for every procedure appearing in ``trace``."""
        mapping_set = ParameterMappingSet()
        for procedure_name, records in trace.by_procedure().items():
            mapping_set.add(self._build(procedure_name, records))
        return mapping_set

    def build(self, trace: WorkloadTrace, procedure_name: str) -> ParameterMapping:
        """Build the mapping for one procedure from its trace records."""
        return self._build(
            procedure_name, [r for r in trace if r.procedure == procedure_name]
        )

    def _build(
        self, procedure_name: str, records: Sequence[TransactionTraceRecord]
    ) -> ParameterMapping:
        self.catalog.procedure(procedure_name)  # unknown procedures raise here
        scalar_pairs: _PairCounts = {}
        array_pairs: _PairCounts = {}
        for key, count in _tally(records).items():
            statement, slot, counter, scalars, scalar_matches, live, array_matches = key
            _spread(scalar_pairs, statement, slot, counter, scalars, scalar_matches, count)
            _spread(array_pairs, statement, slot, counter, live, array_matches, count)
        mapping = ParameterMapping(procedure_name, threshold=self.threshold)
        self._emit_entries(mapping, scalar_pairs, array_aligned=False)
        self._emit_entries(mapping, array_pairs, array_aligned=True)
        return mapping

    def _emit_entries(
        self, mapping: ParameterMapping, pairs: _PairCounts, *, array_aligned: bool
    ) -> None:
        for (statement, query_index, proc_index), positions in pairs.items():
            if sum(cell[0] for cell in positions.values()) < self.min_comparisons:
                continue
            coefficient = geometric_mean([
                matches / comparisons for comparisons, matches in positions.values()
            ])
            if coefficient < self.threshold:
                continue
            mapping.add(MappingEntry(
                statement=statement,
                query_param_index=query_index,
                procedure_param_index=proc_index,
                array_aligned=array_aligned,
                coefficient=coefficient,
            ))


def _tally(records: Sequence[TransactionTraceRecord]) -> dict[tuple, int]:
    """Count scalar query parameters by what they are compared with and match."""
    tally: dict[tuple, int] = {}
    for record in records:
        scalars = 0
        scalar_index = _new_index()
        arrays: list[tuple[int, Sequence]] = []
        for proc_index, value in enumerate(record.parameters):
            if isinstance(value, (list, tuple)):
                arrays.append((1 << proc_index, value))
            else:
                scalars |= 1 << proc_index
                _index_value(scalar_index, 1 << proc_index, value)
        # Element indexes by invocation counter, built on first use.
        element_indexes: dict[int, tuple[int, _ValueIndex]] = {}
        counters: dict[str, int] = {}
        for query in record.queries:
            statement = query.statement
            counter = counters.get(statement, 0)
            counters[statement] = counter + 1
            live = 0
            if arrays:
                position = element_indexes.get(counter)
                if position is None:
                    position = element_indexes[counter] = _element_index(arrays, counter)
                live, element_index = position
            for slot, value in enumerate(query.parameters):
                if isinstance(value, (list, tuple)):
                    continue
                scalar_matches = _matches(scalar_index, value)
                array_matches = _matches(element_index, value) if live else 0
                key = (statement, slot, counter, scalars, scalar_matches, live, array_matches)
                tally[key] = tally.get(key, 0) + 1
    return tally


def _new_index() -> _ValueIndex:
    return ({}, {}, [], [])


def _index_value(index: _ValueIndex, bit: int, value: Any) -> None:
    plain, booleans, by_hand, values = index
    values.append((bit, value))
    try:
        if value == value:
            table = booleans if value.__class__ is bool else plain
            table[value] = table.get(value, 0) | bit
            return
    except TypeError:  # unhashable
        pass
    by_hand.append((bit, value))


def _element_index(
    arrays: list[tuple[int, Sequence]], counter: int
) -> tuple[int, _ValueIndex]:
    """Live-array mask and element index of the arrays at one position."""
    live = 0
    index = _new_index()
    for bit, array in arrays:
        if counter < len(array):
            live |= bit
            _index_value(index, bit, array[counter])
    return live, index


def _matches(index: _ValueIndex, value: Any) -> int:
    """Bitmask of the indexed procedure values equal to ``value``."""
    plain, booleans, by_hand, values = index
    try:
        mask = (booleans if value.__class__ is bool else plain).get(value, 0)
    except TypeError:  # unhashable query value: compare with every value
        by_hand = values
        mask = 0
    for bit, indexed in by_hand:
        if _values_equal(indexed, value):
            mask |= bit
    return mask


def _spread(
    pairs: _PairCounts,
    statement: str,
    slot: int,
    counter: int,
    compared: int,
    matched: int,
    count: int,
) -> None:
    """Add one tally entry's counts to every pair it compared."""
    proc_index = 0
    while compared:
        if compared & 1:
            positions = pairs.get((statement, slot, proc_index))
            if positions is None:
                positions = pairs[(statement, slot, proc_index)] = {}
            cell = positions.get(counter)
            if cell is None:
                cell = positions[counter] = [0, 0]
            cell[0] += count
            if matched >> proc_index & 1:
                cell[1] += count
        compared >>= 1
        proc_index += 1


def _values_equal(left: Any, right: Any) -> bool:
    """Value equality that never treats booleans and integers as equal."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def build_parameter_mappings(
    catalog: Catalog,
    trace: WorkloadTrace,
    *,
    threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
) -> ParameterMappingSet:
    """Convenience wrapper mirroring :func:`build_models_from_trace`."""
    return ParameterMappingBuilder(catalog, threshold=threshold).build_all(trace)
