"""The tally mapping builder against the all-pairs reference.

``reference_builder.AllPairsMappingBuilder`` compares every query parameter
with every procedure parameter, as paper §4.1 describes.  The package's
builder must produce the same ``entries`` list: same order, same
coefficient bits.  Hand-built traces cover the values a hash lookup would
misjudge; a Hypothesis test covers random small traces.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, PartitionScheme
from repro.errors import UnknownProcedureError
from repro.mapping import ParameterMappingBuilder
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.conftest import TransferProcedure, make_account_schema
from tests.mapping.reference_builder import AllPairsMappingBuilder

PROCEDURE = "transfer"


def make_catalog() -> Catalog:
    return Catalog(make_account_schema(), PartitionScheme(4, 2), [TransferProcedure()])


def record(parameters, *queries) -> TransactionTraceRecord:
    return TransactionTraceRecord(
        txn_id=0,
        procedure=PROCEDURE,
        parameters=tuple(parameters),
        queries=tuple(QueryTraceRecord(name, tuple(values)) for name, values in queries),
    )


def entry_bits(mapping) -> list[tuple]:
    return [
        (e.statement, e.query_param_index, e.procedure_param_index,
         e.array_aligned, e.coefficient.hex())
        for e in mapping.entries
    ]


def build_both(records, *, threshold=0.0, min_comparisons=1):
    """Entries of both builders; threshold 0 keeps every compared pair."""
    trace = WorkloadTrace(list(records))
    tally = ParameterMappingBuilder(
        make_catalog(), threshold=threshold, min_comparisons=min_comparisons
    ).build(trace, PROCEDURE)
    reference = AllPairsMappingBuilder(
        threshold=threshold, min_comparisons=min_comparisons
    ).build(trace, PROCEDURE)
    assert entry_bits(tally) == entry_bits(reference)
    return {
        (e.statement, e.query_param_index, e.procedure_param_index, e.array_aligned):
            e.coefficient
        for e in tally.entries
    }


class TestHandBuiltTraces:
    def test_booleans_never_match_integers(self):
        coefficients = build_both([
            record((True, 1), ("Q", (1,)), ("R", (True,))),
            record((1, True), ("Q", (True,)), ("R", (1,))),
        ])
        # Each query value matches only the parameter of its own kind.
        assert coefficients[("Q", 0, 0, False)] == 0.0
        assert coefficients[("Q", 0, 1, False)] == 1.0
        assert coefficients[("R", 0, 0, False)] == 1.0
        assert coefficients[("R", 0, 1, False)] == 0.0

    def test_boolean_array_elements_never_match_integers(self):
        coefficients = build_both([
            record(([True, 0],), ("Q", (1,)), ("Q", (False,))),
        ])
        assert coefficients[("Q", 0, 0, True)] == 0.0

    def test_integer_matches_equal_float(self):
        coefficients = build_both([
            record((1, 2.0), ("Q", (1.0,)), ("R", (2,))),
        ] * 3)
        assert coefficients[("Q", 0, 0, False)] == 1.0
        assert coefficients[("R", 0, 1, False)] == 1.0

    def test_nan_never_matches_even_the_same_object(self):
        nan = float("nan")
        coefficients = build_both([
            record((nan, [nan]), ("Q", (nan,))),
        ] * 3)
        assert coefficients[("Q", 0, 0, False)] == 0.0
        assert coefficients[("Q", 0, 1, True)] == 0.0

    def test_short_and_empty_arrays(self):
        coefficients = build_both([
            record(([5, 6], []), ("Q", (5,)), ("Q", (6,)), ("Q", (7,))),
        ])
        # Positions 0 and 1 exist and match; position 2 is past the end, and
        # the empty array is never compared.
        assert coefficients[("Q", 0, 0, True)] == 1.0
        assert ("Q", 0, 1, True) not in coefficients

    def test_array_shorter_in_some_records(self):
        build_both([
            record(([1, 2, 3],), ("Q", (1,)), ("Q", (2,)), ("Q", (3,))),
            record(([1],), ("Q", (1,)), ("Q", (9,))),
            record(([],), ("Q", (1,))),
        ])

    def test_unhashable_scalars(self):
        coefficients = build_both([
            # Unhashable procedure value equal to the query value.
            record(({"a": 1}, 0), ("Q", ({"a": 1},))),
            # Unhashable query value equal to a hashable procedure value.
            record((frozenset({1}), 0), ("Q", ({1},))),
        ])
        assert coefficients[("Q", 0, 0, False)] == 1.0
        assert coefficients[("Q", 0, 1, False)] == 0.0

    def test_list_valued_array_element(self):
        coefficients = build_both([
            record(([[1], 2],), ("Q", (1,)), ("Q", (2,))),
        ])
        # Position 0 holds the list [1], which never equals the scalar 1.
        assert coefficients[("Q", 0, 0, True)] == 0.0

    def test_list_valued_query_parameters_are_skipped(self):
        coefficients = build_both([
            record((1,), ("Q", ([1], 1))),
        ])
        assert ("Q", 0, 0, False) not in coefficients
        assert coefficients[("Q", 1, 0, False)] == 1.0

    def test_positions_fold_in_first_seen_order(self):
        # The slot holds a list at counters 0 and 1 of the first record, so
        # position 2 is compared first.  The geometric mean folds the ratios
        # (2: 5/7, 0: 1/2, 1: 1/2) in that order, and for these ratios the
        # ascending order would give different bits.
        skip = ("Q", ([0],))
        coefficients = build_both(
            [record((1,), skip, skip, ("Q", (1,)))]
            + [record((1,), ("Q", (1,)), ("Q", (1,)), ("Q", (1,)))] * 2
            + [record((1,), ("Q", (2,)), ("Q", (2,)), ("Q", (1,)))] * 2
            + [record((1,), skip, skip, ("Q", (2,)))] * 2
        )
        first_seen = math.exp((math.log(5 / 7) + math.log(1 / 2) + math.log(1 / 2)) / 3)
        ascending = math.exp((math.log(1 / 2) + math.log(1 / 2) + math.log(5 / 7)) / 3)
        assert first_seen != ascending
        assert coefficients[("Q", 0, 0, False)] == first_seen

    def test_min_comparisons_boundary(self):
        records = [record((1,), ("Q", (1,)))] * 3
        assert ("Q", 0, 0, False) in build_both(records, min_comparisons=3)
        assert ("Q", 0, 0, False) not in build_both(records, min_comparisons=4)

    def test_threshold_boundary(self):
        records = [record((1,), ("Q", (1,)))] * 3 + [record((1,), ("Q", (2,)))]
        coefficient = build_both(records)[("Q", 0, 0, False)]
        assert coefficient == math.exp(math.log(0.75))
        assert ("Q", 0, 0, False) in build_both(records, threshold=coefficient)
        above = math.nextafter(coefficient, 1.0)
        assert ("Q", 0, 0, False) not in build_both(records, threshold=above)

    def test_unknown_procedure_raises(self):
        with pytest.raises(UnknownProcedureError):
            ParameterMappingBuilder(make_catalog()).build(WorkloadTrace([]), "nope")


def test_benchmark_trace_matches_reference(tpcc_artifacts):
    trace = tpcc_artifacts.trace
    mappings = tpcc_artifacts.mappings
    assert list(mappings) == list(trace.procedures)
    reference = AllPairsMappingBuilder()
    for procedure in trace.procedures:
        expected = reference.build(trace, procedure)
        assert entry_bits(mappings[procedure]) == entry_bits(expected)


# ----------------------------------------------------------------------
# Random small traces
# ----------------------------------------------------------------------
NAN_A = float("nan")
NAN_B = float("nan")
SCALARS = st.sampled_from([
    0, 1, 2, 1.0, -0.0, 0.0, True, False, None, "a", "b",
    NAN_A, NAN_B, frozenset({1}), {1}, {"k": 1},
])
ARRAYS = st.lists(st.one_of(SCALARS, st.just([1]), st.just([])), max_size=3)
PROC_VALUES = st.one_of(SCALARS, ARRAYS, ARRAYS.map(tuple))
QUERY_VALUES = st.one_of(SCALARS, SCALARS, st.just([1]), st.just((0,)))


@st.composite
def traces(draw):
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        parameters = draw(st.lists(PROC_VALUES, max_size=4))
        queries = draw(st.lists(
            st.tuples(st.sampled_from("ABC"), st.lists(QUERY_VALUES, max_size=3)),
            max_size=6,
        ))
        records.append(record(parameters, *queries))
    return records


@given(
    traces(),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_random_traces_match_reference(records, threshold, min_comparisons):
    build_both(records, threshold=threshold, min_comparisons=min_comparisons)
