"""``ProbabilityTable.weighted_sum`` against the generator-sum formula.

The table fold's summation order is part of the byte-identity contract:
trained tables are pinned by digest.  The reference below is the formula the
explicit loops replaced, with ``sum`` spelled as the left fold from ``0``
that the builtin computed before Python 3.12 (later versions compensate).
"""

from __future__ import annotations

from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.probability_table import PartitionProbabilities, ProbabilityTable


def left_sum(values) -> float:
    return reduce(add, values, 0)


def reference_weighted_sum(num_partitions, children):
    table = ProbabilityTable(num_partitions)
    if not children:
        return table
    total_weight = left_sum(weight for weight, _ in children)
    if total_weight <= 0:
        return table
    table.single_partition = left_sum(w * t.single_partition for w, t in children) / total_weight
    table.abort = left_sum(w * t.abort for w, t in children) / total_weight
    for pid in range(num_partitions):
        entry = table.partitions[pid]
        entry.read = left_sum(w * t.partitions[pid].read for w, t in children) / total_weight
        entry.write = left_sum(w * t.partitions[pid].write for w, t in children) / total_weight
        entry.finish = left_sum(w * t.partitions[pid].finish for w, t in children) / total_weight
    return table


def bits(table: ProbabilityTable) -> list:
    return [
        table.num_partitions,
        table.single_partition.hex(),
        table.abort.hex(),
        [(e.read.hex(), e.write.hex(), e.finish.hex()) for e in table.partitions],
    ]


def assert_same(num_partitions, children):
    expected = reference_weighted_sum(num_partitions, children)
    assert bits(ProbabilityTable.weighted_sum(num_partitions, children)) == bits(expected)


def make_table(values: list[float]) -> ProbabilityTable:
    """Table from ``[single, abort, r0, w0, f0, r1, w1, f1, ...]``."""
    partitions = [
        PartitionProbabilities(*values[i:i + 3]) for i in range(2, len(values), 3)
    ]
    return ProbabilityTable(len(partitions), values[0], values[1], partitions)


PROBABILITIES = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def children(draw):
    num_partitions = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=5))
    return num_partitions, [
        (
            draw(PROBABILITIES),
            make_table(draw(st.lists(
                PROBABILITIES, min_size=2 + 3 * num_partitions, max_size=2 + 3 * num_partitions
            ))),
        )
        for _ in range(count)
    ]


@given(children())
@settings(max_examples=300, deadline=None)
def test_loop_matches_generator_sums(case):
    num_partitions, weighted = case
    assert_same(num_partitions, weighted)


def test_one_child():
    child = make_table([0.3, 0.1, 0.7, 0.2, 0.9, 0.1, 0.6, 0.4])
    for weight in (1.0, 0.3, 1 / 3, 0.7):
        assert_same(2, [(weight, child)])


def test_zero_weights_give_the_default_table():
    child = make_table([0.3, 0.1, 0.7, 0.2, 0.9])
    assert_same(1, [(0.0, child), (0.0, child)])
    table = ProbabilityTable.weighted_sum(1, [(0.0, child)])
    assert bits(table) == bits(ProbabilityTable(1))


def test_zero_weight_child_among_others():
    heavy = make_table([0.3, 0.1, 0.7, 0.2, 0.9])
    light = make_table([1.0, 1.0, 1.0, 1.0, 1.0])
    assert_same(1, [(0.0, light), (0.4, heavy), (0.6, heavy), (0.0, light)])


def test_no_children():
    assert_same(3, [])


def test_terminal_children_mix():
    children = [
        (0.25, ProbabilityTable.for_commit(3)),
        (0.5, ProbabilityTable.for_abort(3)),
        (0.25, make_table([0.1, 0.2] + [0.3, 0.4, 0.5] * 3)),
    ]
    assert_same(3, children)
