"""Tests for policy-key precomputation, aging and the predicted-cost cache."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    ArrivalOrderPolicy,
    PendingTransaction,
    ShortestPredictedFirstPolicy,
    SinglePartitionFirstPolicy,
    TransactionScheduler,
)
from repro.types import ProcedureRequest


def _pending(arrival, cost_ms=1.0, single=True, deferrals=0, procedure="Proc"):
    return PendingTransaction(
        request=ProcedureRequest.of(procedure, (arrival,)),
        arrival_index=arrival,
        predicted_cost_ms=cost_ms,
        predicted_single_partition=single,
        deferrals=deferrals,
    )


pending_strategy = st.builds(
    _pending,
    arrival=st.integers(min_value=0, max_value=10_000),
    cost_ms=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    single=st.booleans(),
    deferrals=st.integers(min_value=0, max_value=64),
)


class TestClassKeyPrecomputation:
    """compose_key(class_key(p), p) must equal the legacy per-dispatch key."""

    @settings(max_examples=200, deadline=None)
    @given(pending=pending_strategy, aging=st.floats(min_value=0.0, max_value=10.0))
    def test_precomputed_keys_match_legacy_keys(self, pending, aging):
        for policy in (
            ArrivalOrderPolicy(),
            ShortestPredictedFirstPolicy(aging_ms=aging),
            SinglePartitionFirstPolicy(),
        ):
            assert policy.compose_key(policy.class_key(pending), pending) == policy.key(pending)

    def test_scheduler_caches_class_keys_per_class(self):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        for index in range(10):
            # Two classes: cheap "A" and expensive "B".
            scheduler.submit(ProcedureRequest.of("A", (index,)))
        assert len(scheduler._class_keys) == 1  # all submissions share one class
        drained = list(scheduler.drain())
        assert [p.arrival_index for p in drained] == list(range(10))


class TestAgingBoundsStarvation:
    def test_expensive_transaction_is_not_starved_forever(self):
        """With aging, an endless stream of cheap arrivals cannot starve a
        long transaction: each later arrival concedes a fixed credit."""
        policy = ShortestPredictedFirstPolicy(aging_ms=1.0)
        scheduler = TransactionScheduler(policy)
        scheduler.submit(ProcedureRequest.of("Long", (0,)))
        long_pending = scheduler.peek()
        long_pending.predicted_cost_ms = 50.0
        # Re-key the long transaction with its cost (submit computed the key
        # before we set the cost, so push it again the way the simulator
        # would: cost known at submission).
        scheduler.pop()
        scheduler.requeue(long_pending)

        dispatched_long_at = None
        arrival = 1
        for step in range(200):
            # A fresh cheap transaction arrives before every dispatch.
            cheap = PendingTransaction(
                request=ProcedureRequest.of("Cheap", (arrival,)),
                arrival_index=arrival,
                predicted_cost_ms=1.0,
            )
            scheduler._arrivals = arrival + 1
            scheduler._push(cheap)
            scheduler.stats.submitted += 1
            arrival += 1
            popped = scheduler.pop()
            if popped.procedure == "Long":
                dispatched_long_at = step
                break
        # cost gap is 49ms at 1ms credit per arrival: the long transaction
        # must win within ~50 dispatches, not run to the 200-step horizon.
        assert dispatched_long_at is not None
        assert dispatched_long_at <= 60

    def test_without_aging_the_same_stream_starves_it(self):
        policy = ShortestPredictedFirstPolicy(aging_ms=0.0)
        scheduler = TransactionScheduler(policy)
        long_pending = PendingTransaction(
            request=ProcedureRequest.of("Long", (0,)),
            arrival_index=0,
            predicted_cost_ms=50.0,
        )
        scheduler._push(long_pending)
        scheduler.stats.submitted += 1
        for step in range(100):
            cheap = PendingTransaction(
                request=ProcedureRequest.of("Cheap", (step + 1,)),
                arrival_index=step + 1,
                predicted_cost_ms=1.0,
            )
            scheduler._push(cheap)
            scheduler.stats.submitted += 1
            assert scheduler.pop().procedure == "Cheap"


class TestRequeueSemantics:
    def test_requeue_does_not_count_a_deferral(self):
        scheduler = TransactionScheduler()
        scheduler.submit(ProcedureRequest.of("P", (0,)))
        pending = scheduler.pop()
        scheduler.requeue(pending)
        assert pending.deferrals == 0
        pending = scheduler.pop()
        scheduler.requeue(pending)
        assert pending.deferrals == 0
        assert scheduler.stats.requeued == 2
        assert scheduler.stats.dispatched == 0


class TestPredictedCostCache:
    def test_equal_paths_share_one_conversion(self):
        from repro.houdini import PathEstimate
        from repro.markov.vertex import COMMIT_KEY, VertexKey
        from repro.types import PartitionSet

        def estimate():
            e = PathEstimate(procedure="P")
            key = VertexKey.query("Q", 0, PartitionSet.of([0]), PartitionSet.of([]))
            e.vertices.append(key)
            e.edge_probabilities.append(1.0)
            e.vertices.append(COMMIT_KEY)
            e.edge_probabilities.append(1.0)
            return e

        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        first = scheduler.submit(ProcedureRequest.of("P", (0,)), estimate())
        second = scheduler.submit(ProcedureRequest.of("P", (1,)), estimate())
        assert first.predicted_cost_ms == second.predicted_cost_ms > 0
        assert len(scheduler._cost_cache) == 1
