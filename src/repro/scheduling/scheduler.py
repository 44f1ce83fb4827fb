"""A prediction-aware transaction scheduler (paper §8, future work).

The scheduler manages the queue of transaction requests waiting at a node.
Each request is annotated with the properties Houdini predicted for it — how
many queries it will run, which partitions it needs, how long it is expected
to take — and a :class:`~repro.scheduling.policies.SchedulingPolicy` decides
which pending transaction to dispatch next.

Two caches keep the per-submission work constant:

* predicted costs are derived once per *transaction class* — the (procedure,
  predicted path, base partition) signature of the estimate — instead of
  re-walking the estimate through the cost model for every request;
* policy sort keys are composed from a per-class component precomputed by
  the policy (:meth:`SchedulingPolicy.class_key`), so dispatch never
  re-derives class properties.

The ready queue itself is a binary heap, i.e. it stays incrementally sorted
under submissions; dispatch is O(log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..houdini.estimate import PathEstimate
from ..types import PartitionId, ProcedureRequest
from .policies import ArrivalOrderPolicy, SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cost_model import CostModel


def _default_cost_model() -> "CostModel":
    # Imported lazily: the simulator imports this package at module load, so
    # a module-level import of repro.sim here would be circular.
    from ..sim.cost_model import CostModel

    return CostModel()


@dataclass(frozen=True)
class PredictedCost:
    """Predicted resource usage of one transaction, derived from its estimate."""

    queries: int
    service_ms: float
    partitions: tuple[PartitionId, ...]
    single_partition: bool

    @staticmethod
    def from_estimate(
        estimate: PathEstimate,
        base_partition: PartitionId,
        cost_model: "CostModel | None" = None,
    ) -> "PredictedCost":
        """Convert a path estimate into predicted service time.

        The conversion reuses the simulator's cost model so that "predicted
        milliseconds" and "simulated milliseconds" live on the same scale —
        the property the paper's expected-remaining-run-time annotation
        needs.
        """
        model = cost_model or _default_cost_model()
        service_ms = model.planning_ms + model.setup_ms
        for key in estimate.query_vertices:
            service_ms += model.query_cost(key.partitions, base_partition)
        partitions = tuple(estimate.touched_partitions())
        if len(partitions) > 1:
            service_ms += model.two_phase_prepare_ms + model.two_phase_commit_ms
        return PredictedCost(
            queries=estimate.query_count,
            service_ms=service_ms,
            partitions=partitions,
            single_partition=len(partitions) <= 1,
        )


@dataclass(slots=True)
class PendingTransaction:
    """One queued request plus the predictions attached to it."""

    request: ProcedureRequest
    arrival_index: int
    predicted_cost_ms: float = 0.0
    predicted_queries: int = 0
    predicted_partitions: tuple[PartitionId, ...] = ()
    predicted_single_partition: bool = True
    estimate: PathEstimate | None = None
    #: Whether the request was injected from outside the closed loop
    #: (``ClusterSession.submit``): its completion must not re-arm a
    #: closed-loop client, and its rejection must not back one off.
    external: bool = False
    #: Tenant label of the workload stream the request arrived on
    #: (``TenantSource``); ``None`` for unlabeled traffic.
    tenant: str | None = None
    #: How many times admission control pushed this transaction back.
    deferrals: int = 0
    #: Simulated submission time, stamped by the event-driven simulator so
    #: latencies include queueing delay.
    submit_time_ms: float = 0.0

    @property
    def procedure(self) -> str:
        return self.request.procedure


@dataclass
class SchedulerStats:
    """Counters describing one scheduler's activity.

    ``dispatched`` counts transactions that actually left the queue for
    execution — a pop that is pushed back (admission deferral or a
    partition-blocked requeue) is counted under ``requeued``, and a pop that
    admission control rejected outright under ``rejected``.

    ``queue_wait_by_class`` is the starvation picture: per transaction
    class (procedure name), summary statistics of the simulated time each
    dispatched transaction spent waiting in the queue — count, mean, max
    and nearest-rank percentiles.  It is a plain dict (filled from
    :meth:`TransactionScheduler.wait_summary` when a result snapshot is
    materialized) so it serializes directly in
    :meth:`~repro.sim.metrics.SimulationResult.to_dict`.
    """

    submitted: int = 0
    dispatched: int = 0
    reordered: int = 0
    requeued: int = 0
    rejected: int = 0
    queue_wait_by_class: dict = field(default_factory=dict)

    @property
    def pending(self) -> int:
        return self.submitted - self.dispatched - self.rejected

    @property
    def max_queue_wait_ms(self) -> float:
        """Largest queue-wait age across every transaction class."""
        if not self.queue_wait_by_class:
            return 0.0
        return max(entry["max_ms"] for entry in self.queue_wait_by_class.values())


class TransactionScheduler:
    """Priority queue of pending transactions under a scheduling policy."""

    def __init__(
        self,
        policy: SchedulingPolicy | None = None,
        *,
        cost_model: "CostModel | None" = None,
        streaming_waits: bool = False,
    ) -> None:
        self.policy = policy or ArrivalOrderPolicy()
        self.cost_model = cost_model or _default_cost_model()
        #: Streaming mode: per-class waits accumulate into O(1)-memory
        #: sketches instead of unbounded lists (``metrics_mode="streaming"``).
        self._streaming_waits = streaming_waits
        self.stats = SchedulerStats()
        self._arrivals = 0
        self._heap: list[tuple[tuple, int, PendingTransaction]] = []
        self._sequence = 0
        #: Predicted costs per transaction class (see :meth:`submit`).
        self._cost_cache: dict[tuple, PredictedCost] = {}
        #: Policy class-key components per transaction class.
        self._class_keys: dict[tuple, tuple] = {}
        #: Arrival indexes still queued (lazy-deletion heap) plus the popped
        #: multiset, for O(log n) queue-jump detection in :meth:`pop`.
        #: Skipped entirely for policies that provably dispatch in arrival
        #: order (FCFS): ``reordered`` is 0 by construction.
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap: list[int] = []
        self._consumed: dict[int, int] = {}
        #: Queue-wait ages (ms) of dispatched transactions, per transaction
        #: class; recorded by the simulator at dispatch and summarized into
        #: :attr:`SchedulerStats.queue_wait_by_class` on snapshot.  Survives
        #: :meth:`rekey` — the scheduler keeps describing the same queue.
        #: Zero-wait dispatches (every dispatch of a pass-through FCFS
        #: loop) are counted, not appended, so the saturated closed loop
        #: stays O(1) per transaction in memory.  With ``streaming_waits``
        #: the per-class values are LatencySketch instances, not lists.
        self._waits: dict[str, list] = {}
        self._zero_waits: dict[str, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------------------
    def submit(
        self,
        request: ProcedureRequest,
        estimate: PathEstimate | None = None,
        *,
        base_partition: PartitionId = 0,
        tenant: str | None = None,
    ) -> PendingTransaction:
        """Queue one request, deriving predictions from its estimate if given.

        ``tenant`` must be set *here* (not after the call): subclasses that
        maintain per-tenant queues read the label at push time.
        """
        pending = PendingTransaction(
            request=request, arrival_index=self._arrivals, tenant=tenant
        )
        self._arrivals += 1
        if estimate is not None and not estimate.degenerate:
            cost = self._predicted_cost(request.procedure, estimate, base_partition)
            pending.predicted_cost_ms = cost.service_ms
            pending.predicted_queries = cost.queries
            pending.predicted_partitions = cost.partitions
            pending.predicted_single_partition = cost.single_partition
            pending.estimate = estimate
        self._push(pending)
        self.stats.submitted += 1
        return pending

    def _predicted_cost(
        self, procedure: str, estimate: PathEstimate, base_partition: PartitionId
    ) -> PredictedCost:
        """Per-class cache around :meth:`PredictedCost.from_estimate`.

        Two requests whose estimates walk the same vertex path from the same
        base partition share one conversion — the transaction-class
        granularity the paper's scheduling sketch needs.
        """
        key = (procedure, base_partition, tuple(estimate.vertices))
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = PredictedCost.from_estimate(estimate, base_partition, self.cost_model)
            self._cost_cache[key] = cost
        return cost

    def predicted_cost_for(
        self, procedure: str, estimate: PathEstimate, base_partition: PartitionId
    ) -> PredictedCost:
        """Public, cached estimate → predicted-cost conversion.

        Lets callers outside the queue (the tenancy shedding policy) price
        an arrival on the same scale — and through the same per-class cache
        — the scheduler itself uses.
        """
        return self._predicted_cost(procedure, estimate, base_partition)

    def rekey(self, policy: SchedulingPolicy | None) -> None:
        """Adopt a new policy mid-stream, re-keying every queued transaction.

        The live-reconfiguration contract of the session API: the pending
        heap is rebuilt under the new policy's keys, the per-class key cache
        is dropped (it composed keys for the old policy), and the queue-jump
        bookkeeping restarts from the still-queued arrivals.  Stats carry
        over — the scheduler keeps describing the same node queue.
        Transactions queued before the swap keep the prediction annotations
        they were submitted with (an estimate-free FCFS submission stays
        estimate-free under a predictive policy).
        """
        self.policy = policy or ArrivalOrderPolicy()
        self._class_keys.clear()
        queued = [entry[2] for entry in self._heap]
        self._heap.clear()
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap.clear()
        self._consumed.clear()
        for pending in queued:
            self._push(pending)

    def clear_cost_cache(self) -> None:
        """Drop predicted-cost and class-key caches (cost-model mutation)."""
        self._cost_cache.clear()
        self._class_keys.clear()

    def note_rejected(self, pending: PendingTransaction) -> None:
        """Reclassify a popped transaction as rejected, not dispatched."""
        self.stats.dispatched -= 1
        self.stats.rejected += 1

    def note_dispatched(self, pending: PendingTransaction) -> None:
        """The latest pop cleared every gate and is starting execution.

        No-op here; :class:`~repro.tenancy.scheduler.TenantScheduler`
        advances its global virtual-time watermark on this signal (and only
        on it — blocked pops are refunded and must not move the clock).
        """

    def requeue(self, pending: PendingTransaction) -> None:
        """Return a popped transaction to the queue, undoing its dispatch.

        The event-driven simulator requeues every pop it cannot start.  An
        admission deferral bumps ``pending.deferrals`` itself before the
        requeue; a partition- or quota-blocked pop does not, since waiting
        for a busy partition is not an admission push-back and must not eat
        into the ``max_deferrals`` rejection budget.
        """
        self.stats.dispatched -= 1
        self.stats.requeued += 1
        self._push(pending)

    def _entry(self, pending: PendingTransaction) -> tuple[tuple, int, PendingTransaction]:
        """Compose one heap entry (policy key, FIFO sequence, transaction)."""
        policy = self.policy
        class_signature = (
            pending.procedure,
            pending.predicted_cost_ms,
            pending.predicted_single_partition,
        )
        class_part = self._class_keys.get(class_signature)
        if class_part is None:
            class_part = policy.class_key(pending)
            self._class_keys[class_signature] = class_part
        self._sequence += 1
        return (policy.compose_key(class_part, pending), self._sequence, pending)

    def _push(self, pending: PendingTransaction) -> None:
        heapq.heappush(self._heap, self._entry(pending))
        if self._track_reorder:
            heapq.heappush(self._arrival_heap, pending.arrival_index)

    # ------------------------------------------------------------------
    def pop(self) -> PendingTransaction:
        """Dispatch the highest-priority pending transaction."""
        if not self._heap:
            raise IndexError("pop from an empty TransactionScheduler")
        _, __, pending = heapq.heappop(self._heap)
        self._note_pop(pending)
        return pending

    def _note_pop(self, pending: PendingTransaction) -> None:
        """Account one dispatch: stats plus queue-jump detection."""
        self.stats.dispatched += 1
        if not self._track_reorder:
            return
        arrival = pending.arrival_index
        consumed = self._consumed
        consumed[arrival] = consumed.get(arrival, 0) + 1
        arrival_heap = self._arrival_heap
        while arrival_heap:
            top = arrival_heap[0]
            count = consumed.get(top, 0)
            if not count:
                break
            heapq.heappop(arrival_heap)
            if count == 1:
                del consumed[top]
            else:
                consumed[top] = count - 1
        if arrival_heap and arrival_heap[0] < arrival:
            # An older transaction is still waiting: the policy jumped the queue.
            self.stats.reordered += 1

    def peek(self) -> PendingTransaction | None:
        """The transaction that :meth:`pop` would return, without removing it."""
        if not self._heap:
            return None
        return self._heap[0][2]

    def pending_transactions(self) -> list[PendingTransaction]:
        """Every transaction still queued, in current dispatch order.

        Introspection only (``ClusterSession.in_flight``): the queue is not
        disturbed.
        """
        return [entry[2] for entry in sorted(self._heap, key=lambda e: (e[0], e[1]))]

    # ------------------------------------------------------------------
    # Queue-wait (starvation) tracking
    # ------------------------------------------------------------------
    def record_wait(self, procedure: str, wait_ms: float) -> None:
        """Record the queue-wait age of one dispatched transaction."""
        if wait_ms == 0.0:
            self._zero_waits[procedure] = self._zero_waits.get(procedure, 0) + 1
            return
        waits = self._waits.get(procedure)
        if waits is None:
            if self._streaming_waits:
                from ..sim.sketch import LatencySketch  # lazy: avoids cycle

                waits = LatencySketch()
            else:
                waits = []
            self._waits[procedure] = waits
        waits.append(wait_ms)

    def wait_summary(self) -> dict[str, dict]:
        """Per-class queue-wait summary: count/mean/max + p50/p95/p99.

        Percentiles use the nearest-rank method over every recorded wait
        (zero-wait dispatches included as an implicit sorted prefix), so a
        class starved behind an endless stream of shorter transactions
        shows up as a p99/max far above its mean.

        Under streaming mode the non-zero waits live in a
        :class:`~repro.sim.sketch.LatencySketch` per class: count, mean and
        max stay exact, percentiles come from the sketch (within its
        documented error bound) at the zero-adjusted rank.
        """
        summary: dict[str, dict] = {}
        if self._streaming_waits:
            for procedure in sorted(set(self._waits) | set(self._zero_waits)):
                sketch = self._waits.get(procedure)
                zeros = self._zero_waits.get(procedure, 0)
                nonzero = sketch.count if sketch is not None else 0
                count = zeros + nonzero

                def percentile(p: int) -> float:
                    rank = max(0, -(-count * p // 100) - 1)
                    if rank < zeros or not nonzero:
                        return 0.0
                    return sketch.quantile((rank - zeros + 1) / nonzero)

                summary[procedure] = {
                    "count": count,
                    "mean_ms": (sketch.total if sketch is not None else 0.0) / count,
                    "max_ms": sketch.max if nonzero else 0.0,
                    "p50_ms": percentile(50),
                    "p95_ms": percentile(95),
                    "p99_ms": percentile(99),
                }
            return summary
        for procedure in sorted(set(self._waits) | set(self._zero_waits)):
            waits = sorted(self._waits.get(procedure, ()))
            zeros = self._zero_waits.get(procedure, 0)
            count = zeros + len(waits)

            def percentile(p: int) -> float:
                rank = max(0, -(-count * p // 100) - 1)
                return waits[rank - zeros] if rank >= zeros else 0.0

            summary[procedure] = {
                "count": count,
                "mean_ms": sum(waits) / count,
                "max_ms": waits[-1] if waits else 0.0,
                "p50_ms": percentile(50),
                "p95_ms": percentile(95),
                "p99_ms": percentile(99),
            }
        return summary

    def drain(self) -> Iterable[PendingTransaction]:
        """Pop until the queue is empty (dispatch order of the whole backlog)."""
        while self:
            yield self.pop()

    # ------------------------------------------------------------------
    def _drain_queued(self) -> list[PendingTransaction]:
        """Remove and return every queued transaction, in dispatch order.

        Unlike :meth:`rekey`'s heap-array walk this sorts by (key, seq), so
        FIFO order among equal-priority siblings survives a transplant into
        a differently shaped queue (:meth:`adopt_from`).
        """
        queued = [
            entry[2] for entry in sorted(self._heap, key=lambda e: (e[0], e[1]))
        ]
        self._heap.clear()
        return queued

    def adopt_from(self, other: "TransactionScheduler") -> None:
        """Take over another scheduler's state (live tenancy attach/detach).

        Policy, cost model, caches, stats and wait records move across so
        the queue keeps describing the same node; still-queued transactions
        are re-pushed through this scheduler's own (polymorphic) queue
        structure in the other's dispatch order.  Queue-jump bookkeeping
        restarts from the still-queued arrivals, exactly as in
        :meth:`rekey`.
        """
        self.policy = other.policy
        self.cost_model = other.cost_model
        self._streaming_waits = other._streaming_waits
        self.stats = other.stats
        self._arrivals = other._arrivals
        self._sequence = other._sequence
        self._cost_cache = other._cost_cache
        self._class_keys = other._class_keys
        self._waits = other._waits
        self._zero_waits = other._zero_waits
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap = []
        self._consumed = {}
        for pending in other._drain_queued():
            self._push(pending)

    # ------------------------------------------------------------------
    def predicted_backlog_ms(self) -> float:
        """Total predicted service time of everything still queued."""
        return sum(entry[2].predicted_cost_ms for entry in self._heap)

    def describe(self) -> str:
        return (
            f"TransactionScheduler(policy={self.policy.name}, pending={len(self)}, "
            f"backlog={self.predicted_backlog_ms():.2f}ms)"
        )
