"""Weighted fair queuing over per-tenant transaction queues.

:class:`TenantScheduler` is a drop-in :class:`~repro.scheduling.scheduler.
TransactionScheduler` that partitions the ready queue by tenant label and
dispatches by *virtual time*: each tenant accumulates credit equal to the
predicted service milliseconds it consumed divided by its policy weight, and
the backlogged tenant with the smallest virtual time dispatches next.  Since
charges are ``PredictedCost.service_ms`` — Houdini's estimate priced through
the simulator's cost model — fairness is defined over predicted *work*, not
request counts: a tenant of heavy distributed transactions makes progress at
the same weighted rate as one of cheap single-partition reads.

Inside one tenant the configured scheduling policy is unchanged — entries
carry the exact (policy key, FIFO sequence) ordering of the flat scheduler,
optionally split further into one heap per home partition
(``per_partition_queues``).

Idle tenants hold no credit: on the idle → backlogged transition a tenant's
virtual time is floored to the global watermark (the virtual time of the
last dispatch), so sitting out does not bank an unbounded burst.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from ..scheduling.policies import ArrivalOrderPolicy, SchedulingPolicy
from ..scheduling.scheduler import PendingTransaction, TransactionScheduler
from .config import TenancyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cost_model import CostModel

#: Virtual-time charge floor: even a zero-cost (estimate-free) dispatch
#: advances its tenant's clock, so unpredicted traffic cannot starve
#: predicted traffic by dispatching for free.
_MIN_CHARGE_MS = 1.0


def _label_order(label: str | None) -> tuple[bool, str]:
    """Deterministic tenant tie-break: unlabeled first, then lexicographic."""
    return (label is not None, label or "")


class TenantScheduler(TransactionScheduler):
    """Per-tenant queues dispatched by predicted-work weighted fair queuing."""

    def __init__(
        self,
        config: TenancyConfig,
        policy: SchedulingPolicy | None = None,
        *,
        cost_model: "CostModel | None" = None,
        streaming_waits: bool = False,
    ) -> None:
        super().__init__(
            policy, cost_model=cost_model, streaming_waits=streaming_waits
        )
        self._config = config
        #: label -> subqueue key -> heap of (policy key, seq, pending).  The
        #: subqueue key is the home partition under ``per_partition_queues``,
        #: else 0 — dispatch order is identical either way because the pop
        #: always takes the smallest (key, seq) head across a tenant's
        #: subqueues; only the queue topology differs.
        self._tenant_queues: dict[str | None, dict[int, list]] = {}
        #: label -> queued-transaction count (backlog indicator).
        self._tenant_counts: dict[str | None, int] = {}
        #: label -> virtual time in weighted predicted milliseconds.
        self._tenant_vtime: dict[str | None, float] = {}
        #: Global virtual-time watermark: pre-charge virtual time of the most
        #: recent *dispatch*.  Newly backlogged tenants are floored to it.
        #: Virtual time moves only at dispatch (:meth:`note_dispatched`) —
        #: never at pop — so the simulator's pop-scan/requeue churn over
        #: partition-blocked work cannot distort the clocks: a blocked pop
        #: leaves both its tenant's vtime and this watermark untouched.
        self._vfloor = 0.0
        #: True while re-pushing a popped-but-blocked transaction; such a
        #: tenant was never idle (its work stayed in the system), so the
        #: idle -> backlogged floor must not apply.
        self._repush = False
        self._queued = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._queued

    def __bool__(self) -> bool:
        return self._queued > 0

    @property
    def tenancy_config(self) -> TenancyConfig:
        return self._config

    def set_tenancy(self, config: TenancyConfig) -> None:
        """Adopt a new tenancy config mid-stream.

        Weights apply from the next dispatch (virtual clocks carry over —
        a reconfigure is not an amnesty).  A queue-topology change
        (``per_partition_queues``) re-shapes the queues in dispatch order.
        """
        reshape = config.per_partition_queues != self._config.per_partition_queues
        self._config = config
        if reshape:
            for pending in self._drain_queued():
                self._push(pending)

    # ------------------------------------------------------------------
    def _charge_ms(self, pending: PendingTransaction) -> float:
        cost = pending.predicted_cost_ms
        return cost if cost > _MIN_CHARGE_MS else _MIN_CHARGE_MS

    def _subqueue_key(self, pending: PendingTransaction) -> int:
        if self._config.per_partition_queues and pending.predicted_partitions:
            return pending.predicted_partitions[0]
        return 0

    def _push(self, pending: PendingTransaction) -> None:
        label = pending.tenant
        if not self._repush and not self._tenant_counts.get(label):
            # Idle -> backlogged: forfeit credit banked while absent.
            vtime = self._tenant_vtime.get(label, 0.0)
            if vtime < self._vfloor:
                self._tenant_vtime[label] = self._vfloor
        queues = self._tenant_queues.setdefault(label, {})
        heap = queues.setdefault(self._subqueue_key(pending), [])
        heapq.heappush(heap, self._entry(pending))
        self._tenant_counts[label] = self._tenant_counts.get(label, 0) + 1
        self._queued += 1
        if self._track_reorder:
            heapq.heappush(self._arrival_heap, pending.arrival_index)

    def _select(self) -> tuple[str | None, int]:
        """The (tenant, subqueue) holding the next transaction to dispatch."""
        best_label: str | None = None
        best_key: tuple | None = None
        for label, count in self._tenant_counts.items():
            if not count:
                continue
            key = (self._tenant_vtime.get(label, 0.0),) + _label_order(label)
            if best_key is None or key < best_key:
                best_key = key
                best_label = label
        if best_key is None:
            raise IndexError("pop from an empty TenantScheduler")
        queues = self._tenant_queues[best_label]
        best_sub: int | None = None
        best_head: tuple | None = None
        for subkey in sorted(queues):
            heap = queues[subkey]
            if not heap:
                continue
            head = (heap[0][0], heap[0][1])
            if best_head is None or head < best_head:
                best_head = head
                best_sub = subkey
        assert best_sub is not None
        return best_label, best_sub

    # ------------------------------------------------------------------
    def pop(self) -> PendingTransaction:
        label, subkey = self._select()
        queues = self._tenant_queues[label]
        heap = queues[subkey]
        _, __, pending = heapq.heappop(heap)
        if not heap:
            del queues[subkey]
        self._tenant_counts[label] -= 1
        self._queued -= 1
        self._note_pop(pending)
        return pending

    def note_dispatched(self, pending: PendingTransaction) -> None:
        """Charge the dispatching tenant and advance the global watermark.

        This — not :meth:`pop` — is where virtual time moves.  The event
        loop's drain pops every queued transaction each pass and requeues
        the partition-blocked ones; charging at pop would need refunds, and
        the transient charges would leak into the watermark through the
        idle -> backlogged floor, eroding the weighted clocks into a
        tie-break (observed: the lexicographically-smaller tenant wins).
        """
        label = pending.tenant
        vtime = self._tenant_vtime.get(label, 0.0)
        if vtime > self._vfloor:
            self._vfloor = vtime
        weight = self._config.policy_for(label).weight
        self._tenant_vtime[label] = vtime + self._charge_ms(pending) / weight

    def peek(self) -> PendingTransaction | None:
        if not self._queued:
            return None
        label, subkey = self._select()
        return self._tenant_queues[label][subkey][0][2]

    # ------------------------------------------------------------------
    def requeue(self, pending: PendingTransaction) -> None:
        self._repush = True
        try:
            super().requeue(pending)
        finally:
            self._repush = False

    # ------------------------------------------------------------------
    def rekey(self, policy: SchedulingPolicy | None) -> None:
        self.policy = policy or ArrivalOrderPolicy()
        self._class_keys.clear()
        queued: list[PendingTransaction] = []
        for queues in self._tenant_queues.values():
            for heap in queues.values():
                queued.extend(entry[2] for entry in heap)
        self._tenant_queues.clear()
        self._tenant_counts.clear()
        self._queued = 0
        self._track_reorder = not self.policy.preserves_arrival_order
        self._arrival_heap.clear()
        self._consumed.clear()
        for pending in queued:
            self._push(pending)

    def _drain_queued(self) -> list[PendingTransaction]:
        entries: list[tuple] = []
        for queues in self._tenant_queues.values():
            for heap in queues.values():
                entries.extend(heap)
        entries.sort(key=lambda e: (e[0], e[1]))
        self._tenant_queues.clear()
        self._tenant_counts.clear()
        self._queued = 0
        return [entry[2] for entry in entries]

    def pending_transactions(self) -> list[PendingTransaction]:
        """Still-queued transactions, tenants in virtual-time order.

        Introspection only.  Within one tenant the entries follow the policy
        (key, seq) order; across tenants the current virtual-time ranking —
        a faithful instantaneous picture, though actual interleaving depends
        on charges accrued as dispatch proceeds.
        """
        ordered: list[tuple] = []
        labels = sorted(
            (label for label, count in self._tenant_counts.items() if count),
            key=lambda lbl: (self._tenant_vtime.get(lbl, 0.0),) + _label_order(lbl),
        )
        for label in labels:
            entries: list[tuple] = []
            for heap in self._tenant_queues[label].values():
                entries.extend(heap)
            entries.sort(key=lambda e: (e[0], e[1]))
            ordered.extend(entries)
        return [entry[2] for entry in ordered]

    # ------------------------------------------------------------------
    def predicted_backlog_ms(self) -> float:
        total = 0.0
        for queues in self._tenant_queues.values():
            for heap in queues.values():
                total += sum(entry[2].predicted_cost_ms for entry in heap)
        return total

    def predicted_backlog_ms_for(self, label: str | None) -> float:
        """Predicted service time queued for one tenant."""
        queues = self._tenant_queues.get(label)
        if not queues:
            return 0.0
        return sum(
            entry[2].predicted_cost_ms for heap in queues.values() for entry in heap
        )

    def backlogged_tenants(self) -> list[str | None]:
        """Labels with queued work, in deterministic (unlabeled-first) order."""
        return sorted(
            (label for label, count in self._tenant_counts.items() if count),
            key=_label_order,
        )

    def queue_depths(self) -> dict[str, dict[str, int]]:
        """Per-tenant, per-subqueue depth snapshot (JSON-shaped)."""
        depths: dict[str, dict[str, int]] = {}
        for label in self.backlogged_tenants():
            queues = self._tenant_queues[label]
            depths[label if label is not None else ""] = {
                str(subkey): len(heap)
                for subkey, heap in sorted(queues.items())
                if heap
            }
        return depths

    def fairness_snapshot(self) -> dict[str, float]:
        """Virtual time per tenant (unlabeled traffic under the ``""`` key)."""
        return {
            label if label is not None else "": vtime
            for label, vtime in sorted(
                self._tenant_vtime.items(), key=lambda item: _label_order(item[0])
            )
        }

    def describe(self) -> str:
        return (
            f"TenantScheduler(policy={self.policy.name}, pending={len(self)}, "
            f"tenants={len([c for c in self._tenant_counts.values() if c])}, "
            f"backlog={self.predicted_backlog_ms():.2f}ms)"
        )
