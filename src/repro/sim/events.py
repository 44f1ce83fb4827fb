"""Event types for the discrete-event cluster simulator.

The simulator's event core is a single binary heap of timestamped events
that can be driven incrementally: :meth:`~repro.sim.simulator.ClusterSimulator.inject`
pushes an event, :meth:`~repro.sim.simulator.ClusterSimulator.step` processes
exactly one, and :meth:`~repro.sim.simulator.ClusterSimulator.run_until`
processes events up to a simulated deadline (or until the heap drains).
Four event kinds exist:

* ``PARTITION_RELEASE`` — a partition's simulated busy window ended.  Only
  scheduled while a prediction-aware policy holds partition-blocked
  transactions (their predicted partitions are busy); it wakes the
  dispatcher at the earliest predicted release so blocked work starts as
  soon as its partitions free — possibly before the blocking transaction
  fully completes (early-prepared partitions release early).
  Admission-deferred transactions are retried by ``TXN_COMPLETE`` draining
  instead, since admission capacity only changes at completions.
* ``TXN_COMPLETE`` — an in-flight transaction reached its simulated end
  time: admission capacity is released, the completion is recorded (the
  completion stream is therefore produced already ordered by end time), and
  the issuing closed-loop client is scheduled to become ready again.  The
  payload carries the executed :class:`~repro.txn.record.TransactionRecord`
  so a paused core can report its in-flight transactions
  (:meth:`~repro.sim.simulator.ClusterSimulator.in_flight`).
* ``CLIENT_READY`` — a closed-loop client submits its next request to the
  node's :class:`~repro.scheduling.scheduler.TransactionScheduler`.  When
  nothing can observe a completion's own instant (no partition gate,
  admission control or tenancy, and no simulated deadline), dispatch pushes
  this event at ``end + think`` carrying the finished transaction's
  ``(end, committed)`` record, in place of a ``TXN_COMPLETE``.
* ``EXTERNAL_SUBMIT`` — a request injected from outside the closed loop
  (``ClusterSession.submit``, or a compiled
  :class:`~repro.workload.sources.WorkloadSource` arrival stream — open
  loops, trace replay, tenant streams): it is routed through the scheduler
  like any other submission but does not consume closed-loop budget and
  does not re-arm a client when it completes.  The payload carries the
  request plus its tenant label (``None`` for unlabeled traffic).

Heap entries are ``(time, kind, tiebreak, payload)`` tuples.  The kind codes
double as same-timestamp priorities: releases and completions are processed
before new submissions at the same instant, so capacity freed at time *t* is
usable by a client that becomes ready at *t*; externally injected requests
queue behind the closed-loop client that became ready at the same instant.
``CLIENT_READY`` ties break on the client id, which reproduces the legacy
driver's "lowest-index ready client submits first" order exactly.
"""

from __future__ import annotations

#: A partition's busy window ended (payload: ``None``).
PARTITION_RELEASE = 0
#: An in-flight transaction finished (payload: ``(client_id, committed,
#: pending, record)``).
TXN_COMPLETE = 1
#: A closed-loop client submits its next request (payload: ``None``, or the
#: ``(end, committed)`` record of its previous transaction when dispatch
#: folded that completion into this event instead of a ``TXN_COMPLETE``).
CLIENT_READY = 2
#: An externally injected request enters the scheduler (payload:
#: ``(request, tenant)`` — the :class:`~repro.types.ProcedureRequest` plus
#: its workload-stream tenant label, ``None`` when unlabeled).
EXTERNAL_SUBMIT = 3

__all__ = ["PARTITION_RELEASE", "TXN_COMPLETE", "CLIENT_READY", "EXTERNAL_SUBMIT"]
