"""Cluster simulator: a discrete-event runtime over a cost model.

The package has four pieces:

* :mod:`~repro.sim.events` — the event vocabulary.  The run loop is a single
  binary heap of ``(time, kind, tiebreak, payload)`` entries with four
  kinds: ``CLIENT_READY`` (a closed-loop client submits its next request to
  the node scheduler, recording its previous transaction's completion when
  dispatch folded it into this event), ``TXN_COMPLETE`` (an in-flight
  transaction reached its simulated end: admission capacity is released and
  the completion is recorded — the completion stream is therefore produced
  already ordered by end time), ``PARTITION_RELEASE`` (a partition's busy
  window ended, waking partition-blocked dispatches) and ``EXTERNAL_SUBMIT``
  (a request injected from outside the closed loop).  Kind codes double as
  same-timestamp priorities.
* :class:`~repro.sim.simulator.ClusterSimulator` — the closed-loop driver,
  an incrementally steppable event core: ``begin()`` initializes the heap
  and accumulators on the instance, ``inject()``/``submit_request()`` push
  events, ``step()``/``run_until()`` process them, ``extend_budget()``
  grants closed-loop submissions and ``snapshot()`` materializes windowed
  metrics on demand.  ``run()`` remains the one-shot batch entry point, and
  :class:`repro.session.ClusterSession` is the long-lived façade.  Every
  submission is routed through a
  :class:`~repro.scheduling.scheduler.TransactionScheduler`, and one event
  loop serves every configuration: under the default FCFS policy the
  scheduler is pass-through and the results equal the greedy reference
  driver's (held by ``tests/sim/test_event_runtime.py``), while
  prediction-aware policies, admission control and tenancy gate dispatch
  inside the same loop.
* :class:`~repro.sim.cost_model.CostModel` — simulated-time constants plus
  the per-(procedure, plan-shape) *cost-schedule cache*: everything except a
  plan's estimation overhead depends only on the attempt's shape (base
  partition, lock set, invocation partition sequence, undo count, commit
  flag, early-prepared partitions), so it is derived once per shape.
  Invalidation contract: cached schedules bake in the model's constants —
  call :meth:`~repro.sim.cost_model.CostModel.clear_schedule_cache` after
  mutating any constant on a live instance (the ablation benchmarks build a
  fresh ``CostModel`` per configuration instead).  Workloads whose shapes
  are near-unique bypass the cache automatically after a probation window.
* :class:`~repro.sim.metrics.SimulationResult` — metrics, accumulated in
  flat arrays during the run and materialized once at the end.  Under
  ``metrics_mode="streaming"`` the unbounded accumulators are replaced by
  the O(1)-memory sketches in :mod:`~repro.sim.sketch`
  (:class:`~repro.sim.sketch.LatencySketch`,
  :class:`~repro.sim.sketch.CompletionWindow`) — the million-user scale
  mode; exact mode stays the default and byte-identical.
"""

from .cost_model import AttemptTiming, CostModel
from .events import CLIENT_READY, EXTERNAL_SUBMIT, PARTITION_RELEASE, TXN_COMPLETE
from .metrics import ProcedureBreakdown, SimulationResult, TenantBreakdown
from .simulator import ClusterSimulator, InFlightTransaction, SimulatorConfig
from .sketch import CompletionWindow, LatencySketch

__all__ = [
    "CostModel",
    "AttemptTiming",
    "ClusterSimulator",
    "SimulatorConfig",
    "SimulationResult",
    "ProcedureBreakdown",
    "TenantBreakdown",
    "LatencySketch",
    "CompletionWindow",
    "InFlightTransaction",
    "CLIENT_READY",
    "TXN_COMPLETE",
    "PARTITION_RELEASE",
    "EXTERNAL_SUBMIT",
]
