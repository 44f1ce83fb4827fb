"""The benchmark's workloads: one cluster spec and one session length each.

Every workload runs inline in one process: 16 partitions, the Houdini
strategy over global models with ``learning=False`` and a 1,500-transaction
training trace, all built at :data:`TRAINING_SEED`.  Under these settings
``pipeline.simulate`` at 2,000 transactions gives TATP 885.5 and TPC-C 498.7
simulated txn/s.

The benchmark's ``--seed`` picks the traffic (:meth:`Workload.stream`): the
closed-loop request streams, or the tenants' arrival times and requests.
The database and the trained models stay those of :data:`TRAINING_SEED`:
across seeds they alone move TPC-C's simulated throughput by ~10%, which
would drown the run-to-run comparison the benchmark exists for.  ``perfbench/README.md``
records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.session import ClusterSession, ClusterSpec, TrainedArtifacts
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import CompileContext, OpenLoopSource, TenantSource

PARTITIONS = 16
TRACE_TRANSACTIONS = 1500
TRAINING_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    #: Transactions per session, driven by one ``run_for(txns=...)`` call:
    #: ``run_for`` returns a snapshot that copies every latency, so small
    #: chunks would mostly measure metric copying.
    txns: int
    #: Traffic streams per run; the simulated metrics are their mean.  One
    #: stream's simulated p99 on the tenant workload moves ~20% from seed to
    #: seed, and a longer stream does not average it out.
    streams: int = 4
    #: Open loop with two tenants under tenancy (else the paper's closed loop).
    tenants: bool = False
    #: Layer-coverage guards of the traced run: ``(claim, holds(layer
    #: metrics, served_frac))``.  Each asserts that the layer the workload
    #: was chosen for is exercised, so a renamed or bypassed function fails
    #: the run instead of reading zero.
    guards: tuple[tuple[str, Callable[[dict, float], bool]], ...] = ()

    def stream(self, seed: int, session: int) -> int:
        """The traffic stream that session ``session`` of a ``--seed`` run serves."""
        return seed * self.streams + session % self.streams

    def spec(self, stream: int) -> ClusterSpec:
        extra = {}
        if self.tenants:
            # Absolute rates, about 2x SmallBank's closed-loop service rate of
            # ~836 simulated txn/s, so no workload's input depends on another
            # workload's result.  The SLOs are 3x and 5x SmallBank's ~72 ms
            # closed-loop average latency, as in the scheduling experiment.
            # The shed predictor spreads the backlog over all 16 partitions,
            # so at the default headroom of 1.0 it sheds too late: the
            # backlog, and every latency, grows with the run's length.  At
            # 0.1 shedding keeps the free tenant near its SLO and the run
            # reaches a steady state.
            extra["workload"] = TenantSource({
                "gold": OpenLoopSource(420.0, "poisson", seed=stream),
                "free": OpenLoopSource(1260.0, "poisson", seed=stream),
            })
            extra["tenancy"] = TenancyConfig(
                tenants={
                    "gold": TenantPolicy(weight=4.0, slo_latency_ms=216.0),
                    "free": TenantPolicy(weight=1.0, slo_latency_ms=360.0),
                },
                shed=True,
                shed_headroom=0.1,
            )
        return ClusterSpec(
            benchmark=self.benchmark,
            num_partitions=PARTITIONS,
            seed=TRAINING_SEED,
            trace_transactions=TRACE_TRANSACTIONS,
            strategy="houdini",
            model_provider="global",
            learning=False,
            **extra,
        )

    def start(self, live: ClusterSession, artifacts: TrainedArtifacts, stream: int) -> None:
        """Point a freshly opened session's closed loop at the stream's requests."""
        if not self.tenants:
            context = CompileContext(artifacts.benchmark, TRAINING_SEED)
            live.reconfigure(generator=context.make_generator(stream))


#: Guards every workload shares: the public path reaches every main layer.
COMMON_GUARDS = (
    ("Houdini planned transactions",
     lambda m, _: m["houdini.plan.calls"] > 0 and m["txn.attempts_per_txn"] >= 1),
    ("the engine executed statements", lambda m, _: m["engine.statement.calls"] > 0),
    ("the runtime monitor saw statements", lambda m, _: m["runtime.monitor.calls"] > 0),
    ("the generator produced requests", lambda m, _: m["workload.next_request.calls"] > 0),
    ("the cost model replayed attempts", lambda m, _: m["cost_model.calls"] > 0),
    ("the event loop ran", lambda m, _: m["sim.loop.self_s"] > 0),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("tatp-closed", "tatp", txns=10_000, guards=COMMON_GUARDS + (
            ("estimate cache serves most plans (hit_frac > 0.5)",
             lambda m, _: m["houdini.estimate_cache.hit_frac"] > 0.5),
            ("fast-path dispatch: one pop per dispatch",
             lambda m, _: m["scheduling.pops_per_dispatch"] == 1),
        )),
        Workload("tpcc-closed", "tpcc", txns=4_000, guards=COMMON_GUARDS + (
            ("at least half the plans take the stepwise estimate_fresh walk",
             lambda m, _: m["houdini.estimate_fresh.calls"] >= 0.5 * m["houdini.plan.calls"]),
            ("undo logging records writes", lambda m, _: m["storage.undo.records"] > 0),
        )),
        Workload("smallbank-tenants-open", "smallbank", txns=6_000, streams=8, tenants=True,
                 guards=COMMON_GUARDS + (
            ("partition-gated dispatch requeues blocked entries",
             lambda m, _: m["scheduling.requeue.calls"] > 0),
            ("tenancy sheds arrivals (served_frac < 1)", lambda _, served: served < 1),
            ("tenancy is consulted per arrival",
             lambda m, _: m["tenancy.should_shed.calls"] > 0),
        )),
    )
}
