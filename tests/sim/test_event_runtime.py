"""Tests for the event-driven simulator runtime.

The central contract: under the default FCFS configuration the event-driven
loop reproduces the legacy greedy driver's results *exactly* — same
latencies, same counters, same warm-up window, same per-procedure breakdowns
— while prediction-aware policies and admission control run inside the same
loop.  The legacy driver is preserved here verbatim as the reference
implementation.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import pipeline
from repro.scheduling import AdmissionLimits
from repro.sim import ClusterSimulator, CostModel, SimulatorConfig
from repro.sim.metrics import SimulationResult
from repro.txn.coordinator import TransactionCoordinator
from repro.types import ProcedureRequest


def legacy_run(catalog, database, generator, strategy, cost_model, config, benchmark_name):
    """The pre-event-loop greedy driver (verbatim reference port)."""
    num_partitions = catalog.num_partitions
    num_clients = max(1, config.clients_per_partition * num_partitions)
    partition_free = [0.0] * num_partitions
    client_ready = [0.0] * num_clients
    completions = []
    coordinator = TransactionCoordinator(catalog, database, strategy)
    result = SimulationResult(
        strategy=strategy.name, benchmark=benchmark_name,
        num_partitions=num_partitions, simulated_duration_ms=0.0,
    )
    for _ in range(config.total_transactions):
        client_id = min(range(num_clients), key=lambda c: client_ready[c])
        submit_time = client_ready[client_id]
        request = generator.next_request()
        request = ProcedureRequest(
            request.procedure, request.parameters,
            client_id, client_id % catalog.scheme.num_nodes,
        )
        record = coordinator.execute_transaction(request)
        clock = submit_time
        breakdown = result.breakdown_for(record.procedure)
        for attempt_index, (plan, attempt) in enumerate(zip(record.plans, record.attempts)):
            timing = cost_model.attempt_timing(plan, attempt, num_partitions)
            lock_set = list(plan.lock_set(num_partitions))
            ready = clock + plan.estimation_ms + timing.planning_ms
            start = max([ready] + [partition_free[p] for p in lock_set])
            for pid in lock_set:
                partition_free[pid] = start + timing.release_offsets[pid]
            stall = 0.0
            for pid in attempt.escalated_partitions:
                if pid not in lock_set:
                    acquire_at = max(start, partition_free[pid])
                    stall = max(stall, acquire_at - start)
                    partition_free[pid] = start + timing.total_ms + stall
            end = start + timing.total_ms + stall
            clock = end
            if attempt_index < len(record.attempts) - 1:
                clock += cost_model.redirect_ms
            breakdown.transactions += 1
            breakdown.estimation_ms += timing.estimation_ms
            breakdown.planning_ms += timing.planning_ms
            breakdown.execution_ms += timing.execution_ms
            breakdown.coordination_ms += timing.coordination_ms
            breakdown.other_ms += timing.setup_ms
        result.latencies_ms.append(clock - submit_time)
        completions.append((clock, record.committed))
        client_ready[client_id] = clock + config.client_think_time_ms
        if record.committed:
            result.committed += 1
        else:
            result.user_aborted += 1
        result.restarts += record.restarts
        result.escalations += sum(1 for a in record.attempts if a.escalated_partitions)
        if record.undo_disabled:
            result.undo_disabled += 1
        if record.early_prepared_partitions:
            result.early_prepared += 1
        if record.single_partitioned:
            result.single_partition += 1
        else:
            result.distributed += 1
    finished = sorted(completions)
    result.simulated_duration_ms = finished[-1][0]
    warmup_index = min(int(len(finished) * config.warmup_fraction), len(finished) - 1)
    warmup_time = finished[warmup_index][0] if warmup_index > 0 else 0.0
    window = finished[-1][0] - warmup_time
    if window <= 0:
        result.window_duration_ms = finished[-1][0]
        result.window_committed = sum(1 for _, c in finished if c)
    else:
        result.window_duration_ms = window
        result.window_committed = sum(1 for end, c in finished if c and end > warmup_time)
    return result


def _assert_identical(new, old):
    assert new.latencies_ms == old.latencies_ms
    assert new.committed == old.committed
    assert new.user_aborted == old.user_aborted
    assert new.restarts == old.restarts
    assert new.escalations == old.escalations
    assert new.undo_disabled == old.undo_disabled
    assert new.early_prepared == old.early_prepared
    assert new.single_partition == old.single_partition
    assert new.distributed == old.distributed
    assert new.simulated_duration_ms == old.simulated_duration_ms
    assert new.window_duration_ms == old.window_duration_ms
    assert new.window_committed == old.window_committed
    assert set(new.breakdowns) == set(old.breakdowns)
    for procedure, expected in old.breakdowns.items():
        actual = new.breakdowns[procedure]
        assert actual.transactions == expected.transactions
        assert actual.estimation_ms == expected.estimation_ms
        assert actual.planning_ms == expected.planning_ms
        assert actual.execution_ms == expected.execution_ms
        assert actual.coordination_ms == expected.coordination_ms
        assert actual.other_ms == expected.other_ms


class TestLegacyEquivalence:
    @pytest.mark.parametrize(
        "bench_name,strategy_name,think",
        [
            ("tatp", "oracle", 0.0),
            ("tpcc", "houdini", 0.0),
            ("tatp", "assume-single-partition", 0.5),
        ],
    )
    def test_fcfs_metrics_identical_to_legacy_driver(self, bench_name, strategy_name, think):
        config = SimulatorConfig(total_transactions=250, client_think_time_ms=think)

        artifacts = pipeline.train(bench_name, 4, trace_transactions=300, seed=17)
        strategy = pipeline.make_strategy(strategy_name, artifacts)
        new = ClusterSimulator(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            config=config, benchmark_name=bench_name,
        ).run()

        artifacts = pipeline.train(bench_name, 4, trace_transactions=300, seed=17)
        strategy = pipeline.make_strategy(strategy_name, artifacts)
        old = legacy_run(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            CostModel(), config, bench_name,
        )
        _assert_identical(new, old)

    def test_completions_arrive_in_end_time_order(self):
        """The linear warm-up pass relies on event-ordered completions."""
        artifacts = pipeline.train("tpcc", 4, trace_transactions=300, seed=9)
        strategy = pipeline.make_strategy("oracle", artifacts)
        simulator = ClusterSimulator(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            config=SimulatorConfig(total_transactions=200), benchmark_name="tpcc",
        )
        result = simulator.run()
        # The window derived by the linear pass must match a sort-based one.
        assert result.window_duration_ms > 0
        assert 0 < result.window_committed <= result.committed


class TestSessionLegacyEquivalence:
    """The session API's bar: ``ClusterSession.run_for`` must reproduce the
    pre-steppable ``ClusterSimulator.run()`` byte for byte, which transitively
    means reproducing the original greedy driver (``legacy_run`` above)."""

    @pytest.mark.parametrize(
        "bench_name,strategy_name,think",
        [
            ("tatp", "houdini", 0.0),
            ("tpcc", "oracle", 0.5),
        ],
    )
    def test_run_for_metrics_identical_to_legacy_driver(self, bench_name, strategy_name, think):
        from repro.session import Cluster, ClusterSpec

        config = SimulatorConfig(total_transactions=250, client_think_time_ms=think)

        artifacts = pipeline.train(bench_name, 4, trace_transactions=300, seed=17)
        strategy = pipeline.make_strategy(strategy_name, artifacts)
        spec = ClusterSpec(
            benchmark=bench_name, num_partitions=4,
            client_think_time_ms=think,
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        new = session.run_for(txns=250)
        session.close()

        artifacts = pipeline.train(bench_name, 4, trace_transactions=300, seed=17)
        strategy = pipeline.make_strategy(strategy_name, artifacts)
        old = legacy_run(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            CostModel(), config, bench_name,
        )
        _assert_identical(new, old)

    def test_split_run_for_calls_match_one_batch_run(self):
        """Driving the core in slices quiesces between slices, so only an
        uninterrupted budget reproduces the batch run; a fresh session given
        the full budget at once must match run() exactly."""
        def train():
            artifacts = pipeline.train("tatp", 4, trace_transactions=250, seed=11)
            return artifacts, pipeline.make_strategy("oracle", artifacts)

        from repro.session import Cluster, ClusterSpec

        artifacts, strategy = train()
        batch = ClusterSimulator(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            config=SimulatorConfig(total_transactions=200), benchmark_name="tatp",
        ).run()

        artifacts, strategy = train()
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4),
            artifacts=artifacts, strategy=strategy,
        )
        whole = session.run_for(txns=200)
        _assert_identical(whole, batch)
        # Further driving only adds to the cumulative accumulators.
        more = session.run_for(txns=50)
        assert more.total_transactions == 250
        session.close()


class TestSchedulingIntegration:
    @pytest.mark.parametrize("policy", ["shortest-predicted", "single-partition-first"])
    def test_policies_run_inside_the_event_loop(self, policy):
        artifacts = pipeline.train("smallbank", 4, trace_transactions=400, seed=5)
        strategy = pipeline.make_strategy("houdini", artifacts)
        result = pipeline.simulate(
            artifacts, strategy, transactions=300, policy=policy
        )
        assert result.total_transactions == 300
        assert result.scheduler_stats is not None
        assert result.scheduler_stats.dispatched == 300
        # Prediction-aware policies actually reorder the saturated queue.
        assert result.scheduler_stats.reordered > 0

    def test_admission_control_is_exercised(self):
        artifacts = pipeline.train("smallbank", 4, trace_transactions=400, seed=5)
        strategy = pipeline.make_strategy("houdini", artifacts)
        result = pipeline.simulate(
            artifacts, strategy, transactions=300,
            admission_limits=AdmissionLimits(max_in_flight=4, max_deferrals=512),
        )
        assert result.total_transactions == 300
        assert result.admission_stats is not None
        assert result.admission_stats.admitted == 300
        assert result.admission_stats.deferred > 0
        assert result.rejected == 0

    def test_admission_deferral_counts_on_the_deferred_transaction(self):
        """Every admission DEFER bumps the deferred transaction's counter
        (the input of the ``max_deferrals`` rejection budget and of aging)."""
        from repro.session import Cluster, ClusterSpec

        artifacts = pipeline.train("tatp", 4, trace_transactions=150, seed=5)
        session = Cluster.open(
            ClusterSpec(
                benchmark="tatp", num_partitions=4,
                admission=AdmissionLimits(max_in_flight=1, max_deferrals=10_000),
            ),
            artifacts=artifacts,
        )
        simulator = session.simulator
        simulator.extend_budget(60)
        # A deferred transaction is requeued by the drain that deferred it,
        # so it is queued when the step returns.
        seen = {}
        while session.step():
            for pending in simulator.scheduler.pending_transactions():
                seen[id(pending)] = pending
        deferred = simulator.admission.stats.deferred
        assert deferred > 0
        assert sum(pending.deferrals for pending in seen.values()) == deferred
        session.close()

    def test_admission_rejection_backs_the_client_off(self):
        artifacts = pipeline.train("smallbank", 4, trace_transactions=400, seed=5)
        strategy = pipeline.make_strategy("houdini", artifacts)
        result = pipeline.simulate(
            artifacts, strategy, transactions=300,
            admission_limits=AdmissionLimits(max_in_flight=2, max_deferrals=1),
        )
        # Rejected requests consume a submission slot but never execute.
        assert result.rejected > 0
        assert result.total_transactions == 300 - result.rejected
        assert result.admission_stats.rejected == result.rejected

    def test_fcfs_with_policy_name_matches_default(self):
        def run(policy):
            artifacts = pipeline.train("tatp", 4, trace_transactions=200, seed=13)
            strategy = pipeline.make_strategy("oracle", artifacts)
            return pipeline.simulate(artifacts, strategy, transactions=150, policy=policy)

        _assert_identical(run("fcfs"), run(None))


# ----------------------------------------------------------------------
# Folded completions agree with TXN_COMPLETE completions
# ----------------------------------------------------------------------
_LOOP_STRATEGIES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
    "houdini-partitioned",
)


def _open_session(bench_name, strategy_name, *, seed, think=0.0, **spec):
    from repro.session import Cluster, ClusterSpec

    artifacts = pipeline.train(bench_name, 4, trace_transactions=150, seed=seed)
    return Cluster.open(
        ClusterSpec(
            benchmark=bench_name, num_partitions=4, client_think_time_ms=think,
            **spec,
        ),
        artifacts=artifacts,
        strategy=pipeline.make_strategy(strategy_name, artifacts),
    )


def _drive(simulator, txns, *, folded):
    """Grant ``txns`` submissions and run to quiescence.

    ``run_until()`` folds each closed-loop completion into its client's next
    ``CLIENT_READY`` event.  Any finite deadline turns the fold off, so
    ``folded=False`` drives the same budget through ``TXN_COMPLETE`` events.
    """
    simulator.extend_budget(txns)
    if folded:
        simulator.run_until()
    else:
        simulator.run_until(deadline_ms=1e300)


class TestFoldedCompletionsAgree:
    """Under FCFS without admission or tenancy, dispatch may fold a
    completion into its client's next event or push a ``TXN_COMPLETE``;
    the choice must never show in the result."""

    @pytest.mark.parametrize("bench_name", ["tatp", "tpcc", "smallbank"])
    @pytest.mark.parametrize("strategy_name", _LOOP_STRATEGIES)
    def test_folded_completions_equal_txn_complete_events(
        self, bench_name, strategy_name
    ):
        def run(folded):
            session = _open_session(bench_name, strategy_name, seed=17)
            _drive(session.simulator, 300, folded=folded)
            return session.close().to_dict()

        assert run(folded=True) == run(folded=False)

    @pytest.mark.parametrize("think", [0.0, 0.5])
    def test_out_of_loop_submit_between_folded_stretches(self, think):
        """A folded stretch, then an out-of-loop submit (whose completion is
        a ``TXN_COMPLETE`` event), then a further stretch: identical to
        driving everything through ``TXN_COMPLETE`` events, including the
        submitted transaction's accounting."""

        def scripted(folded):
            session = _open_session("tatp", "houdini", seed=11, think=think)
            simulator = session.simulator
            _drive(simulator, 400, folded=folded)
            raw = simulator.generator.next_request()
            session.submit(ProcedureRequest(raw.procedure, raw.parameters, 0, 0))
            _drive(simulator, 150, folded=folded)
            return session.close()

        folded, unfolded = scripted(folded=True), scripted(folded=False)
        assert folded.to_dict() == unfolded.to_dict()
        assert folded.total_transactions == 551


# ----------------------------------------------------------------------
# Pinned result digests
# ----------------------------------------------------------------------
def _seeded_run(bench_name, strategy_name="houdini", **spec):
    """300 transactions at seed 17 on 4 partitions, drained by close()."""
    session = _open_session(bench_name, strategy_name, seed=17, **spec)
    session.run_for(txns=300)
    return session.close().to_dict()


def _tenancy_run():
    from repro.tenancy import TenancyConfig, TenantPolicy
    from repro.workload import OpenLoopSource, TenantSource

    return _seeded_run(
        "tatp",
        workload=TenantSource({
            "gold": OpenLoopSource(400.0, "poisson", seed=17),
            "free": OpenLoopSource(1200.0, "poisson", seed=17),
        }),
        tenancy=TenancyConfig(
            tenants={
                "gold": TenantPolicy(weight=4.0, slo_latency_ms=20.0),
                "free": TenantPolicy(weight=1.0, slo_latency_ms=40.0),
            },
            shed=True,
        ),
    )


def _paused_run():
    """A closed loop paused mid-flight, its in-flight view, then drained."""
    session = _open_session("tatp", "houdini", seed=17)
    paused = session.run_for(sim_seconds=0.1)
    return {
        "paused": paused.to_dict(),
        "in_flight": [entry.to_dict() for entry in session.in_flight()],
        "closed": session.close().to_dict(),
    }


DIGEST_RUNS = {
    **{
        f"{bench}-{strategy}": (lambda b=bench, s=strategy: _seeded_run(b, s))
        for bench in ("tatp", "tpcc", "smallbank")
        for strategy in _LOOP_STRATEGIES
    },
    "tatp-predictive": lambda: _seeded_run("tatp", policy="shortest-predicted"),
    "tatp-admission": lambda: _seeded_run("tatp", admission={"max_in_flight": 8}),
    "tatp-tenancy": _tenancy_run,
    "tatp-paused": _paused_run,
}


def result_digest(run: str) -> str:
    payload = json.dumps(DIGEST_RUNS[run](), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


#: sha256 of each run's ``to_dict()`` JSON (sorted keys), captured from the
#: simulator that still had a separate pass-through FCFS loop.
GOLDEN_DIGESTS = {
    "smallbank-assume-distributed":
        "f27efe1aaf5b7e679af3982df63ebc983c2618cf29b6802fd978fd3fd31cd8fe",
    "smallbank-assume-single-partition":
        "038d5f9a9912bce96c9ab5665064d210ac729e38de40331a057cad779f7530ed",
    "smallbank-houdini":
        "f032d6a535e6903a57b941428e68aa340894e75a9cf666e0a98e5db215a6705a",
    "smallbank-houdini-partitioned":
        "9ebb5d3b89c09d1490ea182903732d4afe358cb801fe46c45e776d7ff485a829",
    "smallbank-oracle":
        "caaab7634063bd06081856a71b0b2a8d3a3a2a11015c9fa3a5af19e8a79b82c3",
    "tatp-admission":
        "caf1c61db9829fc413aa2eea186d3484acfd7825801cd230501729e777c85a70",
    "tatp-assume-distributed":
        "cee20a24bd5f93f54b9f3ec3cb3d1090b4826cfed6e64ae6913be0fe79cf85d3",
    "tatp-assume-single-partition":
        "458088c982ba5e79a82304666bbbf6a37decf7725cf2b6a1961c8f6a6ac766f7",
    "tatp-houdini":
        "b13399536d7b860c27d73dd571f238cbb86a76c4b73ae96612532bea8423f7cd",
    "tatp-houdini-partitioned":
        "0470420231ec7aaa01501bbffbadbbeb4a4bc8532ead47c06d803a9ad4d6ae7f",
    "tatp-oracle":
        "df096aa21fabba802352cf82061f1bff4d9d2bf7e5d73bb60aceeccf5ceaa1f6",
    "tatp-paused":
        "285c473488cd2cc69ea593ab73ba20cb4e07aaab3d3822fb0579250a3fd85ade",
    "tatp-predictive":
        "ad2a28afb8f94e99a41c5123390053cc1778c7aeffae7f5e4b1513d4994eacb2",
    "tatp-tenancy":
        "0cfac2714f5674b18b703bd4654ee2d2e1953ce3713a4045fa07cc33b5367936",
    "tpcc-assume-distributed":
        "a2c8a03beb52d297afd7e551e748b0674f4d84554e5e74334283d78333b5c640",
    "tpcc-assume-single-partition":
        "7472f9d1ef95eece11530fd11b6a261bbb8a34ffd9f226d385c7d64eaa14e4ac",
    "tpcc-houdini":
        "dc8452a4dbbc52e9480c8710807e0e733f355d3660ad87bf0cbd202a10be695a",
    "tpcc-houdini-partitioned":
        "ebf9e1a6c393f64fb4a02157fbe9e2711f1bd722e53ff470d8da9717bf0ec479",
    "tpcc-oracle":
        "702f49ee0c833dc62ea82db9ff766a4b351804cdf1ab6948b9a3bc70463220cd",
}


@pytest.mark.parametrize("run", sorted(DIGEST_RUNS))
def test_result_digest_is_pinned(run):
    """Seeded runs reproduce their pinned results byte for byte."""
    assert result_digest(run) == GOLDEN_DIGESTS[run]
