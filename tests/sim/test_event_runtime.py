"""Tests for the event-driven simulator runtime.

The central contract: under the default FCFS configuration the event-driven
loop reproduces the legacy greedy driver's results *exactly* — same
latencies, same counters, same warm-up window, same per-procedure breakdowns
— while prediction-aware policies and admission control run inside the same
loop.  The legacy driver is preserved here verbatim as the reference
implementation.
"""

from __future__ import annotations

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
# The two inline loops agree
# ----------------------------------------------------------------------
_LOOP_STRATEGIES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
    "houdini-partitioned",
)


def _open_session(bench_name, strategy_name, *, seed, think=0.0):
    from repro.session import Cluster, ClusterSpec

    artifacts = pipeline.train(bench_name, 4, trace_transactions=150, seed=seed)
    return Cluster.open(
        ClusterSpec(
            benchmark=bench_name, num_partitions=4, client_think_time_ms=think
        ),
        artifacts=artifacts,
        strategy=pipeline.make_strategy(strategy_name, artifacts),
    )


def _drive(simulator, txns, *, general):
    """Grant ``txns`` submissions and run to quiescence.

    Any finite deadline keeps the pass-through fast loop out of the way, so
    ``general=True`` drives the same budget through the general event loop.
    """
    simulator.extend_budget(txns)
    if general:
        simulator.run_until(deadline_ms=1e300)
    else:
        simulator.run_until()


class TestFastAndGeneralLoopsAgree:
    """Under FCFS without admission or tenancy the simulator may take either
    event loop; the choice must never show in the result."""

    @pytest.mark.parametrize("bench_name", ["tatp", "tpcc", "smallbank"])
    @pytest.mark.parametrize("strategy_name", _LOOP_STRATEGIES)
    def test_fast_loop_equals_general_loop(self, bench_name, strategy_name):
        def run(general):
            session = _open_session(bench_name, strategy_name, seed=17)
            _drive(session.simulator, 300, general=general)
            return session.close().to_dict()

        assert run(general=False) == run(general=True)

    @pytest.mark.parametrize("think", [0.0, 0.5])
    def test_out_of_loop_submit_between_fast_stretches(self, think):
        """Fast loop, then an out-of-loop submit (forcing the general loop),
        then a further stretch: identical to driving everything through the
        general loop, including the submitted transaction's accounting."""

        def scripted(general):
            session = _open_session("tatp", "houdini", seed=11, think=think)
            simulator = session.simulator
            _drive(simulator, 400, general=general)
            raw = simulator.generator.next_request()
            session.submit(ProcedureRequest(raw.procedure, raw.parameters, 0, 0))
            _drive(simulator, 150, general=general)
            return session.close()

        fast, general = scripted(general=False), scripted(general=True)
        assert fast.to_dict() == general.to_dict()
        assert fast.total_transactions == 551
