"""Simulator-throughput tracking (BENCH_simulator.json).

Measures end-to-end simulated transactions per wall second through the
event-driven runtime — closed-loop clients, scheduler routing, functional
execution through the coordinator, cost-model replay, metric finalization —
under the default FCFS configuration, and tracks the result against the
committed pre-change baseline in ``benchmarks/baselines/``.

Runs go through the public session API (``Cluster.open`` →
``ClusterSession.run_for``), so the measured path is exactly what clients
of the redesigned surface pay; the timed region excludes training and
session assembly, matching the baseline protocol's timed region
(``ClusterSimulator.run()`` alone).

Protocol (must match the committed baseline's):

* TATP and TPC-C at 16 partitions (the paper's fixed-size cluster), four
  clients per partition;
* Houdini strategy with global models (``learning=False`` so repeated
  rounds are comparable), default :class:`HoudiniConfig` / ``CostModel``;
* 2000 transactions per run, best of three rounds with fresh artifacts,
  CPU time (GC paused).

The absolute speedup against the committed baseline is only asserted on
hosts comparable to the one that measured the baseline (opt in via
``REPRO_BENCH_STRICT=1``) — wall-clock throughput is not commensurable
across machines, so on arbitrary CI hardware the ratio is reported only.

Scale mode (million-user PR) adds three more tracked sections, measured
against ``baselines/simulator_pre_scale_mode.json``:

* ``arrival_generation`` — the 1M-arrival micro-benchmark: the vectorized
  kernel against the scalar one-gap-at-a-time fallback, interleaved in the
  same session (the acceptance floor is 5x on baseline-comparable hosts,
  2x anywhere numpy runs);
* ``chunked_consumption`` — batched ``CompiledSource.take_until`` against
  the per-element peek/pop loop it replaced;
* ``scale_mode`` — the >= 1,000,000-user overload knee study under
  ``metrics_mode="streaming"`` (bounded memory asserted), plus the exact-
  vs-streaming metrics-footprint comparison on one overload probe.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

from repro import pipeline
from repro.session import Cluster, ClusterSpec
from repro.strategies import HoudiniStrategy
from repro.workload import ClientCohortSource, Cohort, arrival_times

PARTITIONS = 16
TRANSACTIONS = 2000
ROUNDS = 3

#: The 1M-arrival micro-benchmark (vectorized vs scalar generation).
ARRIVALS = 1_000_000
ARRIVAL_RATE = 1000.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
BASELINES = Path(__file__).resolve().parent / "baselines"


def _merge_sections(**sections) -> dict:
    """Read-modify-write BENCH_simulator.json so every test contributes its
    section regardless of which subset of this module runs."""
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    report.update(sections)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _best_of(rounds: int, run) -> float:
    """Best wall rate (units/sec) over ``rounds`` calls of ``run() -> rate``."""
    best = 0.0
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            best = max(best, run())
        finally:
            gc.enable()
    return best


def _measure(benchmark_name: str, scale) -> dict:
    """Best-of-``ROUNDS`` wall throughput of one simulator configuration."""
    best = 0.0
    simulated = 0.0
    for _ in range(ROUNDS):
        artifacts = pipeline.train(
            benchmark_name, PARTITIONS,
            trace_transactions=min(scale.trace_transactions, 1500), seed=0,
        )
        strategy = HoudiniStrategy(pipeline.make_houdini(artifacts, learning=False))
        session = Cluster.open(
            ClusterSpec(benchmark=benchmark_name, num_partitions=PARTITIONS),
            artifacts=artifacts,
            strategy=strategy,
        )
        gc.collect()
        gc.disable()
        started = time.process_time()
        result = session.run_for(txns=TRANSACTIONS)
        elapsed = time.process_time() - started
        gc.enable()
        session.close()
        report = result.to_dict()
        assert report["committed"] + report["user_aborted"] == TRANSACTIONS
        throughput = TRANSACTIONS / elapsed
        if throughput > best:
            best = throughput
            simulated = report["derived"]["throughput_txn_per_sec"]
    return {
        "wall_txns_per_sec": round(best, 1),
        "simulated_throughput_txn_s": round(simulated, 1),
    }


def test_simulator_throughput_tracking(scale, save_result):
    """Emit BENCH_simulator.json: the perf trajectory of the event runtime."""
    baseline_path = (
        Path(__file__).resolve().parent / "baselines" / "simulator_pre_walk_cache.json"
    )
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    report = {
        "protocol": baseline["protocol"],
        "wall_clock_note": "Wall ratios against the committed baseline "
        "numbers are only commensurable when both sides run interleaved "
        "in one session: on this container, cross-session drift alone "
        "moves absolute rates 15-25%. The TPC-C ratio sits below TATP's "
        "because the walk-cache's per-plan-shape schedule cache amortizes "
        "poorly there: TPC-C produces ~580 distinct shapes at a ~73% hit "
        "rate in a 2000-txn run (TATP: ~104 shapes, ~95%), so more "
        "transactions pay shape-key construction on top of the full "
        "schedule computation. The batched attempt_timings replay trims "
        "the repeated-shape probes of restarted transactions; the "
        "adaptive bypass already disables the cache entirely when the "
        "hit rate collapses.",
        "baseline": {
            "description": baseline["description"],
            "tatp": baseline["tatp"],
            "tpcc": baseline["tpcc"],
        },
    }
    for name in ("tatp", "tpcc"):
        current = _measure(name, scale)
        speedup = current["wall_txns_per_sec"] / baseline[name]["wall_txns_per_sec"]
        report[name] = {
            **current,
            "speedup_vs_pre_change_baseline": round(speedup, 2),
        }
        if os.environ.get("REPRO_BENCH_STRICT") == "1":
            assert speedup >= 1.5
    report = _merge_sections(**report)
    save_result(
        "simulator_throughput",
        f"Simulator throughput (wall txns/s, {PARTITIONS} partitions, houdini strategy)\n"
        + "\n".join(
            f"  {name}: {report[name]['wall_txns_per_sec']:.0f} txns/s "
            f"({report[name]['speedup_vs_pre_change_baseline']:.2f}x pre-change baseline, "
            f"simulated {report[name]['simulated_throughput_txn_s']:.0f} txn/s)"
            for name in ("tatp", "tpcc")
        ),
    )


# ----------------------------------------------------------------------
# Scale mode: vectorized arrivals, chunked consumption, 1M-user overload
# ----------------------------------------------------------------------
def test_arrival_generation_micro(save_result):
    """1M-arrival micro-benchmark: vectorized kernel vs scalar fallback.

    Interleaved in the same session (scalar round, vectorized round, three
    times) so machine-state drift cancels; the committed pre-change scalar
    rate is kept in ``baselines/simulator_pre_scale_mode.json``.
    """
    baseline = json.loads(
        (BASELINES / "simulator_pre_scale_mode.json").read_text(encoding="utf-8")
    )
    scalar_best = vector_best = 0.0
    for _ in range(ROUNDS):
        for vectorized in (False, True):
            gc.collect()
            gc.disable()
            started = time.process_time()
            times = arrival_times(
                "poisson", ARRIVAL_RATE, ARRIVALS, seed=0, vectorized=vectorized,
            )
            elapsed = time.process_time() - started
            gc.enable()
            assert len(times) == ARRIVALS
            rate = ARRIVALS / elapsed
            if vectorized:
                vector_best = max(vector_best, rate)
            else:
                scalar_best = max(scalar_best, rate)
    speedup = vector_best / scalar_best
    section = {
        "protocol": f"{ARRIVALS:,} poisson arrivals at {ARRIVAL_RATE:g} txn/s, "
        "seed 0, interleaved scalar/vectorized rounds, best of "
        f"{ROUNDS} per side, CPU time with GC paused",
        "scalar_arrivals_per_sec": round(scalar_best, 1),
        "vectorized_arrivals_per_sec": round(vector_best, 1),
        "speedup_vectorized_vs_scalar": round(speedup, 2),
        "baseline_scalar_arrivals_per_sec": baseline["arrival_generation"][
            "scalar_arrivals_per_sec"
        ],
    }
    _merge_sections(arrival_generation=section)
    # The kernel must beat the scalar path everywhere numpy runs; the 5x
    # acceptance floor is asserted on baseline-comparable hosts.
    assert speedup >= 2.0
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= 5.0
    save_result(
        "arrival_generation",
        f"Arrival generation ({ARRIVALS:,} poisson arrivals)\n"
        f"  scalar:     {scalar_best:,.0f} arrivals/s\n"
        f"  vectorized: {vector_best:,.0f} arrivals/s ({speedup:.1f}x)",
    )


def test_chunked_take_until_micro(save_result):
    """Batched ``take_until`` vs the per-element peek/pop loop it replaced."""
    from repro.types import ProcedureRequest
    from repro.workload.sources import Arrival, CompiledSource

    count = 400_000
    times = arrival_times("poisson", ARRIVAL_RATE, count, seed=1)
    arrivals = [
        Arrival(at, ProcedureRequest("proc", (i,)), None)
        for i, at in enumerate(times)
    ]
    step_ms = 250.0

    def chunks():
        return (arrivals[i:i + 512] for i in range(0, count, 512))

    def batched() -> float:
        source = CompiledSource(chunks=chunks())
        deadline, got = step_ms, 0
        started = time.process_time()
        while got < count:
            got += len(source.take_until(deadline))
            deadline += step_ms
        return count / (time.process_time() - started)

    def scalar() -> float:
        source = CompiledSource(chunks=chunks())
        deadline, got = step_ms, 0
        started = time.process_time()
        while got < count:
            while (nxt := source.peek()) is not None and nxt.at_ms <= deadline:
                source.pop()
                got += 1
            deadline += step_ms
        return count / (time.process_time() - started)

    scalar_best = _best_of(ROUNDS, scalar)
    batched_best = _best_of(ROUNDS, batched)
    speedup = batched_best / scalar_best
    _merge_sections(chunked_consumption={
        "protocol": f"{count:,} arrivals drained in {step_ms:g}ms take_until "
        f"windows, 512-arrival chunks, best of {ROUNDS} interleavable rounds",
        "peek_pop_arrivals_per_sec": round(scalar_best, 1),
        "take_until_arrivals_per_sec": round(batched_best, 1),
        "speedup_batched_vs_peek_pop": round(speedup, 2),
    })
    assert speedup >= 1.0, "batched consumption must never lose to peek/pop"
    save_result(
        "chunked_consumption",
        f"CompiledSource.take_until ({count:,} arrivals, {step_ms:g}ms windows)\n"
        f"  peek/pop loop: {scalar_best:,.0f} arrivals/s\n"
        f"  take_until:    {batched_best:,.0f} arrivals/s ({speedup:.1f}x)",
    )


def _metrics_footprint(result) -> int:
    """Approximate bytes held by the latency accumulator of a result."""
    if result.latency_sketch is not None:
        sketch = result.latency_sketch
        return sys.getsizeof(sketch._reservoir) + 24 * len(sketch._reservoir) + 400
    return sys.getsizeof(result.latencies_ms) + 24 * len(result.latencies_ms)


def test_scale_mode_overload(scale, save_result):
    """The >= 1,000,000-user overload study: bounded memory, located knee.

    Runs the knee finder (``repro knee``) with a million-user cohort under
    streaming metrics, then one exact-vs-streaming probe pair at a fixed
    offered rate to quantify the metrics-memory difference the sketch buys.
    """
    from repro.experiments.overload_knee import run_overload_knee

    users = 1_000_000
    result = run_overload_knee(scale, "tatp", users=users, probe_seconds=1.0)
    assert result.users >= 1_000_000
    assert result.knee_rate > 0
    # Bounded memory: the entire search (training + ~10 probes) must fit in
    # a small fraction of what a per-user or per-latency representation
    # would take.  4 GiB is far above observed (~100 MiB) but catches
    # accidental O(users) or O(arrivals) state.
    assert result.peak_rss_mib < 4096

    # Metrics footprint: one overload probe per mode at the same offered
    # rate over the same window (fresh deterministic training per side).
    baseline = json.loads(
        (BASELINES / "simulator_pre_scale_mode.json").read_text(encoding="utf-8")
    )
    window_s, per_user = 20.0, 0.002
    footprints = {}
    for mode in ("exact", "streaming"):
        artifacts = pipeline.train("tatp", 4, trace_transactions=600, seed=0)
        strategy = pipeline.make_strategy("houdini", artifacts)
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=4, trace_transactions=600, seed=0,
            learning=False, metrics_mode=mode,
            workload=ClientCohortSource(
                [Cohort("clients", users, rate_per_user_per_sec=per_user)],
                label_tenants=False,
            ),
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        probe = session.run_for(sim_seconds=window_s)
        footprints[mode] = {
            "completions": probe.committed + probe.user_aborted,
            "latency_bytes": _metrics_footprint(probe),
        }
    ratio = footprints["exact"]["latency_bytes"] / footprints["streaming"]["latency_bytes"]
    # The sketch is constant-size; the exact list grows with completions.
    assert footprints["streaming"]["latency_bytes"] < 128 * 1024
    _merge_sections(scale_mode={
        "protocol": f"knee finder on tatp with one {users:,}-user cohort, "
        "streaming metrics, 1.0s probes; footprint pair measured at "
        f"{per_user * users:g} txn/s offered over {window_s:g} simulated "
        "seconds (see baselines/simulator_pre_scale_mode.json)",
        "users": users,
        "knee_rate_txn_s": round(result.knee_rate, 1),
        "p95_at_knee_ms": round(result.p95_at_knee_ms, 3),
        "probes": len(result.probes),
        "peak_rss_mib": round(result.peak_rss_mib, 1),
        "metrics_footprint": {
            **footprints,
            "exact_over_streaming": round(ratio, 1),
            "baseline_exact_latency_bytes": baseline["exact_mode_overload"][
                "latency_bytes"
            ],
        },
    })
    save_result(
        "scale_mode",
        f"Scale mode ({users:,} simulated users)\n"
        f"  knee: {result.knee_rate:.0f} txn/s "
        f"(p95 {result.p95_at_knee_ms:.1f} ms, {len(result.probes)} probes, "
        f"peak RSS {result.peak_rss_mib:.0f} MiB)\n"
        f"  metrics footprint: exact {footprints['exact']['latency_bytes']:,} B "
        f"vs streaming {footprints['streaming']['latency_bytes']:,} B "
        f"({ratio:.0f}x)",
    )


# ----------------------------------------------------------------------
# Multi-tenant SLO subsystem: the cost of having it, off and on
# ----------------------------------------------------------------------
def _tenancy_round(tenancy) -> float:
    """One closed-loop TATP round under the pre-tenancy baseline protocol."""
    artifacts = pipeline.train("tatp", PARTITIONS, trace_transactions=1500, seed=0)
    strategy = HoudiniStrategy(pipeline.make_houdini(artifacts, learning=False))
    session = Cluster.open(
        ClusterSpec(benchmark="tatp", num_partitions=PARTITIONS, tenancy=tenancy),
        artifacts=artifacts,
        strategy=strategy,
    )
    started = time.process_time()
    result = session.run_for(txns=TRANSACTIONS)
    elapsed = time.process_time() - started
    session.close()
    assert result.committed + result.user_aborted == TRANSACTIONS
    return TRANSACTIONS / elapsed


def test_tenancy_overhead(save_result):
    """Track the tenancy subsystem's cost against the pre-change baseline.

    Two numbers against ``baselines/simulator_pre_tenancy.json``:

    * ``tenancy_off`` — the default path (``tenancy=None``).  The subsystem
      must be free when unused: every per-arrival hook is behind one
      ``self.tenancy is not None`` check and the scheduler stays the plain
      ``TransactionScheduler``.  This ratio is the asserted one.
    * ``tenancy_on`` — an *empty* ``TenancyConfig()`` on the identical
      closed loop, isolating the fixed machinery cost (TenantScheduler
      virtual clocks plus partition-gated dispatch) from any policy.  Gating
      is the dominant term: dispatch order must be re-derived from the
      weighted queues whenever a partition frees, and under a saturated
      closed loop with partition skew most scan passes dispatch nothing
      (the all-busy short-circuits in ``_drain`` bound the churn only once
      every partition is occupied).  Reported, not asserted.
    """
    from repro.tenancy import TenancyConfig

    baseline = json.loads(
        (BASELINES / "simulator_pre_tenancy.json").read_text(encoding="utf-8")
    )
    off = _best_of(ROUNDS, lambda: _tenancy_round(None))
    on = _best_of(ROUNDS, lambda: _tenancy_round(TenancyConfig()))
    base_rate = baseline["tatp"]["wall_txns_per_sec"]
    section = {
        "protocol": baseline["protocol"]
        + " tenancy_on attaches an empty TenancyConfig() to the same loop.",
        "baseline_wall_txns_per_sec": base_rate,
        "tenancy_off": {
            "wall_txns_per_sec": round(off, 1),
            "ratio_vs_pre_change": round(off / base_rate, 3),
        },
        "tenancy_on": {
            "wall_txns_per_sec": round(on, 1),
            "ratio_vs_pre_change": round(on / base_rate, 3),
        },
        "note": "Ratios vs the committed baseline are only commensurable "
        "when measured interleaved in one session (the baseline file "
        "records 0.98x for tenancy_off in its recording session); "
        "cross-session drift on the bench container is 15-25%. The "
        "tenancy_on figure is the cost of partition-gated weighted-fair "
        "dispatch under a saturated closed loop, the gate's worst case.",
    }
    _merge_sections(tenancy_overhead=section)
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert off / base_rate >= 0.9, "tenancy-off path must stay free"
    save_result(
        "tenancy_overhead",
        f"Tenancy overhead (TATP, {PARTITIONS} partitions, closed loop)\n"
        f"  off: {off:.0f} txns/s ({off / base_rate:.2f}x pre-change)\n"
        f"  on (empty config): {on:.0f} txns/s ({on / base_rate:.2f}x)",
    )
