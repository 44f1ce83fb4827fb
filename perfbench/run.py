"""Session benchmark: end-to-end metrics, output checks and a traced run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpcc-closed --seed 0 --seconds 10 --trace 0

A run measures fresh sessions through the public path, ``repro.session.train``
-> ``build_houdini`` -> ``Cluster.open`` -> one ``ClusterSession.run_for`` ->
``close``, until the timed ``run_for`` regions add up to ``--seconds``.  The
sessions serve the seed's traffic streams in turn (``Workload.stream``); a
``--trace 0`` run serves all of them the same number of times.  Wall-clock
metrics are medians over the sessions, simulated metrics the mean over the
streams.

Each session runs in its own child process, started one at a time, with
``PYTHONHASHSEED`` set to the session's number.  String hashing decides the
layout of every dict and set, and one process's layout moved the tenant
workload's wall rate by up to 15%; a fixed series of layouts, the same for
every seed and every commit, keeps that out of the comparison.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs pairs of sessions on one stream and one layout, untraced then traced,
and reports the per-layer metrics of the traced ones (wrappers from
:mod:`tracer`) and the tracing overhead.  Wall time is ``time.perf_counter``
on both sides of each timed region, with the garbage collector paused inside
it.

Every session is checked: submitted = committed + user-aborted + shed, nothing
in flight after ``close()``, and per-tenant totals sum to the global ones.
Sessions that serve the same stream, traced or not, must give the same
``SimulationResult.to_dict()`` digest, and at the default seed it must equal
the golden in ``goldens.json`` (``--write-goldens`` recaptures them).  A
failed check makes the run incorrect; it never becomes a number.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
#: Seconds one session process may take before the run fails.
SESSION_TIMEOUT_S = 170


class CheckFailed(Exception):
    """A session's outputs are wrong; the run must not report numbers."""


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the simulator's own convention)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(len(ordered) * q) - 1))]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
def run_session(workload, stream: int, traced: bool) -> dict:
    """One fresh session: set up, one timed ``run_for``, close, check.

    Runs inside the session's own process (:func:`_session_main`).
    """
    from repro import session
    from tracer import Tracer

    tracer = Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        spec = workload.spec(stream)
        artifacts = session.train(spec)
        houdini = session.build_houdini(artifacts, learning=False)
        live = session.Cluster.open(spec, artifacts=artifacts, houdini=houdini)
        workload.start(live, artifacts, stream)
        setup_s = time.perf_counter() - started
        setup_report = None
        if tracer is not None:
            setup_report = tracer.report()
            tracer.reset()
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            snapshot = live.run_for(txns=workload.txns)
            run_s = time.perf_counter() - started
        finally:
            gc.enable()
        run_report = tracer.report() if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.remove()
    result = live.close()
    _check(workload, result, live)
    out = {
        "stream": stream,
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_txn_s": (snapshot.committed + snapshot.user_aborted + snapshot.rejected) / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(result),
        "samples": len(result.latencies_ms),
        "sim_txn_s": result.throughput_txn_per_sec,
        "sim_latency_p50_ms": result.latency_quantile(0.5),
        "sim_latency_p99_ms": result.latency_quantile(0.99),
        "served_frac": (result.committed + result.user_aborted) / workload.txns,
    }
    if tracer is not None:
        out["layers"] = _layer_row(run_report, setup_report)
        out["shares"] = _shares(run_report, run_s)
    return out


def _check(workload, result, live) -> None:
    """Conservation laws of one closed session."""
    submitted = workload.txns
    resolved = result.committed + result.user_aborted + result.rejected
    if resolved != submitted:
        raise CheckFailed(
            f"{submitted} submitted but {result.committed} committed + "
            f"{result.user_aborted} user-aborted + {result.rejected} shed/rejected"
        )
    left = live.simulator.in_flight()
    if left:
        raise CheckFailed(f"{len(left)} transactions still in flight after close()")
    if result.tenants:
        tenants = result.tenants.values()
        sums = {
            "submitted": (sum(t.submitted for t in tenants), submitted),
            "committed": (sum(t.committed for t in tenants), result.committed),
            "user_aborted": (sum(t.user_aborted for t in tenants), result.user_aborted),
            "rejected": (sum(t.rejected for t in tenants), result.rejected),
        }
        for field, (total, expected) in sums.items():
            if total != expected:
                raise CheckFailed(f"tenant {field} sum {total} != global {expected}")


# ----------------------------------------------------------------------
def end_to_end(sessions: list[dict]) -> dict:
    streams = list({s["stream"]: s for s in sessions}.values())

    def mean(name: str) -> float:
        return statistics.fmean(s[name] for s in streams)

    return {
        "wall_txn_s": statistics.median(s["wall_txn_s"] for s in sessions),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mib": max(s["peak_rss_mib"] for s in sessions),
        "sim_txn_s": mean("sim_txn_s"),
        "sim_latency_p50_ms": mean("sim_latency_p50_ms"),
        "sim_latency_p99_ms": mean("sim_latency_p99_ms"),
        "served_frac": mean("served_frac"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of each traced session, then the median of each.

    ``traced[i]`` and ``untraced[i]`` served the same stream in the same
    layout; the tracing overhead is the median over these pairs.
    """
    rows = [s["layers"] for s in traced]
    merged = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    merged["trace.overhead_frac"] = statistics.median(
        on["run_s"] / off["run_s"] - 1.0 for on, off in zip(traced, untraced)
    )
    return merged


def _layer_row(report: dict, setup: dict) -> dict:
    calls, self_s, spans = report["calls"], report["self_s"], report["durations"]
    txns = calls["txn.execute"]
    scheduling = ("scheduling.submit", "scheduling.pop", "scheduling.requeue")

    def setup_s(layer: str) -> float:
        return sum(setup["durations"][layer])

    return {
        "workload.next_request.calls": calls["workload.next_request"],
        "workload.next_request.self_s": self_s["workload.next_request"],
        "houdini.plan.calls": calls["houdini.plan"],
        "houdini.plan.self_s": self_s["houdini.plan"],
        "houdini.plan_us_p50": 1e6 * _quantile(spans["houdini.plan"], 0.5),
        "houdini.plan_us_p99": 1e6 * _quantile(spans["houdini.plan"], 0.99),
        "houdini.estimate_fresh.calls": calls["houdini.estimate_fresh"],
        "houdini.estimate_fresh.self_s": self_s["houdini.estimate_fresh"],
        "houdini.walk_record.calls": calls["houdini.walk_record"],
        "houdini.estimate_cache.hit_frac": _ratio(
            report["hits"]["houdini.estimate_cache"], calls["houdini.estimate_cache"]
        ),
        "houdini.decide.self_s": self_s["houdini.decide"],
        "houdini.restart_frac": _ratio(calls["houdini.plan_restart"], txns),
        "runtime.monitor.calls": calls["runtime.monitor"],
        "runtime.monitor.self_s": self_s["runtime.monitor"],
        "runtime.finish.self_s": self_s["runtime.finish"],
        "txn.execute_us_p50": 1e6 * _quantile(spans["txn.execute"], 0.5),
        "txn.execute_us_p99": 1e6 * _quantile(spans["txn.execute"], 0.99),
        "txn.attempts_per_txn": _ratio(calls["engine.execute_attempt"], txns),
        "engine.execute_attempt.self_s": self_s["engine.execute_attempt"],
        "engine.statement.calls": calls["engine.statement"],
        "engine.statement.self_s": self_s["engine.statement"],
        "storage.undo.records": report["hits"]["storage.undo.write"],
        "storage.undo.skipped": calls["storage.undo.write"] - report["hits"]["storage.undo.write"]
        + calls["storage.undo.note_skipped"],
        "storage.undo.rollbacks": calls["storage.undo.rollback"],
        "cost_model.calls": calls["cost_model"],
        "cost_model.self_s": self_s["cost_model"],
        "scheduling.submit.calls": calls["scheduling.submit"],
        "scheduling.pop.calls": calls["scheduling.pop"],
        "scheduling.requeue.calls": calls["scheduling.requeue"],
        "scheduling.pops_per_dispatch": _ratio(calls["scheduling.pop"], txns),
        "scheduling.self_s": sum(self_s[layer] for layer in scheduling),
        "tenancy.should_shed.calls": calls["tenancy.should_shed"],
        "tenancy.should_shed.self_s": self_s["tenancy.should_shed"],
        "sim.loop.self_s": self_s["sim.loop"],
        "metrics.snapshot.self_s": self_s["metrics.snapshot"],
        "setup.build_benchmark_s": setup_s("setup.build_benchmark"),
        "setup.record_trace_s": setup_s("setup.record_trace"),
        "setup.build_models_s": setup_s("setup.build_models"),
        "setup.build_mappings_s": setup_s("setup.build_mappings"),
        "setup.build_houdini_s": setup_s("setup.build_houdini"),
        "setup.open_s": setup_s("setup.open"),
    }


def _shares(report: dict, run_s: float) -> list[tuple[str, float]]:
    """Each layer's self time as a share of the traced ``run_for`` time,
    per layer and per module."""
    rows = [
        (layer, seconds / run_s)
        for layer, seconds in report["self_s"].items()
        if not layer.startswith("setup.")
    ]
    modules: dict[str, float] = {}
    for layer, share in rows:
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + share
    rows.sort(key=lambda row: -row[1])
    rows.append(("(not in any traced layer)", 1.0 - report["covered_s"] / run_s))
    rows.extend(
        (f"module {module}", share)
        for module, share in sorted(modules.items(), key=lambda row: -row[1])
    )
    return rows


# ----------------------------------------------------------------------
def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed run_for seconds to accumulate per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="record this run's result digests as the workload's goldens")
    # One session in this process: the child side of the run.
    parser.add_argument("--session-stream", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.session_stream is not None:
        return _session_main(workload, args.session_stream, bool(args.trace))
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.write_goldens and args.seed != DEFAULT_SEED:
        print(f"perfbench: goldens are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end_units = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer_units = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running session process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    untraced: list[dict] = []
    traced: list[dict] = []
    started = 0
    measured = 0.0
    problems: list[str] = []
    # A --trace 0 run serves whole rounds of the streams, so that every
    # stream weighs the same in the wall-clock medians.
    while not problems and (measured < args.seconds or (
        not args.trace and (not untraced or len(untraced) % workload.streams)
    )):
        number = len(untraced) + 1
        stream_id = workload.stream(args.seed, len(untraced))
        for sink, is_traced in ((untraced, False), (traced, True))[:1 + args.trace]:
            started += 1
            session = _spawn(workload.name, stream_id, is_traced, number, problems)
            if session is None:
                break
            sink.append(session)
            measured += session["run_s"]
            print(
                f"session {len(untraced) + len(traced)}: stream {stream_id}, hash seed "
                f"{number}, {'traced' if is_traced else 'untraced'}, "
                f"setup {session['setup_s']:.3f} s, run_for {session['run_s']:.3f} s, "
                f"{session['wall_txn_s']:.1f} txn/s, digest {session['digest'][:16]}",
                flush=True,
            )

    sessions = untraced + traced
    digests: dict[int, set[str]] = {}
    for session in sessions:
        digests.setdefault(session["stream"], set()).add(session["digest"])
    for stream_id, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"stream {stream_id}: same input, different results {sorted(seen)}")
    golden = "not checked (seed is not the default)"
    if not problems and args.seed == DEFAULT_SEED:
        found = {stream_id: seen.pop() for stream_id, seen in digests.items()}
        golden = _golden(workload, found, args.write_goldens, problems)
    if not problems:
        e2e = end_to_end(untraced)
    if not problems and args.trace:
        layer_metrics = per_layer(traced, untraced)
        for text, holds in workload.guards:
            if not holds(layer_metrics, e2e["served_frac"]):
                problems.append(f"layer-coverage guard failed: {text}")
    attempted = workload.txns * started
    if problems:
        for problem in problems:
            print(f"INCORRECT: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    samples = sorted({s["samples"] for s in untraced})
    print(f"\n{workload.name} seed {args.seed}: {len(untraced)} untraced sessions x "
          f"{workload.txns} txns over {len(digests)} streams (clock: perf_counter, gc paused "
          f"in run_for); latency samples per session {samples}; golden {golden}")
    for name, unit in end_to_end_units:
        print(f"  {name:<34} {e2e[name]:>16.6f} {unit}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end_units}
    if args.trace:
        print(f"\nper layer ({len(traced)} traced sessions, medians):")
        for name, unit in per_layer_units:
            print(f"  {name:<34} {layer_metrics[name]:>16.6f} {unit}")
        median = sorted(traced, key=lambda s: s["run_s"])[(len(traced) - 1) // 2]
        print("\nself time / traced run_for time (median traced session):")
        for name, share in median["shares"]:
            print(f"  {name:<34} {100.0 * share:>7.2f} %")
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in per_layer_units}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def _spawn(workload: str, stream_id: int, traced: bool, hash_seed: int,
           problems: list[str]) -> dict | None:
    """Run one session in a child process and return its measurements."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--session-stream", str(stream_id), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    try:
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=SESSION_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        problems.append(f"stream {stream_id}: session exceeded {SESSION_TIMEOUT_S} s")
        return None
    lines = child.stdout.strip().splitlines()
    try:
        reply = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        reply = {}
    if child.returncode != 0 or "digest" not in reply:
        problems.append(f"stream {stream_id}: session failed (exit {child.returncode}): "
                        f"{reply.get('error', 'no result')}")
        return None
    return reply


def _session_main(workload, stream_id: int, traced: bool) -> int:
    """Child side: run one session, print its measurements as one JSON line."""
    try:
        reply = run_session(workload, stream_id, traced)
    except CheckFailed as failure:
        print(json.dumps({"error": str(failure)}))
        return 1
    print(json.dumps(reply))
    return 0


def _golden(workload, found: dict[int, str], write: bool, problems: list[str]) -> str:
    """Compare the default seed's per-stream digests with the goldens, or
    record them."""
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.exists() else {}
    entry = goldens.get(workload.name)
    if entry is None or entry["txns"] != workload.txns:
        entry = {"seed": DEFAULT_SEED, "txns": workload.txns, "digests": {}}
    if write:
        entry["digests"].update({str(k): v for k, v in found.items()})
        goldens[workload.name] = entry
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        return f"recorded for streams {sorted(found)}"
    for stream_id, digest in sorted(found.items()):
        expected = entry["digests"].get(str(stream_id))
        if expected is None:
            problems.append(f"no golden for {workload.name} stream {stream_id} "
                            f"at {workload.txns} txns")
        elif expected != digest:
            problems.append(f"stream {stream_id}: result digest {digest} != golden "
                            f"{expected}: simulated results moved")
    return f"matched for streams {sorted(found)}"


if __name__ == "__main__":
    sys.exit(main())
