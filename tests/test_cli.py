"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.benchmarks import available_benchmarks
from repro.cli import EXPERIMENTS, STRATEGIES, build_parser, main


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_benchmark_is_a_valid_train_target(self):
        parser = build_parser()
        for name in available_benchmarks():
            args = parser.parse_args(["train", name])
            assert args.benchmark == name

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "tpcc"])
        assert args.strategy == "houdini"
        assert args.partitions == 8

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "tpcc", "--strategy", "magic"])

    def test_backend_flag_rejected(self, capsys):
        """Transactions only execute inline: there is no backend to pick."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "tpcc", "--backend", "sharded"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend sharded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "tpcc", "--workers", "2"],
            ["serve", "tatp", "--backend", "sharded"],
            ["serve", "tatp", "--workers", "2"],
        ],
    )
    def test_removed_execution_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err

    def test_every_registered_experiment_is_accepted(self):
        parser = build_parser()
        for identifier in EXPERIMENTS:
            args = parser.parse_args(["experiment", identifier])
            assert args.id == identifier

    def test_strategies_cover_the_papers_comparisons(self):
        assert "assume-single-partition" in STRATEGIES
        assert "houdini-partitioned" in STRATEGIES
        assert "oracle" in STRATEGIES


class TestCommands:
    def test_list_benchmarks_prints_all(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == {"tatp", "tpcc", "auctionmark", "smallbank"}

    def test_train_and_inspect_round_trip(self, tmp_path, capsys):
        target = tmp_path / "bundle"
        code = main(
            ["train", "tatp", "--partitions", "2", "--trace", "120", "--output", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ArtifactBundle" in out
        assert target.exists()

        assert main(["inspect", str(target)]) == 0
        out = capsys.readouterr().out
        assert "tatp" in out
        assert "states" in out

    def test_train_without_output_does_not_write(self, tmp_path, capsys):
        code = main(["train", "tatp", "--partitions", "2", "--trace", "80"])
        assert code == 0
        assert "artifacts written" not in capsys.readouterr().out

    def test_inspect_missing_bundle_fails_cleanly(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_prints_summary_row(self, capsys):
        code = main(
            [
                "simulate",
                "tatp",
                "--strategy",
                "assume-single-partition",
                "--partitions",
                "2",
                "--trace",
                "100",
                "--transactions",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_txn_s" in out
        assert "strategy: assume-single-partition" in out

    def test_simulate_houdini_with_threshold(self, capsys):
        code = main(
            [
                "simulate",
                "tatp",
                "--strategy",
                "houdini",
                "--partitions",
                "2",
                "--trace",
                "100",
                "--transactions",
                "100",
                "--threshold",
                "0.8",
            ]
        )
        assert code == 0
        assert "committed" in capsys.readouterr().out

    def test_simulate_json_emits_stable_result_document(self, capsys):
        import json

        from repro.sim import SimulationResult

        code = main(
            ["simulate", "tatp", "--strategy", "oracle", "--partitions", "2",
             "--trace", "100", "--transactions", "80", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        result = SimulationResult.from_dict(data)
        assert result.total_transactions == 80
        assert data["derived"]["throughput_txn_per_sec"] > 0

    def test_serve_repl_drives_a_session(self, capsys, monkeypatch):
        import io

        script = "\n".join([
            "run 40",
            "policy shortest-predicted",
            "run 40",
            "admission max_in_flight=4,max_deferrals=64",
            "run 20",
            "metrics",
            "threshold 0.8",
            "caching off",
            "frobnicate",
            "drain",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "session open" in out
        assert "policy -> shortest-predicted" in out
        assert "admission -> {'max_in_flight': 4, 'max_deferrals': 64}" in out
        assert "throughput_txn_s" in out
        assert "confidence threshold -> 0.8" in out
        assert "estimate caching -> off" in out
        assert "unknown command 'frobnicate'" in out
        assert "session closed after 100 transactions" in out

    def test_serve_survives_bad_commands(self, capsys, monkeypatch):
        import io

        script = "policy warp-speed\nadmission max_flights=2\nthreshold nine\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("error:") == 3
        assert "session closed" in out

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        import json

        from repro.sim import SimulationResult
        from repro.workload import WorkloadTrace

        trace_path = tmp_path / "tatp.jsonl"
        code = main(
            ["record", "tatp", "--partitions", "2", "--transactions", "80",
             "--rate", "500", "--output", str(trace_path)]
        )
        assert code == 0
        assert "recorded 80 tatp transactions" in capsys.readouterr().out
        recorded = WorkloadTrace.load(trace_path)
        assert len(recorded) == 80
        assert all(r.at_ms is not None for r in recorded)

        code = main(
            ["simulate", "tatp", "--strategy", "oracle", "--partitions", "2",
             "--trace", "100", "--transactions", "200",
             "--workload", str(trace_path), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        result = SimulationResult.from_dict(data)
        # Replay is bounded by the trace, not by --transactions.
        assert result.total_transactions == 80
        assert "max_ms" in next(iter(data["scheduler_stats"]["queue_wait_by_class"].values()))

    def test_simulate_missing_workload_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["simulate", "tatp", "--partitions", "2", "--trace", "100",
             "--workload", str(tmp_path / "nope.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_workload_and_inflight_commands(self, capsys, monkeypatch, tmp_path):
        import io

        trace_path = tmp_path / "mini.jsonl"
        assert main(
            ["record", "tatp", "--partitions", "2", "--transactions", "30",
             "--rate", "400", "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()

        script = "\n".join([
            "run 20",
            "workload open 500 poisson",
            "runfor 0.04",
            "inflight",
            f"workload trace {trace_path}",
            "run 30",
            "workload closed",
            "run 10",
            "workload sideways",
            "metrics",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload -> open-loop" in out
        assert "workload -> trace-replay" in out
        assert "workload -> closed-loop" in out
        assert "transaction(s) in flight" in out
        assert "error: workload takes" in out
        assert "max_queue_wait_ms" in out
        assert "session closed" in out
