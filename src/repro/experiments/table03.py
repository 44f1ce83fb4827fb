"""Table 3 — off-line accuracy of global vs partitioned Markov models.

For each benchmark, models are trained on the first half of the sample
workload trace and evaluated on the second half (the paper uses the first
50,000 of 100,000 transactions for training).  Accuracy is reported per
optimization (OP1-OP4) and in total, for both the single "global" model per
procedure and the Section-5 "partitioned" models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import pipeline
from ..evaluation import AccuracyEvaluator, AccuracyReport
from ..houdini import Houdini, HoudiniConfig
from ..markov import build_models_from_trace
from .common import BENCHMARKS, ExperimentScale, format_table


@dataclass
class Table3Result:
    """Accuracy rows per benchmark per model configuration."""

    scale: ExperimentScale
    reports: dict[str, dict[str, AccuracyReport]] = field(default_factory=dict)

    def cell(self, benchmark: str, configuration: str, metric: str) -> float:
        report = self.reports[benchmark][configuration]
        return getattr(report, metric.lower())

    def format(self) -> str:
        headers = ["Metric", "Models"] + [b.upper() for b in self.reports]
        rows = []
        for metric in ("OP1", "OP2", "OP3", "OP4", "Total"):
            for configuration in ("global", "partitioned"):
                row = [metric, configuration]
                for benchmark in self.reports:
                    report = self.reports[benchmark][configuration]
                    row.append(f"{getattr(report, metric.lower() if metric != 'Total' else 'total'):.1f}%")
                rows.append(row)
        return (
            "Table 3: accuracy of Markov-model optimization estimates\n"
            + format_table(headers, rows)
        )


def run_table03(scale: ExperimentScale | None = None) -> Table3Result:
    """Regenerate Table 3."""
    scale = scale or ExperimentScale.from_env()
    result = Table3Result(scale=scale)
    for benchmark in BENCHMARKS:
        artifacts = pipeline.train(
            benchmark,
            scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
        )
        instance = artifacts.benchmark
        training, testing = artifacts.trace.halves()
        testing = type(testing)(testing.records[: scale.accuracy_test_transactions])
        base_chooser = artifacts.base_partition_chooser()
        global_models = build_models_from_trace(
            instance.catalog, training, base_partition_chooser=base_chooser
        )
        config = HoudiniConfig(
            disabled_procedures=instance.bundle.houdini_disabled_procedures
        )
        # Replace the artifacts' models with the training-half models so the
        # partitioned provider is derived from the same data.
        artifacts.models = global_models
        artifacts.trace = training
        partitioned_provider = pipeline.make_partitioned_provider(
            artifacts,
            feature_selection="feedforward" if scale.feedforward_selection else "heuristic",
            houdini_config=config,
        )
        result.reports[benchmark] = {}
        for label, provider in (
            ("global", pipeline.GlobalModelProvider(global_models)),
            ("partitioned", partitioned_provider),
        ):
            houdini = Houdini(
                instance.catalog, provider, artifacts.mappings, config, learning=False
            )
            evaluator = AccuracyEvaluator(
                houdini, base_partition_chooser=base_chooser, label=f"{benchmark}:{label}"
            )
            result.reports[benchmark][label] = evaluator.evaluate(testing)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table03().format())


if __name__ == "__main__":  # pragma: no cover
    main()
