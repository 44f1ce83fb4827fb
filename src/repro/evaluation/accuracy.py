"""Off-line accuracy evaluation of Houdini's optimization estimates.

This is the machinery behind the paper's Table 3 and behind the cost
function used by feed-forward feature selection (Section 5.2): for every
transaction in a held-out test workload, generate the initial path estimate
and optimization decisions exactly as if the transaction had just arrived,
then compare them against the transaction's *actual* execution path derived
from the trace record.

Accuracy is judged per optimization, following Section 6.2:

* OP1 — the selected base partition must be one of the partitions the
  transaction actually accessed the most;
* OP2 — the predicted lock set must cover every partition the transaction
  touched (otherwise it would have been restarted) and must not contain
  unnecessary partitions (otherwise resources are wasted);
* OP3 — undo logging must never be disabled for a transaction that actually
  aborts (the "infinite penalty" case);
* OP4 — a partition must never be declared finished before the transaction's
  actual last access to it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..houdini.houdini import Houdini
from ..markov.builder import MarkovModelBuilder, TraceBaseChooser
from ..types import ProcedureRequest
from ..workload.trace import TransactionTraceRecord, WorkloadTrace

#: Penalty weights used when accuracy is folded into a single cost value
#: (feed-forward selection).  A wrong abort prediction is "infinitely" bad.
PENALTY_OP1 = 1.0
PENALTY_OP2 = 2.0
PENALTY_OP4 = 2.0
PENALTY_ABORT = 1e6


@dataclass
class TransactionAccuracy:
    """Per-transaction accuracy verdicts."""

    procedure: str
    op1_correct: bool
    op2_correct: bool
    op3_correct: bool
    op4_correct: bool
    abort_mispredicted: bool

    @property
    def all_correct(self) -> bool:
        return self.op1_correct and self.op2_correct and self.op3_correct and self.op4_correct

    @property
    def penalty(self) -> float:
        cost = 0.0
        if not self.op1_correct:
            cost += PENALTY_OP1
        if not self.op2_correct:
            cost += PENALTY_OP2
        if not self.op4_correct:
            cost += PENALTY_OP4
        if self.abort_mispredicted:
            cost += PENALTY_ABORT
        return cost


@dataclass
class ProcedureAccuracy:
    """Aggregated accuracy for one procedure."""

    procedure: str
    transactions: int = 0
    op1_correct: int = 0
    op2_correct: int = 0
    op3_correct: int = 0
    op4_correct: int = 0
    fully_correct: int = 0
    total_penalty: float = 0.0

    def record(self, verdict: TransactionAccuracy) -> None:
        self.transactions += 1
        self.op1_correct += verdict.op1_correct
        self.op2_correct += verdict.op2_correct
        self.op3_correct += verdict.op3_correct
        self.op4_correct += verdict.op4_correct
        self.fully_correct += verdict.all_correct
        self.total_penalty += verdict.penalty

    def rate(self, attribute: str) -> float:
        if self.transactions == 0:
            return 0.0
        return 100.0 * getattr(self, attribute) / self.transactions


@dataclass
class AccuracyReport:
    """Accuracy aggregated over a whole test workload (one Table 3 cell set)."""

    label: str
    procedures: dict[str, ProcedureAccuracy] = field(default_factory=dict)

    def for_procedure(self, procedure: str) -> ProcedureAccuracy:
        stats = self.procedures.get(procedure)
        if stats is None:
            stats = ProcedureAccuracy(procedure)
            self.procedures[procedure] = stats
        return stats

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        return sum(p.transactions for p in self.procedures.values())

    def overall_rate(self, attribute: str) -> float:
        total = self.transactions
        if total == 0:
            return 0.0
        correct = sum(getattr(p, attribute) for p in self.procedures.values())
        return 100.0 * correct / total

    @property
    def op1(self) -> float:
        return self.overall_rate("op1_correct")

    @property
    def op2(self) -> float:
        return self.overall_rate("op2_correct")

    @property
    def op3(self) -> float:
        return self.overall_rate("op3_correct")

    @property
    def op4(self) -> float:
        return self.overall_rate("op4_correct")

    @property
    def total(self) -> float:
        return self.overall_rate("fully_correct")

    @property
    def total_penalty(self) -> float:
        return sum(p.total_penalty for p in self.procedures.values())

    def as_row(self) -> dict[str, float]:
        return {
            "OP1": round(self.op1, 1),
            "OP2": round(self.op2, 1),
            "OP3": round(self.op3, 1),
            "OP4": round(self.op4, 1),
            "Total": round(self.total, 1),
        }


class AccuracyEvaluator:
    """Compares Houdini's estimates against actual execution paths."""

    def __init__(
        self,
        houdini: Houdini,
        *,
        base_partition_chooser: TraceBaseChooser,
        label: str = "",
    ) -> None:
        """``base_partition_chooser`` must be the one the models were trained
        with (``TrainedArtifacts.base_partition_chooser()`` for a session's
        models): it locates each record's replicated-table reads, so a
        different chooser judges the estimates against a path the models
        never saw."""
        if houdini.learning:
            raise ValueError(
                "accuracy evaluation requires a non-learning Houdini instance "
                "(the paper resets models after each estimation)"
            )
        self.houdini = houdini
        self.label = label
        self._builder = MarkovModelBuilder(
            houdini.catalog, base_partition_chooser=base_partition_chooser
        )

    # ------------------------------------------------------------------
    def evaluate(self, trace: WorkloadTrace) -> AccuracyReport:
        report = AccuracyReport(label=self.label)
        for record in trace:
            verdict = self.evaluate_record(record)
            report.for_procedure(record.procedure).record(verdict)
        return report

    def evaluate_record(self, record: TransactionTraceRecord) -> TransactionAccuracy:
        request = ProcedureRequest(record.procedure, record.parameters)
        houdini_plan = self.houdini.plan(request)
        decision = houdini_plan.decision
        steps = self._builder.steps_for_record(record)

        touched = Counter()
        last_access: dict[int, int] = {}
        for index, step in enumerate(steps):
            for partition_id in step.partitions:
                touched[partition_id] += 1
                last_access[partition_id] = index
        touched_set = set(touched)
        num_partitions = self.houdini.catalog.num_partitions

        # OP1: the chosen base partition must be among the most-accessed ones.
        if touched:
            best_count = max(touched.values())
            best_bases = {p for p, count in touched.items() if count == best_count}
            op1_correct = decision.base_partition in best_bases
        else:
            op1_correct = True

        # OP2: cover everything touched, lock nothing unnecessary.
        locked = set(decision.locked_partitions.as_frozenset())
        covers = touched_set <= locked
        extra = locked - touched_set - {decision.base_partition}
        op2_correct = covers and not extra

        # OP3: never disable undo logging for a transaction that aborts.
        abort_mispredicted = decision.disable_undo and record.aborted
        op3_correct = not abort_mispredicted

        # OP4: no partition declared finished before its actual last use.
        op4_correct = True
        for partition_id, predicted_last in decision.finish_after_query.items():
            actual_last = last_access.get(partition_id)
            if actual_last is not None and predicted_last < actual_last:
                op4_correct = False
                break

        return TransactionAccuracy(
            procedure=record.procedure,
            op1_correct=op1_correct,
            op2_correct=op2_correct,
            op3_correct=op3_correct,
            op4_correct=op4_correct,
            abort_mispredicted=abort_mispredicted,
        )
