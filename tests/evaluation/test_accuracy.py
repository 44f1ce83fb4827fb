"""Tests for the off-line accuracy evaluator (Table 3 machinery)."""

import pytest

from repro import pipeline
from repro.catalog import (
    Catalog,
    Operation,
    PartitionScheme,
    ProcedureParameter,
    Schema,
    Statement,
    StoredProcedure,
    Table,
    integer,
    param,
)
from repro.evaluation import AccuracyEvaluator
from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.evaluation.accuracy import PENALTY_ABORT, TransactionAccuracy
from repro.mapping import build_parameter_mappings
from repro.markov import build_models_from_trace
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace


class TestTransactionAccuracy:
    def test_all_correct_and_penalty(self):
        verdict = TransactionAccuracy("p", True, True, True, True, False)
        assert verdict.all_correct
        assert verdict.penalty == 0.0

    def test_abort_misprediction_is_catastrophic(self):
        verdict = TransactionAccuracy("p", True, True, False, True, True)
        assert verdict.penalty >= PENALTY_ABORT

    def test_partial_penalties_accumulate(self):
        verdict = TransactionAccuracy("p", False, False, True, False, False)
        assert verdict.penalty == pytest.approx(1.0 + 2.0 + 2.0)


class TestAccuracyEvaluator:
    def test_requires_non_learning_houdini(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
            learning=True,
        )
        with pytest.raises(ValueError):
            AccuracyEvaluator(
                houdini, base_partition_chooser=tpcc_artifacts.base_partition_chooser()
            )

    def test_report_on_training_trace_is_strong(self, tpcc_houdini, tpcc_artifacts):
        evaluator = AccuracyEvaluator(
            tpcc_houdini,
            base_partition_chooser=tpcc_artifacts.base_partition_chooser(),
            label="train",
        )
        report = evaluator.evaluate(tpcc_artifacts.trace)
        assert report.transactions == len(tpcc_artifacts.trace)
        # On the data the models were trained from, accuracy must be high.
        assert report.op1 > 80.0
        assert report.op3 == 100.0
        assert 0.0 <= report.total <= 100.0
        row = report.as_row()
        assert set(row) == {"OP1", "OP2", "OP3", "OP4", "Total"}

    def test_per_procedure_breakdown(self, tpcc_houdini, tpcc_artifacts):
        evaluator = AccuracyEvaluator(
            tpcc_houdini, base_partition_chooser=tpcc_artifacts.base_partition_chooser()
        )
        report = evaluator.evaluate(tpcc_artifacts.trace)
        assert "neworder" in report.procedures
        neworder = report.procedures["neworder"]
        assert neworder.transactions > 0
        assert 0.0 <= neworder.rate("op2_correct") <= 100.0

    def test_held_out_accuracy_reasonable(self, tpcc_houdini, tpcc_artifacts):
        held_out = pipeline.record_trace(tpcc_artifacts.benchmark, 150)
        report = AccuracyEvaluator(
            tpcc_houdini, base_partition_chooser=tpcc_artifacts.base_partition_chooser()
        ).evaluate(held_out)
        # The paper reports ~91-95% total accuracy; the scaled-down
        # reproduction should stay in the same neighbourhood.
        assert report.total > 60.0
        assert report.op3 > 95.0


class StockLookup(StoredProcedure):
    """Reads an account, then a row of a replicated table."""

    name = "lookup"
    parameters = (ProcedureParameter("item_id"), ProcedureParameter("a_id"))
    statements = {
        "GetAccount": Statement(
            name="GetAccount", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_ID": param(0)},
        ),
        "GetItem": Statement(
            name="GetItem", table="ITEM", operation=Operation.SELECT,
            where={"I_ID": param(0)},
        ),
    }

    def run(self, ctx, item_id, a_id):
        ctx.execute("GetAccount", [a_id])
        ctx.execute("GetItem", [item_id])


class TestBasePartitionChooser:
    """The evaluator must place replicated reads where training placed them."""

    def test_training_chooser_locates_replicated_reads(self):
        schema = Schema()
        schema.add_table(Table(
            name="ITEM", columns=[integer("I_ID")], primary_key=["I_ID"], replicated=True,
        ))
        schema.add_table(Table(
            name="ACCOUNT", columns=[integer("A_ID")], primary_key=["A_ID"],
            partition_column="A_ID",
        ))
        catalog = Catalog(schema, PartitionScheme(4, 2), [StockLookup()])
        home = catalog.scheme.partition_for_value
        # The default chooser hashes the first scalar (the item id); training
        # runs the transaction at the account's partition.  Keep only
        # requests where the two differ.
        requests = [
            (item_id, a_id)
            for item_id in range(12) for a_id in range(12)
            if home(item_id) != home(a_id)
        ]
        trace = WorkloadTrace([
            TransactionTraceRecord(
                txn_id=txn_id,
                procedure="lookup",
                parameters=(item_id, a_id),
                queries=(
                    QueryTraceRecord("GetAccount", (a_id,)),
                    QueryTraceRecord("GetItem", (item_id,)),
                ),
            )
            for txn_id, (item_id, a_id) in enumerate(requests)
        ])
        chooser = lambda record: home(record.parameters[1])  # noqa: E731
        models = build_models_from_trace(catalog, trace, base_partition_chooser=chooser)
        houdini = Houdini(
            catalog,
            GlobalModelProvider(models),
            build_parameter_mappings(catalog, trace),
            HoudiniConfig(),
            learning=False,
        )
        matched = AccuracyEvaluator(houdini, base_partition_chooser=chooser).evaluate(trace)
        assert matched.transactions == len(requests)
        assert matched.op1 == 100.0
        assert matched.op2 == 100.0
        # Choosing by the first parameter reads ITEM at the item's partition,
        # a path the models never saw: every lock set then looks too small.
        mismatched = AccuracyEvaluator(
            houdini, base_partition_chooser=lambda record: home(record.parameters[0])
        ).evaluate(trace)
        assert mismatched.op2 == 0.0
