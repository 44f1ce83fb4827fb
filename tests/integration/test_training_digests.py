"""Training outputs pinned by digest.

``train`` derives the parameter mappings and the processed Markov models
from a recorded trace.  Both are pure functions of the trace, so any rewrite
of the builders must reproduce them bit for bit.  The digests below were
captured with the all-pairs mapping builder and the generator-sum table fold
that preceded the tally builder, at two configurations: the benchmark's
(16 partitions, 1,500 trace transactions, seed 0) and the test fixtures'
(4 partitions, 600 transactions, seed 11).

Each digest covers ``mapping_set_to_dict``, every ``model_to_dict``, the
mapping entries in their stored order, and every vertex's probability table,
expected remaining queries and outgoing edge probabilities as ``float.hex``.
The digest must not depend on ``PYTHONHASHSEED``; CI runs this module under
two hash seeds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import pipeline
from repro.mapping.serialization import mapping_set_to_dict
from repro.markov.serialization import model_to_dict, vertex_key_to_dict

BENCHMARKS = ("tatp", "tpcc", "smallbank", "auctionmark")

#: ``(partitions, trace transactions, seed) -> {benchmark: sha256}``.
EXPECTED = {
    (16, 1500, 0): {
        "tatp": "c14de25c4f1c757813edd4b80576e12fe69e4a2e943072716303efe5b2b75879",
        "tpcc": "5505ee526fc3af37559eabd68182eb29b677b156acf7b5506bc1dfbd2b68f33a",
        "smallbank": "583d9e7b8d3ccd88ea43a76af573429db3df953fea1b05055f4172a89e85e357",
        "auctionmark": "10e7196faac19f37002a021bfb30bcc9137bf01db3d4dddfc4c7bb5454d0c729",
    },
    (4, 600, 11): {
        "tatp": "926eef63b44592cac4d3237e94b8f0b529c6e5b61e56a68bf0342b06b7ce6e16",
        "tpcc": "509436a7cb41fb04de76a75983c988e8503d6bcd03ece10c829d49bef5663856",
        "smallbank": "453674faec38af608514176801b18b6666fe27c86cb14a6b38d4d155df64b700",
        "auctionmark": "4f492fbccd06e174f8cd11df23f5401ecfc3e4b44fc9ce64da8590215510062d",
    },
}


def _table_document(table) -> list:
    return [
        table.single_partition.hex(),
        table.abort.hex(),
        [
            [entry.read.hex(), entry.write.hex(), entry.finish.hex()]
            for entry in table.partitions
        ],
    ]


def training_digest(artifacts) -> str:
    """sha256 over everything ``train`` derives from the trace."""
    mappings = artifacts.mappings
    document = {
        "mapping_set": mapping_set_to_dict(mappings),
        "mapping_entries": {
            name: [
                [
                    entry.statement,
                    entry.query_param_index,
                    entry.procedure_param_index,
                    entry.array_aligned,
                    entry.coefficient.hex(),
                ]
                for entry in mapping.entries
            ]
            for name, mapping in mappings.mappings.items()
        },
        "models": [
            [name, model_to_dict(model)] for name, model in artifacts.models.items()
        ],
        "tables": {
            name: [
                [
                    vertex_key_to_dict(vertex.key),
                    None if vertex.table is None else _table_document(vertex.table),
                    vertex.expected_remaining_queries.hex(),
                    [edge.probability.hex() for edge in model.edges_from(vertex.key)],
                ]
                for vertex in model.vertices()
            ]
            for name, model in artifacts.models.items()
        },
    }
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


@pytest.mark.parametrize("config", sorted(EXPECTED), ids=lambda c: "p{}-t{}-s{}".format(*c))
@pytest.mark.parametrize("benchmark_name", BENCHMARKS)
def test_training_outputs_match_pinned_digest(benchmark_name, config):
    partitions, transactions, seed = config
    artifacts = pipeline.train(
        benchmark_name, partitions, trace_transactions=transactions, seed=seed
    )
    assert training_digest(artifacts) == EXPECTED[config][benchmark_name]
