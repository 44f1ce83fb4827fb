"""Pre-computed per-vertex probability tables (paper Fig. 5, §3.2).

Each vertex carries a table of estimates about what happens *after* a
transaction reaches that state:

* ``single_partition`` — probability that every future query executes on the
  same partition where the control code is running (OP1),
* ``abort`` — probability the transaction eventually aborts (OP3),
* per partition: the probability that a future query **reads** or **writes**
  data there (OP2), and conversely the probability that the transaction is
  **finished** with that partition (OP4).

Pre-computing these tables avoids an expensive traversal of the model per
transaction; the paper measures that optimization as saving ~24% of the
on-line computation time, and the ablation bench
``benchmarks/bench_ablation_precompute.py`` reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ModelError


@dataclass(slots=True)
class PartitionProbabilities:
    """Future read/write/finish probabilities for one partition."""

    read: float = 0.0
    write: float = 0.0
    finish: float = 1.0

    def access(self) -> float:
        """Probability of any future access (read or write)."""
        return max(self.read, self.write)


@dataclass(slots=True)
class ProbabilityTable:
    """The full probability table of one vertex."""

    num_partitions: int
    single_partition: float = 0.0
    abort: float = 0.0
    partitions: list[PartitionProbabilities] = field(default_factory=list)
    #: Lazily cached output of :meth:`positive_access`.
    _positive_access: tuple[tuple[int, float], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ModelError("probability table needs at least one partition")
        if not self.partitions:
            self.partitions = [PartitionProbabilities() for _ in range(self.num_partitions)]
        elif len(self.partitions) != self.num_partitions:
            raise ModelError("partition probability list has the wrong length")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def partition(self, partition_id: int) -> PartitionProbabilities:
        if not 0 <= partition_id < self.num_partitions:
            raise ModelError(f"partition {partition_id} out of range")
        return self.partitions[partition_id]

    def read_probability(self, partition_id: int) -> float:
        return self.partition(partition_id).read

    def write_probability(self, partition_id: int) -> float:
        return self.partition(partition_id).write

    def finish_probability(self, partition_id: int) -> float:
        return self.partition(partition_id).finish

    def access_probability(self, partition_id: int) -> float:
        return self.partition(partition_id).access()

    def positive_access(self) -> tuple[tuple[int, float], ...]:
        """Cached ``(partition, access probability)`` pairs with access > 0.

        Tables are only mutated during the model's processing phase, never
        once published on a vertex, so the cache cannot go stale for on-line
        readers.  The optimization selector iterates this instead of probing
        every partition of every table on the estimated path.
        """
        cached = self._positive_access
        if cached is None:
            cached = tuple(
                (partition_id, entry.read if entry.read >= entry.write else entry.write)
                for partition_id, entry in enumerate(self.partitions)
                if entry.read > 0.0 or entry.write > 0.0
            )
            self._positive_access = cached
        return cached

    def accessed_partitions(self, threshold: float) -> list[int]:
        """Partitions whose future access probability meets ``threshold``."""
        return [
            p for p in range(self.num_partitions)
            if self.partitions[p].access() >= threshold
        ]

    def finished_partitions(self, threshold: float) -> list[int]:
        """Partitions whose finish probability meets ``threshold``."""
        return [
            p for p in range(self.num_partitions)
            if self.partitions[p].finish >= threshold
        ]

    # ------------------------------------------------------------------
    # Construction helpers used by the processing phase
    # ------------------------------------------------------------------
    @staticmethod
    def for_commit(num_partitions: int) -> "ProbabilityTable":
        """Terminal table for the commit state: finished with everything."""
        table = ProbabilityTable(num_partitions, single_partition=1.0, abort=0.0)
        for entry in table.partitions:
            entry.read = 0.0
            entry.write = 0.0
            entry.finish = 1.0
        return table

    @staticmethod
    def for_abort(num_partitions: int) -> "ProbabilityTable":
        """Terminal table for the abort state: abort probability one."""
        table = ProbabilityTable(num_partitions, single_partition=1.0, abort=1.0)
        for entry in table.partitions:
            entry.read = 0.0
            entry.write = 0.0
            entry.finish = 1.0
        return table

    @staticmethod
    def weighted_sum(
        num_partitions: int,
        children: list[tuple[float, "ProbabilityTable"]],
    ) -> "ProbabilityTable":
        """Combine children tables weighted by their edge probabilities.

        Each field is ``(0 + w1*x1 + w2*x2 + ...) / (0 + w1 + w2 + ...)``,
        accumulated left to right in ``children`` order from the int ``0``.
        That summation order is part of the byte-identity contract: trained
        tables, and every decision derived from them, are pinned bit for bit
        by digests, and reordering (or compensated summation, which the
        builtin ``sum`` of floats uses from Python 3.12 on) changes the last
        bits.
        """
        if not children:
            return ProbabilityTable(num_partitions)
        total_weight = 0
        single_partition = 0
        abort = 0
        for weight, child in children:
            total_weight += weight
            single_partition += weight * child.single_partition
            abort += weight * child.abort
        if total_weight <= 0:
            return ProbabilityTable(num_partitions)
        child_partitions = [(weight, child.partitions) for weight, child in children]
        partitions = []
        for partition_id in range(num_partitions):
            read = write = finish = 0
            for weight, entries in child_partitions:
                entry = entries[partition_id]
                read += weight * entry.read
                write += weight * entry.write
                finish += weight * entry.finish
            partitions.append(PartitionProbabilities(
                read / total_weight, write / total_weight, finish / total_weight
            ))
        return ProbabilityTable(
            num_partitions,
            single_partition / total_weight,
            abort / total_weight,
            partitions,
        )

    def copy(self) -> "ProbabilityTable":
        clone = ProbabilityTable(self.num_partitions, self.single_partition, self.abort)
        for mine, theirs in zip(clone.partitions, self.partitions):
            mine.read = theirs.read
            mine.write = theirs.write
            mine.finish = theirs.finish
        return clone

    def approx_equal(self, other: "ProbabilityTable", tolerance: float = 1e-9) -> bool:
        """Structural comparison used by convergence checks and tests."""
        if self.num_partitions != other.num_partitions:
            return False
        if abs(self.single_partition - other.single_partition) > tolerance:
            return False
        if abs(self.abort - other.abort) > tolerance:
            return False
        for mine, theirs in zip(self.partitions, other.partitions):
            if (
                abs(mine.read - theirs.read) > tolerance
                or abs(mine.write - theirs.write) > tolerance
                or abs(mine.finish - theirs.finish) > tolerance
            ):
                return False
        return True
