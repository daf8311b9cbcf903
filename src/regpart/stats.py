"""Part statistics and the counting identities that relate them.

Two statistics drive everything here. On the class-regular side, count the
parts lying in a residue class with multiplicity. On the regular side, count
the distinct sizes that occur at least a threshold number of times. Summed
over all partitions of n in their families, the two counts differ by exactly
the total number of merge operations, which in turn equals the number of
inferior-regular partitions of n. The identity needs every tail modulus to
be congruent to 1 modulo the leading one; each report reads whether that
hypothesis holds from its moduli, so a failure can be told apart from a
counterexample. Two folds per size read run tuples: the class-regular fold
gives X and the merge operations, counted in closed form from the run
multiplicities without simulating any merge, and the regular fold gives Y.
The identity checks read both; the series check, which compares each family
generating function with enumeration, reads only the class-regular fold.
Each result type stores only counts; its verdict, differences and hypothesis
flag are properties derived from them, so it cannot disagree with its counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import (
    INFERIOR_REGULAR,
    ModulusTuple,
    PartitionClass,
    TooSmall,
    count_class,
    enumerate_runs,
    validate_tuple,
)
from .glaisher import merge_counts
from .partition import Partition, _check_int, _check_residue
from .qseries import TruncatedSeries, gf_class

__all__ = [
    "LengthCheck", "SeriesCheck", "XYCReport", "XYCRow", "aggregate",
    "count_congruent_parts", "count_repeated_sizes", "verify_length_identity",
    "verify_series_vs_enumeration", "verify_xyc",
]


def count_congruent_parts(partition: Partition, modulus: int, residue: int) -> int:
    """Parts congruent to the residue modulo the modulus, with multiplicity."""
    _check_int(modulus, 2, "modulus", TooSmall)
    _check_residue(residue, modulus, "residue")
    return sum(mult for part, mult in partition.runs if part % modulus == residue)


def count_repeated_sizes(partition: Partition, modulus: int, threshold: int) -> int:
    """Distinct part sizes occurring at least ``threshold`` times.

    The modulus only bounds the admissible thresholds (1 up to modulus - 1),
    matching the residues used on the class-regular side.
    """
    _check_int(modulus, 2, "modulus", TooSmall)
    _check_residue(threshold, modulus, "threshold")
    return sum(1 for _, mult in partition.runs if mult >= threshold)


@dataclass(frozen=True)
class XYCReport:
    """Aggregated statistics for one modulus tuple and one total size.

    ``per_residue`` maps each residue j to (X, Y, X - Y) where X sums the
    congruent-part counts over the class-regular family and Y sums the
    repeated-size counts over the regular family. ``operation_total`` is the
    total number of merge steps over the class-regular family, and
    ``inferior_count`` the size of the inferior-regular family.
    """

    moduli: ModulusTuple
    n: int
    per_residue: dict[int, tuple[int, int, int]]
    operation_total: int
    inferior_count: int

    @property
    def hypothesis_holds(self) -> bool:
        return self.moduli.tail_congruent


def _class_regular_fold(moduli: ModulusTuple, n: int) -> tuple[list[int], int]:
    # One pass over the class-regular family at n: X_j at index j (index 0
    # stays 0) and the merge-operation total.
    _check_int(n, 0, "partition size")  # before merge_counts can blame a run length
    head = moduli.head
    merges = merge_counts(head, n)
    x_totals = [0] * head
    operations = 0
    for runs in enumerate_runs(PartitionClass.class_regular(moduli), n):
        for part, mult in runs:
            x_totals[part % head] += mult
            operations += merges[mult]
    return x_totals, operations


def _regular_fold(moduli: ModulusTuple, n: int) -> list[int]:
    # One pass over the regular family at n: Y_j at index j, where index 0
    # counts every run.
    runs_by_mult = [0] * moduli.head  # regular multiplicities stay below head
    for runs in enumerate_runs(PartitionClass.regular(moduli), n):
        for _, mult in runs:
            runs_by_mult[mult] += 1
    return [sum(runs_by_mult[j:]) for j in range(moduli.head)]


def aggregate(moduli: ModulusTuple | int, n: int) -> XYCReport:
    """One pass over each family, collecting every residue at once."""
    moduli = validate_tuple(moduli)
    x, operations = _class_regular_fold(moduli, n)
    y = _regular_fold(moduli, n)
    per_residue = {j: (x[j], y[j], x[j] - y[j]) for j in range(1, moduli.head)}
    inferior = count_class(PartitionClass.inferior_regular(moduli), n)
    return XYCReport(
        moduli=moduli,
        n=n,
        per_residue=per_residue,
        operation_total=operations,
        inferior_count=inferior,
    )


@dataclass(frozen=True)
class XYCRow:
    """One residue of an XYCReport, flattened for reporting.

    ``ok`` states that the difference X - Y, the merge-operation total, and
    the inferior-regular count all agree.
    """

    moduli: ModulusTuple
    n: int
    residue: int
    x_total: int
    y_total: int
    operation_total: int
    inferior_count: int

    @property
    def difference(self) -> int:
        return self.x_total - self.y_total

    hypothesis_holds = XYCReport.hypothesis_holds

    @property
    def ok(self) -> bool:
        return self.difference == self.operation_total == self.inferior_count


def verify_xyc(moduli: ModulusTuple | int, n: int) -> tuple[XYCRow, ...]:
    """Check X - Y = operations = inferior count for every residue."""
    report = aggregate(moduli, n)
    return tuple(
        XYCRow(report.moduli, n, residue, x_total, y_total,
               report.operation_total, report.inferior_count)
        for residue, (x_total, y_total, _) in report.per_residue.items()
    )


@dataclass(frozen=True)
class LengthCheck:
    """Total lengths of the two families of partitions of n, for a single
    modulus, against the merge-operation total.

    Each merge step shortens a partition by modulus - 1 parts, so the
    length sums must differ by (modulus - 1) times the operation total.
    """

    modulus: int
    n: int
    class_regular_length_sum: int
    regular_length_sum: int
    operation_total: int

    @property
    def difference(self) -> int:
        return self.class_regular_length_sum - self.regular_length_sum

    @property
    def ok(self) -> bool:
        return self.difference == (self.modulus - 1) * self.operation_total


def verify_length_identity(modulus: int, n: int) -> LengthCheck:
    """Compare the two length sums with the operation total.

    No class-regular part is divisible by the modulus and every regular
    multiplicity is below it, so the length sums are the sums of X_j and of
    Y_j over the residues j >= 1.
    """
    moduli = ModulusTuple((modulus,))
    x, operations = _class_regular_fold(moduli, n)
    class_sum = sum(x)
    regular_sum = sum(_regular_fold(moduli, n)[1:])
    return LengthCheck(
        modulus=modulus,
        n=n,
        class_regular_length_sum=class_sum,
        regular_length_sum=regular_sum,
        operation_total=operations,
    )


@dataclass(frozen=True)
class SeriesCheck:
    """Outcome of checking a family's series against direct enumeration.

    ``count_mismatch`` is the first degree where a coefficient fails to
    count the family, or None. For inferior-regular families
    ``operations_mismatch`` is the first degree where a coefficient differs
    from the summed merge-operation counts over the class-regular family.
    """

    family: PartitionClass
    series: TruncatedSeries
    count_mismatch: int | None
    operations_mismatch: int | None

    @property
    def truncation(self) -> int:
        return self.series.truncation

    @property
    def regular_counts_differ_at(self) -> int | None:
        """First degree where an inferior-regular family's counts depart from
        the regular family's: 0, as the empty partition is regular and never
        inferior-regular. None for the other families."""
        return 0 if self.family.kind == INFERIOR_REGULAR else None

    @property
    def ok(self) -> bool:
        return self.count_mismatch is None and self.operations_mismatch is None


def _first_difference(series: TruncatedSeries, value_at) -> int | None:
    return next(
        (d for d in range(series.truncation + 1) if series[d] != value_at(d)), None
    )


def verify_series_vs_enumeration(family: PartitionClass, truncation: int) -> SeriesCheck:
    """Compare every coefficient up to the truncation with enumeration."""
    series = gf_class(family, truncation)
    count_mismatch = _first_difference(series, lambda d: count_class(family, d))
    operations_mismatch = None
    if family.kind == INFERIOR_REGULAR:
        operations_mismatch = _first_difference(
            series, lambda d: _class_regular_fold(family.moduli, d)[1]
        )
    return SeriesCheck(
        family=family,
        series=series,
        count_mismatch=count_mismatch,
        operations_mismatch=operations_mismatch,
    )
