"""Part statistics and the counting identities that relate them.

Two statistics drive everything here. On the class-regular side, count the
parts lying in a residue class with multiplicity. On the regular side, count
the distinct sizes that occur at least a threshold number of times. Summed
over all partitions of n in their families, the two counts differ by exactly
the total number of merge operations, which in turn equals the number of
inferior-regular partitions of n. The identity needs every tail modulus to
be congruent to 1 modulo the leading one; each report and row reads whether
that hypothesis holds from its moduli, so a failure can be told apart from a
counterexample.

``aggregate`` is the one producer of the per-size record, an ``XYCReport``:
one pass over the class-regular family gives X per residue and the merge
operations, counted in closed form from the run multiplicities without
simulating any merge, and one pass over the regular family gives Y. The
xyc and length checks are views of that record, so a caller that runs both
at one size walks each family once. The xyc check adds the inferior-regular
count, read from its generating function as a witness independent of the
operation total. The series check compares the generating functions of a
modulus tuple's four families with enumeration in one walk per family per
degree, the class-regular one also giving the operation totals. Each result
type stores only counts; its verdict, differences and hypothesis flag are
properties derived from them, so it cannot disagree with its counts.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import classes
from .classes import (CLASS_REGULAR, INFERIOR_REGULAR, ModulusTuple, PartitionClass, count_class,
                      validate_tuple)
from .glaisher import merge_counts
from .partition import _check_int, _Value
from .qseries import TruncatedSeries, gf_class

__all__ = [
    "LengthCheck", "SeriesCheck", "XYCReport", "XYCRow", "aggregate", "verify_length_identity",
    "verify_series_vs_enumeration", "verify_xyc",
]


class XYCReport(_Value):
    """The statistics of one modulus tuple at one total size n.

    ``per_residue`` maps each residue j from 1 to head - 1 to (X, Y): X
    counts the parts congruent to j modulo the head, with multiplicity, over
    the class-regular family, and Y counts the part sizes of multiplicity at
    least j over the regular family. ``operation_total`` is the number of
    merge steps over the class-regular family. ``verify_xyc`` and
    ``verify_length_identity`` both read their counts from this record.
    """

    __slots__ = _fields = ("moduli", "n", "per_residue", "operation_total")

    @property
    def hypothesis_holds(self) -> bool:
        return self.moduli.tail_congruent


def _class_regular_fold(moduli: ModulusTuple, n: int) -> tuple[list[int], int, int]:
    # One pass over the class-regular family at n: X_j at index j (index 0
    # stays 0), the merge-operation total and the member count. Each block's
    # prefix counts once per member, then each member of a block with a rest
    # adds its runs p^a and 1^(rest - p*a); merges[0] is 0, so an absent run
    # adds nothing. A part p <= n has residue at most n, so the list stops at
    # the smaller of head and n + 1 and X_j is 0 for every j past it.
    _check_int(n, 0, "partition size")  # before merge_counts can blame a run length
    head = moduli.head
    merges = merge_counts(head, n)
    x_totals = [0] * min(head, n + 1)
    operations = count = 0
    family = PartitionClass.class_regular(moduli)
    for prefix, part, rest, top, low in classes._family_blocks(family, n):
        members = top - low + 1
        count += members
        for p, mult in prefix:
            x_totals[p % head] += mult * members
            operations += merges[mult] * members
        if rest:
            residue = part % head
            for a in range(low, top + 1):
                ones = rest - part * a
                x_totals[residue] += a
                x_totals[1] += ones
                operations += merges[a] + merges[ones]
    return x_totals, operations, count


def aggregate(moduli: ModulusTuple | int, n: int) -> XYCReport:
    """Walk the class-regular and the regular family of size n once each and
    collect every residue's X and Y and the operation total at once."""
    moduli = validate_tuple(moduli)
    x, operations, _ = _class_regular_fold(moduli, n)
    # a regular multiplicity is below head and at most n, so it indexes a
    # list as long as x; index 0 counts absent runs
    runs_by_mult = [0] * len(x)
    for prefix, part, rest, top, low in classes._family_blocks(PartitionClass.regular(moduli), n):
        members = top - low + 1
        for _, mult in prefix:
            runs_by_mult[mult] += members
        if rest:
            for a in range(low, top + 1):
                runs_by_mult[a] += 1
                runs_by_mult[rest - part * a] += 1
    # Y_j counts the runs of multiplicity at least j: one suffix pass
    for j in range(len(x) - 2, 0, -1):
        runs_by_mult[j] += runs_by_mult[j + 1]
    per_residue = {j: (x[j], runs_by_mult[j]) for j in range(1, len(x))}
    per_residue.update(dict.fromkeys(range(len(x), moduli.head), (0, 0)))
    return XYCReport(moduli=moduli, n=n, per_residue=per_residue, operation_total=operations)


class XYCRow(_Value):
    """One residue of an XYCReport, flattened for reporting.

    ``ok`` states that the difference X - Y, the merge-operation total, and
    the inferior-regular count all agree.
    """

    __slots__ = _fields = (
        "moduli", "n", "residue", "x_total", "y_total", "operation_total", "inferior_count",
    )

    @property
    def difference(self) -> int:
        return self.x_total - self.y_total

    hypothesis_holds = XYCReport.hypothesis_holds

    @property
    def ok(self) -> bool:
        return self.difference == self.operation_total == self.inferior_count


def verify_xyc(report: XYCReport) -> tuple[XYCRow, ...]:
    """Check X - Y = operations = inferior count for every residue of the
    report, reading the inferior-regular count from its generating function."""
    moduli, n = report.moduli, report.n
    _check_int(n, 0, "partition size")  # before gf_class can blame a truncation
    inferior = gf_class(PartitionClass.inferior_regular(moduli), n)[n]
    return tuple(
        XYCRow(moduli, n, residue, x_total, y_total, report.operation_total, inferior)
        for residue, (x_total, y_total) in report.per_residue.items()
    )


class LengthCheck(_Value):
    """Total lengths of the two families of partitions of n, for a single
    modulus, against the merge-operation total.

    Each merge step shortens a partition by modulus - 1 parts, so the
    length sums must differ by (modulus - 1) times the operation total.
    """

    __slots__ = _fields = (
        "modulus", "n", "class_regular_length_sum", "regular_length_sum", "operation_total",
    )

    @property
    def difference(self) -> int:
        return self.class_regular_length_sum - self.regular_length_sum

    @property
    def ok(self) -> bool:
        return self.difference == (self.modulus - 1) * self.operation_total


def verify_length_identity(report: XYCReport) -> LengthCheck:
    """Compare the two length sums of a single-modulus report with its
    operation total.

    No class-regular part is divisible by the modulus and every regular
    multiplicity is below it, so the length sums are the sums of X_j and of
    Y_j over the residues j >= 1.
    """
    if len(report.moduli) > 1:
        raise ValueError(f"the length identity needs a single modulus, got {report.moduli}")
    return LengthCheck(
        modulus=report.moduli.head,
        n=report.n,
        class_regular_length_sum=sum(x for x, _ in report.per_residue.values()),
        regular_length_sum=sum(y for _, y in report.per_residue.values()),
        operation_total=report.operation_total,
    )


class SeriesCheck(_Value):
    """Outcome of checking a family's series against direct enumeration.

    ``count_mismatch`` is the first degree where a coefficient fails to
    count the family, or None. For inferior-regular families
    ``operations_mismatch`` is the first degree where a coefficient differs
    from the summed merge-operation counts over the class-regular family.
    """

    __slots__ = _fields = ("family", "series", "count_mismatch", "operations_mismatch")

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


def _first_difference(series: TruncatedSeries, values: list[int]) -> int | None:
    return next((d for d, value in enumerate(values) if series[d] != value), None)


def verify_series_vs_enumeration(
    moduli: ModulusTuple | int, truncation: int
) -> Iterator[SeriesCheck]:
    """Yield the checks of the all, class-regular, regular and inferior-regular
    series of the moduli against enumeration up to the truncation, in that
    order, each as soon as its family has been walked once per degree."""
    moduli = validate_tuple(moduli)
    _check_int(truncation, 0, "truncation")
    for family in (PartitionClass.all_partitions(), PartitionClass.class_regular(moduli),
                   PartitionClass.regular(moduli), PartitionClass.inferior_regular(moduli)):
        if family.kind == CLASS_REGULAR:  # keep each fold's operation and member totals
            folds = [_class_regular_fold(moduli, d)[1:] for d in range(truncation + 1)]
            counts = [members for _, members in folds]
        else:
            counts = [count_class(family, d) for d in range(truncation + 1)]
        operations = [ops for ops, _ in folds] if family.kind == INFERIOR_REGULAR else []
        series = gf_class(family, truncation)
        yield SeriesCheck(family, series, _first_difference(series, counts),
                          _first_difference(series, operations))
