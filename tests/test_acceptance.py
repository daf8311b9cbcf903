"""End-to-end acceptance checks, one test per criterion.

Every check is exact; there are no tolerances anywhere. Each test prints a
single criterion line directly to the terminal so a full run reads as a
checklist. The randomized confluence trial uses a fixed seed.
"""

import random
from contextlib import contextmanager

from oracles import count_repeated_sizes, merge_fully

from regpart import (
    MERGE,
    Partition,
    PartitionClass,
    aggregate,
    count_class,
    enumerate_class,
    glaisher_forward,
    insertion_preimages,
    validate_tuple,
    verify_length_identity,
    verify_series_vs_enumeration,
    verify_xyc,
)
from regpart.classes import INFERIOR_REGULAR
from regpart.cli import xyc_exit_code

SINGLE_MODULI = (2, 3, 4, 5)
TUPLE_MODULI = ((2, 3), (2, 5), (3, 4), (3, 7), (2, 3, 7))


@contextmanager
def criterion(capsys, number, label):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number} ({label}): {verdict}")


def test_criterion_1_golden_merge_trace(capsys):
    with criterion(capsys, 1, "golden merge trace"):
        trace = glaisher_forward(Partition([1] * 6), 2)
        states = [p.parts for p in trace.states()]
        assert states == [
            (1, 1, 1, 1, 1, 1),
            (2, 1, 1, 1, 1),
            (2, 2, 1, 1),
            (2, 2, 2),
            (4, 2),
        ]
        assert trace.steps == ((MERGE, 1), (MERGE, 1), (MERGE, 1), (MERGE, 2))
        assert trace.count == 4
        assert trace.end == Partition([4, 2])


def test_criterion_2_golden_statistics_table(capsys):
    with criterion(capsys, 2, "golden statistics table"):
        report = aggregate(validate_tuple(3), 7)
        assert report.per_residue == {1: (25, 19), 2: (10, 4)}
        assert report.operation_total == 6
        assert [row.inferior_count for row in verify_xyc(report)] == [6, 6]
        assert report.hypothesis_holds


def test_criterion_3_violating_tuple_is_informational(capsys):
    with criterion(capsys, 3, "hypothesis-violating tuple is informational"):
        rows = verify_xyc(aggregate(validate_tuple((3, 5)), 5))
        table = [(r.residue, r.x_total, r.y_total, r.difference) for r in rows]
        assert table == [(1, 11, 8, 3), (2, 3, 2, 1)]
        assert all(not r.hypothesis_holds for r in rows)
        assert all(not r.ok for r in rows)
        assert xyc_exit_code(rows) == 0


def test_criterion_4_single_modulus_difference_sweep(capsys):
    with criterion(capsys, 4, "difference identity sweep, single modulus"):
        for r in SINGLE_MODULI:
            mt = validate_tuple(r)
            for n in range(31):
                for row in verify_xyc(aggregate(mt, n)):
                    assert row.ok, (r, n, row)
                    assert row.x_total == row.y_total + row.inferior_count


def test_criterion_5_tuple_difference_sweep(capsys):
    with criterion(capsys, 5, "difference identity sweep, coprime tuples"):
        for moduli in TUPLE_MODULI:
            mt = validate_tuple(moduli)
            assert mt.tail_congruent
            for n in range(26):
                for row in verify_xyc(aggregate(mt, n)):
                    assert row.difference == row.operation_total, (moduli, n, row)
                    assert row.ok, (moduli, n, row)


def test_criterion_6_length_identity_sweep(capsys):
    with criterion(capsys, 6, "length identity sweep"):
        for r in SINGLE_MODULI:
            for n in range(31):
                assert verify_length_identity(aggregate(r, n)).ok, (r, n)
        instance = verify_length_identity(aggregate(3, 7))
        assert instance.class_regular_length_sum == 35
        assert instance.regular_length_sum == 23
        assert instance.difference == 12
        assert instance.operation_total == 6


def test_criterion_7_series_match_enumeration(capsys):
    with criterion(capsys, 7, "series match enumeration"):
        checks = []
        for moduli in (2, 3, 5, (2, 3), (3, 5), (3, 7)):
            checks.extend(verify_series_vs_enumeration(moduli, 40))
        for check in checks:
            assert check.count_mismatch is None, check
            assert check.operations_mismatch is None, check
            if check.family.kind == INFERIOR_REGULAR:
                assert check.regular_counts_differ_at is not None, check


def test_criterion_8_bijection_and_preimage_censuses(capsys):
    with criterion(capsys, 8, "bijection and preimage censuses"):
        for r in SINGLE_MODULI:
            source = PartitionClass.class_regular(r)
            target = PartitionClass.regular(r)
            for n in range(31):
                images = [glaisher_forward(p, r).end for p in enumerate_class(source, n)]
                assert len(set(images)) == len(images), (r, n)
                assert all(image in target and image.size == n for image in images)
                assert len(images) == count_class(target, n), (r, n)

        everything = PartitionClass.all_partitions()
        for moduli in TUPLE_MODULI:
            mt = validate_tuple(moduli)
            regular = PartitionClass.regular(mt)
            inferior = PartitionClass.inferior_regular(mt)
            for j in range(1, mt.head):
                for n in range(26):
                    for mu in enumerate_class(everything, n):
                        got = len(insertion_preimages(mt, j, n, mu))
                        if mu in inferior:
                            want = 1
                        elif mu in regular:
                            want = count_repeated_sizes(mu.parts, j)
                        else:
                            want = 0
                        assert got == want, (moduli, j, n, mu)


def test_criterion_9_merge_order_confluence(capsys):
    with criterion(capsys, 9, "merge order confluence"):
        rng = random.Random(20260821)
        for _ in range(1000):
            r = rng.randint(2, 5)
            remaining = rng.randint(0, 40)
            parts = []
            while remaining:
                k = rng.randint(1, remaining)
                parts.append(k)
                remaining -= k
            canonical = glaisher_forward(Partition(parts), r)
            end, steps = merge_fully(tuple(parts), r, rng.choice)
            assert end == canonical.end.parts
            assert steps == canonical.count
