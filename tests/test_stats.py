from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    count_congruent_parts,
    count_repeated_sizes,
    in_class_regular,
    in_inferior,
    in_regular,
    merge_count_closed_form,
    partitions_desc,
)
from regpart import (
    ALL,
    CLASS_REGULAR,
    INFERIOR_REGULAR,
    REGULAR,
    NotCoprime,
    PartitionClass,
    SeriesCheck,
    TruncatedSeries,
    XYCReport,
    aggregate,
    count_class,
    enumerate_class,
    glaisher_forward,
    validate_tuple,
    verify_length_identity,
    verify_series_vs_enumeration,
    verify_xyc,
)
from regpart import classes
from regpart.cli import main, xyc_exit_code


class TestAggregateGoldens:
    def test_single_modulus_table(self):
        report = aggregate(validate_tuple(3), 7)
        assert report.per_residue == {1: (25, 19), 2: (10, 4)}
        assert report.operation_total == 6
        assert [row.inferior_count for row in verify_xyc(report)] == [6, 6]
        assert report.hypothesis_holds

    def test_pair_counterexample_table(self):
        report = aggregate(validate_tuple((3, 5)), 5)
        assert report.per_residue == {1: (11, 8), 2: (3, 2)}
        assert report.operation_total == 2
        assert [row.inferior_count for row in verify_xyc(report)] == [2, 2]
        assert not report.hypothesis_holds

    def test_pair_with_congruent_tail(self):
        report = aggregate(validate_tuple((2, 3)), 6)
        assert report.per_residue == {1: (8, 4)}
        assert report.operation_total == 4
        assert [row.inferior_count for row in verify_xyc(report)] == [4]
        assert report.hypothesis_holds


class TestVerifyXYC:
    def test_rows_pass_for_single_modulus(self):
        rows = verify_xyc(aggregate(validate_tuple(3), 7))
        assert [row.residue for row in rows] == [1, 2]
        assert all(row.ok for row in rows)
        assert rows[0].x_total == 25 and rows[0].y_total == 19
        assert rows[1].x_total == 10 and rows[1].y_total == 4

    def test_rows_fail_without_hypothesis(self):
        rows = verify_xyc(aggregate(validate_tuple((3, 5)), 5))
        assert [row.difference for row in rows] == [3, 1]
        assert all(row.operation_total == 2 for row in rows)
        assert not any(row.ok for row in rows)
        assert not any(row.hypothesis_holds for row in rows)

    def test_size_zero(self):
        rows = verify_xyc(aggregate(validate_tuple(4), 0))
        assert all(row.x_total == row.y_total == 0 and row.ok for row in rows)


def _assert_aggregate_is_brute_force(raw, n):
    mt = validate_tuple(raw)
    head, tail = mt.head, mt.tail
    everything = list(partitions_desc(n))
    class_regular = [q for q in everything if in_class_regular(q, mt.moduli)]
    regular = [q for q in everything if in_regular(q, head, tail)]
    report = aggregate(mt, n)
    rows = verify_xyc(report)
    inferior = sum(1 for q in everything if in_inferior(q, head, tail))
    for j in range(1, head):
        x = sum(count_congruent_parts(q, head, j) for q in class_regular)
        y = sum(count_repeated_sizes(q, j) for q in regular)
        assert report.per_residue[j] == (x, y)
        assert rows[j - 1].inferior_count == inferior
    assert report.operation_total == sum(
        merge_count_closed_form(q, head) for q in class_regular
    )


@given(
    st.sampled_from([(2,), (3,), (4,), (5,), (2, 3), (3, 4), (3, 5), (2, 3, 7)]),
    st.integers(min_value=0, max_value=10),
)
def test_aggregate_matches_brute_force(raw, n):
    _assert_aggregate_is_brute_force(raw, n)


@pytest.mark.parametrize("raw", [(2,), (3,), (2, 3, 7), (13,)])
def test_aggregate_matches_brute_force_at_every_small_size(raw):
    # head 2 caps every regular run at one copy, which makes a block's lowest
    # multiplicity tightest; the class-regular blocks of (2, 3, 7) sit on part
    # 5; head 13 sizes the statistics by n up to n = 12 and by the head above
    for n in range(17):
        _assert_aggregate_is_brute_force(raw, n)


def test_aggregate_matches_brute_force_with_a_head_far_above_n():
    # every residue past n reads (0, 0)
    for n in range(9):
        _assert_aggregate_is_brute_force((1009,), n)


@pytest.mark.parametrize("raw", [(3, 5), (5, 3), (4, 7), (3, 5, 7), (2, 3, 7)])
def test_inferior_column_matches_enumeration(raw):
    # the series-read column against a walk of the family, mostly where the
    # hypothesis fails and the column differs from X - Y
    mt = validate_tuple(raw)
    family = PartitionClass.inferior_regular(mt)
    for n in range(26):
        want = count_class(family, n)
        assert all(row.inferior_count == want for row in verify_xyc(aggregate(mt, n)))


@pytest.mark.parametrize("raw", [(3,), (2, 3), (3, 7)])
def test_operation_total_matches_simulated_merges(raw):
    # the closed-form operation total against the traced merge map
    mt = validate_tuple(raw)
    family = PartitionClass.class_regular(mt)
    for n in range(17):
        simulated = sum(glaisher_forward(lam, mt.head).count for lam in enumerate_class(family, n))
        assert aggregate(mt, n).operation_total == simulated


class TestLengthIdentity:
    def test_golden_case(self):
        check = verify_length_identity(aggregate(3, 7))
        assert check.class_regular_length_sum == 35
        assert check.regular_length_sum == 23
        assert check.operation_total == 6
        assert check.difference == 12
        assert check.ok

    def test_small_case(self):
        check = verify_length_identity(aggregate(2, 3))
        assert check.class_regular_length_sum == 4
        assert check.regular_length_sum == 3
        assert check.operation_total == 1
        assert check.ok

    def test_size_zero(self):
        check = verify_length_identity(aggregate(5, 0))
        assert check.class_regular_length_sum == check.regular_length_sum == 0
        assert check.ok

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=14))
    def test_sweep_against_brute_force(self, modulus, n):
        check = verify_length_identity(aggregate(modulus, n))
        everything = list(partitions_desc(n))
        class_sum = sum(
            len(q) for q in everything if in_class_regular(q, (modulus,))
        )
        regular_sum = sum(len(q) for q in everything if in_regular(q, modulus, ()))
        assert check.class_regular_length_sum == class_sum
        assert check.regular_length_sum == regular_sum
        assert check.ok

    def test_refuses_a_tuple_report(self):
        report = aggregate((3, 7), 7)
        with pytest.raises(ValueError, match="needs a single modulus, got 3,7"):
            verify_length_identity(report)


@pytest.mark.parametrize("scope, extra, walked", [
    ("all", ["--n", "0..12", "--trunc", "0"], (CLASS_REGULAR, REGULAR)),
    ("length", ["--n", "0..12"], (CLASS_REGULAR, REGULAR)),
    ("xyc", ["--n", "0..12"], (CLASS_REGULAR, REGULAR)),
    ("series", ["--trunc", "12"], (ALL, CLASS_REGULAR, REGULAR, INFERIOR_REGULAR)),
])
def test_verify_walks_each_family_once_per_size(monkeypatch, scope, extra, walked):
    # the xyc and length sections read one report per size, and the xyc
    # rows read the inferior-regular count from its series, not a walk; the
    # series section walks each family once per degree, its class-regular
    # fold giving both that family's counts and the operation totals
    walks = Counter()
    real = classes._family_blocks

    def recorded(family, n):
        walks[family.kind, n] += 1
        return real(family, n)

    monkeypatch.setattr(classes, "_family_blocks", recorded)
    assert main(["verify", "--scope", scope, "--moduli", "3", *extra]) == 0
    lowest = 1 if scope == "all" else 0  # the series section walks size 0 again
    assert {key: count for key, count in walks.items() if key[1] >= lowest} == {
        (kind, n): 1 for kind in walked for n in range(lowest, 13)
    }


@pytest.mark.parametrize("family, want", [
    (PartitionClass.all_partitions(), None),
    (PartitionClass.class_regular((3, 5)), None),
    (PartitionClass.regular((3, 5)), None),
    (PartitionClass.inferior_regular((3, 5)), 0),
])
def test_regular_counts_differ_at_is_read_from_the_family(family, want):
    check = SeriesCheck(family, TruncatedSeries([1]), None, None)
    assert len(SeriesCheck._fields) == 4
    assert check.regular_counts_differ_at == want
    with pytest.raises(TypeError):
        SeriesCheck(family, TruncatedSeries([1]), None, None, want)
    with pytest.raises(TypeError):
        SeriesCheck(family, TruncatedSeries([1]), None, None, regular_counts_differ_at=want)


@pytest.mark.parametrize("moduli", [3, (3, 5)])
def test_verdicts_differences_and_hypothesis_flags_are_derived(moduli):
    mt = validate_tuple(moduli)
    report = aggregate(mt, 7)
    rows = verify_xyc(report)
    length = verify_length_identity(aggregate(mt.head, 7))
    *_, series = verify_series_vs_enumeration(mt, 6)
    assert [len(type(r)._fields) for r in (rows[0], report, length, series)] == [7, 4, 5, 4]
    assert report.hypothesis_holds == mt.tail_congruent
    for row in rows:
        assert row.difference == row.x_total - row.y_total
        assert row.hypothesis_holds == mt.tail_congruent
        assert row.ok == (row.difference == row.operation_total == row.inferior_count)
    assert all(row.ok for row in rows) == mt.tail_congruent
    assert length.ok == (length.difference == (length.modulus - 1) * length.operation_total)
    assert series.truncation == series.series.truncation == 6
    derived = [(rows[0], "difference"), (rows[0], "hypothesis_holds"), (rows[0], "ok"),
               (report, "hypothesis_holds"), (length, "ok"), (series, "truncation")]
    for result, name in derived:
        values = {field: getattr(result, field) for field in result._fields}
        type(result)(**values)
        with pytest.raises(TypeError):
            type(result)(**values, **{name: getattr(result, name)})
    assert xyc_exit_code(verify_xyc(aggregate(mt, 5))) == 0


@pytest.mark.parametrize("moduli, error", [({3, 5}, TypeError), ((2, 4), NotCoprime)])
def test_series_verifier_refuses_bad_moduli_before_any_check(moduli, error):
    yielded = []
    with pytest.raises(error):
        yielded.extend(verify_series_vs_enumeration(moduli, 4))
    assert yielded == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: aggregate(3, -1),
        lambda: verify_xyc(aggregate(3, -2)),
        lambda: verify_length_identity(aggregate(3, -1)),
        lambda: verify_xyc(XYCReport(validate_tuple(3), -1, {1: (0, 0), 2: (0, 0)}, 0)),
    ],
    ids=["aggregate", "verify_xyc", "verify_length_identity", "verify_xyc_of_a_built_report"],
)
def test_negative_size_is_blamed_on_the_size(call):
    # the size is checked before merge_counts or gf_class builds anything
    with pytest.raises(ValueError, match="partition size") as caught:
        call()
    assert "run length" not in str(caught.value)
