import inspect
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    in_class_regular,
    in_inferior,
    in_regular,
    partitions_desc,
)
from regpart import (
    EmptyTuple,
    NotCoprime,
    Partition,
    PartitionClass,
    TooSmall,
    count_class,
    enumerate_class,
    enumerate_runs,
    gf_class,
    is_member,
    validate_tuple,
)
from regpart import classes

# one representative pool of valid tuples for the property tests
TUPLE_POOL = [(2,), (3,), (4,), (5,), (2, 3), (3, 5), (3, 4), (2, 3, 7)]


class TestModulusTuple:
    def test_accepts_single_int(self):
        assert validate_tuple(3).moduli == (3,)

    def test_accepts_iterable(self):
        assert validate_tuple([3, 5]).moduli == (3, 5)
        assert validate_tuple(dict.fromkeys([5, 3])).moduli == (5, 3)  # insertion order

    def test_passes_through(self):
        mt = validate_tuple((2, 3))
        assert validate_tuple(mt) is mt

    def test_head_and_tail(self):
        mt = validate_tuple((3, 5, 7))
        assert mt.head == 3
        assert mt.tail == (5, 7)
        assert list(mt) == [3, 5, 7]
        assert len(mt) == 3
        assert str(mt) == "3,5,7"
        assert str(PartitionClass.regular((3, 5))) == "regular(3,5)"
        assert str(PartitionClass.all_partitions()) == "all"

    def test_empty_rejected(self):
        with pytest.raises(EmptyTuple):
            validate_tuple(())

    @pytest.mark.parametrize("build", [validate_tuple, PartitionClass.regular])
    @pytest.mark.parametrize("moduli", [{5, 3}, frozenset({5, 3})], ids=["set", "frozenset"])
    def test_unordered_moduli_rejected(self, build, moduli):
        with pytest.raises(TypeError, match=type(moduli).__name__):
            build(moduli)

    def test_small_rejected(self):
        with pytest.raises(TooSmall):
            validate_tuple(1)
        with pytest.raises(TooSmall):
            validate_tuple((3, 0))

    def test_common_factor_rejected(self):
        with pytest.raises(NotCoprime):
            validate_tuple((2, 4))
        with pytest.raises(NotCoprime):
            validate_tuple((6, 10, 15))

    def test_tail_congruence(self):
        assert validate_tuple(3).tail_congruent
        assert validate_tuple((3, 7)).tail_congruent
        assert validate_tuple((2, 3, 7)).tail_congruent
        assert not validate_tuple((3, 5)).tail_congruent


class TestPartitionClass:
    def test_all_takes_no_moduli(self):
        assert PartitionClass.all_partitions().moduli is None
        with pytest.raises(ValueError):
            PartitionClass("all", validate_tuple(3))

    def test_restricted_needs_moduli(self):
        with pytest.raises(ValueError):
            PartitionClass("regular", None)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PartitionClass("superior", validate_tuple(3))

    def test_raw_moduli_are_validated(self):
        with pytest.raises(NotCoprime):
            PartitionClass("regular", (2, 4))
        for scalar in (True, 2.5, None, b"3", bytearray(b"\x03")):
            with pytest.raises(TooSmall):
                validate_tuple(scalar)
        assert PartitionClass("regular", 3) == PartitionClass.regular(3)
        assert count_class(PartitionClass("regular", 3), 6) == 7

    def test_contains_sugar(self):
        assert Partition([3, 3, 1]) in PartitionClass.regular(3)
        assert Partition([3, 3, 1]) not in PartitionClass.class_regular(3)


class TestMembership:
    def test_single_modulus_cases(self):
        assert is_member(Partition([7]), PartitionClass.class_regular(3))
        assert is_member(Partition([7]), PartitionClass.regular(3))
        assert not is_member(Partition([6, 1]), PartitionClass.class_regular(3))
        assert is_member(Partition([6, 1]), PartitionClass.regular(3))
        assert not is_member(Partition([1, 1, 1]), PartitionClass.regular(3))
        assert is_member(Partition([4, 1, 1, 1]), PartitionClass.inferior_regular(3))
        assert not is_member(Partition([4, 2, 1]), PartitionClass.inferior_regular(3))

    def test_inferior_needs_exactly_one_heavy_size(self):
        two_heavy = Partition([2, 2, 2, 1, 1, 1])
        assert not is_member(two_heavy, PartitionClass.inferior_regular(3))

    def test_tuple_tail_forbids_parts(self):
        mt = validate_tuple((3, 5))
        assert not is_member(Partition([5, 1]), PartitionClass.class_regular(mt))
        assert not is_member(Partition([5, 1]), PartitionClass.regular(mt))
        # the leading modulus does not forbid parts in the regular kinds
        assert is_member(Partition([3, 2]), PartitionClass.regular(mt))
        assert is_member(
            Partition([3, 1, 1, 1]), PartitionClass.inferior_regular(mt)
        )

    def test_empty_partition(self):
        empty = Partition()
        assert is_member(empty, PartitionClass.all_partitions())
        assert is_member(empty, PartitionClass.class_regular(3))
        assert is_member(empty, PartitionClass.regular(3))
        assert not is_member(empty, PartitionClass.inferior_regular(3))


# listings checked against the worked examples: nine class-regular and nine
# regular partitions of 7 for modulus 3, six inferior-regular ones, and the
# four class-regular partitions of 5 for the pair (3, 5)
CLASS_REGULAR_3_7 = [
    (7,), (5, 2), (5, 1, 1), (4, 2, 1), (4, 1, 1, 1),
    (2, 2, 2, 1), (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1),
]
REGULAR_3_7 = [
    (7,), (6, 1), (5, 2), (5, 1, 1), (4, 3), (4, 2, 1),
    (3, 3, 1), (3, 2, 2), (3, 2, 1, 1),
]
INFERIOR_3_7 = [
    (4, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 2, 1),
    (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1),
]
CLASS_REGULAR_35_5 = [(4, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


class TestGoldenListings:
    def test_class_regular_3_7(self):
        got = [p.parts for p in enumerate_class(PartitionClass.class_regular(3), 7)]
        assert got == CLASS_REGULAR_3_7

    def test_regular_3_7(self):
        got = [p.parts for p in enumerate_class(PartitionClass.regular(3), 7)]
        assert got == REGULAR_3_7

    def test_inferior_3_7(self):
        got = [p.parts for p in enumerate_class(PartitionClass.inferior_regular(3), 7)]
        assert got == INFERIOR_3_7

    def test_class_regular_pair_35_5(self):
        family = PartitionClass.class_regular((3, 5))
        got = [p.parts for p in enumerate_class(family, 5)]
        assert got == CLASS_REGULAR_35_5

    def test_counts(self):
        assert count_class(PartitionClass.class_regular(3), 7) == 9
        assert count_class(PartitionClass.regular(3), 7) == 9
        assert count_class(PartitionClass.inferior_regular(3), 7) == 6

    def test_unrestricted_counts(self):
        everything = PartitionClass.all_partitions()
        got = [count_class(everything, n) for n in range(13)]
        assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


class TestEdges:
    def test_size_zero(self):
        assert [p.parts for p in enumerate_class(PartitionClass.all_partitions(), 0)] == [()]
        assert count_class(PartitionClass.class_regular(3), 0) == 1
        assert count_class(PartitionClass.regular(3), 0) == 1
        assert count_class(PartitionClass.inferior_regular(3), 0) == 0

    def test_negative_size(self):
        with pytest.raises(ValueError):
            count_class(PartitionClass.all_partitions(), -1)
        with pytest.raises(ValueError):
            list(enumerate_class(PartitionClass.regular(2), -3))


def _families(mt):
    return {
        "cp": (PartitionClass.class_regular(mt), lambda q: in_class_regular(q, mt.moduli)),
        "rp": (PartitionClass.regular(mt), lambda q: in_regular(q, mt.head, mt.tail)),
        "irp": (PartitionClass.inferior_regular(mt), lambda q: in_inferior(q, mt.head, mt.tail)),
    }


@given(st.sampled_from(TUPLE_POOL), st.integers(min_value=0, max_value=12))
def test_enumeration_matches_brute_force_filter(raw, n):
    mt = validate_tuple(raw)
    everything = list(partitions_desc(n))
    for family, predicate in _families(mt).values():
        expected = [q for q in everything if predicate(q)]
        got = [p.parts for p in enumerate_class(family, n)]
        assert got == expected
        assert count_class(family, n) == len(expected)


@given(st.sampled_from(TUPLE_POOL), st.integers(min_value=0, max_value=12))
def test_members_pass_membership_and_order(raw, n):
    mt = validate_tuple(raw)
    for family, _ in _families(mt).values():
        listing = [p for p in enumerate_class(family, n)]
        assert all(is_member(p, family) for p in listing)
        assert all(p.size == n for p in listing)
        tuples = [p.parts for p in listing]
        assert tuples == sorted(tuples, reverse=True)
        assert len(set(tuples)) == len(tuples)


@given(st.sampled_from(TUPLE_POOL), st.integers(min_value=0, max_value=14))
def test_regular_and_class_regular_are_equinumerous(raw, n):
    mt = validate_tuple(raw)
    assert count_class(PartitionClass.regular(mt), n) == count_class(
        PartitionClass.class_regular(mt), n
    )


@given(st.sampled_from([(2, 3), (3, 5), (2, 3, 7)]), st.integers(min_value=0, max_value=12))
def test_tuple_classes_refine_the_leading_modulus(raw, n):
    mt = validate_tuple(raw)
    head_only = PartitionClass.class_regular(mt.head)
    for p in enumerate_class(PartitionClass.class_regular(mt), n):
        assert is_member(p, head_only)


@given(st.sampled_from(TUPLE_POOL), st.integers(min_value=0, max_value=12))
def test_regular_and_inferior_are_disjoint(raw, n):
    mt = validate_tuple(raw)
    regular = set(enumerate_class(PartitionClass.regular(mt), n))
    inferior = set(enumerate_class(PartitionClass.inferior_regular(mt), n))
    assert not regular & inferior


def _runs_of(parts):
    return tuple((part, len(list(copies))) for part, copies in groupby(parts))


@pytest.mark.parametrize("raw", TUPLE_POOL)
def test_enumeration_order_is_exhaustively_the_oracle_order(raw):
    mt = validate_tuple(raw)
    families = dict(_families(mt), all=(PartitionClass.all_partitions(), lambda q: True))
    for n in range(21):
        everything = list(partitions_desc(n))
        for family, predicate in families.values():
            expected = [q for q in everything if predicate(q)]
            assert [p.parts for p in enumerate_class(family, n)] == expected
            assert list(enumerate_runs(family, n)) == [_runs_of(q) for q in expected]
            members = [is_member(Partition(q), family) for q in everything]
            assert members == [predicate(q) for q in everything]


@pytest.mark.parametrize("raw", TUPLE_POOL)
def test_block_sizes_count_the_listed_members(raw):
    # count_class sums block sizes; enumerate_runs lists each block's members
    mt = validate_tuple(raw)
    families = [family for family, _ in _families(mt).values()]
    for family in [PartitionClass.all_partitions(), *families]:
        for n in range(21):
            assert count_class(family, n) == len(list(enumerate_runs(family, n)))


def test_enumerate_runs_stays_a_generator_function():
    # the benchmark tracer times a generator function per next() call
    assert inspect.isgeneratorfunction(classes.enumerate_runs)


@pytest.mark.parametrize("raw", [(3,), (2, 3), (3, 7)])
def test_counts_match_series_to_degree_60(raw):
    mt = validate_tuple(raw)
    for family, _ in _families(mt).values():
        series = gf_class(family, 60)
        assert [count_class(family, d) for d in range(61)] == list(series.coefficients)
