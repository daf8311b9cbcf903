import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regpart import (
    BijectionTriple,
    InvalidTriple,
    Partition,
    PartitionClass,
    aggregate,
    count_class,
    enumerate_class,
    enumerate_runs,
    gf_class,
    insertion_map,
    insertion_preimages,
    verify_length_identity,
    verify_series_vs_enumeration,
    verify_xyc,
)
from regpart.glaisher import merge_counts

parts_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=12)


class TestConstruction:
    def test_parts_come_back_decreasing(self):
        assert Partition([2, 4, 1, 2]).parts == (4, 2, 2, 1)

    def test_empty(self):
        p = Partition()
        assert p.parts == ()
        assert p.size == 0
        assert p.length == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Partition([3, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([-1])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            Partition([2.5])
        with pytest.raises(ValueError):
            Partition([True])

    def test_from_multiplicities(self):
        p = Partition.from_multiplicities({1: 3, 4: 1})
        assert p.parts == (4, 1, 1, 1)

    def test_from_multiplicities_drops_zero_entries(self):
        assert Partition.from_multiplicities({2: 0, 3: 1}) == Partition([3])

    def test_from_multiplicities_rejects_negatives(self):
        with pytest.raises(ValueError):
            Partition.from_multiplicities({2: -1})
        with pytest.raises(ValueError):
            Partition.from_multiplicities({0: 2})


class TestViews:
    def test_runs_are_largest_first(self):
        assert Partition([1, 1, 5, 3, 3, 3]).runs == ((5, 1), (3, 3), (1, 2))

    def test_multiplicity(self):
        p = Partition([4, 2, 2, 1])
        assert p.multiplicity(2) == 2
        assert p.multiplicity(4) == 1
        assert p.multiplicity(3) == 0

    def test_multiplicities_table(self):
        assert Partition([4, 2, 2]).multiplicities() == {4: 1, 2: 2}

    def test_size_and_length(self):
        p = Partition([4, 2])
        assert p.size == 6
        assert p.length == 2

    def test_str_uses_exponents(self):
        assert str(Partition([2, 1, 1, 1, 1])) == "(2 1^4)"
        assert str(Partition()) == "()"

    def test_repr_round_trips(self):
        p = Partition([3, 1, 1])
        assert eval(repr(p)) == p


class TestMultisetAlgebra:
    def test_equality_and_hash(self):
        assert Partition([2, 1, 2]) == Partition([2, 2, 1])
        assert hash(Partition([2, 1, 2])) == hash(Partition([2, 2, 1]))
        assert Partition([2, 1]) != Partition([3])
        assert len({Partition([2, 1]), Partition([1, 2])}) == 1

    def test_unequal_to_its_runs_and_to_other_records(self):
        p = Partition([2, 1])
        assert p != p.runs and not p == p.runs
        assert p != BijectionTriple(p, 2, 1)


class TestImmutability:
    @pytest.mark.parametrize(
        "change",
        [
            lambda p: setattr(p, "_runs", ((2, 2),)),
            lambda p: setattr(p, "runs", ((2, 2),)),
            lambda p: delattr(p, "runs"),
            lambda p: setattr(p, "extra", 1),
        ],
        ids=["_runs", "runs", "del-runs", "extra"],
    )
    def test_refuses_change_and_stays_findable(self, change):
        p = Partition([3, 1, 1])
        held = {p}
        with pytest.raises(AttributeError):
            change(p)
        assert p.runs == ((3, 1), (1, 2))
        assert p in held and Partition([1, 3, 1]) in held

    @pytest.mark.parametrize(
        "rebuild",
        [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("parts", [[], [1], [4, 2, 2, 1, 1, 1]])
    def test_pickle_and_copy_rebuild_an_equal_partition(self, rebuild, parts):
        p = Partition(parts)
        back = rebuild(p)
        assert type(back) is Partition
        assert back == p and back.runs == p.runs and hash(back) == hash(p)


@given(parts_lists)
def test_parts_round_trip(parts):
    p = Partition(parts)
    assert Partition(p.parts) == p
    assert p.parts == tuple(sorted(parts, reverse=True))


@given(parts_lists)
def test_measures_match_raw_input(parts):
    p = Partition(parts)
    assert p.size == sum(parts)
    assert p.length == len(parts)


@given(parts_lists)
def test_views_agree(parts):
    p = Partition(parts)
    rebuilt = []
    for part, mult in p.runs:
        assert mult == p.multiplicity(part)
        rebuilt.extend([part] * mult)
    assert tuple(rebuilt) == p.parts


# every public entry point that takes a size or a truncation, as a call of
# that one integer; generators are drained so that their check runs
SIZE_ENTRY_POINTS = {
    "enumerate_class": lambda n: list(enumerate_class(PartitionClass.all_partitions(), n)),
    "enumerate_runs": lambda n: list(enumerate_runs(PartitionClass.regular(3), n)),
    "count_class": lambda n: count_class(PartitionClass.inferior_regular(3), n),
    "aggregate": lambda n: aggregate(3, n),
    "verify_xyc": lambda n: verify_xyc(aggregate(3, n)),
    "verify_length_identity": lambda n: verify_length_identity(aggregate(3, n)),
    "insertion_preimages": lambda n: insertion_preimages(3, 1, n, Partition()),
    "gf_class": lambda n: gf_class(PartitionClass.class_regular(3), n),
    "verify_series_vs_enumeration": lambda n: list(verify_series_vs_enumeration(3, n)),
    "merge_counts": lambda n: merge_counts(3, n),
}


@pytest.mark.parametrize("value", [-1, True, 2.5])
@pytest.mark.parametrize("entry", sorted(SIZE_ENTRY_POINTS))
def test_sizes_and_truncations_are_nonnegative_integers(entry, value):
    with pytest.raises(ValueError, match="nonnegative"):
        SIZE_ENTRY_POINTS[entry](value)


# every public entry point that takes a residue or a threshold, with the
# exception its module raises, as a call of that one value
RESIDUE_ENTRY_POINTS = {
    "insertion_map": (InvalidTriple, lambda j: insertion_map(
        3, j, BijectionTriple(Partition([1]), 1, 1)
    )),
    "insertion_preimages": (InvalidTriple, lambda j: insertion_preimages(3, j, 1, Partition([1]))),
}


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("entry", sorted(RESIDUE_ENTRY_POINTS))
def test_residues_and_thresholds_are_integers(entry, value):
    error, call = RESIDUE_ENTRY_POINTS[entry]
    with pytest.raises(error, match="is not a positive integer"):
        call(value)
