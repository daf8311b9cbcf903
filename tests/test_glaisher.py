import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import in_class_regular, merge_count_closed_form, merge_fully, partitions_desc
from regpart import (
    MERGE,
    SPLIT,
    BijectionTriple,
    GlaisherTrace,
    InvalidTriple,
    NotRegular,
    Partition,
    PartitionClass,
    PreimageCensus,
    PreimageCountMismatch,
    TooSmall,
    count_congruent_parts,
    count_repeated_sizes,
    enumerate_class,
    factor_out,
    glaisher_forward,
    glaisher_inverse,
    insertion_map,
    insertion_preimages,
    is_member,
    validate_tuple,
)
from regpart import glaisher
from regpart.glaisher import merge_counts

parts_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=14)


class TestForward:
    def test_golden_chain(self):
        trace = glaisher_forward(Partition([1] * 6), 2)
        assert [s.parts for s in trace.states()] == [
            (1, 1, 1, 1, 1, 1),
            (2, 1, 1, 1, 1),
            (2, 2, 1, 1),
            (2, 2, 2),
            (4, 2),
        ]
        assert trace.steps == ((MERGE, 1), (MERGE, 1), (MERGE, 1), (MERGE, 2))
        assert trace.count == 4
        assert trace.end == Partition([4, 2])

    def test_already_regular_is_identity(self):
        trace = glaisher_forward(Partition([7]), 3)
        assert trace.count == 0
        assert trace.start == trace.end == Partition([7])
        assert trace.states() == [Partition([7])]

    def test_five_ones_modulus_three(self):
        trace = glaisher_forward(Partition([1] * 5), 3)
        assert trace.end == Partition([3, 1, 1])
        assert trace.count == 1

    def test_five_ones_modulus_five(self):
        trace = glaisher_forward(Partition([1] * 5), 5)
        assert trace.end == Partition([5])
        assert trace.count == 1

    def test_empty(self):
        trace = glaisher_forward(Partition(), 2)
        assert trace.count == 0
        assert trace.end == Partition()

    def test_modulus_too_small(self):
        with pytest.raises(TooSmall):
            glaisher_forward(Partition([1]), 1)


class TestInverse:
    def test_golden_inverse(self):
        trace = glaisher_inverse(Partition([4, 2]), 2)
        assert trace.end == Partition([1] * 6)
        assert trace.count == 4

    def test_mixed_input(self):
        trace = glaisher_inverse(Partition([3, 2, 1]), 2)
        assert trace.end == Partition([3, 1, 1, 1])
        assert trace.count == 1
        assert trace.steps == ((SPLIT, 1),)

    def test_single_divisible_part(self):
        trace = glaisher_inverse(Partition([5]), 5)
        assert trace.end == Partition([1] * 5)
        assert trace.count == 1

    def test_rejects_heavy_multiplicities(self):
        with pytest.raises(NotRegular):
            glaisher_inverse(Partition([2, 2]), 2)

    def test_modulus_too_small(self):
        with pytest.raises(TooSmall):
            glaisher_inverse(Partition([2]), 0)


class TestTraceShape:
    @given(parts_lists, st.integers(min_value=2, max_value=5))
    def test_states_replay(self, parts, r):
        trace = glaisher_forward(Partition(parts), r)
        states = trace.states()
        assert len(states) == trace.count + 1
        assert states[0] == trace.start
        assert states[-1] == trace.end

    @pytest.mark.parametrize("start, steps, message", [
        ([1, 1], ((MERGE, 1),), "cannot replay merge at 1"),
        ([3, 1], ((SPLIT, 2),), "cannot replay split at 6"),
        ([1], (("swap", 1),), "unknown step 'swap'"),
    ])
    def test_states_rejects_a_bad_replay(self, start, steps, message):
        trace = GlaisherTrace(Partition(start), Partition(start), 3, steps)
        with pytest.raises(ValueError) as caught:
            trace.states()
        assert str(caught.value) == message

    @given(parts_lists, st.integers(min_value=2, max_value=5))
    def test_forward_end_is_regular_and_size_preserved(self, parts, r):
        p = Partition(parts)
        trace = glaisher_forward(p, r)
        assert trace.end.size == p.size
        assert all(mult < r for _, mult in trace.end.runs)

    @given(parts_lists, st.integers(min_value=2, max_value=5))
    def test_each_merge_drops_length_by_modulus_minus_one(self, parts, r):
        trace = glaisher_forward(Partition(parts), r)
        assert trace.start.length - trace.end.length == (r - 1) * trace.count


@st.composite
def class_regular_inputs(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    parts = draw(
        st.lists(
            st.integers(min_value=1, max_value=20).filter(lambda p: p % r != 0),
            max_size=14,
        )
    )
    return r, Partition(parts)


@given(class_regular_inputs())
def test_count_matches_closed_form(data):
    r, p = data
    assert glaisher_forward(p, r).count == merge_count_closed_form(p.parts, r)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_closed_form_counts_every_class_regular_partition(r):
    # exhaustive second witness: the closed form against the simulated merges
    merges = merge_counts(r, 18)
    family = PartitionClass.class_regular(r)
    for n in range(19):
        for p in enumerate_class(family, n):
            closed = sum(merges[mult] for _, mult in p.runs)
            assert closed == glaisher_forward(p, r).count


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_closed_form_merge_end_of_every_class_regular_partition(r):
    # exhaustive second witness: the digit expansion against the simulated merges
    family = PartitionClass.class_regular(r)
    for n in range(19):
        for p in enumerate_class(family, n):
            closed = Partition.from_multiplicities(glaisher._merge_end(p.runs, r))
            assert closed == glaisher_forward(p, r).end


def test_closed_form_table():
    assert merge_counts(2, 8) == [0, 0, 1, 1, 3, 3, 4, 4, 7]
    assert merge_counts(3, 9) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 4]
    assert merge_counts(5, 0) == [0]
    with pytest.raises(TooSmall):
        merge_counts(1, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        merge_counts(3, -1)


@given(class_regular_inputs())
def test_inverse_round_trip(data):
    r, p = data
    forward = glaisher_forward(p, r)
    back = glaisher_inverse(forward.end, r)
    assert back.end == p
    assert back.count == forward.count


@given(parts_lists, st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_confluence_random_orders(parts, r, seed):
    rng = random.Random(seed)
    end, steps = merge_fully(parts, r, rng.choice)
    trace = glaisher_forward(Partition(parts), r)
    assert trace.end.parts == end
    assert trace.count == steps


def test_bijection_small_sweep():
    for r in (2, 3):
        for n in range(13):
            cp = PartitionClass.class_regular(r)
            rp = PartitionClass.regular(r)
            images = [glaisher_forward(p, r).end for p in enumerate_class(cp, n)]
            assert all(is_member(mu, rp) for mu in images)
            assert len(set(images)) == len(images)
            assert len(images) == sum(1 for _ in enumerate_class(rp, n))


class TestFactorOut:
    def test_examples(self):
        assert factor_out(12, (3,)) == (3, 4)
        assert factor_out(45, (3, 5)) == (45, 1)
        assert factor_out(7, (3, 5)) == (1, 7)
        assert factor_out(8, (4,)) == (4, 2)

    def test_no_bases(self):
        assert factor_out(6, ()) == (1, 6)

    def test_accepts_modulus_tuple(self):
        assert factor_out(12, validate_tuple((2, 3))) == (12, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor_out(0, (3,))

    @given(st.integers(min_value=1, max_value=10**6), st.sampled_from([(3,), (2, 3), (3, 5), (2, 3, 7)]))
    def test_split_multiplies_back(self, value, bases):
        block, cofactor = factor_out(value, bases)
        assert block * cofactor == value
        assert all(cofactor % b != 0 for b in bases)
        # block factors entirely over the bases
        rest = block
        for b in bases:
            while rest % b == 0:
                rest //= b
        assert rest == 1


class TestInsertionMap:
    def test_insert_single_copy(self):
        mt = validate_tuple(2)
        image = insertion_map(mt, 1, BijectionTriple(Partition([1, 1, 1]), 1, 1))
        assert image == Partition([2, 1])

    def test_insert_every_copy(self):
        mt = validate_tuple(2)
        image = insertion_map(mt, 1, BijectionTriple(Partition([1] * 6), 1, 6))
        assert image == Partition([6])

    def test_pair_moduli_factorization(self):
        mt = validate_tuple((3, 5))
        image = insertion_map(mt, 1, BijectionTriple(Partition([2, 1, 1, 1]), 1, 3))
        assert image == Partition([3, 2])

    def test_residue_out_of_range(self):
        with pytest.raises(InvalidTriple):
            insertion_map(validate_tuple(3), 0, BijectionTriple(Partition([1]), 1, 1))
        with pytest.raises(InvalidTriple):
            insertion_map(validate_tuple(3), 3, BijectionTriple(Partition([1]), 1, 1))

    def test_part_with_wrong_residue(self):
        with pytest.raises(InvalidTriple):
            insertion_map(validate_tuple(3), 1, BijectionTriple(Partition([2, 1]), 2, 1))

    def test_too_many_copies(self):
        with pytest.raises(InvalidTriple):
            insertion_map(validate_tuple(3), 1, BijectionTriple(Partition([4, 1]), 1, 2))

    def test_source_must_be_class_regular(self):
        with pytest.raises(InvalidTriple):
            insertion_map(validate_tuple((3, 5)), 1, BijectionTriple(Partition([5, 1]), 1, 1))

    @given(st.sampled_from([(2,), (3,), (2, 3), (3, 4)]), st.integers(min_value=0, max_value=10))
    def test_preserves_size(self, raw, n):
        mt = validate_tuple(raw)
        family = PartitionClass.class_regular(mt)
        for lam in enumerate_class(family, n):
            for part, mult in lam.runs:
                residue = part % mt.head
                if residue == 0:
                    continue
                for copies in range(1, mult + 1):
                    image = insertion_map(mt, residue, BijectionTriple(lam, part, copies))
                    assert image.size == n


def _oracle_image(parts, moduli, part, copies):
    # the insertion map from its definition: remove the marked copies, merge
    # the rest in any order, insert (cofactor)^(part * block)
    rest = list(parts)
    for _ in range(copies):
        rest.remove(part)
    merged, _ = merge_fully(rest, moduli[0], min)
    block, cofactor = 1, copies
    for base in moduli[1:]:
        while cofactor % base == 0:
            cofactor //= base
            block *= base
    return tuple(sorted(merged + (cofactor,) * (part * block), reverse=True))


def _oracle_marked(moduli, n):
    # every marked class-regular partition of n: (parts, part, copies)
    for parts in partitions_desc(n):
        if in_class_regular(parts, moduli):
            for part in sorted(set(parts)):
                for copies in range(1, parts.count(part) + 1):
                    yield parts, part, copies


class TestInsertionOracle:
    @pytest.mark.parametrize("raw", [(2,), (3,), (5,), (2, 3), (3, 4), (3, 5), (3, 7)])
    def test_every_marked_partition(self, raw):
        mt = validate_tuple(raw)
        for n in range(15):
            for parts, part, copies in _oracle_marked(raw, n):
                triple = BijectionTriple(Partition(parts), part, copies)
                image = insertion_map(mt, part % raw[0], triple)
                assert image.parts == _oracle_image(parts, raw, part, copies)

    def test_census_outside_the_hypothesis(self):
        # (3, 5) fails the hypothesis, so no query checks its preimage counts
        raw = (3, 5)
        mt = validate_tuple(raw)
        assert not mt.tail_congruent
        for n in range(13):
            for residue in (1, 2):
                expected = {}
                for parts, part, copies in _oracle_marked(raw, n):
                    if part % 3 == residue:
                        image = Partition(_oracle_image(parts, raw, part, copies))
                        triple = BijectionTriple(Partition(parts), part, copies)
                        expected.setdefault(image, set()).add(triple)
                census = glaisher._image_census(mt, residue, n)
                assert census == {mu.runs: frozenset(t) for mu, t in expected.items()}


class TestInsertionPreimages:
    def test_unique_preimage_of_single_part(self):
        mt = validate_tuple(3)
        found = insertion_preimages(mt, 1, 7, Partition([7]))
        assert found == frozenset({BijectionTriple(Partition([1] * 7), 1, 7)})

    def test_inferior_target_has_one(self):
        found = insertion_preimages(validate_tuple(3), 1, 7, Partition([2, 2, 2, 1]))
        assert len(found) == 1

    def test_outside_image(self):
        assert insertion_preimages(validate_tuple(3), 2, 7, Partition([4, 3])) == frozenset()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            insertion_preimages(validate_tuple(3), 1, 6, Partition([4, 3]))

    def test_accepts_a_bare_modulus(self):
        for mu in enumerate_class(PartitionClass.all_partitions(), 7):
            assert insertion_preimages(3, 1, 7, mu) == insertion_preimages(
                validate_tuple(3), 1, 7, mu
            )
        triple = BijectionTriple(Partition([4, 1, 1]), 1, 2)
        assert insertion_map(3, 1, triple) == insertion_map(validate_tuple(3), 1, triple)

    def test_census_total_is_the_congruent_part_count(self):
        # each preimage pins one run of one class-regular partition, so the
        # census total over all targets equals the aggregated X statistic
        mt = validate_tuple(3)
        for residue, expected in ((1, 25), (2, 10)):
            total = sum(
                len(insertion_preimages(mt, residue, 7, mu))
                for mu in enumerate_class(PartitionClass.all_partitions(), 7)
            )
            assert total == expected

    def test_trichotomy_under_the_hypothesis(self):
        mt = validate_tuple((2, 3))
        regular = PartitionClass.regular(mt)
        inferior = PartitionClass.inferior_regular(mt)
        for mu in enumerate_class(PartitionClass.all_partitions(), 6):
            got = len(insertion_preimages(mt, 1, 6, mu))
            if is_member(mu, regular):
                assert got == count_repeated_sizes(mu, mt.head, 1)
            elif is_member(mu, inferior):
                assert got == 1
            else:
                assert got == 0

    def test_single_part_at_a_size_no_census_reaches(self):
        found = insertion_preimages(3, 1, 200, Partition([1] * 200))
        assert found == {BijectionTriple(Partition([199, 1]), 199, 1)}

    @pytest.mark.parametrize("raw", [3, (2, 3), (3, 7)])
    def test_sampled_targets_up_to_sixty(self, raw):
        # seeded targets of two kinds: images of random marked class-regular
        # partitions, and random partitions, mostly outside the image. The
        # count is predicted from membership and the repeated-size statistic.
        mt = validate_tuple(raw)
        regular, inferior = PartitionClass.regular(mt), PartitionClass.inferior_regular(mt)
        rng = random.Random(20261018)
        for _ in range(150):
            n = rng.randint(1, 60)
            j = rng.randint(1, mt.head - 1)
            parts = _random_parts(rng, n, mt.moduli)
            if any(part % mt.head == j for part in parts):
                part = rng.choice([p for p in parts if p % mt.head == j])
                marked = BijectionTriple(Partition(parts), part, rng.randint(1, parts.count(part)))
                targets = [insertion_map(mt, j, marked), Partition(_random_parts(rng, n, ()))]
            else:
                marked, targets = None, [Partition(_random_parts(rng, n, ()))]
            for mu in targets:
                found = insertion_preimages(mt, j, n, mu)
                for triple in found:
                    assert insertion_map(mt, j, triple) == mu
                if is_member(mu, regular):
                    assert len(found) == count_repeated_sizes(mu, mt.head, j)
                else:
                    assert len(found) == int(is_member(mu, inferior))
            if marked is not None:
                assert marked in insertion_preimages(mt, j, n, targets[0])

    def test_preimages_are_valid_and_map_back(self):
        mt = validate_tuple((3, 4))
        for mu in enumerate_class(PartitionClass.all_partitions(), 8):
            for triple in insertion_preimages(mt, 1, 8, mu):
                assert insertion_map(mt, 1, triple) == mu
                assert triple.part % mt.head == 1
                assert 1 <= triple.copies <= triple.partition.multiplicity(triple.part)


def _random_parts(rng, n, moduli):
    # a seeded random partition of n with no part divisible by a modulus;
    # the part bound is redrawn at each step so that runs repeat
    parts = []
    while n:
        part = rng.randint(1, max(1, n // rng.randint(1, 8)))
        if all(part % r for r in moduli):
            parts.append(part)
            n -= part
    return parts


_WRONG_INVERSE = """
import sys
from regpart import Partition, PreimageCountMismatch, glaisher, validate_tuple
glaisher._undo_insertion = lambda runs, moduli, residue: frozenset()
try:
    glaisher.insertion_preimages(validate_tuple(3), 1, 7, Partition([7]))
except PreimageCountMismatch:
    print("optimize", sys.flags.optimize, "raised")
"""


class TestPreimageCountCheck:
    def test_wrong_census_raises(self, monkeypatch):
        # the single-part target has exactly one preimage; an inverse that
        # finds none breaks the counting identity
        monkeypatch.setattr(glaisher, "_undo_insertion", lambda runs, moduli, residue: frozenset())
        with pytest.raises(PreimageCountMismatch):
            insertion_preimages(validate_tuple(3), 1, 7, Partition([7]))

    def test_mismatch_is_not_a_user_error(self):
        assert issubclass(PreimageCountMismatch, RuntimeError)
        assert not issubclass(PreimageCountMismatch, ValueError)

    def test_check_survives_optimized_interpreter(self):
        src = os.path.dirname(os.path.dirname(glaisher.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-O", "-c", _WRONG_INVERSE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.split() == ["optimize", "1", "raised"]


def _queries(raws, top):
    everything = PartitionClass.all_partitions()
    return [
        (mt, j, n, mu)
        for mt in map(validate_tuple, raws)
        for j in range(1, mt.head)
        for n in range(top + 1)
        for mu in enumerate_class(everything, n)
    ]


def _patched_census(monkeypatch, raw, residue, n, edit):
    # the true census of (raw, residue, n) after edit(table), injected
    table = dict(glaisher._image_census(validate_tuple(raw), residue, n))
    edit(table)
    monkeypatch.setattr(glaisher, "_image_census", lambda moduli, residue, n: table)


class TestWholeCensusCheck:
    def test_missing_unqueried_target_raises(self, monkeypatch):
        # (4 2 1) is regular with three preimages; nothing queries it
        target = ((4, 1), (2, 1), (1, 1))
        _patched_census(monkeypatch, 3, 1, 7, lambda table: table.pop(target))
        with pytest.raises(PreimageCountMismatch):
            PreimageCensus(3, 1, 7)

    def test_image_outside_both_families_raises(self, monkeypatch):
        # (2^3 1^3) has two sizes with multiplicity at least 3
        stray = ((2, 3), (1, 3))
        triple = BijectionTriple(Partition([1] * 9), 1, 9)

        def add(table):
            assert stray not in table
            table[stray] = frozenset({triple})

        _patched_census(monkeypatch, 3, 1, 9, add)
        with pytest.raises(PreimageCountMismatch):
            PreimageCensus(3, 1, 9)

    def test_extra_triple_on_a_regular_target_raises(self, monkeypatch):
        target = ((7, 1),)
        extra = BijectionTriple(Partition([4, 2, 1]), 1, 1)

        def add(table):
            assert len(table[target]) == 1
            table[target] = table[target] | {extra}

        _patched_census(monkeypatch, 3, 1, 7, add)
        with pytest.raises(PreimageCountMismatch):
            PreimageCensus(3, 1, 7)

    def test_census_outside_the_hypothesis_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(glaisher, "_image_census", lambda moduli, residue, n: {})
        assert PreimageCensus((3, 5), 1, 7).preimages(Partition([7])) == frozenset()
        with pytest.raises(PreimageCountMismatch):
            PreimageCensus((3, 4), 1, 7)

    @pytest.mark.parametrize("raw", [3, (2, 3), (3, 4), (3, 5), (5, 3), (4, 5), (2, 3, 5)])
    def test_agrees_with_insertion_preimages(self, raw):
        # the closed-form inverse against the exhaustive census, on every target
        censuses = {}
        for mt, j, n, mu in _queries([raw], 16):
            if (j, n) not in censuses:
                censuses[j, n] = PreimageCensus(mt, j, n)
            assert censuses[j, n].preimages(mu) == insertion_preimages(mt, j, n, mu)


class TestCensusCache:
    def test_rejects_bad_residue_and_size(self):
        mt = validate_tuple(3)
        for residue in (0, mt.head):
            with pytest.raises(InvalidTriple):
                insertion_preimages(mt, residue, 4, Partition([4]))
            with pytest.raises(InvalidTriple):
                PreimageCensus(mt, residue, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            insertion_preimages(mt, 1, -1, Partition())
        insertion_preimages(mt, 1, 1, Partition([1]))
        with pytest.raises(ValueError, match="nonnegative"):  # True == 1, but not an int
            insertion_preimages(mt, 1, True, Partition([1]))
        with pytest.raises(ValueError, match="nonnegative"):
            PreimageCensus(mt, 1, -1)
        with pytest.raises(ValueError, match="expected 7"):
            PreimageCensus(mt, 1, 7).preimages(Partition([4, 2]))
