from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    factor_product,
    in_inferior,
    naive_inverse,
    naive_mul,
    partitions_desc,
    pentagonal_coefficients,
)
from regpart import (
    ALL,
    CLASS_REGULAR,
    INFERIOR_REGULAR,
    NonInvertible,
    NotCoprime,
    PartitionClass,
    REGULAR,
    TruncatedSeries,
    count_class,
    euler_product,
    geometric_tail,
    gf_class,
    gf_tuple_inferior,
    validate_tuple,
    verify_series_vs_enumeration,
)

# one modulus, pairs, triples and a quadruple, including a non-prime head
WITNESS_TUPLES = [2, 3, 4, 5, (2, 3), (3, 4), (3, 5), (3, 7), (2, 3, 7), (2, 3, 5, 7), (4, 3, 5, 7)]

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=16)
series_values = coeff_lists.map(TruncatedSeries)
invertible_values = st.tuples(st.sampled_from([1, -1]), coeff_lists).map(
    lambda pair: TruncatedSeries([pair[0], *pair[1]])
)


class TestSeriesBasics:
    def test_needs_a_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 0.5])
        with pytest.raises(ValueError):
            TruncatedSeries([True])

    def test_truncation_and_indexing(self):
        f = TruncatedSeries([3, 0, -2])
        assert f.truncation == 2
        assert f[0] == 3 and f[2] == -2
        with pytest.raises(IndexError):
            f[3]
        with pytest.raises(IndexError):
            f[-1]

    @pytest.mark.parametrize("degree", [True, 1.0])
    def test_index_must_be_an_integer(self, degree):
        with pytest.raises(ValueError, match="is not an integer"):
            TruncatedSeries([3, 0, -2])[degree]

    def test_constants(self):
        assert TruncatedSeries.zero(3).coefficients == (0, 0, 0, 0)
        assert TruncatedSeries.one(3).coefficients == (1, 0, 0, 0)

    def test_equality_and_hash(self):
        assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))

    def test_repr(self):
        assert repr(TruncatedSeries([1, -1])) == "TruncatedSeries([1, -1])"


class TestArithmetic:
    def test_add_sub(self):
        f = TruncatedSeries([1, 2, 3])
        g = TruncatedSeries([0, 1, -1])
        assert (f + g).coefficients == (1, 3, 2)
        assert (f - g).coefficients == (1, 1, 4)
        assert (-g).coefficients == (0, -1, 1)

    def test_mul(self):
        f = TruncatedSeries([1, -1, 0])
        g = TruncatedSeries([1, 1, 1])
        assert (f * g).coefficients == (1, 0, 0)

    def test_mixed_truncations_shrink(self):
        f = TruncatedSeries([1, 1, 1, 1])
        g = TruncatedSeries([1, 1])
        assert (f + g).truncation == 1
        assert (f - g).truncation == 1
        assert (f * g).truncation == 1

    def test_subtracting_a_non_series_raises(self):
        with pytest.raises(TypeError):
            TruncatedSeries([1, 1]) - 1

    @given(series_values, series_values)
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @given(series_values, series_values, series_values)
    def test_mul_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(series_values, series_values, series_values)
    def test_mul_distributes(self, f, g, h):
        n = min(f.truncation, g.truncation, h.truncation)
        lhs = f * (g + h)
        rhs = f * g + f * h
        assert lhs.coefficients[:n + 1] == rhs.coefficients[:n + 1]

    @given(series_values)
    def test_one_is_identity(self, f):
        assert f * TruncatedSeries.one(f.truncation) == f

    @given(series_values, series_values)
    def test_mul_matches_naive_convolution(self, f, g):
        n = min(f.truncation, g.truncation)
        assert list((f * g).coefficients) == naive_mul(f.coefficients, g.coefficients, n)


class TestInversion:
    def test_geometric(self):
        f = TruncatedSeries([1, -1, 0, 0, 0])
        assert f.invert().coefficients == (1, 1, 1, 1, 1)

    def test_negative_unit(self):
        f = TruncatedSeries([-1, 1])
        assert f.invert().coefficients == (-1, -1)
        assert f * f.invert() == TruncatedSeries.one(1)

    def test_rejects_other_constants(self):
        with pytest.raises(NonInvertible):
            TruncatedSeries([2, 1]).invert()
        with pytest.raises(NonInvertible):
            TruncatedSeries([0, 1]).invert()

    @given(invertible_values)
    def test_product_with_inverse_is_one(self, f):
        assert f * f.invert() == TruncatedSeries.one(f.truncation)

    @given(invertible_values)
    def test_involutive(self, f):
        assert f.invert().invert() == f

    @given(invertible_values)
    def test_matches_rational_solve(self, f):
        expected = naive_inverse(f.coefficients, f.truncation)
        got = f.invert()
        assert [Fraction(c) for c in got.coefficients] == expected


class TestEulerProduct:
    def test_pentagonal_start(self):
        assert euler_product(1, 5).coefficients == (1, -1, -1, 0, 0, 1)

    def test_pentagonal_theorem(self):
        assert list(euler_product(1, 30).coefficients) == pentagonal_coefficients(30)

    def test_beyond_truncation(self):
        assert euler_product(7, 5) == TruncatedSeries.one(5)

    def test_partition_counts_from_inverse(self):
        inverse = euler_product(1, 12).invert()
        assert inverse.coefficients == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_product(0, 5)
        with pytest.raises(ValueError):
            euler_product(2, -1)


class TestEulerClosedForm:
    @pytest.mark.parametrize("step", range(1, 8))
    def test_pentagonal_coefficients_on_the_multiples_of_the_step(self, step):
        for n in range(301):
            expected = [0] * (n + 1)
            expected[::step] = pentagonal_coefficients(n // step)
            assert list(euler_product(step, n).coefficients) == expected


class TestGeometricTail:
    def test_marks_multiples(self):
        assert geometric_tail(2, 9).coefficients == (0, 0, 1, 0, 1, 0, 1, 0, 1, 0)

    def test_beyond_truncation(self):
        assert geometric_tail(10, 5) == TruncatedSeries.zero(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_tail(0, 5)

    def test_agrees_with_series_quotient(self):
        base = 3
        f = TruncatedSeries([1 if d == base else 0 for d in range(12)])
        quotient = f * TruncatedSeries(
            [1 if d % base == 0 else 0 for d in range(12)]
        )
        # q^3 * (1 + q^3 + q^6 + ...) == the tail at 3
        assert quotient == geometric_tail(base, 11)


class TestClassGeneratingFunctions:
    def test_class_regular_golden_coefficient(self):
        series = gf_class(PartitionClass.class_regular(3), 10)
        assert series[7] == 9

    def test_inferior_golden_coefficient(self):
        series = gf_class(PartitionClass.inferior_regular(3), 10)
        assert series[7] == 6

    def test_pair_golden_coefficient(self):
        series = gf_class(PartitionClass.class_regular((3, 5)), 8)
        assert series[5] == 4

    def test_all_matches_partition_numbers(self):
        series = gf_class(PartitionClass.all_partitions(), 12)
        assert series.coefficients == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)

    def test_regular_and_class_regular_share_the_closed_form(self):
        for raw in ((2,), (3,), (2, 3), (3, 5)):
            assert gf_class(PartitionClass.regular(raw), 20) == gf_class(
                PartitionClass.class_regular(raw), 20
            )

    @given(
        st.sampled_from([(2,), (3,), (5,), (2, 3), (3, 5)]),
        st.integers(min_value=0, max_value=12),
    )
    def test_coefficients_count_members(self, raw, n):
        family = PartitionClass.class_regular(raw)
        assert gf_class(family, 12)[n] == count_class(family, n)


class TestTupleInferior:
    def test_pair_golden_coefficient(self):
        assert gf_tuple_inferior(validate_tuple((3, 5)), 5)[5] == 2

    def test_frozen_rows(self):
        assert gf_tuple_inferior(validate_tuple((3, 5)), 10).coefficients == (
            0, 0, 0, 1, 1, 2, 4, 6, 8, 12, 17,
        )
        assert gf_tuple_inferior(validate_tuple((2, 3)), 10).coefficients == (
            0, 0, 1, 1, 3, 3, 4, 5, 8, 11, 13,
        )

    def test_single_modulus_reduction(self):
        for r in (2, 3, 4, 5):
            assert gf_tuple_inferior(validate_tuple(r), 20) == gf_class(
                PartitionClass.inferior_regular(r), 20
            )

    def test_bare_int_is_a_single_modulus(self):
        assert gf_tuple_inferior(3, 10) == gf_class(PartitionClass.inferior_regular(3), 10)

    def test_tuple_is_validated(self):
        with pytest.raises(NotCoprime):
            gf_tuple_inferior((2, 4), 10)

    def test_counts_inferior_members_brute_force(self):
        for raw in ((2, 3), (3, 5)):
            mt = validate_tuple(raw)
            series = gf_tuple_inferior(mt, 10)
            for n in range(11):
                expected = sum(
                    1
                    for q in partitions_desc(n)
                    if in_inferior(q, mt.head, mt.tail)
                )
                assert series[n] == expected


def _tail_sum(bases, trunc):
    total = TruncatedSeries.zero(trunc)
    for base in bases:
        total = total + geometric_tail(base, trunc)
    return total


class TestSeriesRewrites:
    def test_tail_sum_splits_by_modulus_valuation(self):
        # the tails at multiples of r regroup by the exact power of r
        # dividing the base: every multiple is r^i * k with k not divisible by r
        trunc = 40
        for r in (2, 3, 5):
            lhs = _tail_sum([r * k for k in range(1, trunc // r + 1)], trunc)
            rhs_bases = []
            power = r
            while power <= trunc:
                rhs_bases.extend(
                    power * k
                    for k in range(1, trunc // power + 1)
                    if k % r != 0
                )
                power *= r
            assert lhs == _tail_sum(rhs_bases, trunc)

    def test_subset_alternating_sum_collapses_to_coprime_multiples(self):
        # inclusion-exclusion over the tail moduli leaves exactly the
        # multiples of the head whose cofactor avoids every tail modulus
        trunc = 40
        for raw in ((2, 3), (3, 5), (2, 3, 7)):
            mt = validate_tuple(raw)
            total = TruncatedSeries.zero(trunc)
            for size in range(len(mt.tail) + 1):
                for combo in combinations(mt.tail, size):
                    block = mt.head * prod(combo)
                    inner = _tail_sum(
                        [block * k for k in range(1, trunc // block + 1)], trunc
                    )
                    total = total + inner if size % 2 == 0 else total - inner
            direct = _tail_sum(
                [
                    mt.head * k
                    for k in range(1, trunc // mt.head + 1)
                    if all(k % t != 0 for t in mt.tail)
                ],
                trunc,
            )
            assert total == direct


class TestVerification:
    def test_regular_pair_of_families(self):
        check = verify_series_vs_enumeration(PartitionClass.regular(2), 20)
        assert check.ok
        assert check.count_mismatch is None
        assert check.operations_mismatch is None
        assert check.regular_counts_differ_at is None

    def test_inferior_family(self):
        check = verify_series_vs_enumeration(PartitionClass.inferior_regular(3), 10)
        assert check.ok
        assert check.series[7] == 6
        assert check.operations_mismatch is None

    def test_all_family(self):
        check = verify_series_vs_enumeration(PartitionClass.all_partitions(), 10)
        assert check.ok

    def test_inferior_records_departure_from_regular_counts(self):
        # always degree 0: the regular family holds the empty partition and
        # the inferior-regular family does not
        for raw in (2, 3, (2, 3), (3, 7)):
            check = verify_series_vs_enumeration(PartitionClass.inferior_regular(raw), 10)
            assert check.ok
            assert check.regular_counts_differ_at == 0
        # the streams diverge past degree 0 too: at size 3 the inferior
        # family of 2 has one member but the regular family two
        assert gf_class(PartitionClass.inferior_regular(2), 3)[3] == 1
        assert count_class(PartitionClass.regular(2), 3) == 2


def _subset_inclusion_exclusion(family, trunc):
    # The generating functions rebuilt from public primitives alone: per
    # subset of the moduli an Euler product at the subset's product, direct
    # for odd subsets and inverted for even ones, and for the inferior
    # family a sum of geometric tails with alternating signs. It shares the
    # subset quotient and the pentagonal terms with gf_class but not its
    # sparse in-place arithmetic; _dense_witness below shares neither.
    if family.kind == ALL:
        return euler_product(1, trunc).invert()
    mt = family.moduli
    series = TruncatedSeries.one(trunc)
    for size in range(len(mt) + 1):
        for combo in combinations(mt, size):
            factor = euler_product(prod(combo), trunc)
            series = series * (factor if size % 2 else factor.invert())
    if family.kind != INFERIOR_REGULAR:
        return series
    tails = TruncatedSeries.zero(trunc)
    for size in range(len(mt.tail) + 1):
        for combo in combinations(mt.tail, size):
            block = mt.head * prod(combo)
            inner = _tail_sum([block * k for k in range(1, trunc // block + 1)], trunc)
            tails = tails - inner if size % 2 else tails + inner
    return series * tails


class TestSecondWitness:
    TRUNC = 120

    def test_all_matches_inverted_euler_product(self):
        family = PartitionClass.all_partitions()
        assert gf_class(family, self.TRUNC) == _subset_inclusion_exclusion(family, self.TRUNC)

    @pytest.mark.parametrize("raw", WITNESS_TUPLES)
    def test_families_match_subset_inclusion_exclusion(self, raw):
        for family in (
            PartitionClass.class_regular(raw),
            PartitionClass.regular(raw),
            PartitionClass.inferior_regular(raw),
        ):
            got = gf_class(family, self.TRUNC).coefficients
            expected = _subset_inclusion_exclusion(family, self.TRUNC).coefficients
            assert len(got) == self.TRUNC + 1
            for d, (a, b) in enumerate(zip(got, expected)):
                assert a == b, f"{family} differs at degree {d}"


def _dense_witness(raw, kind, trunc):
    # The family's series from the dense product form alone: the rising-pass
    # product over the k no modulus divides, applied for the inferior family
    # to the tail counting the k with head * k | d that no later modulus
    # divides. Reads nothing from the library.
    if kind == ALL:
        return factor_product(trunc)
    moduli = (raw,) if isinstance(raw, int) else raw
    if kind != INFERIOR_REGULAR:
        return factor_product(trunc, moduli)
    head, rest = moduli[0], moduli[1:]
    tail = [
        sum(
            1
            for k in range(1, d // head + 1)
            if d % (head * k) == 0 and all(k % t != 0 for t in rest)
        )
        for d in range(trunc + 1)
    ]
    return factor_product(trunc, moduli, tail)


class TestDenseWitness:
    TRUNC = 420

    def test_all_partitions(self):
        got = gf_class(PartitionClass.all_partitions(), 2000).coefficients
        assert list(got) == _dense_witness(None, ALL, 2000)

    @pytest.mark.parametrize("raw", WITNESS_TUPLES)
    def test_families(self, raw):
        for family in (
            PartitionClass.class_regular(raw),
            PartitionClass.regular(raw),
            PartitionClass.inferior_regular(raw),
        ):
            got = list(gf_class(family, self.TRUNC).coefficients)
            assert got == _dense_witness(raw, family.kind, self.TRUNC), str(family)

    @example(None, ALL, 0)
    @example((2, 3, 7), INFERIOR_REGULAR, 0)
    @example((2, 3, 7), CLASS_REGULAR, 1)
    @example((2, 3, 7), REGULAR, 41)
    @given(
        st.sampled_from(WITNESS_TUPLES),
        st.sampled_from([ALL, REGULAR, CLASS_REGULAR, INFERIOR_REGULAR]),
        st.integers(min_value=0, max_value=60),
    )
    def test_every_small_truncation(self, raw, kind, trunc):
        # covers trunc 0 and 1, and truncations below the first exponent of
        # a subset product's Euler factor, such as trunc < 42 for (2, 3, 7)
        family = PartitionClass(kind, None if kind == ALL else raw)
        got = list(gf_class(family, trunc).coefficients)
        assert got == _dense_witness(raw, kind, trunc)
