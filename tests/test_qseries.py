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
    NotCoprime,
    PartitionClass,
    REGULAR,
    TruncatedSeries,
    count_class,
    gf_class,
    validate_tuple,
    verify_series_vs_enumeration,
)
from regpart.qseries import _pentagonal

# one modulus, pairs, triples and a quadruple, including a non-prime head
WITNESS_TUPLES = [2, 3, 4, 5, (2, 3), (3, 4), (3, 5), (3, 7), (2, 3, 7), (2, 3, 5, 7), (4, 3, 5, 7)]


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

    def test_equality_and_hash(self):
        assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))

    def test_repr(self):
        assert repr(TruncatedSeries([1, -1])) == "TruncatedSeries([1, -1])"


def _euler_coefficients(step, n):
    # E(step) up to degree n, written out from the pentagonal terms alone
    coeffs = [0] * (n + 1)
    for exponent, sign in _pentagonal(step, n):
        coeffs[exponent] += sign
    return coeffs


class TestEulerProduct:
    def test_pentagonal_start(self):
        assert _euler_coefficients(1, 5) == [1, -1, -1, 0, 0, 1]

    def test_pentagonal_theorem(self):
        assert _euler_coefficients(1, 30) == pentagonal_coefficients(30)

    def test_beyond_truncation(self):
        assert _euler_coefficients(7, 5) == [1, 0, 0, 0, 0, 0]

    def test_partition_counts_from_inverse(self):
        inverse = naive_inverse(_euler_coefficients(1, 12), 12)
        assert inverse == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


class TestEulerClosedForm:
    @pytest.mark.parametrize("step", range(1, 8))
    def test_pentagonal_coefficients_on_the_multiples_of_the_step(self, step):
        for n in range(301):
            expected = [0] * (n + 1)
            expected[::step] = pentagonal_coefficients(n // step)
            assert _euler_coefficients(step, n) == expected
            # the quotient stops at the first exponent above the degree
            exponents = [exponent for exponent, _ in _pentagonal(step, n)]
            assert exponents == sorted(exponents)


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


def _inferior(raw, trunc):
    return gf_class(PartitionClass.inferior_regular(raw), trunc)


class TestTupleInferior:
    def test_pair_golden_coefficient(self):
        assert _inferior((3, 5), 5)[5] == 2

    def test_frozen_rows(self):
        assert _inferior((3, 5), 10).coefficients == (0, 0, 0, 1, 1, 2, 4, 6, 8, 12, 17)
        assert _inferior((2, 3), 10).coefficients == (0, 0, 1, 1, 3, 3, 4, 5, 8, 11, 13)

    def test_bare_int_is_a_single_modulus(self):
        assert _inferior(3, 10) == _inferior((3,), 10)
        assert _inferior(3, 10).coefficients == (0, 0, 0, 1, 1, 2, 4, 6, 9, 13, 19)

    def test_tuple_is_validated(self):
        with pytest.raises(NotCoprime):
            PartitionClass.inferior_regular((2, 4))

    def test_counts_inferior_members_brute_force(self):
        for raw in ((2, 3), (3, 5)):
            mt = validate_tuple(raw)
            series = _inferior(mt, 10)
            for n in range(11):
                expected = sum(
                    1
                    for q in partitions_desc(n)
                    if in_inferior(q, mt.head, mt.tail)
                )
                assert series[n] == expected


def _tail_sum(bases, trunc):
    # the sum of q^b / (1 - q^b) over the bases: at degree d >= 1 it counts
    # the bases that divide d
    return [0] + [sum(1 for b in bases if d % b == 0) for d in range(1, trunc + 1)]


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
            total = [0] * (trunc + 1)
            for size in range(len(mt.tail) + 1):
                for combo in combinations(mt.tail, size):
                    block = mt.head * prod(combo)
                    inner = _tail_sum(
                        [block * k for k in range(1, trunc // block + 1)], trunc
                    )
                    sign = -1 if size % 2 else 1
                    total = [t + sign * c for t, c in zip(total, inner)]
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
        _, _, check, _ = verify_series_vs_enumeration(2, 20)
        assert check.family == PartitionClass.regular(2)
        assert check.ok
        assert check.count_mismatch is None
        assert check.operations_mismatch is None
        assert check.regular_counts_differ_at is None

    def test_inferior_family(self):
        *_, check = verify_series_vs_enumeration(3, 10)
        assert check.family == PartitionClass.inferior_regular(3)
        assert check.ok
        assert check.series[7] == 6
        assert check.operations_mismatch is None

    def test_all_family(self):
        check, *_ = verify_series_vs_enumeration(3, 10)
        assert check.family == PartitionClass.all_partitions()
        assert check.ok

    def test_inferior_records_departure_from_regular_counts(self):
        # always degree 0: the regular family holds the empty partition and
        # the inferior-regular family does not
        for raw in (2, 3, (2, 3), (3, 7)):
            *_, check = verify_series_vs_enumeration(raw, 10)
            assert check.family == PartitionClass.inferior_regular(raw)
            assert check.ok
            assert check.regular_counts_differ_at == 0
        # the streams diverge past degree 0 too: at size 3 the inferior
        # family of 2 has one member but the regular family two
        assert gf_class(PartitionClass.inferior_regular(2), 3)[3] == 1
        assert count_class(PartitionClass.regular(2), 3) == 2


def _spread(coeffs, step, trunc):
    # f(q^step) up to q^trunc
    out = [0] * (trunc + 1)
    out[::step] = coeffs[: trunc // step + 1]
    return out


def _subset_inclusion_exclusion(family, trunc):
    # The generating functions rebuilt over integer lists: per subset of the
    # moduli an Euler product at the subset's product, direct for odd
    # subsets and inverted for even ones, and for the inferior family a sum
    # of geometric tails with alternating signs. E(s) is the oracle's
    # pentagonal coefficients spread to step s, and 1 / E(s) the inverted
    # E(1) spread the same way. It shares the subset quotient with gf_class
    # but neither its pentagonal rule nor its sparse in-place arithmetic;
    # _dense_witness below shares neither.
    euler = pentagonal_coefficients(trunc)
    # E(1) has constant term 1, so its inverse is integral
    inverse = [int(c) for c in naive_inverse(euler, trunc)]
    if family.kind == ALL:
        return inverse
    mt = family.moduli
    series = [1] + [0] * trunc
    for size in range(len(mt) + 1):
        for combo in combinations(mt, size):
            factor = _spread(inverse if size % 2 == 0 else euler, prod(combo), trunc)
            series = naive_mul(series, factor, trunc)
    if family.kind != INFERIOR_REGULAR:
        return series
    tails = [0] * (trunc + 1)
    for size in range(len(mt.tail) + 1):
        for combo in combinations(mt.tail, size):
            block = mt.head * prod(combo)
            inner = _tail_sum([block * k for k in range(1, trunc // block + 1)], trunc)
            sign = -1 if size % 2 else 1
            tails = [t + sign * c for t, c in zip(tails, inner)]
    return naive_mul(series, tails, trunc)


class TestSecondWitness:
    TRUNC = 120

    def test_all_matches_inverted_euler_product(self):
        family = PartitionClass.all_partitions()
        got = gf_class(family, self.TRUNC).coefficients
        assert list(got) == _subset_inclusion_exclusion(family, self.TRUNC)

    @pytest.mark.parametrize("raw", WITNESS_TUPLES)
    def test_families_match_subset_inclusion_exclusion(self, raw):
        for family in (
            PartitionClass.class_regular(raw),
            PartitionClass.regular(raw),
            PartitionClass.inferior_regular(raw),
        ):
            got = gf_class(family, self.TRUNC).coefficients
            expected = _subset_inclusion_exclusion(family, self.TRUNC)
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
    TRUNCS = (120, 420)

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
            for trunc in self.TRUNCS:
                got = list(gf_class(family, trunc).coefficients)
                assert got == _dense_witness(raw, family.kind, trunc), f"{family} at {trunc}"

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
