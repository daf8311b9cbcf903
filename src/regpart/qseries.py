"""Exact truncated power series: the family generating functions.

All coefficients are Python integers, so every identity checked here is
exact. ``gf_class`` is the one way to build a series, and it returns a
read-only ``TruncatedSeries`` that knows its coefficients up to a
truncation degree. The family generating functions are built in place from
sparse Euler products: by the pentagonal number theorem E(s) = prod
(1 - q^(sk)) has O(sqrt(N / s)) terms below N, and the product of
1 / (1 - q^k) over the k no modulus divides is a quotient of one E per
subset of the moduli. Multiplying or dividing by each E costs O(N^1.5), so
a family over m moduli costs about 2^m * N^1.5 coefficient steps instead
of the N^2 of one dense pass per factor; that dense product is a test
oracle. The inferior-regular family applies the same quotient to a tail of
divisor counts. ``stats.verify_series_vs_enumeration`` compares each series
coefficient by coefficient with direct enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations
from math import prod
from operator import add, sub

from .classes import ALL, INFERIOR_REGULAR, PartitionClass
from .partition import _check_int, _Value

__all__ = ["TruncatedSeries", "gf_class"]


class TruncatedSeries(_Value):
    """The integer coefficients of a power series, exact up to a truncation.

    A read-only, validated record: coefficients beyond the truncation degree
    are unknown rather than zero, and asking for one raises IndexError.
    """

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        values = tuple(coefficients)
        if not values:
            raise ValueError("need at least the constant coefficient")
        for c in values:
            _check_int(c, None, "coefficient")
        self._fill(values)

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, degree: int) -> int:
        _check_int(degree, None, "degree")
        if not 0 <= degree <= self.truncation:
            raise IndexError(
                f"coefficient {degree} outside the known range 0..{self.truncation}"
            )
        return self.coefficients[degree]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)!r})"


def _pentagonal(step: int, n: int) -> Iterator[tuple[int, int]]:
    # The (exponent, sign) terms of E(step) = prod over k >= 1 of
    # (1 - q^(step * k)) up to degree n, by Euler's pentagonal number
    # theorem: the sum over all integers j of (-1)^j q^(step * j(3j - 1)/2).
    # Taking j = 0, 1, -1, 2, -2, ... yields the exponents in rising order.
    j = 0
    while (exponent := step * (j * (3 * j - 1) // 2)) <= n:
        yield exponent, -1 if j % 2 else 1
        j = -j if j > 0 else 1 - j


def _euler_quotient(coeffs: list[int], moduli: tuple[int, ...]) -> list[int]:
    # Multiplies coeffs in place by F, the product of E(prod S) over the odd
    # subsets S of the moduli divided by the product over the even ones (the
    # empty subset gives 1 / E(1)). The moduli are pairwise coprime, so
    # prod S is the lcm of S, and F is the product of 1 / (1 - q^k) over the
    # k that no modulus divides. Each E(s) has O(sqrt(n / s)) terms.
    n = len(coeffs) - 1
    for size in range(len(moduli) + 1):
        for subset in combinations(moduli, size):
            terms = list(_pentagonal(prod(subset), n))[1:]
            if size % 2:
                source = coeffs[:]
                for e, sign in terms:
                    coeffs[e:] = map(add if sign > 0 else sub, coeffs[e:], source)
                continue
            # forward substitution: E(s) has constant term 1, so
            # c[d] -= sum of sign * c[d - e] over its other terms, in rising d
            plus = [e for e, sign in terms if sign > 0]
            minus = [e for e, sign in terms if sign < 0]
            for d in range(1, n + 1):
                acc = coeffs[d]
                for e in minus:
                    if e > d:
                        break
                    acc += coeffs[d - e]
                for e in plus:
                    if e > d:
                        break
                    acc -= coeffs[d - e]
                coeffs[d] = acc
    return coeffs


def gf_class(family: PartitionClass, truncation: int) -> TruncatedSeries:
    """Generating function of the family, truncated.

    Coefficient d counts the members of total size d. The regular and
    class-regular families of the same tuple share one closed form, the
    product of 1 / (1 - q^k) over the k that no modulus divides; ``all``
    takes the product over every k. The inferior-regular family multiplies
    that product by the tail of q^(head * k) / (1 - q^(head * k)) over the
    k that no non-leading modulus divides: its coefficient at d counts those
    k with head * k dividing d, and equals the total number of merge
    operations over the class-regular family at size d. The product is
    built as a quotient of sparse Euler products, one per subset of the
    moduli, in about 2^m * N^1.5 steps for m moduli and truncation N.
    """
    _check_int(truncation, 0, "truncation")
    if family.kind != INFERIOR_REGULAR:
        forbidden = () if family.kind == ALL else tuple(family.moduli)
        return TruncatedSeries(_euler_quotient([1] + [0] * truncation, forbidden))
    moduli = family.moduli
    tail = [0] * (truncation + 1)
    for k in range(1, truncation // moduli.head + 1):
        if all(k % t for t in moduli.tail):
            for d in range(moduli.head * k, truncation + 1, moduli.head * k):
                tail[d] += 1
    return TruncatedSeries(_euler_quotient(tail, tuple(moduli)))
