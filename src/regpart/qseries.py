"""Exact truncated power series and the family generating functions.

All coefficients are Python integers, so every identity checked here is
exact: a truncated series knows itself up to some degree and any arithmetic
result is truncated to the smallest degree among its inputs. The family
generating functions are built in place from sparse Euler products: by the
pentagonal number theorem E(s) = prod (1 - q^(sk)) has O(sqrt(N / s))
terms below N, and the product of 1 / (1 - q^k) over the k no modulus
divides is a quotient of one E per subset of the moduli. Multiplying or
dividing by each E costs O(N^1.5), so a family over m moduli costs about
2^m * N^1.5 coefficient steps instead of the N^2 of one dense pass per
factor; that dense product is now a test oracle. The inferior-regular
family applies the same quotient to a tail of divisor counts. This module
only builds series;
``verify_series_vs_enumeration`` checks them coefficient by coefficient
against direct enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations
from math import prod
from operator import add, sub

from .classes import ALL, INFERIOR_REGULAR, ModulusTuple, PartitionClass, validate_tuple
from .partition import _check_int

__all__ = [
    "NonInvertible", "TruncatedSeries", "euler_product", "geometric_tail", "gf_class",
    "gf_tuple_inferior",
]


class NonInvertible(ValueError):
    """Inversion is exact over the integers only for constant term 1 or -1."""


class TruncatedSeries:
    """A power series with integer coefficients, exact up to a truncation.

    Coefficients beyond the truncation degree are unknown rather than zero;
    asking for one raises IndexError, and arithmetic truncates to the
    smaller window of its operands.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int]):
        values = tuple(coefficients)
        if not values:
            raise ValueError("need at least the constant coefficient")
        for c in values:
            _check_int(c, None, "coefficient")
        self._coeffs = values

    @classmethod
    def zero(cls, truncation: int) -> TruncatedSeries:
        _check_int(truncation, 0, "truncation")
        return cls([0] * (truncation + 1))

    @classmethod
    def one(cls, truncation: int) -> TruncatedSeries:
        _check_int(truncation, 0, "truncation")
        return cls([1] + [0] * truncation)

    @property
    def truncation(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, degree: int) -> int:
        _check_int(degree, None, "degree")
        if not 0 <= degree <= self.truncation:
            raise IndexError(
                f"coefficient {degree} outside the known range 0..{self.truncation}"
            )
        return self._coeffs[degree]

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [self._coeffs[d] + other._coeffs[d] for d in range(n + 1)]
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        out = [0] * (n + 1)
        for i, a in enumerate(self._coeffs[:n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def invert(self) -> TruncatedSeries:
        """The multiplicative inverse within the same truncation window.

        Needs constant term 1 or -1, the units of the integers; anything
        else raises NonInvertible.
        """
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise NonInvertible(f"constant term {c0} is not 1 or -1")
        n = self.truncation
        out = [0] * (n + 1)
        out[0] = c0
        for d in range(1, n + 1):
            acc = 0
            for k in range(1, d + 1):
                a = self._coeffs[k]
                if a:
                    acc += a * out[d - k]
            out[d] = -c0 * acc
        return TruncatedSeries(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"


def euler_product(step: int, truncation: int) -> TruncatedSeries:
    """The product of (1 - q^(step * k)) over all k >= 1, truncated.

    Written in closed form by Euler's pentagonal number theorem: the only
    nonzero coefficients are the signs at the pentagonal exponents.
    """
    _check_int(step, 1, "step")
    _check_int(truncation, 0, "truncation")
    coeffs = [0] * (truncation + 1)
    for exponent, sign in _pentagonal(step, truncation):
        coeffs[exponent] = sign
    return TruncatedSeries(coeffs)


def geometric_tail(base: int, truncation: int) -> TruncatedSeries:
    """q^base / (1 - q^base): one for every positive multiple of the base."""
    _check_int(base, 1, "base")
    _check_int(truncation, 0, "truncation")
    coeffs = [0] * (truncation + 1)
    for d in range(base, truncation + 1, base):
        coeffs[d] = 1
    return TruncatedSeries(coeffs)


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
    takes the product over every k. The product is built as a quotient of
    sparse Euler products, one per subset of the moduli, in about
    2^m * N^1.5 steps for m moduli and truncation N. The inferior-regular
    coefficients also equal the total number of merge operations over the
    class-regular family at each size.
    """
    _check_int(truncation, 0, "truncation")
    if family.kind == INFERIOR_REGULAR:
        return gf_tuple_inferior(family.moduli, truncation)
    forbidden = () if family.kind == ALL else tuple(family.moduli)
    return TruncatedSeries(_euler_quotient([1] + [0] * truncation, forbidden))


def gf_tuple_inferior(moduli: ModulusTuple | int, truncation: int) -> TruncatedSeries:
    """Inferior-regular generating function from its divisor-count tail.

    Takes a tuple or a single modulus, validated as ``PartitionClass`` does.
    The family's product form multiplies the tail of
    q^(head * k) / (1 - q^(head * k)) over the k that no non-leading modulus
    divides: its coefficient at d counts those k with head * k dividing d.
    The product is applied as the same quotient of sparse Euler products
    ``gf_class`` uses, in about 2^m * N^1.5 steps.
    """
    _check_int(truncation, 0, "truncation")
    moduli = validate_tuple(moduli)
    tail = [0] * (truncation + 1)
    for k in range(1, truncation // moduli.head + 1):
        if all(k % t for t in moduli.tail):
            for d in range(moduli.head * k, truncation + 1, moduli.head * k):
                tail[d] += 1
    return TruncatedSeries(_euler_quotient(tail, tuple(moduli)))
