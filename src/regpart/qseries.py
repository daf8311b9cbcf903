"""Exact truncated power series and the family generating functions.

All coefficients are Python integers, so every identity checked here is
exact: a truncated series knows itself up to some degree and any arithmetic
result is truncated to the smallest degree among its inputs. The family
generating functions are built in place from sparse factors: one rising
pass per factor 1 / (1 - q^k), over the k no modulus divides, gives the
product forms, and the inferior-regular family multiplies them into a tail
of divisor counts. This module only builds series;
``verify_series_vs_enumeration`` checks them coefficient by coefficient
against direct enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .classes import ALL, INFERIOR_REGULAR, ModulusTuple, PartitionClass, validate_tuple
from .partition import _check_int


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

    Factors whose degree exceeds the truncation contribute nothing, so the
    product is finite.
    """
    _check_int(step, 1, "step")
    _check_int(truncation, 0, "truncation")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    for k in range(1, truncation // step + 1):
        a = step * k
        for d in range(truncation, a - 1, -1):
            coeffs[d] -= coeffs[d - a]
    return TruncatedSeries(coeffs)


def geometric_tail(base: int, truncation: int) -> TruncatedSeries:
    """q^base / (1 - q^base): one for every positive multiple of the base."""
    _check_int(base, 1, "base")
    _check_int(truncation, 0, "truncation")
    coeffs = [0] * (truncation + 1)
    for d in range(base, truncation + 1, base):
        coeffs[d] = 1
    return TruncatedSeries(coeffs)


def _factor_product(coeffs: list[int], forbidden: tuple[int, ...]) -> list[int]:
    # Multiplies coeffs in place by 1 / (1 - q^k) for every k >= 1 that no
    # forbidden modulus divides: one rising pass c[d] += c[d - k] per factor.
    n = len(coeffs) - 1
    for k in range(1, n + 1):
        if all(k % m for m in forbidden):
            for d in range(k, n + 1):
                coeffs[d] += coeffs[d - k]
    return coeffs


def gf_class(family: PartitionClass, truncation: int) -> TruncatedSeries:
    """Generating function of the family, truncated.

    Coefficient d counts the members of total size d. The regular and
    class-regular families of the same tuple share one closed form, the
    product of 1 / (1 - q^k) over the k that no modulus divides; ``all``
    takes the product over every k. The inferior-regular coefficients also
    equal the total number of merge operations over the class-regular
    family at each size.
    """
    _check_int(truncation, 0, "truncation")
    if family.kind == INFERIOR_REGULAR:
        return gf_tuple_inferior(family.moduli, truncation)
    forbidden = () if family.kind == ALL else tuple(family.moduli)
    return TruncatedSeries(_factor_product([1] + [0] * truncation, forbidden))


def gf_tuple_inferior(moduli: ModulusTuple | int, truncation: int) -> TruncatedSeries:
    """Inferior-regular generating function from its divisor-count tail.

    Takes a tuple or a single modulus, validated as ``PartitionClass`` does.
    The family's product form multiplies the tail of
    q^(head * k) / (1 - q^(head * k)) over the k that no non-leading modulus
    divides: its coefficient at d counts those k with head * k dividing d.
    """
    _check_int(truncation, 0, "truncation")
    moduli = validate_tuple(moduli)
    tail = [0] * (truncation + 1)
    for k in range(1, truncation // moduli.head + 1):
        if all(k % t for t in moduli.tail):
            for d in range(moduli.head * k, truncation + 1, moduli.head * k):
                tail[d] += 1
    return TruncatedSeries(_factor_product(tail, tuple(moduli)))


@dataclass(frozen=True)
class SeriesCheck:
    """Outcome of checking a family's series against direct enumeration.

    ``count_mismatch`` is the first degree where a coefficient fails to
    count the family, or None. For inferior-regular families two more
    streams are compared: ``operations_mismatch`` is the first degree where
    a coefficient differs from the summed merge-operation counts over the
    class-regular family, and ``regular_counts_differ_at`` is the first
    degree where the coefficients depart from the regular family's counts.
    That last one is always 0: the regular family holds the empty partition
    and the inferior-regular family does not.
    """

    family: PartitionClass
    truncation: int
    series: TruncatedSeries
    count_mismatch: int | None
    operations_mismatch: int | None
    regular_counts_differ_at: int | None

    @property
    def ok(self) -> bool:
        return self.count_mismatch is None and self.operations_mismatch is None

