"""Restricted partition families and their canonical enumeration.

Four kinds of family are supported, three of them relative to a tuple of
pairwise coprime moduli ``(r1, ..., rm)``:

* ``all``: every partition.
* ``class-regular``: no part divisible by any modulus in the tuple.
* ``regular``: every multiplicity below ``r1``, and no part divisible by any
  of the remaining moduli.
* ``inferior-regular``: exactly one part size with multiplicity at least
  ``r1``, and no part divisible by any of the remaining moduli.

Enumeration is in descending lexicographic order of the part sequences, so
``(7)`` comes first and ``(1, 1, ..., 1)`` last.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .partition import Partition, _check_int

__all__ = [
    "ALL", "CLASS_REGULAR", "INFERIOR_REGULAR", "REGULAR", "EmptyTuple", "ModulusTuple",
    "NotCoprime", "PartitionClass", "TooSmall", "count_class", "enumerate_class",
    "enumerate_runs", "is_member", "validate_tuple",
]


class EmptyTuple(ValueError):
    """A modulus tuple needs at least one entry."""


class TooSmall(ValueError):
    """Every modulus must be an integer of size at least 2."""


class NotCoprime(ValueError):
    """Two moduli in the tuple share a common factor."""


@dataclass(frozen=True)
class ModulusTuple:
    """An ordered tuple of pairwise coprime moduli, each at least 2.

    Order matters: the leading modulus bounds multiplicities in the regular
    families, while the remaining ones forbid divisible part sizes.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.moduli)
        object.__setattr__(self, "moduli", values)
        if not values:
            raise EmptyTuple("need at least one modulus")
        for r in values:
            _check_int(r, 2, "modulus", TooSmall)
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                if gcd(a, b) != 1:
                    raise NotCoprime(f"moduli {a} and {b} share a factor")

    @property
    def head(self) -> int:
        """The leading modulus."""
        return self.moduli[0]

    @property
    def tail(self) -> tuple[int, ...]:
        """The moduli after the leading one (possibly empty)."""
        return self.moduli[1:]

    @cached_property
    def tail_congruent(self) -> bool:
        """True when every tail modulus is congruent to 1 modulo the head.

        This is the hypothesis under which the preimage-counting identities
        for the insertion map hold; it is vacuously true for a single
        modulus.
        """
        return all(t % self.head == 1 for t in self.tail)

    def __iter__(self) -> Iterator[int]:
        return iter(self.moduli)

    def __len__(self) -> int:
        return len(self.moduli)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.moduli)


def validate_tuple(moduli: ModulusTuple | Iterable[int] | int) -> ModulusTuple:
    """Coerce one modulus or an iterable of moduli into a validated ModulusTuple."""
    if isinstance(moduli, ModulusTuple):
        return moduli
    if isinstance(moduli, (bytes, bytearray)) or not isinstance(moduli, Iterable):
        return ModulusTuple((moduli,))
    return ModulusTuple(tuple(moduli))


ALL = "all"
REGULAR = "regular"
CLASS_REGULAR = "class-regular"
INFERIOR_REGULAR = "inferior-regular"

_KINDS = (ALL, REGULAR, CLASS_REGULAR, INFERIOR_REGULAR)


@dataclass(frozen=True)
class PartitionClass:
    """One of the partition families, tagged with its moduli when restricted."""

    kind: str
    moduli: ModulusTuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown partition class kind {self.kind!r}")
        if (self.moduli is None) != (self.kind == ALL):
            raise ValueError("moduli must be given exactly for the restricted kinds")
        if self.moduli is not None and not isinstance(self.moduli, ModulusTuple):
            object.__setattr__(self, "moduli", validate_tuple(self.moduli))

    @classmethod
    def all_partitions(cls) -> PartitionClass:
        return cls(ALL)

    @classmethod
    def regular(cls, moduli) -> PartitionClass:
        return cls(REGULAR, moduli)

    @classmethod
    def class_regular(cls, moduli) -> PartitionClass:
        return cls(CLASS_REGULAR, moduli)

    @classmethod
    def inferior_regular(cls, moduli) -> PartitionClass:
        return cls(INFERIOR_REGULAR, moduli)

    def __contains__(self, partition: Partition) -> bool:
        return is_member(partition, self)

    def __str__(self) -> str:
        if self.kind == ALL:
            return ALL
        return f"{self.kind}({self.moduli})"


def _shape(family: PartitionClass):
    # The family definition as (forbidden divisors, multiplicity cap or None,
    # heavy threshold): a nonzero threshold asks for exactly one run of at
    # least that multiplicity.
    kind, mt = family.kind, family.moduli
    if kind == ALL:
        return (), None, 0
    if kind == CLASS_REGULAR:
        return mt.moduli, None, 0
    if kind == REGULAR:
        return mt.tail, mt.head - 1, 0
    return mt.tail, None, mt.head


def is_member(partition: Partition, family: PartitionClass) -> bool:
    """Membership test against the family definition."""
    divisors, cap, heavy = _shape(family)
    if divisors and any(part % d == 0 for part, _ in partition.runs for d in divisors):
        return False
    if cap is not None and any(mult > cap for _, mult in partition.runs):
        return False
    return not heavy or sum(1 for _, mult in partition.runs if mult >= heavy) == 1


def _run_tuples(n, divisors, cap, heavy):
    # Partitions of n avoiding the divisors, as run tuples in descending lex
    # order, with multiplicities at most cap; a nonzero heavy asks for exactly
    # one run of multiplicity >= heavy and keeps the others below it. Fills
    # greedily, then backtracks by decrementing the last multiplicity.
    # per v: the largest allowed part <= v, and the sum of all allowed parts <= v
    largest, room = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        allowed = all(v % d for d in divisors)
        largest[v] = v if allowed else largest[v - 1]
        room[v] = room[v - 1] + (v if allowed else 0)
    runs = []
    rem = limit = n
    bound, need, heavy_at = cap, heavy, -1
    while True:
        part = largest[rem if rem < limit else limit] if rem >= need else 0
        if part:
            mult = rem // part
            if mult > bound:
                mult = bound
        else:
            if not rem and not need:
                yield tuple(runs)
            while True:
                if not runs:
                    return
                part, mult = runs.pop()
                rem += part * mult
                if heavy_at == len(runs):
                    bound, need, heavy_at = cap, heavy, -1
                # stay on this level only if smaller parts can fill what it leaves
                if rem - part * (mult - 1) <= bound * room[part - 1]:
                    break
            mult -= 1
            if not mult:  # move this level on to the next smaller part
                limit = part - 1
                continue
        if need and mult >= need:
            bound, need, heavy_at = heavy - 1, 0, len(runs)
        runs.append((part, mult))
        rem -= part * mult
        limit = part - 1


def _family_runs(family: PartitionClass, n: int):
    _check_int(n, 0, "partition size")
    divisors, cap, heavy = _shape(family)
    return _run_tuples(n, divisors, n if cap is None else cap, heavy)


def enumerate_runs(family: PartitionClass, n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Run tuples ``((part, mult), ...)`` of the family's members of size n,
    in the order of enumerate_class, without building Partition objects."""
    yield from _family_runs(family, n)


def enumerate_class(family: PartitionClass, n: int) -> Iterator[Partition]:
    """All members of the family with total size n, descending lex order."""
    for runs in _family_runs(family, n):
        yield Partition._from_runs(runs)


def count_class(family: PartitionClass, n: int) -> int:
    """Number of members of the family with total size n."""
    return sum(1 for _ in _family_runs(family, n))
