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
``(7)`` comes first and ``(1, 1, ..., 1)`` last. The kernel walks a family
in blocks ``(prefix, p, rest, top, low)``. A block stands for the members
whose run tuple is ``prefix`` followed by ``(p, a)`` and ``(1, rest - p*a)``,
for ``a`` from ``top`` down to ``low``, leaving out a run of multiplicity 0;
``_block_tails`` is the one expansion of a block into those tails. Every
block holds at least one member; a member that stands alone is the block
``(runs, 1, 0, 0, 0)``. An inferior-regular prefix that still lacks its
heavy run gives up to two blocks: the members where ``p`` is heavy, then
those where the 1s are.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd

from .partition import Partition, _check_int, _Value

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


class ModulusTuple(_Value):
    """An ordered tuple of pairwise coprime moduli, each at least 2.

    Order matters: the leading modulus ``head`` bounds multiplicities in the
    regular families, while the remaining ones, ``tail`` (possibly empty),
    forbid divisible part sizes. ``tail_congruent`` is True when every tail
    modulus is congruent to 1 modulo the head: the hypothesis under which
    the preimage-counting identities for the insertion map hold, vacuously
    true for a single modulus. A ``set`` or ``frozenset`` raises TypeError.
    """

    _fields = ("moduli",)
    __slots__ = _fields + ("head", "tail", "tail_congruent")

    def __init__(self, moduli: tuple[int, ...]):
        if isinstance(moduli, (set, frozenset)):
            raise TypeError(f"moduli in a {type(moduli).__name__} have no order; pass a tuple")
        values = tuple(moduli)
        if not values:
            raise EmptyTuple("need at least one modulus")
        for r in values:
            _check_int(r, 2, "modulus", TooSmall)
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                if gcd(a, b) != 1:
                    raise NotCoprime(f"moduli {a} and {b} share a factor")
        head, tail = values[0], values[1:]
        self._fill(values, head, tail, all(t % head == 1 for t in tail))

    def __iter__(self) -> Iterator[int]:
        return iter(self.moduli)

    def __len__(self) -> int:
        return len(self.moduli)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.moduli)


def validate_tuple(moduli: ModulusTuple | Iterable[int] | int) -> ModulusTuple:
    """Coerce one modulus or an ordered iterable of moduli into a validated
    ModulusTuple; a ``set`` or ``frozenset``, having no order, raises TypeError."""
    if isinstance(moduli, ModulusTuple):
        return moduli
    if isinstance(moduli, (bytes, bytearray)) or not isinstance(moduli, Iterable):
        return ModulusTuple((moduli,))
    return ModulusTuple(moduli)


ALL = "all"
REGULAR = "regular"
CLASS_REGULAR = "class-regular"
INFERIOR_REGULAR = "inferior-regular"

_KINDS = (ALL, REGULAR, CLASS_REGULAR, INFERIOR_REGULAR)


class PartitionClass(_Value):
    """One of the partition families, tagged with its moduli when restricted."""

    __slots__ = _fields = ("kind", "moduli")

    def __init__(self, kind: str, moduli: ModulusTuple | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown partition class kind {kind!r}")
        if (moduli is None) != (kind == ALL):
            raise ValueError("moduli must be given exactly for the restricted kinds")
        self._fill(kind, None if moduli is None else validate_tuple(moduli))

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


def _run_blocks(n, divisors, cap, heavy):
    # Partitions of n avoiding the divisors, as blocks (see the module
    # docstring) in descending lex order, with multiplicities at most cap; a
    # nonzero heavy asks for exactly one run of multiplicity >= heavy and
    # keeps the others below it. Fills greedily, then backtracks by
    # decrementing the last multiplicity. A level whose part has only size 1
    # below it among the allowed sizes is the last one above the 1s: all its
    # members go out as one block, or as two when a heavy run is pending.
    allowed = [True] * (n + 1)
    for d in divisors:
        allowed[d::d] = [False] * (n // d)
    # per v: the largest allowed part <= v, and the sum of all allowed parts <= v
    largest, room = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        largest[v] = v if allowed[v] else largest[v - 1]
        room[v] = room[v - 1] + (v if allowed[v] else 0)
    runs = []
    rem = limit = n
    bound, need = cap, heavy
    while True:
        part = largest[rem if rem < limit else limit] if rem >= need else 0
        if part and largest[part - 1] == 1:
            if need:
                # exactly one of part^a and 1^(rem - part*a) reaches need;
                # a family with a heavy run has no cap, so bound is n here
                top = rem // part  # part heavy
                low = (rem - need + part) // part
                if low < need:
                    low = need
                if top >= low:
                    yield tuple(runs), part, rem, top, low
                top = (rem - need) // part  # the 1s heavy
                if top >= need:
                    top = need - 1
                if top >= 0:
                    yield tuple(runs), part, rem, top, 0
            else:
                # part^a 1^(rem - part*a) for every a with both runs within bound
                top = rem // part
                if top > bound:
                    top = bound
                low = (rem - bound + part - 1) // part
                if low < 0:
                    low = 0
                if top >= low:
                    yield tuple(runs), part, rem, top, low
            part = 0
        if part:
            mult = rem // part
            if mult > bound:
                mult = bound
        else:
            if not rem and not need:
                yield tuple(runs), 1, 0, 0, 0
            while True:
                if not runs:
                    return
                part, mult = runs.pop()
                rem += part * mult
                if mult > bound:  # only the heavy run exceeds the bound
                    bound, need = cap, heavy
                # stay on this level only if smaller parts can fill what it leaves
                if rem - part * (mult - 1) <= bound * room[part - 1]:
                    break
            mult -= 1
            if not mult:  # move this level on to the next smaller part
                limit = part - 1
                continue
        if need and mult >= need:
            bound, need = heavy - 1, 0
        runs.append((part, mult))
        rem -= part * mult
        limit = part - 1


def _family_blocks(family: PartitionClass, n: int):
    _check_int(n, 0, "partition size")
    divisors, cap, heavy = _shape(family)
    return _run_blocks(n, divisors, n if cap is None else cap, heavy)


def enumerate_runs(family: PartitionClass, n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Run tuples ``((part, mult), ...)`` of the family's members of size n,
    in the order of enumerate_class, without building Partition objects."""
    shapes = {}  # a block's tails depend only on its shape
    for prefix, part, rest, top, low in _family_blocks(family, n):
        shape = part, rest, top, low
        tails = shapes.get(shape)
        if tails is None:
            tails = shapes[shape] = tuple(_block_tails(part, rest, top, low))
        for tail in tails:
            yield prefix + tail


def _block_tails(part, rest, top, low):
    # The runs after the prefix of each member of a block, in block order:
    # (part, a) and (1, rest - part*a), leaving out a run of multiplicity 0.
    if not rest:
        yield ()
        return
    ones = rest - part * top  # only the first member can lack the 1s
    if not ones:
        yield ((part, top),)
        top, ones = top - 1, part
    for a in range(top, low - 1, -1):
        yield ((part, a), (1, ones)) if a else ((1, ones),)
        ones += part


def enumerate_class(family: PartitionClass, n: int) -> Iterator[Partition]:
    """All members of the family with total size n, descending lex order."""
    for runs in enumerate_runs(family, n):
        yield Partition._from_runs(runs)


def count_class(family: PartitionClass, n: int) -> int:
    """Number of members of the family with total size n, summed block by
    block without building any member."""
    return sum(top - low + 1 for _, _, _, top, low in _family_blocks(family, n))
