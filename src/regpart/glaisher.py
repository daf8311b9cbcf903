"""The merge correspondence and the insertion bijection.

The merge correspondence sends any partition to one whose multiplicities all
stay below a modulus r: as long as some part size k occurs at least r times,
r copies of k are replaced by a single part r*k. Always merging the smallest
eligible size gives a canonical run, but the final partition and the number
of steps do not depend on the order, so the step count is a well defined
statistic of the starting partition. Running the replacement backwards
(always splitting the smallest part divisible by r) inverts the map on
partitions with no part divisible by r.

The insertion map extends this to modulus tuples. Given a partition with no
part divisible by any modulus, it removes some copies of a chosen part,
merges what remains with respect to the leading modulus, and inserts a new
run that encodes the removed copies through the factorization of their count
over the remaining moduli. The inverse undoes those steps in closed form for
one target at a time.
"""

from __future__ import annotations

from .classes import (
    ModulusTuple,
    PartitionClass,
    TooSmall,
    is_member,
    validate_tuple,
)
from .partition import Partition, _check_int, _check_residue, _set, _Value

__all__ = [
    "MERGE", "SPLIT", "BijectionTriple", "GlaisherTrace", "InvalidTriple", "NotRegular",
    "PreimageCountMismatch", "glaisher_forward", "glaisher_inverse", "insertion_map",
    "insertion_preimages",
]


class NotRegular(ValueError):
    """The inverse direction needs every multiplicity below the modulus."""


class InvalidTriple(ValueError):
    """The insertion map was given data outside its domain."""


class PreimageCountMismatch(RuntimeError):
    """A preimage count broke the counting identity: an internal fault,
    never a problem with the input."""


MERGE = "merge"
SPLIT = "split"


class GlaisherTrace(_Value):
    """A replayable record of one run of the correspondence.

    Each step is ``(op, k)`` where a merge turns k^r into r*k and a split
    turns r*k back into k^r. The step count is the operation statistic of
    the class-regular partition at the class-regular end of the run.
    """

    __slots__ = _fields = ("start", "end", "modulus", "steps")

    def __init__(
        self, start: Partition, end: Partition, modulus: int, steps: tuple[tuple[str, int], ...]
    ):
        self._fill(start, end, modulus, steps)

    @property
    def count(self) -> int:
        return len(self.steps)

    def states(self) -> list[Partition]:
        """All intermediate partitions, from start to end inclusive."""
        table = self.start.multiplicities()
        out = [self.start]
        for op, small in self.steps:
            _step(table, self.modulus, op, small)
            out.append(Partition.from_multiplicities(table))
        if out[-1] != self.end:
            raise ValueError(f"replay ends at {out[-1]}, not at {self.end}")
        return out


def _step(table: dict[int, int], r: int, op: str, k: int) -> None:
    # One step on a {part: multiplicity} table, in place: a merge turns k^r
    # into r*k, a split turns r*k back into k^r.
    if op == MERGE:
        take, count, give, gain = k, r, r * k, 1
    elif op == SPLIT:
        take, count, give, gain = r * k, 1, k, r
    else:
        raise ValueError(f"unknown step {op!r}")
    have = table.get(take, 0)
    if have < count:
        raise ValueError(f"cannot replay {op} at {take}")
    if have == count:
        del table[take]
    else:
        table[take] = have - count
    table[give] = table.get(give, 0) + gain


def _run(partition: Partition, r: int, op: str, candidates) -> GlaisherTrace:
    # Applies op at the smallest of candidates(table) until there is none,
    # recording each step.
    table = partition.multiplicities()
    steps = []
    while (small := min(candidates(table), default=None)) is not None:
        _step(table, r, op, small)
        steps.append((op, small))
    end = Partition.from_multiplicities(table)
    return GlaisherTrace(partition, end, r, tuple(steps))


def glaisher_forward(partition: Partition, modulus: int) -> GlaisherTrace:
    """Merge until every multiplicity is below the modulus.

    The canonical order merges the smallest eligible part size first. The
    end partition has all multiplicities below the modulus and the same
    total size as the start.
    """
    _check_int(modulus, 2, "modulus", TooSmall)
    return _run(partition, modulus, MERGE, lambda table: (
        size for size, mult in table.items() if mult >= modulus
    ))


def merge_counts(modulus: int, top: int) -> list[int]:
    """Merge steps of a run of m copies of one class-regular part, m = 0..top:
    (m - s(m)) / (modulus - 1), s(m) the base-modulus digit sum of m. Summed
    over its runs, this is a class-regular partition's operation count."""
    _check_int(modulus, 2, "modulus", TooSmall)
    _check_int(top, 0, "longest run length")
    digit_sums = [0] * (top + 1)
    for m in range(1, top + 1):
        digit_sums[m] = digit_sums[m // modulus] + m % modulus
    return [(m - s) // (modulus - 1) for m, s in enumerate(digit_sums)]


def glaisher_inverse(partition: Partition, modulus: int) -> GlaisherTrace:
    """Split until no part is divisible by the modulus.

    The input must have every multiplicity below the modulus (NotRegular
    otherwise). The canonical order splits the smallest divisible part
    first. The end partition is the unique class-regular partition whose
    forward merge gives the input back, with the same number of steps.
    """
    _check_int(modulus, 2, "modulus", TooSmall)
    if any(mult >= modulus for _, mult in partition.runs):
        raise NotRegular(
            f"some part occurs {modulus} or more times, cannot invert"
        )
    return _run(partition, modulus, SPLIT, lambda table: (
        size // modulus for size in table if size % modulus == 0
    ))


def _factor(value: int, bases) -> tuple[int, int]:
    # Split a positive value into (block, cofactor) over coprime bases: the
    # block is the largest divisor of value that is a product of powers of
    # the bases, so no base divides the cofactor. With no bases it is 1.
    block = 1
    cofactor = value
    for base in bases:
        while cofactor % base == 0:
            cofactor //= base
            block *= base
    return block, cofactor


class BijectionTriple(_Value):
    """A class-regular partition with a marked run: a part size congruent to
    the chosen residue and a number of copies of it, between 1 and its
    multiplicity."""

    __slots__ = _fields = ("partition", "part", "copies")

    def __init__(self, partition: Partition, part: int, copies: int):
        # slot by slot, not through _fill: insertion_preimages builds and
        # hashes one per candidate preimage
        _set(self, "partition", partition)
        _set(self, "part", part)
        _set(self, "copies", copies)


def _merge_end(runs, head: int) -> dict[int, int]:
    # The merge end of class-regular runs in closed form: k^m ends as the runs
    # (k * head^i)^(d_i), d_i the base-head digits of m. No size k is divisible
    # by head, so the runs of two sizes never meet.
    table = {}
    for k, m in runs:
        while m:
            m, digit = divmod(m, head)
            if digit:
                table[k] = digit
            k *= head
    return table


def _image(runs, moduli: ModulusTuple, part: int, copies: int):
    # The insertion image of a marked class-regular run tuple, as a run tuple.
    table = _merge_end(
        ((k, m - copies if k == part else m) for k, m in runs), moduli.head
    )
    block, cofactor = _factor(copies, moduli.tail)
    table[cofactor] = table.get(cofactor, 0) + part * block
    return tuple(sorted(table.items(), reverse=True))


def insertion_map(
    moduli: ModulusTuple | int, residue: int, triple: BijectionTriple
) -> Partition:
    """Image of a marked class-regular partition under the insertion map.

    Removes the marked copies, merges the remainder with respect to the
    leading modulus, and inserts the run (cofactor)^(part * block), where
    (block, cofactor) factors the number of removed copies over the tail
    moduli. The merge is computed in closed form from the base-r digits of
    each remaining multiplicity, not simulated. Preserves total size. Raises
    InvalidTriple when the residue is out of range or the triple is outside
    the domain.
    """
    moduli = validate_tuple(moduli)
    head = moduli.head
    _check_residue(residue, head, "residue", InvalidTriple)
    lam, part, copies = triple.partition, triple.part, triple.copies
    _check_int(part, None, "part", InvalidTriple)
    _check_int(copies, None, "copies", InvalidTriple)
    if part % head != residue:
        raise InvalidTriple(f"part {part} is not congruent to {residue} mod {head}")
    have = lam.multiplicity(part)
    if not 1 <= copies <= have:
        raise InvalidTriple(f"copies {copies} not in 1..{have} for part {part}")
    if not is_member(lam, PartitionClass.class_regular(moduli)):
        raise InvalidTriple("marked partition has a part divisible by a modulus")
    return Partition._from_runs(_image(lam.runs, moduli, part, copies))


def _identity_count(runs, moduli: ModulusTuple, residue: int) -> int:
    # The preimage count the counting identity gives, read from the family
    # definitions alone: the sizes of multiplicity at least the residue on a
    # regular target, 1 on an inferior-regular one, 0 on any other.
    head, tail = moduli.head, moduli.tail
    heavy = repeated = 0
    for size, mult in runs:
        for t in tail:
            if size % t == 0:
                return 0
        heavy += mult >= head
        repeated += mult >= residue
    return int(heavy == 1) if heavy else repeated


def _undo_insertion(runs, moduli: ModulusTuple, residue: int) -> frozenset[BijectionTriple]:
    # _image backwards. An image is a merge end, every multiplicity below the
    # head, plus one run c^a with a = part * block and no tail modulus dividing
    # c. So no tail modulus divides a part of it, and it has at most one heavy
    # run, which is then the inserted one.
    head, tail = moduli.head, moduli.tail
    heavy = ()
    for size, mult in runs:
        for t in tail:
            if size % t == 0:
                return frozenset()
        if mult >= head:
            if heavy:
                return frozenset()
            heavy = ((size, mult),)
    # the merge end split back: (k * head^e)^d becomes k^(d * head^e)
    rest, split = {}, {}
    for c, d in runs:
        k, e = c, 1
        while k % head == 0:
            k, e = k // head, e * head
        split[c] = k, e
        rest[k] = rest.get(k, 0) + d * e
    found = set()
    for c, m in heavy or runs:
        k, e = split[c]
        for a in range(max(1, m - head + 1), m + 1):
            block, part = _factor(a, tail)
            if part % head != residue:
                continue
            table = dict(rest)  # with c^m cut to c^(m - a)
            left = table.pop(k) - a * e
            if left:
                table[k] = left
            table[part] = table.get(part, 0) + c * block
            lam = Partition._from_runs(tuple(sorted(table.items(), reverse=True)))
            found.add(BijectionTriple(lam, part, c * block))
    return frozenset(found)


def insertion_preimages(
    moduli: ModulusTuple | int, residue: int, n: int, target: Partition
) -> frozenset[BijectionTriple]:
    """All marked partitions of total size n that the insertion map sends to
    the target, found by undoing the map on the target alone. When every tail
    modulus is congruent to 1 modulo the head, the count is checked against
    the counting identity (the repeated-size count on a regular target, 1 on
    an inferior-regular one, 0 elsewhere) and PreimageCountMismatch is raised
    where it fails."""
    moduli = validate_tuple(moduli)
    _check_residue(residue, moduli.head, "residue", InvalidTriple)
    _check_int(n, 0, "partition size")
    if target.size != n:
        raise ValueError(f"target has size {target.size}, expected {n}")
    found = _undo_insertion(target.runs, moduli, residue)
    if moduli.tail_congruent:
        want = _identity_count(target.runs, moduli, residue)
        if len(found) != want:
            raise PreimageCountMismatch(
                f"preimage count {len(found)} disagrees with the counting identity "
                f"value {want} for {target}"
            )
    return found
