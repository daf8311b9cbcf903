"""Integer partitions as immutable multisets of positive parts.

A partition is a ``_Value`` record whose one field is its run tuple
``((part, mult), ...)`` with strictly decreasing part sizes, which makes the
multiset view (multiplicity lookups) and the sequence view (weakly
decreasing parts) cheap to derive from one another.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from operator import attrgetter

__all__ = ["Partition"]

_BOUNDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _check_int(value, low, what: str, error=ValueError) -> None:
    # The one integer rule of the package: value must be an int, not a bool,
    # and at least low (no bound when low is None). Raises error naming what.
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        raise error(f"{what} {value!r} is not {_BOUNDS.get(low, f'an integer >= {low}')}")


def _check_residue(value, modulus: int, what: str, error) -> None:
    # The one residue rule: a residue is an integer in 1..modulus - 1,
    # checked by the integer rule first.
    _check_int(value, 1, what, error)
    if value > modulus - 1:
        raise error(f"{what} {value} not in 1..{modulus - 1}")


_set = object.__setattr__


class _Value:
    # Base of every immutable record of the package, Partition included. A
    # subclass lists its fields, in order, in _fields and __slots__ (where
    # any value derived at construction follows them). The one constructor
    # takes each field once, by position or by name, in _fields order; a
    # subclass that validates or derives writes its own __init__ and fills
    # every slot through _fill, or _set on a hot path. Equality and hash go
    # by the fields, between instances of one class only; repr reads
    # Name(field=value, ...). Pickle and copy rebuild through the
    # constructor (restoring slots would go through __setattr__), so a
    # constructor that does not take the fields comes with a __reduce__.

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(fields)} once")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(_Value):
    """An integer partition of a nonnegative number.

    Accepts parts in any order; the empty iterable gives the empty partition
    (the unique partition of 0). The one field, ``runs``, holds the distinct
    parts with their multiplicities, largest part first. Instances are
    immutable, hashable, and equal iff they have the same runs.
    """

    __slots__ = _fields = ("runs",)

    def __init__(self, parts: Iterable[int] = ()):
        counts: Counter[int] = Counter()
        for part in parts:
            _check_int(part, 1, "part")
            counts[part] += 1
        _set(self, "runs", tuple(sorted(counts.items(), reverse=True)))

    @classmethod
    def from_multiplicities(cls, table: Mapping[int, int]) -> Partition:
        """Build from a ``{part: multiplicity}`` table; zero entries are dropped."""
        runs = []
        for part, mult in table.items():
            _check_int(part, 1, "part size")
            _check_int(mult, 0, "multiplicity")
            if mult:
                runs.append((part, mult))
        runs.sort(reverse=True)
        return cls._from_runs(tuple(runs))

    @classmethod
    def _from_runs(cls, runs: tuple[tuple[int, int], ...]) -> Partition:
        # trusted path: runs must already be strictly decreasing with mult >= 1
        self = object.__new__(cls)
        _set(self, "runs", runs)
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        """The weakly decreasing part sequence."""
        out = []
        for part, mult in self.runs:
            out.extend([part] * mult)
        return tuple(out)

    @property
    def size(self) -> int:
        """The number being partitioned (sum of all parts)."""
        return sum(part * mult for part, mult in self.runs)

    @property
    def length(self) -> int:
        """Number of parts, counted with multiplicity."""
        return sum(mult for _, mult in self.runs)

    def multiplicity(self, part: int) -> int:
        """How many copies of ``part`` occur (0 when absent)."""
        for size, mult in self.runs:
            if size == part:
                return mult
            if size < part:
                break
        return 0

    def multiplicities(self) -> dict[int, int]:
        """A fresh ``{part: multiplicity}`` table of the nonzero entries."""
        return dict(self.runs)

    def __reduce__(self):
        # the constructor takes parts, not the run tuple
        return type(self), (self.parts,)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        if not self.runs:
            return "()"
        pieces = []
        for part, mult in self.runs:
            pieces.append(str(part) if mult == 1 else f"{part}^{mult}")
        return "(" + " ".join(pieces) + ")"
