import importlib
import os
import pickle
import subprocess
import sys

import pytest

import regpart

# every public name of the package, by the module that defines it
PUBLIC = {
    "classes": [
        "ALL", "CLASS_REGULAR", "INFERIOR_REGULAR", "REGULAR", "EmptyTuple", "ModulusTuple",
        "NotCoprime", "PartitionClass", "TooSmall", "count_class", "enumerate_class",
        "enumerate_runs", "is_member", "validate_tuple",
    ],
    "glaisher": [
        "MERGE", "SPLIT", "BijectionTriple", "GlaisherTrace", "InvalidTriple", "NotRegular",
        "PreimageCountMismatch", "glaisher_forward", "glaisher_inverse", "insertion_map",
        "insertion_preimages",
    ],
    "partition": ["Partition"],
    "qseries": ["TruncatedSeries", "gf_class"],
    "stats": [
        "LengthCheck", "SeriesCheck", "XYCReport", "XYCRow", "aggregate",
        "verify_length_identity", "verify_series_vs_enumeration", "verify_xyc",
    ],
}
NAMES = {name for names in PUBLIC.values() for name in names} | {"__version__"}


def test_all_names_each_public_name_once():
    assert len(NAMES) == 37
    assert len(regpart.__all__) == len(set(regpart.__all__))
    assert set(regpart.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_object_its_module_defines(module):
    defining = importlib.import_module(f"regpart.{module}")
    for name in PUBLIC[module]:
        obj = getattr(defining, name)
        assert getattr(regpart, name) is obj
        if callable(obj):
            assert obj.__module__ == defining.__name__


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, so modules a test or plugin loaded do not count;
    # neither do modules a site hook loaded before the import
    code = (
        "import sys; before = set(sys.modules); import regpart; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(regpart.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "regpart.stats" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from regpart import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


# one instance of each value type: its class, its fields by keyword, and its
# repr; the first field is the one the immutability checks try to change
VALUES = [
    (regpart.ModulusTuple, {"moduli": (3, 5)}, "ModulusTuple(moduli=(3, 5))"),
    (regpart.PartitionClass,
     {"kind": "regular", "moduli": regpart.ModulusTuple((3, 5))},
     "PartitionClass(kind='regular', moduli=ModulusTuple(moduli=(3, 5)))"),
    (regpart.GlaisherTrace,
     {"start": regpart.Partition([2, 1, 1, 1]), "end": regpart.Partition([3, 2]),
      "modulus": 3, "steps": (("merge", 1),)},
     "GlaisherTrace(start=Partition([2, 1, 1, 1]), end=Partition([3, 2]), modulus=3, "
     "steps=(('merge', 1),))"),
    (regpart.BijectionTriple,
     {"partition": regpart.Partition([2, 1]), "part": 2, "copies": 1},
     "BijectionTriple(partition=Partition([2, 1]), part=2, copies=1)"),
    (regpart.XYCReport,
     {"moduli": regpart.ModulusTuple((3,)), "n": 4, "per_residue": {1: (7, 6), 2: (3, 2)},
      "operation_total": 1},
     "XYCReport(moduli=ModulusTuple(moduli=(3,)), n=4, per_residue={1: (7, 6), 2: (3, 2)}, "
     "operation_total=1)"),
    (regpart.XYCRow,
     {"moduli": regpart.ModulusTuple((3, 5)), "n": 4, "residue": 1, "x_total": 7, "y_total": 6,
      "operation_total": 1, "inferior_count": 1},
     "XYCRow(moduli=ModulusTuple(moduli=(3, 5)), n=4, residue=1, x_total=7, y_total=6, "
     "operation_total=1, inferior_count=1)"),
    (regpart.LengthCheck,
     {"modulus": 3, "n": 4, "class_regular_length_sum": 10, "regular_length_sum": 8,
      "operation_total": 1},
     "LengthCheck(modulus=3, n=4, class_regular_length_sum=10, regular_length_sum=8, "
     "operation_total=1)"),
    (regpart.SeriesCheck,
     {"family": regpart.PartitionClass.inferior_regular(3),
      "series": regpart.TruncatedSeries([0, 0, 0, 1]), "count_mismatch": None,
      "operations_mismatch": None},
     "SeriesCheck(family=PartitionClass(kind='inferior-regular', "
     "moduli=ModulusTuple(moduli=(3,))), series=TruncatedSeries([0, 0, 0, 1]), "
     "count_mismatch=None, operations_mismatch=None)"),
]


@pytest.mark.parametrize(
    "index, cls, fields, text",
    [(index, *case) for index, case in enumerate(VALUES)],
    ids=[case[0].__name__ for case in VALUES],
)
def test_value_types_compare_hash_print_and_refuse_change_like_frozen_records(
    index, cls, fields, text
):
    value = cls(**fields)
    rebuilt = cls(*fields.values())
    assert value == rebuilt and not value != rebuilt
    if cls is regpart.XYCReport:  # holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(rebuilt)
    assert value != tuple(fields.values())
    other_cls, other_fields, _ = VALUES[index - 1]
    assert value != other_cls(**other_fields)
    with pytest.raises(TypeError):
        value < rebuilt
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == rebuilt
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
