import importlib

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
        "PreimageCountMismatch", "factor_out", "glaisher_forward",
        "glaisher_inverse", "insertion_map", "insertion_preimages",
    ],
    "partition": ["Partition"],
    "qseries": [
        "NonInvertible", "TruncatedSeries", "euler_product", "geometric_tail", "gf_class",
        "gf_tuple_inferior",
    ],
    "stats": [
        "LengthCheck", "SeriesCheck", "XYCReport", "XYCRow", "aggregate",
        "count_congruent_parts", "count_repeated_sizes", "verify_length_identity",
        "verify_series_vs_enumeration", "verify_xyc",
    ],
}
NAMES = {name for names in PUBLIC.values() for name in names} | {"__version__"}


def test_all_names_each_public_name_once():
    assert len(NAMES) == 44
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


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from regpart import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
