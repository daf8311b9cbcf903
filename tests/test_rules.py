"""The design rules of the library, read from its source.

Each rule keeps one piece of the library written once, or keeps out a
construct that would weaken it. A text rule counts the lines of its files
that match its pattern, as ``grep -c`` does, and fails with its message and
the matching lines unless the count is the one it expects. The three rules a
pattern cannot state walk the syntax tree instead.
"""

import ast
import builtins
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "regpart"
LIBRARY = sorted(SOURCE.glob("*.py"))
# the modules below stats, which may import neither stats nor cli
LOWER = [SOURCE / f"{name}.py" for name in ("partition", "classes", "glaisher", "qseries")]

# (name, pattern, files, expected matching lines, message)
TEXT_RULES = [
    (
        "no-unbounded-cache",
        r"lru_cache\((maxsize=)?None\)|functools\.cache\b|@cache\b",
        LIBRARY, 0,
        "src/regpart holds an unbounded cache",
    ),
    (
        "no-assert",
        r"^\s*assert\b",
        LIBRARY, 0,
        "src/regpart uses assert, which python -O compiles out",
    ),
    (
        "one-integer-rule",
        r"not isinstance\([^)]*, int\)",
        LIBRARY, 1,
        "src/regpart checks an integer outside partition._check_int",
    ),
    # the 1..r-1 range comparison and its message, each written once
    (
        "one-residue-rule-range",
        r"(<=?|>=?) *[A-Za-z_.]+ - 1\b",
        LIBRARY, 1,
        "src/regpart checks a residue range outside partition._check_residue",
    ),
    (
        "one-residue-rule-message",
        r"not in 1\.\.\{[^}]* - 1\}",
        LIBRARY, 1,
        "src/regpart checks a residue range outside partition._check_residue",
    ),
    # the pentagonal exponent j(3j - 1)/2 is written once, in
    # qseries._pentagonal, so one series primitive builds every generating
    # function
    (
        "one-pentagonal-rule",
        r"3 ?\* ?[A-Za-z_]+ ?[-+] ?1\)",
        LIBRARY, 1,
        "src/regpart writes the pentagonal exponent outside qseries._pentagonal",
    ),
    # the room prune is written once, in classes._run_blocks, so every
    # enumeration, count and fold walks the one block kernel
    (
        "one-enumeration-kernel",
        r"bound \* room\[",
        LIBRARY, 1,
        "src/regpart prunes a partition walk outside classes._run_blocks",
    ),
    # a block's first member is written once, in classes._block_tails, so
    # enumerate_runs and cli read members from it and grow no second expansion
    (
        "one-member-expansion",
        r"ones = rest - part \* top",
        LIBRARY, 1,
        "src/regpart expands a block into members outside classes._block_tails",
    ),
    # the text of a run (part, mult) is made once, in cli._block_texts, so
    # every enumerate and glaisher row is built by one rule
    (
        "one-run-text-rule",
        re.escape("[str(run[0])] * run[1]"),
        LIBRARY, 1,
        "src/regpart writes a run's text outside cli._block_texts",
    ),
    (
        "lower-layers-import-neither-stats-nor-cli",
        r"^\s*from (\.|regpart\.)(stats|cli)\b|^\s*from (\.|regpart) import .*\b(stats|cli)\b"
        r"|^\s*import regpart\.(stats|cli)\b",
        LOWER, 0,
        "a module below stats imports from stats or cli",
    ),
]


def _where(path, lineno):
    return f"{path.relative_to(ROOT)}:{lineno}"


@pytest.mark.parametrize(
    "pattern, files, expected, message",
    [rule[1:] for rule in TEXT_RULES],
    ids=[rule[0] for rule in TEXT_RULES],
)
def test_text_rule(pattern, files, expected, message):
    matcher = re.compile(pattern)
    hits = [
        f"{_where(path, lineno)}: {line}"
        for path in files
        for lineno, line in enumerate(path.read_text().split("\n"), 1)
        if matcher.search(line)
    ]
    assert len(hits) == expected, "\n".join([message, *hits])


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_one_record_rule():
    # _Value's one constructor binds every plain record's fields, so no
    # _Value subclass writes an __init__ that only passes them to _fill
    restated = []
    for path in LIBRARY:
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(isinstance(base, ast.Name) and base.id == "_Value" for base in cls.bases):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    body = node.body
                    if (
                        len(body) == 1
                        and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Call)
                        and ast.unparse(body[0].value.func) == "self._fill"
                    ):
                        restated.append(f"{_where(path, node.lineno)}: {cls.name}")
    assert not restated, "\n".join(
        ["a _Value subclass restates its fields in a pass-through __init__", *restated]
    )


def test_one_value_rule():
    # every library class is _Value, a subclass of _Value or an exception,
    # and only _Value defines __eq__ and __hash__, so every value type
    # compares, hashes and refuses change by one rule
    classes = [
        (path.name, node)
        for path in LIBRARY
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
    ]
    allowed = {"_Value"} | {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    grew = True
    while grew:
        grown = {
            cls.name for _, cls in classes
            if any(ast.unparse(base) in allowed for base in cls.bases)
        }
        grew = not grown <= allowed
        allowed |= grown
    found = []
    for name, cls in classes:
        if cls.name not in allowed:
            found.append(f"{name}: {cls.name}")
        for node in cls.body:
            if (
                cls.name != "_Value"
                and isinstance(node, ast.FunctionDef)
                and node.name in ("__eq__", "__hash__")
            ):
                found.append(f"{name}: {cls.name}.{node.name}")
    assert not found, "\n".join(
        ["a library class is not a _Value or an exception, or compares by its own rule", *found]
    )


def test_no_unused_imports():
    # every name a module-level import binds is read somewhere in its
    # module; __init__.py re-exports and __future__ are exempt
    unused = []
    for path in LIBRARY + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{_where(path, node.lineno)}: {name}")
    assert not unused, "\n".join(["a module imports a name it never uses", *unused])
