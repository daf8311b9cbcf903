import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    count_congruent_parts,
    count_repeated_sizes,
    in_class_regular,
    in_inferior,
    in_regular,
    merge_count_closed_form,
    partitions_desc,
)

from regpart import (
    InvalidTriple,
    Partition,
    PartitionClass,
    TruncatedSeries,
    enumerate_class,
    enumerate_runs,
    validate_tuple,
)
from regpart import classes, cli
from regpart.cli import (
    MAX_PLAIN_N,
    MAX_PLAIN_TRUNC,
    UsageError,
    _guard,
    main,
)
from regpart.stats import LengthCheck, SeriesCheck, XYCRow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_golden_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "cp", "--moduli", "3", "--n", "7")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 9
        assert lines[0] == "[7]"
        assert lines[-1] == "[1,1,1,1,1,1,1]"

    def test_size_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "all", "--n", "0")
        assert code == 0
        assert out == "[]\n"

    def test_long_class_names(self, capsys):
        short = run(capsys, "enumerate", "--class", "rp", "--moduli", "3", "--n", "6")
        longform = run(
            capsys, "enumerate", "--class", "regular", "--moduli", "3", "--n", "6"
        )
        assert short == longform

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--class", "irp", "--moduli", "3", "--n", "7",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["partition"]
        assert rows[1] == ["[4,1,1,1]"]
        assert len(rows) == 7

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--class", "cp", "--moduli", "3,5", "--n", "5",
            "--format", "jsonl",
        )
        assert code == 0
        parsed = [json.loads(line)["partition"] for line in out.splitlines()]
        assert parsed == [[4, 1], [2, 2, 1], [2, 1, 1, 1], [1, 1, 1, 1, 1]]

    def test_bad_moduli(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "cp", "--moduli", "2,4", "--n", "5")
        assert code == 2
        assert "NotCoprime" in err

    def test_missing_moduli(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "rp", "--n", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "--class", "all", "--moduli", "", "--n", "3"],
             "error: UsageError: the all class takes no moduli\n"),
            (["enumerate", "--class", "cp", "--moduli", "", "--n", "3"],
             "error: EmptyTuple: need at least one modulus\n"),
            (["verify", "--scope", "xyc", "--moduli", "", "--n", "3"],
             "error: EmptyTuple: need at least one modulus\n"),
        ],
        ids=["enumerate-all", "enumerate-cp", "verify"],
    )
    def test_empty_moduli_is_given_not_absent(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)

    def test_rejects_range(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "all", "--n", "2..4")
        assert code == 2

    def test_desk_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "all", "--n", "201")
        assert code == 2
        assert "--force" in err

    def test_writes_from_run_tuples_without_building_partitions(self, capsys, monkeypatch):
        built = []
        from_runs = Partition._from_runs.__func__

        def counting(cls, runs):
            built.append(runs)
            return from_runs(cls, runs)

        monkeypatch.setattr(Partition, "_from_runs", classmethod(counting))
        code, out, _ = run(capsys, "enumerate", "--class", "all", "--n", "12")
        assert (code, len(out.splitlines()), built) == (0, 77, [])
        # the probe does see the library's Partition path
        assert len(list(enumerate_class(PartitionClass.all_partitions(), 12))) == len(built) == 77


class TestGlaisher:
    def test_golden_forward(self, capsys):
        code, out, _ = run(capsys, "glaisher", "--parts", "1,1,1,1,1,1", "--r", "2")
        assert code == 0
        assert out.splitlines() == [
            "[1,1,1,1,1,1]",
            "[2,1,1,1,1]",
            "[2,2,1,1]",
            "[2,2,2]",
            "[4,2]",
            "count=4",
        ]

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "glaisher", "--parts", "7", "--r", "3")
        assert code == 0
        assert out.splitlines() == ["[7]", "count=0"]

    def test_inverse(self, capsys):
        code, out, _ = run(capsys, "glaisher", "--parts", "4,2", "--r", "2", "--inverse")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == "[1,1,1,1,1,1]"
        assert lines[-1] == "count=4"

    def test_force_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["glaisher", "--parts", "1", "--r", "2", "--force"])
        assert caught.value.code == 2

    def test_empty_parts(self, capsys):
        code, out, _ = run(capsys, "glaisher", "--parts", "", "--r", "2")
        assert code == 0
        assert out.splitlines() == ["[]", "count=0"]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "glaisher", "--parts", "1,1,1,1,1,1", "--r", "2", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["step", "partition"]
        assert rows[1] == ["0", "[1,1,1,1,1,1]"]
        assert rows[-1] == ["4", "[4,2]"]

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "glaisher", "--parts", "4,2", "--r", "2", "--inverse",
            "--format", "jsonl",
        )
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0] == {"state": [4, 2]}
        assert lines[-1] == {"count": 4}

    def test_inverse_rejects_heavy_input(self, capsys):
        code, _, err = run(capsys, "glaisher", "--parts", "2,2", "--r", "2", "--inverse")
        assert code == 2
        assert "NotRegular" in err

    def test_small_modulus(self, capsys):
        code, _, err = run(capsys, "glaisher", "--parts", "1", "--r", "1")
        assert code == 2
        assert "TooSmall" in err

    def test_bad_parts(self, capsys):
        code, _, err = run(capsys, "glaisher", "--parts", "3,x", "--r", "2")
        assert code == 2


class TestVerifyXYC:
    def test_plain_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "7")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "X=25" in lines[0] and "Y=19" in lines[0] and lines[0].endswith("PASS")
        assert "X=10" in lines[1] and "Y=4" in lines[1] and lines[1].endswith("PASS")

    def test_counterexample_is_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "xyc", "--moduli", "3,5", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert all(line.endswith("FAIL") for line in lines)
        assert all("hypothesis=false" in line for line in lines)

    def test_csv_header_and_values(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "7",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "moduli,n,j,X,Y,diff,c,inferior,hypothesis,pass"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["X"] == "25" and rows[0]["Y"] == "19" and rows[0]["diff"] == "6"
        assert rows[1]["j"] == "2" and rows[1]["pass"] == "true"

    def test_jsonl_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "xyc", "--moduli", "2,3", "--n", "6",
            "--format", "jsonl",
        )
        row = json.loads(out.splitlines()[0])
        assert row == {
            "moduli": [2, 3], "n": 6, "j": 1, "X": 8, "Y": 4, "diff": 4,
            "c": 4, "inferior": 4, "hypothesis": True, "pass": True,
        }

    def test_range_of_sizes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "xyc", "--moduli", "2", "--n", "0..5")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "xyc", "--moduli", "3")
        assert code == 2

    def test_missing_moduli(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "xyc", "--n", "7")
        assert code == 2

    def test_desk_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "190..210")
        assert code == 2
        assert "--force" in err


class TestVerifyLength:
    def test_plain_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "length", "--moduli", "3", "--n", "7")
        assert code == 0
        line = out.splitlines()[0]
        assert "class_regular_lengths=35" in line
        assert "regular_lengths=23" in line
        assert line.endswith("PASS")

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "length", "--moduli", "2", "--n", "3",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0] == {
            "modulus": "2", "n": "3", "class_regular_lengths": "4",
            "regular_lengths": "3", "operations": "1", "pass": "true",
        }

    def test_needs_single_modulus(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "length", "--moduli", "2,3", "--n", "6")
        assert code == 2


class TestVerifySeries:
    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "series", "--moduli", "3", "--trunc", "12"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith("PASS") for line in lines)

    def test_csv_records_typo_resolution(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "series", "--moduli", "3", "--trunc", "12",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        by_family = {row["family"]: row for row in rows}
        assert by_family["inferior-regular"]["regular_differs_at"] == "0"
        assert by_family["regular"]["regular_differs_at"] == ""
        coeffs = [int(c) for c in by_family["all"]["coefficients"].split(",")]
        assert coeffs[:6] == [1, 1, 2, 3, 5, 7]

    def test_jsonl_serializes_series_as_array(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "series", "--moduli", "2", "--trunc", "8",
            "--format", "jsonl",
        )
        rows = [json.loads(line) for line in out.splitlines()]
        inferior = next(r for r in rows if r["family"] == "inferior-regular")
        assert inferior["coefficients"] == [0, 0, 1, 1, 3, 4, 6, 9, 13]

    def test_desk_guard(self, capsys):
        code, _, err = run(
            capsys, "verify", "--scope", "series", "--moduli", "2", "--trunc", "501"
        )
        assert code == 2

    def test_head_above_the_index_limit(self, capsys):
        # no series table is sized by the head
        code, out, err = run(
            capsys, "verify", "--scope", "series", "--moduli", str(10**22 - 1), "--trunc", "3"
        )
        assert (code, err) == (0, "")
        assert [line.endswith(" PASS") for line in out.splitlines()] == [True] * 4

    def test_truncation_zero_jsonl(self, capsys):
        code, out, err = run(
            capsys, "verify", "--scope", "series", "--moduli", "2,3", "--trunc", "0",
            "--format", "jsonl",
        )
        assert (code, err) == (0, "")
        checks = '"count_mismatch": null, "operations_mismatch": null'
        assert out == (
            '{"family": "all", "moduli": [], "trunc": 0, ' + checks
            + ', "regular_differs_at": null, "coefficients": [1], "pass": true}\n'
            '{"family": "class-regular", "moduli": [2, 3], "trunc": 0, ' + checks
            + ', "regular_differs_at": null, "coefficients": [1], "pass": true}\n'
            '{"family": "regular", "moduli": [2, 3], "trunc": 0, ' + checks
            + ', "regular_differs_at": null, "coefficients": [1], "pass": true}\n'
            '{"family": "inferior-regular", "moduli": [2, 3], "trunc": 0, ' + checks
            + ', "regular_differs_at": 0, "coefficients": [0], "pass": true}\n'
        )


class TestVerifyAll:
    def test_single_modulus_runs_everything(self, capsys):
        code, out, err = run(
            capsys, "verify", "--scope", "all", "--moduli", "3", "--n", "6..7",
            "--trunc", "10",
        )
        assert code == 0
        assert "X=25" in out
        assert "class_regular_lengths=35" in out
        assert "family=inferior-regular" in out

    def test_tuple_skips_length(self, capsys):
        code, out, err = run(
            capsys, "verify", "--scope", "all", "--moduli", "2,3", "--n", "6",
            "--trunc", "10",
        )
        assert code == 0
        assert "length: skipped" in err
        assert "family=regular" in out

    def test_size_and_truncation_zero(self, capsys):
        code, out, err = run(
            capsys, "verify", "--scope", "all", "--moduli", "3", "--n", "0", "--trunc", "0"
        )
        assert (code, err) == (0, "")
        assert out == (
            "moduli=3 n=0 j=1 X=0 Y=0 diff=0 c=0 inferior=0 hypothesis=true PASS\n"
            "moduli=3 n=0 j=2 X=0 Y=0 diff=0 c=0 inferior=0 hypothesis=true PASS\n"
            "modulus=3 n=0 class_regular_lengths=0 regular_lengths=0 operations=0 PASS\n"
            "family=all moduli= trunc=0 count_mismatch=none operations_mismatch=none "
            "regular_differs_at=none PASS\n"
            "family=class-regular moduli=3 trunc=0 count_mismatch=none "
            "operations_mismatch=none regular_differs_at=none PASS\n"
            "family=regular moduli=3 trunc=0 count_mismatch=none operations_mismatch=none "
            "regular_differs_at=none PASS\n"
            "family=inferior-regular moduli=3 trunc=0 count_mismatch=none "
            "operations_mismatch=none regular_differs_at=0 PASS\n"
        )

    @pytest.mark.parametrize(
        "trunc, rule",
        [("600", "refusing truncation 600 above 500"),
         ("-1", "truncation must be nonnegative, got -1")],
    )
    def test_bad_truncation_is_refused_before_any_output(self, capsys, trunc, rule):
        code, out, err = run(
            capsys, "verify", "--scope", "all", "--moduli", "3", "--n", "0..1",
            "--trunc", trunc,
        )
        assert code == 2
        assert out == ""
        assert rule in err


# (command, exit code, SHA-256 of stdout, exact stderr): pinned output of every
# command and format, including an informational FAIL table and a refusal
GOLDEN = [
    (
        "verify --scope all --moduli 3 --n 0..12 --trunc 20",
        0,
        "83ed54ffc2bb3b20ee7cdc1058c6293743a78de253b959fdf0a48fd6cb1c0434",
        "",
    ),
    (
        "verify --scope all --moduli 3,5 --n 0..10 --trunc 15 --format csv",
        0,
        "858e876c8d3b635f5cfe12bf4f077d0bb5d695e3303ae42d4ec427bc636cfd16",
        "length: skipped, needs a single modulus\n",
    ),
    (
        "verify --scope all --moduli 2 --n 0..10 --trunc 20 --format jsonl",
        0,
        "43b870431b14ddcac62a0991ba9ce19ee826a2c8d7a41b7549471f9d084ddd5d",
        "",
    ),
    (
        "verify --scope series --moduli 2,3 --trunc 25",
        0,
        "b0f681632beefa3638829c47d26ef2b79ce882c4ad87d008d561ac0f9276fbbf",
        "",
    ),
    (
        "verify --scope series --moduli 3,7 --trunc 25 --format jsonl",
        0,
        "e72595b10179bdc7fb899e7b492515efbaf308e0525508e751b464f054ecd87b",
        "",
    ),
    (
        "verify --scope xyc --moduli 2,3,7 --n 0..20",
        0,
        "2d45cff2d49eaebc4d2955b862dc3d24df5198bd716253b71f8d5ee91982c9a1",
        "",
    ),
    (
        "verify --scope xyc --moduli 3,5 --n 0..8",
        0,
        "5632e840a4559cddb6fdaa0ca137c1009a8751e508433298dfccda15712da782",
        "",
    ),
    (
        "verify --scope length --moduli 5 --n 0..20 --format csv",
        0,
        "d7b706d94003b62d70482f041b62f3e58b32a85b7948a8cf7622fcc3e46ecbc0",
        "",
    ),
    (
        "verify --scope length --moduli 2,3 --n 6",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: UsageError: length scope needs a single modulus\n",
    ),
    (
        "enumerate --class all --n=5..3",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: UsageError: bad range '5..3'\n",
    ),
    (
        "enumerate --class all --n=-3",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: UsageError: size must be nonnegative, got -3\n",
    ),
    (
        "enumerate --class all --moduli 3 --n 3",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: UsageError: the all class takes no moduli\n",
    ),
    (
        "enumerate --class irp --moduli 3,7 --n 18 --format csv",
        0,
        "13a784740bff0f206bc3adb90739cd54b89afa68e98a802cd234efdf491276e4",
        "",
    ),
    (
        "enumerate --class cp --moduli 3 --n 12",
        0,
        "c2649cc24ebabe28a05d0995d8fe3b7b7f5264f014304e398505e0a17d104526",
        "",
    ),
    (
        "enumerate --class all --n 10 --format jsonl",
        0,
        "35eed4ea0a783ec991c5486244f7d7edbdb041cf86455ad7ffcd51a788ffae0c",
        "",
    ),
    (
        "enumerate --class all --n 0 --format csv",
        0,
        "081f16411d659481ce99352f37fd71d9bd53139e22ddfbcce6098d2eed959844",
        "",
    ),
    (
        "enumerate --class cp --moduli 3 --n 4 --format csv",
        0,
        "5d618ffd75bcc53b1dadb8ba887ece4c8bc5519a80fd5be350399b2d08ee371b",
        "",
    ),
    (
        "enumerate --class all --n 0 --format jsonl",
        0,
        "60930e6eba8b1cca8adfce3b39afba809141522d214c6997061c31a151acd700",
        "",
    ),
    (
        "enumerate --class irp --moduli 3 --n 0",
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "",
    ),
    (
        "glaisher --parts 4,2 --r 2 --inverse --format csv",
        0,
        "ba8c56adb6e1964f5f564ad75f425a95afc44f255d6b438caf420d3c8cd3230f",
        "",
    ),
    (
        "glaisher --parts 1,1,1,1,1,1,3,3,3 --r 3",
        0,
        "da8a8dae5a45e17e8c5a2755ed34cfa3cf3279bfe0c7b5e4e4f92c1731bbd41c",
        "",
    ),
    (
        "glaisher --parts 1,1,2,2,2,4 --r 2 --format jsonl",
        0,
        "92cccbd021caf8b28835f2d61c4560fb88d0d04ea0547c1f1c858be35d50898f",
        "",
    ),
    (
        "glaisher --parts 12,9,6,3 --r 3 --inverse",
        0,
        "c907d26872a673243b3e9ba443a49444abd94fb5e11558913ff5e9d0da25007d",
        "",
    ),
    (
        "glaisher --parts '' --r 2 --format jsonl",
        0,
        "8f3c377b20cb7dbd0ba63af71327c2845eb75e5df456da052cd884a4859ec444",
        "",
    ),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("command, code, digest, err", GOLDEN)
    def test_command(self, capsys, command, code, digest, err):
        got_code, out, got_err = run(capsys, *shlex.split(command))
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert got_err == err


def _readme_commands():
    """(arguments, shown output lines) for every ``$ regpart ...`` line in the
    README's sh blocks; the output is the lines after it, up to a blank line."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", readme.read_text(), re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ regpart "):
                shown = []
                commands.append((line.removeprefix("$ regpart "), shown))
            elif line and shown is not None:
                shown.append(line)
            else:
                shown = None
    return commands


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize(
    "command, shown", README_COMMANDS, ids=[command for command, _ in README_COMMANDS]
)
def test_readme_command(capsys, command, shown):
    # output shown in full must match byte for byte; where the README elides
    # it with "...", the lines before and after the ellipsis must match
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, err) == (0, "")
    if "..." in shown:
        cut = shown.index("...")
        lines = out.splitlines()
        assert lines[:cut] == shown[:cut]
        assert lines[len(lines) - len(shown[cut + 1:]):] == shown[cut + 1:]
    elif shown:
        assert out == "".join(line + "\n" for line in shown)


ORACLE_MODULI = [(2,), (3,), (5,), (2, 3), (3, 7)]


def _oracle_rows(family, moduli, n, fmt):
    """The enumerate output built from the test oracles and the json and csv
    modules alone."""
    head, tail = moduli[0], moduli[1:]
    member = {
        "all": lambda parts: True,
        "cp": lambda parts: in_class_regular(parts, moduli),
        "rp": lambda parts: in_regular(parts, head, tail),
        "irp": lambda parts: in_inferior(parts, head, tail),
    }[family]
    return _enumerate_text([list(parts) for parts in partitions_desc(n) if member(parts)], fmt)


def _enumerate_text(members, fmt):
    """The enumerate output for lists of parts, by the json and csv modules."""
    if fmt == "jsonl":
        return "".join(json.dumps({"partition": parts}) + "\n" for parts in members)
    lines = [json.dumps(parts, separators=(",", ":")) for parts in members]
    if fmt == "plain":
        return "".join(line + "\n" for line in lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["partition"])
    writer.writerows([line] for line in lines)
    return out.getvalue()


class TestEnumerateAgainstOracle:
    # capsys is read and cleared by each run, so examples do not share output
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        family=st.sampled_from(["all", "cp", "rp", "irp"]),
        moduli=st.sampled_from(ORACLE_MODULI),
        n=st.integers(0, 14),
        fmt=st.sampled_from(["plain", "csv", "jsonl"]),
    )
    def test_stdout_matches_the_oracle(self, capsys, family, moduli, n, fmt):
        argv = ["enumerate", "--class", family, "--n", str(n), "--format", fmt]
        if family != "all":
            argv += ["--moduli", ",".join(map(str, moduli))]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _oracle_rows(family, moduli, n, fmt)


VERIFY_ORACLE_MODULI = [(3,), (5,), (2, 3), (3, 5)]
XYC_HEADER = ["moduli", "n", "j", "X", "Y", "diff", "c", "inferior", "hypothesis", "pass"]
LENGTH_HEADER = ["modulus", "n", "class_regular_lengths", "regular_lengths", "operations", "pass"]


def _verify_oracle_rows(scope, moduli, n):
    """The cells of the xyc or length rows of one size, from brute-force
    partitions and the family definitions."""
    head, tail = moduli[0], moduli[1:]
    partitions = list(partitions_desc(n))
    class_regular = [parts for parts in partitions if in_class_regular(parts, moduli)]
    regular = [parts for parts in partitions if in_regular(parts, head, tail)]
    operations = sum(merge_count_closed_form(parts, head) for parts in class_regular)
    if scope == "length":
        lengths = sum(map(len, class_regular)), sum(map(len, regular))
        return [[head, n, *lengths, operations,
                 lengths[0] - lengths[1] == (head - 1) * operations]]
    inferior = sum(1 for parts in partitions if in_inferior(parts, head, tail))
    hypothesis = all(modulus % head == 1 for modulus in tail)
    rows = []
    for j in range(1, head):
        x = sum(count_congruent_parts(parts, head, j) for parts in class_regular)
        y = sum(count_repeated_sizes(parts, j) for parts in regular)
        rows.append([list(moduli), n, j, x, y, x - y, operations, inferior, hypothesis,
                     x - y == operations == inferior])
    return rows


def _verify_text(header, rows, fmt):
    """The verify output for rows of cells, by the json and csv modules: out
    of jsonl a list is joined by commas and a bool reads true or false, and
    a plain row ends in PASS or FAIL instead of its pass cell."""
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows)

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    if fmt == "plain":
        return "".join(
            " ".join(f"{name}={cell(value)}" for name, value in zip(header, row[:-1]))
            + (" PASS\n" if row[-1] else " FAIL\n")
            for row in rows
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(value) for value in row] for row in rows)
    return out.getvalue()


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
    @pytest.mark.parametrize("scope, moduli", [
        *(("xyc", moduli) for moduli in VERIFY_ORACLE_MODULI),
        *(("length", moduli) for moduli in VERIFY_ORACLE_MODULI if len(moduli) == 1),
    ])
    def test_stdout_matches_the_oracle(self, capsys, scope, moduli, fmt):
        # every size n <= 10; the (3, 5) rows fail without the hypothesis,
        # which leaves the exit code 0
        code, out, err = run(capsys, "verify", "--scope", scope, "--n", "0..10", "--format", fmt,
                             "--moduli", ",".join(map(str, moduli)))
        assert (code, err) == (0, "")
        rows = [row for n in range(11) for row in _verify_oracle_rows(scope, moduli, n)]
        header = XYC_HEADER if scope == "xyc" else LENGTH_HEADER
        assert out == _verify_text(header, rows, fmt)


WRITER_FAMILIES = [("all", None)] + [
    (name, moduli)
    for name in ("cp", "rp", "irp")
    for moduli in [(2,), (3,), (2, 3), (3, 7), (5, 3)]
]
_FAMILY_BUILDERS = {
    "all": lambda moduli: PartitionClass.all_partitions(),
    "cp": PartitionClass.class_regular,
    "rp": PartitionClass.regular,
    "irp": PartitionClass.inferior_regular,
}


class TestEnumerateWritesBlocks:
    @pytest.mark.parametrize("name, moduli", WRITER_FAMILIES)
    def test_stdout_is_the_text_of_enumerate_runs(self, capsys, name, moduli):
        family = _FAMILY_BUILDERS[name](moduli)
        for n in range(21):
            members = [
                [part for part, mult in runs for _ in range(mult)]
                for runs in enumerate_runs(family, n)
            ]
            for fmt in ("plain", "csv", "jsonl"):
                argv = ["enumerate", "--class", name, "--n", str(n), "--format", fmt]
                if moduli is not None:
                    argv += ["--moduli", ",".join(map(str, moduli))]
                assert run(capsys, *argv) == (0, _enumerate_text(members, fmt), "")

    def test_block_tails_are_expanded_once_per_shape(self, capsys, monkeypatch):
        shapes = []
        real = classes._block_tails

        def recorded(*shape):
            shapes.append(shape)
            return real(*shape)

        monkeypatch.setattr(classes, "_block_tails", recorded)
        code, out, _ = run(
            capsys, "enumerate", "--class", "irp", "--moduli", "3", "--n", "30", "--format", "jsonl"
        )
        assert code == 0
        assert 1 < len(shapes) == len(set(shapes)) < len(out.splitlines())


# glaisher writes each state as a block of one member
GLAISHER_TEXT = [
    ("--parts '' --r 2", "[]\ncount=0\n"),
    ("--parts '' --r 2 --format csv", "step,partition\n0,[]\n"),
    ("--parts '' --r 3 --inverse", "[]\ncount=0\n"),
    ("--parts 7 --r 3 --format csv", "step,partition\n0,[7]\n"),
    ("--parts 7 --r 3 --format jsonl", '{"state": [7]}\n{"count": 0}\n'),
    ("--parts 4 --r 2 --inverse", "[4]\n[2,2]\n[2,1,1]\n[1,1,1,1]\ncount=3\n"),
    (
        "--parts 4 --r 2 --inverse --format csv",
        'step,partition\n0,[4]\n1,"[2,2]"\n2,"[2,1,1]"\n3,"[1,1,1,1]"\n',
    ),
    (
        "--parts 4 --r 2 --inverse --format jsonl",
        '{"state": [4]}\n{"state": [2, 2]}\n{"state": [2, 1, 1]}\n'
        '{"state": [1, 1, 1, 1]}\n{"count": 3}\n',
    ),
    ("--parts 3,3,3,1 --r 3 --format csv", 'step,partition\n0,"[3,3,3,1]"\n1,"[9,1]"\n'),
    (
        "--parts 3,3,3,1 --r 3 --format jsonl",
        '{"state": [3, 3, 3, 1]}\n{"state": [9, 1]}\n{"count": 1}\n',
    ),
]


@pytest.mark.parametrize("args, text", GLAISHER_TEXT)
def test_glaisher_text(capsys, args, text):
    assert run(capsys, "glaisher", *shlex.split(args)) == (0, text, "")


def _record_stdout_at_each_call(monkeypatch, module, name):
    # replace stdout and wrap the named function of the module; each call
    # records the call's arguments and what stdout held when it started
    out = io.StringIO()
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        calls.append((args, out.getvalue()))
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    monkeypatch.setattr(sys, "stdout", out)
    return out, calls


class TestStreaming:
    def test_first_xyc_row_is_written_before_the_last_size_is_computed(self, monkeypatch):
        out, calls = _record_stdout_at_each_call(monkeypatch, cli, "aggregate")
        assert main(["verify", "--scope", "xyc", "--moduli", "3", "--n", "0..6"]) == 0
        first_row = out.getvalue().splitlines()[0]
        (_, last_n), written = calls[-1]
        assert last_n == 6
        assert written.startswith(first_row + "\n")

    def test_series_rows_are_written_before_the_inferior_check_starts(self, monkeypatch):
        # every count walks the family's blocks, so the first inferior-regular
        # walk starts the inferior check
        _, calls = _record_stdout_at_each_call(monkeypatch, classes, "_family_blocks")
        assert main(["verify", "--scope", "series", "--moduli", "3", "--trunc", "8"]) == 0
        inferior = PartitionClass.inferior_regular(3)
        written = next(written for (family, _), written in calls if family == inferior)
        rows = [line.split()[0] for line in written.splitlines()]
        assert rows == ["family=all", "family=class-regular", "family=regular"]

    def test_internal_error_keeps_the_rows_already_written(self, capsys, monkeypatch):
        _, earlier, _ = run(capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "0..3")
        real = cli.aggregate

        def broken(moduli, n):
            if n == 4:
                raise RuntimeError("internal fault")
            return real(moduli, n)

        monkeypatch.setattr(cli, "aggregate", broken)
        code, out, err = run(capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "0..4")
        assert code == 3
        assert out == earlier != ""
        assert "Traceback" in err
        assert "RuntimeError: internal fault" in err

    @pytest.mark.parametrize("argv", [
        ["--scope", "length", "--moduli", "1009"],
        ["--scope", "xyc", "--moduli", "307"],
    ], ids=["length", "xyc"])
    def test_memory_does_not_grow_with_the_number_of_sizes(self, monkeypatch, argv):
        # stdout keeps nothing, so the traced peak is what the run itself
        # holds; a first untraced run fills every bounded cache beforehand.
        # Both heads are above the plain limit, hence --force
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())

        def peak(sizes):
            tracemalloc.start()
            try:
                assert main(["verify", *argv, "--force", "--n", sizes]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(["verify", *argv, "--force", "--n", "0..12"]) == 0
        assert peak("0..12") < 1.5 * peak("0..1")


class TestClosedPipe:
    # the reader takes a few bytes, or none, and goes away; the glaisher output
    # is small enough to sit in the buffer until the command has finished
    @pytest.mark.parametrize(
        "command, taken",
        [
            ("enumerate --class all --n 40", 10),
            ("verify --scope series --moduli 3 --trunc 40", 10),
            ("glaisher --parts 4,2 --r 2 --inverse", 0),
        ],
    )
    def test_reader_going_away_exits_141_quietly(self, command, taken):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "regpart.cli", *shlex.split(command)]
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            assert len(proc.stdout.read(taken)) == taken
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        first = run(capsys, "verify", "--scope", "all", "--moduli", "3", "--n", "5..7", "--trunc", "10")
        second = run(capsys, "verify", "--scope", "all", "--moduli", "3", "--n", "5..7", "--trunc", "10")
        assert first == second


def _xyc_row(moduli, ok):
    return XYCRow(
        moduli=validate_tuple(moduli), n=5, residue=1, x_total=4, y_total=2,
        operation_total=2 if ok else 3, inferior_count=2,
    )


GOOD_LENGTH = LengthCheck(2, 3, 4, 3, 1)
BAD_LENGTH = LengthCheck(2, 3, 4, 3, 2)
GOOD_SERIES = SeriesCheck(PartitionClass.regular(2), TruncatedSeries([1, 1, 1]), None, None)
BAD_SERIES = SeriesCheck(PartitionClass.regular(2), TruncatedSeries([1, 1, 1]), 2, None)


@pytest.mark.parametrize(
    "scope, moduli, results, code",
    [
        ("xyc", "3", [_xyc_row(3, False)], 1),
        ("xyc", "3,5", [_xyc_row((3, 5), False)], 0),
        ("xyc", "3", [_xyc_row(3, True)], 0),
        ("xyc", "3", [_xyc_row(3, False), _xyc_row(3, True)], 1),
        ("length", "2", [GOOD_LENGTH], 0),
        ("length", "2", [BAD_LENGTH, GOOD_LENGTH], 1),
        ("series", "2", [GOOD_SERIES], 0),
        ("series", "2", [BAD_SERIES, GOOD_SERIES], 1),
    ],
    ids=["xyc-fail", "xyc-informational", "xyc-pass", "xyc-fail-then-pass", "length-pass",
         "length-fail-then-pass", "series-pass", "series-fail-then-pass"],
)
def test_exit_status_is_read_from_the_rows_written(
    capsys, monkeypatch, scope, moduli, results, code
):
    # each size's report, or the series section, yields the crafted results
    # in turn; a FAIL row counts only under its hypothesis, and every row is
    # still written after a failure
    crafted = iter(results)
    monkeypatch.setattr(cli, "verify_xyc", lambda report: (next(crafted),))
    monkeypatch.setattr(cli, "verify_length_identity", lambda report: next(crafted))
    monkeypatch.setattr(cli, "verify_series_vs_enumeration", lambda moduli, trunc: crafted)
    got, out, err = run(capsys, "verify", "--scope", scope, "--moduli", moduli,
                        "--n", f"0..{len(results) - 1}", "--trunc", "2")
    assert (got, err) == (code, "")
    assert [line.split()[-1] for line in out.splitlines()] == [
        "PASS" if result.ok else "FAIL" for result in results
    ]


class TestGuards:
    def test_refused_range_is_never_built(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "0..2000000"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "refusing n=2000000 above 200" in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--scope", "xyc", "--moduli", "3"],
             f"refusing n={10**30} above 200; pass --force to override"),
            (["enumerate", "--class", "all"], "enumerate takes a single size, not a range"),
        ],
        ids=["verify", "enumerate"],
    )
    def test_huge_range_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--n", f"0..{10**30}")
        assert (code, out, err) == (2, "", f"error: UsageError: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scope", "series", "--n", "abc"], "cannot parse size 'abc'"),
            (["--scope", "series", "--n", "201"],
             "refusing n=201 above 200; pass --force to override"),
            (["--scope", "xyc", "--n", "2", "--trunc", "-7"],
             "truncation must be nonnegative, got -7"),
            (["--scope", "xyc", "--n", "2", "--trunc", "600"],
             "refusing truncation 600 above 500; pass --force to override"),
        ],
        ids=["series-bad-n", "series-big-n", "xyc-negative-trunc", "xyc-big-trunc"],
    )
    def test_every_input_is_checked_whatever_the_scope(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--moduli", "3", *argv)
        assert (code, out, err) == (2, "", f"error: UsageError: {message}\n")

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["enumerate", "--class", "all", "--n", str(10**30)], f"n={10**30}"),
            (["verify", "--scope", "xyc", "--moduli", "3", "--n", str(10**30)], f"n={10**30}"),
            (["verify", "--scope", "series", "--moduli", "3", "--trunc", str(10**30)],
             f"truncation {10**30}"),
        ],
        ids=["enumerate-n", "verify-n", "verify-trunc"],
    )
    def test_force_stops_at_the_index_limit(self, capsys, argv, what):
        code, out, err = run(capsys, *argv, "--force")
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        limit = sys.maxsize - 1
        assert err == f"error: UsageError: refusing {what} above {limit}, even with --force\n"

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    @pytest.mark.parametrize("scope", ["xyc", "length", "all"])
    @pytest.mark.parametrize("head", [10**22 - 1, sys.maxsize])
    def test_head_above_the_index_limit_is_refused(self, capsys, head, scope, force):
        code, out, err = run(
            capsys, "verify", "--scope", scope, "--moduli", str(head), "--n", "3",
            *(["--force"] if force else []),
        )
        hint = f"{sys.maxsize - 1}, even with --force" if force else "200; pass --force to override"
        assert (code, out) == (2, "")
        assert err == f"error: UsageError: refusing head modulus {head} above {hint}\n"

    @pytest.mark.parametrize("scope", ["xyc", "length", "all"])
    def test_head_boundary(self, capsys, scope):
        argv = ["verify", "--scope", scope, "--n", "3", "--trunc", "0"]
        code, out, err = run(capsys, *argv, "--moduli", str(MAX_PLAIN_N))
        assert (code, err) == (0, "")
        xyc_rows = [line for line in out.splitlines() if " j=" in line]
        assert len(xyc_rows) == (0 if scope == "length" else MAX_PLAIN_N - 1)
        code, out, err = run(capsys, *argv, "--moduli", str(MAX_PLAIN_N + 1))
        assert (code, out) == (2, "")
        assert err == (
            f"error: UsageError: refusing head modulus {MAX_PLAIN_N + 1} above {MAX_PLAIN_N}; "
            "pass --force to override\n"
        )
        assert run(capsys, *argv, "--moduli", str(MAX_PLAIN_N + 1), "--force")[0] == 0

    def test_forced_head_writes_one_row_per_residue(self, capsys):
        # the statistics are sized by n, so 100,002 rows take seconds
        code, out, err = run(
            capsys, "verify", "--scope", "xyc", "--moduli", "100003", "--n", "2", "--force"
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2a77ad5ff4451fbf9404afc9fc4536055b02c0a3cf377465d8e4501fb16ed41"
        )

    def test_guard_n(self):
        _guard("n=", 200, MAX_PLAIN_N, False)
        _guard("n=", 500, MAX_PLAIN_N, True)
        _guard("n=", sys.maxsize - 1, MAX_PLAIN_N, True)
        with pytest.raises(UsageError):
            _guard("n=", sys.maxsize, MAX_PLAIN_N, True)
        with pytest.raises(UsageError):
            _guard("n=", 201, MAX_PLAIN_N, False)

    def test_guard_trunc(self):
        _guard("truncation ", 500, MAX_PLAIN_TRUNC, False)
        _guard("truncation ", 501, MAX_PLAIN_TRUNC, True)
        with pytest.raises(UsageError):
            _guard("truncation ", 501, MAX_PLAIN_TRUNC, False)


class TestErrorMapping:
    def test_non_positive_part_is_usage_error(self, capsys):
        code, _, err = run(capsys, "glaisher", "--parts", "0", "--r", "2")
        assert code == 2
        assert "UsageError" in err

    def test_negative_truncation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "series", "--moduli", "3", "--trunc", "-1")
        assert code == 2
        assert "UsageError" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--scope", "xyc", "--moduli", "\uff13", "--n", "10"],
             "cannot parse moduli '\uff13'"),
            (["verify", "--scope", "xyc", "--moduli", "3", "--n", "1_0"],
             "cannot parse size '1_0'"),
            (["verify", "--scope", "xyc", "--moduli", "3", "--n", "0..\u0661"],
             "cannot parse range '0..\u0661'"),
            (["verify", "--scope", "length", "--moduli", "3", "--n", "+-4"],
             "cannot parse size '+-4'"),
            (["enumerate", "--class", "cp", "--moduli", "3_0", "--n", "4"],
             "cannot parse moduli '3_0'"),
            (["enumerate", "--class", "all", "--n", "0x4"], "cannot parse size '0x4'"),
            (["glaisher", "--parts", "2,1_0", "--r", "2"], "cannot parse parts '2,1_0'"),
            (["glaisher", "--parts", "1,1,1", "--r", "\uff13"], "cannot parse modulus '\uff13'"),
            (["verify", "--scope", "series", "--moduli", "3", "--trunc", "0_3"],
             "cannot parse truncation '0_3'"),
        ],
        ids=["fullwidth-modulus", "underscore-size", "arabic-indic-range", "two-signs",
             "underscore-modulus", "hex-size", "underscore-part", "fullwidth-r",
             "underscore-trunc"],
    )
    def test_integers_are_a_sign_and_ascii_digits(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: UsageError: {message}\n")

    def test_integers_may_carry_a_sign_and_spaces(self, capsys):
        spaced = run(capsys, "verify", "--scope", "xyc", "--moduli", " 3, +5 ", "--n", " +2..4 ")
        assert spaced == run(capsys, "verify", "--scope", "xyc", "--moduli", "3,5", "--n", "2..4")
        assert spaced[0] == 0 and spaced[1]

    def test_internal_value_error_exits_3_with_traceback(self, capsys, monkeypatch):
        # library errors that no user input can reach are internal faults too
        for error in (ValueError, InvalidTriple):
            def broken(moduli, n):
                raise error("internal fault")

            monkeypatch.setattr("regpart.cli.aggregate", broken)
            code, out, err = run(capsys, "verify", "--scope", "xyc", "--moduli", "3", "--n", "4")
            assert code == 3
            assert out == ""
            assert "Traceback" in err
            assert f"{error.__name__}: internal fault" in err


# Token pools for the argv fuzz. The well-formed values are small, and every
# over-limit value lies above the size, truncation and head limits alike, so
# an unforced run either stays small or is refused. No draw pairs --force or
# glaisher --inverse with an over-limit value: the work guard bounds neither
# yet.
FUZZ_SMALL = {
    "--n": ["0", "1", "4", "7", "0..3", "2..5"],
    "--moduli": ["2", "3", "5", "2,3", "3,5", "2,3,7", "3,2", "2,4", "1"],
    "--trunc": ["0", "3", "6"],
    "--parts": ["", "4,2", "1,1,1,1", "6,3,3", "9,3,1", "2,2"],
    "--r": ["1", "2", "3"],
    "--modulus": ["1", "2", "3"],
}
FUZZ_MALFORMED = ["", " ", "x", "3..", "..3", "5..2", "1_0", "3,,5", ",", "0x4", "2.0", "--n", "-"]
FUZZ_SIGNED = ["-1", "+3", "-0", " +2 ", "+-4", "-2..3", "+1..+3", "-3,5"]
FUZZ_NON_ASCII = ["\uff13", "\u0663", "\u00e9", "3\u00a0", "\u2167", "0..\u0661"]
FUZZ_OVER_LIMIT = ["501", "0..501", "1025", str(10**30), "9" * 22, str(sys.maxsize)]
FUZZ_CHOICES = {
    "--class": [*sorted(cli._CLASS_NAMES), "none"],
    "--scope": ["xyc", "length", "series", "all", "none"],
    "--format": ["plain", "csv", "jsonl", "xml"],
}
FUZZ_FLAGS = {
    "enumerate": ["--class", "--moduli", "--n", "--format", "--force"],
    "glaisher": ["--parts", "--r", "--modulus", "--inverse", "--format"],
    "verify": ["--scope", "--moduli", "--n", "--format", "--force"],
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    # each flag comes three times in four, and a well-formed value half the time
    flags = [flag for flag in FUZZ_FLAGS[command] if draw(st.sampled_from([1, 1, 1, 0]))]
    if command == "verify":
        flags.append("--trunc")  # the default degree 60 takes seconds
    pools = [FUZZ_MALFORMED, FUZZ_SIGNED, FUZZ_NON_ASCII]
    if "--force" not in flags and "--inverse" not in flags:
        pools.append(FUZZ_OVER_LIMIT)
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in FUZZ_CHOICES:
            argv.append(draw(st.sampled_from(FUZZ_CHOICES[flag])))
        elif flag in FUZZ_SMALL:
            pool = draw(st.sampled_from([FUZZ_SMALL[flag]] * len(pools) + pools))
            argv.append(draw(st.sampled_from(pool)))
    return argv


class TestFuzz:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(argv=_fuzz_argv())
    def test_every_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
