"""The CLI surface pinned byte for byte: help text, stdout and exit codes.

Every expected value was recorded from the CLI as it stood before its
matrix commands shared one dispatch path; the usage errors, from the CLI
as it stood before it built only the invoked command's subparser.
COLUMNS=80 fixes argparse's line wrapping.
"""

import hashlib
import itertools
import sys

import pytest

from chm import cli
from chm.cli import main

TOP_HELP = """\
usage: chm [-h]
           {show,registry,census,census3,h2,equiv,mu,exclusions,dephase,real,scan}
           ...

Structure checks and censuses for 6x6 complex Hadamard matrices.

positional arguments:
  {show,registry,census,census3,h2,equiv,mu,exclusions,dephase,real,scan}
    show                print a registry matrix as JSON
    registry            list registry matrices
    census              count 2x2 sub-CHM submatrices
    census3             locate 3x3 sub-CHM submatrices
    h2                  find a 2x2 block pairing structure
    equiv               search for a complex-equivalence witness
    mu                  check mutual unbiasedness of two bases
    exclusions          evaluate trio-exclusion rules
    dephase             print the dephased form
    real                count real entries
    scan                grid sweep of the family census

options:
  -h, --help            show this help message and exit
"""

HELP_SHA256 = {
    "show": "4254857f41dc80e02c9737a6cf5381432d862d0bd70f5efb5d75095929307f2a",
    "registry": "1615ee8a60156edff6a0ff7b17cad6c0f447aea3717e1036e8c315308aacbcff",
    "census": "d354ab5d98a4527d2d12b50df2c6bab2d9f8e21b1ca4465caedf552fe62a84bb",
    "census3": "88847012ca8a33a1f764d252e886b12435450ff46d319b49857566802e5f3f6d",
    "h2": "cd9b0907642af9cb3f9a770fe944b2e8a693520c53bd9e91fd51c64f36546d55",
    "equiv": "64a817eb54af299ea6a5d38b4f30285ee6a193e7a06e747533ee8226ddb79bde",
    "mu": "5ee317c31834fe485e5cd36f0d59fc9ac25eb440f5d7339fac694fc78a583723",
    "exclusions": "df94a409a756d6f1109ea0f97b65e80df22f302222bcb00068aae4cacbf91b97",
    "dephase": "319e0fe43ce6a140aa5c9b9337c869b78f42326b36c61df4a223d569c6c3f1c0",
    "real": "b9f3fafd10053b26c584dd3aa0a426a05e19e63b6c1adf9f03ca47fdf8050869",
    "scan": "befbfaffa2a299a1e618ba3dde9ba386a0aa2a3c6417ef29ae26c0360bf2f8ea",
}

FAMILY = "family:1.0,0.5"

# (argv, exit code, sha256 of stdout)
STDOUT_SHA256 = [
    (("census", "M1"), 0, "75a0294b4351530c6c4413f9e3d056630314f56f5fb8198ecbae72ad95617bb1"),
    (("census3", "M1"), 0, "93508e481942741dc40b6808fc92eb536456cad21f2c0d2412b93f54711e9f11"),
    (("h2", "M1"), 0, "237341fe5a70c19a225db704e5e157d72ff710ee79f6d1f095b8dd4d5307943b"),
    (("exclusions", "M1"), 0, "f83f4e3ca40f0f64f007ae1ad7ed26f764eddfebb7b85ce4fca1ce60c3896bea"),
    (("dephase", "M1"), 0, "96b2f6af88aedaad8eed1d16a8140440d0707190e837b962dbe575baf0d7c739"),
    (("real", "M1"), 0, "99f776c16e56ce01fa02e500f9a8347376b973f7164843829714040e94da88bc"),
    (("mu", "M1", "F6"), 1, "8c0fff3fde1fb7662a9e0c4a640f1b20db4d70a8374ec7f695e1c1538df7ba1d"),
    (("equiv", "M1", "D0"), 0, "97522fbfb7398a0b5a3633a648cfc48318983ced6af753c215ed03f66b21f7dc"),
    (("census", "S6"), 0, "93508e481942741dc40b6808fc92eb536456cad21f2c0d2412b93f54711e9f11"),
    (("census3", "S6"), 0, "f51c72bd428cc263bdea4a79474f995febe483636f61edd8e686c443ff0f203a"),
    (("h2", "S6"), 1, "a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e"),
    (("exclusions", "S6"), 0, "b67585ad25ee6962af62ad856b4682f364f899691a2c43e1c84da5f13ff7c875"),
    (("dephase", "S6"), 0, "6fd6e58f22019210d6a6331b0ed10ed88adcc87b61c29ae5c09bb389f0f8bcc1"),
    (("real", "S6"), 0, "01cab192aa389aece6028a1d0a569bf80318c2c682c51bdec02ebeccdc34a7be"),
    (("mu", "S6", "F6"), 1, "53b523661f6d773331a84fed16ded4f13cfc5405f9c96b1f976cd8076174447b"),
    (("equiv", "S6", "D0"), 1, "964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37"),
    (("census", FAMILY), 0, "35dbe83294b3f673d78e5ce2bef047549eb260d8803a66ce9dea0aaa25f33076"),
    (("census3", FAMILY), 0, "93508e481942741dc40b6808fc92eb536456cad21f2c0d2412b93f54711e9f11"),
    (("h2", FAMILY), 0, "9853a4ad66b8d6acd851219e580945b793eac02ee2d133c984dd997ab8b7ead9"),
    (("exclusions", FAMILY), 0, "e1095bab5e6ca59b7c8d3fa2b164bfe7f831c9eb6c81a66bff22811276e35d99"),
    (("dephase", FAMILY), 0, "e97cfa43ff5fa756264824b5d3e5d6b203136d8aa94cca336934d13b1634374f"),
    (("real", FAMILY), 0, "6f236426bf110934fe982a336578a0c4943ecfeec8affec6ad2a4a7db1db3a59"),
    (("mu", FAMILY, "F6"), 1, "53b523661f6d773331a84fed16ded4f13cfc5405f9c96b1f976cd8076174447b"),
    (("equiv", FAMILY, "D0"), 1, "964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37"),
]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CHM_TOL", raising=False)


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_top_level_help(capsys):
    assert _help(capsys, ["--help"]) == TOP_HELP


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_subcommand_help(capsys, command):
    assert _sha256(_help(capsys, [command, "--help"])) == HELP_SHA256[command]


@pytest.mark.parametrize("argv, code, digest", STDOUT_SHA256)
def test_matrix_command_stdout(capsys, argv, code, digest):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha256(captured.out) == digest


def test_malformed_env_tolerance_is_read_only_when_needed(capsys, monkeypatch):
    monkeypatch.setenv("CHM_TOL", "abc")
    assert main(["census", "M1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: could not convert string to float: 'abc'\n"
    assert main(["show", "M1"]) == 0
    assert main(["census", "M1", "--tol", "1e-6"]) == 0


TOP_USAGE = """\
usage: chm [-h]
           {show,registry,census,census3,h2,equiv,mu,exclusions,dephase,real,scan}
           ...
"""
SCAN_USAGE = "usage: chm scan [-h] --grid GRID --out OUT [--format {csv,json}] [--tol TOL]\n"
CENSUS_USAGE = "usage: chm census [-h] [--tol TOL] matrix\n"

# (argv, stderr) of usage errors, all exit 3. A command's own subparser
# reports its errors; a top-level error lists every command, whether or not
# argv names one.
USAGE_ERRORS = [
    (("census", "M1", "extra"), TOP_USAGE + "chm: error: unrecognized arguments: extra\n"),
    (("scan", "--grid", "x", "--out", "y"),
     SCAN_USAGE + "chm scan: error: argument --grid: invalid int value: 'x'\n"),
    (("census",), CENSUS_USAGE + "chm census: error: the following arguments are required: matrix\n"),
    (("scan",), SCAN_USAGE + "chm scan: error: the following arguments are required: --grid, --out\n"),
    (("bogus",), TOP_USAGE + "chm: error: argument command: invalid choice: 'bogus' (choose from "
     "'show', 'registry', 'census', 'census3', 'h2', 'equiv', 'mu', 'exclusions', 'dephase', "
     "'real', 'scan')\n"),
    (("census", "--tol"), CENSUS_USAGE + "chm census: error: argument --tol: expected one argument\n"),
    (("equiv", "M1"), "usage: chm equiv [-h] [--tol TOL] [--timeout TIMEOUT] a b\n"
     "chm equiv: error: the following arguments are required: b\n"),
    (("registry", "nope"), "usage: chm registry [-h] [{list}]\n"
     "chm registry: error: argument action: invalid choice: 'nope' (choose from 'list')\n"),
    ((), TOP_USAGE + "chm: error: the following arguments are required: command\n"),
]


@pytest.mark.parametrize("argv, err", USAGE_ERRORS)
def test_usage_errors(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def _count_parsers(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    return built


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch):
    # A plain invocation is read from the command table: no parser at all.
    built = _count_parsers(monkeypatch)
    assert main(["census", "M1"]) == 0
    assert built == []


def test_top_level_help_builds_every_subparser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    _help(capsys, ["--help"])
    assert len(built) == 12


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chm", "census", "M1"])
    assert main() == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert STDOUT_SHA256[0][0] == ("census", "M1")
    assert _sha256(captured.out) == STDOUT_SHA256[0][2]
    monkeypatch.setattr(sys, "argv", ["chm", "census", "M1", "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 3
    assert capsys.readouterr().err == USAGE_ERRORS[0][1]


# --- the plain-argv reader against argparse -----------------------------------

# A valid value per argument, and values argparse rejects or reads as options.
_VALID = {"--grid": "4", "--out": "s.csv", "--format": "json", "--tol": "1e-6",
          "--timeout": "5", "action": "list"}
_BAD = ["x", "-1", "-1e-9", "--tol", "-", "", "xml", "1e-6 ", "nan"]


def _units(arguments):
    # One unit of tokens per argument: a positional's value or [option, value].
    return [[option, _VALID.get(option, "M1")] if option.startswith("-")
            else [_VALID.get(option, f"{option.upper()}1")] for option, _ in arguments]


def _argv_corpus():
    """Plain argvs (every command, its arguments in every order), then forms
    argparse must handle: repeats, =, abbreviations, --, help, dash-leading
    values, extra or missing positionals, bad values, unknown commands."""
    plain, other = [], [[], ["-h"], ["--help"], ["bogus"], ["cen", "M1"], ["census3"], ["--tol"]]
    for name, _, arguments, _ in cli._COMMANDS:
        units = _units(arguments)
        for order in itertools.permutations(units):
            plain.append([name] + [token for unit in order for token in unit])
        base = [name] + [token for unit in units for token in unit]
        plain += [base[:k] for k in range(1, len(base) + 1) if base[:k] != base]  # truncations
        for i, unit in enumerate(units):
            rest = [token for u in units[:i] + units[i + 1:] for token in u]
            other += [[name] + rest, [name] + rest + unit + unit, [name] + unit + rest + ["extra"],
                      [name, "--"] + rest + unit, [name] + rest + unit + ["-h"]]
            if unit[0].startswith("-"):
                other += [[name] + rest + [f"{unit[0]}={unit[1]}"], [name] + rest + [unit[0][:-1], unit[1]],
                          [name] + rest + [unit[0][:4], unit[1]], [name] + rest + [unit[0]],
                          [name] + rest + unit + [unit[0], "1e-7"]]
            other += [[name] + rest + unit[:-1] + [bad] for bad in _BAD]
    return plain, other


def _fields(namespace):
    # By repr, so that a nan value equals itself.
    return {key: repr(value) for key, value in vars(namespace).items()}


def test_plain_argv_reader_matches_argparse(capsys):
    parser = cli.build_parser()
    plain, other = _argv_corpus()
    read = 0
    for argv in plain + other:
        try:
            expected = _fields(parser.parse_args(argv))
        except SystemExit:
            expected = None
        capsys.readouterr()
        got = cli._read_plain(argv)
        assert got is None or _fields(got) == expected, argv
        read += got is not None
        if argv in plain and expected is not None:
            assert got is not None, argv
    assert read > 100 and len(plain + other) > 500


def test_the_argparse_forms_of_a_scan_write_the_same_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--grid", "4", "--out", str(a)]) == 0
    assert main(["scan", "--grid=4", f"--out={b}", "--form", "csv"]) == 0
    assert a.read_bytes() == b.read_bytes()
