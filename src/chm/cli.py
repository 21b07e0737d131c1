"""Command-line surface.

Matrix arguments accept a registry name (`M1`), a family point
(`family:1.0,0.5`), or a JSON file (`@matrix.json`). Exit codes:
0 success/affirmative, 1 negative verdict, 2 unknown name, 3 invalid
matrix or parameters, 4 search timeout, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .census import census_2x2, find_3x3_sub_chms, h2_block_structure
from .core import (
    DEFAULT_EPS,
    Tolerance,
    json_dumps,
    loads_matrix,
    matrix_to_obj,
)
from .equivalence import are_equivalent, count_real_entries, dephase
from .errors import ChmError, SearchTimeoutError, UnknownNameError
from .families import FamilyPoint, family_h, named, registry_entries
from .mub import exclusion_report, mu_pair
from .scan import ScanConfig, summary_line, write_scan

EXIT_NEGATIVE = 1
EXIT_UNKNOWN_NAME = 2
EXIT_INVALID = 3
EXIT_TIMEOUT = 4
EXIT_IO = 5
# The exit code of an error: the first kind it is an instance of.
_ERROR_EXITS = ((UnknownNameError, EXIT_UNKNOWN_NAME), (SearchTimeoutError, EXIT_TIMEOUT),
                ((ChmError, ValueError), EXIT_INVALID), (OSError, EXIT_IO))


def _default_eps() -> float:
    return float(os.environ.get("CHM_TOL", DEFAULT_EPS))


def _tol(args) -> Tolerance:
    return Tolerance(args.tol if args.tol is not None else _default_eps())


def _resolve_matrix(arg: str):
    """Turn a matrix argument into an array (name, family point, or @file)."""
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return loads_matrix(fh.read())
    if arg.startswith("family:"):
        parts = arg[len("family:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected family:x1,x2, got {arg!r}")
        return family_h(FamilyPoint(float(parts[0]), float(parts[1])))
    return named(arg).matrix


def _emit(obj) -> None:
    print(json_dumps(obj))


def _cmd_show(args) -> int:
    _emit(matrix_to_obj(named(args.name).matrix))
    return 0


def _cmd_registry(args) -> int:
    _emit([{"name": e.name, "provenance": e.provenance} for e in registry_entries()])
    return 0


def _run(matrices, check, args) -> int:
    # The path of every matrix command but equiv. The matrices resolve before
    # the tolerance, so an unknown name exits 2 ahead of a bad --tol or CHM_TOL.
    resolved = [_resolve_matrix(getattr(args, name)) for name in matrices]
    obj, code = check(*resolved, _tol(args))
    _emit(obj)
    return code


def _census3(M, tol):
    locs = find_3x3_sub_chms(M, tol)
    return {"count": len(locs), "locations": [loc.to_obj() for loc in locs]}, 0


def _h2(M, tol):
    structure = h2_block_structure(M, tol)
    if structure is None:
        return {"found": False}, EXIT_NEGATIVE
    return {"found": True, **structure.to_obj()}, 0


def _mu(F, G, tol):
    verdict = mu_pair(F, G, tol)
    return verdict.to_obj(), 0 if verdict.ok else EXIT_NEGATIVE


def _cmd_equiv(args) -> int:
    witness = are_equivalent(
        _resolve_matrix(args.a), _resolve_matrix(args.b), _tol(args), timeout=args.timeout
    )
    if witness is None:
        print("inequivalent")
        return EXIT_NEGATIVE
    _emit(witness.to_obj())
    return 0


def _cmd_scan(args) -> int:
    config = ScanConfig(
        grid_n=args.grid,
        out_path=args.out,
        tol=_tol(args),
        fmt=args.format,
    )
    print(summary_line(write_scan(config)))
    return 0


_TOL = ("--tol", {"type": float, "default": None,
                  "help": "absolute tolerance (default 1e-9, or the CHM_TOL env var)"})


def _matrix_command(name, help_text, matrices, check):
    # A check maps the resolved matrices and the Tolerance to (stdout object,
    # exit code); every such command takes its matrices and --tol.
    args = tuple((arg, {}) for arg in matrices) + (_TOL,)
    return name, help_text, args, functools.partial(_run, matrices, check)


# (name, help, arguments as (name or flag, add_argument keywords), handler),
# in --help order. equiv has its own handler (--timeout, a plain
# "inequivalent" line) instead of a check.
_COMMANDS = (
    ("show", "print a registry matrix as JSON", (("name", {}),), _cmd_show),
    ("registry", "list registry matrices",
     (("action", {"nargs": "?", "default": "list", "choices": ["list"]}),), _cmd_registry),
    _matrix_command("census", "count 2x2 sub-CHM submatrices", ("matrix",),
                    lambda M, tol: (census_2x2(M, tol).to_obj(), 0)),
    _matrix_command("census3", "locate 3x3 sub-CHM submatrices", ("matrix",), _census3),
    _matrix_command("h2", "find a 2x2 block pairing structure", ("matrix",), _h2),
    ("equiv", "search for a complex-equivalence witness",
     (("a", {}), ("b", {}), _TOL,
      ("--timeout", {"type": float, "default": 120.0, "help": "search budget in seconds"})),
     _cmd_equiv),
    _matrix_command("mu", "check mutual unbiasedness of two bases", ("f", "g"), _mu),
    _matrix_command("exclusions", "evaluate trio-exclusion rules", ("matrix",),
                    lambda M, tol: (exclusion_report(M, tol).to_obj(), 0)),
    _matrix_command("dephase", "print the dephased form", ("matrix",),
                    lambda M, tol: (matrix_to_obj(dephase(M, tol)), 0)),
    _matrix_command("real", "count real entries", ("matrix",),
                    lambda M, tol: ({"count": count_real_entries(M, tol)}, 0)),
    ("scan", "grid sweep of the family census",
     (("--grid", {"type": int, "required": True, "help": "points per axis (>= 2)"}),
      ("--out", {"required": True, "help": "output file path"}),
      ("--format", {"choices": ["csv", "json"], "default": "csv"}), _TOL),
     _cmd_scan),
)


def _convert(spec, text):
    # argparse's conversion and choices check of one argument; TypeError or
    # ValueError where argparse reports an error.
    value = spec.get("type", str)(text)
    if value not in spec.get("choices", (value,)):
        raise ValueError(text)
    return value


def _read_plain(argv):
    """The namespace argparse gives a plain argv, read from _COMMANDS, or None.

    Plain: a command name, then its exact option names each followed by one
    value that does not start with "-", and as many positionals as it takes,
    in any order. Anything else (help, usage errors, --opt=value, abbreviated
    options, "--", dash-leading values) returns None, for argparse to handle.
    """
    command = next((c for c in _COMMANDS if argv and argv[0] == c[0]), None)
    if command is None or not all(isinstance(token, str) for token in argv):
        return None
    name, _, arguments, handler = command
    specs = dict(arguments)
    values = {"command": name, "func": handler}
    values.update((arg.lstrip("-"), spec.get("default")) for arg, spec in arguments)
    pending = [arg for arg in specs if not arg.startswith("-")]  # positionals, in order
    seen = set()
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                if not pending:
                    return None
                arg, text = pending.pop(0), token
            else:
                arg, text = token, next(tokens, "-")
                if arg not in specs or text.startswith("-"):
                    return None
            values[arg.lstrip("-")] = _convert(specs[arg], text)
            seen.add(arg)
    except (TypeError, ValueError):
        return None
    if any(specs[arg].get("nargs") != "?" for arg in pending) or any(
        spec.get("required") and arg not in seen for arg, spec in arguments
    ):
        return None
    return argparse.Namespace(**values)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, but 2 means "unknown name" here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The chm parser, with every command's subparser."""
    parser = _Parser(
        prog="chm",
        description="Structure checks and censuses for 6x6 complex Hadamard matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A plain invocation needs no parser (argparse's first build in a process costs
    # ~20x the reader); argparse handles help, usage errors and every other form.
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
