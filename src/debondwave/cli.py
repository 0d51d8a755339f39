"""Command line interface.

Subcommands:
    validate <file>       parse a scenario and echo its manifest
    run <file>            execute a scenario, write CSVs and manifest
    verify <suite>        run a named verification suite (or 'all') and
                          report pass/fail lines
    sweep <dir>           run every scenario file in a directory in turn,
                          one "done <name>" or "FAIL <file>: <error>" line each

Exit codes: 0 ok, 1 verification failure, 2 usage/parse error,
3 numerical failure.  A sweep runs every file and exits with the highest
code among its failing files.
"""

import argparse
import json
import os
import sys
import traceback

from .errors import DebondWaveError, ScenarioError, UnknownSuite
from .scenarios import parse_scenario
from .runner import run_scenario
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (ScenarioError, UnknownSuite, FileNotFoundError)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="debondwave",
        description="Wave equation on moving domains: runs and verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a scenario file strictly")
    p.add_argument("file")

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="output directory root")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)} or 'all'")

    p = sub.add_parser("sweep", help="run every scenario file in a directory")
    p.add_argument("directory")
    p.add_argument("--out", default=None)
    return ap


def _cmd_validate(args):
    sc = parse_scenario(args.file)
    json.dump(sc.manifest(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_run(args):
    sc = parse_scenario(args.file)
    artifacts = run_scenario(sc, out_dir=args.out)
    for f in artifacts.files:
        print(f)
    return EXIT_OK


def _cmd_verify(args):
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _run_one(path, out):
    """Run one sweep file; return its status line and the exit code a lone
    run of the file gives."""
    try:
        sc = parse_scenario(path)
        run_scenario(sc, out_dir=out)
    except Exception as exc:  # a failing file must not end the sweep
        if isinstance(exc, _USAGE_ERRORS):
            code = EXIT_USAGE
        elif isinstance(exc, DebondWaveError):
            code = EXIT_NUMERICAL
        else:  # a defect, not a typed failure: keep its traceback
            traceback.print_exc()
            code = 1  # the status of an uncaught exception
        return f"FAIL {path}: {type(exc).__name__}: {exc}", code
    return f"done {sc.name}", EXIT_OK


def _cmd_sweep(args):
    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    files = sorted(
        os.path.join(args.directory, f)
        for f in os.listdir(args.directory)
        if f.endswith(".scn")
    )
    if not files:
        print(f"no .scn files in {args.directory}", file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_OK
    for path in files:
        line, code = _run_one(path, args.out)
        print(line, flush=True)
        worst = max(worst, code)
    return worst


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return EXIT_USAGE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DebondWaveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
