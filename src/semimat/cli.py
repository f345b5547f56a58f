"""Command-line front end.

Subcommands: ``check-semiring``, ``certify``, ``oracle``, ``verify``.
Each option is declared once, and the parser is built on the first
``main`` call and reused for the rest of the process.  ``main(argv)``
runs one command and returns its exit code; it never raises
``SystemExit``.  Exit codes are a stable scripting contract: 0 success,
1 mathematical failure or negative verdict, 2 usage/parse error, 3 size
cap exceeded.  All output is deterministic; certificates written for
identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .certfile import parse_certificate, render_certificate
from .certifier import DEFAULT_COLUMN_CAP, certify, verify_certificate
from .domination import DEFAULT_PAIR_CAP, span_oracle
from .errors import CapExceededError, InternalCheckError, ParseError
from .matcat import DEFAULT_HOM_CAP, format_morphism, hom_size
from .semiring import (AXIOM_NAMES, Semiring, builtin_semiring, check_verify_size,
                       parse_semiring, verify_axioms, verify_order_laws)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _print_checks(checks, out=None) -> None:
    for name, ok in checks:
        print(f"  {name:<26} {'pass' if ok else 'fail'}", file=out)


def _cmd_check_semiring(sr: Semiring, args) -> int:
    violations = verify_axioms(sr)
    report = None if violations else verify_order_laws(sr)
    ok = report is not None and report.passed
    if args.quiet:
        print("pass" if ok else "fail")
        return EXIT_OK if ok else EXIT_FAIL
    failed = {v.axiom: f"fail  {v.message}" for v in violations}
    print(f"semiring: {sr.size} elements (labels: {' '.join(sr.labels)})")
    print("axioms:")
    for name in AXIOM_NAMES:
        print(f"  {name:<24} {failed.get(name, 'pass')}")
    if report is None:
        print("order laws: skipped (axioms failed)")
        return EXIT_FAIL
    print("order laws:")
    failed = {name: f"fail  counterexample: ({', '.join(map(sr.label, witness))})"
              for name, witness in report.counterexamples}
    for name, _ in report.checks:
        print(f"  {name:<24} {failed.get(name, 'pass')}")
    print(f"  ({report.triples_checked} triples checked for the least-upper-bound law)")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_certify(sr: Semiring, args) -> int:
    cert = certify(sr, args.d, args.x, cap_hom=args.cap_hom, cap_cols=args.cap_cols)
    text = render_certificate(cert)
    report_stream = sys.stdout
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        report_stream = sys.stderr
    if not args.quiet:
        print(f"branch: {cert.branch}", file=report_stream)
        print(f"hom-set size: {hom_size(sr, cert.d, cert.x)}   target y = n^d: {cert.y}",
              file=report_stream)
        if cert.branch == "construct":
            print(f"det(X) = {cert.det_x}", file=report_stream)
        _print_checks(cert.checks, report_stream)
        if args.out is not None:
            print(f"certificate written to {args.out}", file=report_stream)
    return EXIT_OK


def _cmd_oracle(sr: Semiring, args) -> int:
    result = span_oracle(sr, args.d, args.x, args.y,
                         cap_hom=args.cap_hom, cap_pairs=args.cap_pairs)
    print("true" if result.holds else "false")
    if result.holds and not args.quiet:
        assert result.coefficients is not None
        print(f"endomorphisms of {args.x} through {args.y}: {len(result.endos)}")
        print("witness coefficients (nonzero only):")
        for c, endo in zip(result.coefficients, result.endos):
            if c != 0:
                print(f"  {c}  *  action of {format_morphism(sr, endo)}")
    return EXIT_OK if result.holds else EXIT_FAIL


def _cmd_verify(sr: Semiring, args) -> int:
    cert = parse_certificate(Path(args.certificate).read_text(encoding="utf-8"))
    report = verify_certificate(sr, cert, cap_hom=args.cap_hom)
    if not args.quiet:
        _print_checks(report.checks)
    print("valid" if report.passed else "INVALID")
    return EXIT_OK if report.passed else EXIT_FAIL


def _add_command(sub, name: str, run, help: str, *options,
                 quiet_help: str = "only print the verdict") -> None:
    """Add subcommand ``name``: the semiring source, ``options`` in order, then ``--quiet``."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(run=run)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=["boolean", "tropical"],
                        help="use a built-in semiring")
    source.add_argument("--semiring", metavar="PATH", help="load a semiring definition file")
    sp.add_argument("--tropical-n", type=int, metavar="K",
                    help="truncation bound for --builtin tropical")
    for flag, kwargs in options:
        sp.add_argument(flag, **kwargs)
    sp.add_argument("--quiet", action="store_true", help=quiet_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semimat",
        description="Exact matrix algebra over finite idempotent semirings "
                    "with machine-checkable domination certificates.")
    # not required here, so that an unknown option before the subcommand
    # is named (``main`` reports a missing subcommand itself)
    sub = p.add_subparsers(dest="command")
    cap_hom = ("--cap-hom", dict(type=int, default=DEFAULT_HOM_CAP,
                                 help="max |Hom(d,x)| (default %(default)s)"))
    probe = ("-d", dict(type=int, required=True, help="probe object d"))
    _add_command(sub, "check-semiring", _cmd_check_semiring,
                 "verify all semiring axioms and order laws")
    _add_command(sub, "certify", _cmd_certify, "emit a certificate that x is dominated by n^d",
                 probe, ("-x", dict(type=int, required=True, help="object to certify")),
                 cap_hom,
                 ("--cap-cols", dict(type=int, default=DEFAULT_COLUMN_CAP,
                                     help="max n^d columns, and max x (default %(default)s)")),
                 ("--out", dict(metavar="PATH", help="write the certificate here "
                                                     "(default: stdout, report on stderr)")),
                 quiet_help="suppress the report")
    _add_command(sub, "oracle", _cmd_oracle, "brute-force span membership for arbitrary y",
                 probe, ("-x", dict(type=int, required=True, help="object to test")),
                 ("-y", dict(type=int, required=True, help="target object y")),
                 cap_hom,
                 ("--cap-pairs", dict(type=int, default=DEFAULT_PAIR_CAP,
                                      help="max factoring pairs, and max x^2 and y "
                                           "(default %(default)s)")))
    _add_command(sub, "verify", _cmd_verify, "independently re-verify a certificate file",
                 ("certificate", dict(metavar="CERT", help="certificate file to verify")),
                 cap_hom)
    return p


def _load_semiring(args) -> Semiring:
    if args.tropical_n is not None and args.builtin != "tropical":
        raise ParseError("--tropical-n is only valid with --builtin tropical")
    if args.builtin is None:
        return parse_semiring(Path(args.semiring).read_text(encoding="utf-8"))
    if args.builtin == "tropical":
        if args.tropical_n is None:
            raise ParseError("--builtin tropical requires --tropical-n")
        if args.tropical_n < 0:
            raise ParseError("--tropical-n must be >= 0")
        check_verify_size(args.tropical_n + 2)  # before the (K+2)^2 tables
    return builtin_semiring(args.builtin, args.tropical_n)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sr = _load_semiring(args)
        # check-semiring reports a failing axiom; every other command refuses
        violations = [] if args.run is _cmd_check_semiring else verify_axioms(sr)
        if violations:
            print("semiring fails axiom verification:", file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            return EXIT_FAIL
        return args.run(sr, args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:
        # ValueError covers FingerprintError, ParseError, StructureError and
        # bad argument values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
