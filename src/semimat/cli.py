"""Command-line front end.

Subcommands: ``check-semiring``, ``certify``, ``oracle``, ``verify``.
Exit codes are a stable scripting contract: 0 success, 1 mathematical
failure or negative verdict, 2 usage/parse error, 3 size cap exceeded.
All output is deterministic; certificates written for identical inputs
are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certfile import parse_certificate, render_certificate
from .certifier import DEFAULT_COLUMN_CAP, certify, verify_certificate
from .domination import DEFAULT_PAIR_CAP, span_oracle
from .errors import CapExceededError, InternalCheckError, ParseError
from .matcat import DEFAULT_HOM_CAP, format_morphism
from .semiring import (AXIOM_NAMES, Semiring, builtin_semiring, check_verify_size,
                       parse_semiring, verify_axioms, verify_order_laws)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _add_source_args(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=["boolean", "tropical"],
                       help="use a built-in semiring")
    group.add_argument("--semiring", metavar="PATH", help="load a semiring definition file")
    sp.add_argument("--tropical-n", type=int, metavar="K",
                    help="truncation bound for --builtin tropical")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semimat",
        description="Exact matrix algebra over finite idempotent semirings "
                    "with machine-checkable domination certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check-semiring", help="verify all semiring axioms and order laws")
    _add_source_args(check)
    check.add_argument("--quiet", action="store_true", help="only print the verdict")

    cert = sub.add_parser("certify", help="emit a certificate that x is dominated by n^d")
    _add_source_args(cert)
    cert.add_argument("-d", type=int, required=True, help="probe object d")
    cert.add_argument("-x", type=int, required=True, help="object to certify")
    cert.add_argument("--cap-hom", type=int, default=DEFAULT_HOM_CAP,
                      help="max |Hom(d,x)| (default %(default)s)")
    cert.add_argument("--cap-cols", type=int, default=DEFAULT_COLUMN_CAP,
                      help="max n^d columns, and max x (default %(default)s)")
    cert.add_argument("--out", metavar="PATH", help="write the certificate here "
                                                    "(default: stdout, report on stderr)")
    cert.add_argument("--quiet", action="store_true", help="suppress the report")

    orc = sub.add_parser("oracle", help="brute-force span membership for arbitrary y")
    _add_source_args(orc)
    orc.add_argument("-d", type=int, required=True)
    orc.add_argument("-x", type=int, required=True)
    orc.add_argument("-y", type=int, required=True)
    orc.add_argument("--cap-hom", type=int, default=DEFAULT_HOM_CAP,
                     help="max |Hom(d,x)| (default %(default)s)")
    orc.add_argument("--cap-pairs", type=int, default=DEFAULT_PAIR_CAP,
                     help="max factoring pairs, and max x^2 and y (default %(default)s)")
    orc.add_argument("--quiet", action="store_true", help="only print the verdict")

    ver = sub.add_parser("verify", help="independently re-verify a certificate file")
    ver.add_argument("certificate", metavar="CERT", help="certificate file to verify")
    _add_source_args(ver)
    ver.add_argument("--cap-hom", type=int, default=DEFAULT_HOM_CAP,
                     help="max |Hom(d,x)| (default %(default)s)")
    ver.add_argument("--quiet", action="store_true", help="only print the verdict")
    return p


def _load_semiring(args) -> Semiring:
    if args.builtin is not None:
        if args.builtin == "tropical":
            if args.tropical_n is None:
                raise ParseError("--builtin tropical requires --tropical-n")
            if args.tropical_n < 0:
                raise ParseError("--tropical-n must be >= 0")
            check_verify_size(args.tropical_n + 2)  # before the (K+2)^2 tables
            return builtin_semiring("tropical", args.tropical_n)
        if args.tropical_n is not None:
            raise ParseError("--tropical-n is only valid with --builtin tropical")
        return builtin_semiring("boolean")
    if args.tropical_n is not None:
        raise ParseError("--tropical-n is only valid with --builtin tropical")
    return parse_semiring(Path(args.semiring).read_text(encoding="utf-8"))


def _check_semiring_report(sr: Semiring, out) -> bool:
    violations = verify_axioms(sr)
    by_axiom = {v.axiom: v for v in violations}
    print(f"semiring: {sr.size} elements (labels: {' '.join(sr.labels)})", file=out)
    print("axioms:", file=out)
    for name in AXIOM_NAMES:
        if name in by_axiom:
            print(f"  {name:<24} fail  {by_axiom[name].message}", file=out)
        else:
            print(f"  {name:<24} pass", file=out)
    order_ok = False
    if not violations:
        report = verify_order_laws(sr)
        counter = dict(report.counterexamples)
        print("order laws:", file=out)
        for name, ok in report.checks:
            if ok:
                print(f"  {name:<24} pass", file=out)
            else:
                witness = ", ".join(sr.label(e) for e in counter[name])
                print(f"  {name:<24} fail  counterexample: ({witness})", file=out)
        print(f"  ({report.triples_checked} triples checked for the least-upper-bound law)",
              file=out)
        order_ok = report.passed
    else:
        print("order laws: skipped (axioms failed)", file=out)
    return not violations and order_ok


def _cmd_check_semiring(args) -> int:
    sr = _load_semiring(args)
    if args.quiet:
        import io
        buf = io.StringIO()
        ok = _check_semiring_report(sr, buf)
        print("pass" if ok else "fail")
    else:
        ok = _check_semiring_report(sr, sys.stdout)
    return EXIT_OK if ok else EXIT_FAIL


def _require_valid(sr: Semiring) -> bool:
    """True when ``sr`` passes ``verify_axioms``; otherwise report why on stderr."""
    violations = verify_axioms(sr)
    if violations:
        print("semiring fails axiom verification:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
    return not violations


def _cmd_certify(args) -> int:
    sr = _load_semiring(args)
    if not _require_valid(sr):
        return EXIT_FAIL
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
        print(f"hom-set size: {len(cert.order)}   target y = n^d: {cert.y}", file=report_stream)
        if cert.branch == "construct":
            print(f"det(X) = {cert.det_x}", file=report_stream)
        for name, ok in cert.checks:
            print(f"  {name:<26} {'pass' if ok else 'fail'}", file=report_stream)
        if args.out is not None:
            print(f"certificate written to {args.out}", file=report_stream)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sr = _load_semiring(args)
    if not _require_valid(sr):
        return EXIT_FAIL
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


def _cmd_verify(args) -> int:
    sr = _load_semiring(args)
    if not _require_valid(sr):
        return EXIT_FAIL
    cert = parse_certificate(Path(args.certificate).read_text(encoding="utf-8"))
    report = verify_certificate(sr, cert, cap_hom=args.cap_hom)
    if not args.quiet:
        for name, ok in report.checks:
            print(f"  {name:<26} {'pass' if ok else 'fail'}")
    print("valid" if report.passed else "INVALID")
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check-semiring": _cmd_check_semiring,
        "certify": _cmd_certify,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
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
