import argparse
import hashlib
import io
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from semimat import (Semiring, boolean_semiring, certify, compose, format_semiring, identity,
                     parse_certificate, parse_semiring, render_certificate, tropical_semiring)
from semimat.certfile import FORMAT_VERSION
from semimat.cli import main
from test_certifier import count_calls, forged_pad_text, hostile_certificate
from test_matcat import CHAIN3

BROKEN_DISTRIBUTIVITY = """\
# tropical(1) with 1*1 rewired to 0: distributivity breaks
semiring 3
labels 0 1 inf
zero 2
one 0
add
0 0 0
0 1 1
0 1 2
mul
0 1 2
1 0 2
2 2 2
"""


def test_check_semiring_boolean(capsys):
    assert main(["check-semiring", "--builtin", "boolean"]) == 0
    out = capsys.readouterr().out
    assert "2 elements" in out
    assert "fail" not in out


def test_check_semiring_tropical_3(capsys):
    assert main(["check-semiring", "--builtin", "tropical", "--tropical-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "5 elements" in out
    assert "125 triples" in out


def test_check_semiring_broken_distributivity(tmp_path, capsys):
    path = tmp_path / "broken.semiring"
    path.write_text(BROKEN_DISTRIBUTIVITY)
    assert main(["check-semiring", "--semiring", str(path)]) == 1
    out = capsys.readouterr().out
    assert "distributive" in out
    assert "a=1, b=1, c=0" in out or "a=1, b=0, c=1" in out


# SHA-256 of the full check-semiring stdout, recorded while the order laws
# were still checked by their own generator expressions: (name, argv, exit code, digest)
CHECK_SEMIRING_SHA256 = [
    ("boolean", ["--builtin", "boolean"], 0,
     "be0e51e165fe90d2bb8a6e0aabf62ce9200cb02ccba740403bd922b914d4c8db"),
    *((f"tropical{k}", ["--builtin", "tropical", "--tropical-n", str(k)], 0, digest)
      for k, digest in enumerate([
          "a24eda9e86c3f58d260b66b24c6e524f5f12227306fd5aac507919ed98b220b7",
          "fd1622a541c6fde9b3bbb95a97a56e7f78cec73dec6802f179a713a27b339293",
          "0519014f77b2f1788005a5234ff21f6925feec9aa8168b800c4e048b25ed93a4",
          "3fa14ed5afd9ea96cead7dc93d092a7bcfad8d3fd36f7701689827cacfb14773"])),
    ("chain3", format_semiring(CHAIN3), 0,
     "548bdebfd2aeecc643f497ec85b94383a81df54ff665ed30f4f6ea1f6f811d7d"),
    ("broken-distributivity", BROKEN_DISTRIBUTIVITY, 1,
     "08859fef622fb4336f8b93aa88612e7db4908ed0bac662a6842327cccce81c1a"),
]


@pytest.mark.parametrize("source, code, digest", [case[1:] for case in CHECK_SEMIRING_SHA256],
                         ids=[case[0] for case in CHECK_SEMIRING_SHA256])
def test_check_semiring_stdout_is_pinned(source, code, digest, tmp_path, capsys):
    if isinstance(source, str):  # a definition file's text
        (tmp_path / "s.semiring").write_text(source)
        source = ["--semiring", str(tmp_path / "s.semiring")]
    assert main(["check-semiring", *source]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_check_semiring_file_round_trip(tmp_path):
    path = tmp_path / "trop2.semiring"
    path.write_text(format_semiring(tropical_semiring(2)))
    assert main(["check-semiring", "--semiring", str(path), "--quiet"]) == 0


def test_missing_tropical_n_is_usage_error(capsys):
    assert main(["check-semiring", "--builtin", "tropical"]) == 2
    assert "--tropical-n" in capsys.readouterr().err


def test_tropical_n_with_boolean_is_usage_error(capsys):
    assert main(["check-semiring", "--builtin", "boolean", "--tropical-n", "2"]) == 2


def test_conflicting_sources_are_usage_error(capsys):
    assert main(["check-semiring", "--builtin", "boolean", "--semiring", "x"]) == 2


def test_missing_source_is_usage_error(capsys):
    assert main(["check-semiring"]) == 2


def test_unreadable_semiring_file(capsys):
    assert main(["check-semiring", "--semiring", "/nonexistent/file"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_semiring_file(tmp_path, capsys):
    path = tmp_path / "bad.semiring"
    path.write_text("semiring 2\nlabels 0 1\nzero 9\none 1\n")
    assert main(["check-semiring", "--semiring", str(path)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_certify_writes_verified_certificate(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    assert main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3",
                 "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "branch: construct" in report
    assert out.read_text().startswith(f"semimat-certificate {FORMAT_VERSION}\n")
    assert main(["verify", str(out), "--builtin", "boolean"]) == 0


def test_certify_pad_branch(tmp_path, capsys):
    out = tmp_path / "pad.txt"
    assert main(["certify", "--builtin", "boolean", "-d", "2", "-x", "1",
                 "--out", str(out)]) == 0
    assert "branch: pad" in capsys.readouterr().out


def test_certify_to_stdout(capsys):
    assert main(["certify", "--builtin", "boolean", "-d", "1", "-x", "2", "--quiet"]) == 0
    assert capsys.readouterr().out.startswith(f"semimat-certificate {FORMAT_VERSION}\n")


def test_certify_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        assert main(["certify", "--builtin", "tropical", "--tropical-n", "1",
                     "-d", "1", "-x", "4", "--out", str(path), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_cap_exceeded(tmp_path, capsys):
    assert main(["certify", "--builtin", "boolean", "-d", "2", "-x", "4",
                 "--cap-hom", "100", "--out", str(tmp_path / "never.txt")]) == 3
    assert "256" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "-d", "20000", "-x", "0"],
    ["certify", "-d", "1", "-x", "20000"],
    ["oracle", "-d", "0", "-x", "100", "-y", "100"],
    ["oracle", "-d", "1", "-x", "20000", "-y", "1"],
], ids=["certify-huge-y", "certify-huge-hom", "oracle-huge-pairs", "oracle-huge-hom"])
def test_huge_sizes_exceed_the_cap(argv, capsys):
    command, *rest = argv
    assert main([command, "--builtin", "boolean", *rest]) == 3
    assert "2^20000 exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bound", [
    (["certify", "-d", "0", "-x", "5000"], "x = 5000 exceeds cap 4096"),
    (["oracle", "-d", "0", "-x", "20000", "-y", "0"], "x^2 = 400000000 exceeds cap 65536"),
    (["oracle", "-d", "0", "-x", "0", "-y", "4000000"], "y = 4000000 exceeds cap 65536"),
], ids=["certify-wide-x", "oracle-wide-x", "oracle-tall-y"])
def test_wide_x_exceeds_the_cap(argv, bound, capsys):
    # d = 0 passes the n^d, |Hom| and pairs caps, but the x-by-x
    # matrices behind them would cost x^2, and with x = 0 the one pair's
    # y-row factor would cost y
    command, *rest = argv
    start = time.perf_counter()
    assert main([command, "--builtin", "boolean", *rest]) == 3
    assert time.perf_counter() - start < 2
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "--builtin", "boolean", "-d", "0", "-x", "0", "-y", "60000"],
    ["oracle", "--builtin", "tropical", "--tropical-n", "1", "-d", "0", "-x", "200", "-y", "0"],
    ["certify", "--builtin", "tropical", "--tropical-n", "1", "-d", "0", "-x", "300", "--quiet"],
    ["oracle", "--builtin", "boolean", "-d", "1000000000", "-x", "0", "-y", "0"],
], ids=["oracle-tall-y", "oracle-wide-x", "certify-wide-x", "oracle-deep-d"])
def test_shapes_without_rows_run_in_bounded_time(argv, capsys):
    # within the caps, but a sweep over every row of y or x entries
    # would cost n^60000, n^200 or n^300, and one over d empty rows
    # would cost d: no rows or one matrix, no sweep
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check-semiring"],
    ["certify", "-d", "1", "-x", "2"],
    ["oracle", "-d", "1", "-x", "2", "-y", "2"],
    ["verify", "missing.cert"],
], ids=["check-semiring", "certify", "oracle", "verify"])
def test_huge_tropical_bound_is_refused_before_its_tables(argv, capsys):
    # K + 2 elements past the verification limit: the (K+2)^2 tables are never built
    start = time.perf_counter()
    assert main([*argv, "--builtin", "tropical", "--tropical-n", "1000000000"]) == 2
    assert time.perf_counter() - start < 1
    assert "exceeds the verification limit 64" in capsys.readouterr().err


def test_largest_tropical_bound_within_the_limit_passes(capsys):
    assert main(["check-semiring", "--builtin", "tropical", "--tropical-n", "62", "--quiet"]) == 0
    assert capsys.readouterr().out == "pass\n"


@pytest.mark.parametrize("command", ["certify", "oracle", "verify"])
def test_certify_rejects_invalid_semiring(command, tmp_path, capsys):
    path = tmp_path / "broken.semiring"
    path.write_text(BROKEN_DISTRIBUTIVITY)
    args = {"certify": ["-d", "1", "-x", "2"],
            "oracle": ["-d", "1", "-x", "2", "-y", "2"],
            "verify": [str(tmp_path / "cert.txt")]}[command]
    if command == "verify":
        # the library certify assumes a valid semiring, so it writes a
        # certificate over the broken table that only the gate can refuse
        cert = certify(parse_semiring(BROKEN_DISTRIBUTIVITY), 1, 2)
        (tmp_path / "cert.txt").write_text(render_certificate(cert))
    assert main([command, "--semiring", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert "semiring fails axiom verification" in captured.err
    assert "valid" not in captured.out


def test_oracle_positive(capsys):
    assert main(["oracle", "--builtin", "boolean", "-d", "1", "-x", "2", "-y", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("true")
    assert "witness coefficients" in out


def test_oracle_negative(capsys):
    assert main(["oracle", "--builtin", "boolean", "-d", "1", "-x", "2", "-y", "0"]) == 1
    assert capsys.readouterr().out.startswith("false")


def test_oracle_trivial_identity(capsys):
    assert main(["oracle", "--builtin", "boolean", "-d", "1", "-x", "1", "-y", "1"]) == 0


def test_oracle_cap(capsys):
    assert main(["oracle", "--builtin", "boolean", "-d", "1", "-x", "2", "-y", "2",
                 "--cap-pairs", "5"]) == 3


# SHA-256 of the full ``oracle`` stdout, recorded from the dense
# Gauss-Jordan solve and the compose-based enumeration; the fast oracle
# must print the same bytes (verdict, endomorphism count, coefficients).
ORACLE_STDOUT_SHA256 = [
    (["--builtin", "boolean", "-d", "1", "-x", "3", "-y", "2"], 0,
     "bfba23e0d360d4fde303f776abfc63e458a3df6730138fd05b7b70ea201230a9"),
    (["--builtin", "tropical", "--tropical-n", "1", "-d", "2", "-x", "2", "-y", "2"], 0,
     "3018ca235ea324f6319a0745ae97c59293d4eb2ae4409b7f828102736e170c3f"),
    (["--builtin", "tropical", "--tropical-n", "2", "-d", "1", "-x", "2", "-y", "2"], 0,
     "dad3053c5aa5587ee380dbdf11a437f4921f80845fde8c788d7e021292353654"),
    (["--builtin", "boolean", "-d", "1", "-x", "3", "-y", "0"], 1,
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    (["--builtin", "tropical", "--tropical-n", "1", "-d", "1", "-x", "4", "-y", "0"], 1,
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    (["--builtin", "boolean", "-d", "1", "-x", "2", "-y", "2"], 0,
     "5613c87cc484ba1d3f672ba71c62651f212a18118e06759f98c410576f120dc2"),
]


@pytest.mark.parametrize("argv, code, digest", ORACLE_STDOUT_SHA256,
                         ids=["boolean-1-3-2", "tropical1-2-2-2", "tropical2-1-2-2",
                              "boolean-1-3-0", "tropical1-1-4-0", "boolean-1-2-2"])
def test_oracle_stdout_is_pinned(argv, code, digest, capsys):
    assert main(["oracle", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_verify_fresh_certificate(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 0
    assert capsys.readouterr().out.strip().endswith("valid")


def test_verify_hand_edited_coefficient(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    text = out.read_text()
    assert "\nc 1\n" in text
    capsys.readouterr()
    # zero, non-integral and negative coefficients: X stops matching the
    # stored diagonal and determinant, rational entries included
    for value in ("0", "1/2", "-1"):
        out.write_text(text.replace("\nc 1\n", f"\nc {value}\n", 1))
        assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 1, value
        assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [("c 1", "c 1e0"), ("c 1", "c 1.0"), ("c 1", "c 1_0"),
                                      ("det 64", "det 1e9999999")],
                         ids=["exponent", "decimal", "underscore", "huge-exponent"])
def test_verify_rejects_a_fraction_render_never_writes(old, new, tmp_path, capsys):
    # Fraction() reads these, and '1e9999999' would cost unbounded time
    # and memory before any check ran; the parser reads only p or p/q
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    text = out.read_text()
    assert f"\n{old}\n" in text
    out.write_text(text.replace(f"\n{old}\n", f"\n{new}\n", 1))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 2
    assert time.perf_counter() - start < 1
    assert "bad fraction" in capsys.readouterr().err


@pytest.mark.parametrize("keyword", ["coefficients", "diagonal"])
@pytest.mark.parametrize("count", [-1, -100, 10 ** 20, 10 ** 30])
def test_verify_rejects_a_hostile_coefficient_count(keyword, count, tmp_path, capsys):
    # the count sizes nothing: the c and diag lines that stand there
    # end the section early or late, a parse error like any other
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    text = out.read_text()
    old = next(line for line in text.split("\n") if line.startswith(keyword + " "))
    out.write_text(text.replace(f"\n{old}\n", f"\n{keyword} {count}\n", 1))
    capsys.readouterr()
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_rejects_a_hostile_certificate_in_bounded_time(tmp_path, capsys):
    # every s(f) a permutation: X would be dense and far from triangular,
    # and eliminating it took minutes; verify must stop before forming it
    out = tmp_path / "hostile.txt"
    out.write_text(render_certificate(hostile_certificate(9, seed=9)))
    start = time.perf_counter()
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 1
    assert time.perf_counter() - start < 20
    assert "INVALID" in capsys.readouterr().out


def test_verify_stops_at_a_wrong_branch_in_bounded_time(tmp_path, capsys, monkeypatch):
    # an 18 KB pad file with d 0 and x 3000: the pad checks would build
    # 3000-by-3000 matrices, growing as x^2
    out = tmp_path / "forged.txt"
    out.write_text(forged_pad_text(3000))
    identities = count_calls(monkeypatch, identity)
    composes = count_calls(monkeypatch, compose)
    start = time.perf_counter()
    assert main(["verify", str(out), "--builtin", "boolean"]) == 1
    assert time.perf_counter() - start < 0.5
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["branch-matches-bound", "fail"] and lines[-1] == "INVALID"
    assert identities == [] and composes == []


def test_verify_report_ends_at_a_renamed_check(tmp_path, capsys):
    text = render_certificate(certify(boolean_semiring(), 1, 3))
    assert text.count("\ncheck fixed-points pass\n") == 1
    out = tmp_path / "cert.txt"
    out.write_text(text.replace("\ncheck fixed-points pass\n",
                                "\ncheck renamed-fixed-points pass\n"))
    assert main(["verify", str(out), "--builtin", "boolean"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["recorded-checks-match", "fail"] and lines[-1] == "INVALID"
    assert [line.split()[1] for line in lines[:-2]] == ["pass"] * (len(lines) - 2)


TROP1_ARGS = ["--builtin", "tropical", "--tropical-n", "1"]


@pytest.mark.parametrize("args, d, x, old, new", [
    (["--builtin", "boolean"], 1, 2, "f 1 0", "f 0 2"),
    (["--builtin", "boolean"], 1, 2, "f 0 1", "f 1 -1"),
    (["--builtin", "boolean"], 2, 2, "f 0 0 0 1", "f 0 0 1 -1"),
    (TROP1_ARGS, 1, 2, "f 1 0", "f 0 3"),
    (TROP1_ARGS, 1, 2, "f 0 2", "f 1 -1"),
], ids=["boolean-2", "boolean-minus-1", "boolean-2-2-minus-1", "tropical1-3",
        "tropical1-minus-1"])
def test_an_out_of_range_entry_never_carries_into_another_code(args, d, x, old, new,
                                                               tmp_path, capsys):
    # read as base-n digits with carry, the new line would be the code
    # of the line it replaces and the order would stay canonical; it
    # holds no code, so only order-canonical fails
    sr = boolean_semiring() if args[1] == "boolean" else tropical_semiring(1)
    text = render_certificate(certify(sr, d, x))
    assert text.count(f"\n{old}\n") == 1
    out = tmp_path / "cert.txt"
    out.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    assert main(["verify", str(out), *args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "INVALID"
    assert [line.split()[0] for line in lines if line.endswith(" fail")] == ["order-canonical"]


def _without_order(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("f "))


@pytest.mark.parametrize("edit, code", [
    (lambda t: t.replace("\nsemiring-size 2\n", "\nsemiring-size 1000000000000\n"), 2),
    (lambda t: t.replace("\norder 16\n", "\norder 1000000000000\n"), 2),
    (lambda t: t.replace("\nd 2\nx 2\n", "\nd 1000000000\nx 1000000000\n"), 2),
    (lambda t: _without_order(t).replace("\nd 2\nx 2\ny 4\nbranch pad\norder 16\n",
                                         "\nd 1000000000\nx 1000000000\ny 4\nbranch pad"
                                         "\norder 0\n"), 1),
], ids=["semiring-size", "order", "d-and-x", "d-and-x-no-order"])
def test_verify_refuses_hostile_headers_cheaply(edit, code, tmp_path, capsys):
    # no header field sizes a table, a list or a loop: the file's own
    # lines run out, or a cheap check fails, first
    out = tmp_path / "cert.txt"
    text = render_certificate(certify(boolean_semiring(), 2, 2))
    assert edit(text) != text
    out.write_text(edit(text))
    start = time.perf_counter()
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert ("INVALID" in captured.out) if code == 1 else ("error:" in captured.err)


@pytest.mark.parametrize("command", ["certify", "oracle"])
def test_one_element_semiring_caps_the_entries_per_element(command, tmp_path, capsys):
    # with n = 1 every n^k is 1, so only d*x bounds the f line's length
    path = tmp_path / "one.semiring"
    path.write_text(format_semiring(Semiring(1, ("e",), 0, 0, ((0,),), ((0,),))))
    extra = ["-y", "1"] if command == "oracle" else ["--out", str(tmp_path / "never.txt")]
    start = time.perf_counter()
    assert main([command, "--semiring", str(path), "-d", "1000000", "-x", "1", *extra]) == 3
    assert time.perf_counter() - start < 1
    assert "entries per element of Hom(1000000,1) = 1000000 exceed cap 4096" in capsys.readouterr().err
    assert not (tmp_path / "never.txt").exists()


def test_verify_parses_a_negative_rational_coefficient(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    out.write_text(out.read_text().replace("\nc 1\n", "\nc -3/2\n", 1))
    assert parse_certificate(out.read_text()).coefficients[0] == Fraction(-3, 2)
    assert main(["verify", str(out), "--builtin", "boolean", "--quiet"]) == 1


def test_verify_wrong_semiring_is_fingerprint_error(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--out", str(out),
          "--quiet"])
    code = main(["verify", str(out), "--builtin", "tropical", "--tropical-n", "1"])
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


def test_verify_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    assert main(["verify", str(path), "--builtin", "boolean"]) == 2


def test_negative_object_is_usage_error(capsys):
    assert main(["certify", "--builtin", "boolean", "-d", "-1", "-x", "2"]) == 2
    assert "whole numbers" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# SHA-256 of argparse's help and usage-error texts at COLUMNS=80 (Python
# 3.11 layout), recorded before the parser was declared once per option,
# apart from ``oracle --help``, recorded once -d, -x and -y had their help
# lines: (argv, exit code, the stream written, digest); the other stream
# stays empty.
HELP_AND_USAGE_SHA256 = [
    (["--help"], 0, "out", "505ccf5df87b8268a641f1ce718dd60254a1575cdaec4de3bea2458afb004b78"),
    (["check-semiring", "--help"], 0, "out",
     "33a9076463b8357e0d1e248cd37c41bf06a76bcaf2197104baa2cfb454fa6dec"),
    (["certify", "--help"], 0, "out",
     "4aca964cba866e9bba411bf6d952a18349020728884b5c7e207178c069a5a67b"),
    (["oracle", "--help"], 0, "out",
     "9ac2f9333bc09c100319581328578250d0885dd7c5ced946d2f09e71e03cb1d1"),
    (["verify", "--help"], 0, "out",
     "6bc28f2de645fcb7dd39a25623cd8d49f4887854d94c0fc5c8bba349efb8086b"),
    ([], 2, "err", "f18f4e8f724313f9b961492747badaad7c3b34f5a45c7d9248c4132e7f65784a"),
    (["certify"], 2, "err", "fcc3f5b2b0cf0e9e346c002754d78ca609851c2f93e7031958f0b478b389428e"),
    (["certify", "--builtin", "boolean", "-d", "a", "-x", "2"], 2, "err",
     "0153d6c02040e4eb481dac369f5a520b4711a103766bcf3b35a2a10450cc0440"),
    # an unknown option before the subcommand is named, not reported as a
    # missing subcommand
    (["--bogus"], 2, "err", "bfa7954d2a9112fa34f6abed99b60f405fade301d4a991de9c3c0ffe34c1b6d6"),
]


@pytest.mark.parametrize("argv, code, stream, digest", HELP_AND_USAGE_SHA256,
                         ids=["help", "check-semiring-help", "certify-help", "oracle-help",
                              "verify-help", "no-command", "certify-no-args", "certify-bad-d",
                              "unknown-option"])
def test_help_and_usage_errors_are_pinned(argv, code, stream, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    text, other = (captured.out, captured.err) if stream == "out" else (captured.err, captured.out)
    assert other == ""
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    argv = ["check-semiring", "--builtin", "boolean", "--quiet"]
    assert main(argv) == 0  # builds the parser, unless an earlier call has
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(argv) == 0
    assert calls == []
    assert capsys.readouterr().out == "pass\npass\n"
    # the reused parser reports a usage error on the stderr of the call
    # that makes it, not on the one current when it was built
    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["certify"]) == 2
    assert err.getvalue().startswith("usage: semimat certify ")
    assert "error: the following arguments are required: -d, -x" in err.getvalue()
    assert capsys.readouterr().err == ""


def _semimat(*argv, cwd):
    """Run ``python -m semimat.cli`` on this checkout's sources in a child process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "semimat.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_module_entry_point_exits_with_each_code(tmp_path):
    certified = _semimat("certify", "--builtin", "boolean", "-d", "1", "-x", "3",
                         "--out", "cert.txt", "--quiet", cwd=tmp_path)
    assert (certified.returncode, certified.stdout, certified.stderr) == (0, "", "")
    verified = _semimat("verify", "cert.txt", "--builtin", "boolean", "--quiet", cwd=tmp_path)
    assert (verified.returncode, verified.stdout) == (0, "valid\n")

    text = (tmp_path / "cert.txt").read_text()
    assert "\nc 1\n" in text
    (tmp_path / "edited.txt").write_text(text.replace("\nc 1\n", "\nc 0\n", 1))
    edited = _semimat("verify", "edited.txt", "--builtin", "boolean", "--quiet", cwd=tmp_path)
    assert (edited.returncode, edited.stdout) == (1, "INVALID\n")

    unknown = _semimat("certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--bogus",
                       cwd=tmp_path)
    assert (unknown.returncode, unknown.stdout) == (2, "")
    assert unknown.stderr.startswith("usage: semimat ")
    assert "unrecognized arguments: --bogus" in unknown.stderr

    capped = _semimat("certify", "--builtin", "boolean", "-d", "1", "-x", "3", "--cap-hom", "0",
                      cwd=tmp_path)
    assert (capped.returncode, capped.stdout) == (3, "")
    assert capped.stderr.startswith("error: ")
