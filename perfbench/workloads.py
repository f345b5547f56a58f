"""The benchmark's workloads, their known answers and the tamper generator.

Every operation is one ``semimat`` command run in-process through
``semimat.cli.main``.  Its exit code and verdict are checked against an
answer the benchmark knows from the mathematics alone, never from
semimat:

* ``certify --out`` exits 0, takes the pad branch exactly when
  x <= n^d, and writes the same bytes on every pass;
* ``verify`` of a fresh certificate exits 0 and prints ``valid``;
* ``verify`` of a tampered copy exits 1 with ``INVALID``, or exits 2;
* ``oracle`` prints ``true`` where x <= y (padding) or y >= n^d (the
  paper's theorem) and ``false`` where y = 0 < x.

One tamper kind, a renamed ``check`` line, is still accepted as
``valid``: ``verify`` only requires recorded checks to pass, not their
names to be the expected list.  Those copies count as failed operations
and are reported as the known defect; they are not dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Source:
    """A built-in semiring as the CLI names it, with what the benchmark must know of it."""

    args: tuple[str, ...]
    n: int                     # carrier size
    zero: int                  # element index of the additive identity
    one: int                   # element index of the multiplicative identity
    height: tuple[int, ...]    # longest-chain height of each element in the natural order

    @property
    def label(self) -> str:
        return self.args[1] + (self.args[3] if len(self.args) > 2 else "")


BOOLEAN = Source(("--builtin", "boolean"), n=2, zero=0, one=1, height=(0, 1))


def tropical(k: int) -> Source:
    """{0..k, inf} under (min, capped +).

    inf is zero and 0 is one; in the natural order a <= b iff b <= a as
    numbers, so inf is the bottom and 0 the top.
    """
    return Source(("--builtin", "tropical", "--tropical-n", str(k)), n=k + 2, zero=k + 1, one=0,
                  height=tuple(k + 1 - i for i in range(k + 1)) + (0,))


@dataclass(frozen=True)
class CertCase:
    """``certify --out`` then ``verify`` of (d, x), optionally with tampered copies."""

    source: Source
    d: int
    x: int
    cap_hom: int | None = None
    tamper: bool = False

    @property
    def label(self) -> str:
        return f"{self.source.label}-d{self.d}-x{self.x}"

    @property
    def branch(self) -> str:
        return "pad" if self.x <= self.source.n ** self.d else "construct"

    @property
    def cap_args(self) -> tuple[str, ...]:
        return () if self.cap_hom is None else ("--cap-hom", str(self.cap_hom))


@dataclass(frozen=True)
class OracleCase:
    """``oracle`` on (d, x, y), on an instance whose answer is known."""

    source: Source
    d: int
    x: int
    y: int

    @property
    def label(self) -> str:
        return f"{self.source.label}-d{self.d}-x{self.x}-y{self.y}"

    @property
    def holds(self) -> bool:
        if self.x <= self.y or self.y >= self.source.n ** self.d:
            return True
        if self.y == 0:
            return False
        raise ValueError(f"no known answer for oracle {self.label}")


WORKLOADS = {
    "construct": (CertCase(BOOLEAN, 1, 5, tamper=True),
                  CertCase(BOOLEAN, 1, 6, tamper=True),
                  CertCase(tropical(1), 1, 4, tamper=True)),
    "pad-wide": (CertCase(BOOLEAN, 4, 4, cap_hom=65536),
                 CertCase(tropical(1), 2, 4, cap_hom=6561)),
    "oracle": (OracleCase(BOOLEAN, 1, 3, 2),
               OracleCase(tropical(1), 2, 2, 2),
               OracleCase(tropical(2), 1, 2, 2),
               OracleCase(BOOLEAN, 1, 3, 0),
               OracleCase(tropical(1), 1, 4, 0)),
}

TAMPER_KINDS = ("coefficient", "det", "s-flip", "f-swap", "check-rename")
KNOWN_DEFECT = "check-rename"


def tamper(text: str, kind: str, source: Source, rng: random.Random) -> str:
    """One tampered copy of a construct-branch certificate; ``rng`` picks the position."""
    lines = text.split("\n")

    def where(keyword: str) -> list[int]:
        return [i for i, line in enumerate(lines) if line.split(" ", 1)[0] == keyword]

    if kind == "coefficient":
        i = rng.choice(where("c"))
        lines[i] = f"c {Fraction(lines[i].split()[1]) + rng.randint(1, 3)}"
    elif kind == "det":
        i = where("det")[0]
        lines[i] = f"det {Fraction(lines[i].split()[1]) + rng.randint(1, 1000)}"
    elif kind == "s-flip":
        zero = str(source.zero)
        spots = [(i, j) for i in where("s")
                 for j, tok in enumerate(lines[i].split()) if j and tok == zero]
        i, j = rng.choice(spots)
        toks = lines[i].split()
        toks[j] = str(source.one)
        lines[i] = " ".join(toks)
    elif kind == "f-swap":
        fs = where("f")
        height = {i: sum(source.height[int(t)] for t in lines[i].split()[1:]) for i in fs}
        i = rng.choice(fs)
        j = rng.choice([k for k in fs if height[k] != height[i]])
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "check-rename":
        i = rng.choice(where("check"))
        _, name, result = lines[i].split()
        lines[i] = f"check renamed-{name} {result}"
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return "\n".join(lines)


# The reference kernel gets this share of each operation's time, run right
# after it, so its samples spread over the run as the operations' time does.
REFERENCE_SHARE = 0.1


def reference_kernel() -> None:
    """Fixed pure-Python work that gauges how fast the machine runs right now.

    Fraction elimination on a fixed integer matrix and counting tuples in
    a dict: the kinds of work semimat does, but none of its code, so a
    change to the program cannot move it.
    """
    rng = random.Random(7)
    n = 20
    a = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    counts: dict[tuple[int, ...], int] = {}
    for t in itertools.product(range(5), repeat=6):
        key = tuple(sorted(t))
        counts[key] = counts.get(key, 0) + 1


@dataclass(frozen=True)
class Result:
    """One timed operation and whether it gave the known answer."""

    kind: str            # certify, verify, reject or oracle
    label: str
    seconds: float
    ref_seconds: tuple[float, ...]  # the reference kernel's runs after the operation
    ok: bool
    known_defect: bool
    out_bytes: int       # certificate bytes written plus standard output
    cert_bytes: int      # certificate bytes written
    digest: str          # exit code, verdict and certificate hash, to compare runs


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Runner:
    """Runs the passes of one workload in a work directory.

    The certificates written on the first pass fix the bytes every later
    pass must reproduce, and seed the tampered copies, which the program
    then receives as plain files.  Commands run with the work directory as
    the current one and name files relative to it, so their output does
    not depend on where the checkout is.
    """

    def __init__(self, cases, seed: int, workdir: Path, cli) -> None:
        self.cases = cases
        self.seed = seed
        self.workdir = workdir
        self.cli = cli            # the semimat.cli module; main is looked up per call
        self.cert_hash: dict[str, str] = {}
        self.tampered: dict[str, list[tuple[str, Path]]] = {}
        self.ops = 0
        self.recorder = None      # a spans.Recorder, told each operation's id

    def _run(self, argv: list[str],
             sized: bool = True) -> tuple[int | None, str, float, tuple[float, ...]]:
        """Run one command in-process; ``sized`` is false for tampered inputs.

        Sizes read from a tampered input are not the instance's.  Returns
        the exit code, standard output, the command's seconds and those of
        each run of the reference kernel after it.
        """
        out = io.StringIO()
        err = io.StringIO()
        self.ops += 1
        if self.recorder is not None:
            self.recorder.op = self.ops
            self.recorder.sized = sized
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a wrong answer, not the end of the run
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        if rc is None:
            print(f"crash in semimat {' '.join(argv)}:\n{err.getvalue()}", file=sys.stderr)
        refs: list[float] = []
        while not refs or sum(refs) < REFERENCE_SHARE * seconds:
            start = time.perf_counter()
            reference_kernel()
            refs.append(time.perf_counter() - start)
        return rc, out.getvalue(), seconds, tuple(refs)

    def run_pass(self) -> list[Result]:
        results: list[Result] = []
        home = os.getcwd()
        os.chdir(self.workdir)
        try:
            for case in self.cases:
                if isinstance(case, OracleCase):
                    results.append(self._oracle(case))
                else:
                    results.extend(self._certificate(case))
        finally:
            os.chdir(home)
        return results

    def _oracle(self, case: OracleCase) -> Result:
        rc, out, seconds, ref = self._run(["oracle", *case.source.args, "-d", str(case.d),
                                           "-x", str(case.x), "-y", str(case.y)])
        verdict = out.split("\n", 1)[0]
        ok = (rc, verdict) == ((0, "true") if case.holds else (1, "false"))
        return Result("oracle", case.label, seconds, ref, ok, False, len(out), 0,
                      f"{rc} {verdict}")

    def _certificate(self, case: CertCase) -> list[Result]:
        path = Path(f"{case.label}.cert")
        path.unlink(missing_ok=True)
        rc, out, seconds, ref = self._run(["certify", *case.source.args, "-d", str(case.d),
                                           "-x", str(case.x), *case.cap_args, "--out", str(path)])
        data = path.read_bytes() if path.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        first = self.cert_hash.setdefault(case.label, digest)
        ok = (rc == 0 and first == digest
              and f"\nbranch {case.branch}\n".encode() in data)
        results = [Result("certify", case.label, seconds, ref, ok, False, len(data) + len(out),
                          len(data), f"{rc} {digest}")]
        if case.tamper and case.label not in self.tampered and data:
            self.tampered[case.label] = self._write_tampered(case, data.decode())

        rc, out, seconds, ref = self._run(["verify", str(path), *case.source.args,
                                           *case.cap_args])
        verdict = _last_line(out)
        results.append(Result("verify", case.label, seconds, ref, rc == 0 and verdict == "valid",
                              False, len(out), 0, f"{rc} {verdict}"))
        for kind, copy in self.tampered.get(case.label, ()):
            rc, out, seconds, ref = self._run(["verify", str(copy), *case.source.args,
                                               *case.cap_args], sized=False)
            verdict = _last_line(out)
            ok = (rc, verdict) == (1, "INVALID") or rc == 2
            results.append(Result("reject", f"{case.label}:{kind}", seconds, ref, ok,
                                  kind == KNOWN_DEFECT, len(out), 0, f"{rc} {verdict}"))
        return results

    def _write_tampered(self, case: CertCase, text: str) -> list[tuple[str, Path]]:
        copies = []
        for kind in TAMPER_KINDS:
            rng = random.Random(f"{self.seed}:{case.label}:{kind}")
            copy = Path(f"{case.label}.{kind}.cert")
            copy.write_text(tamper(text, kind, case.source, rng), encoding="utf-8")
            copies.append((kind, copy))
        return copies
