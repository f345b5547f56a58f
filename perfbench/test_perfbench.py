"""Tests of the benchmark itself, on instances small enough to run in a second."""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import semimat.cli  # noqa: E402
from semimat import (boolean_semiring, builtin_semiring, certify,  # noqa: E402
                     natural_order, render_certificate)
from spans import FUNCTIONS, Recorder, semimat_modules  # noqa: E402
from workloads import (BOOLEAN, KNOWN_DEFECT, REFERENCE_SHARE, TAMPER_KINDS,  # noqa: E402
                       WORKLOADS, CertCase, OracleCase, Runner, tamper, tropical)

TINY = (CertCase(BOOLEAN, 1, 3, tamper=True),
        CertCase(BOOLEAN, 1, 2),
        OracleCase(BOOLEAN, 1, 2, 2),
        OracleCase(BOOLEAN, 1, 2, 0))


def test_known_answers_come_from_the_parameters():
    assert [c.branch for c in WORKLOADS["construct"]] == ["construct"] * 3
    assert [c.branch for c in WORKLOADS["pad-wide"]] == ["pad"] * 2
    assert [c.holds for c in WORKLOADS["oracle"]] == [True, True, True, False, False]
    with pytest.raises(ValueError):
        OracleCase(BOOLEAN, 1, 3, 1).holds


@pytest.mark.parametrize("source", [BOOLEAN, tropical(1), tropical(2)], ids=lambda s: s.label)
def test_source_facts_match_the_semiring(source):
    sr = builtin_semiring(*(["tropical", int(source.args[3])] if len(source.args) > 2
                            else ["boolean"]))
    assert (source.n, source.zero, source.one) == (sr.size, sr.zero, sr.one)
    assert source.height == tuple(natural_order(sr).height)


@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_tamper_is_seeded_and_local(kind):
    text = render_certificate(certify(boolean_semiring(), 1, 3))
    copies = [tamper(text, kind, BOOLEAN, random.Random(seed)) for seed in (1, 1, 2, 3, 4)]
    assert copies[0] == copies[1]
    assert len(set(copies)) > 1
    for copy in copies:
        changed = [(a, b) for a, b in zip(text.split("\n"), copy.split("\n")) if a != b]
        assert len(changed) == (2 if kind == "f-swap" else 1)
        if kind == "f-swap":
            (a, b), _ = changed
            height = [sum(map(int, line.split()[1:])) for line in (a, b)]
            assert height[0] != height[1]


def test_tampered_copies_are_rejected_apart_from_the_known_defect(tmp_path):
    runner = Runner(TINY[:1], 7, tmp_path, semimat.cli)
    results = runner.run_pass()
    assert [r.kind for r in results] == ["certify", "verify"] + ["reject"] * len(TAMPER_KINDS)
    for r in results:
        assert r.ok or (r.known_defect and r.label.endswith(KNOWN_DEFECT)), r


def test_reference_kernel_gets_its_share_of_every_operation(tmp_path):
    for r in Runner(TINY, 1, tmp_path, semimat.cli).run_pass():
        assert r.ref_seconds and all(t > 0 for t in r.ref_seconds)
        assert sum(r.ref_seconds) >= REFERENCE_SHARE * r.seconds


def _traced_pass(tmp_path, seed=3):
    runner = Runner(TINY, seed, tmp_path, semimat.cli)
    untraced = runner.run_pass()
    with Recorder() as recorder:
        runner.recorder = recorder
        traced = runner.run_pass()
    return untraced, traced, recorder


def test_self_time_plus_child_time_is_the_span_duration(tmp_path):
    _, _, rec = _traced_pass(tmp_path)
    assert len(rec) > 0
    children = [0.0] * len(rec)
    for i, parent in enumerate(rec.parents):
        if parent >= 0:
            assert rec.starts[parent] <= rec.starts[i] <= rec.ends[i] <= rec.ends[parent]
            children[parent] += rec.ends[i] - rec.starts[i]
    own = rec.span_self_times()
    for i, self_s in enumerate(own):
        assert self_s + children[i] == pytest.approx(rec.ends[i] - rec.starts[i], abs=1e-9)
        assert self_s >= -1e-9
    roots = sum(rec.ends[i] - rec.starts[i] for i, p in enumerate(rec.parents) if p < 0)
    assert sum(own) == pytest.approx(roots, abs=1e-6)
    assert {FUNCTIONS[rec.name_ids[i]] for i, p in enumerate(rec.parents) if p < 0} == {"cli.main"}


def test_every_listed_function_is_wrapped_where_bound():
    mods = semimat_modules()
    originals = {}
    for name in FUNCTIONS:
        home, fn = name.split(".")
        originals[name] = getattr(mods[f"semimat.{home}"], fn)
    bound = {name: [(m, a) for m in mods.values() for a, v in vars(m).items() if v is f]
             for name, f in originals.items()}
    with Recorder() as rec:
        assert rec.absent == []
        for name, places in bound.items():
            assert rec.wrapped[name] == len(places)
            for mod, attr in places:
                assert getattr(mod, attr) is not originals[name]
                assert getattr(mod, attr).__wrapped__ is originals[name]
    assert len(bound["matcat.compose"]) > 1   # bound in matcat and in the modules using it
    for name, places in bound.items():
        for mod, attr in places:
            assert getattr(mod, attr) is originals[name]


def test_traced_pass_gives_untraced_verdicts_and_bytes(tmp_path):
    untraced, traced, _ = _traced_pass(tmp_path)
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    assert [r.cert_bytes for r in traced] == [r.cert_bytes for r in untraced]


def test_counts_repeat_exactly(tmp_path):
    runs = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        _, _, rec = _traced_pass(workdir)
        runs.append(({k: calls for k, (calls, _) in rec.totals().items()}, rec.sizes))
    assert runs[0] == runs[1]
    calls, sizes = runs[0]
    assert calls["linalg.determinant"] > 0 and calls["linalg.solve_linear"] > 0
    assert sizes == {"size.m": 8, "size.x_nnz": sizes["size.x_nnz"],
                     "size.det_bits": sizes["size.det_bits"], "size.endos": 16}
    assert sizes["size.x_nnz"] >= 8 and sizes["size.det_bits"] >= 1


def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in HERE.glob("*.py"):
        (bench / src.name).write_bytes(src.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
