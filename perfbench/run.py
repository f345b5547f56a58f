"""Benchmark of semimat's commands, end to end and layer by layer.

Run from the root of a checkout; each workload runs in its own process:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0

The seed picks the positions of the tampered certificates; the same seed
gives the same inputs.  A run repeats whole passes over the workload's
operations for at most ``--seconds`` (at least one pass), checks
every answer, prints a few report lines and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics untraced:

  pass_ref     time per pass over all the workload's operations in units
               of a fixed reference kernel's time: the mean seconds per
               pass divided by the mean seconds of the reference kernel
               (workloads.reference_kernel), which runs after every
               operation for a tenth of its time
  peak_rss_mb  ``ru_maxrss`` of the run's process at its end
  out_bytes    certificate bytes written plus standard output, per pass
  ops_ok       share of operations whose exit code and verdict match the
               known answer
  setup_s      median over fresh interpreters of the time from spawn until
               semimat is imported and the workload's semirings are built

These are the metrics every workload has and none reads 0.  The time is
gated as a ratio because the benchmark runs on a shared two-CPU machine
whose speed drifts by 10-30% between runs a minute apart, and within a
run for tens of seconds at a time, so no statistic of a 40 s run's plain
seconds settles.  The reference kernel, sampled in step with the work,
slows with it: over ten 40 s runs of each workload the spread (quartile
distance over median) of seconds per pass was 0.11-0.20, that of
pass_ref 0.045-0.061.  The report lines before the JSON also give the
plain seconds per pass (pass_s) with the kernel's mean and, per command
kind present, certify_s, verify_s, reject_s and oracle_s (median and
tail over passes, with the pass count), cert_bytes and ops_failed.

``--trace 1`` runs one untraced pass, then traced passes (see spans.py),
and reports per-layer calls and self seconds per pass, result sizes and
the tracing overhead.  Details, with every operation's time on every
pass, go to ``.perfbench/<workload>-trace<0|1>.json`` and the spans of a
traced run to ``.perfbench/<workload>-spans.tsv.gz``.

BENCHMARK.json gates all three workloads.  Left out: the ladder rungs
tropical(1) d=1 x=5 (m=243, about 44 s per certify), boolean d=2 x=5
(m=1024, did not finish in 8 min) and boolean d=2 x=6 (m=4096).  At 22 runs per check
they cost too much until X is built integral and sparse and the
products h.s(f) are computed once.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 21

sys.path.insert(0, str(HERE))
from workloads import KNOWN_DEFECT, WORKLOADS, Runner  # noqa: E402

# A fresh interpreter that imports semimat and builds the workload's
# semirings: what a user pays before the first command does any work.
# It prints the monotonic clock, which is shared by all processes, when
# ready, so the time to exit and to be reaped is not counted.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import semimat.cli
from semimat import builtin_semiring
for spec in sys.argv[2:]:
    name, _, k = spec.partition(":")
    builtin_semiring(name, int(k) if k else None)
import time
print(time.perf_counter())
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str) -> list[float]:
    specs = sorted({":".join(case.source.args[1::2]) for case in WORKLOADS[workload]})
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *specs],
                              check=True, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout) - start)
    return times


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


KINDS = ("certify", "verify", "reject", "oracle")


def per_pass(passes, kinds) -> list[float]:
    return [sum(r.seconds for r in p if r.kind in kinds) for p in passes]


def op_times(passes, field: str = "seconds") -> dict[tuple[str, str], list]:
    """A field of each operation's result on every pass, keyed by (kind, label)."""
    times: dict[tuple[str, str], list] = {}
    for p in passes:
        for r in p:
            times.setdefault((r.kind, r.label), []).append(getattr(r, field))
    return times


def seconds_per_pass(passes, kinds) -> float:
    """Mean seconds per pass of the operations of the given kinds."""
    return sum(r.seconds for p in passes for r in p if r.kind in kinds) / len(passes)


def reference_seconds(passes) -> float:
    """Mean seconds of the reference kernel over the run.

    The kernel runs after every operation for a tenth of its time, so its
    mean weighs the machine's speed over the run as the operations' total
    time does.
    """
    return statistics.fmean(t for p in passes for r in p for t in r.ref_seconds)


def kind_stats(passes) -> dict:
    """Seconds per pass of each command kind present, with its tail over passes."""
    stats = {}
    for kind in KINDS:
        if any(r.kind == kind for p in passes for r in p):
            label, worst = tail(per_pass(passes, (kind,)))
            stats[f"{kind}_s"] = {"median": statistics.median(per_pass(passes, (kind,))),
                                  label: worst, "passes": len(passes)}
    return stats


def repeat_passes(runner: Runner, seconds: float) -> list:
    """Whole passes while one more, at the mean pass time so far, ends within ``seconds``.

    At least one pass runs.  Ending on time, not after it, keeps the
    length of a run near ``seconds`` whatever a pass costs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def untraced_metrics(passes, setup: list[float]) -> dict:
    ops = [r for p in passes for r in p]
    return {
        "pass_ref": (seconds_per_pass(passes, KINDS) / reference_seconds(passes), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "out_bytes": (statistics.median_low(sum(r.out_bytes for r in p) for p in passes),
                      "bytes"),
        "ops_ok": (sum(r.ok for r in ops) / len(ops), "share"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_pass_count(total: int, passes: int):
    return total // passes if total % passes == 0 else total / passes


def traced_metrics(recorder, baseline, traced) -> dict:
    n = len(traced)
    metrics = {}
    for name, (calls, self_s) in recorder.totals().items():
        metrics[f"{name}.calls"] = (per_pass_count(calls, n), "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for key, value in recorder.sizes.items():
        metrics[key] = (value or 0, "bits" if key == "size.det_bits" else "count")
    for kind in ("certify", "verify", "oracle"):
        base = seconds_per_pass([baseline], (kind,))
        metrics[f"overhead.{kind}"] = (
            seconds_per_pass(traced, (kind,)) / base - 1 if base else 0.0, "share")
    metrics["trace.spans"] = (per_pass_count(len(recorder), n), "count")
    metrics["trace.absent"] = (len(recorder.absent), "count")
    return metrics


def report(workload: str, args, passes, metrics: dict, extra: dict) -> dict:
    ops = [r for p in passes for r in p]
    failed = [r for r in ops if not r.ok]
    known = [r for r in failed if r.known_defect]
    correct = len(failed) == len(known) and extra.get("same_as_untraced", True)
    stats = kind_stats(passes)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  "
          f"operations {len(ops)}")
    print(f"  {'pass_s':<12} s      {seconds_per_pass(passes, KINDS):.4f}  reference kernel "
          f"mean {reference_seconds(passes):.5f} s")
    for name, entry in stats.items():
        shown = "  ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in entry.items())
        print(f"  {name:<12} s      {shown}")
    cert_bytes = [sum(r.cert_bytes for r in p) for p in passes]
    if any(cert_bytes):
        print(f"  {'cert_bytes':<12} bytes  {statistics.median(cert_bytes)} per pass")
    print(f"  {'ops_failed':<12} share  {len(failed) / len(ops):.6f}  "
          f"({len(failed)} of {len(ops)})")
    if known:
        print(f"    {len(known)} are '{KNOWN_DEFECT}' tampered copies accepted as valid: verify "
              "checks that recorded checks pass, not that their names are the expected list")
    for r in failed:
        if not r.known_defect:
            print(f"    WRONG ANSWER: {r.kind} {r.label} ({r.digest})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {unit:<6} {value}")
    detail = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes),
              "pass_s": seconds_per_pass(passes, KINDS),
              "reference_s": {f"{kind} {label}": values for (kind, label), values
                              in op_times(passes, "ref_seconds").items()}, "commands": stats,
              "operations": {f"{kind} {label}": values
                             for (kind, label), values in op_times(passes).items()},
              "cert_bytes": statistics.median(cert_bytes),
              "ops_failed": {"share": len(failed) / len(ops), "count": len(failed),
                             "known_defect": len(known)},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra}
    (WORK / f"{workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed),
            "metrics": detail["metrics"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semimat" / "cli.py").is_file():
        print(f"error: no semimat sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup(args.workload) if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    import semimat.cli

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir, semimat.cli)
        if args.trace == 0:
            passes = repeat_passes(runner, args.seconds)
            result = report(args.workload, args, passes, untraced_metrics(passes, setup), {})
        else:
            from spans import Recorder
            start = time.perf_counter()
            baseline = runner.run_pass()
            with Recorder() as recorder:
                runner.recorder = recorder
                traced = repeat_passes(runner, args.seconds - (time.perf_counter() - start))
            recorder.write(WORK / f"{args.workload}-spans.tsv.gz")
            same = all([r.digest for r in p] == [r.digest for r in baseline] for p in traced)
            extra = {"same_as_untraced": same, "absent": recorder.absent,
                     "wrapped": recorder.wrapped}
            result = report(args.workload, args, traced,
                            traced_metrics(recorder, baseline, traced), extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
