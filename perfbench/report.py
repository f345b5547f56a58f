"""Run every workload untraced and traced, and print all metrics side by side.

    python3 perfbench/report.py [--seed 1] [--seconds 1]

Each workload runs in its own fresh process through run.py, once with
``--trace 0`` and once with ``--trace 1``.  The report lists every
end-to-end metric by name and unit, the plain seconds per pass and per
command kind, the failed operations, and the per-layer calls and self
seconds of the traced run with its tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORK
from spans import FUNCTIONS

HERE = Path(__file__).resolve().parent
ORDER = ("construct", "pad-wide", "oracle")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run.py --workload {workload} --trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((WORK / f"{workload}-trace{trace}.json").read_text())
    return {**detail, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def row(label: str, unit: str, values) -> str:
    cells = "".join(f"{v:>16.6g}" if isinstance(v, (int, float)) else f"{v:>16}"
                    for v in values)
    return f"{label:<44}{unit:<7}{cells}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    plain = {w: run(w, args.seed, args.seconds, 0) for w in ORDER}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in ORDER}

    print(row("end to end (untraced)", "unit", ORDER))
    for name, entry in plain[ORDER[0]]["metrics"].items():
        print(row(name, entry["unit"], [plain[w]["metrics"][name]["value"] for w in ORDER]))
    print(row("pass_s mean per pass (plain seconds)", "s", [plain[w]["pass_s"] for w in ORDER]))
    kinds = ("certify_s", "verify_s", "reject_s", "oracle_s")
    for kind in kinds:
        print(row(f"{kind} median per pass", "s",
                  [plain[w]["commands"].get(kind, {}).get("median", "-") for w in ORDER]))
    print(row("cert_bytes per pass", "bytes", [plain[w]["cert_bytes"] or "-" for w in ORDER]))
    print(row("ops_failed", "share", [plain[w]["ops_failed"]["share"] for w in ORDER]))
    print(row("  of which known defect (renamed check)", "count",
              [plain[w]["ops_failed"]["known_defect"] for w in ORDER]))
    print(row("passes", "count", [plain[w]["passes"] for w in ORDER]))
    print(row("correct", "", [str(plain[w]["correct"] and traced[w]["correct"]) for w in ORDER]))

    print()
    print(row("per layer (traced, per pass)", "unit", ORDER))
    for name in FUNCTIONS:
        for suffix, unit in (("self_s", "s"), ("calls", "count")):
            key = f"{name}.{suffix}"
            print(row(key, unit, [traced[w]["metrics"][key]["value"] for w in ORDER]))
    for name, entry in traced[ORDER[0]]["metrics"].items():
        if not name.endswith(("self_s", "calls")):
            print(row(name, entry["unit"], [traced[w]["metrics"][name]["value"] for w in ORDER]))
    for w in ORDER:
        top = max(FUNCTIONS, key=lambda f: traced[w]["metrics"][f"{f}.self_s"]["value"])
        print(f"largest self time on {w}: {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
