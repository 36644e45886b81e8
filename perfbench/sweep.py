"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 10 [--first-seed 1] [--workload NAME ...]
        [--trace] [--out FILE] [--note TEXT]

For each workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. An end-to-end
metric whose spread is not below a third of its bound in BENCHMARK.json is
flagged. With ``--trace`` it adds one traced run per workload. ``--out``
writes everything as JSON, which is how a baseline file is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    raw = [line[4:] for line in lines if line.startswith("raw ")]
    if raw:
        result["raw"] = json.loads(raw[0])
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--note", default="", help="what was measured where, kept in --out")
    args = parser.parse_args()
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    report: dict = {"note": args.note, "run_seconds": spec["run_seconds"], "seeds": list(seeds),
                    "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(command, workload, s, spec["run_seconds"], 0) for s in seeds]
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
        }
        if all("raw" in r for r in runs):
            entry["raw"] = {
                name: summarize([r["raw"][name] for r in runs], None) for name in runs[0]["raw"]
            }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for name, m in entry["end_to_end"].items():
            flag = "" if m["steady"] else "  NOT STEADY"
            print(f"  {name:12} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
                  f"  spread {m['spread']:.3f} (bound {m['bound']}){flag}")
        for name, m in entry.get("raw", {}).items():
            print(f"  raw {name:12} median {m['median']:.6g}  spread {m['spread']:.3f}")
        if args.trace:
            traced = run_once(command, workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            print(f"  traced: overhead {entry['per_layer']['trace.overhead_frac']:.3f}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
