"""The whitneyforms benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {verify-cli,roundtrip,solve} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed amount of work twice, untraced and traced, and reports the
per-layer metrics and the tracing overhead. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``. NOTES.md maps each
per-layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from calibrate import in_reference_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-cli", "roundtrip", "solve")
STREAM_WORKERS = 3  # warm processes per run; each is one set-up sample
MIN_SETUPS = 5  # set-up samples of verify-cli (interpreter + import) at least
TRACE_CYCLES = 2  # stream ops of a traced run, in whole cycles
TIMEOUT_S = 170


def metric_units(key: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )


def result_of(proc: subprocess.Popen) -> dict:
    """The worker's last stdout line, once it has exited cleanly."""
    lines = proc.stdout.read().splitlines()
    code = proc.wait(timeout=TIMEOUT_S)
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(lines[-1])


def p50_p90_rate(values: list[float]) -> tuple[float, float, float]:
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else p50
    return p50, p90, len(values) / sum(values)


def latency_metrics(latencies: list[float], scaled: list[float], references: list) -> dict:
    """Latency and throughput in ``ref`` units, and in raw time for the record."""
    if not latencies:
        raise RuntimeError("no operation completed")
    p50, p90, rate = p50_p90_rate(scaled)
    raw_p50, raw_p90, raw_rate = p50_p90_rate(latencies)
    return {
        "op_p50_ref": p50,
        "op_p90_ref": p90,
        "ops_per_ref": rate,
        "raw": {"op_p50_ms": raw_p50 * 1e3, "op_p90_ms": raw_p90 * 1e3, "ops_per_s": raw_rate,
                "ref_ms": statistics.median(d for _, d in references) * 1e3,
                "ref_samples": len(references)},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_stream(workload: str, seed: int, seconds: float) -> dict:
    """STREAM_WORKERS warm processes in turn, each timing seconds / STREAM_WORKERS."""
    setups, latencies, scaled, references, errors = [], [], [], [], []
    attempted = failed = 0
    first = 0
    for _ in range(STREAM_WORKERS):
        start = time.perf_counter()
        proc = worker("stream", "--workload", workload, "--seed", str(seed),
                      "--first-op", str(first), "--seconds", str(seconds / STREAM_WORKERS))
        if json.loads(proc.stdout.readline() or "{}").get("ready") is not True:
            proc.wait(timeout=TIMEOUT_S)
            raise RuntimeError("worker did not finish its set-up")
        setups.append(time.perf_counter() - start)
        res = result_of(proc)
        latencies += [d for _, d in res["latencies"]]
        scaled += in_reference_units(res["latencies"], res["references"])
        references += res["references"]
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
        first = res["next_op"]
    metrics = latency_metrics(latencies, scaled, references)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
        "inputs": wl.stream_descriptor(seed, range(first)), "samples": len(latencies),
    }


def run_verify_cli(seed: int, seconds: float) -> dict:
    """Fresh ``python -m whitneyforms verify`` processes until --seconds is spent.

    Each runs in verify_child.py, which times references in the same process
    around the CLI and between its cells; raw latency is the CLI's own time.
    """
    def setup() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import whitneyforms.cli"],
                       cwd=ROOT, env=child_env(), check=True, timeout=TIMEOUT_S)
        return time.perf_counter() - start

    # Set-ups are spread over the run, one before each invocation, so that
    # their median samples the machine over the run rather than at its start.
    setups, latencies, scaled, references, errors = [], [], [], [], []
    attempted = failed = 0
    phase = time.perf_counter()
    for verify_seed in wl.verify_seeds(seed, 1000):
        if time.perf_counter() - phase >= seconds:
            break
        setups.append(setup())
        proc = subprocess.run([sys.executable, str(HERE / "verify_child.py"), str(verify_seed)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        attempted += 1
        expected = wl.expected_verify_stdout(wl.VERIFY_N_MAX, wl.VERIFY_SAMPLES, verify_seed)
        res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if res.get("code") in (0, None) and res.get("stdout") == expected:
            latencies.append(sum(d for _, d in res["segments"]))
            scaled.append(sum(in_reference_units(res["segments"], res["references"])))
            references += res["references"]
        else:
            failed += 1
            errors.append(f"verify --seed {verify_seed}: exit {res.get('code', proc.returncode)}, "
                          f"{proc.stderr.strip()[-300:] or 'report differs'}")
    while len(setups) < MIN_SETUPS:
        setups.append(setup())
    metrics = latency_metrics(latencies, scaled, references)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
        "inputs": wl.verify_descriptor(), "samples": len(latencies),
    }


def run_traced(workload: str, seed: int) -> dict:
    """The same fixed work untraced, then traced; per-layer figures from the second."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.tsv"
    if workload == "verify-cli":
        argv = ["cli", "--seed", str(wl.verify_seeds(seed, 1)[0])]
        inputs = wl.verify_descriptor()
    else:
        argv = ["stream", "--workload", workload, "--seed", str(seed),
                "--ops", str(TRACE_CYCLES * wl.CYCLE)]
        inputs = wl.stream_descriptor(seed, range(TRACE_CYCLES * wl.CYCLE))
    plain = result_of(worker(*argv))
    traced = result_of(worker(*argv, "--trace", str(spans)))
    layers = traced["layers"]
    summed = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    if summed > traced["wall_s"]:
        raise RuntimeError(f"module self times {summed} s exceed the traced wall time")
    metrics = {name: layers.get(name, 0) for name in metric_units("per_layer")}
    plain_ref, traced_ref = (r["wall_s"] / r["ref_s"] for r in (plain, traced))
    metrics["trace.overhead_frac"] = (traced_ref - plain_ref) / plain_ref
    return {
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "inputs": inputs,
        "layers": layers,
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"],
                   "ref_s": {"untraced": plain["ref_s"], "traced": traced["ref_s"]}},
        "spans": {"count": traced["spans"], "file": str(spans.relative_to(ROOT))},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "whitneyforms" / "__init__.py").is_file():
        print(f"no whitneyforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        out = run_traced(args.workload, args.seed)
        units = metric_units("per_layer")
        for name in sorted(out["layers"]):
            print(f"layer {name} {out['layers'][name]:.6g}")
        print(f"wall_s {json.dumps(out['wall_s'])} spans {json.dumps(out['spans'])}")
    elif args.workload == "verify-cli":
        out = run_verify_cli(args.seed, args.seconds)
        units = metric_units("end_to_end")
    else:
        out = run_stream(args.workload, args.seed, args.seconds)
        units = metric_units("end_to_end")
    for error in out["errors"]:
        print(f"FAILED {error}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}")
    print(f"inputs {json.dumps(out['inputs'])}")
    if "samples" in out:
        print(f"latency samples {out['samples']}")
        print(f"raw {json.dumps(out['metrics']['raw'])}")
    print(f"failed_frac {out['failed'] / max(out['attempted'], 1):.6g} "
          f"({out['failed']} of {out['attempted']})")
    for name, unit in units.items():
        print(f"{name} {out['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
