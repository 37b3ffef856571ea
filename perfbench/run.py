#!/usr/bin/env python3
"""Benchmark of the `rc` package: end-to-end metrics per workload, and
per-layer metrics from a traced run.

Run from the root of a checkout (no build step; the package is imported from
`src`):

    python3 perfbench/run.py                         # every workload, one table
    python3 perfbench/run.py --workload search --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload catalogue --trace 1   # per-layer metrics

Workloads (BENCHMARK.json records why each exists):

- verify-sums: verify_claim_range for theorem-1.1i, sun-divisibility and
  theorem-1.3i over n = 1..8000 with one shared SumEvaluator, in a fixed
  order; the sums at 8000 are compared with stored sha256 digests.
- search: the four reference certificate searches, discover_weights for
  (k+1)(a k + b) T(k)T(k+1), and find_telescoper for W(k)^2 with a seeded cubic
  weight that has no certificate up to degree 12; every certificate found is
  re-certified and the reference ones are compared byte for byte with
  golden/.
- catalogue: the other 27 built-in claims at four times their suite range
  (the trinomial transforms at 1..60), sharing one evaluator, in a seeded
  order; point counts are compared with golden/.

Repetitions run one after another, each in a fresh worker process, for
`--seconds` (at least two). The gated times are CPU times of the worker: the
workload is single-threaded and does no I/O, so on an idle machine CPU time
and wall time agree, but on a shared virtual machine other tenants made the
wall time of one and the same run up to 2.6 times as long and, through the
caches and cores they share, its CPU time up to twice as long, for minutes at
a time. cpu_s is therefore the median over the untraced repetitions of the
workload's CPU time scaled to a fixed machine speed (speed.py), and
ops_per_cpu_s the operations of a repetition over it. setup_s is the median,
scaled alike, of the CPU time a worker used before its `ready` line (starting
Python, `import rc`, the catalogue and the workload's inputs), over every
untraced repetition plus set-up-only workers up to nine samples. peak_rss_mb is
the median of the workers' ru_maxrss. The unscaled CPU times, the wall times
and the scale factor are printed and recorded beside them, but not gated.

An operation is a claim point or golden comparison (verify workloads) or a
search, certify or discover call (search); it fails when its verdict or output
differs from the expected one or it raises. With `--trace 1` repetitions
alternate untraced and traced; the traced ones give the per-layer metrics
(medians, in unscaled CPU time) and a span file under perfbench/out/, and
trace.overhead_s is the median traced minus the median untraced unscaled CPU
time of the workload.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it records the machine,
seed, commit and every repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify-sums", "search", "catalogue")
SIZES = {
    "full": {"n": 8000, "range_factor": 4, "direct_hi": 60, "none_deg": 12},
    # for the smoke test of the benchmark itself
    "tiny": {"n": 300, "range_factor": 1, "direct_hi": 12, "none_deg": 3},
}
END_TO_END = [("setup_s", "s"), ("cpu_s", "s"), ("ops_per_cpu_s", "1/s"), ("peak_rss_mb", "MB")]
MIN_REPS = 2
MIN_SETUPS = 9
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, params: dict, trace: bool, run_id: str, setup_only=False):
    """Start one worker; returns its result, with the set-up CPU time it
    reported and the set-up wall time seen from here added."""
    spec = {
        "workload": workload,
        "seed": seed,
        "params": params,
        "trace": trace,
        "run_id": run_id,
        "setup_only": setup_only,
    }
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().split()
        setup_wall_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if len(ready) != 2 or ready[0] != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker {run_id} exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result.update(setup_cpu_s=float(ready[1]), setup_wall_s=setup_wall_s)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    """Repetitions for `seconds`; returns the run's record."""
    start = time.perf_counter()
    reps, took = [], []
    # start a repetition only while the slowest one so far would still end in time
    while len(reps) < MIN_REPS or time.perf_counter() - start + max(took) <= seconds:
        traced = trace and len(reps) % 2 == 1
        run_id = f"{workload}-seed{seed}-rep{len(reps)}"
        t0 = time.perf_counter()
        res = run_worker(workload, seed, params, traced, run_id)
        took.append(time.perf_counter() - t0)
        res.update(run_id=run_id, traced=traced)
        reps.append(res)
    plain = [r for r in reps if not r["traced"]]
    setups = [{k: r[k] for k in ("setup_cpu_s", "setup_wall_s", "scale")} for r in plain]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, params, False, "setup", setup_only=True))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    cpu_s = statistics.median(r["cpu_s"] * r["scale"] for r in plain)
    record = {
        "workload": workload,
        "seed": seed,
        "params": params,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": [e for r in reps for e in r["errors"]][:10],
        "setups": setups,
        "reps": [{k: v for k, v in r.items() if k not in ("spans", "errors")} for r in reps],
        "end_to_end": {
            "setup_s": statistics.median(s["setup_cpu_s"] * s["scale"] for s in setups),
            "cpu_s": cpu_s,
            "ops_per_cpu_s": plain[0]["attempted"] / cpu_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        # printed, not gated: unscaled, at the mercy of other tenants
        "unscaled": {
            "setup_cpu_s": statistics.median(s["setup_cpu_s"] for s in setups),
            "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
            "raw_cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "scale": statistics.median(r["scale"] for r in plain),
        },
    }
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = median_metrics([layer_metrics(r["spans"]) for r in traced])
        untraced = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_s"] = layers["trace.cpu_s"] - untraced
        record["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(span_file, "w") as fh:
            for r in traced:
                for s in r["spans"]:
                    fh.write(json.dumps(s) + "\n")
        record["span_file"] = str(span_file.relative_to(ROOT))
    return record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def metric_rows(record: dict, trace: bool) -> list[tuple[str, float, str]]:
    if trace:
        return [(name, record["per_layer"][name], unit) for name, unit, _, _ in LAYER_METRICS]
    return [(name, record["end_to_end"][name], unit) for name, unit in END_TO_END]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rc" / "__init__.py").is_file():
        print(f"error: no rc package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, seconds, bool(args.trace), SIZES[args.size]))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        print(f"{rec['workload']} (seed {args.seed}, {len(rec['reps'])} repetitions)", file=sys.stderr)
        for name, value, unit in metric_rows(rec, bool(args.trace)):
            print(f"  {name:<32} {value:>14.6g} {unit}", file=sys.stderr)
            metrics[prefix + name] = {"value": value, "unit": unit}
        # printed, but not gated: the unscaled times are at the mercy of
        # other tenants of the machine, and fail_ratio is 0 whenever the
        # program is correct (`failed` and `attempted` of the result carry it)
        for name, value in rec["unscaled"].items():
            unit = "" if name == "scale" else "s"
            print(f"  {name:<32} {value:>14.6g} {unit} (not gated)", file=sys.stderr)
        print(f"  {'fail_ratio':<32} {rec['fail_ratio']:>14.6g} ratio", file=sys.stderr)
        for err in rec["errors"]:
            print(f"  failed: {err}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"machine": machine(), "seed": args.seed, "size": args.size, "runs": records}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
