#!/usr/bin/env python3
"""Informational scaling sweep; the gated benchmark runs do not include it.

Records verify-sums cpu_s (scaled as in run.py), raw_cpu_s, wall_s and
peak_rss_mb at N = 2000, 4000, 8000 and 16000, and the unscaled CPU time of
the search without a solution (telescoper.search_none_s of a traced search
run) at degree bounds 12 and 20, together with the machine.
Prints one JSON object and writes it to perfbench/out/sweep.json.

    python3 perfbench/sweep.py [--seed N] [--reps R]

It takes a few minutes and about 400 MB at N = 16000.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import OUT, ROOT, SIZES, BenchError, machine, run_worker
from spans import layer_metrics

SWEEP_N = (2000, 4000, 8000, 16000)
SWEEP_DEG = (12, 20)


def repeat(workload: str, seed: int, params: dict, trace: bool, reps: int, label: str) -> list[dict]:
    results = []
    for i in range(reps):
        res = run_worker(workload, seed, params, trace, f"sweep-{label}-rep{i}")
        if res["failed"]:
            raise BenchError(f"{label}: {res['errors']}")
        results.append(res)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)

    out = {"machine": machine(), "seed": args.seed, "reps": args.reps, "verify_sums": [], "search_none": []}
    try:
        for n in SWEEP_N:
            params = dict(SIZES["full"], n=n)
            res = repeat("verify-sums", args.seed, params, False, args.reps, f"n{n}")
            out["verify_sums"].append(
                {
                    "n": n,
                    "cpu_s": statistics.median(r["cpu_s"] * r["scale"] for r in res),
                    "raw_cpu_s": statistics.median(r["cpu_s"] for r in res),
                    "wall_s": statistics.median(r["wall_s"] for r in res),
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in res),
                }
            )
            print(out["verify_sums"][-1], file=sys.stderr)
        for deg in SWEEP_DEG:
            params = dict(SIZES["full"], none_deg=deg)
            layers = [
                layer_metrics(r["spans"])
                for r in repeat("search", args.seed, params, True, args.reps, f"deg{deg}")
            ]
            out["search_none"].append(
                {
                    "deg_bound": deg,
                    "search_none_s": statistics.median(m["telescoper.search_none_s"] for m in layers),
                    "max_rows": layers[0]["exactmath.max_rows"],
                    "max_cols": layers[0]["exactmath.max_cols"],
                }
            )
            print(out["search_none"][-1], file=sys.stderr)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out))
    print(f"wrote {(OUT / 'sweep.json').relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
