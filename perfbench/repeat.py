"""Run one workload on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 --seconds S

For every end-to-end metric prints the median, the quartiles and the
quartile spread as a share of the median (`statistics.quantiles(values,
n=4)`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    """Seeds of an inclusive range "lo-hi"."""
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, list[str]]:
    """One run of run.py; its result object, with the seed, the run
    record and the CLI report hash added, and its stdout lines."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["run_record"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                                if line.startswith("run_record "))
    result["report_sha256"] = next(line.split()[1] for line in lines
                                   if line.startswith("report_sha256 "))
    raw = next((line.split(": ", 1)[1].split() for line in lines if line.startswith("raw ")), [])
    result["raw"] = {k: float(v) for k, v in zip(raw[::2], raw[1::2])}
    return result, lines


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarise(results: list[dict]) -> dict:
    return {name: {"unit": results[0]["metrics"][name]["unit"],
                   **spread([r["metrics"][name]["value"] for r in results])}
            for name in results[0]["metrics"]}


def repeat(workload: str, seeds: list[int], seconds: float) -> dict:
    """Untraced runs on each seed in turn, with their summary."""
    results, walls = [], []
    for seed in seeds:
        t0 = time.perf_counter()
        result, _ = bench(workload, seed, seconds)
        walls.append(time.perf_counter() - t0)
        results.append(result)
        print(f"{workload} seed {seed}: wall {walls[-1]:.1f} s  correct {result['correct']}  "
              f"failed {result['failed']} of {result['attempted']}", flush=True)
    summary = summarise(results)
    raw = {name: spread([r["raw"][name] for r in results]) for name in results[0]["raw"]}
    for name, s in summary.items():
        print(f"  {name:18s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    for name, s in raw.items():
        print(f"  raw {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    print(f"  run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s",
          flush=True)
    return {"workload": workload, "runs": results, "summary": summary, "raw": raw,
            "walls_s": walls}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help='inclusive range "lo-hi"')
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args()
    repeat(args.workload, seed_list(args.seeds), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
