"""Measure the benchmark's baseline and write it to BENCH_baseline.json.

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json, with BENCHMARK.json's run length:

- two sets of untraced runs on seeds 101-110, the first set for all
  workloads and then the second: the spread of each end-to-end metric
  and how far the second set's median moved from the first's;
- ten untraced runs of seed 1: the run-to-run noise of the machine,
  without the differences between seeds' inputs;
- one traced run of seed 1: the per-layer metrics, the three largest
  `self_ms` layers checked against the predicted ones, and the tracing
  overhead (untraced over traced items_per_kprobe).

The CLI report hash of the one-seed runs is information, not a gate.
About an hour with 20-second runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from repeat import bench, repeat, seed_list

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT = HERE / "BENCH_baseline.json"
SEEDS = "101-110"
SAME_SEED = 1
SAME_SEED_RUNS = 10
# The layers predicted to have the largest self time on each workload.
PREDICTED = {
    "verify_batch": ["fixpoint.kakutani_search", "discont.limit_set"],
    "axioms_tau": ["tnorms.tau_apply"],
    "continuity_scan": ["neighborhoods.in_strong_neighborhood", "pn_space.prob_norm"],
    "sampled_maps": ["discont.discontinuity_estimate"],
}


def set_check(first: dict, second: dict) -> dict:
    """Per metric: the spreads of both sets against the bound, and how
    much worse the second median is than the first (negative: better).
    The spread of setup_s is not held to its bound; its median is."""
    out = {}
    for m in SPEC["end_to_end"]:
        a, b = first["summary"][m["name"]], second["summary"][m["name"]]
        worse = (b["median"] - a["median"]) / a["median"]
        if m["better"] == "higher":
            worse = -worse
        out[m["name"]] = {"bound": m["bound"], "spreads": [a["spread"], b["spread"]],
                          "second_median_worse_by": worse,
                          "within_bound": worse <= m["bound"] and (
                              m["name"] == "setup_s"
                              or max(a["spread"], b["spread"]) <= m["bound"])}
    return out


def traced(workload: str, seed: int, seconds: float, untraced_ips: float) -> dict:
    result, lines = bench(workload, seed, seconds, trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    top = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("top_self_ms "))
    predicted = PREDICTED[workload]
    observed = [layer for layer, _ in top[:len(predicted)]]
    return {"per_layer": metrics,
            "top_self_ms": [{"layer": layer, "ms_per_item": v} for layer, v in top],
            "prediction": {"predicted_largest_self_ms": predicted, "observed": observed,
                           "held": sorted(observed) == sorted(predicted)},
            "trace_overhead": untraced_ips / metrics["bench.loop.items_per_kprobe"]}


def main() -> int:
    seconds = SPEC["run_seconds"]
    names = [w["name"] for w in SPEC["workloads"]]
    sets = [{w: repeat(w, seed_list(SEEDS), seconds) for w in names} for _ in range(2)]
    out = {"about": __doc__.split("\n\n", 2)[2].strip(), "seconds": seconds,
           "seeds": SEEDS, "same_seed": SAME_SEED, "workloads": {}}
    for w in names:
        same = repeat(w, [SAME_SEED] * SAME_SEED_RUNS, seconds)
        ips = statistics.median(r["metrics"]["items_per_kprobe"]["value"] for r in same["runs"])
        out["machine"] = same["runs"][0]["run_record"]
        out["workloads"][w] = {
            "first_set": sets[0][w]["summary"],
            "second_set": sets[1][w]["summary"],
            "set_check": set_check(sets[0][w], sets[1][w]),
            "same_seed": same["summary"],
            # Wall-clock figures of the same runs, for comparison.
            "raw": {"first_set": sets[0][w]["raw"], "second_set": sets[1][w]["raw"],
                    "same_seed": same["raw"]},
            "failed_over_attempted": [[r["failed"], r["attempted"]]
                                      for s in (sets[0][w], sets[1][w]) for r in s["runs"]],
            "report_sha256": sorted({r["report_sha256"] for r in same["runs"]}),
            "traced": traced(w, SAME_SEED, seconds, ips),
        }
        print(f"{w}: prediction held {out['workloads'][w]['traced']['prediction']['held']}",
              flush=True)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
