"""A/B benchmark of the working tree against a git revision.

    python3 tools/ab.py --base REV --workload NAME --pairs N --seconds S

Exports REV with `git archive` into a temporary directory, then runs
`perfbench/run.py` alternately in that copy and in the working tree:
pair k runs on seed k, the base first in odd pairs and second in even
ones.  Both sides run the same benchmark code only when REV's perfbench/
equals the working tree's; the script warns when it does not.

For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles (`statistics.quantiles(values, n=4)`) and the
number of pairs in which the working tree read better (ties count for
neither side), then a verdict read with the metric's `bound` and
`better` (see `verdict`); last `correct`, `failed` and whether
`report_sha256` was equal in every pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """The tree of `rev`, written under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py run in `tree`: its result object, with the CLI
    report hash added."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py failed in {tree} (seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report_sha256"] = next(line.split()[1] for line in lines
                                   if line.startswith("report_sha256 "))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], head: list[float], bound: float, better: str) -> str:
    """One metric's reading over paired runs, the first that applies:

      * `worse`: the head median is worse than the base median by more
        than `bound` (relative to the base median);
      * `unresolved`: the base quartiles span more than `bound` of the base
        median, and not every head run beats every base run;
      * `gain`: the head wins at least 9 in 10 pairs (ties count for
        neither side) and its median is better by more than the base's
        q3 - q1;
      * `within bound`.
    """
    sign = 1.0 if better == "lower" else -1.0
    (q1, bmed, q3), (_, hmed, _) = quartiles(base), quartiles(head)
    ahead = sign * (bmed - hmed)
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    if -ahead > bound * abs(bmed):
        return "worse"
    if q3 - q1 > bound * abs(bmed) and not max(sign * h for h in head) < min(sign * b for b in base):
        return "unresolved"
    if wins >= 0.9 * len(base) and ahead > q3 - q1:
        return "gain"
    return "within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=28.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    better = {name: m["better"] for name, m in metrics.items()}

    base_runs, head_runs = [], []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        diff = subprocess.run(["git", "diff", "--quiet", args.base, "--", "perfbench"], cwd=ROOT)
        if diff.returncode != 0:
            print(f"warning: perfbench/ differs between {args.base} and the working tree",
                  flush=True)
        for k in range(1, args.pairs + 1):
            sides = [(base, base_runs), (ROOT, head_runs)]
            for tree, runs in sides if k % 2 else sides[::-1]:
                runs.append(bench(tree, args.workload, k, args.seconds))
            b, h = base_runs[-1], head_runs[-1]
            print(f"pair {k} (seed {k}, {'base' if k % 2 else 'head'} first): "
                  + "  ".join(f"{name} {b['metrics'][name]['value']:.6g} -> "
                              f"{h['metrics'][name]['value']:.6g}" for name in better),
                  flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"base {args.base} -> working tree")
    for name, direction in better.items():
        bv = [r["metrics"][name]["value"] for r in base_runs]
        hv = [r["metrics"][name]["value"] for r in head_runs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (x - y) > 0 for x, y in zip(bv, hv))
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(bv), quartiles(hv)
        change = (hmed - bmed) / bmed if bmed else 0.0
        print(f"  {name:18s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
              f"head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}]  {change:+.1%}  "
              f"head better in {wins}/{args.pairs}  ({direction} is better)")
        print(f"    verdict: {verdict(bv, hv, metrics[name]['bound'], direction)}")
    for label, runs in (("base", base_runs), ("head", head_runs)):
        print(f"  {label}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    same = sum(b["report_sha256"] == h["report_sha256"] for b, h in zip(base_runs, head_runs))
    print(f"  report_sha256 equal in {same}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
