"""pnkit benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Load model: one process, closed loop, one item at a time, PNKIT_THREADS
unset.  A first pass over the seeded pool checks every item's outputs;
the loop then runs the pool pass after pass for S seconds.  Item times
are reported in probes: each is divided by the time of a fixed
memory-bound loop run just before and just after it (see `Probe`).
With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the public functions of every pnkit module are wrapped
and it carries the per-layer metrics instead.  Lines before it hold the
run record, the wall-clock figures, every metric with its unit, and the
failure reasons.  See perfbench/README.md."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# Set-up probes and CLI runs are spread evenly over the measured window,
# between loop items, so that each samples the machine as the items do.
SETUP_PROBES = 7
CLI_RUNS = 6
MIN_REPS = 3  # timed runs of every pool item, however long that takes
TAIL_PERCENTILE = 90
CHILD_TIMEOUT_S = 120
DEFAULT_SEED = 1
# The probe reads PROBE_READS random entries of a table of PROBE_TABLE
# float pairs: a few MB, more than the caches hold, so the probe slows
# with the memory contention that slows pnkit.  Fixed, not seeded: it is
# the unit every timing is expressed in.
PROBE_TABLE = 60_000
PROBE_READS = 3_000


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PNKIT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def nearest_rank(values: list[float], pct: int) -> float:
    s = sorted(values)
    return s[max(math.ceil(pct / 100 * len(s)), 1) - 1]


class Probe:
    """A fixed pure-Python loop that reads a table larger than the caches.

    On a shared host other tenants slow this process by up to 2x, in
    spells of seconds to minutes, and memory-bound code slows the most.
    The probe slows with pnkit's code, so an item time divided by the
    probe times taken just before and just after it is steady where the
    item time itself is not."""

    def __init__(self):
        rng = random.Random(0)
        self.table = [(rng.random(), rng.random()) for _ in range(PROBE_TABLE)]
        self.order = [rng.randrange(PROBE_TABLE) for _ in range(PROBE_READS)]

    def __call__(self) -> float:
        table = self.table
        acc = 0.0
        t0 = time.perf_counter()
        for i in self.order:
            a, b = table[i]
            acc += a * b
        return time.perf_counter() - t0


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    argv += ["--tiny"] if tiny else []
    out = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class CliCheck:
    """Runs the workload's pnkit subcommand as a child process on one
    config, and compares its exit code and report, byte for byte, with
    `write_report` of the in-process result, which is computed once.
    `corrupt` alters the child's report before the comparison (used by
    the self-test).

    The probe does not track child processes, which may run on the other
    core, so each CLI run is timed against a null child, an interpreter
    that only imports numpy, run just before and just after it."""

    def __init__(self, w, raw: dict, workdir: Path,
                 corrupt: Callable[[bytes], bytes] | None = None):
        from pnkit import cli as pcli
        from workloads import in_process_report

        self.w, self.corrupt = w, corrupt
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        cfg_path, self.out_path = workdir / "config.json", workdir / "report.json"
        cfg_path.write_text(json.dumps(raw))
        self.want_code, report = in_process_report(w, raw)
        self.want = None
        if report is not None:
            want_path = workdir / "expected.json"
            pcli.write_report(report, str(want_path))
            self.want = want_path.read_bytes()
        self.argv = [sys.executable, "-m", "pnkit.cli", w.cli_command, "--config", str(cfg_path)]
        if w.cli_command == "verify-t34":
            self.argv += ["--output", str(self.out_path)]
        self.report_sha256 = hashlib.sha256(self.want).hexdigest() if self.want else None

    @staticmethod
    def _child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def __call__(self) -> tuple[float, float, bool]:
        """One child run: its wall time, that time over the null child's,
        and whether its output matched."""
        null_argv = [sys.executable, "-c", "import numpy"]
        self.out_path.unlink(missing_ok=True)
        before, _ = self._child(null_argv)
        wall, proc = self._child(self.argv)
        after, _ = self._child(null_argv)
        if self.w.cli_command == "verify-t34":
            got = self.out_path.read_bytes() if self.out_path.exists() else None
        else:
            got = proc.stdout
        if self.corrupt is not None and got is not None:
            got = self.corrupt(got)
        return wall, wall / ((before + after) / 2), \
            proc.returncode == self.want_code and got == self.want

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_record() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "PNKIT_THREADS": "unset"}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    import pnkit
    from workloads import REASONS, WORKLOADS, run_item

    if not Path(pnkit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pnkit imported from {pnkit.__file__}, not from {SRC}")
    w = WORKLOADS[workload]
    # Coarse lattices skip refinement levels on every item; the count is
    # the discont.discontinuity_estimate.levels_skipped layer metric.
    warnings.filterwarnings("ignore", message=".*level skipped", category=RuntimeWarning)
    record = run_record()
    if not trace:
        setup_probe(workload, seed, tiny)  # compiles a fresh checkout's bytecode

    items = w.build(seed, tiny)
    probe = Probe()
    tracer = None
    if trace:
        from spans import NO_ITEM, Tracer
        tracer = Tracer()
        tracer.install()
    cli = CliCheck(w, items[0].config, WORK / f"{workload}-{os.getpid()}")
    try:
        # The first pass is the output check and the warm-up, inside the
        # measured window.  Every later run of an item must fail for the
        # same reasons, so `attempted` and `failed` do not depend on how
        # many runs fit.
        start = time.perf_counter()
        expected = [run_item(w, item) for item in items]
        reasons = Counter(r for item_reasons in expected for r in set(item_reasons))
        failed = sum(bool(r) for r in expected)
        changed = 0  # later runs whose reasons differ from the first

        n_setup = 0 if trace else SETUP_PROBES
        events = [kind for j in range(max(CLI_RUNS, n_setup))
                  for kind, n in (("cli", CLI_RUNS), ("setup", n_setup)) if j < n]
        cli_walls, cli_ratios, setup = [], [], []
        costs: list[list[float]] = [[] for _ in items]  # item time / probe time
        walls: list[list[float]] = [[] for _ in items]
        last_probe = probe()

        def event(kind: str) -> None:
            nonlocal failed, last_probe
            if tracer:
                tracer.item = NO_ITEM
            if kind == "setup":
                setup.append(setup_probe(workload, seed, tiny))
            else:
                wall, ratio, ok = cli()
                cli_walls.append(wall)
                cli_ratios.append(ratio)
                if not ok:
                    reasons["cli_mismatch"] += 1
                    failed += 1
            last_probe = probe()

        runs = fired = 0
        while runs < MIN_REPS * len(items) or time.perf_counter() - start < seconds:
            if fired < len(events) and \
                    time.perf_counter() - start >= (fired + 0.5) * seconds / len(events):
                event(events[fired])
                fired += 1
                continue
            k = runs % len(items)
            if tracer:
                tracer.item = runs
            t0 = time.perf_counter()
            item_reasons = run_item(w, items[k])
            wall = time.perf_counter() - t0
            next_probe = probe()
            walls[k].append(wall)
            costs[k].append(wall / ((last_probe + next_probe) / 2))
            last_probe = next_probe
            runs += 1
            changed += item_reasons != expected[k]
        window_s = time.perf_counter() - start
        for kind in events[fired:]:
            event(kind)
        if tracer:
            tracer.item = NO_ITEM
    finally:
        cli.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each item's cost is the median over its runs; every pool item
    # counts, failed or not.
    cost = [statistics.median(c) for c in costs]
    wall = [statistics.median(c) for c in walls]
    attempted = len(items) + CLI_RUNS  # the checked first pass and the CLI comparisons
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"pool {len(items)} items  timed runs {runs}  window_s {window_s:.3f}  "
          f"probe_ms {probe() * 1e3:.4f}  "
          f"item_tail is p{TAIL_PERCENTILE} of {len(items)} item medians")
    print(f"raw (wall clock, for information): items_per_s {len(items) / sum(wall):.6g}  "
          f"item_p50_ms {statistics.median(wall) * 1e3:.6g}  "
          f"item_tail_ms {nearest_rank(wall, TAIL_PERCENTILE) * 1e3:.6g}  "
          f"cli_wall_s {statistics.median(cli_walls):.6g}")
    print(f"error_rate {failed / attempted:.6g} fraction  (failed {failed} of {attempted})")
    for reason in REASONS:
        if reasons[reason]:
            print(f"failed.{reason} {reasons[reason]} count")
    if changed:
        print(f"nondeterministic {changed} runs failed for other reasons than the first run")
    print(f"report_sha256 {cli.report_sha256}  cli_exit_code {cli.want_code}")

    items_per_kprobe = 1e3 * len(items) / sum(cost)
    if tracer:
        tracer.dump(WORK / f"trace_{workload}.npz")
        metrics = tracer.layer_metrics(runs)
        metrics["bench.loop.items_per_kprobe"] = (items_per_kprobe, "items/kprobe")
        tracer.uninstall()
        top = sorted(((v, k.removesuffix(".self_ms")) for k, (v, u) in metrics.items()
                      if u == "ms/item"), reverse=True)[:3]
        print("top_self_ms " + json.dumps([[layer, v] for v, layer in top]))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_kprobe": (items_per_kprobe, "items/kprobe"),
            "item_p50_probes": (statistics.median(cost), "probes"),
            "item_tail_probes": (nearest_rank(cost, TAIL_PERCENTILE), "probes"),
            "cli_wall_per_null": (statistics.median(cli_ratios), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    unexpected = set(reasons) - w.known_defects
    return {"correct": not unexpected and not changed, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if "PNKIT_THREADS" in os.environ:
        print("error: unset PNKIT_THREADS; the benchmark measures the serial path",
              file=sys.stderr)
        return 2
    if not (SRC / "pnkit" / "__init__.py").is_file():
        print(f"error: no pnkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
