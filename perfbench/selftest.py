"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that the layer-isolation
predictions hold, that a corrupted CLI report counts as cli_mismatch,
and that the benchmark refuses to run with PNKIT_THREADS set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, env=env)


def metrics_match(result: dict, spec_key: str) -> bool:
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want and all(isinstance(v["value"], float) for v in result["metrics"].values())


def main() -> int:
    for workload in WORKLOADS:
        for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            if proc.returncode:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["attempted"] >= 1,
                  f"{workload} trace={trace} result object is well formed and correct")
            check(metrics_match(result, spec_key),
                  f"{workload} trace={trace} emits every {spec_key} metric with its unit")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if workload != "axioms_tau":
                    check(m["tnorms.tau_apply.calls"] == 0,
                          f"{workload}: tnorms.tau_apply is never called")
                else:
                    check(m["tnorms.tau_apply.calls"] > 0, "axioms_tau: tnorms.tau_apply is called")
                if workload == "verify_batch":
                    check(m["discont.discontinuity_estimate.calls"] == 0,
                          "verify_batch: discont.discontinuity_estimate is never called")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    w = workloads.WORKLOADS["verify_batch"]
    raw = w.build(3, True)[0].config
    workdir = run.WORK / f"selftest-{os.getpid()}"
    clean = run.CliCheck(w, raw, workdir)
    try:
        clean_ok = clean()[2]
    finally:
        clean.close()
    corrupted = run.CliCheck(w, raw, workdir, corrupt=lambda b: b.replace(b"0", b"1", 1))
    try:
        corrupted_ok = corrupted()[2]
    finally:
        corrupted.close()
    check(clean_ok, "an unaltered CLI report matches the in-process report")
    check(not corrupted_ok, "a corrupted CLI report counts as cli_mismatch")

    proc = bench("axioms_tau", 0, env=dict(os.environ, PNKIT_THREADS="2"))
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark refuses to run with PNKIT_THREADS set")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
