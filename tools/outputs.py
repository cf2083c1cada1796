"""Digests of what pnkit outputs, to check that a change moves none of it.

    PYTHONPATH=src python3 tools/outputs.py [--seeds 1 2 3 18 33 101]
    python3 tools/outputs.py --base REV [--seeds ...]

Prints one `name sha256` line per output:

  * `cli/<config>/<command>/...`: each subcommand that takes a config,
    run on each `configs/*.json` in-process through `pnkit.cli.main`, in
    an empty working directory: its exit code, its stdout and every file
    it wrote there.  A few runs that take no config (`tau`, `ddf`,
    `gen-scenarios` in flag form) go under `cli/-/`.  Stderr is printed
    to stderr, prefixed with the run's name, and not hashed;
  * `workload/<name>/seed<k>/...`: every item of each workload's pool at
    seed k, through `perfbench/workloads.py`: `run_item`'s reasons, the
    report of each library call the items made (recorded by wrapping the
    module attributes the workloads call), and `in_process_report` of
    each item's CLI config.

With `--base REV` it exports REV as `tools/ab.py` does, runs itself on
that tree and on the working tree (each with its own `src`, `perfbench`
and `configs`), prints only the names whose digests differ, and exits 1
when any does.  Needs the standard library and pnkit's own imports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 18, 33, 101)

# Subcommands that take --config, with the arguments each run adds.
CONFIG_RUNS = (
    ("check-axioms",), ("diameter",), ("diameter", "--points", "[[0.1], [0.4], [0.9]]"),
    ("continuity",),
    ("psi", "--route", "exact"), ("psi", "--route", "estimate"), ("psi", "--route", "both"),
    ("fixpoint",), ("verify-t34",), ("verify-t34", "--output", "report.json"),
    ("gen-scenarios",),
)
# Runs without a config.
PLAIN_RUNS = (
    ("tau", "--tnorm", "W", "--f", "[[0.25, 0.5], [1.0, 0.5]]", "--g", "eps:0.5"),
    ("tau", "--tnorm", "Prod", "--f", "[[0.25, 0.5], [1.0, 0.5]]", "--g", "[[0.5, 0.3], [2.0, 0.7]]"),
    ("tau", "--tnorm", "M", "--f", "[[0.25, 0.5], [1.0, 0.5]]", "--g", "[[0.5, 0.3], [2.0, 0.7]]"),
    ("ddf", "--f", "[[0.25, 0.5], [1.0, 0.5]]", "--at", "0.5", "--at", "2.0",
     "--leq", "eps:0.25", "--sibley", "eps:1.0"),
    ("gen-scenarios", "--seed", "7"),
    ("gen-scenarios", "--seed", "7", "--count", "3", "--pieces", "2", "4", "--values", "0.1", "0.9",
     "--kind", "affine", "--domain", "-1", "2"),
    ("gen-scenarios", "--seed", "3", "--out", "maps/maps.json"),
    ("gen-scenarios", "--count", "3"),
)


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_cli(name: str, argv: list[str]) -> list[tuple[str, str]]:
    """Digests of one in-process `pnkit` run in a fresh working directory."""
    from pnkit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
            lines = [(f"{name}/exit", digest(str(code))), (f"{name}/stdout", digest(out.getvalue()))]
            lines += [(f"{name}/file {p.relative_to(tmp)}", digest(p.read_bytes())) for p in files]
        finally:
            os.chdir(cwd)
    for line in err.getvalue().splitlines():
        print(f"{name}: {line}", file=sys.stderr)
    return lines


def cli_digests(tree: Path) -> list[tuple[str, str]]:
    lines = []
    for config in sorted((tree / "configs").glob("*.json")):
        for run in CONFIG_RUNS:
            lines += run_cli(f"cli/{config.name}/{' '.join(run)}",
                             [run[0], "--config", str(config), *run[1:]])
    for run in PLAIN_RUNS:
        lines += run_cli(f"cli/-/{' '.join(run)}", list(run))
    return lines


def as_json(value):
    """A library result as plain JSON data."""
    from pnkit import cli

    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, tuple):  # run_verify: (report, results), the results as their CSV
        report, results = value
        with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
            cli.write_csv(results, f"{tmp}/curves.csv")
            return [report, Path(tmp, "curves.csv").read_text()]
    return value


@contextlib.contextmanager
def recording(calls: list):
    """Wrap the library calls the workloads make so that each appends its
    result (or the error it raised, with any attached report) to `calls`."""
    import pnkit
    from pnkit import cli

    targets = [(pnkit, name) for name in ("check_axioms", "strong_t_continuity_test",
                                          "prob_diameter", "check_pairwise_image_separation")]
    targets.append((cli, "run_verify"))
    saved = [(module, name, getattr(module, name)) for module, name in targets]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pnkit.PnkitError as exc:
                report = getattr(exc, "report", None)
                calls.append([name, type(exc).__name__, str(exc),
                              None if report is None else as_json(report)])
                raise
            calls.append([name, as_json(result)])
            return result
        return wrapper

    for module, name, fn in saved:
        setattr(module, name, wrap(name, fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def workload_digests(seeds) -> list[tuple[str, str]]:
    import workloads

    def dumps(obj) -> str:
        return json.dumps(obj, sort_keys=True, default=repr)

    lines = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            items = workload.build(seed, False)
            calls: list = []
            with recording(calls):
                reasons = [workloads.run_item(workload, item) for item in items]
            reports = [workloads.in_process_report(workload, item.config) for item in items]
            prefix = f"workload/{name}/seed{seed}"
            lines += [(f"{prefix}/reasons", digest(dumps(reasons))),
                      (f"{prefix}/calls", digest(dumps(calls))),
                      (f"{prefix}/cli_reports", digest(dumps(reports)))]
    return lines


def measure(tree: Path, seeds) -> list[tuple[str, str]]:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    return cli_digests(tree) + workload_digests(seeds)


def run_tree(tree: Path, seeds) -> dict[str, str]:
    """This script's digests of `tree`, computed in a child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--tree", str(tree),
                           "--seeds", *map(str, seeds)],
                          env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"outputs.py failed on {tree}")
    return dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default=None, help="git revision to compare against")
    p.add_argument("--tree", default=str(ROOT), help="the tree to measure (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = p.parse_args(argv)
    if args.base is None:
        for name, value in measure(Path(args.tree).resolve(), args.seeds):
            print(name, value, flush=True)
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from ab import export

    with tempfile.TemporaryDirectory(prefix="outputs-base-") as tmp:
        export(args.base, Path(tmp))
        base = run_tree(Path(tmp), args.seeds)
    head = run_tree(ROOT, args.seeds)
    differ = [name for name in sorted(base.keys() | head.keys()) if base.get(name) != head.get(name)]
    for name in differ:
        print(f"{name} {base.get(name, '-')} -> {head.get(name, '-')}")
    print(f"{len(differ)} of {len(base.keys() | head.keys())} digests differ "
          f"between {args.base} and the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
