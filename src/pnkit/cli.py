"""Config-driven experiment runner and scenario generator.

Subcommands: tau, ddf, check-axioms, diameter, continuity, psi,
fixpoint, verify-t34, gen-scenarios.  Configs and reports are JSON;
per-threshold curves go to CSV with the fixed column schema
scenario_id, t, psi_t, residual_t, dominance.

Exit codes: 0 success, 2 validation or configuration error, 3 an
existence guarantee failed on this run (kept distinct so CI can tell a
broken invariant from a broken config).  Reports are byte-identical
across runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .ddf import Ddf, make_epsilon, sibley_distance
from .discont import (DEFAULT_DELTA_SCHEDULE, DEFAULT_GRID_RESOLUTIONS, DEFAULT_T_GRID,
                      MAX_GRID_NODES, Piece, PiecewiseMap1D, SampledMap, _exact_route,
                      _validate_ascending, _validate_descending, compare_discontinuity_routes,
                      discontinuity_estimate, discontinuity_exact, grid_node_count,
                      lattice_nodes)
from .errors import InvalidArgumentError, PnkitError, TheoremViolationError, converted
from .fixpoint import VerifyResult, verify_approx_fixed_point, verify_batch
from .neighborhoods import (PointSet, _probe_shape, _threshold, default_tprime_schedule,
                            prob_diameter, strong_t_continuity_test)
from .pn_space import DEFAULT_LAMBDAS, PnSpace, check_axioms, random_vector_pairs
from .tnorms import MAX_PAIR_SUMS, TNormKind, tau_apply

MIN_BREAK_SEPARATION = 0.01

# Largest scenario batch a config may ask for: every scenario's report
# entry and curves are held until the report is written.
MAX_SCENARIOS = 1 << 14

# The keys a config may hold at its top level; each command reads its own.
CONFIG_KEYS = ("space", "map", "scenarios", "seed", "schedules", "output", "output_csv",
               "pairs", "lambdas", "points", "t", "sample", "probe_budget")


# ---------------------------------------------------------------------------
# scenario generation

@dataclass(frozen=True)
class ScenarioFamily:
    """Random family of piecewise self-maps: piece counts drawn from
    `pieces`, piece values uniform in `values` clamped into the domain,
    breakpoints uniform with a minimum separation."""

    count: int
    pieces: tuple[int, int] = (1, 5)
    values: tuple[float, float] = (0.0, 1.0)
    kind: str = "constant"
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 1 <= self.count <= MAX_SCENARIOS:
            raise InvalidArgumentError(
                f"count must be in [1, {MAX_SCENARIOS}], got {self.count!r}")
        plo, phi = self.pieces
        if not (1 <= plo <= phi):
            raise InvalidArgumentError(f"pieces range must satisfy 1 <= lo <= hi, got {self.pieces!r}")
        if self.kind not in ("constant", "affine"):
            raise InvalidArgumentError(f"kind must be 'constant' or 'affine', got {self.kind!r}")
        vlo, vhi = self.values
        if not (vlo <= vhi and math.isfinite(vhi - vlo)):
            raise InvalidArgumentError(f"values must be a finite range lo <= hi, got {self.values!r}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise InvalidArgumentError(f"domain must be a nondegenerate interval, got {self.domain!r}")
        # A piece count beyond the float range is refused, naming the field.
        if converted("scenarios.pieces", float, phi) * MIN_BREAK_SEPARATION > (hi - lo):
            raise InvalidArgumentError(
                f"{phi} pieces cannot keep separation {MIN_BREAK_SEPARATION} "
                f"inside a domain of width {hi - lo}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScenarioFamily":
        if not isinstance(obj, dict) or "count" not in obj:
            raise InvalidArgumentError("scenarios spec must be an object with at least 'count'")
        _check_keys("scenarios", obj, [f.name for f in fields(cls)])
        convs = {"count": int, "pieces": lambda v: _pair(v, int), "values": _pair,
                 "kind": lambda v: v, "domain": _pair}
        kwargs = {key: converted(f"scenarios.{key}", conv, obj[key])
                  for key, conv in convs.items() if key in obj}
        return cls(**kwargs)


def _check_keys(where: str, obj, known) -> None:
    """Refuse a key of the config object `where` that is not in `known`;
    a value that is not an object is left to its own parser."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in known:
            raise InvalidArgumentError(f"{where}: unknown key {key!r}")


def _pair(value, conv=float) -> tuple:
    lo, hi = value
    return conv(lo), conv(hi)


def _points(value) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(c) for c in p) for p in value)


def _draw_breakpoints(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    if n == 0:
        return []
    for _ in range(1000):
        bps = np.sort(rng.uniform(lo, hi, n))
        gaps = np.diff(np.concatenate([[lo], bps, [hi]]))
        if np.min(gaps) >= MIN_BREAK_SEPARATION:
            return [float(b) for b in bps]
    raise InvalidArgumentError(
        f"could not place {n} breakpoints with separation {MIN_BREAK_SEPARATION} in [{lo}, {hi}]")


def generate_scenarios(family: ScenarioFamily, seed: int) -> list[PiecewiseMap1D]:
    """Deterministic under the seed; every generated map satisfies the
    piecewise-map invariants (values are clamped into the domain, so the
    self-map condition holds by construction)."""
    rng = np.random.default_rng(seed)
    lo, hi = family.domain
    vlo, vhi = family.values
    maps = []
    for _ in range(family.count):
        n_pieces = int(rng.integers(family.pieces[0], family.pieces[1] + 1))
        bps = _draw_breakpoints(rng, lo, hi, n_pieces - 1)
        edges = [lo] + bps + [hi]
        pieces = []
        if family.kind == "constant":
            vals = np.clip(rng.uniform(vlo, vhi, n_pieces), lo, hi)
            for k in range(n_pieces):
                pieces.append(Piece(edges[k], edges[k + 1], "left", 0.0, float(vals[k])))
        else:
            ends = np.clip(rng.uniform(vlo, vhi, (n_pieces, 2)), lo, hi)
            for k in range(n_pieces):
                y0, y1 = float(ends[k][0]), float(ends[k][1])
                a = (y1 - y0) / (edges[k + 1] - edges[k])
                b = y0 - a * edges[k]
                pieces.append(Piece(edges[k], edges[k + 1], "left", a, b))
        maps.append(PiecewiseMap1D(domain=(lo, hi), pieces=tuple(pieces)))
    return maps


# ---------------------------------------------------------------------------
# experiment config

@dataclass
class ExperimentConfig:
    space: PnSpace
    map: PiecewiseMap1D | SampledMap | None
    scenarios: ScenarioFamily | None
    seed: int | None
    delta_schedule: tuple[float, ...]
    grid_resolutions: tuple[float, ...]
    t_grid: tuple[float, ...]
    tprime_schedule: tuple[float, ...] | None
    output: str | None
    output_csv: str | None
    raw: dict


def _parse_t_grid(obj) -> tuple[float, ...]:
    if obj is None:
        return DEFAULT_T_GRID
    if isinstance(obj, dict):
        _check_keys("schedules.t_grid", obj, ("count", "max"))
        n = converted("schedules.t_grid.count", int, obj.get("count", 1024))
        if not 1 <= n <= MAX_GRID_NODES:
            raise InvalidArgumentError(
                f"schedules.t_grid.count: must be in [1, {MAX_GRID_NODES}], got {n}")
        tmax = converted("schedules.t_grid.max", float, obj.get("max", 1.0))
        obj = (k * tmax / n for k in range(1, n + 1))
    return _validate_ascending("schedules.t_grid", obj)[0]


def _parse_map_spec(obj) -> PiecewiseMap1D | SampledMap:
    if isinstance(obj, dict) and "sampled" in obj:
        return SampledMap.from_json_obj(obj["sampled"])
    return PiecewiseMap1D.from_json_obj(obj)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config must be a JSON object")
    _check_keys("config", raw, CONFIG_KEYS)
    _check_keys("space", raw.get("space"), [f.name for f in fields(PnSpace)])
    space = converted("space", PnSpace.from_json_obj, raw.get("space", {}))
    # N3 and N4 take tau of two scaled copies of the generator: n jumps
    # give n * n pair sums.
    n = len(space.generator.jumps)
    if n * n > MAX_PAIR_SUMS:
        raise InvalidArgumentError(
            f"space.generator: {n} jumps need {n * n} pair sums, "
            f"more than MAX_PAIR_SUMS={MAX_PAIR_SUMS}")

    mp = converted("map", _parse_map_spec, raw["map"]) if "map" in raw else None

    fam = None
    if "scenarios" in raw:
        fam = ScenarioFamily.from_json_obj(raw["scenarios"])

    seed = raw.get("seed")
    if seed is not None:
        seed = converted("seed", int, seed)
        if seed < 0:
            raise InvalidArgumentError(f"seed: must be nonnegative, got {seed}")
    if fam is not None and seed is None:
        raise InvalidArgumentError("seed: required whenever a scenario generator is used")

    sched = raw.get("schedules", {})
    if not isinstance(sched, dict):
        raise InvalidArgumentError("schedules: must be an object")
    _check_keys("schedules", sched, ("delta", "grids", "tprime", "t_grid"))
    delta = _validate_descending("schedules.delta", sched.get("delta", DEFAULT_DELTA_SCHEDULE))
    grids = _validate_descending("schedules.grids", sched.get("grids", DEFAULT_GRID_RESOLUTIONS))
    tprime = None
    if "tprime" in sched:
        tprime = _validate_descending("schedules.tprime", sched["tprime"])
    t_grid = _parse_t_grid(sched.get("t_grid"))
    if isinstance(mp, PiecewiseMap1D) or (mp is None and fam is not None):
        # The searches build the grid of the finest step; a sampled map has
        # its lattice and no other grid.
        lo, hi = fam.domain if mp is None else mp.domain
        converted("schedules.grids", lambda h: grid_node_count(lo, hi, h), grids[-1])

    for field in ("output", "output_csv"):
        if not isinstance(raw.get(field), (str, type(None))):
            raise InvalidArgumentError(f"{field}: must be a path string, got {raw[field]!r}")

    return ExperimentConfig(
        space=space, map=mp, scenarios=fam, seed=seed,
        delta_schedule=delta, grid_resolutions=grids, t_grid=t_grid,
        tprime_schedule=tprime,
        output=raw.get("output"), output_csv=raw.get("output_csv"),
        raw=raw)


def load_config(path: str) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return parse_config(raw)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# ddf argument parsing

def parse_ddf_spec(spec: str) -> Ddf:
    """eps:A for a unit step, @path for a JSON file, else inline JSON."""
    if spec.startswith("eps:"):
        return make_epsilon(converted(f"d.d.f. spec {spec!r}", float, spec[4:]))
    if spec.startswith("@"):
        return Ddf.from_json(Path(spec[1:]).read_text())
    return Ddf.from_json(spec)


# ---------------------------------------------------------------------------
# verify pipeline

def run_verify(cfg: ExperimentConfig) -> tuple[dict, list[VerifyResult]]:
    """Run the full verification pipeline for the configured map or
    scenario batch; returns (report, results), one result per scenario."""
    if cfg.map is None and cfg.scenarios is None:
        raise InvalidArgumentError("config needs either 'map' or 'scenarios'")
    if cfg.map is not None and cfg.scenarios is not None:
        raise InvalidArgumentError("config must name exactly one of 'map' and 'scenarios'")
    if cfg.map is not None:
        maps = [cfg.map]
    else:
        maps = generate_scenarios(cfg.scenarios, cfg.seed)

    results = verify_batch(cfg.space, maps, t_grid=cfg.t_grid, delta_schedule=cfg.delta_schedule,
                           grid_resolutions=cfg.grid_resolutions)
    report = {
        "config": cfg.raw,
        "scenarios": [dict(r.to_json_obj(), scenario_id=idx) for idx, r in enumerate(results)],
        "summary": {
            "count": len(results),
            "dominance_successes": sum(1 for r in results if r.fixpoint.dominance),
            "chain_successes": sum(1 for r in results if r.chain_holds),
            "anomalies": [idx for idx, r in enumerate(results)
                          if not (r.fixpoint.dominance and r.chain_holds)],
        },
    }
    return report, results


def write_report(report: dict | list, path: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_csv(results: Sequence[VerifyResult], path: str) -> None:
    """The psi and residual curves of each result, one row per scenario and t."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "t", "psi_t", "residual_t", "dominance"])
        for idx, r in enumerate(results):
            ts = np.array(r.t_grid)
            writer.writerows(zip(itertools.repeat(idx), r.t_grid,
                                 r.fixpoint.psi.eval_many(ts).tolist(),
                                 r.fixpoint.residual_ddf.eval_many(ts).tolist(),
                                 itertools.repeat(r.fixpoint.dominance)))


# ---------------------------------------------------------------------------
# subcommands

def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_tau(args) -> int:
    result = tau_apply(TNormKind(args.tnorm), parse_ddf_spec(args.f), parse_ddf_spec(args.g))
    print(result.to_json())
    return 0


def cmd_ddf(args) -> int:
    F = parse_ddf_spec(args.f)
    out: dict = {"ddf": F.to_json_obj()}
    if args.at:
        out["evals"] = [{"x": x, "value": F.eval(x)} for x in args.at]
    if args.leq is not None:
        from .ddf import ddf_leq
        out["leq"] = ddf_leq(F, parse_ddf_spec(args.leq))
    if args.sibley is not None:
        out["sibley_distance"] = sibley_distance(F, parse_ddf_spec(args.sibley))
    _print_json(out)
    return 0


def cmd_check_axioms(args) -> int:
    cfg = load_config(args.config)
    raw = cfg.raw
    seed = cfg.seed if cfg.seed is not None else 0
    lambdas = converted("lambdas", lambda xs: tuple(float(x) for x in xs),
                        raw.get("lambdas", DEFAULT_LAMBDAS))
    pairs = converted("pairs", lambda n: random_vector_pairs(cfg.space.dimension, int(n), seed),
                      raw.get("pairs", 200))
    report = check_axioms(cfg.space, pairs, lambdas)
    _print_json(report.to_json_obj())
    return 0


def cmd_diameter(args) -> int:
    cfg = load_config(args.config)
    pts_raw = json.loads(args.points) if args.points else cfg.raw.get("points")
    if not pts_raw:
        raise InvalidArgumentError("diameter needs --points or a 'points' config entry")
    A = PointSet(converted("points", _points, pts_raw))
    print(prob_diameter(cfg.space, A).to_json())
    return 0


def cmd_continuity(args) -> int:
    cfg = load_config(args.config)
    raw = cfg.raw
    if cfg.map is None:
        raise InvalidArgumentError("continuity needs a 'map' config entry")
    t = converted("t", _threshold, raw.get("t", 0.5))
    sample_spec = raw.get("sample", {"count": 9})
    if not isinstance(sample_spec, dict):
        raise InvalidArgumentError("sample: must be an object")
    _check_keys("sample", sample_spec, ("points", "count"))
    if "points" in sample_spec:
        pts = converted("sample.points", _points, sample_spec["points"])
    else:
        n = converted("sample.count", int, sample_spec.get("count", 9))
        dim = cfg.map.dim
        if not (n >= 1 and n ** dim <= MAX_GRID_NODES):
            raise InvalidArgumentError(
                f"sample.count: must be positive with count ** {dim} at most "
                f"{MAX_GRID_NODES} lattice nodes, got {n}")
        pts = tuple(map(tuple, lattice_nodes(cfg.map.box, [n] * dim).tolist()))
    schedule = cfg.tprime_schedule or default_tprime_schedule(t)
    probe_budget = converted("probe_budget", int, raw.get("probe_budget", 512))
    _probe_shape(cfg.space, cfg.map, len(schedule), probe_budget, "schedules.tprime")
    report = strong_t_continuity_test(cfg.space, cfg.map, PointSet(pts), t,
                                      tprime_schedule=schedule, probe_budget=probe_budget)
    _print_json(report.to_json_obj())
    return 0


def cmd_psi(args) -> int:
    cfg = load_config(args.config)
    if cfg.map is None:
        raise InvalidArgumentError("psi needs a 'map' config entry")
    schedules = dict(delta_schedule=cfg.delta_schedule, grid_resolutions=cfg.grid_resolutions)
    out: dict = {}
    if args.route == "exact":
        out["exact"] = discontinuity_exact(cfg.space, cfg.map).to_json_obj()
    elif args.route == "both" and _exact_route(cfg.space, cfg.map):
        routes = compare_discontinuity_routes(cfg.space, cfg.map, **schedules)
        out.update(exact=routes.exact.to_json_obj(), sibley_distance=routes.distance,
                   estimate=routes.estimate.to_json_obj(cfg.t_grid))
    else:  # the estimate alone, also for --route both where no exact route applies
        est = discontinuity_estimate(cfg.space, cfg.map, **schedules)
        out["estimate"] = est.to_json_obj(cfg.t_grid)
    _print_json(out)
    return 0


def cmd_fixpoint(args) -> int:
    cfg = load_config(args.config)
    if cfg.map is None:
        raise InvalidArgumentError("fixpoint needs a 'map' config entry")
    r = verify_approx_fixed_point(cfg.space, cfg.map, t_grid=cfg.t_grid,
                                  delta_schedule=cfg.delta_schedule,
                                  grid_resolutions=cfg.grid_resolutions)
    _print_json(dict(r.fixpoint.to_json_obj(), kakutani=r.kakutani.to_json_obj()))
    return 0


def cmd_verify_t34(args) -> int:
    cfg = load_config(args.config)
    report, results = run_verify(cfg)
    out_json = args.output or cfg.output
    if out_json:
        # --output moves the curves too, beside the report.
        out_csv = (not args.output and cfg.output_csv) or str(Path(out_json).with_suffix(".csv"))
        write_report(report, out_json)
        write_csv(results, out_csv)
        print(f"report: {out_json}")
        print(f"curves: {out_csv}")
    else:
        _print_json(report)
    summary = report["summary"]
    print(f"scenarios: {summary['count']}  dominance: {summary['dominance_successes']}"
          f"  chain: {summary['chain_successes']}")
    if summary["anomalies"]:
        print(f"anomalous scenarios: {summary['anomalies']}", file=sys.stderr)
        return 3
    return 0


def cmd_gen_scenarios(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        if cfg.scenarios is None:
            raise InvalidArgumentError("gen-scenarios config needs a 'scenarios' entry")
        fam, seed = cfg.scenarios, cfg.seed
    else:
        if args.seed is None:
            raise InvalidArgumentError("gen-scenarios needs --seed (or a config)")
        # The flags that were set, as a config's `scenarios` entry.
        fam = ScenarioFamily.from_json_obj({
            key: getattr(args, key) for key in ("count", "pieces", "values", "kind", "domain")
            if getattr(args, key) is not None})
        seed = args.seed
    maps = generate_scenarios(fam, seed)
    payload = [m.to_json_obj() for m in maps]
    if args.out:
        write_report(payload, args.out)
        print(f"wrote {len(maps)} maps to {args.out}")
    else:
        _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnkit",
        description="Exact step-function algebra and fixed-point verification "
                    "for probabilistic-normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="apply a triangle function to two d.d.f.s")
    p.add_argument("--tnorm", required=True, choices=[k.value for k in TNormKind])
    p.add_argument("--f", required=True, help="d.d.f. spec: eps:A, @file.json, or inline JSON")
    p.add_argument("--g", required=True, help="d.d.f. spec")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("ddf", help="evaluate and compare d.d.f.s")
    p.add_argument("--f", required=True)
    p.add_argument("--at", type=float, action="append", default=[])
    p.add_argument("--leq", default=None)
    p.add_argument("--sibley", default=None)
    p.set_defaults(func=cmd_ddf)

    p = sub.add_parser("check-axioms", help="check the space axioms on seeded samples")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("diameter", help="probabilistic diameter of a point set")
    p.add_argument("--config", required=True)
    p.add_argument("--points", default=None, help="JSON array of coordinate arrays")
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("continuity", help="strong continuity witness scan")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_continuity)

    p = sub.add_parser("psi", help="discontinuity measure of the configured map")
    p.add_argument("--config", required=True)
    p.add_argument("--route", choices=["exact", "estimate", "both"], default="both")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("fixpoint", help="approximate fixed-point search")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("verify-t34", help="full dominance verification pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None,
                   help="report JSON path; the curves go beside it (overrides config)")
    p.set_defaults(func=cmd_verify_t34)

    p = sub.add_parser("gen-scenarios", help="generate seeded random piecewise maps")
    p.add_argument("--config", default=None)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--pieces", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--values", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--kind", choices=["constant", "affine"])
    p.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_scenarios)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # One line per warning shown, without a source location; the filters stay.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except TheoremViolationError as exc:
            print(f"theorem violation: {exc}", file=sys.stderr)
            return 3
        except (PnkitError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
