"""Seeded inputs, item runners and output checks for the four workloads.

Each workload builds a pool of items from the run seed.  An item is one
call sequence into the library's public API, chosen so that one module
does most of the work.  `run_item` returns the reasons an item's outputs
failed their checks, an empty list when every check passed.

Library functions are called through their module attributes (``pnkit.x``
or ``pcli.x``) so that the tracer, which rebinds those attributes, sees
the benchmark's own calls too.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pnkit
from pnkit import cli as pcli
from pnkit.ddf import VALUE_TOL
from pnkit.fixpoint import FixPointReport, KakutaniResult

# Items in a pool.  Timings are divided by a probe timed next to them
# (see run.py), so a run needs only a few runs of each item, and the pool
# can be large enough that the seed's draws average out.  Items of one
# pool are alike, or fall into strata of clearly different cost, so the
# median and the tail do not move with the seed's mix.
VERIFY_POOL = 20
AXIOMS_POOL = 45
CONTINUITY_POOL = 12
SAMPLED_POOL = 6
TINY_POOL = 2
T_GRID = {"count": 256, "max": 1.0}
LAMBDAS = [k / 10.0 for k in range(11)]
UNIT_STEP = [[1.0, 1.0]]
CONTINUITY_T = 0.5
SAMPLE_POINTS = 7
PROBE_BUDGET = 512
PAIR_LATTICE = 10

# Failure reasons, in the order they are reported.
REASONS = ("exception", "hull_search_exhausted", "dominance", "chain_upper",
           "chain_upper_within_tol", "chain_lower", "axiom", "uncertified",
           "pairwise_violation", "cli_mismatch")


@dataclass
class Item:
    """One unit of work: the library inputs, and the config a CLI user
    would write for the same work."""

    inputs: tuple
    config: dict


def _space(dimension: int, generator, tau: str = "M") -> dict:
    return {"dimension": dimension, "generator": generator, "tau": tau, "tau_star": "M"}


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, n)]


def _scenario_reason(rep: dict, hull_tol: float) -> str | None:
    """Failure reason of one `verify_approx_fixed_point` report, whose
    hull search ran with tolerance `hull_tol`.  An upper-chain failure
    of exactly one mass quantum (the unit-step generator's only jump) at
    a hull point within the tolerance but outside the hull is the known
    missing-slack defect, `chain_upper_within_tol`."""
    if not rep["fixpoint"]["dominance"]:
        return "dominance"
    upper = rep["chain"]["residual_minus_mid_min"]
    if upper < -VALUE_TOL:
        within_tol = 0.0 < rep["kakutani"]["distance"] <= hull_tol
        return "chain_upper_within_tol" if within_tol and abs(upper + 1.0) <= VALUE_TOL \
            else "chain_upper"
    if rep["chain"]["mid_minus_psi_min"] < -VALUE_TOL:
        return "chain_lower"
    return None


def theorem_reason(exc: pnkit.TheoremViolationError) -> str:
    """The dominance search and the hull search both raise
    TheoremViolationError; the attached report tells them apart."""
    if isinstance(exc.report, FixPointReport):
        return "dominance"
    if isinstance(exc.report, KakutaniResult):
        return "hull_search_exhausted"
    return "exception"


# ---------------------------------------------------------------------------
# verify_batch: run_verify on ScenarioFamily batches (exact discont route)

def _batch_config(kind: str, pieces: int, count: int, seed: int) -> dict:
    return {"space": _space(1, UNIT_STEP),
            "scenarios": {"count": count, "pieces": [pieces, pieces], "values": [0.0, 1.0],
                          "kind": kind},
            "schedules": {"t_grid": T_GRID},
            "seed": seed}


# Every item holds one batch for each piece count and kind, so the items
# of a pool cost alike and the seed moves only piece positions and values.
BATCH_PIECES = (1, 2, 3, 4, 5)
BATCH_KINDS = ("constant", "affine")
BATCH_SCENARIOS = 2


def build_verify_batch(seed: int, tiny: bool) -> list[Item]:
    rng = np.random.default_rng(seed)
    pieces = BATCH_PIECES[:2] if tiny else BATCH_PIECES
    items = []
    for _ in range(TINY_POOL if tiny else VERIFY_POOL):
        raws = [_batch_config(kind, k, BATCH_SCENARIOS, s)
                for (k, kind), s in zip([(k, kind) for k in pieces for kind in BATCH_KINDS],
                                        _seeds(rng, 2 * len(pieces)))]
        # The CLI check runs the item's widest affine batch.
        items.append(Item(tuple(map(pcli.parse_config, raws)), raws[-1]))
    return items


def run_verify_item(item: Item) -> list[str]:
    """run_verify on each of the item's configs (a scenario batch, or one
    sampled map); a config that fails does not stop the next one."""
    reasons = []
    for cfg in item.inputs:
        try:
            report, _ = pcli.run_verify(cfg)
        except pnkit.TheoremViolationError as exc:
            reasons.append(theorem_reason(exc))
            continue
        reasons += [_scenario_reason(rep, min(cfg.grid_resolutions))
                    for rep in report["scenarios"]]
    return [r for r in reasons if r]


# ---------------------------------------------------------------------------
# axioms_tau: check_axioms with multi-jump generators (tnorms + ddf)

AXIOM_JUMPS = (4, 7, 10, 13, 16)
AXIOM_TAUS = ("W", "Prod", "M")


def _generator(rng: np.random.Generator, n: int) -> list[list[float]]:
    locs = np.sort(rng.choice(np.arange(1, 2049), size=n, replace=False)) / 1024.0
    masses = rng.dirichlet(np.ones(n))
    return [[float(a), float(m)] for a, m in zip(locs, masses)]


def _axioms_config(rng: np.random.Generator, n: int, tau: str, seed: int) -> dict:
    return {"space": _space(3, _generator(rng, n), tau),
            "pairs": 1, "lambdas": LAMBDAS, "seed": seed}


def build_axioms_tau(seed: int, tiny: bool) -> list[Item]:
    rng = np.random.default_rng(seed)
    jumps = (2, 3) if tiny else AXIOM_JUMPS
    items = []
    for i, s in enumerate(_seeds(rng, TINY_POOL if tiny else AXIOMS_POOL)):
        n, tau = jumps[i % len(jumps)], AXIOM_TAUS[i % 3]
        raw = _axioms_config(rng, n, tau, s)
        cfg = pcli.parse_config(raw)
        pairs = pnkit.random_vector_pairs(cfg.space.dimension, raw["pairs"], cfg.seed)
        items.append(Item((cfg.space, pairs, tuple(LAMBDAS)), raw))
    return items


def run_axioms_tau(item: Item) -> list[str]:
    space, pairs, lambdas = item.inputs
    report = pnkit.check_axioms(space, pairs, lambdas)
    return [] if report.all_passed else ["axiom"]


# ---------------------------------------------------------------------------
# continuity_scan: strong continuity, pairwise separation and diameter

def _concentrated_map(rng: np.random.Generator, constant: bool) -> dict:
    """A self-map of [0, 1] with images in [0, 0.4]: a constant, or one
    to three small-slope affine pieces at least 0.05 wide."""
    if constant:
        return pnkit.constant_map((0.0, 1.0), float(rng.uniform(0.0, 0.4))).to_json_obj()
    n = int(rng.integers(1, 4))
    while True:
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]])
        if n == 1 or float(np.min(np.diff(edges))) >= 0.05:
            break
    pieces = []
    for k in range(n):
        lo, hi = float(edges[k]), float(edges[k + 1])
        y0 = float(rng.uniform(0.0, 0.4))
        y1 = min(max(y0 + float(rng.uniform(-0.2, 0.2)) * (hi - lo), 0.0), 0.4)
        a = (y1 - y0) / (hi - lo)
        pieces.append({"from": lo, "to": hi, "closed": "left", "affine": [a, y0 - a * lo]})
    return {"domain": [0.0, 1.0], "pieces": pieces}


def _three_jump_generator(rng: np.random.Generator) -> list[list[float]]:
    # More than half the mass sits below 1.25 = t / 0.4, so every
    # concentrated map certifies at t = 0.5 on the lattice route.
    m1 = float(rng.uniform(0.55, 0.8))
    m2 = (1.0 - m1) * float(rng.uniform(0.2, 0.8))
    return [[float(rng.uniform(0.2, 1.2)), m1], [float(rng.uniform(1.3, 2.0)), m2],
            [float(rng.uniform(2.0, 3.0)), 1.0 - m1 - m2]]


def _continuity_config(rng: np.random.Generator, single_step: bool, constant: bool,
                       budget: int) -> dict:
    return {"space": _space(1, UNIT_STEP if single_step else _three_jump_generator(rng)),
            "map": _concentrated_map(rng, constant),
            "t": CONTINUITY_T,
            "sample": {"count": SAMPLE_POINTS},
            "probe_budget": budget}


def build_continuity_scan(seed: int, tiny: bool) -> list[Item]:
    """Each item scans four maps: a constant and an affine map under the
    unit-step generator (the exact ball-confirmation route), and the same
    under a 3-jump generator (the lattice-only route)."""
    rng = np.random.default_rng(seed)
    sample = pnkit.PointSet(tuple((float(x),) for x in np.linspace(0.0, 1.0, SAMPLE_POINTS)))
    lattice = [(float(x),) for x in np.linspace(0.0, 1.0, PAIR_LATTICE)]
    pairs = [(p, q) for i, p in enumerate(lattice) for q in lattice[i + 1:]]
    budget = 16 if tiny else PROBE_BUDGET
    items = []
    for _ in range(TINY_POOL if tiny else CONTINUITY_POOL):
        raws = [_continuity_config(rng, single_step, constant, budget)
                for single_step in (True, False) for constant in (True, False)]
        scans = tuple((cfg.space, cfg.map) for cfg in map(pcli.parse_config, raws))
        # The CLI check runs the constant map under the unit-step generator.
        items.append(Item((scans, sample, lattice, pairs, budget), raws[0]))
    return items


def run_continuity_scan(item: Item) -> list[str]:
    scans, sample, lattice, pairs, budget = item.inputs
    reasons = []
    for space, m in scans:
        report = pnkit.strong_t_continuity_test(space, m, sample, CONTINUITY_T,
                                                probe_budget=budget)
        images = pnkit.PointSet(tuple((m.eval(p[0]),) for p in lattice))
        pnkit.prob_diameter(space, images)
        if not report.passed:
            reasons.append("uncertified")
            continue
        separation = pnkit.check_pairwise_image_separation(space, m, pairs, CONTINUITY_T, report)
        if not separation.passed:
            reasons.append("pairwise_violation")
    return reasons


# ---------------------------------------------------------------------------
# sampled_maps: run_verify on one 2-D SampledMap per config (estimator)

# Each item verifies four maps: a constant and an affine map at 21x21 and
# at 41x41.  A 41x41 map costs three to four times a 21x21 one, and the
# kinds differ too; items that held one map of each size, with the kinds
# rotating, fell into strata that moved the median and the tail with the
# seed.
SAMPLED_SIDES = (21, 41)
TINY_SIDES = (7, 11)
SAMPLED_KINDS = ("affine", "constant")


def _two_region_map(rng: np.random.Generator, kind: str) -> Callable:
    """The unit square split along a random line; each side is mapped to
    a constant point, or contracted towards its own centre."""
    anchor = rng.uniform(0.0, 1.0, 2)
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    normal = (math.cos(angle), math.sin(angle))
    centres = rng.uniform(0.0, 1.0, (2, 2)).tolist()
    scales = rng.uniform(0.1, 0.8, 2).tolist()

    def fn(p):
        k = 0 if (p[0] - anchor[0]) * normal[0] + (p[1] - anchor[1]) * normal[1] >= 0.0 else 1
        (cx, cy), s = centres[k], scales[k]
        if kind == "constant":
            return (cx, cy)
        return ((1.0 - s) * cx + s * p[0], (1.0 - s) * cy + s * p[1])
    return fn


def _sampled_config(rng: np.random.Generator, side: int, kind: str) -> dict:
    h = 1.0 / (side - 1)
    m = pnkit.SampledMap.from_function(_two_region_map(rng, kind), ((0.0, 1.0), (0.0, 1.0)), h)
    # schedules.grids is the lattice step: run_verify uses min(grids) as
    # the hull tolerance, and the 1/1024 default fails every coarse map.
    return {"space": _space(2, UNIT_STEP),
            "map": {"sampled": m.to_json_obj()},
            "schedules": {"grids": [h], "t_grid": T_GRID}}


def build_sampled_maps(seed: int, tiny: bool) -> list[Item]:
    rng = np.random.default_rng(seed)
    sides = TINY_SIDES if tiny else SAMPLED_SIDES
    items = []
    for _ in range(TINY_POOL if tiny else SAMPLED_POOL):
        raws = [_sampled_config(rng, side, kind) for side in sides for kind in SAMPLED_KINDS]
        # The CLI check runs the small affine map's config.
        items.append(Item(tuple(map(pcli.parse_config, raws)), raws[0]))
    return items


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list[Item]]
    run: Callable[[Item], list[str]]
    cli_command: str
    # Failure reasons that are known program defects on this workload:
    # counted in `failed`, but they do not make the run incorrect.
    known_defects: frozenset = frozenset()


WORKLOADS = {w.name: w for w in (
    Workload("verify_batch", build_verify_batch, run_verify_item, "verify-t34"),
    Workload("axioms_tau", build_axioms_tau, run_axioms_tau, "check-axioms"),
    Workload("continuity_scan", build_continuity_scan, run_continuity_scan, "continuity"),
    # ROADMAP item 4: the 2-D hull distance is measured to the nearest
    # vertex, and the chain check has no slack for a hull point that is
    # within tolerance but not inside the hull.
    Workload("sampled_maps", build_sampled_maps, run_verify_item, "verify-t34",
             known_defects=frozenset({"hull_search_exhausted", "chain_upper_within_tol"})),
)}


def run_item(workload: Workload, item: Item) -> list[str]:
    """Run one item; the reasons its outputs failed their checks, empty
    when every check passed."""
    try:
        return workload.run(item)
    except pnkit.TheoremViolationError as exc:
        return [theorem_reason(exc)]
    except Exception:  # an item boundary: record the failure, keep running
        traceback.print_exc(file=sys.stderr)
        return ["exception"]


def in_process_report(workload: Workload, raw: dict) -> tuple[int, dict | None]:
    """Exit code and report object `pnkit <cli_command>` should produce
    for `raw`, computed in this process through the same public calls;
    errors map to exit codes as in `pnkit.cli.main`."""
    try:
        return _in_process_report(workload, raw)
    except pnkit.TheoremViolationError:
        return 3, None
    except pnkit.PnkitError:
        return 2, None


def _in_process_report(workload: Workload, raw: dict) -> tuple[int, dict | None]:
    cfg = pcli.parse_config(raw)
    if workload.cli_command == "verify-t34":
        report, _ = pcli.run_verify(cfg)
        return (3 if report["summary"]["anomalies"] else 0), report
    if workload.cli_command == "check-axioms":
        pairs = pnkit.random_vector_pairs(cfg.space.dimension, int(raw["pairs"]), cfg.seed)
        return 0, pnkit.check_axioms(cfg.space, pairs, tuple(raw["lambdas"])).to_json_obj()
    sample = pnkit.PointSet(tuple((float(x),) for x in np.linspace(0.0, 1.0, raw["sample"]["count"])))
    report = pnkit.strong_t_continuity_test(cfg.space, cfg.map, sample, raw["t"],
                                            probe_budget=raw["probe_budget"])
    return 0, report.to_json_obj()
