"""Shared test utilities: dyadic random d.d.f.s and brute-force oracles.

Random step functions here use locations that are multiples of 2^-10
and cumulative levels that are multiples of 2^-20.  Sums, differences,
minima, and products of such levels are exactly representable in
binary floating point, so jump-list equality assertions are meaningful
wherever the algebra is exact in the reals.

The oracles recompute results along routes independent of the library
internals (dense grids, direct scans) and are deliberately slow.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np

from pnkit import (Ddf, InvalidArgumentError, PiecewiseMap1D, TheoremViolationError,
                   prob_norm)
from pnkit.ddf import (KNOT_MERGE_TOL, LIMIT_MERGE_TOL, VALUE_TOL, _cluster_probes,
                       _cluster_representatives, _from_levels, comparison_probes,
                       ddf_leq_witness)
from pnkit.discont import convex_hull, lattice_nodes, map_eval_vec
from pnkit.fixpoint import KakutaniResult
from pnkit.neighborhoods import _probe_shape, default_tprime_schedule
from pnkit.pn_space import AxiomResult, profile_at, vec_norm, vec_norms
from pnkit.tnorms import TNormAxiomReport, TNormKind, tau_apply, tnorm_apply, tnorm_apply_np


def dyadic_ddf(rng: np.random.Generator, max_jumps: int = 6,
               full_mass: bool | None = None) -> Ddf:
    k = int(rng.integers(1, max_jumps + 1))
    locs = np.sort(rng.choice(np.arange(1, 4097), size=k, replace=False)) * 2.0 ** -10
    if full_mass is None:
        full_mass = bool(rng.integers(0, 2))
    top = 2 ** 20 if full_mass else int(rng.integers(2 ** 18, 2 ** 20))
    if k == 1:
        levels = np.array([top], dtype=float)
    else:
        levels = np.sort(rng.choice(np.arange(1, top), size=k - 1, replace=False)).astype(float)
        levels = np.append(levels, float(top))
    levels *= 2.0 ** -20
    masses = np.diff(np.concatenate([[0.0], levels]))
    return Ddf(tuple((float(l), float(m)) for l, m in zip(locs, masses)))


def canonical_ddf_ref(pairs) -> tuple[tuple, bytes, bytes]:
    """Reference `Ddf` construction, in its former two-pass form: validate
    each pair, sort, merge each knot within KNOT_MERGE_TOL of its
    cluster's head into a list of [location, mass] lists, check the
    total, then build the arrays from the canonical jumps.  Returns the
    jumps and the bytes of `_locs` and `_cums`; raises as `Ddf` does."""
    cleaned: list[tuple[float, float]] = []
    for entry in pairs:
        loc, mass = entry
        loc = float(loc)
        mass = float(mass)
        if not math.isfinite(loc) or loc < 0.0:
            raise InvalidArgumentError(
                f"jump location must be finite and >= 0, got {loc!r}")
        if not math.isfinite(mass) or mass <= 0.0:
            raise InvalidArgumentError(
                f"jump mass must be finite and > 0, got {mass!r}")
        cleaned.append((loc, mass))
    cleaned.sort()
    merged: list[list[float]] = []
    for loc, mass in cleaned:
        if merged and loc - merged[-1][0] <= KNOT_MERGE_TOL:
            merged[-1][1] += mass
        else:
            merged.append([loc, mass])
    total = math.fsum(m for _, m in merged)
    if total > 1.0 + VALUE_TOL:
        raise InvalidArgumentError(f"total jump mass {total!r} exceeds 1")
    jumps = tuple((loc, mass) for loc, mass in merged)
    locs = np.array([loc for loc, _ in jumps], dtype=float)
    cums = np.array([0.0, *accumulate(mass for _, mass in jumps)])
    np.minimum(cums, 1.0, out=cums)
    return jumps, locs.tobytes(), cums.tobytes()


def cums_loop(F: Ddf) -> list[float]:
    """Reference `Ddf._cums`: 0.0, then the running mass after each jump,
    clamped at 1 one sum at a time."""
    out = [0.0]
    running = 0.0
    for _, mass in F.jumps:
        running = min(running + mass, 1.0)
        out.append(running)
    return out


def left_limit_of_infimum_loop(family) -> Ddf:
    """Reference `left_limit_of_infimum`: the least scalar value of the
    members at each clustered knot's probe, one probe at a time, with the
    jump list rebuilt from the level increases."""
    fams = list(family)
    reps = _cluster_representatives(sorted({loc for F in fams for loc, _ in F.jumps}))
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, rep in enumerate(reps):
        probe = (rep + reps[i + 1]) / 2.0 if i + 1 < len(reps) else rep + 1.0
        v = min(F.eval(probe) for F in fams)
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))


def ddf_pointwise_max(F: Ddf, G: Ddf) -> Ddf:
    """Pointwise maximum of two step d.d.f.s, rebuilt as a jump list.
    Guarantees F <= result and G <= result; used to manufacture ordered
    pairs for monotonicity and transitivity checks."""
    knots = sorted({loc for D in (F, G) for loc, _ in D.jumps})
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, k in enumerate(knots):
        probe = (k + knots[i + 1]) / 2.0 if i + 1 < len(knots) else k + 1.0
        v = max(F.eval(probe), G.eval(probe))
        if v > prev:
            jumps.append((k, v - prev))
            prev = v
    return Ddf(tuple(jumps))


def brute_force_tau_curve(kind: TNormKind, F: Ddf, G: Ddf,
                          xs: np.ndarray, u_count: int = 4096) -> np.ndarray:
    """sup over a uniform split grid u + v = x of T(F(u), G(v)), per x.

    A lower bound of the exact supremum: any value the exact operation
    attains strictly before x - 2*(x/u_count) is seen by some grid
    split, so the curve lags the exact one by at most that shift.
    """
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        us = np.linspace(0.0, float(x), u_count)
        vals = tnorm_apply_np(kind, F.eval_many(us), G.eval_many(np.maximum(x - us, 0.0)))
        out[i] = np.max(vals)
    return out


def _fixed(v: float) -> int:
    """v * 2^1076 as an exact integer.  Every finite float is a multiple
    of 2^-1074, so sums, differences and midpoints of these integers are
    exact as well."""
    num, den = v.as_integer_ratio()
    return (num << 1076) // den


def _sup_on_split(kind: TNormKind, F: Ddf, G: Ddf, a_locs: list[int],
                  b_locs: list[int], x: float) -> float:
    # sup over u in [0, x] of T(F(u), G(x - u)).  The integrand is
    # piecewise constant with breakpoints at F's knots and at x minus
    # G's knots; boundary values never exceed adjacent piece interiors,
    # so midpoints of the pieces decide the supremum exactly.  Points
    # are exact fixed-point integers: in floats, a piece narrower than
    # one unit in the last place holds no midpoint and its value is lost.
    X = _fixed(x)
    cuts = {0, X}
    cuts.update(a for a in a_locs if 0 < a < X)
    cuts.update(X - b for b in b_locs if 0 < X - b < X)
    grid = sorted(cuts)
    best = 0.0
    for u0, u1 in zip(grid, grid[1:]):
        u = (u0 + u1) // 2
        val = tnorm_apply(kind, F._cums[bisect_left(a_locs, u)],
                          G._cums[bisect_left(b_locs, X - u)])
        if val > best:
            best = val
    return best


def midpoint_scan_tau(kind: TNormKind, F: Ddf, G: Ddf) -> Ddf:
    """Reference triangle function: one midpoint scan of the split
    u + v = x per clustered pair sum, at the midpoint to the next
    cluster (one past the last), with the jump list rebuilt from the
    level increases.  The split scans run in exact fixed point, so each
    level is exact for the given float knots and probes.  About n^3
    scalar t-norm calls for n jumps a side."""
    if not F.jumps or not G.jumps:
        return Ddf(())
    sums = sorted({a + b for a, _ in F.jumps for b, _ in G.jumps})
    reps = _cluster_representatives(sums)
    a_locs = [_fixed(a) for a, _ in F.jumps]
    b_locs = [_fixed(b) for b, _ in G.jumps]
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, rep in enumerate(reps):
        probe = (rep + reps[i + 1]) / 2.0 if i + 1 < len(reps) else rep + 1.0
        v = _sup_on_split(kind, F, G, a_locs, b_locs, probe)
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))


def counting_tau(kind: TNormKind, F: Ddf, G: Ddf) -> Ddf:
    """Reference triangle function by the counting rule: the pairs sorted
    by exact sum, and each clustered sum's level the running maximum over
    the pairs whose key (the float sum, one step down where it was
    rounded up) lies below its probe, counted by one binary search over
    every key.  `tau_apply` reads the same count from the probe's own
    and next cluster alone."""
    if not F.jumps or not G.jumps:
        return Ddf(())
    a, b = F._locs[:, None], G._locs[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = a + b
        b_part = sums - a
        err = ((a - (sums - b_part)) + (b - b_part)).ravel()
        sums = sums.ravel()
        keys = np.where(err < 0.0, np.nextafter(sums, -np.inf), sums)
    vals = tnorm_apply_np(kind, F._cums[1:, None], G._cums[None, 1:]).ravel()
    order = np.lexsort((err, sums))
    running = np.maximum.accumulate(vals[order])
    reps, probes = _cluster_probes(sums[order].tolist())
    below = np.searchsorted(keys[order], probes, side="left") - 1
    return _from_levels(reps, np.where(below >= 0, running[below], 0.0).tolist())


def leq_witness_loop(F: Ddf, G: Ddf) -> tuple[float, float]:
    """Reference `ddf_leq_witness`: scalar evaluation at each comparison
    probe, keeping the first probe of the largest gap."""
    worst = -np.inf
    worst_x = None
    for x in comparison_probes(F, G):
        gap = F.eval(x) - G.eval(x)
        if gap > worst:
            worst = gap
            worst_x = x
    return worst, worst_x


def sibley_scan(F: Ddf, G: Ddf, h_step: float = 1e-4, h_max: float = 1.0) -> float:
    """Smallest h on a uniform h-grid satisfying the two-sided shift
    condition, checked on a dense x-grid.  Independent of the library's
    bisection; resolution is h_step."""
    h = h_step
    while h <= h_max:
        xmax = min(1.0 / h, 8.0)
        xs = np.arange(h_step, xmax, h_step)
        ok = (np.all(G.eval_many(xs) <= F.eval_many(xs + h) + h + 1e-12) and
              np.all(F.eval_many(xs) <= G.eval_many(xs + h) + h + 1e-12))
        if ok:
            return h
        h += h_step
    return h_max


def pointwise_min_curve(fns, xs: np.ndarray) -> np.ndarray:
    """Dense-grid pointwise infimum of a family, as raw values."""
    vals = np.stack([F.eval_many(xs) for F in fns])
    return np.min(vals, axis=0)


def sup_abs_ref(pw: PiecewiseMap1D, a: float, b: float) -> float:
    """Reference `sup_abs_on_interval` for one interval, piece by piece:
    the largest |f| at the ends of each piece clipped to [a, b]."""
    lo, hi = pw.domain
    a, b = max(a, lo), min(b, hi)
    return max(abs(p.value(x)) for p in pw.pieces if max(a, p.lo) <= min(b, p.hi)
               for x in (max(a, p.lo), min(b, p.hi)))


def step_ball_confirmation_ref(space, pw: PiecewiseMap1D, p: float,
                               tprime: float, t: float) -> bool:
    """Reference exact ball check for a single-step generator at location
    g, read off the step itself: the t'-neighborhood is the ball of radius
    t' / g (everything when g == 0 or t' > 1), and the image supremum s
    over it is concentrated when t > 1 or g * s < t.  It assumes a full
    step, so it may disagree with the profile rule only when the mass
    falls short of 1 and t or t' is at or below the shortfall."""
    g_loc = space.generator.jumps[0][0]
    if g_loc == 0.0:
        return True
    if tprime > 1.0:
        lo, hi = pw.domain
        sup = sup_abs_ref(pw, lo, hi)
    else:
        r = tprime / g_loc
        sup = sup_abs_ref(pw, p - r, p + r)
    if t > 1.0:
        return True
    return g_loc * sup < t


def exact_ball_confirmation_ref(space, pw: PiecewiseMap1D, p: float,
                                tprime: float, t: float) -> bool:
    """Reference exact ball check for any generator, read off its jump
    list: a(t') is the location of the first jump whose running mass
    passes 1 - t' (0 when 1 - t' < 0, +inf when none does), the
    t'-neighborhood is the closed ball of radius t' / a(t') (the whole
    domain when a(t') == 0), and the image supremum s over it is
    concentrated when the profile of s exceeds 1 - t at t."""
    a = 0.0
    if 1.0 - tprime >= 0.0:
        a = next((loc for (loc, _), cum in zip(space.generator.jumps,
                                                cums_loop(space.generator)[1:])
                  if cum > 1.0 - tprime), math.inf)
    lo, hi = pw.domain if a == 0.0 else (p - tprime / a, p + tprime / a)
    return prob_norm(space, (sup_abs_ref(pw, lo, hi),)).eval(t) > 1.0 - t


def continuity_scan_oracle(space, m, points, t: float, probe_budget: int) -> list:
    """Reference continuity scan: each sample point's witness threshold on
    the default schedule, or None, found one point, one t' and one
    lattice point at a time with a fresh profile Ddf for every test.

    The members at t' are the lattice points whose difference profile
    from p exceeds 1 - t' at t'; t' is a witness when the profile of the
    largest image among the members and p exceeds 1 - t at t.  The probe
    lattice is the library's own.  On a piecewise map, under every
    generator, a witness must also pass `exact_ball_confirmation_ref`."""
    schedule = default_tprime_schedule(t)
    shape = _probe_shape(space, m, len(schedule), probe_budget, "threshold schedule")
    lattice = [tuple(float(c) for c in q) for q in lattice_nodes(m.box, shape)]
    exact_route = isinstance(m, PiecewiseMap1D)
    out = []
    for p in points:
        witness = None
        for tprime in schedule:
            members = [q for q in lattice
                       if prob_norm(space, np.subtract(p, q)).eval(tprime) > 1.0 - tprime]
            images = [map_eval_vec(m, q) for q in members + [p]]
            farthest = max(images, key=vec_norm)
            if not prob_norm(space, farthest).eval(t) > 1.0 - t:
                continue
            if exact_route and not exact_ball_confirmation_ref(space, m, p[0], tprime, t):
                continue
            witness = tprime
            break
        out.append(witness)
    return out


def sampled_eval_oracle(m, p) -> tuple:
    """Image of the lattice node nearest p, snapping each coordinate with
    Python's round (halves to even) and clipping into the lattice."""
    idx = tuple(min(max(int(round((c - a) / m.resolution)), 0), n - 1)
                for c, (a, _), n in zip(p, m.box, m.shape))
    return tuple(float(c) for c in m.images[idx])


def _lattice_points_oracle(m) -> list[tuple]:
    """A sampled map's lattice nodes as tuples, in lexicographic order."""
    axes = [[float(x) for x in np.linspace(a, b, n)] for (a, b), n in zip(m.box, m.shape)]
    if len(axes) == 1:
        return [(x,) for x in axes[0]]
    return [(x, y) for x in axes[0] for y in axes[1]]


def _neighbor_offsets_1d(space, delta: float, step: float, n: int) -> int:
    admitted = profile_at(space, np.arange(1, n + 1) * step, delta) > 1.0 - delta
    return int(np.count_nonzero(admitted))


def _largest_gap_1d(fv: np.ndarray, max_offset: int) -> float:
    worst = 0.0
    for j in range(1, max_offset + 1):
        worst = max(worst, float(np.max(np.abs(fv[j:] - fv[:-j]))))
    return worst


def _largest_gap_sampled(m, space, delta: float):
    img = np.asarray(m.images)
    grids = np.meshgrid(*(np.arange(1 - n, n) for n in m.shape), indexing="ij")
    offsets = np.stack(grids, axis=-1).reshape(-1, m.dim)
    offsets = offsets[np.any(offsets != 0, axis=1)]
    r = m.resolution * vec_norms(offsets)
    worst = None
    for d in offsets[profile_at(space, r, delta) > 1.0 - delta]:
        src = tuple(slice(max(x, 0), img.shape[k] + min(x, 0)) for k, x in enumerate(d))
        dst = tuple(slice(max(-x, 0), img.shape[k] + min(-x, 0)) for k, x in enumerate(d))
        diff = img[src] - img[dst]
        gap = float(np.max(np.sqrt(np.sum(diff * diff, axis=-1))))
        worst = gap if worst is None else max(worst, gap)
    return worst


def estimator_levels_oracle(space, m, deltas, grids) -> list[tuple]:
    """(grid step, delta, largest pair gap or None) per refinement level,
    by the two routines the estimator had per map kind: a prefix of
    1-d offsets on the piecewise map's grids, and every admitted nonzero
    offset, each with its own gap, on a sampled map's lattice."""
    out = []
    if isinstance(m, PiecewiseMap1D):
        lo, hi = m.domain
        for h in grids:
            n = max(1, int(round((hi - lo) / h)))
            fv = m.eval_many(np.linspace(lo, hi, n + 1))
            for delta in deltas:
                max_off = _neighbor_offsets_1d(space, delta, (hi - lo) / n, n)
                out.append((h, delta, _largest_gap_1d(fv, max_off) if max_off >= 1 else None))
    else:
        for delta in deltas:
            out.append((m.resolution, delta, _largest_gap_sampled(m, space, delta)))
    return out


def dominance_candidate_oracle(m) -> tuple:
    """The lattice node of least displacement |f(p) - p|, ties going to
    the lexicographically smallest node, by one scalar evaluation per
    node."""
    return min(_lattice_points_oracle(m),
               key=lambda p: (vec_norm(np.subtract(sampled_eval_oracle(m, p), p)), p))


def limit_values_scan(pw: PiecewiseMap1D, x: float) -> tuple[float, ...]:
    """One-sided limits of a piecewise map at x, each read off the first
    piece covering (.., x] or [x, ..) in a scan of the pieces; the right
    limit is dropped within LIMIT_MERGE_TOL of the left one."""
    lo, hi = pw.domain
    vals = []
    if x > lo:
        vals.append(next(p.value(x) for p in pw.pieces if p.lo < x <= p.hi))
    if x < hi:
        r = next(p.value(x) for p in pw.pieces if p.lo <= x < p.hi)
        if all(abs(r - v) > LIMIT_MERGE_TOL for v in vals):
            vals.append(r)
    return tuple(vals)


def piecewise_limit_values_ref(pw: PiecewiseMap1D, P) -> np.ndarray:
    """`PiecewiseMap1D.limit_values` as a row-major gather: the same
    arithmetic, stacked slot after slot into a C-ordered (n, 2, 1)."""
    xs = pw._domain_xs(P)
    lo, hi = pw.domain
    kl = np.searchsorted(pw._breaks_np, xs, "left")
    kr = np.searchsorted(pw._breaks_np, xs, "right")
    left = pw._slopes_np[kl] * xs + pw._icepts_np[kl]
    right = pw._slopes_np[kr] * xs + pw._icepts_np[kr]
    left = np.where(xs > lo, left, right)
    right = np.where((xs < hi) & (np.abs(right - left) > LIMIT_MERGE_TOL), right, left)
    return np.stack([left, right], axis=1)[:, :, None]


def sampled_limit_values_ref(m, P) -> np.ndarray:
    """`SampledMap.limit_values` as a row-major gather: each neighbour's
    index mirrored into the lattice by top - |top - |i + o||, then one
    fancy index into the images, C-ordered (n, 3^dim - 1, dim)."""
    offsets = [d for d in product((-1, 0, 1), repeat=m.dim) if any(d)]
    top = np.array(m.shape) - 1
    idx = top - np.abs(top - np.abs(m._snap(P)[:, None, :] + offsets))
    return m.images[tuple(np.moveaxis(idx, -1, 0))]


def convex_hull_ref(points) -> tuple:
    """Andrew's monotone chain on planar points with numpy cross products:
    `discont.convex_hull` must return the same vertices, in order."""
    ordered = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    if len(ordered) <= 2:
        return tuple(ordered)
    vertices: list = []
    for seq in (ordered, ordered[::-1]):
        chain: list = []
        for q in seq:
            while len(chain) >= 2:
                u, v = np.subtract(chain[-1], chain[-2]), np.subtract(q, chain[-2])
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                chain.pop()
            chain.append(q)
        vertices += chain[:-1]
    return tuple(vertices)


def kakutani_loop_search(pw: PiecewiseMap1D, h: float) -> KakutaniResult:
    """Reference hull search on a piecewise map: one candidate at a time,
    in order, keeping a candidate only when strictly closer to the hull
    of its scanned limit values than the best so far, and stopping at the
    first exact containment.  A best distance above h raises."""
    best = None
    for (x,) in pw.candidates(h).tolist():
        lo, hi = convex_hull(limit_values_scan(pw, x))
        d = max(0.0, lo - x, x - hi)
        if best is None or d < best.distance:
            best = KakutaniResult(point=(x,), hull=(lo, hi), distance=d)
            if d == 0.0:
                break
    if best.distance > h:
        raise TheoremViolationError("no candidate within tolerance", report=best)
    return best


def profile_at_ref(space, norms, t) -> np.ndarray:
    """`profile_at` with both arguments first broadcast to one shape by
    `np.broadcast_arrays`: the reference for its shape, dtype and values."""
    r, t = np.broadcast_arrays(np.asarray(norms, dtype=float), np.asarray(t, dtype=float))
    gen = space.generator
    below = np.count_nonzero(r[..., None] * gen._locs < t[..., None], axis=-1)
    return np.where(r == 0.0, (t > 0.0).astype(float), gen._cums[below])


def verify_chain_ref(space, m, psi: Ddf, kk: KakutaniResult, t_grid) -> tuple[float, ...]:
    """(worst_t, residual_minus_mid_min, mid_minus_psi_min) of the chain at
    the hull point p* = kk.point, with the map and its limit values
    evaluated again at p* and the profiles taken by `profile_at_ref`."""
    ts = np.array(t_grid)
    p = np.array(kk.point)[None]
    fk = m.eval_points(p)
    far = float(np.max(vec_norms(fk - m.limit_values(p)[0])))
    norms = [[vec_norms(fk[0] - p[0])], [far + kk.distance], [far]]
    residual, mid, least = profile_at_ref(space, norms, ts)
    upper, lower = residual - mid, least - psi.eval_many(ts)
    return (float(ts[np.argmin(np.minimum(upper, lower))]), float(np.min(upper)),
            float(np.min(lower)))


def _cross_exact(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def planar_hull_oracle(p, pts, samples: int = 4097) -> tuple[bool, float, float]:
    """(contained, distance, error bound) for point p and the convex hull
    of the planar points pts, by routes independent of the library.

    Containment is decided in exact rational arithmetic: p equals a
    point, lies on a segment between two, or lies in a triangle of three
    (the triangles cover the hull).  The distance is the least distance
    from p to `samples` evenly spaced points on every segment between two
    points, an upper bound on the exact one that exceeds it by at most
    the returned error bound, half the longest sample spacing."""
    P = tuple(map(Fraction, p))
    Q = [tuple(map(Fraction, q)) for q in pts]
    contained = P in Q
    for a, b in combinations(Q, 2):
        dot = (P[0] - a[0]) * (b[0] - a[0]) + (P[1] - a[1]) * (b[1] - a[1])
        len2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
        contained |= _cross_exact(a, b, P) == 0 and 0 <= dot <= len2 and len2 > 0
    for a, b, c in combinations(Q, 3):
        area = _cross_exact(a, b, c)
        sides = (_cross_exact(a, b, P), _cross_exact(b, c, P), _cross_exact(c, a, P))
        contained |= area != 0 and all(s * area >= 0 for s in sides)
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    pts = np.asarray(pts, dtype=float)
    dist, err = float(np.hypot(*(pts - np.asarray(p)).T).min()), 0.0
    for a, b in combinations(pts, 2):
        line = a + ts * (b - a)
        dist = min(dist, float(np.hypot(*(line - np.asarray(p)).T).min()))
        err = max(err, float(np.hypot(*(b - a))) / (2 * (samples - 1)))
    return contained, dist, err


def hull_distances_pairwise(P, Q) -> np.ndarray:
    """`discont.hull_distances` in 2-d, one segment or fan triangle at a
    time over all rows: the same elementwise arithmetic, so its values
    must match bit for bit."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    nearest, inside = vec_norms(P - Q[:, 0]), np.zeros(len(P), dtype=bool)
    for i, j in combinations(range(Q.shape[1]), 2):
        a, ab = Q[:, i], Q[:, j] - Q[:, i]
        ap = P - a
        len2, dot = np.sum(ab * ab, axis=1), np.sum(ap * ab, axis=1)
        s = np.clip(dot / np.where(len2 > 0.0, len2, 1.0), 0.0, 1.0)
        nearest = np.minimum(nearest, vec_norms(ap - s[:, None] * ab))
        inside |= (len2 > 0.0) & (cross(ab, ap) == 0.0) & (dot >= 0.0) & (dot <= len2)
    a = Q[:, 0]
    for i, j in combinations(range(1, Q.shape[1]), 2):
        b, c = Q[:, i], Q[:, j]
        area = cross(b - a, c - a)
        sides = np.stack([cross(b - a, P - a), cross(c - b, P - b), cross(a - c, P - c)])
        inside |= (area != 0.0) & np.all(np.sign(area) * sides >= 0.0, axis=0)
    inside &= np.all((Q.min(axis=1) <= P) & (P <= Q.max(axis=1)), axis=1)
    return np.where(inside, 0.0, nearest)


def tnorm_axioms_loop(kind: TNormKind, samples) -> dict:
    """`tnorms.check_tnorm_axioms` one triple at a time through the scalar
    `tnorm_apply`, as its report's JSON object."""
    comm = assoc = mono = ident = 0.0
    n = 0
    for triple in samples:
        a, b, c = (float(v) for v in triple)
        for v in (a, b, c):
            if not (0.0 <= v <= 1.0):
                raise InvalidArgumentError(f"sample value {v!r} outside [0, 1]")
        comm = max(comm, abs(tnorm_apply(kind, a, b) - tnorm_apply(kind, b, a)))
        assoc = max(assoc, abs(tnorm_apply(kind, a, tnorm_apply(kind, b, c))
                               - tnorm_apply(kind, tnorm_apply(kind, a, b), c)))
        lo, hi = min(a, b), max(a, b)
        mono = max(mono, tnorm_apply(kind, lo, c) - tnorm_apply(kind, hi, c))
        ident = max(ident, abs(tnorm_apply(kind, a, 1.0) - a))
        n += 1
    return TNormAxiomReport(kind=kind, commutativity=comm, associativity=assoc,
                            monotonicity=mono, identity=ident, samples=n).to_json_obj()


def dominance_loops(space, samples, lambdas) -> tuple[dict, dict]:
    """`pn_space.check_axioms`' N3 and N4 results, as JSON objects, from
    one hand-written worst-case loop each: the N3 loop over the sample
    pairs, the N4 loop over the distinct sample vectors and `lambdas`."""
    dim = space.dimension
    pairs = np.asarray(samples, dtype=float)
    vectors = np.array(list(dict.fromkeys(map(tuple, pairs.reshape(-1, dim).tolist()))))

    n3_worst, n3_gap = None, -math.inf
    for p, q in pairs:
        lhs = tau_apply(space.tau, prob_norm(space, p), prob_norm(space, q))
        gap, x = ddf_leq_witness(lhs, prob_norm(space, p + q))
        if gap > n3_gap:
            n3_gap = gap
            n3_worst = {"p": p.tolist(), "q": q.tolist(), "x": x, "gap": gap}
    n3 = AxiomResult("N3", n3_gap <= VALUE_TOL, len(pairs),
                     None if n3_gap <= VALUE_TOL else n3_worst)

    n4_worst, n4_gap, n4_checked = None, -math.inf, 0
    for v in vectors:
        nu_v = prob_norm(space, v)
        for lam in lambdas:
            rhs = tau_apply(space.tau_star, prob_norm(space, lam * v),
                            prob_norm(space, (1.0 - lam) * v))
            gap, x = ddf_leq_witness(nu_v, rhs)
            n4_checked += 1
            if gap > n4_gap:
                n4_gap = gap
                n4_worst = {"p": v.tolist(), "lambda": lam, "x": x, "gap": gap}
    n4 = AxiomResult("N4", n4_gap <= VALUE_TOL, n4_checked,
                     None if n4_gap <= VALUE_TOL else n4_worst)
    return n3.to_json_obj(), n4.to_json_obj()
