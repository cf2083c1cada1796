"""Tests for the dominance and hull-containment searches."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkit import (InvalidArgumentError, Piece, PiecewiseMap1D, PnkitError,
                   SampledMap, TheoremViolationError, constant_map, ddf_leq,
                   discontinuity_exact, discontinuity_measure, find_approx_fixed_point,
                   kakutani_search, make_epsilon, sibley_distance,
                   verify_approx_fixed_point, verify_batch)
from pnkit import discont, fixpoint
from pnkit.cli import ScenarioFamily, generate_scenarios, load_config
from pnkit.ddf import Ddf
from pnkit.fixpoint import FixPointReport, KakutaniResult
from pnkit.pn_space import PnSpace, vec_norm

from helpers import (dominance_candidate_oracle, kakutani_loop_search, sampled_eval_oracle,
                     verify_chain_ref)
from test_contract import generators, self_maps

H = 1.0 / 1024


def jump_map() -> PiecewiseMap1D:
    return PiecewiseMap1D(domain=(0.0, 1.0),
                          pieces=(Piece(0.0, 0.5, "left", 0.0, 0.6),
                                  Piece(0.5, 1.0, "left", 0.0, 0.2)))


def flip_map() -> PiecewiseMap1D:
    return PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", -1.0, 1.0),))


def halving_map() -> PiecewiseMap1D:
    return PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", 0.5, 0.0),))


class TestDominanceSearch:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
    def test_sampled_candidate_matches_scalar_oracle(self, seed, dim):
        # Images on the lattice itself make many displacements tie exactly.
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 9, (9 ** dim, dim)) / 8.0
        m = SampledMap(box=((0.0, 1.0),) * dim, resolution=0.125, images=images)
        # The zero d.d.f. is dominated by every residual profile.
        report = find_approx_fixed_point(PnSpace(dimension=dim), m, Ddf(()), H)
        want = dominance_candidate_oracle(m)
        assert report.candidate == want
        assert report.displacement == vec_norm(np.subtract(sampled_eval_oracle(m, want), want))

    def test_sampled_tie_goes_to_first_node(self):
        m = SampledMap.from_function(lambda p: (0.5625, 0.5), ((0.0, 1.0), (0.0, 1.0)), 0.125)
        report = find_approx_fixed_point(PnSpace(dimension=2), m, Ddf(()), H)
        assert report.candidate == (0.5, 0.5) == dominance_candidate_oracle(m)
        assert report.displacement == 0.0625

    def test_jump_map_candidate_within_gap(self, unit_space):
        psi = discontinuity_exact(unit_space, jump_map())
        fp = find_approx_fixed_point(unit_space, jump_map(), psi, H)
        assert fp.dominance
        assert fp.displacement <= 0.4
        assert fp.margin <= 1e-12
        assert ddf_leq(fp.psi, fp.residual_ddf)
        # Exhaustive-scan confirmation at the same resolution: no
        # candidate does better than the returned displacement.
        xs = np.linspace(0.0, 1.0, 1025)
        disp = np.abs(jump_map().eval_many(xs) - xs)
        assert fp.displacement <= float(np.min(disp)) + 1e-15

    def test_continuous_flip_finds_exact_midpoint(self, unit_space):
        psi = discontinuity_exact(unit_space, flip_map())
        fp = find_approx_fixed_point(unit_space, flip_map(), psi, H)
        assert fp.candidate == (0.5,)
        assert fp.displacement == 0.0
        assert fp.residual_ddf.jumps == make_epsilon(0.0).jumps
        assert fp.dominance

    def test_constant_map_fixes_its_value(self, unit_space):
        m = constant_map((0.0, 1.0), 0.37)
        psi = discontinuity_exact(unit_space, m)
        fp = find_approx_fixed_point(unit_space, m, psi, H)
        assert fp.candidate == (0.37,)
        assert fp.displacement == 0.0

    def test_dominance_matches_margin_sign(self, unit_space, corpus_maps):
        for m in corpus_maps[:20]:
            psi = discontinuity_exact(unit_space, m)
            fp = find_approx_fixed_point(unit_space, m, psi, H)
            assert fp.dominance == (fp.margin <= 1e-12)
            assert fp.dominance == ddf_leq(fp.psi, fp.residual_ddf)

    def test_unreachable_bound_raises_with_failing_report(self, unit_space):
        # The jump map's least displacement is about 0.1, so demanding
        # dominance over a tighter bound must fail loudly.
        with pytest.raises(TheoremViolationError) as exc:
            find_approx_fixed_point(unit_space, jump_map(), make_epsilon(0.05), H)
        assert exc.value.report is not None
        assert exc.value.report.dominance is False

    def test_consistency_for_continuous_pieces(self, unit_space):
        # Whenever the measure is maximal the residual must be within a
        # Lipschitz-scaled grid cell of maximal as well.
        m = PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.0, 1.0, "left", 0.25, 0.5),))
        psi = discontinuity_exact(unit_space, m)
        fp = find_approx_fixed_point(unit_space, m, psi, H)
        assert sibley_distance(fp.residual_ddf, make_epsilon(0.0)) <= 0.25 * H + H + 1e-9

    def test_rejects_bad_resolution(self, unit_space):
        for h in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="grid resolution must be positive"):
                find_approx_fixed_point(unit_space, jump_map(), make_epsilon(0.0), h)
            with pytest.raises(InvalidArgumentError, match="grid resolution must be positive"):
                kakutani_search(jump_map(), h)

    def test_rejects_a_map_of_another_dimension(self):
        with pytest.raises(InvalidArgumentError, match="map and space dimensions must agree"):
            find_approx_fixed_point(PnSpace(dimension=2), jump_map(), make_epsilon(0.0), 1 / 64)


class TestHullContainmentSearch:
    def test_jump_map_breakpoint_is_contained(self):
        kk = kakutani_search(jump_map(), H)
        assert kk.point == (0.5,)
        assert kk.hull == (0.2, 0.6)
        assert kk.distance == 0.0

    def test_flip_map_midpoint(self):
        kk = kakutani_search(flip_map(), H)
        assert kk.point == (0.5,)
        assert kk.distance == 0.0

    def test_halving_map_boundary_fixed_point(self):
        kk = kakutani_search(halving_map(), H)
        assert kk.point == (0.0,)
        assert kk.hull == (0.0, 0.0)
        assert kk.distance == 0.0

    def test_distance_weakly_decreases_under_refinement(self):
        # A sampled map keeps the search honest about grid limits: the
        # best containment distance can only improve on a finer lattice.
        def f(p):
            return (0.6,) if p[0] < 0.503 else (0.2,)
        coarse = kakutani_search(SampledMap.from_function(f, ((0.0, 1.0),), 1.0 / 16), 1.0 / 16)
        fine = kakutani_search(SampledMap.from_function(f, ((0.0, 1.0),), 1.0 / 64), 1.0 / 64)
        assert fine.distance <= coarse.distance

    def test_matches_loop_search_on_batch_config(self):
        cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "batch.json"))
        h = min(cfg.grid_resolutions)
        for m in generate_scenarios(cfg.scenarios, cfg.seed):
            assert kakutani_search(m, h).to_json_obj() == kakutani_loop_search(m, h).to_json_obj()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["constant", "affine"]),
           pieces=st.integers(1, 5), values=st.sampled_from([(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)]),
           h=st.sampled_from([1.0 / 1024, 1.0 / 64, 0.1]))
    def test_matches_loop_search_on_drawn_maps(self, seed, kind, pieces, values, h):
        # Narrow value ranges make constant pieces repeat a value, so
        # limits merge and many candidates tie at distance 0.
        family = ScenarioFamily(count=1, pieces=(pieces, pieces), values=values, kind=kind)
        m, = generate_scenarios(family, seed)
        assert kakutani_search(m, h).to_json_obj() == kakutani_loop_search(m, h).to_json_obj()

    def test_lattice_with_one_node_along_an_axis_is_refused(self):
        m = SampledMap(box=((0.0, 0.1), (0.0, 1.0)), resolution=0.25, images=[(0.05, 0.5)] * 5)
        assert m.shape == (1, 5)
        with pytest.raises(InvalidArgumentError, match=r"two lattice nodes along every axis"):
            kakutani_search(m, 0.25)


def two_region_map(seed: int, side: int, kind: str) -> SampledMap:
    """The unit square split along a seeded random line, each side mapped
    to a constant point or contracted towards its own centre, sampled on
    a side x side lattice."""
    rng = np.random.default_rng(seed)
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
    return SampledMap.from_function(fn, ((0.0, 1.0), (0.0, 1.0)), 1.0 / (side - 1))


def between_nodes_map() -> SampledMap:
    """Every node maps to (0.2125, 0.5125) or (0.2225, 0.5125) on a 0.05
    lattice of the unit square: the estimate jumps at 0.01, and the best
    node, (0.2, 0.5), is 0.0177 from its image, so dominance fails."""
    return SampledMap.from_function(
        lambda p: (0.2125, 0.5125) if p[0] < 0.5 else (0.2225, 0.5125),
        ((0.0, 1.0), (0.0, 1.0)), 0.05)


def record_grid_calls(monkeypatch, cls) -> dict[str, list[np.ndarray]]:
    """Wrap `cls.candidates`, `cls.eval_points` and `cls.limit_values` so
    that each call appends its argument (the step, for `candidates`)."""
    calls: dict[str, list[np.ndarray]] = {}
    for name in ("candidates", "eval_points", "limit_values"):
        def recorded(self, arg, _fn=getattr(cls, name), _log=calls.setdefault(name, [])):
            _log.append(np.array(arg, dtype=float))
            return _fn(self, arg)
        monkeypatch.setattr(cls, name, recorded)
    return calls


class TestOneTriple:
    """`verify_approx_fixed_point` builds the candidates, their images and
    their limit values once, and reads both searches and the chain off
    them; each must read as the public search or the re-evaluating chain."""

    @pytest.mark.parametrize("m, dim", [(jump_map(), 1),
                                        (two_region_map(0, 21, "constant"), 2)])
    def test_the_triple_is_built_once(self, monkeypatch, m, dim):
        h = m.grids((H,))[0]
        cands = m.candidates(h)
        calls = record_grid_calls(monkeypatch, type(m))
        passes = []

        def spy(maps, xs, _fn=fixpoint.piecewise_triples):
            passes.append(np.concatenate(xs)[:, None])
            return _fn(maps, xs)

        monkeypatch.setattr(fixpoint, "piecewise_triples", spy)
        verify_approx_fixed_point(PnSpace(dimension=dim), m, grid_resolutions=(h,),
                                  t_grid=tuple(k / 256 for k in range(1, 257)))
        if dim == 1:
            # One pass of the exact route builds the triple and the measure,
            # on the grid alone: no map method evaluates the breakpoints apart.
            assert calls == {"candidates": [], "eval_points": [], "limit_values": []}
            assert [P.tolist() for P in passes] == [cands.tolist()]
        else:
            assert passes == []
            assert calls["candidates"] == [h]
            for name in ("eval_points", "limit_values"):
                assert [P.tolist() for P in calls[name]] == [cands.tolist()], name

    def test_a_dominance_failure_raises_before_the_limit_values(self, monkeypatch):
        space, m = PnSpace(dimension=2), between_nodes_map()
        psi, _ = discontinuity_measure(space, m, grid_resolutions=(0.05,))
        with pytest.raises(TheoremViolationError) as want:
            find_approx_fixed_point(space, m, psi, 0.05)
        calls = record_grid_calls(monkeypatch, SampledMap)
        with pytest.raises(TheoremViolationError) as got:
            verify_approx_fixed_point(space, m, grid_resolutions=(0.05,))
        assert isinstance(got.value.report, FixPointReport)
        assert (str(got.value), got.value.report) == (str(want.value), want.value.report)
        assert calls["limit_values"] == []

    @staticmethod
    def assert_reads_the_searches(space, m, h, **kwargs):
        """The verify result of `m` against the public searches and
        `verify_chain_ref`."""
        t_grid = tuple(k / 64 for k in range(1, 65))
        r = verify_approx_fixed_point(space, m, grid_resolutions=(h,), t_grid=t_grid, **kwargs)
        psi = r.fixpoint.psi
        assert r.fixpoint == find_approx_fixed_point(space, m, psi, h)
        assert r.kakutani == kakutani_search(m, h)
        assert ((r.worst_t, r.residual_minus_mid_min, r.mid_minus_psi_min)
                == verify_chain_ref(space, m, psi, r.kakutani, t_grid))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=self_maps(), gen=generators(), h=st.sampled_from([1 / 16, 1 / 64, 1 / 1024]))
    def test_piecewise_maps_read_as_the_public_searches(self, m, gen, h):
        self.assert_reads_the_searches(PnSpace(dimension=1, generator=gen), m, h)

    # Generator locations in [0, 1]: delta = 0.4 then admits the axis
    # neighbours of every lattice here, so the estimator always has a level.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 16), side=st.integers(6, 21),
           kind=st.sampled_from(["constant", "affine"]),
           gen=generators().map(lambda g: Ddf(tuple((a / 4, w) for a, w in g.jumps))))
    def test_sampled_maps_read_as_the_public_searches(self, seed, side, kind, gen):
        self.assert_reads_the_searches(PnSpace(dimension=2, generator=gen),
                                       two_region_map(seed, side, kind), 1.0 / (side - 1),
                                       delta_schedule=(0.4, 0.2, 0.1))


class TestPlanarHullDistance:
    """Two-region maps on which a hull distance measured to the nearest
    hull vertex exhausted the search, or left the chain's upper link
    without the hull distance as slack, one mass quantum short."""

    @pytest.mark.parametrize("side, kind, seed", [
        (21, "constant", 0), (41, "constant", 0),   # hull search exhausted
        (21, "constant", 1), (41, "affine", 5),     # upper link short
    ])
    def test_two_region_map_verifies(self, side, kind, seed):
        h = 1.0 / (side - 1)
        m = two_region_map(seed, side, kind)
        r = verify_approx_fixed_point(PnSpace(dimension=2), m, grid_resolutions=(h,),
                                      t_grid=tuple(k / 256 for k in range(1, 257)))
        assert r.fixpoint.dominance
        assert 0.0 < r.kakutani.distance <= h
        assert r.to_json_obj()["chain"]["holds"] is True


class TestEndToEnd:
    def test_jump_map_chain_holds_everywhere(self, unit_space):
        t_grid = tuple(k / 256 for k in range(1, 257))
        rep = verify_approx_fixed_point(unit_space, jump_map(), t_grid=t_grid).to_json_obj()
        assert rep["psi_route"] == "exact"
        assert rep["fixpoint"]["dominance"] is True
        assert rep["chain"]["holds"] is True
        assert rep["chain"]["checked_t"] == 256
        assert rep["kakutani"]["point"] == [0.5]

    def test_continuous_map_everything_maximal(self, unit_space):
        rep = verify_approx_fixed_point(unit_space, flip_map()).to_json_obj()
        assert rep["psi"] == [[0.0, 1.0]]
        assert rep["fixpoint"]["residual"] == [[0.0, 1.0]]
        assert rep["chain"]["holds"] is True

    def test_sampled_map_uses_estimate_route(self, unit_space):
        m = SampledMap.from_function(
            lambda p: (0.6,) if p[0] < 0.5 else (0.2,), ((0.0, 1.0),), 1.0 / 512)
        rep = verify_approx_fixed_point(unit_space, m,
                                        t_grid=tuple(k / 128 for k in range(1, 129))).to_json_obj()
        assert rep["psi_route"] == "estimate"
        assert rep["fixpoint"]["dominance"] is True

    def test_report_is_json_ready(self, unit_space):
        import json
        rep = verify_approx_fixed_point(unit_space, jump_map(),
                                        t_grid=tuple(k / 64 for k in range(1, 65))).to_json_obj()
        text = json.dumps(rep, sort_keys=True)
        assert json.loads(text) == rep

    # The last three fail to convert, and name their field all the same.
    @pytest.mark.parametrize("t_grid", [(), (0.5, 0.25), (0.0, 0.5), (0.5, float("inf")),
                                        ["x"], 5, [10 ** 400]])
    def test_exact_route_keeps_the_t_grid_rule(self, unit_space, t_grid):
        with pytest.raises(InvalidArgumentError, match="^t_grid"):
            verify_approx_fixed_point(unit_space, jump_map(), t_grid=t_grid)

    def test_exact_route_checks_the_grid_schedule(self, unit_space):
        with pytest.raises(InvalidArgumentError, match="grid_resolutions"):
            verify_approx_fixed_point(unit_space, jump_map(), grid_resolutions=())

    def test_result_carries_the_typed_searches(self, unit_space):
        t_grid = tuple(k / 64 for k in range(1, 65))
        r = verify_approx_fixed_point(unit_space, jump_map(), t_grid=t_grid)
        assert r.estimate is None and r.t_grid == t_grid
        assert r.fixpoint.psi.jumps == discontinuity_exact(unit_space, jump_map()).jumps
        assert r.kakutani == kakutani_search(jump_map(), H)
        assert r.to_json_obj()["chain"]["holds"] is r.chain_holds is True

    @pytest.mark.xfail(strict=True, raises=TheoremViolationError,
                       reason="the dominance search scans the lattice nodes only")
    def test_sampled_fixed_point_between_nodes_is_found(self):
        # (0.2125, 0.5125) snaps to the best node, (0.2, 0.5), whose image it
        # is, so it is a fixed point of the map that eval_points evaluates.
        m = between_nodes_map()
        fixed = np.array([[0.2125, 0.5125]])
        assert np.array_equal(m.eval_points(fixed), fixed)
        r = verify_approx_fixed_point(PnSpace(dimension=2), m, grid_resolutions=(0.05,))
        assert r.fixpoint.dominance

    @staticmethod
    def _half_contraction(generator):
        """The 2-D contraction p -> (0.25 + p / 2) on a 0.2 lattice, fixed at
        (0.5, 0.5), verified under `generator` with the delta schedule
        (0.4, 0.2, 0.1) and the 256-point t-grid."""
        m = SampledMap.from_function(lambda p: (0.25 + 0.5 * p[0], 0.25 + 0.5 * p[1]),
                                     ((0.0, 1.0), (0.0, 1.0)), 0.2)
        return verify_approx_fixed_point(
            PnSpace(dimension=2, generator=Ddf(generator)), m, grid_resolutions=(0.2,),
            delta_schedule=(0.4, 0.2, 0.1), t_grid=tuple(k / 256 for k in range(1, 257)))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the estimate scans only part of the ring the chain reads")
    def test_partial_ring_contraction_keeps_the_chain(self):
        # Under the step at 1.9, delta = 0.4 admits the axis offsets (0.2)
        # but not the diagonals (0.283), and the smaller deltas admit
        # nothing: the estimate is the profile of the largest axis gap, 0.1,
        # while `far` at p* = (0.4, 0.4) is a diagonal gap of 0.141.
        r = self._half_contraction(((1.9, 1.0),))
        assert r.kakutani.point == (0.4, 0.4)
        assert r.chain_holds, (r.worst_t, r.mid_minus_psi_min)

    def test_full_ring_contraction_keeps_the_chain(self):
        assert self._half_contraction(((1.0, 1.0),)).chain_holds


DOMAINS = ((0.0, 1.0), (-2.0, 3.0), (0.5, 0.75))


@st.composite
def domain_maps(draw) -> PiecewiseMap1D:
    """Constant and affine pieces, one to five, on one of DOMAINS, with
    breakpoints on a 1/64 grid of the domain, all owned on one side."""
    lo, hi = draw(st.sampled_from(DOMAINS))
    cuts = draw(st.lists(st.integers(1, 63), max_size=4, unique=True))
    edges = [lo, *(lo + (hi - lo) * c / 64 for c in sorted(cuts)), hi]
    closed = draw(st.sampled_from(["left", "right"]))
    value = st.floats(lo, hi)
    pieces = []
    for a, b in zip(edges, edges[1:]):
        y0 = draw(value)
        y1 = draw(value) if draw(st.booleans()) else y0
        slope = (y1 - y0) / (b - a)
        pieces.append(Piece(a, b, closed, slope, y0 - slope * a))
    return PiecewiseMap1D(domain=(lo, hi), pieces=tuple(pieces))


@st.composite
def sampled_copies(draw) -> SampledMap:
    """A drawn map known only on a 17-node lattice of its domain."""
    m = draw(domain_maps())
    lo, hi = m.domain
    return SampledMap.from_function(lambda p: (m.eval(p[0]),), (m.domain,), (hi - lo) / 16)


def outcome(call):
    """What `call` returns or raises, and the warnings it gives (message,
    category, file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except PnkitError as exc:
            out = (type(exc), str(exc), getattr(exc, "report", None))
    return out, [(str(w.message), w.category, w.filename) for w in caught]


def assert_batch_reads_as_the_loop(space, maps, **kwargs):
    """`verify_batch` on `maps` returns or raises what one-map calls, in
    order, return or raise, field for field, with the same warnings."""
    want = outcome(lambda: [verify_approx_fixed_point(space, m, **kwargs) for m in maps])
    got = outcome(lambda: verify_batch(space, maps, **kwargs))
    assert got == want
    assert all(filename == __file__ for *_, filename in got[1])
    if isinstance(want[0], list):
        assert [json.dumps(r.to_json_obj()) for r in got[0]] == \
            [json.dumps(r.to_json_obj()) for r in want[0]]
    return got[0]


class TestBatch:
    """`verify_batch` against `verify_approx_fixed_point` map by map."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(maps=st.lists(st.one_of(domain_maps(), domain_maps(), sampled_copies()),
                         min_size=1, max_size=6),
           gen=generators(), dim=st.sampled_from([1, 1, 1, 2]),
           grids=st.sampled_from([(1 / 16,), (1 / 64,), (0.25, 1 / 32)]))
    def test_mixed_batches_read_as_the_loop(self, maps, gen, dim, grids):
        assert_batch_reads_as_the_loop(PnSpace(dimension=dim, generator=gen), maps,
                                       grid_resolutions=grids,
                                       t_grid=tuple(k / 32 for k in range(1, 33)))

    def test_a_failing_third_sampled_map_raises_as_the_loop(self):
        maps = [two_region_map(0, 21, "constant"), two_region_map(1, 21, "constant"),
                between_nodes_map()]
        (kind, _, report), caught = outcome(lambda: verify_batch(
            PnSpace(dimension=2), maps, grid_resolutions=(0.05,)))
        assert kind is TheoremViolationError and isinstance(report, FixPointReport)
        assert caught  # the estimates' skipped levels, all three maps'
        assert_batch_reads_as_the_loop(PnSpace(dimension=2), maps, grid_resolutions=(0.05,))

    def test_batches_past_the_grid_budget_split_into_chunks(self, monkeypatch):
        maps = generate_scenarios(ScenarioFamily(count=12, pieces=(1, 5), kind="affine"), 7)
        space, kwargs = PnSpace(dimension=1), dict(grid_resolutions=(1 / 64,),
                                                   t_grid=tuple(k / 16 for k in range(1, 17)))
        want = verify_batch(space, maps, **kwargs)
        monkeypatch.setattr(discont, "MAX_GRID_NODES", 200)
        assert assert_batch_reads_as_the_loop(space, maps, **kwargs) == want
        chunks = []

        def spy(batch, cands, _fn=fixpoint.piecewise_triples):
            chunks.append([len(x) for x in cands])
            return _fn(batch, cands)

        monkeypatch.setattr(fixpoint, "piecewise_triples", spy)
        assert verify_batch(space, maps, **kwargs) == want
        # Maps of 65 to 73 candidates, two or three to a chunk.
        assert sum(map(len, chunks)) == 12 and {len(c) for c in chunks} <= {2, 3}
        assert max(map(sum, chunks)) <= 200

    def test_the_first_failing_map_raises_before_a_later_grid_is_built(self, monkeypatch):
        # With no margin admitted every dominance search fails, so the loop
        # stops at the first map, before the second map's grid, whose
        # 10^10 nodes would be refused.
        monkeypatch.setattr(fixpoint, "VALUE_TOL", -1.0)
        maps = [jump_map(), constant_map((0.0, 1e7), 5.0)]
        kind, *_ = assert_batch_reads_as_the_loop(PnSpace(dimension=1), maps,
                                                  grid_resolutions=(H,))
        assert kind is TheoremViolationError

    def test_a_hull_failure_raises_in_map_order(self, monkeypatch):
        # Every hull distance moved past the tolerance: the first map's
        # hull error comes first, after its dominance search has passed.
        def far_hulls(P, Q, starts, _fn=fixpoint.nearest_to_hulls):
            return [(i, d + 1.0) for i, d in _fn(P, Q, starts)]

        monkeypatch.setattr(fixpoint, "nearest_to_hulls", far_hulls)
        maps = [jump_map(), flip_map()]
        kind, _, report = assert_batch_reads_as_the_loop(PnSpace(dimension=1), maps,
                                                         grid_resolutions=(H,))
        assert kind is TheoremViolationError and isinstance(report, KakutaniResult)
        assert report.point == (0.5,) and report.distance == 1.0

    def test_the_exact_measure_is_the_one_on_the_search_grid(self, unit_space):
        for m in (jump_map(), flip_map(), halving_map(), constant_map((-2.0, 3.0), 0.5)):
            psi, estimate = discontinuity_measure(unit_space, m)
            r = verify_approx_fixed_point(unit_space, m, t_grid=(0.5, 1.0))
            assert estimate is None and psi == r.fixpoint.psi == discontinuity_exact(unit_space, m)
