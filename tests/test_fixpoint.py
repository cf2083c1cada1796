"""Tests for the dominance and hull-containment searches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkit import (InvalidArgumentError, Piece, PiecewiseMap1D,
                   SampledMap, TheoremViolationError, constant_map, ddf_leq,
                   discontinuity_exact, find_approx_fixed_point,
                   kakutani_search, make_epsilon, sibley_distance,
                   verify_approx_fixed_point)
from pnkit.ddf import Ddf
from pnkit.pn_space import PnSpace, vec_norm, vec_sub

from helpers import dominance_candidate_oracle, sampled_eval_oracle

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
        assert report.displacement == vec_norm(vec_sub(sampled_eval_oracle(m, want), want))

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

    def test_unreachable_bound_raises_after_refinement(self, unit_space):
        # The jump map's least displacement is about 0.1, so demanding
        # dominance over a tighter bound must fail loudly.
        with pytest.raises(TheoremViolationError) as exc:
            find_approx_fixed_point(unit_space, jump_map(), make_epsilon(0.05), H)
        assert exc.value.report is not None
        assert exc.value.report.refinements == 1

    def test_consistency_for_continuous_pieces(self, unit_space):
        # Whenever the measure is maximal the residual must be within a
        # Lipschitz-scaled grid cell of maximal as well.
        m = PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.0, 1.0, "left", 0.25, 0.5),))
        psi = discontinuity_exact(unit_space, m)
        fp = find_approx_fixed_point(unit_space, m, psi, H)
        assert sibley_distance(fp.residual_ddf, make_epsilon(0.0)) <= 0.25 * H + H + 1e-9

    def test_rejects_bad_resolution(self, unit_space):
        with pytest.raises(InvalidArgumentError):
            find_approx_fixed_point(unit_space, jump_map(), make_epsilon(0.0), 0.0)


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
        coarse = kakutani_search(SampledMap.from_function(f, ((0.0, 1.0),), 1.0 / 16),
                                 1.0 / 16, tol=1.0)
        fine = kakutani_search(SampledMap.from_function(f, ((0.0, 1.0),), 1.0 / 64),
                               1.0 / 64, tol=1.0)
        assert fine.distance <= coarse.distance

    def test_tolerance_validation(self):
        with pytest.raises(InvalidArgumentError):
            kakutani_search(jump_map(), H, tol=-0.1)


class TestEndToEnd:
    def test_jump_map_chain_holds_everywhere(self, unit_space):
        t_grid = tuple(k / 256 for k in range(1, 257))
        rep = verify_approx_fixed_point(unit_space, jump_map(), t_grid=t_grid)
        assert rep["psi_route"] == "exact"
        assert rep["fixpoint"]["dominance"] is True
        assert rep["chain"]["holds"] is True
        assert rep["chain"]["checked_t"] == 256
        assert rep["kakutani"]["point"] == [0.5]

    def test_continuous_map_everything_maximal(self, unit_space):
        rep = verify_approx_fixed_point(unit_space, flip_map())
        assert rep["psi"] == [[0.0, 1.0]]
        assert rep["fixpoint"]["residual"] == [[0.0, 1.0]]
        assert rep["chain"]["holds"] is True

    def test_sampled_map_uses_estimate_route(self, unit_space):
        m = SampledMap.from_function(
            lambda p: (0.6,) if p[0] < 0.5 else (0.2,), ((0.0, 1.0),), 1.0 / 512)
        rep = verify_approx_fixed_point(unit_space, m,
                                        t_grid=tuple(k / 128 for k in range(1, 129)))
        assert rep["psi_route"] == "estimate"
        assert rep["fixpoint"]["dominance"] is True

    def test_report_is_json_ready(self, unit_space):
        import json
        rep = verify_approx_fixed_point(unit_space, jump_map(),
                                        t_grid=tuple(k / 64 for k in range(1, 65)))
        text = json.dumps(rep, sort_keys=True)
        assert json.loads(text) == rep
