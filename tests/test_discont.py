"""Tests for piecewise maps, limit sets, hulls, and the discontinuity measure."""

import dataclasses
import itertools
import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkit import (Ddf, InvalidArgumentError, LimitSet, Piece, PiecewiseMap1D, PnSpace,
                   SampledMap, compare_discontinuity_routes, constant_map,
                   convex_hull, discontinuity_estimate, discontinuity_exact,
                   left_limit_of_infimum, limit_set, make_epsilon, prob_norm,
                   sibley_distance, verify_approx_fixed_point)
from pnkit.cli import ScenarioFamily, generate_scenarios
from pnkit import discont
from pnkit.discont import (DEFAULT_T_GRID, MAX_GRID_NODES, hull_distances, map_eval_vec,
                           nearest_to_hull)

from helpers import (convex_hull_ref, dyadic_ddf, estimator_levels_oracle,
                     hull_distances_pairwise, piecewise_limit_values_ref, planar_hull_oracle,
                     sampled_eval_oracle, sampled_limit_values_ref, sup_abs_ref)


def jump_map() -> PiecewiseMap1D:
    """0.6 on [0, 0.5), 0.2 on [0.5, 1]."""
    return PiecewiseMap1D(domain=(0.0, 1.0),
                          pieces=(Piece(0.0, 0.5, "left", 0.0, 0.6),
                                  Piece(0.5, 1.0, "left", 0.0, 0.2)))


def three_piece_map() -> PiecewiseMap1D:
    """Constant pieces 0.5 / 0.6 / 0.3: gaps 0.1 and 0.3 at the breaks."""
    return PiecewiseMap1D(domain=(0.0, 1.0),
                          pieces=(Piece(0.0, 0.3, "left", 0.0, 0.5),
                                  Piece(0.3, 0.7, "left", 0.0, 0.6),
                                  Piece(0.7, 1.0, "left", 0.0, 0.3)))


class TestPiecewiseValidation:
    def test_pieces_must_meet_exactly(self):
        with pytest.raises(InvalidArgumentError):
            PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.0, 0.4, "left", 0.0, 0.5),
                                   Piece(0.5, 1.0, "left", 0.0, 0.5)))

    def test_breakpoint_needs_exactly_one_owner(self):
        both = (Piece(0.0, 0.5, "right", 0.0, 0.5), Piece(0.5, 1.0, "left", 0.0, 0.5))
        neither = (Piece(0.0, 0.5, "left", 0.0, 0.5), Piece(0.5, 1.0, "right", 0.0, 0.5))
        for pieces in (both, neither):
            with pytest.raises(InvalidArgumentError):
                PiecewiseMap1D(domain=(0.0, 1.0), pieces=pieces)

    def test_pieces_must_cover_domain(self):
        with pytest.raises(InvalidArgumentError):
            PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.1, 1.0, "left", 0.0, 0.5),))

    def test_image_must_stay_in_domain(self):
        with pytest.raises(InvalidArgumentError):
            PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.0, 1.0, "left", 2.0, 0.0),))

    def test_zero_width_piece_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Piece(0.5, 0.5, "left", 0.0, 0.5)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PiecewiseMap1D(domain=(0.5, 0.5), pieces=(Piece(0.5, 0.5, "left", 0.0, 0.5),))

    def test_json_roundtrip(self):
        m = jump_map()
        back = PiecewiseMap1D.from_json_obj(m.to_json_obj())
        assert back == m

    def test_json_diagnostics_carry_piece_index(self):
        obj = {"domain": [0.0, 1.0], "pieces": [{"from": 0.0, "to": 1.0}]}
        with pytest.raises(InvalidArgumentError, match="pieces\\[0\\]"):
            PiecewiseMap1D.from_json_obj(obj)


class TestEvaluation:
    def test_breakpoint_ownership(self):
        m = jump_map()
        assert m.eval(0.5) == 0.2  # owned by the right piece
        left_owned = PiecewiseMap1D(
            domain=(0.0, 1.0),
            pieces=(Piece(0.0, 0.5, "right", 0.0, 0.6), Piece(0.5, 1.0, "right", 0.0, 0.2)))
        assert left_owned.eval(0.5) == 0.6

    def test_domain_endpoints_always_covered(self):
        m = jump_map()
        assert m.eval(0.0) == 0.6
        assert m.eval(1.0) == 0.2

    def test_eval_outside_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_map().eval(1.5)

    def test_eval_many_matches_scalar_eval(self):
        m = three_piece_map()
        xs = np.concatenate([np.linspace(0.0, 1.0, 101), np.array([0.3, 0.7])])
        vm = m.eval_many(xs)
        assert all(vm[i] == m.eval(float(x)) for i, x in enumerate(xs))

    def test_one_sided_limits(self):
        # Rows are (left, right) limits; a merged or missing limit holds a
        # copy of the other one.
        got = jump_map().limit_values([[0.5], [0.25], [0.0], [1.0]])
        assert got.shape == (4, 2, 1)
        assert got[:, :, 0].tolist() == [[0.6, 0.2], [0.6, 0.6], [0.6, 0.6], [0.2, 0.2]]

    def test_limit_values_reject_points_outside_the_domain(self):
        with pytest.raises(InvalidArgumentError, match="outside the domain"):
            jump_map().limit_values([[0.5], [-0.25]])

    def test_sup_abs_is_exact_on_pieces(self):
        m = PiecewiseMap1D(domain=(0.0, 1.0),
                           pieces=(Piece(0.0, 0.5, "left", -1.0, 0.5),
                                   Piece(0.5, 1.0, "left", 1.0, -0.5)))
        assert m.sup_abs_on_interval(np.array(0.0), np.array(1.0)) == 0.5
        assert m.sup_abs_on_interval(0.4, 0.6).shape == ()
        assert m.sup_abs_on_interval(0.4, 0.6) == pytest.approx(0.1, abs=1e-15)

    def test_sup_abs_broadcasts_over_intervals(self):
        # Rows a = -1 (clipped to 0), the jump at 0.5 and 0.6; columns b.
        # A closed interval that ends on the jump holds both one-sided values.
        got = jump_map().sup_abs_on_interval(np.array([[-1.0], [0.5], [0.6]]), np.array([0.6, 0.9]))
        assert got.tolist() == [[0.6, 0.6], [0.6, 0.6], [0.2, 0.2]]
        assert jump_map().sup_abs_on_interval(0.5, 0.5) == 0.6

    def test_sup_abs_equals_the_piece_loop(self):
        # Interval ends drawn on breakpoints, domain ends and beyond them too.
        rng = np.random.default_rng(11)
        for kind in ("constant", "affine"):
            for m in generate_scenarios(ScenarioFamily(count=20, pieces=(1, 6), kind=kind), 5):
                ends = np.concatenate([rng.uniform(-0.2, 1.2, 40), m.breakpoints, [0.0, 1.0]])
                a, b = np.sort(rng.choice(ends, (2, 60)), axis=0)
                a, b = a[(b >= 0.0) & (a <= 1.0)], b[(b >= 0.0) & (a <= 1.0)]
                assert m.sup_abs_on_interval(a, b).tolist() == \
                    [sup_abs_ref(m, float(x), float(y)) for x, y in zip(a, b)]

    def test_sup_abs_rejects_an_interval_outside_the_domain(self):
        with pytest.raises(InvalidArgumentError, match="interval does not meet the domain"):
            jump_map().sup_abs_on_interval(np.array([0.0, 2.0]), np.array([1.0, 3.0]))

    def test_piece_fixed_points(self):
        flip = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", -1.0, 1.0),))
        assert flip.piece_fixed_points() == (0.5,)
        assert constant_map((0.0, 1.0), 0.3).piece_fixed_points() == (0.3,)
        # Constant value falls outside its own piece: no fixed point there.
        assert jump_map().piece_fixed_points() == ()


class TestLimitSet:
    def test_continuous_point_is_singleton(self):
        flip = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", -1.0, 1.0),))
        ls = limit_set(flip, 0.5)
        assert ls.values == (0.5,)
        assert ls.attained == 0.5

    def test_jump_point_collects_both_sides(self):
        ls = limit_set(jump_map(), 0.5)
        assert ls.values == (0.6, 0.2)
        assert ls.attained == 0.2

    def test_interior_of_constant_piece(self):
        ls = limit_set(jump_map(), 0.25)
        assert ls.values == (0.6,)

    def test_domain_endpoints_are_one_sided(self):
        m = jump_map()
        assert limit_set(m, 0.0).values == (0.6,)
        assert limit_set(m, 1.0).values == (0.2,)

    def test_empty_limit_set_rejected(self):
        with pytest.raises(InvalidArgumentError, match="limit set must be nonempty"):
            LimitSet(values=(), attained=0.5)

    def test_outside_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            limit_set(jump_map(), 1.5)


class TestConvexHull:
    def test_interval_of_scalars(self):
        assert convex_hull([0.6, 0.2]) == (0.2, 0.6)
        assert convex_hull([0.5]) == (0.5, 0.5)
        assert convex_hull(limit_set(jump_map(), 0.5)) == (0.2, 0.6)

    def test_planar_hull_drops_interior_points(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2)]
        hull = convex_hull(pts)
        assert set(hull) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_planar_hull_contains_all_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-1.0, 1.0, (10, 2))
            hull = np.array(convex_hull([tuple(x) for x in pts]))
            dist = hull_distances(pts, np.broadcast_to(hull, (len(pts),) + hull.shape))
            assert np.all(dist == 0.0)

    def test_an_array_of_1_vectors_reads_as_its_list_form(self):
        rng = np.random.default_rng(7)
        cases = ([np.array([[-0.0], [0.0]]), np.array([[0.0], [-0.0]]),
                  jump_map().limit_values([[0.5], [0.25]])[0]]      # a slot-major row
                 + [rng.uniform(-1.0, 1.0, (k, 1)) for k in range(1, 9)])
        for pts in cases:
            got, want = convex_hull(pts), convex_hull(list(pts))
            assert got == want
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
        # Python's min and max keep the first of equal values; numpy's need not.
        assert [math.copysign(1.0, v) for v in convex_hull(cases[0])] == [-1.0, -1.0]
        assert [math.copysign(1.0, v) for v in convex_hull(cases[1])] == [1.0, 1.0]

    def test_three_dimensional_points_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dimension 1 and 2 only"):
            convex_hull([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            convex_hull([])


# Planar points on a grid of step 1/16: every cross product is exact, so
# a point of the grid is either in a hull or at least 1/256 / 3 away.
grid_coord = st.integers(-16, 16).map(lambda k: k / 16)
grid_point = st.tuples(grid_coord, grid_coord)
free_point = st.tuples(*(st.floats(-1.5, 1.5, allow_nan=False),) * 2)


def hull_distance(p, pts) -> float:
    return float(hull_distances([p], [pts])[0])


class TestPlanarHullChain:
    @settings(max_examples=200, deadline=None)
    @given(pts=st.one_of(st.lists(grid_point, min_size=1, max_size=10),
                         st.lists(free_point, min_size=1, max_size=10)))
    def test_matches_the_numpy_chain(self, pts):
        assert convex_hull(pts) == convex_hull_ref(pts)

    def test_matches_the_numpy_chain_near_a_line(self):
        # Points a + t (b - a) at random t: their cross products are
        # rounding errors of either sign.
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(-1.0, 1.0, (2, 2))
            pts = a + rng.uniform(-2.0, 2.0, (int(rng.integers(3, 10)), 1)) * (b - a)
            assert convex_hull(pts) == convex_hull_ref(pts)


class TestHullDistances:
    def check_against_oracle(self, p, pts):
        contained, dist, err = planar_hull_oracle(p, pts)
        got = hull_distance(p, pts)
        if contained:
            assert got == 0.0
        elif got == 0.0:
            # Counted as inside by a cross product that rounded to 0.
            assert dist <= 1e-15 + err
        else:
            assert dist - err - 1e-15 <= got <= dist + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(grid_point, free_point), pts=st.lists(grid_point, min_size=1, max_size=8))
    def test_matches_oracle(self, p, pts):
        self.check_against_oracle(p, pts)

    @settings(max_examples=100, deadline=None)
    @given(p=st.one_of(grid_point, free_point), a=grid_point, b=grid_point,
           ts=st.lists(st.integers(-4, 4), min_size=1, max_size=6), copies=st.integers(1, 3))
    def test_collinear_points_and_duplicates(self, p, a, b, ts, copies):
        # Points a + t (b - a) for small integers t are exactly collinear.
        pts = [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])) for t in ts] * copies
        self.check_against_oracle(p, pts)

    @settings(max_examples=100, deadline=None)
    @given(tri=st.lists(grid_point, min_size=3, max_size=3, unique=True),
           t=st.integers(0, 16).map(lambda k: k / 16), offset=st.floats(-1e-12, 1e-12))
    def test_points_within_a_slack_of_an_edge(self, tri, t, offset):
        (ax, ay), (bx, by), (cx, cy) = tri
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if area == 0.0:
            return
        # The unit normal of edge ab pointing into the triangle.
        length = math.hypot(bx - ax, by - ay)
        nx, ny = (-(by - ay) / length, (bx - ax) / length)
        if area < 0.0:
            nx, ny = -nx, -ny
        p = (ax + t * (bx - ax) + offset * nx, ay + t * (by - ay) + offset * ny)
        got = hull_distance(p, tri)
        contained, _, _ = planar_hull_oracle(p, tri)
        if contained:
            assert got == 0.0
        # Rounding p's coordinates moves it by far less than 1e-15.
        assert got <= abs(offset) + 1e-15

    def test_exact_where_the_nearest_vertex_is_not(self):
        # The segment from (0, 0) to (1, 0) is 0.25 from (0.5, 0.25); its
        # vertices are farther.
        assert hull_distance((0.5, 0.25), [(0.0, 0.0), (1.0, 0.0)]) == 0.25
        assert hull_distance((0.5, -0.25), [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]) == 0.25
        assert hull_distance((3.0, 4.0), [(0.0, 0.0)]) == 5.0
        assert hull_distance((0.5, 0.0), [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)]) == 0.0

    def test_one_dimensional_interval(self):
        got = hull_distances([[0.1], [0.5], [0.9]], [[[0.2], [0.6]]] * 3)
        assert got.tolist() == [max(0.0, 0.2 - 0.1), 0.0, 0.9 - 0.6]


def same_bits(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@st.composite
def hull_rows(draw, slots=st.integers(1, 8), max_rows=12):
    """n points and n rows of k grid points each, k shared by the rows."""
    k, n = draw(slots), draw(st.integers(1, max_rows))
    P = draw(st.lists(st.one_of(grid_point, free_point), min_size=n, max_size=n))
    Q = draw(st.lists(st.lists(grid_point, min_size=k, max_size=k), min_size=n, max_size=n))
    return np.array(P, dtype=float), np.array(Q, dtype=float).reshape(n, k, 2)


@st.composite
def collinear_rows(draw):
    """Rows of points a + t (b - a) for small integers t, so each row is
    exactly collinear, with repeated t giving duplicated slots."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    P = draw(st.lists(st.one_of(grid_point, free_point), min_size=n, max_size=n))
    Q = []
    for _ in range(n):
        (ax, ay), (bx, by) = draw(grid_point), draw(grid_point)
        ts = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        Q.append([(ax + t * (bx - ax), ay + t * (by - ay)) for t in ts])
    return np.array(P, dtype=float), np.array(Q, dtype=float).reshape(n, k, 2)


@st.composite
def near_edge_rows(draw):
    """Rows of a grid triangle (vertices repeated up to k slots) and a
    point within 1e-12 of one of its edges, inside or out."""
    k, n = draw(st.integers(3, 8)), draw(st.integers(1, 8))
    P, Q = [], []
    for _ in range(n):
        tri = draw(st.lists(grid_point, min_size=3, max_size=3, unique=True))
        (ax, ay), (bx, by) = tri[:2]
        t, offset = draw(st.integers(0, 16)) / 16, draw(st.floats(-1e-12, 1e-12))
        length = math.hypot(bx - ax, by - ay)
        P.append((ax + t * (bx - ax) - offset * (by - ay) / length,
                  ay + t * (by - ay) + offset * (bx - ax) / length))
        Q.append([tri[i % 3] for i in range(k)])
    return np.array(P, dtype=float), np.array(Q, dtype=float)


class TestNearestToHull:
    """`nearest_to_hull` prunes rows before it measures them; it must
    still return argmin over the full `hull_distances`, bit for bit, and
    the one-pass kernel must match the pairwise loop bit for bit."""

    def check(self, P, Q, block_rows=3):
        with patch.object(discont, "HULL_BLOCK_ROWS", block_rows):
            dist = hull_distances(P, Q)
            got = nearest_to_hull(P, Q)
        assert same_bits(dist, hull_distances_pairwise(P, Q))
        i = int(np.argmin(dist))
        assert got[0] == i and same_bits(got[1], dist[i])
        return got

    @settings(max_examples=100, deadline=None)
    @given(rows=hull_rows())
    def test_matches_argmin_of_all_rows(self, rows):
        self.check(*rows)

    @settings(max_examples=50, deadline=None)
    @given(rows=hull_rows(slots=st.integers(1, 2)))
    def test_one_or_two_slots(self, rows):
        # No fan triangle, and for k = 1 no segment either.
        self.check(*rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=collinear_rows())
    def test_collinear_points_and_duplicated_slots(self, rows):
        self.check(*rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=near_edge_rows())
    def test_points_within_a_slack_of_an_edge(self, rows):
        self.check(*rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.one_of(hull_rows(), collinear_rows(), near_edge_rows()))
    def test_slot_major_input_reads_alike(self, rows):
        # `limit_values` returns Fortran-ordered rows; the strategies draw C order.
        P, Q = rows
        F = np.asfortranarray(Q)
        assert same_bits(hull_distances(P, F), hull_distances(P, Q))
        (i, d), (j, e) = nearest_to_hull(P, F), nearest_to_hull(P, Q)
        assert i == j and same_bits(d, e)

    @settings(max_examples=50, deadline=None)
    @given(rows=hull_rows())
    def test_exact_ties_go_to_the_first_row(self, rows):
        P, Q = rows
        # Every distance appears twice, the second time after the first.
        i, _ = self.check(np.concatenate([P, P[::-1]]), np.concatenate([Q, Q[::-1]]))
        assert i < len(P)

    @pytest.mark.parametrize("p, pts", [
        # A needle of doubled area 4e-12 with no short side: the slack on
        # its sides would take in a point 0.2 past its tip.
        ((1.2, 0.0), [(0.0, 0.0), (1.0, 0.0), (0.5, 4e-12)]),
        # A segment of length 1e-13: the slack on its cross product would
        # take in a point 0.005 off it.
        ((5e-14, 0.005), [(0.0, 0.0), (1e-13, 0.0), (0.0, 0.0)]),
    ])
    def test_rows_counted_inside_by_the_slack_are_measured(self, p, pts):
        # Both points lie outside the bounding box of their row, so the
        # slack cannot count them inside: they read their true distances,
        # and the second row's point, one of its own, wins.
        true = {(1.2, 0.0): 0.2, (5e-14, 0.005): 0.005}[p]
        contained, dist, err = planar_hull_oracle(p, pts)
        assert not contained and dist - err - 1e-15 <= true <= dist + 1e-15
        P, Q = [p, (0.5, 0.5)], [pts, [(0.5, 0.5)] * 3]
        got = hull_distances(P, Q)
        assert got[0] == pytest.approx(true, rel=1e-12) and got[1] == 0.0
        assert self.check(np.array(P), np.array(Q)) == (1, 0.0)

    def test_needle_slack_inside_the_bounding_box(self):
        # The needle above with a fourth point (2, 5): the box now holds
        # (1.2, 0), whose true distance is 1 / sqrt(26) from the edge
        # (1, 0)-(2, 5); the needle's sides must not count it inside.
        p, pts = (1.2, 0.0), [(0.0, 0.0), (1.0, 0.0), (0.5, 4e-12), (2.0, 5.0)]
        contained, dist, err = planar_hull_oracle(p, pts)
        assert not contained and dist - err - 1e-15 <= 1.0 / math.sqrt(26.0) <= dist + 1e-15
        assert dist - err - 1e-15 <= hull_distance(p, pts) <= dist + 1e-15

    def test_identity_map_measures_every_row_in_blocks(self, monkeypatch):
        # Every node of the identity lies in the bounding box of its
        # neighbours' images, so no row can be pruned.
        m = SampledMap.from_function(lambda p: p, ((0.0, 1.0), (0.0, 1.0)), 1.0 / 40)
        P = m.candidates(m.resolution)
        Q = m.limit_values(P)
        blocks = []
        kernel = discont._planar_hull_block

        def spy(px, *rest):
            blocks.append(len(px))
            return kernel(px, *rest)

        monkeypatch.setattr(discont, "_planar_hull_block", spy)
        # The corner node lies outside its neighbours' hull; the next node
        # on the edge lies on a segment between two of them.
        assert self.check(P, Q, block_rows=discont.HULL_BLOCK_ROWS) == (1, 0.0)
        # hull_distances, then nearest_to_hull: both measure all 41 x 41 rows.
        n = len(P)
        assert blocks == 2 * ([discont.HULL_BLOCK_ROWS] * (n // discont.HULL_BLOCK_ROWS)
                              + [n % discont.HULL_BLOCK_ROWS])

    def test_kernel_across_a_block_boundary_matches_the_oracle(self):
        n = discont.HULL_BLOCK_ROWS + 8
        rng = np.random.default_rng(8)
        Q = rng.integers(-16, 17, (n, 8, 2)) / 16
        P = np.where(rng.random((n, 1)) < 0.5, rng.integers(-16, 17, (n, 2)) / 16,
                     rng.uniform(-1.5, 1.5, (n, 2)))
        dist = hull_distances(P, Q)
        assert same_bits(dist, hull_distances_pairwise(P, Q))
        for r in range(n - 16, n):
            contained, exact, err = planar_hull_oracle(P[r], Q[r])
            if contained:
                assert dist[r] == 0.0
            else:
                assert exact - err - 1e-15 <= dist[r] <= exact + 1e-15


class TestSampledMap:
    def test_snap_evaluation(self):
        m = SampledMap.from_function(lambda p: (p[0] * 0.5,), ((0.0, 1.0),), 1.0 / 16)
        assert map_eval_vec(m, (0.5,)) == (0.25,)
        assert map_eval_vec(m, (0.51,)) == (0.25,)  # snaps to the nearest node

    def test_neighbor_images_exclude_center(self):
        m = SampledMap.from_function(lambda p: (p[0],), ((0.0, 1.0),), 0.25)
        imgs = m.neighbor_images((0.5,))
        assert set(imgs) == {(0.25,), (0.75,)}

    def test_limit_values_at_lattice_corners_and_ends(self):
        # Image of node (i, j) is (i, j) / 8, so a slot names its node.
        m = SampledMap.from_function(lambda p: (p[0] / 2, p[1] / 2),
                                     ((0.0, 1.0), (0.0, 1.0)), 0.25)
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 0.5)]
        limits = m.limit_values(corners)
        assert limits.shape == (6, 8, 2)
        for p, row in zip(corners, limits):
            assert set(map(tuple, row.tolist())) == set(m.neighbor_images(p))
        # A slot past the edge mirrors onto the node across it.
        assert limits[0].tolist() == [[0.125, 0.125], [0.125, 0.0], [0.125, 0.125],
                                      [0.0, 0.125], [0.0, 0.125],
                                      [0.125, 0.125], [0.125, 0.0], [0.125, 0.125]]
        line = SampledMap.from_function(lambda p: (p[0] / 2,), ((0.0, 1.0),), 0.25)
        assert line.limit_values([(0.0,), (1.0,)])[:, :, 0].tolist() == [[0.125, 0.125],
                                                                       [0.375, 0.375]]

    def test_requires_full_lattice(self):
        with pytest.raises(InvalidArgumentError):
            SampledMap(box=((0.0, 1.0),), resolution=0.5, images=((0.0,), (0.5,)))

    def test_images_must_stay_in_box(self):
        with pytest.raises(InvalidArgumentError):
            SampledMap(box=((0.0, 1.0),), resolution=0.5,
                       images=((0.0,), (2.0,), (1.0,)))

    def test_non_finite_points_rejected(self):
        m = SampledMap.from_function(lambda p: p, ((0.0, 1.0),), 0.25)
        with pytest.raises(InvalidArgumentError, match="point coordinates must be finite"):
            m.eval_points([[math.nan]])

    def test_two_dimensional_lattice(self):
        m = SampledMap.from_function(lambda p: (p[0] * 0.5, p[1] * 0.5),
                                     ((0.0, 1.0), (0.0, 1.0)), 0.25)
        assert m.shape == (5, 5)
        assert map_eval_vec(m, (1.0, 1.0)) == (0.5, 0.5)


class TestExactMeasure:
    def test_single_breakpoint_gap(self, unit_space):
        psi = discontinuity_exact(unit_space, jump_map())
        assert len(psi.jumps) == 1
        loc, mass = psi.jumps[0]
        assert loc == pytest.approx(0.4, abs=1e-12)
        assert mass == 1.0

    def test_continuous_map_is_maximal(self, unit_space):
        flip = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", -1.0, 1.0),))
        assert discontinuity_exact(unit_space, flip).jumps == make_epsilon(0.0).jumps

    def test_constant_map_is_maximal(self, unit_space):
        assert discontinuity_exact(unit_space, constant_map((0.0, 1.0), 0.7)).jumps \
            == make_epsilon(0.0).jumps

    def test_largest_gap_governs(self, unit_space):
        psi = discontinuity_exact(unit_space, three_piece_map())
        assert psi.jumps[0][0] == pytest.approx(0.3, abs=1e-12)

    def test_generator_scaling_scales_the_measure(self):
        m = jump_map()
        base = discontinuity_exact(PnSpace(dimension=1), m).jumps[0][0]
        for c in (0.5, 2.0):
            sp = PnSpace(dimension=1, generator=make_epsilon(c))
            assert discontinuity_exact(sp, m).jumps[0][0] == c * base

    def test_matches_profile_family_infimum(self):
        # Independent route: pointwise infimum of the norm profiles of
        # f(b) minus each limit value, over all breakpoints.
        gen = Ddf(((0.5, 0.25), (1.0, 0.5), (2.0, 0.25)))
        sp = PnSpace(dimension=1, generator=gen)
        m = three_piece_map()
        family = []
        for b in m.breakpoints:
            fb = m.eval(b)
            for q in limit_set(m, b).values:
                if fb != q:
                    family.append(prob_norm(sp, (fb - q,)))
        expected = left_limit_of_infimum(family)
        got = discontinuity_exact(sp, m)
        assert got.jumps == expected.jumps

    def test_dominated_by_any_single_gap_profile(self, unit_space):
        from pnkit import ddf_leq
        m = three_piece_map()
        psi = discontinuity_exact(unit_space, m)
        for b in m.breakpoints:
            fb = m.eval(b)
            for q in limit_set(m, b).values:
                if fb != q:
                    assert ddf_leq(psi, prob_norm(unit_space, (fb - q,)))

    def test_requires_one_dimension(self):
        sp = PnSpace(dimension=2)
        with pytest.raises(InvalidArgumentError):
            discontinuity_exact(sp, jump_map())


class TestEstimator:
    def test_jump_map_matches_exact_route(self, unit_space):
        est = discontinuity_estimate(unit_space, jump_map())
        exact = discontinuity_exact(unit_space, jump_map())
        assert est.ddf.jumps == exact.jumps  # piece values are shared floats
        assert sibley_distance(est.ddf, exact) <= 2.0 / 1024

    def test_constant_map_maximal_at_every_level(self, unit_space):
        est = discontinuity_estimate(unit_space, constant_map((0.0, 1.0), 0.4))
        assert est.ddf.jumps == make_epsilon(0.0).jumps
        assert all(lv.largest_pair_gap == 0.0 for lv in est.levels)

    def test_identity_map_shrinks_monotonically(self, unit_space):
        ident = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", 1.0, 0.0),))
        est = discontinuity_estimate(unit_space, ident)
        gaps = [lv.largest_pair_gap for lv in est.levels if lv.largest_pair_gap is not None]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 4.0 / 1024  # within a few grid cells of the true 0

    def test_per_t_values_monotone_in_refinement(self, unit_space):
        est = discontinuity_estimate(unit_space, jump_map())
        for prev, final in est.to_json_obj(DEFAULT_T_GRID)["brackets"]:
            assert prev <= final + 1e-12

    def test_too_small_delta_skips_with_warning(self, unit_space):
        m = jump_map()
        with pytest.warns(RuntimeWarning):
            est = discontinuity_estimate(unit_space, m,
                                         delta_schedule=(0.1, 1e-5),
                                         grid_resolutions=(1.0 / 64,))
        assert any(lv.largest_pair_gap is None for lv in est.levels)

    def test_skipped_level_warning_names_the_caller(self, unit_space):
        m = SampledMap.from_function(lambda p: (0.6,) if p[0] < 0.5 else (0.2,),
                                     ((0.0, 1.0),), 1.0 / 64)
        for call in (discontinuity_estimate, verify_approx_fixed_point):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                call(unit_space, m, delta_schedule=(0.1, 1e-5), grid_resolutions=(1.0 / 64,))
            assert [w.filename for w in rec] == [__file__], call.__name__

    def test_all_levels_skipped_is_an_error(self, unit_space):
        with pytest.raises(InvalidArgumentError), pytest.warns(RuntimeWarning):
            discontinuity_estimate(unit_space, jump_map(),
                                   delta_schedule=(1e-5,),
                                   grid_resolutions=(1.0 / 64,))

    def test_schedule_validation(self, unit_space):
        with pytest.raises(InvalidArgumentError):
            discontinuity_estimate(unit_space, jump_map(), delta_schedule=())
        with pytest.raises(InvalidArgumentError):
            discontinuity_estimate(unit_space, jump_map(), delta_schedule=(0.1, 0.2))
        est = discontinuity_estimate(unit_space, jump_map())
        with pytest.raises(InvalidArgumentError):
            est.to_json_obj((0.5, 0.25))

    def test_map_and_space_dimensions_must_agree(self):
        with pytest.raises(InvalidArgumentError, match="map dimension 1 does not match"):
            discontinuity_estimate(PnSpace(dimension=2), jump_map())

    def test_sampled_map_route(self, unit_space):
        m = SampledMap.from_function(
            lambda p: (0.6,) if p[0] < 0.5 else (0.2,), ((0.0, 1.0),), 1.0 / 512)
        est = discontinuity_estimate(unit_space, m)
        assert est.ddf.jumps[0][0] == pytest.approx(0.4, abs=1e-12)

    def test_two_dimensional_sampled_map(self):
        sp = PnSpace(dimension=2)
        m = SampledMap.from_function(
            lambda p: (0.75, 0.75) if p[0] < 0.5 else (0.25, 0.25),
            ((0.0, 1.0), (0.0, 1.0)), 1.0 / 16)
        est = discontinuity_estimate(sp, m, delta_schedule=(0.25, 0.125))
        gap = est.ddf.jumps[0][0]
        assert gap == pytest.approx(math.hypot(0.5, 0.5), abs=1e-12)


class TestRouteComparison:
    def test_jump_map_agrees(self, unit_space):
        cmp = compare_discontinuity_routes(unit_space, jump_map())
        assert cmp.agree
        assert cmp.distance <= cmp.bound

    def test_continuous_map_both_maximal(self, unit_space):
        # A slope-1 map needs the delta schedule to descend to one grid
        # cell before the finite-delta pair gaps drop below the bound.
        flip = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 1.0, "left", -1.0, 1.0),))
        deep = tuple(0.2 * 2.0 ** -k for k in range(8))
        cmp = compare_discontinuity_routes(unit_space, flip, delta_schedule=deep)
        assert cmp.exact.jumps == make_epsilon(0.0).jumps
        assert cmp.agree
        shallow = compare_discontinuity_routes(unit_space, flip)
        assert shallow.distance <= 4.0 / 1024  # gap of a few cells at default depth

    def test_three_piece_map_agrees(self, unit_space):
        cmp = compare_discontinuity_routes(unit_space, three_piece_map())
        assert cmp.agree
        assert cmp.exact.jumps[0][0] == pytest.approx(0.3, abs=1e-12)


def _random_piecewise(rng: np.random.Generator, kind: str) -> PiecewiseMap1D:
    family = ScenarioFamily(count=1, pieces=(1, 5), kind=kind)
    return generate_scenarios(family, int(rng.integers(2 ** 31)))[0]


def _random_sampled(rng: np.random.Generator, dim: int, box: tuple, resolution: float):
    n = int(round((box[1] - box[0]) / resolution)) + 1
    images = rng.uniform(box[0], box[1], (n ** dim, dim))
    return SampledMap(box=(box,) * dim, resolution=resolution, images=images)


def _owned_by(m: PiecewiseMap1D, closed: str) -> PiecewiseMap1D:
    """m with every piece closed at `closed`, so that every interior
    breakpoint has the one owner that flag names."""
    return PiecewiseMap1D(m.domain, tuple(dataclasses.replace(p, closed=closed)
                                          for p in m.pieces))


class TestSlotMajorLayout:
    """`limit_values` returns the values of the row-major gather, bit for
    bit, in slot-major (Fortran) order; the hull search reads that array
    and a C-ordered copy of it alike."""

    def check(self, P, Q, ref):
        assert Q.shape == ref.shape and same_bits(Q, ref)
        assert Q.flags.f_contiguous
        C = np.ascontiguousarray(Q)
        assert same_bits(hull_distances(P, C), hull_distances(P, Q))
        i, d = nearest_to_hull(P, Q)
        j, e = nearest_to_hull(P, C)
        assert i == j and same_bits(d, e)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["constant", "affine"]),
           closed=st.sampled_from(["left", "right"]))
    def test_piecewise_limit_values(self, seed, kind, closed):
        rng = np.random.default_rng(seed)
        m = _owned_by(_random_piecewise(rng, kind), closed)
        P = np.concatenate([rng.uniform(0.0, 1.0, 20), m.breakpoints, m.domain])[:, None]
        self.check(P, m.limit_values(P), piecewise_limit_values_ref(m, P))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           box=st.sampled_from([(0.0, 1.0), (-0.5, 1.5)]), nodes=st.integers(2, 9))
    def test_sampled_limit_values(self, seed, dim, box, nodes):
        rng = np.random.default_rng(seed)
        a, b = box
        m = _random_sampled(rng, dim, box, (b - a) / (nodes - 1))
        assert m.shape == (nodes,) * dim
        ticks = np.linspace(a, b, nodes)
        corners = list(itertools.product((a, b), repeat=dim))
        # Edge nodes: one coordinate at a box end, the others anywhere.
        edges = [tuple(rng.choice([a, b]) if k == axis else rng.choice(ticks)
                       for k in range(dim)) for axis in range(dim) for _ in range(4)]
        P = np.array(corners + edges + list(rng.uniform(a - 0.5, b + 0.5, (12, dim))))
        self.check(P, m.limit_values(P), sampled_limit_values_ref(m, P))


class TestMapInterface:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["constant", "affine"]))
    def test_piecewise_eval_points_matches_eval(self, seed, kind):
        rng = np.random.default_rng(seed)
        m = _random_piecewise(rng, kind)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 20), m.breakpoints, m.domain])
        got = m.eval_points(xs[:, None])
        assert got.shape == (len(xs), 1)
        assert got[:, 0].tolist() == [m.eval(x) for x in xs]
        for bad in (-1e-9, 1.0 + 1e-9, math.nan):
            with pytest.raises(InvalidArgumentError, match="outside the domain"):
                m.eval(bad)
            with pytest.raises(InvalidArgumentError, match="outside the domain"):
                m.eval_points(np.append(xs, bad)[:, None])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           box=st.sampled_from([(0.0, 1.0), (-0.5, 1.5)]),
           resolution=st.sampled_from([0.25, 0.125, 0.1, 1.0 / 3.0]))
    def test_sampled_eval_points_matches_round_snap(self, seed, dim, box, resolution):
        rng = np.random.default_rng(seed)
        m = _random_sampled(rng, dim, box, resolution)
        a, b = box
        n = m.shape[0]
        halves = [a + (k + 0.5) * resolution for k in range(n - 1)]
        nodes = list(np.linspace(a, b, n))
        coords = halves + nodes + list(rng.uniform(a - 0.5, b + 0.5, 12)) + [a - 3.0, b + 3.0]
        points = np.array([[float(rng.choice(coords)) for _ in range(dim)] for _ in range(60)])
        got = m.eval_points(points)
        assert got.shape == (60, dim)
        assert [tuple(r) for r in got.tolist()] == [sampled_eval_oracle(m, p) for p in points]

    def test_half_node_rounds_to_even(self):
        m = SampledMap.from_function(lambda p: p, ((0.0, 1.0),), 0.25)
        assert m.eval_points([[0.125], [0.375], [0.625], [0.875]])[:, 0].tolist() == \
            [0.0, 0.5, 0.5, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(
               ["constant", "affine", "sampled_1d", "sampled_2d"]),
           single_step=st.booleans())
    def test_estimator_levels_match_per_kind_oracle(self, seed, kind, single_step):
        rng = np.random.default_rng(seed)
        dim = 2 if kind == "sampled_2d" else 1
        sp = PnSpace(dimension=dim,
                     generator=dyadic_ddf(rng, max_jumps=1 if single_step else 4, full_mass=True))
        if kind in ("constant", "affine"):
            m = _random_piecewise(rng, kind)
        else:
            m = _random_sampled(rng, dim, (0.0, 1.0), 0.125 if dim == 2 else 1.0 / 64)
        deltas = (0.6, 0.4, 0.2, 0.1, 0.05)
        grids = (1.0 / 32, 1.0 / 100)
        want = estimator_levels_oracle(sp, m, deltas, grids)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if all(gap is None for _, _, gap in want):
                with pytest.raises(InvalidArgumentError):
                    discontinuity_estimate(sp, m, delta_schedule=deltas, grid_resolutions=grids)
                return
            est = discontinuity_estimate(sp, m, delta_schedule=deltas, grid_resolutions=grids)
        assert [(lv.grid_h, lv.delta, lv.largest_pair_gap) for lv in est.levels] == want

    def test_limit_dedupe_at_merge_tolerance(self):
        for gap, count in ((0.9e-12, 1), (1.1e-12, 2)):
            m = PiecewiseMap1D(domain=(0.0, 1.0),
                               pieces=(Piece(0.0, 0.5, "left", 0.0, 0.3),
                                       Piece(0.5, 1.0, "left", 0.0, 0.3 + gap)))
            ls = limit_set(m, 0.5)
            assert ls.values == (0.3, 0.3 + gap)[:count]
            assert ls.attained == 0.3 + gap
            assert m.limit_values([[0.5]])[0, :, 0].tolist() == [0.3, ls.values[-1]]

    def test_lattice_count_does_not_overflow(self):
        with pytest.raises(InvalidArgumentError, match=str((10 ** 12 + 1) ** 2)):
            SampledMap(box=((0.0, 1.0), (0.0, 1.0)), resolution=1e-12, images=[(0.5, 0.5)])

    def test_grid_node_budget(self):
        m = jump_map()
        assert len(m.candidates(1.0 / (MAX_GRID_NODES - 1))) >= MAX_GRID_NODES
        with pytest.raises(InvalidArgumentError, match=f"needs {MAX_GRID_NODES + 1} nodes"):
            m.lattice_images(1.0 / MAX_GRID_NODES)
