"""End-to-end contract: a valid self-map never fails the theorem check.

Exit code 3 means the existence guarantee failed, which a valid map must
never cause.  The strategies here draw 1-D piecewise self-maps of [0, 1]
with random breakpoints, either ownership, and constant, affine and
slope-1 pieces; generators with 1 to 3 jumps; and grid steps 1/16, 1/64
and 1/1024.  Every such map must verify with the inequality chain
holding, and one of them also goes through the CLI.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pnkit import Ddf, Piece, PiecewiseMap1D, PnSpace, verify_approx_fixed_point
from pnkit.cli import main

T_GRID = tuple(k / 64 for k in range(1, 65))
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def pieces(draw, lo: float, hi: float, closed: str) -> Piece:
    """A constant, affine or slope-1 piece on [lo, hi] with its image in [0, 1]."""
    kind = draw(st.sampled_from(["constant", "affine", "slope1"]))
    if kind == "constant":
        return Piece(lo, hi, closed, 0.0, draw(unit))
    if kind == "slope1":
        return Piece(lo, hi, closed, 1.0, draw(st.floats(min_value=-lo, max_value=1.0 - hi)))
    y0, y1 = draw(unit), draw(unit)
    slope = (y1 - y0) / (hi - lo)
    return Piece(lo, hi, closed, slope, y0 - slope * lo)


@st.composite
def self_maps(draw) -> PiecewiseMap1D:
    """Up to four pieces meeting at random breakpoints (sometimes on the
    1/16 grid) at least 0.01 apart; all pieces are closed on one side, so
    every interior breakpoint is owned by its left piece ("right") or by
    its right one ("left")."""
    edges = [0.0]
    for b in sorted(draw(st.lists(st.one_of(st.integers(1, 15).map(lambda k: k / 16),
                                            st.floats(min_value=0.01, max_value=0.99)),
                                  max_size=3))):
        if b - edges[-1] >= 0.01 and 1.0 - b >= 0.01:
            edges.append(b)
    edges.append(1.0)
    closed = draw(st.sampled_from(["left", "right"]))
    return PiecewiseMap1D(domain=(0.0, 1.0), pieces=tuple(
        draw(pieces(a, b, closed)) for a, b in zip(edges, edges[1:])))


@st.composite
def generators(draw) -> Ddf:
    locs = draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=3,
                         unique=True))
    weights = draw(st.lists(st.integers(1, 100), min_size=len(locs), max_size=len(locs)))
    return Ddf(tuple((loc, w / sum(weights)) for loc, w in zip(locs, weights)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=self_maps(), gen=generators(), h=st.sampled_from([1 / 16, 1 / 64, 1 / 1024]))
def test_valid_1d_maps_keep_the_chain(m, gen, h):
    r = verify_approx_fixed_point(PnSpace(dimension=1, generator=gen), m,
                                  grid_resolutions=(h,), t_grid=T_GRID)
    assert r.chain_holds, (r.worst_t, r.residual_minus_mid_min, r.mid_minus_psi_min)


def test_a_right_closed_map_exits_0(tmp_path):
    # One piece of each kind, each breakpoint owned by its left piece, and
    # a three-jump generator.
    config = {
        "space": {"dimension": 1, "generator": [[0.5, 0.25], [1.0, 0.5], [3.0, 0.25]]},
        "map": {"domain": [0.0, 1.0], "pieces": [
            {"from": 0.0, "to": 0.375, "closed": "right", "affine": [0.0, 0.8]},
            {"from": 0.375, "to": 0.7, "closed": "right", "affine": [1.0, 0.2]},
            {"from": 0.7, "to": 1.0, "closed": "right", "affine": [-2.0, 2.1]}]},
        "schedules": {"grids": [1 / 64], "t_grid": {"count": 64, "max": 1.0}},
        "output": str(tmp_path / "report.json"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["verify-t34", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["anomalies"] == []

