import functools
import itertools
import json
import math
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratopt import resolve
from stratopt.poly import Polynomial, cusp_curve, double_cone, parse_polynomial
from stratopt.resolve import (Deformation, NoSamplesError, ResolutionError, choose,
                              choose_resolution, count_components, count_levels, deform,
                              default_region, level_samples, project_to_level,
                              projected_gradient_field, proximity_check, smoothness_check)
from stratopt.stratify import OffVarietyError, Region, _newton_endpoints

CONE = double_cone()
CUSP = cusp_curve()


# -- deform / count_components -------------------------------------------------

def test_two_sheet_deformation():
    assert count_components(deform(CONE, -0.1), 64).count == 2


def test_one_sheet_deformation():
    assert count_components(deform(CONE, +0.1), 64).count == 1


def test_double_cone_connected_through_apex():
    assert count_components(deform(CONE, 0.0), 64).count == 1


def test_counts_stable_under_grid_refinement():
    for c in (-0.1, 0.1, -0.05, 0.05):
        c64 = count_components(deform(CONE, c), 64).count
        c128 = count_components(deform(CONE, c), 128).count
        assert c64 == c128


def test_cusp_deformation_smooth_curve():
    d = deform(CUSP, 0.2)
    assert count_components(d, 64).count == 1
    assert smoothness_check(d)


def test_component_report_invariants():
    rep = count_components(deform(CONE, 0.1), 64)
    assert 0 <= rep.count <= rep.occupied_cells
    assert rep.grid_spacing == pytest.approx(4.0 / 64)


def test_empty_level_set_counts_zero():
    sq = parse_polynomial("x0^2 + x1^2", nvars=2)
    assert count_components(deform(sq, -0.5), 32).count == 0


@pytest.mark.parametrize("p, level, count", [
    (Polynomial(3, {}), 0.0, 1),                       # every cell is on the level set
    (Polynomial(3, {(0, 0, 0): 2.5}), 0.1, 0),         # constant only: empty
    (parse_polynomial("x0", nvars=3), 0.1, 1),         # a plane
    (parse_polynomial("x1^2", nvars=3), 1.0, 2),       # two parallel planes
    (parse_polynomial("x1*x2 - x0^2", nvars=3), 0.3, 2),
])
def test_components_of_polynomials_missing_variables(p, level, count):
    # the corner values of these never or only late span the whole lattice
    # before the level is subtracted from them in place
    rep = count_components(deform(p, level), 32)
    assert rep.count == count
    if p.terms == ():
        assert rep.occupied_cells == 32 ** 3


def corner_values(d, grid_n):
    """base - level at the grid corners, evaluated point by point with eval_many."""
    dim = d.region.dim
    axes = [np.linspace(d.region.lower[j], d.region.upper[j], grid_n + 1) for j in range(dim)]
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return (d.base.eval_many(corners) - d.level).reshape((grid_n + 1,) * dim)


def cell_corners(vals):
    """Each cell's 2^dim corner values, one array per corner offset."""
    n = vals.shape[0] - 1
    return [vals[tuple(slice(o, o + n) for o in offset)]
            for offset in itertools.product((0, 1), repeat=vals.ndim)]


def occupancy(d, grid_n):
    """Oracle: the cells with a corner <= 0 and a corner >= 0 among their 2^dim."""
    below = np.zeros((grid_n,) * d.region.dim, dtype=bool)
    above = np.zeros((grid_n,) * d.region.dim, dtype=bool)
    for v in cell_corners(corner_values(d, grid_n)):
        below |= v <= 0.0
        above |= v >= 0.0
    return below & above


def flood_fill_components(d, grid_n):
    """Oracle: (components, occupied cells) by breadth-first search over the
    occupied cells of ``occupancy``."""
    return flood_fill(occupancy(d, grid_n))


def flood_fill(cells):
    """(components, occupied cells) of a boolean cell array, by breadth-first search."""
    dim = cells.ndim
    occupied = {tuple(int(i) for i in c) for c in np.argwhere(cells)}
    seen, count = set(), 0
    for start in sorted(occupied):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for ax in range(dim):
                for step in (-1, 1):
                    n = c[:ax] + (c[ax] + step,) + c[ax + 1:]
                    if n in occupied and n not in seen:
                        seen.add(n)
                        queue.append(n)
    return count, len(occupied)


FOUR_WELLS = parse_polynomial("x0^4 - 2*x0^2 + x1^4 - 2*x1^2 + 2")  # wells at (+-1, +-1)
EIGHT_WELLS = parse_polynomial("x0^4 - 2*x0^2 + x1^4 - 2*x1^2 + x2^4 - 2*x2^2 + 3")
LABELING_CASES = [  # (variety, level, components of the level set in [-2, 2]^dim)
    (parse_polynomial("x0^2 + x1^2"), -0.5, 0),
    (parse_polynomial("x0^2 + x1^2"), 1.0, 1),
    (parse_polynomial("x0^2 - x1^2"), 0.5, 2),
    (FOUR_WELLS, 0.3, 4),
    (parse_polynomial("x0^2 + x1^2 + x2^2"), -1.0, 0),
    (CONE, 0.1, 1),
    (CONE, -0.1, 2),
    (EIGHT_WELLS, 0.5, 8),
    (parse_polynomial("x0^2 - 0.5"), 0.0, 2),
    (parse_polynomial("x0^3 - x0"), 0.0, 3),
    (parse_polynomial("x1^2 - 3.8"), 0.0, 2),  # see test_runs_do_not_join_across_a_row_break
    # a cell in the last x1 layer is no neighbour of the next x0 layer's first
    (parse_polynomial("x1^2 - 3.8", nvars=3), 0.0, 2),
]
# the default slab, then slabs of one cell layer each: every face normal to x0
# is then a seam between two slabs
SLAB_SIZES = [resolve.SLAB_CORNERS, 1]


def assert_matches_flood_fill(d, grid_n, components, monkeypatch):
    expected = flood_fill_components(d, grid_n)
    for slab_corners in SLAB_SIZES:
        monkeypatch.setattr(resolve, "SLAB_CORNERS", slab_corners)
        rep = count_components(d, grid_n)
        assert (rep.count, rep.occupied_cells) == expected
    assert rep.count == components


@pytest.mark.parametrize("grid_n", [16, 64])
@pytest.mark.parametrize("variety, level, components", LABELING_CASES)
def test_count_components_matches_flood_fill(variety, level, components, grid_n, monkeypatch):
    assert_matches_flood_fill(deform(variety, level), grid_n, components, monkeypatch)


def test_count_components_matches_flood_fill_in_four_variables(monkeypatch):
    sphere = parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2 - 1")
    assert_matches_flood_fill(deform(sphere, 0.0), 16, 1, monkeypatch)


def test_runs_do_not_join_across_a_row_break(monkeypatch):
    # x1 = +-sqrt(3.8) crosses the first and the last cell of every row of
    # x1, so the last occupied cell of a row and the first of the next have
    # consecutive C-order ids
    d = deform(parse_polynomial("x1^2 - 3.8"), 0.0)
    ids = np.flatnonzero(occupancy(d, 16))
    assert np.array_equal(ids, np.sort(np.r_[np.arange(0, 256, 16), np.arange(15, 256, 16)]))
    for slab_corners in SLAB_SIZES:
        monkeypatch.setattr(resolve, "SLAB_CORNERS", slab_corners)
        assert count_components(d, 16).count == 2


def test_count_components_matches_flood_fill_at_grid_128():
    d = deform(CONE, -0.1)
    rep = count_components(d, 128)
    assert (rep.count, rep.occupied_cells) == flood_fill_components(d, 128)
    assert rep.count == 2


def test_nan_corners_leave_their_cells_unoccupied(monkeypatch):
    # 1e308 * 4 overflows, so corners with |x0|, |x1| both near 2 evaluate to
    # inf - inf = NaN; the reference is the min/max rule, under which NaN
    # propagates through np.minimum/np.maximum and fails both comparisons
    d = deform(parse_polynomial("1e308*x0^2 - 1e308*x1^2"), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = corner_values(d, 64)
        corners = cell_corners(vals)
        mins = functools.reduce(np.minimum, corners)
        maxs = functools.reduce(np.maximum, corners)
        # cells with a NaN corner would be occupied if NaN corners were skipped
        skipping_nan = flood_fill_components(d, 64)
    assert np.isnan(vals).any()
    expected = flood_fill((mins <= 0.0) & (maxs >= 0.0))
    for slab_corners in SLAB_SIZES:
        monkeypatch.setattr(resolve, "SLAB_CORNERS", slab_corners)
        rep = count_components(d, 64)
        assert (rep.count, rep.occupied_cells) == expected
    assert rep.occupied_cells < skipping_nan[1]


@pytest.mark.parametrize("variety, level", [(CONE, 0.1), (parse_polynomial("x0*x1*x2"), 0.1),
                                            (parse_polynomial("x0*x1*x2"), 0.0)],
                         ids=["cone", "x0*x1*x2", "x0*x1*x2 planes"])
def test_count_components_holds_one_slab_not_the_lattice(variety, level):
    # the whole 129^3 lattice peaked at 22.5 MiB (cone) and 32.8 MiB (x0*x1*x2);
    # labelling every occupied cell of the three planes took 10.6 MiB
    tracemalloc.start()
    try:
        count_components(deform(variety, level), 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_grid_n_validated():
    with pytest.raises(ValueError):
        count_components(deform(CONE, 0.1), 8)


def test_corner_guard_refuses_before_building_the_grid(monkeypatch):
    # 8 variables at grid 16 need 17^8 ~ 7e9 corners; grid 128 in 3-D
    # (129^3 corners) stays admitted, see test_counts_stable_under_grid_refinement
    sphere8 = parse_polynomial(" + ".join(f"x{j}^2" for j in range(8)))

    def no_grid(*args, **kwargs):
        raise AssertionError("the corner grid was evaluated")
    monkeypatch.setattr(Polynomial, "eval_grid", no_grid)
    with pytest.raises(ValueError, match="corners"):
        count_components(deform(sphere8, 1.0), 16)


# -- choose_resolution -----------------------------------------------------------

def test_cone_resolution_prefers_connected_sign():
    chosen = choose_resolution(CONE, 0.1)
    assert chosen.level == +0.1
    assert smoothness_check(chosen)


def test_cusp_resolution_tie_breaks_positive():
    # both signs are connected curves in the box, so +eps wins the tie
    assert count_components(deform(CUSP, +0.1), 64).count == 1
    assert count_components(deform(CUSP, -0.1), 64).count == 1
    assert choose_resolution(CUSP, 0.1).level == +0.1


def test_square_poly_empty_negative_level():
    # x0^2 has an empty negative level set; +eps is the only viable candidate
    sq = parse_polynomial("x0^2", nvars=1)
    region = Region.cube(-2.0, 2.0, 1)
    assert count_components(deform(sq, -0.25, region), 32).count == 0
    chosen = choose_resolution(sq, 0.25, region, grid_n=32)
    assert chosen.level == +0.25


def test_both_levels_empty_is_an_error():
    # x0^2 + 10 never comes within +/-1 of zero on the region
    p = parse_polynomial("x0^2 + 10", nvars=1)
    region = Region.cube(-2.0, 2.0, 1)
    with pytest.raises(ResolutionError):
        choose_resolution(p, 1.0, region, grid_n=32)


@pytest.mark.parametrize("text, eps, level, reason", [
    ("x1^2 + x2^2 - x0^2", 0.1, +0.1, "count"),
    ("x1^2 + x2^2 - x0^2", 0.001, +0.001, "tie"),  # (1, 1): grid 64 misses the neck
    ("x0*x1", 0.1, +0.1, "tie"),  # (2, 2): the two levels are mirror images
    ("x0*x1 - 0.1", 0.1, +0.1, "smoothness"),  # -0.1 is the singular axis cross
    ("0.1 - x0^2 - x1^2", 0.1, -0.1, "smoothness"),  # +0.1 is the single point 0
    # -0.1 has fewer components, but 669 of its 10000 samples fail to project
    ("x0^2 + x1^2 - x0^4", 0.1, +0.1, "smoothness"),
])
def test_choose_names_the_rule_that_won(text, eps, level, reason):
    levels = count_levels(parse_polynomial(text), eps)
    assert [d.level for d, _ in levels] == [+eps, -eps]
    chosen, why, cause = choose(levels)
    assert (chosen.level, why) == (level, reason)
    assert (cause is None) == (why != "smoothness")


@pytest.mark.parametrize("text, cause", [
    ("x0*x1 - 0.1", "a singular point lies on the level"),
    ("0.1 - x0^2 - x1^2", "a singular point lies on the level"),
    ("x0^2 + x1^2 - x0^4", "669/10000 projections failed to reach level -0.1"),
])
def test_choose_says_why_the_level_before_failed(text, cause):
    assert choose(count_levels(parse_polynomial(text), 0.1))[1:] == ("smoothness", cause)


def test_choose_resolution_is_choose_on_the_counted_levels(monkeypatch):
    calls = []
    monkeypatch.setattr(resolve, "smoothness_check",
                        lambda d: calls.append(d.level) or d.level < 0)
    assert choose_resolution(CONE, 0.1).level == -0.1
    assert calls == [0.1, -0.1]  # the level with fewer components is checked first


def test_a_failed_projection_fails_the_level_and_names_itself(monkeypatch):
    def unprojected(d):
        raise resolve.ProjectionError(f"9/10 projections failed to reach level {d.level}")
    monkeypatch.setattr(resolve, "smoothness_check", unprojected)
    with pytest.raises(ResolutionError) as err:
        choose(count_levels(CONE, 0.1))
    assert str(err.value) == ("no smooth deformation at levels +/-0.1: component counts [1, 2]; "
                              "9/10 projections failed to reach level 0.1; "
                              "9/10 projections failed to reach level -0.1")


# -- the Morse rule ---------------------------------------------------------------

def no_count(*args, **kwargs):
    raise AssertionError("count_components was called")


# the benchmark's seeded quadric cones a*(x1-s1)^2 + b*(x2-s2)^2 - c*(x0-s0)^2
GOLDEN_QUADRICS = [
    Polynomial(3, {tuple(e): c for e, c in item["coeffs"]})
    for item in json.loads((Path(__file__).parents[1] / "bench" / "golden.json")
                           .read_text(encoding="utf-8"))["varieties"]
    if "coeffs" in item
]


@pytest.mark.parametrize("eps", [1e-2, 1e-12])
@pytest.mark.parametrize("text, inertia, pieces, level", [
    ("x1^2 + x2^2 - x0^2", (2, 1), (1, 2), +1),
    ("x0*x2 - x1^2", (1, 2), (2, 1), -1),
    ("x1^2 + x2^2 + x3^2 - x0^2", (3, 1), (1, 2), +1),
])
def test_morse_rule_table(text, inertia, pieces, level, eps, monkeypatch):
    p = parse_polynomial(text)
    assert resolve.morse_inertia(p, default_region(p.nvars)) == (inertia,)
    assert (resolve.local_pieces(inertia[0]), resolve.local_pieces(inertia[1])) == pieces
    monkeypatch.setattr(resolve, "count_components", no_count)
    chosen, why, cause, got = resolve.decide(p, eps)
    assert (chosen.level, why, cause, got) == (level * eps, "morse", None, (inertia,))


@pytest.mark.parametrize("eps", [1e-2, 1e-12])
def test_morse_tie_in_four_variables_is_decided_by_the_counts(eps):
    # inertia (2, 2): one local piece at either sign; a column swap maps det
    # to -det, so the two levels are mirror images and the counts tie too
    p = parse_polynomial("x0*x3 - x1*x2")
    assert resolve.morse_inertia(p, default_region(4)) == ((2, 2),)
    chosen, why, cause, inertia = resolve.decide(p, eps, grid_n=16)
    assert (chosen.level, why, cause, inertia) == (eps, "tie", None, None)


@pytest.mark.parametrize("text, inertia, level, reason", [
    # definite: +eps is a small circle near the point, -eps is empty there
    ("x0^2 + x1^2", ((2, 0),), +0.1, "count"),
    # definite too, but {p = 0} also has a closed curve around the point: +eps
    # has two components, -eps one
    ("x0^2 + x1^2 - x0^4 - x1^4", ((2, 0),), -0.1, "count"),
    ("x0*x1", ((1, 1),), +0.1, "tie"),  # two local pieces at either sign
    # a (1, 1) tie near the point, while +eps also has an oval away from it
    ("x1^2 - x1^3 - x0^2", ((1, 1),), -0.1, "count"),
    # (2, 1) at x0 = 1 prefers +eps and (1, 2) at x0 = -1 prefers -eps
    ("x2^2 - x1^2 + x0^5 - 2*x0^3 + x0", ((1, 2), (2, 1)), +0.1, "tie"),
])
def test_morse_points_without_a_common_preference_are_decided_by_the_counts(
        text, inertia, level, reason):
    p = parse_polynomial(text)
    assert resolve.morse_inertia(p, default_region(p.nvars)) == inertia
    chosen, why, cause, got = resolve.decide(p, 0.1)
    assert (chosen, why, cause, got) == (*choose(count_levels(p, 0.1)), None)
    assert (chosen.level, why) == (level, reason)


def test_definite_point_orders_the_levels_by_their_counts(monkeypatch):
    # inertia (2, 0) at the origin, two outer arcs at -0.1 and an oval besides
    # at +0.1; the smoothness check is passed over here, as -0.1 fails it by
    # projection failures
    p = parse_polynomial("x0^2 + x1^2 - x0^4")
    assert resolve.morse_inertia(p, default_region(2)) == ((2, 0),)
    monkeypatch.setattr(resolve, "smoothness_check", lambda d: True)
    chosen, why, cause, inertia = resolve.decide(p, 0.1)
    assert (chosen.level, why, cause, inertia) == (-0.1, "count", None, None)
    assert [r.count for _, r in count_levels(p, 0.1)] == [3, 2]


@pytest.mark.parametrize("text, level, reason", [
    ("x0^2 + x1^3", +0.1, "tie"),  # the cusp: eigenvalues -3.2e-7 and 2
    # eigenvalues -1.67e-7 and 3.1e-7: Morse (1, 1) to a relative tolerance
    ("x0^2*x1 - x1^3", +0.1, "tie"),
    ("x0*x1 - 0.1", +0.1, "smoothness"),  # no singular point on {p = 0}
    ("0.1 - x0^2 - x1^2", -0.1, "smoothness"),
])
def test_without_morse_points_decide_is_choose_on_the_counts(text, level, reason):
    p = parse_polynomial(text)
    assert resolve.morse_inertia(p, default_region(p.nvars)) is None
    chosen, why, cause, inertia = resolve.decide(p, 0.1)
    assert (chosen, why, cause, inertia) == (*choose(count_levels(p, 0.1)), None)
    assert (chosen.level, why) == (level, reason)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_morse_tolerance_scales_with_the_coefficients(c):
    # the cusp's small eigenvalue at Newton's endpoint grows like sqrt(c), its
    # Morse eigenvalues like c: both stay on their side at either scale
    cusp = c * parse_polynomial("x0^2 + x1^3")
    cone = c * CONE
    assert resolve.morse_inertia(cusp, default_region(2)) is None
    assert resolve.morse_inertia(cone, default_region(3)) == ((2, 1),)


def test_choose_resolution_counts_no_component_on_morse_varieties(monkeypatch):
    monkeypatch.setattr(resolve, "count_components", no_count)
    assert len(GOLDEN_QUADRICS) == 16
    for p in [CONE, *GOLDEN_QUADRICS]:
        assert choose_resolution(p, 0.1).level == +0.1


def test_decide_takes_the_counted_levels(monkeypatch):
    levels = count_levels(CUSP, 0.1)
    monkeypatch.setattr(resolve, "count_components", no_count)
    assert resolve.decide(CUSP, 0.1, levels=levels) == (*choose(levels), None)


def test_morse_rule_falls_back_on_the_smoothness_check(monkeypatch):
    monkeypatch.setattr(resolve, "smoothness_check", lambda d: d.level < 0)
    assert resolve.decide(CONE, 0.1)[1:] == (
        "smoothness", "a singular point lies on the level", ((2, 1),))
    monkeypatch.setattr(resolve, "smoothness_check", lambda d: False)
    with pytest.raises(ResolutionError, match=r"inertia \[\(2, 1\)\]"):
        resolve.decide(CONE, 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match=f"got {eps}"):
        choose_resolution(CONE, eps)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_deformation_level_must_be_finite(level):
    with pytest.raises(ValueError, match=f"got {level}"):
        deform(CONE, level)
    with pytest.raises(ValueError, match=f"got {level}"):
        Deformation(CONE, level, default_region(3))


# -- smoothness_check --------------------------------------------------------------

def test_deformed_cone_is_smooth():
    assert smoothness_check(deform(CONE, 0.1))


def test_singular_cone_fails_smoothness():
    assert not smoothness_check(deform(CONE, 0.0))


def test_smoothness_below_the_on_level_tolerance():
    # at |level| < 2 * TOL_ON the apex of {p = 0} is within TOL_ON of the level
    # too, but it is nearer to 0: the level itself has no critical point
    assert smoothness_check(deform(CONE, 1e-12))
    assert smoothness_check(deform(CONE, -1e-12))
    # shifted by 1e-12, the apex lies on the level {p = 1e-12} itself
    assert not smoothness_check(deform(CONE + Polynomial(3, {(0, 0, 0): 1e-12}), 1e-12))


LEVELS = (0.0, 1e-12, -1e-12, 1e-3, -1e-3, 0.1, -0.1, 1.0, -1.0)
# the verdict of the sampled probe (CHECK_SAMPLES projected samples after the
# critical-point test) at each of LEVELS; None where it raised ProjectionError,
# on levels that are empty in R^n
SAMPLED_VERDICTS = {
    ("x1^2 + x2^2 - x0^2", 3): (False, True, True, True, True, True, True, True, True),
    ("x0*x2 - x1^2", 3): (False, True, True, True, True, True, True, True, True),
    ("x0*x3 - x1*x2", 4): (False, True, True, True, True, True, True, True, True),
    ("x0^2", 3): (False, True, None, True, None, True, None, True, None),
    # its critical point (3, 0, 0) lies off the region
    ("x0^2 - 6*x0 + 9 + x1^2 - x2^2", 3): (True,) * 9,
    ("x0*x1 - 0.1", 2): (True, True, True, True, True, True, False, True, True),
    ("0.1 - x0^2 - x1^2", 2): (True, True, True, True, True, False, True, None, True),
}


@pytest.mark.parametrize("text, nvars", list(SAMPLED_VERDICTS))
def test_a_quadric_check_is_its_critical_points(text, nvars, monkeypatch):
    def no_projection(*args):
        raise AssertionError("a check of degree <= 2 projected its samples")
    monkeypatch.setattr(resolve, "project_to_level", no_projection)
    resolve._projected_samples.cache_clear()
    p = parse_polynomial(text, nvars=nvars)
    assert p.degree <= 2
    for level, sampled in zip(LEVELS, SAMPLED_VERDICTS[text, nvars]):
        if sampled is None:
            # an empty level has no critical point on it, so it now passes;
            # decide never checks it, as its count of 0 is not viable
            assert count_components(deform(p, level)).count == 0
        assert smoothness_check(deform(p, level)) is (True if sampled is None else sampled)


# -- proximity_check -----------------------------------------------------------------

def test_proximity_small_deformation_near_base():
    # analytic bound away from the apex: |sqrt(xi^2+c) - |xi|| <= c / (2|xi|)
    md = proximity_check(deform(CONE, 0.01), exclusion_radius=0.5)
    assert md < 0.02


def test_proximity_identity_at_zero_level():
    md = proximity_check(deform(CONE, 0.0), exclusion_radius=0.5)
    assert md < 1e-9


def test_proximity_no_samples_when_exclusion_covers_region():
    # ambient points of the c=0.01 deformation inside [-2,2]^3 stay within
    # norm sqrt(2*4+0.01) < 2.84, so a radius-4 exclusion swallows them all
    with pytest.raises(NoSamplesError):
        proximity_check(deform(CONE, 0.01), exclusion_radius=4.0)


def test_proximity_shrinks_with_level():
    near = proximity_check(deform(CONE, 0.001), exclusion_radius=0.5)
    far = proximity_check(deform(CONE, 0.1), exclusion_radius=0.5)
    assert near < far


def test_checks_share_one_projection_of_the_samples(monkeypatch):
    resolve._projected_samples.cache_clear()
    calls = []

    def counted(p, level, X):
        calls.append((level, len(X)))
        return project_to_level(p, level, X)
    monkeypatch.setattr(resolve, "project_to_level", counted)
    chosen = choose_resolution(double_cone(), 0.1)
    proximity_check(chosen, 0.3)
    assert chosen.level == 0.1
    assert calls.count((0.1, resolve.CHECK_SAMPLES)) == 1


def test_cached_samples_match_a_fresh_projection():
    d = deform(CONE, 0.1)
    Y, ok = resolve._projected_samples(d, 500)
    X = d.region.sample(500, np.random.default_rng(0))
    Y2, ok2 = project_to_level(CONE, 0.1, X)
    assert np.array_equal(Y, Y2) and np.array_equal(ok, ok2)
    assert not Y.flags.writeable and not ok.flags.writeable


def test_level_samples_keep_the_converged_points_in_the_region():
    d = deform(CONE, 0.1)
    Y, ok = resolve._projected_samples(d, resolve.CHECK_SAMPLES)
    expected = Y[ok & d.region.contains(Y, pad=1e-9)]
    assert 0 < len(expected) < len(Y)
    assert np.array_equal(level_samples(d, resolve.CHECK_SAMPLES), expected)


def test_proximity_requires_positive_radius():
    with pytest.raises(ValueError):
        proximity_check(deform(CONE, 0.1), exclusion_radius=0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_proximity_rejects_bad_arguments_by_name(radius):
    with pytest.raises(ValueError, match="exclusion_radius"):
        proximity_check(deform(CONE, 0.1), exclusion_radius=radius)


def test_deformations_are_values():
    assert deform(double_cone(), 0.1) == deform(double_cone(), 0.1)
    assert hash(deform(double_cone(), 0.1)) == hash(deform(double_cone(), 0.1))
    assert deform(CONE, 0.1) != deform(CONE, -0.1)


def test_equal_deformations_hit_the_caches():
    resolve._projected_samples.cache_clear()
    _newton_endpoints.cache_clear()
    # a cubic: the check of a quadric draws no samples
    for region in (Region.cube(-2.0, 2.0, 2), Region(np.full(2, -2.0), np.full(2, 2.0))):
        assert smoothness_check(deform(CUSP, 0.1, region))
    assert resolve._projected_samples.cache_info().hits == 1
    # the second region finds the one Newton solve
    assert _newton_endpoints.cache_info()[:2] == (1, 1)


# -- projected_gradient_field -----------------------------------------------------------

def arclength_tangential_derivative(level, t, xbar, h=1e-6):
    """Oracle: derivative of the loss along the cusp branch (t^3-ish param).

    The branch of {x0^2 + x1^3 = level} through (sqrt(level - t^3), t) is
    parameterized by t; differencing the loss along it gives the tangential
    gradient magnitude independently of the projection formula.
    """
    def point(u):
        return np.array([np.sqrt(level - u ** 3), u])

    def loss(u):
        d = point(u) - xbar
        return 0.5 * d @ d

    dldt = (loss(t + h) - loss(t - h)) / (2 * h)
    dpdt = (point(t + h) - point(t - h)) / (2 * h)
    return dldt / np.linalg.norm(dpdt)


def test_field_matches_direct_formula_and_arclength_oracle():
    pt = np.array([1.0, -1.0])
    g = np.array([1.0, 0.0])
    (proj,), (singular,) = projected_gradient_field(CUSP, 0.0, [pt], g)
    assert not singular
    expected = np.array([9.0 / 13.0, -6.0 / 13.0])  # g minus its normal part
    assert np.allclose(proj, expected, atol=1e-12)
    assert np.linalg.norm(proj) > 0
    # cross-check the magnitude against the arclength parameterization
    xbar = pt - g  # so that the ambient loss gradient at pt equals g
    oracle_mag = abs(arclength_tangential_derivative(0.0, -1.0, xbar))
    assert np.linalg.norm(proj) == pytest.approx(oracle_mag, rel=1e-5)


def test_field_undefined_at_singularity():
    (proj,), (singular,) = projected_gradient_field(CUSP, 0.0, [np.array([0.0, 0.0])],
                                                    np.array([1.0, 0.0]))
    assert singular and np.isnan(proj).all()


def test_field_singular_only_at_the_cone_apex():
    rng = np.random.default_rng(11)
    xi = rng.uniform(0.2, 2.0, size=50) * rng.choice([-1.0, 1.0], size=50)
    th = rng.uniform(-np.pi, np.pi, size=50)
    # the apex, a hand-picked point, and regular points from the radial chart
    pts = np.vstack([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                     np.column_stack([xi, xi * np.cos(th), xi * np.sin(th)])])
    tangent, singular = projected_gradient_field(CONE, 0.0, pts, np.array([1.0, 2.0, 3.0]))
    assert singular[0] and np.isnan(tangent[0]).all()
    assert not singular[1:].any() and np.isfinite(tangent[1:]).all()


def test_field_rejects_cone_point_off_level():
    with pytest.raises(OffVarietyError, match=r"\|p\(x\) - level\| = 1\.000e\+00"):
        projected_gradient_field(CONE, 0.0, [np.array([1.0, 1.0, 1.0])], np.zeros(3))


def test_field_zero_when_gradient_is_normal():
    pt = np.array([1.0, -1.0])
    n = CUSP.grad(pt)
    (proj,), _ = projected_gradient_field(CUSP, 0.0, [pt], 3.0 * n)
    assert np.linalg.norm(proj) < 1e-12


def test_field_rejects_off_level_points():
    with pytest.raises(OffVarietyError):
        projected_gradient_field(CUSP, 0.0, [np.array([1.0, 1.0])], np.zeros(2))


def test_field_rejects_non_finite_points():
    # row 0 is off the level too: the non-finite check comes first
    with pytest.raises(ValueError, match="non-finite"):
        projected_gradient_field(CUSP, 0.0, [np.array([1.0, 1.0]), np.array([np.inf, -np.inf])],
                                 np.zeros(2))


def test_field_rejects_a_4_variable_point_off_level():
    # any number of variables: the origin is off the unit 3-sphere
    p4 = parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2", nvars=4)
    with pytest.raises(OffVarietyError):
        projected_gradient_field(p4, 1.0, [np.zeros(4)], np.zeros(4))


@given(st.integers(0, 2 ** 31 - 1))
def test_field_orthogonal_to_normal(seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.4, -0.1)
    pt = np.array([np.sqrt(-t ** 3), t])  # on the cusp curve
    g = rng.normal(size=2)
    (proj,), _ = projected_gradient_field(CUSP, 0.0, [pt], g)
    assert abs(proj @ CUSP.grad(pt)) < 1e-10 * max(1.0, np.linalg.norm(CUSP.grad(pt)))


def per_point_field(p, points, G):
    """Reference: the tangential gradient one point at a time."""
    out = []
    for x, g in zip(points, G):
        n = p.grad(x)
        nhat = n / np.linalg.norm(n)
        out.append(g - (g @ nhat) * nhat)
    return np.array(out)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.01, 0.05, 0.2]),
       st.integers(1, 30))
def test_field_matches_per_point_formula(seed, c, m):
    rng = np.random.default_rng(seed)
    xbar = rng.normal(size=3)
    # the cusp {x0^2 + x1^3 = c}, away from its singular point
    t = rng.uniform(-1.5, -0.1, size=m)
    cusp = np.column_stack([rng.choice([-1.0, 1.0], size=m) * np.sqrt(c - t ** 3), t])
    # the cone level {x1^2 + x2^2 - x0^2 = +-c}, away from the apex
    r = rng.uniform(0.5, 1.5, size=m)
    th = rng.uniform(-np.pi, np.pi, size=m)
    for p, level, pts in (
        (CUSP, c, cusp),
        (CONE, c, np.column_stack([np.sqrt(r ** 2 - c), r * np.cos(th), r * np.sin(th)])),
        (CONE, -c, np.column_stack([np.sqrt(r ** 2 + c), r * np.cos(th), r * np.sin(th)])),
    ):
        G = pts - xbar[:p.nvars]
        tangent, singular = projected_gradient_field(p, level, pts, G)
        assert not singular.any()
        np.testing.assert_allclose(tangent, per_point_field(p, pts, G),
                                   rtol=1e-14, atol=0.0)


def test_field_in_4_variables_matches_per_point_formula():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)  # on the unit 3-sphere
    G = rng.normal(size=(40, 4))
    p4 = parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2", nvars=4)
    tangent, singular = projected_gradient_field(p4, 1.0, pts, G)
    assert not singular.any()
    np.testing.assert_allclose(tangent, per_point_field(p4, pts, G), rtol=1e-14, atol=0.0)
    assert np.abs((tangent * pts).sum(axis=1)).max() < 1e-14  # normal to the radius
    # the 4-variable cone x0*x3 = x1*x2 is singular only at its apex
    cone4 = parse_polynomial("x0*x3 - x1*x2", nvars=4)
    X = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 6.0], [2.0, 1.0, 4.0, 2.0]])
    tangent, singular = projected_gradient_field(cone4, 0.0, X, G[:3])
    assert singular.tolist() == [True, False, False] and np.isnan(tangent[0]).all()
    np.testing.assert_allclose(tangent[1:], per_point_field(cone4, X[1:], G[1:3]),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 23, 200])
def test_field_makes_one_gradient_and_one_callback_call(monkeypatch, m):
    """One ``grad_many`` call for all m rows; the ambient gradient rows are
    an argument, so the field calls no loss-gradient callback."""
    calls = []
    grad_many = Polynomial.grad_many

    def counted_grad_many(self, X):
        calls.append(X.shape)
        return grad_many(self, X)

    monkeypatch.setattr(Polynomial, "grad_many", counted_grad_many)
    t = np.linspace(-1.5, 0.0, m)
    X = np.column_stack([np.sqrt(-t ** 3), t])
    tangent, singular = projected_gradient_field(CUSP, 0.0, X, X)
    assert calls == [(m, 2)]
    assert tangent.shape == (m, 2) and singular.shape == (m,)


# -- projection helper ---------------------------------------------------------------

def test_project_to_level_lands_on_level():
    rng = np.random.default_rng(0)
    X = default_region(3).sample(500, rng)
    Y, ok = project_to_level(CONE, 0.1, X)
    assert ok.mean() > 0.99
    assert np.abs(CONE.eval_many(Y[ok]) - 0.1).max() <= 1e-12
