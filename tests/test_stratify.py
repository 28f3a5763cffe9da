import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratopt.poly import (Polynomial, axis_pair, cusp_curve, double_cone,
                          parse_polynomial)
from stratopt.resolve import choose_resolution, proximity_check
from stratopt.stratify import (NEWTON_MAX_ITER, PROJECTION_MAX_ITER, PROJECTION_TOL,
                               SINGULAR, OffVarietyError, Region, _newton_endpoints,
                               project_to_level, find_singular_points,
                               simplex_strata, stratify, tangent_dimension)

CONE = double_cone()
CUSP = cusp_curve()
BOX3 = Region.cube(-2.0, 2.0, 3)
BOX2 = Region.cube(-2.0, 2.0, 2)


def grid_scan_min_gradient(p, level, region, n=101, band=0.02):
    """Independent oracle: min gradient norm over grid points near the level set."""
    axes = [np.linspace(region.lower[j], region.upper[j], n) for j in range(region.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    vals = p.eval_many(X)
    near = np.abs(vals - level) < band
    if not near.any():
        return np.inf
    return float(np.linalg.norm(p.grad_many(X[near]), axis=1).min())


# -- find_singular_points ---------------------------------------------------

def test_cone_apex_found():
    pts = find_singular_points(CONE, 0.0, BOX3)
    assert len(pts) == 1
    assert np.linalg.norm(pts[0]) < 1e-6


def test_cusp_singularity_found():
    pts = find_singular_points(CUSP, 0.0, BOX2)
    assert len(pts) == 1
    assert np.linalg.norm(pts[0]) < 1e-6


def test_axis_pair_singularity_found():
    pts = find_singular_points(axis_pair(), 0.0, BOX2)
    assert len(pts) == 1
    assert np.linalg.norm(pts[0]) < 1e-6


def test_deformed_cone_has_no_singularities():
    # oracle first: the two-sheet deformation carries no critical point
    assert grid_scan_min_gradient(CONE, -0.1, BOX3, n=61) > 0.1
    assert find_singular_points(CONE, -0.1, BOX3) == []


def test_singular_points_satisfy_definitions():
    for p, level, region in [(CONE, 0.0, BOX3), (CUSP, 0.0, BOX2)]:
        for s in find_singular_points(p, level, region):
            assert np.linalg.norm(p.grad(s)) < 1e-8
            assert abs(p.eval(s) - level) < 1e-9


def test_deterministic_and_idempotent():
    a = find_singular_points(CONE, 0.0, BOX3)
    b = find_singular_points(CONE, 0.0, BOX3)
    assert len(a) == len(b) == 1
    assert np.array_equal(a[0], b[0])


def test_one_newton_solve_per_variety(monkeypatch):
    # the Newton loop is the only caller of hessian_many
    _newton_endpoints.cache_clear()
    calls = []
    hessian_many = Polynomial.hessian_many
    monkeypatch.setattr(Polynomial, "hessian_many",
                        lambda self, X: calls.append(len(X)) or hessian_many(self, X))
    strat = stratify(CONE, 0.0, BOX3)
    assert len(strat.singular_points) == 1 and calls
    solve = list(calls)
    chosen = choose_resolution(CONE, 0.1, Region(np.full(3, -2.0), np.full(3, 2.0)))
    proximity_check(chosen, 0.3)
    assert chosen.level == 0.1
    assert calls == solve


def newton_every_round(p, region, grid_points=11):
    """Reference Newton search: every row's own Hessian, one batched
    pseudoinverse per round and all NEWTON_MAX_ITER rounds."""
    X = region.grid(grid_points)
    for _ in range(NEWTON_MAX_ITER):
        finite = np.isfinite(X).all(axis=1)
        G = np.zeros_like(X)
        G[finite] = p.grad_many(X[finite])
        active = finite & np.isfinite(G).all(axis=1) & (np.linalg.norm(G, axis=1) > 1e-14)
        if not active.any():
            break
        step = -np.einsum("kij,kj->ki", np.linalg.pinv(p.hessian_many(X[active])), G[active])
        X[active] = X[active] + step
    return X[np.isfinite(X).all(axis=1)]


def newton_search(p, region, grid_points=11):
    # uncached, so each call runs the loop
    return _newton_endpoints.__wrapped__(p, region, grid_points)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def quadrics(draw):
    """A polynomial of degree <= 2 in 1-3 variables; small integer and zero
    coefficients make rank-deficient Hessians common."""
    nvars = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    coeff = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, -0.5]) | st.floats(-3, 3)
    return Polynomial(nvars, {e: draw(coeff) for e in monomials})


@settings(max_examples=60, deadline=None)
@given(quadrics(), st.integers(2, 9))
def test_newton_search_matches_every_round_reference_on_quadrics(p, grid_points):
    region = Region.cube(-2.0, 2.0, p.nvars)
    # a subnormal coefficient overflows the pseudoinverse (1/s) in both
    # searches; the rows that overflow must still agree bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(newton_search(p, region, grid_points),
                         newton_every_round(p, region, grid_points))


@pytest.mark.parametrize("text", [
    "x0^2 + x1",                     # rank-deficient constant Hessian
    "x0^2 + x1^3",                   # cusp_curve
    "x0^3 - 3*x0*x1^2 + x2^2 - 0.5*x2",
])
def test_newton_search_matches_every_round_reference(text):
    p = parse_polynomial(text)
    region = Region.cube(-2.0, 2.0, p.nvars)
    assert same_bits(newton_search(p, region), newton_every_round(p, region))


def count_pinv_calls(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda H: calls.append(H.shape) or pinv(H))
    return calls


@pytest.mark.parametrize("p", [CONE, axis_pair(), parse_polynomial("x0^2 + x1")])
def test_quadric_newton_round_pseudoinverts_one_matrix(monkeypatch, p):
    calls = count_pinv_calls(monkeypatch)
    newton_search(p, Region.cube(-2.0, 2.0, p.nvars))
    assert calls and all(shape == (1, p.nvars, p.nvars) for shape in calls)


@pytest.mark.parametrize("text, rounds", [
    ("x0^2 + x1^2 - x2", 2),  # one step to the x2 axis, then a zero step
    ("x0 + x1 + x2", 1),      # the zero Hessian makes every step zero
])
def test_newton_search_stops_at_a_fixed_point(monkeypatch, text, rounds):
    # no row's gradient ever vanishes, so only the fixed point ends the loop
    # before NEWTON_MAX_ITER rounds
    p = parse_polynomial(text)
    calls = count_pinv_calls(monkeypatch)
    got = newton_search(p, BOX3)
    assert len(calls) == rounds
    monkeypatch.undo()
    assert same_bits(got, newton_every_round(p, BOX3))


def test_returned_points_do_not_alias_the_search_cache():
    first = find_singular_points(CONE, 0.0, BOX3)
    first[0][:] = 7.0
    again = find_singular_points(CONE, 0.0, BOX3)
    assert np.linalg.norm(again[0]) < 1e-6


def test_polynomial_systems_rejected():
    with pytest.raises(NotImplementedError):
        find_singular_points([CONE, CUSP], 0.0, BOX3)
    with pytest.raises(NotImplementedError):
        stratify((CONE,), 0.0, BOX3)


def test_region_mismatch_rejected():
    with pytest.raises(ValueError):
        find_singular_points(CONE, 0.0, BOX2)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_non_finite_level_rejected(level):
    with pytest.raises(ValueError, match=f"level must be finite, got {level}"):
        find_singular_points(CONE, level, BOX3)


def project_every_row(p, level, X):
    """Reference projection that re-evaluates every row at every step."""
    X = np.array(X, dtype=float)
    for _ in range(PROJECTION_MAX_ITER):
        finite = np.isfinite(X).all(axis=1)
        f = np.full(X.shape[0], np.inf)
        f[finite] = p.eval_many(X[finite]) - level
        moving = finite & (np.abs(f) > PROJECTION_TOL)
        if not moving.any():
            break
        G = p.grad_many(X[moving])
        gn2 = (G * G).sum(axis=1)
        shift = np.zeros_like(G)
        safe = gn2 > 1e-30
        shift[safe] = (f[moving][safe] / gn2[safe])[:, None] * G[safe]
        X[moving] = X[moving] - shift
    return X


@pytest.mark.parametrize("p, level", [(CONE, 0.0), (CONE, 0.1), (CUSP, 0.0), (CUSP, -0.2)])
def test_projection_matches_every_row_reference(p, level):
    # at level 0 rows near the singular point converge slowly, so the rows
    # still moving shrink over many steps; NaN and inf rows never move
    X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2000, p.nvars))
    X[::97] = np.nan
    X[5::101, 0] = np.inf
    Y, ok = project_to_level(p, level, X)
    want = project_every_row(p, level, X)
    assert np.array_equal(Y, want, equal_nan=True)
    assert 0.0 < ok.mean() < 1.0


# -- tangent_dimension --------------------------------------------------------

def test_tangent_dimension_regular_cone_point():
    assert tangent_dimension(CONE, 0.0, [1, 1, 0]) == 2


def test_tangent_dimension_apex_is_singular():
    assert tangent_dimension(CONE, 0.0, [0, 0, 0]) is SINGULAR


def test_tangent_dimension_cusp_regular():
    assert tangent_dimension(CUSP, 0.0, [1, -1]) == 1


def test_tangent_dimension_off_variety_errors():
    with pytest.raises(OffVarietyError):
        tangent_dimension(CONE, 0.0, [1, 1, 1])


def test_every_regular_sample_reports_top_dimension():
    # points on the cone away from the apex via the radial chart
    rng = np.random.default_rng(11)
    for _ in range(50):
        xi = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        th = rng.uniform(-np.pi, np.pi)
        x = np.array([xi, xi * np.cos(th), xi * np.sin(th)])
        assert tangent_dimension(CONE, 0.0, x) == 2


# -- stratify -----------------------------------------------------------------

def test_stratify_cone():
    s = stratify(CONE, 0.0, BOX3)
    assert len(s.singular_points) == 1
    assert s.regular_dim == 2
    assert len(s.ball_radii) == 1
    assert s.ball_radii[0] > 0


def test_stratify_deformed_cone_is_smooth():
    s = stratify(CONE, 0.1, BOX3)
    assert s.singular_points == []
    assert s.regular_dim == 2


def test_stratify_axis_pair():
    s = stratify(axis_pair(), 0.0, BOX2)
    assert len(s.singular_points) == 1
    assert s.regular_dim == 1


def test_close_singularities_warn():
    # (x0^2 - x1^2)^2-like wells: two nearby critical points on the level set
    p = parse_polynomial("x0^4 - 0.02*x0^2", nvars=1)
    # critical points of p: x = 0 and x = +/-0.1; p(+/-0.1) = -1e-4, p(0) = 0
    region = Region.cube(-1.0, 1.0, 1)
    pts = find_singular_points(p, -1e-4, region)
    assert len(pts) == 2
    with pytest.warns(RuntimeWarning):
        stratify(p, -1e-4, region)


def test_close_singularities_warn_once_per_call():
    # the singular set of x0^2 is the whole x1 axis: 21 points, 210 close pairs
    with pytest.warns(RuntimeWarning) as record:
        result = stratify(parse_polynomial("x0^2", nvars=2), 0.0, BOX2)
    assert len(result.singular_points) == 21
    assert len(record) == 1
    assert "210 pair(s)" in str(record[0].message)


# -- simplex strata ------------------------------------------------------------

def test_simplex_point():
    assert simplex_strata(0).counts == {0: 1}


def test_simplex_triangle():
    assert simplex_strata(2).counts == {0: 3, 1: 3, 2: 1}


def test_simplex_tetrahedron():
    assert simplex_strata(3).counts == {0: 4, 1: 6, 2: 4, 3: 1}


def test_simplex_out_of_range():
    for bad in (-1, 21, 2.0):
        with pytest.raises(ValueError):
            simplex_strata(bad)


@given(st.integers(0, 20))
def test_simplex_total_face_count(n):
    counts = simplex_strata(n).counts
    assert sum(counts.values()) == 2 ** (n + 1) - 1
    assert set(counts) == set(range(n + 1))


# -- Region ---------------------------------------------------------------------

def test_region_validation():
    with pytest.raises(ValueError):
        Region(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Region(np.array([0.0]), np.array([np.inf]))


def test_equal_bounds_make_equal_regions():
    a = Region(np.array([-2.0, -1.0]), np.array([2.0, 1.0]))
    b = Region(np.array([-2.0, -1.0]), np.array([2.0, 1.0]))
    assert a == b and hash(a) == hash(b)
    assert Region.cube(-2.0, 2.0, 3) == Region.cube(-2.0, 2.0, 3)
    assert a != BOX2 and BOX2 != BOX3


def test_negative_zero_bound_makes_a_different_region():
    assert Region(np.array([-0.0]), np.array([1.0])) != Region(np.array([0.0]), np.array([1.0]))


def test_region_bounds_are_read_only_copies():
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    box = Region(lo, hi)
    with pytest.raises(ValueError):
        box.lower[0] = 3.0
    lo[0] = 3.0
    hi[1] = -5.0
    assert box.lower.tolist() == [-1.0, -1.0] and box.upper.tolist() == [1.0, 1.0]


def test_region_grid_shape():
    g = BOX2.grid(5)
    assert g.shape == (25, 2)
    assert g.min() == -2.0 and g.max() == 2.0


def test_region_contains_rows_match_single_points():
    rng = np.random.default_rng(5)
    box = Region(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0]))
    X = rng.uniform(-1.5, 3.5, size=(400, 3))
    X[:4] = [box.lower, box.upper, box.lower - 1e-10, box.upper + 1e-10]  # edges
    for pad in (0.0, 1e-9, 0.3):
        mask = box.contains(X, pad=pad)
        assert mask.dtype == bool and mask.shape == (400,)
        assert mask.tolist() == [box.contains(x, pad=pad) for x in X]
        assert 0 < mask.sum() < 400
    assert isinstance(box.contains(X[0]), bool)
    assert box.contains(np.empty((0, 3))).shape == (0,)
