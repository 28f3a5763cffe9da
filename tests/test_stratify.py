import itertools
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratopt import stratify as stratify_module
from stratopt.poly import (Polynomial, axis_pair, cusp_curve, double_cone,
                          parse_polynomial)
from stratopt.resolve import (choose_resolution, decide, default_region, deform,
                              morse_inertia, proximity_check, smoothness_check)
from stratopt.stratify import (MERGE_RADIUS, NEWTON_MAX_ITER, PROJECTION_MAX_ITER,
                               PROJECTION_TOL, SEED_GRID, Region, _newton_endpoints,
                               project_to_level, find_singular_points, inertia, level_masks,
                               seeds_per_axis, simplex_strata, stratify)

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
    _newton_endpoints.cache_clear()
    calls = []
    hessian_many = Polynomial.hessian_many
    monkeypatch.setattr(Polynomial, "hessian_many",
                        lambda self, X: calls.append(len(X)) or hessian_many(self, X))
    strat = stratify(CONE, 0.0, BOX3)
    assert len(strat.singular_points) == 1 and calls
    solve = len(calls)
    chosen = choose_resolution(CONE, 0.1, Region(np.full(3, -2.0), np.full(3, 2.0)))
    proximity_check(chosen, 0.3)
    assert chosen.level == 0.1
    assert _newton_endpoints.cache_info().misses == 1
    # after the solve, only the Morse rule's single-row Hessians, one per singular point
    assert calls[solve:] == [1] * len(strat.singular_points)


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


def distinct_in_region(X, region):
    """The endpoints the search keeps: the rows in the region padded by 1e-9
    of its largest width, in stable lexicographic order, and of each run of
    rows equal in value the first."""
    X = X[region.contains(X, pad=1e-9 * float(np.max(region.widths)))]
    X = X[np.lexsort(X.T[::-1])]
    return X[[i for i in range(len(X)) if i == 0 or not np.array_equal(X[i], X[i - 1])]]


def newton_search(p, region, grid_points=11):
    # uncached, so each call runs the loop
    return _newton_endpoints.__wrapped__(p, region, grid_points)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


MERGING_SEARCHES = [
    "x0^2 + x1^5",
    "x1^2 + x2^2 - x0^2 + x0^3",
    "x0^3 + x0*x1 + x1*x2",           # rows merge over several rounds
    "x0^3 + x1^2 + x2^2 - x3^2",
]


@pytest.mark.parametrize("text", [
    "x0^2 + x1",                     # rank-deficient constant Hessian
    "x0^2 + x1^3",                   # cusp_curve
    "x0^3 - 3*x0*x1^2 + x2^2 - 0.5*x2",
    *MERGING_SEARCHES,
])
def test_newton_search_matches_every_round_reference(text):
    p = parse_polynomial(text)
    grid_points = min(11, seeds_per_axis(p.nvars))
    bounds = [(-2.0, 2.0)]
    if p.degree >= 3:
        # in the huge region rows overflow to inf and NaN, which merge with no finite row
        bounds += [(-1.0, 0.5), (-1e300, 1e300)]
    for lo, hi in bounds:
        region = Region.cube(lo, hi, p.nvars)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_search(p, region, grid_points)
        with np.errstate(over="ignore", invalid="ignore"):
            want = distinct_in_region(newton_every_round(p, region, grid_points), region)
        assert same_bits(got, want), (lo, hi)


@pytest.mark.parametrize("text, count", [
    # LAPACK's SVD never returned on one of these Hessians holding inf
    ("x2^2 - x0^2 - x1^2 + x0*x1*x2*x3 - x0^3*x2*x3", 9),
    # LAPACK raised "SVD did not converge" on one of these
    ("x0^2 - x1^2 - x2^2 - x0*x1^2*x2*x3 + 2*x0*x1^2", 9),
])
def test_newton_search_solves_only_finite_hessians(monkeypatch, text, count):
    # a row whose Hessian is not finite takes a NaN step without a solve
    pinv = np.linalg.pinv
    solved = []

    def finite_pinv(H):
        assert np.isfinite(H).all()
        solved.append(len(H))
        return pinv(H)

    monkeypatch.setattr(np.linalg, "pinv", finite_pinv)
    p = parse_polynomial(text)
    region = Region.cube(-1e300, 1e300, p.nvars)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = newton_search(p, region, seeds_per_axis(p.nvars))
        points = find_singular_points(p, 0.0, region)
    assert solved and np.isfinite(got).all()
    assert len(points) == count


def newton_rows_per_round(monkeypatch, text):
    """The rows that each round of the uncached search at the default seed
    grid on [-2, 2]^n steps: one Hessian per stepped row."""
    p = parse_polynomial(text)
    calls = []
    hessian_many = Polynomial.hessian_many
    monkeypatch.setattr(Polynomial, "hessian_many",
                        lambda self, X: calls.append(len(X)) or hessian_many(self, X))
    newton_search(p, Region.cube(-2.0, 2.0, p.nvars), seeds_per_axis(p.nvars))
    return calls


def test_seeds_that_share_a_path_share_one_row(monkeypatch):
    # the cusp: one step solves x0, leaving one row per x1 seed; the seed at
    # the origin never moves
    rows = newton_rows_per_round(monkeypatch, "x0^2 + x1^3")
    assert (sum(rows), len(rows), rows[0], max(rows[1:])) == (908, 26, 440, 20)
    rows = newton_rows_per_round(monkeypatch, "x0^3 + x1^2 + x2^2 - x3^2")
    assert (sum(rows), rows[0]) == (6_752, 6_560) and max(rows[1:]) <= 8
    assert sum(newton_rows_per_round(monkeypatch, "x0^3 + x0*x1 + x1*x2")) == 17_463


def test_rows_that_never_coincide_are_all_stepped(monkeypatch):
    rows = newton_rows_per_round(monkeypatch, "x0^2*x1 - x1^3")
    assert (sum(rows), len(rows), rows[0]) == (10_830, 26, 440)


@pytest.mark.parametrize("p", [CONE, axis_pair(), parse_polynomial("x0*x3 - x1*x2"),
                               parse_polynomial("x0^2 - 0.00000000000000000001*x1^2"),
                               # 21^6 seeds would be 85,766,121
                               parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2 + x4^2 - x5^2")],
                         ids=Polynomial.to_string)
def test_a_full_rank_quadric_search_is_one_svd(monkeypatch, p):
    rows, svds = [], []
    for name in ("grad_many", "hessian_many"):
        method = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda self, X, method=method:
                            rows.append((method.__name__, len(X))) or method(self, X))
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda H: svds.append(H.shape) or svd(H))

    def no_grid(self, n):
        raise AssertionError("seed grid built for a full-rank quadric")
    monkeypatch.setattr(Region, "grid", no_grid)
    X = newton_search(p, Region.cube(-2.0, 2.0, p.nvars), seeds_per_axis(p.nvars))
    assert sorted(rows) == [("grad_many", 1), ("hessian_many", 1)]
    assert svds == [(p.nvars, p.nvars)]
    assert same_bits(X, np.zeros((1, p.nvars)))  # the apex, +0.0 in every coordinate


# three Hessians whose smallest singular value is below 1e-15 of the largest
# but nonzero in exact arithmetic
NEARLY_FLAT = ["x1^2 + x2^2 - 0.00000001*x0^2", "x0^2 - 0.00000000000000000001*x1^2",
               "x0^2 + 0.00000000000000000001*x1^2"]


@pytest.mark.parametrize("text", NEARLY_FLAT)
def test_a_nearly_flat_quadric_of_full_rank_has_one_singular_point(text):
    p = parse_polynomial(text)
    found = find_singular_points(p, 0.0, Region.cube(-2.0, 2.0, p.nvars))
    assert len(found) == 1 and same_bits(found[0], np.zeros(p.nvars))


def hessian_of(text, nvars=None):
    p = parse_polynomial(text, nvars=nvars)
    return p.hessian(np.zeros(p.nvars))


@pytest.mark.parametrize("H, want", [
    *[(hessian_of(text), want) for text, want in zip(NEARLY_FLAT, [(2, 1), (1, 1), (2, 0)])],
    # no diagonal entry: a row and its column are added to another first
    (hessian_of("x0*x3 - x1*x2"), (2, 2)),
    (hessian_of("x0*x2 - x1^2"), (1, 2)),
    (hessian_of("x0^2", nvars=3), (1, 0)),
    (CONE.hessian(np.zeros(3)), (2, 1)),
    (hessian_of("1e-308*x0^2 + x1^2"), (2, 0)),  # 2e-308 is subnormal
    (hessian_of("0.25*x0^2 + x0*x1 + x1^2"), (1, 0)),  # (0.5*x0 + x1)^2, exactly
    (np.zeros((3, 3)), (0, 0)),
], ids=[*NEARLY_FLAT, "x0*x3 - x1*x2", "x0*x2 - x1^2", "x0^2", "double cone",
        "1e-308*x0^2 + x1^2", "0.25*x0^2 + x0*x1 + x1^2", "zero"])
def test_inertia_table(H, want):
    assert inertia(H) == want


def integer_symmetric(rng, n):
    """A symmetric n x n matrix of integers in -3..3, its diagonal zeroed
    half the time and each row and its column zeroed with probability 0.2."""
    A = rng.integers(-3, 4, (n, n))
    H = np.triu(A) + np.triu(A, 1).T
    if rng.random() < 0.5:
        np.fill_diagonal(H, 0)
    zero = rng.random(n) < 0.2
    H[zero] = 0
    H[:, zero] = 0
    return H


def unimodular(rng, n):
    """A random integer n x n matrix of determinant +-1: the rows of L U
    permuted, L unit lower and U upper triangular with entries in -1..1 and
    a diagonal of +-1."""
    L = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.diag(rng.choice([-1, 1], n))
    return (L @ U)[rng.permutation(n)]


@pytest.mark.parametrize("seed", range(4))
def test_inertia_is_the_eigenvalue_signs_and_a_congruence_invariant(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        H = integer_symmetric(rng, n)
        got = inertia(H.astype(float))
        # every |eigenvalue| is at most 8 * 3 = 24, and the product of the r
        # nonzero ones is a nonzero integer (a sum of r x r principal minors),
        # so each nonzero one is at least 24^-7 > 2e-10 in size, far from
        # eigvalsh's error of about 1e-14
        eig = np.linalg.eigvalsh(H.astype(float))
        assert got == (np.count_nonzero(eig > 1e-10), np.count_nonzero(eig < -1e-10))
        P = unimodular(rng, n)
        assert inertia((P.T @ H @ P).astype(float)) == got  # Sylvester's law of inertia


@st.composite
def integer_quadrics(draw):
    """A polynomial of degree <= 2 in 1-3 variables with small integer
    coefficients, many of them zero, so rank-deficient Hessians and
    inconsistent critical systems are common."""
    nvars = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])
    return Polynomial(nvars, {e: draw(coeff) for e in monomials})


def rref(A):
    """The reduced row echelon form of the Fraction matrix ``A`` (a list of
    rows) and its pivot columns."""
    A, pivots = [list(row) for row in A], []
    for c in range(len(A[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        A[r] = [v / A[r][c] for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                A[i] = [u - A[i][c] * v for u, v in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def exact_critical_projections(p, X):
    """Each row of ``X`` projected orthogonally onto {Hx + b = 0} in exact
    rational arithmetic, as floats, or None when that system has no
    solution; H and b are p's constant Hessian and its gradient at 0."""
    n = p.nvars
    H = p.hessian(np.zeros(n))
    b = p.grad(np.zeros(n))
    A, pivots = rref([[Fraction(v) for v in H[i]] + [-Fraction(b[i])] for i in range(n)])
    if n in pivots:
        return None  # a row 0 = nonzero
    r = len(pivots)
    B, c = [row[:n] for row in A[:r]], [row[n] for row in A[:r]]  # the solutions: B x = c
    BBt = [[sum(u * v for u, v in zip(bi, bj)) for bj in B] for bi in B]
    out = []
    for x in X:
        # x - B^T y with B B^T y = B x - c
        x = [Fraction(v) for v in x]
        res = [sum(u * v for u, v in zip(bi, x)) - ci for bi, ci in zip(B, c)]
        y = [row[r] for row in rref([row + [v] for row, v in zip(BBt, res)])[0]]
        out.append([float(xj - sum(B[i][j] * y[i] for i in range(r))) for j, xj in enumerate(x)])
    return np.array(out).reshape(len(out), n)


def distance_to_rows(A, B):
    """For each row of ``A``, its distance to the nearest row of ``B``."""
    if not len(B):
        return np.full(len(A), np.inf)
    return np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2).min(axis=1)


@settings(max_examples=60, deadline=None)
@given(integer_quadrics(), st.integers(2, 9))
def test_newton_search_matches_every_round_reference_on_quadrics(p, grid_points):
    region = Region.cube(-2.0, 2.0, p.nvars)
    if p.degree == 0:
        return  # no search: find_singular_points rejects it, as tested below
    got = newton_search(p, region, grid_points)
    want = exact_critical_projections(p, region.grid(grid_points))
    if want is not None:
        # every endpoint is a seed's exact projection, and every projection
        # inside the region (clear of its padded edge) is an endpoint
        assert (distance_to_rows(got, want) <= 1e-12).all()
        inside = want[region.contains(want, pad=1e-10)]
        assert (distance_to_rows(inside, got) <= 1e-12).all()
    # the same two ways round against the every-round reference's endpoints
    X = newton_every_round(p, region, grid_points)
    assert (distance_to_rows(got, X) <= 1e-12).all()
    assert (distance_to_rows(X[region.contains(X, pad=1e-10)], got) <= 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(integer_quadrics(), st.integers(2, 9))
def test_singular_points_match_the_uncached_reference_on_quadrics(p, grid_points):
    region = Region.cube(-2.0, 2.0, p.nvars)
    if p.degree == 0:
        with pytest.raises(ValueError, match="is constant"):
            find_singular_points(p, 0.0, region)
        return
    consistent = exact_critical_projections(p, np.zeros((0, p.nvars))) is not None
    X = newton_every_round(p, region, grid_points)
    for level in REFERENCE_LEVELS:
        # the search at grid_points seeds per axis, which keys its own cache entry
        with mock.patch.object(stratify_module, "seeds_per_axis", lambda n: grid_points):
            found = find_singular_points(p, level, region)
        ref = singular_points_reference(p, level, region, X)
        assert len(found) == len(ref)
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(found, ref))
        if not consistent:
            assert found == []


def test_returned_points_do_not_alias_the_search_cache():
    _newton_endpoints.cache_clear()
    first = find_singular_points(CONE, 0.0, BOX3)
    want = [s.copy() for s in first]
    first[0][:] = 7.0
    first.append(np.ones(3))
    again = find_singular_points(CONE, 0.0, BOX3)
    assert _newton_endpoints.cache_info()[:2] == (1, 1)
    assert len(again) == len(want) and all(np.array_equal(a, b) for a, b in zip(again, want))
    assert np.linalg.norm(again[0]) < 1e-6
    assert all(s.flags.writeable and s.base is None for s in again)
    assert not _newton_endpoints(CONE, BOX3, SEED_GRID).flags.writeable


def singular_points_reference(p, level, region, X):
    """The search without a cache: ``level_masks`` over every Newton endpoint
    ``X`` (``newton_every_round``'s), the padded-region mask, a stable
    lexicographic sort, then the greedy ``MERGE_RADIUS`` merge."""
    pad = 1e-9 * float(np.max(region.widths))
    cands = X[level_masks(p, level, X)[2] & region.contains(X, pad=pad)]
    cands = cands[np.lexsort(cands.T[::-1])]
    out = []
    while cands.shape[0]:
        out.append(cands[0])
        cands = cands[np.linalg.norm(cands - cands[0], axis=1) > MERGE_RADIUS]
    return out


def same_points(got, want):
    return len(got) == len(want) and all(same_bits(a, b) for a, b in zip(got, want))


REFERENCE_LEVELS = [0.0, -0.0, 0.1, -0.1, 1e-12, -1e-12]


@pytest.mark.parametrize("p", [CONE, CUSP, axis_pair(), parse_polynomial("x0^2*x1 - x1^3"),
                               parse_polynomial("x0*x1*x2"), Polynomial(3, {(2, 0, 0): 1.0}),
                               parse_polynomial("x0*x3 - x1*x2"),
                               parse_polynomial("x0^3 + x1^2 + x2^2 - x3^2")],
                         ids=Polynomial.to_string)
def test_singular_points_match_the_uncached_reference(p):
    region = Region.cube(-2.0, 2.0, p.nvars)
    X = newton_every_round(p, region, seeds_per_axis(p.nvars))
    for level in REFERENCE_LEVELS:
        assert same_points(find_singular_points(p, level, region),
                           singular_points_reference(p, level, region, X))


def test_of_endpoints_equal_but_for_a_zero_sign_the_first_seed_stays(monkeypatch):
    # grad p vanishes at both seeds, so neither moves; -0.0 == 0.0 makes them one
    # point.  A cubic, as a full-rank quadric's search uses no seed
    p = parse_polynomial("x0^2 + x1^2 + x0^3")
    region = Region.cube(-1.0, 1.0, 2)
    monkeypatch.setattr(Region, "grid", lambda self, n: np.array([[-0.0, 0.0], [0.0, 0.0]]))
    _newton_endpoints.cache_clear()
    try:
        got = find_singular_points(p, 0.0, region)
        want = singular_points_reference(p, 0.0, region, newton_every_round(p, region))
    finally:
        _newton_endpoints.cache_clear()  # drop the solve from the patched seeds
    assert same_points(got, want) and len(got) == 1
    assert got[0].tobytes() == np.array([-0.0, 0.0]).tobytes()


def test_a_new_level_filters_only_the_distinct_endpoints(monkeypatch):
    region = default_region(3)
    find_singular_points(CONE, 0.0, region)  # the one Newton solve
    rows = []
    grad_many = Polynomial.grad_many
    monkeypatch.setattr(Polynomial, "grad_many",
                        lambda self, X: rows.append(len(X)) or grad_many(self, X))
    assert find_singular_points(CONE, 0.1, region) == []
    # the one distinct endpoint is the apex
    assert rows == [1]


@pytest.mark.parametrize("p", [Polynomial(3, {}), parse_polynomial("0*x0 + 0*x1 + 0*x2"),
                               Polynomial(2, {(0, 0): 2.5})], ids=["empty", "zeros", "2.5"])
def test_constant_polynomials_rejected(p):
    region = Region.cube(-2.0, 2.0, p.nvars)
    message = re.escape(f"polynomial '{p.to_string()}' is constant: each of its level sets "
                        f"is empty or all of R^{p.nvars}")
    for check in (lambda: find_singular_points(p, 0.1, region),
                  lambda: stratify(p, 0.0, region),
                  lambda: decide(p, 0.1, region),
                  lambda: morse_inertia(p, region),
                  lambda: smoothness_check(deform(p, 0.1, region)),
                  lambda: proximity_check(deform(p, 0.1, region), 0.3)):
        with pytest.raises(ValueError, match=message):
            check()


def test_polynomial_systems_rejected():
    with pytest.raises(NotImplementedError):
        find_singular_points([CONE, CUSP], 0.0, BOX3)
    with pytest.raises(NotImplementedError):
        stratify((CONE,), 0.0, BOX3)


def test_seed_grid_table():
    # no dimension seeds more than the 3-D grid, and every count is odd, so
    # each axis has a seed on its centre plane: k^n <= 21^3 < (k+2)^n below 21
    got = [seeds_per_axis(n) for n in range(1, 9)]
    assert got == [SEED_GRID] * 3 + [9, 5, 3, 3, 3]
    for n, k in enumerate(got, start=1):
        assert k % 2 == 1
        assert k == SEED_GRID if n <= 3 else k ** n <= SEED_GRID ** 3 < (k + 2) ** n


@pytest.mark.parametrize("n", [5, 6])
def test_a_seed_on_every_centre_plane_finds_the_origin(n):
    # sum of x_i^4 - 2 x_i^2 has a critical point at every corner of
    # {-1, 0, 1}^n, and only the origin is on the level 0; an even count per
    # axis (4 at n = 6) seeded no centre plane and found only the 2^n minima
    p = parse_polynomial(" + ".join(f"x{i}^4 - 2*x{i}^2" for i in range(n)))
    region = default_region(n)
    assert len(_newton_endpoints(p, region, seeds_per_axis(n))) == 3 ** n
    assert [x.tolist() for x in find_singular_points(p, 0.0, region)] == [[0.0] * n]


def test_a_four_variable_cubic_is_searched_from_nine_seeds_per_axis(monkeypatch):
    p = parse_polynomial("x0^3 + x1^2 + x2^2 - x3^2")
    grids = []
    grid = Region.grid
    monkeypatch.setattr(Region, "grid", lambda self, n: grids.append(n) or grid(self, n))
    _newton_endpoints.cache_clear()
    chosen, why, _ = decide(p, 0.1)
    # one search, from 9^4 seeds, serves the Morse rule and both smoothness checks
    assert grids == [9] and _newton_endpoints.cache_info().misses == 1
    assert (chosen.level, why) == (0.1, "tie")
    # and the same seeds, from the cache, for a direct search
    assert len(find_singular_points(p, 0.0, default_region(4))) == 1 and grids == [9]


def test_region_mismatch_rejected():
    with pytest.raises(ValueError):
        find_singular_points(CONE, 0.0, BOX2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["1e308*x0^2", "1e308*x0^2 + x1^2"])
def test_a_quadric_whose_hessian_overflows_has_no_singular_point(text):
    # 2e308 is inf: grad p is inf or NaN everywhere, so no point is critical
    p = parse_polynomial(text)
    region = Region.cube(-2.0, 2.0, p.nvars)
    assert newton_search(p, region, SEED_GRID).shape == (0, p.nvars)
    assert find_singular_points(p, 0.0, region) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, want", [
    ("1e300*x0^2 + 1e-300*x1^2", [[0.0, 0.0]]),
    ("1e300*x0^2 + 1e-300*x1^2 + x1", []),  # its critical point x1 = -5e299 is off the region
])
def test_a_quadric_wider_than_the_float_range_keeps_its_exact_rank(text, want):
    # H = diag(2e300, 2e-300) has rank 2, but an SVD that scales H by its
    # largest entry can return 0.0 for the smaller singular value; no
    # division by that zero may lose the apex or warn
    p = parse_polynomial(text)
    assert inertia(p.hessian(np.zeros(2))) == (2, 0)
    assert [s.tolist() for s in find_singular_points(p, 0.0, BOX2)] == want


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


@pytest.mark.parametrize("p, level", [
    (CONE, 0.0), (CONE, 0.1), (CUSP, 0.0), (CUSP, -0.2),
    (parse_polynomial("x0^2 - 0.5"), 0.1),
    (parse_polynomial("x0*x1*x2"), 0.1),
    (parse_polynomial("x0*x3 - x1*x2"), 0.0),
    # at 8 variables numpy sums |grad p|^2 pairwise, not left to right
    (parse_polynomial("x0^2+x1^2+x2^2+x3^2+x4^2+x5^2+x6^2-x7^2"), 0.1),
    (parse_polynomial("x0*x1 - x2*x3 + x4^3 - x5*x6*x7"), 0.1),
])
def test_projection_matches_every_row_reference(p, level):
    # at level 0 rows near the singular point converge slowly, so the rows
    # still moving shrink over many steps; NaN and inf rows never move
    X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2000, p.nvars))
    X[::97] = np.nan
    X[5::101, 0] = np.inf
    Y, ok = project_to_level(p, level, X)
    want = project_every_row(p, level, X)
    assert Y.tobytes() == want.tobytes()
    assert np.array_equal(ok, np.isfinite(want).all(axis=1)
                          & (np.abs(p.eval_many(want) - level) <= PROJECTION_TOL))
    assert 0.0 < ok.mean() < 1.0


@pytest.mark.parametrize("p, X, converged", [
    # p and one partial overflow to inf, so the first step is inf / inf and
    # leaves a NaN row, which never moves again
    (CUSP, [[1e200, 1e200], [0.5, -0.5]], [False, True]),
    # |grad p|^2 = 1e-32 steps by exactly zero, which keeps x0 = -0.0
    (parse_polynomial("x0*x1"), [[-0.0, -1e-16], [1.0, 1.0]], [False, True]),
    (CUSP, np.empty((0, 2)), []),
], ids=["overflow after one step", "zero step keeps -0.0", "no rows"])
def test_projection_edge_rows_match_every_row_reference(p, X, converged):
    X = np.array(X, dtype=float)
    Y, ok = project_to_level(p, 0.1, X)
    with np.errstate(over="ignore", invalid="ignore"):
        want = project_every_row(p, 0.1, X)
    assert Y.shape == want.shape and Y.tobytes() == want.tobytes()
    assert ok.tolist() == converged


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [CONE, parse_polynomial("x0*x1*x2 - x0^2 + x1")])
def test_projection_in_a_huge_box_matches_every_row_reference(p):
    # p, its partials and |grad p|^2 overflow to inf and the steps to NaN,
    # without a numpy warning
    X = np.random.default_rng(4).uniform(-1e300, 1e300, size=(500, 3))
    Y, ok = project_to_level(p, 0.1, X)
    with np.errstate(over="ignore", invalid="ignore"):
        want = project_every_row(p, 0.1, X)
    assert Y.tobytes() == want.tobytes()
    assert not ok.any()


def test_projection_steps_a_c_contiguous_block(monkeypatch):
    # at level 0 the cusp's rows stop over all PROJECTION_MAX_ITER steps; the
    # block of moving rows stays in C order through every compaction, so p
    # and its partials see C-contiguous coordinate columns
    contiguous = []
    eval_many = Polynomial.eval_many
    monkeypatch.setattr(Polynomial, "eval_many", lambda self, X: contiguous.append(
        X.T.flags.c_contiguous) or eval_many(self, X))
    X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2000, 2))
    Y, ok = project_to_level(CUSP, 0.0, X)
    assert len(contiguous) == PROJECTION_MAX_ITER * (1 + CUSP.nvars) + 1 and all(contiguous)
    assert Y.flags.c_contiguous and Y.flags.writeable
    assert 0.0 < ok.mean() < 1.0


def test_projection_reads_a_read_only_input():
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
    X.setflags(write=False)
    before = X.copy()
    Y, ok = project_to_level(CONE, 0.1, X)
    assert X.tobytes() == before.tobytes()
    assert Y.flags.writeable and ok.all()


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_projection_rejects_a_non_finite_level(level):
    with pytest.raises(ValueError, match=f"level must be finite, got {level}"):
        project_to_level(CUSP, level, np.zeros((3, 2)))


# -- tangent dimension, by level_masks ------------------------------------------

def tangent_dim(p, level, x):
    """nvars - 1 where ``level_masks`` calls x on the level and regular, None
    where it calls x singular."""
    _, on, sing = level_masks(p, level, np.atleast_2d(np.asarray(x, dtype=float)))
    assert on[0]
    return None if sing[0] else p.nvars - 1


def test_tangent_dimension_regular_cone_point():
    assert tangent_dim(CONE, 0.0, [1, 1, 0]) == 2


def test_tangent_dimension_apex_is_singular():
    assert tangent_dim(CONE, 0.0, [0, 0, 0]) is None


def test_tangent_dimension_cusp_regular():
    assert tangent_dim(CUSP, 0.0, [1, -1]) == 1


def test_every_regular_sample_reports_top_dimension():
    # points on the cone away from the apex via the radial chart
    rng = np.random.default_rng(11)
    for _ in range(50):
        xi = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        th = rng.uniform(-np.pi, np.pi)
        x = np.array([xi, xi * np.cos(th), xi * np.sin(th)])
        assert tangent_dim(CONE, 0.0, x) == 2


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


def test_region_width_must_be_finite():
    # each bound is finite, but 1e308 - (-1e308) overflows; no numpy warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="width"):
            Region.cube(-1e308, 1e308, 2)
    assert Region.cube(-1e300, 1e300, 2).widths.tolist() == [2e300, 2e300]


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
