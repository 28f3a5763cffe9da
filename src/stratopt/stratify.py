"""Decompose a polynomial hypersurface into singular points and regular strata.

Singular points of the level set {p = level} are the points where the
gradient of p vanishes on the level set.  They are located among the
endpoints of Newton's method on the critical-point system (grad p = 0) from
a uniform grid of seeds, set by the dimension (``seeds_per_axis``),
filtered to the level set and deduplicated.  At degree at most 2 grad p is
affine, and those endpoints come from one SVD of the constant Hessian
instead of Newton rounds, with the rank that ``inertia`` computes exactly
for the Hessian as parsed.  Above degree 2, seeds whose iterates become
equal bit for bit share one row from then on, so a round steps each
distinct iterate once; every endpoint keeps its bits.  The endpoints do not
depend on the level, so their distinct values are cached per process
(``NEWTON_CACHE_SIZE`` entries, keyed on the polynomial and the region):
every level searched on one variety and region filters the endpoints of a
single solve.  A ``Region`` is a value, with read-only copied bounds and
equality by their bytes, so an equal region built from other arrays finds
that solve.
``project_to_level``, the Newton projection onto a level set that the
ball-radius probes and ``resolve`` use, lives here too.  It keeps the rows
still moving as C-contiguous coordinate columns and drops a row's column
with ``take`` once it stops (a boolean mask on axis 1 would return the block
in F order), so its per-step work is whole-column arithmetic; every row
gets the bits of the row-by-row iteration.
The tolerances, iteration limits and probe counts are the module constants
below, not per-call settings.  Only the hypersurface case (a single
polynomial) is supported; systems of several polynomials are rejected.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial

TOL_CRIT = 1e-8      # gradient norm below this counts as critical
TOL_ON = 1e-9        # |p - level| below this counts as on the level set
MERGE_RADIUS = 1e-4  # candidate roots closer than this are duplicates
SEED_GRID = 21       # Newton seeds per axis up to 3-D; SEED_GRID^3 seeds at most
NEWTON_MAX_ITER = 50
NEWTON_CACHE_SIZE = 32  # cached Newton solves, one per (variety, region)
PROJECTION_TOL = 1e-12   # |p - level| a projected point must reach
PROJECTION_MAX_ITER = 60
BALL_PROBES = 256        # projected probes per tested ball radius


class OffVarietyError(ValueError):
    """The queried point does not lie on the level set."""


def _drops_overflow(fn):
    """``fn`` without numpy's overflow and invalid-value warnings: in a huge
    region its sums can overflow to inf or NaN rows, which it drops.  Each
    function gets its own errstate, since numpy 1.x's is not reentrant."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


@dataclass(frozen=True, eq=False)
class Region:
    """Axis-aligned box given by componentwise lower < upper bounds, each
    width finite.

    A value: its bounds are read-only float64 copies, and regions with the
    same bound bytes are equal and hash alike (a -0.0 bound differs from 0.0).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float, ndmin=1)
        hi = np.array(self.upper, dtype=float, ndmin=1)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("region bounds must be finite")
        if not (lo < hi).all():
            raise ValueError("region requires lower < upper componentwise")
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.isfinite(width).all():
            raise ValueError(f"region width upper - lower must be finite, got {width.tolist()}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def _key(self) -> tuple[bytes, bytes]:
        return self.lower.tobytes(), self.upper.tobytes()

    def __eq__(self, other):
        return isinstance(other, Region) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "Region":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, pad: float = 0.0):
        """Whether a point lies in the box widened by ``pad``: a ``bool`` for
        one point, a boolean mask over the rows of an ``(m, dim)`` array."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower - pad) & (x <= self.upper + pad)
        if inside.ndim <= 1:
            return bool(inside.all())
        return inside.all(axis=-1)

    def grid(self, points_per_axis: int) -> np.ndarray:
        """Uniform grid of seed points, shape (points_per_axis**dim, dim)."""
        mesh = np.meshgrid(*self.axes(points_per_axis), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def axes(self, n: int) -> list[np.ndarray]:
        """``n`` evenly spaced coordinates from lower to upper bound, per axis."""
        return [np.linspace(lo, hi, n) for lo, hi in zip(self.lower, self.upper)]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


@dataclass(frozen=True)
class SimplexStrata:
    """Open-face counts of the standard n-simplex, keyed by face dimension."""

    n: int
    counts: dict[int, int]


@dataclass
class Stratification:
    """A hypersurface split into its 0-dimensional singular set and top stratum."""

    singular_points: list[np.ndarray]
    regular_dim: int
    ball_radii: list[float] = field(default_factory=list)


def _reject_systems(p):
    if isinstance(p, (list, tuple, set)):
        raise NotImplementedError(
            "only single-polynomial hypersurfaces are supported; "
            "systems of polynomials (general varieties) are out of scope"
        )
    if not isinstance(p, Polynomial):
        raise TypeError(f"expected a Polynomial, got {type(p).__name__}")


def seeds_per_axis(nvars: int) -> int:
    """Newton seeds per axis in ``nvars`` dimensions: the largest odd k <=
    ``SEED_GRID`` with k^nvars <= SEED_GRID^3 (21 up to 3-D, then 9, 5, 3, 3
    and 3 for 4 to 8 variables).  An odd count puts a seed on the centre
    plane of every axis."""
    return max(k for k in range(1, SEED_GRID + 1, 2) if k ** nvars <= SEED_GRID ** 3)


def find_singular_points(p: Polynomial, level: float, region: Region) -> list[np.ndarray]:
    """All points in ``region`` where grad p = 0 and p = level.

    The candidates are the endpoints of Newton's method on grad p = 0 from
    each of the ``seeds_per_axis(p.nvars)``-per-axis seeds, one grid for
    every caller; its minimal-norm step (pseudoinverse of the Hessian) keeps
    degenerate critical points reachable; seeds whose iterates coincide are
    stepped as one row.  A polynomial of degree at most 2 is solved, not iterated:
    its critical set {Hx + b = 0} comes from one SVD and the exact rank of
    H, so every critical point is found.  Of the cached distinct endpoints
    (``_newton_endpoints``), those ``level_masks`` finds singular count;
    they are merged within ``MERGE_RADIUS`` and returned sorted
    lexicographically, as new arrays.
    A constant polynomial, whose level sets are empty or all of R^n, is a
    ``ValueError``.
    """
    _reject_systems(p)
    if p.nvars != region.dim:
        raise ValueError(f"polynomial has {p.nvars} variables, region has dim {region.dim}")
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    if p.degree == 0:
        raise ValueError(f"polynomial {p.to_string()!r} is constant: each of its level sets "
                         f"is empty or all of R^{p.nvars}")
    X = _newton_endpoints(p, region, seeds_per_axis(p.nvars))
    cands = X[level_masks(p, level, X)[2]]
    out: list[np.ndarray] = []
    # keep the first remaining candidate, drop every candidate within
    # MERGE_RADIUS of it; on the sorted order this keeps a candidate iff it is
    # farther than MERGE_RADIUS from every point kept before it; in a huge
    # region a distance can overflow to inf, which is farther
    with np.errstate(over="ignore", invalid="ignore"):
        while cands.shape[0]:
            out.append(cands[0].copy())
            cands = cands[np.linalg.norm(cands - cands[0], axis=1) > MERGE_RADIUS]
    return out


def inertia(H) -> tuple[int, int]:
    """The counts (k+, k-) of positive and negative eigenvalues of the finite
    symmetric float matrix ``H``, exact: one power of two makes H integer,
    and symmetric elimination pivots on a nonzero diagonal entry d (made by
    adding a row and its column to another's when none is left, as in Bunch
    & Kaufman 1977), going on with the Schur complement times |d|, which keeps
    its inertia (Sylvester's law)."""
    ratios = [[float(v).as_integer_ratio() for v in row] for row in H]
    den = max((d for row in ratios for _, d in row), default=1)  # each d is a power of 2
    A = [[m * (den // d) for m, d in row] for row in ratios]
    counts = [0, 0]
    while any(map(any, A)):  # a zero remainder has only zero eigenvalues
        i = next((i for i in range(len(A)) if A[i][i]), None)
        if i is None:
            i, j = next((i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v)
            A[i] = [u + v for u, v in zip(A[i], A[j])]
            for row in A:
                row[i] += row[j]
        d = A[i][i]
        counts[d < 0] += 1
        rest = [k for k in range(len(A)) if k != i]
        A = [[abs(d) * A[k][m] - (1 if d > 0 else -1) * A[k][i] * A[i][m] for m in rest]
             for k in rest]
    return counts[0], counts[1]


@functools.lru_cache(maxsize=NEWTON_CACHE_SIZE)
@_drops_overflow
def _newton_endpoints(p: Polynomial, region: Region, per_axis: int) -> np.ndarray:
    """Distinct endpoints of Newton's method on grad p = 0 from every seed of
    the ``per_axis``-per-axis grid of ``region``, sorted lexicographically;
    read-only, shared by callers.  ``find_singular_points`` passes
    ``seeds_per_axis(p.nvars)``; as an argument it keys the cache.

    At degree at most 2, grad p = Hx + b is affine, and the endpoints are
    where the minimal-norm Newton step lands, worked out from one SVD of the
    constant Hessian H and its exact rank r = k+ + k- (``inertia``): x_p =
    -H^+ b from the top r singular triplets, and the endpoints are x_p
    alone when H has full rank, else each seed's projection x_p + (X -
    x_p) N N^T, N spanning null(H).  The apex of a homogeneous quadric (b =
    0) is +0.0.  A non-finite H or b leaves no endpoint: grad p is then
    nowhere finite.

    At degree 3 and up, a round steps every finite row whose gradient is
    finite and nonzero by ``-pinv(H) @ grad``, each row by its own Hessian,
    until no row is left to step or after ``NEWTON_MAX_ITER`` rounds.  A
    row whose Hessian is not finite steps by NaN without a solve: that is
    ``pinv``'s result when LAPACK returns, but its SVD can also raise or
    never return on such a matrix.  After
    a round, rows equal bit for bit (``np.unique`` over their raw bytes)
    become one, and ``owner`` maps each seed to its row, which ``X[owner]``
    expands back at the end.  Every operation of a round works row by row,
    so equal rows take equal steps and each endpoint has the bits of the
    unmerged search; rows that differ in a zero's sign or a NaN payload stay
    apart.  Merging stops after the first round that merges nothing.

    Only the endpoints in the region padded by 1e-9 of its largest width
    stay (no inf or NaN row does), and of rows equal in value (-0.0 equals
    0.0) the first in seed order.
    """
    if p.degree <= 2:
        origin = np.zeros((1, p.nvars))
        H, b = p.hessian_many(origin)[0], p.grad_many(origin)[0]
        if not (np.isfinite(H).all() and np.isfinite(b).all()):
            X = np.empty((0, p.nvars))
        else:
            U, s, Vt = np.linalg.svd(H)
            rank = sum(inertia(H))
            # skip an s that underflowed to 0; 0.0 - y, not -y: a zero of y is +0.0
            x_p = 0.0 - Vt[:rank].T @ np.divide(U[:, :rank].T @ b, s[:rank],
                                                out=np.zeros(rank), where=s[:rank] > 0)
            if rank == p.nvars:
                X = x_p[None, :]
            else:
                N = Vt[rank:].T
                X = x_p + (region.grid(per_axis) - x_p) @ N @ N.T
    else:
        X = region.grid(per_axis)
        owner = np.arange(X.shape[0])  # seed i's iterate is X[owner[i]]
        merging = True
        for _ in range(NEWTON_MAX_ITER):
            finite = np.isfinite(X).all(axis=1)
            G = np.zeros_like(X)
            G[finite] = p.grad_many(X[finite])
            active = finite & np.isfinite(G).all(axis=1) & (np.linalg.norm(G, axis=1) > 1e-14)
            if not active.any():
                break
            H = p.hessian_many(X[active])
            # LAPACK's SVD can raise or never return on a non-finite H
            solvable = np.isfinite(H).all(axis=(1, 2))
            H_pinv = np.full_like(H, np.nan)
            H_pinv[solvable] = np.linalg.pinv(H[solvable])
            step = -np.einsum("kij,kj->ki", H_pinv, G[active])
            X[active] = X[active] + step
            if merging:  # one row per distinct bytes: equal rows take equal steps
                rows = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
                _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
                merging = first.shape[0] < X.shape[0]
                if merging:
                    X, owner = X[first], inverse[owner]
        X = X[owner]
    X = X[region.contains(X, pad=1e-9 * float(np.max(region.widths)))]
    X = X[np.lexsort(X.T[::-1])]  # primary key: first coordinate
    if X.shape[0]:
        X = X[np.r_[True, (np.diff(X, axis=0) != 0).any(axis=1)]]
    X.setflags(write=False)
    return X


@_drops_overflow
def level_masks(p: Polynomial, level: float, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of p at the rows of the (m, n) array ``X``, the on-level mask
    (|p - level| < ``TOL_ON``) and the singular mask (on the level and
    |grad p| < ``TOL_CRIT``): the one test that classifies points against a
    level set."""
    G = p.grad_many(X)
    on_level = np.abs(p.eval_many(X) - level) < TOL_ON
    return G, on_level, on_level & (np.linalg.norm(G, axis=1) < TOL_CRIT)


def _sum_of_squares(cols):
    """Sum of the squared columns with the float adds of numpy's row sum
    ``(G * G).sum(axis=1)``: left to right up to 7 columns, and pairwise,
    ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``, at ``MAX_NVARS = 8``."""
    sq = [g * g for g in cols]
    if len(sq) == 8:
        return ((sq[0] + sq[1]) + (sq[2] + sq[3])) + ((sq[4] + sq[5]) + (sq[6] + sq[7]))
    total = sq[0]
    for s in sq[1:]:
        total = total + s
    return total


@_drops_overflow
def project_to_level(p: Polynomial, level: float, X) -> tuple[np.ndarray, np.ndarray]:
    """First-order Newton projection of the rows of X onto {p = level}.

    Each point moves along the gradient direction by (p(x)-level)/|grad p|^2,
    for at most ``PROJECTION_MAX_ITER`` steps; a non-finite row, or one
    whose p is NaN, never moves, and one with |grad p|^2 <= 1e-30 steps by
    exactly zero.  Returns (points, converged mask); a row converged when
    |p(x) - level| <= ``PROJECTION_TOL``, and non-converged rows hold their
    last iterate.  A non-finite ``level`` is a ``ValueError``.

    The rows still moving live in one C-contiguous (n, k) block of
    coordinate columns beside their row numbers, so each step works on whole
    columns; p and its partials are evaluated on the block's transpose.
    When rows stop, ``take`` on axis 1 drops their columns and keeps the
    block C-contiguous (``C[:, mask]`` would return it F-contiguous, and
    every later step would work on strided rows), and each stopped row is
    written to the output once, converged or not by the value that stopped
    it.  Every row has the bits of the row-by-row iteration:
    ``_sum_of_squares`` keeps numpy's order for |grad p|^2.  On 10,000
    uniform rows of [-2, 2]^n at level 0.1, the double cone takes about
    1.6 ms and the cusp 5.3 ms (3.0 and 7.8 ms with the mask; 1,000,000
    rows: 0.25 and 0.65 s, from 0.44 and 0.95 s), in process, best of 30,
    on a 2-vCPU x86_64 VM with Python 3.11.7 and numpy 2.4.6.
    """
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape)
    ok = np.zeros(X.shape[0], dtype=bool)
    rows = np.arange(X.shape[0])
    C = X.T.copy()
    partials = [p.diff(j) for j in range(p.nvars)]
    for step in range(PROJECTION_MAX_ITER + 1):
        finite = np.isfinite(C).all(axis=0)
        f = p.eval_many(C.T) - level
        # the last pass only settles the rows still moving after the last step
        moving = finite & (np.abs(f) > PROJECTION_TOL) & (step < PROJECTION_MAX_ITER)
        if not moving.all():
            done, keep = np.flatnonzero(~moving), np.flatnonzero(moving)
            out[rows[done]] = C.take(done, axis=1).T
            ok[rows[done]] = finite[done] & (np.abs(f[done]) <= PROJECTION_TOL)
            # take keeps C in C order; C[:, moving] would return it in F order
            rows, C, f = rows[keep], C.take(keep, axis=1), f[keep]
        if not rows.size:
            break
        G = [d.eval_many(C.T) for d in partials]
        gn2 = _sum_of_squares(G)
        safe = gn2 > 1e-30
        scale = np.divide(f, gn2, out=np.zeros_like(f), where=safe)
        for j, g in enumerate(G):
            C[j] -= np.where(safe, scale * g, 0.0)
    return out, ok


@_drops_overflow
def _enclosing_ball_radius(p: Polynomial, level: float, s: np.ndarray, region: Region) -> float:
    """Largest tested radius r such that the squared distance to ``s``,
    restricted to the level set inside the ball of radius r (minus ``s``),
    shows no critical point among sampled on-variety points.

    A critical point of the distance would have (x - s) parallel to grad p;
    sampled points are screened by the angle between the two; ``BALL_PROBES``
    points are projected per tested radius from a generator seeded with 0.
    """
    rng = np.random.default_rng(0)
    r_max = 0.5 * float(np.min(region.widths))
    radii = [r_max * 0.75 ** k for k in range(13)]
    best = radii[-1]
    for r in radii:
        dirs = rng.standard_normal((BALL_PROBES, p.nvars))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        probes = s + dirs * rng.uniform(0.05 * r, r, size=(BALL_PROBES, 1))
        Y, ok = project_to_level(p, level, probes)
        Y = Y[ok]
        d = np.linalg.norm(Y - s, axis=1)
        # the lower cutoff scales with r so slow projections that stall a hair
        # away from s itself are not mistaken for distinct variety points
        keep = (d > max(1e-6, 1e-3 * r)) & (d <= r)
        Y, d = Y[keep], d[keep]
        if Y.shape[0] == 0:
            best = r
            break
        G, _, singular = level_masks(p, level, Y)
        if singular.any():  # a singular probe is a critical point
            continue
        cosang = np.abs((G * (Y - s)).sum(axis=1) / (np.linalg.norm(G, axis=1) * d))
        if not (cosang > 1.0 - 1e-6).any():
            best = r
            break
    return best


def stratify(p: Polynomial, level: float, region: Region) -> Stratification:
    """Stratification of {p = level}: singular points plus the top stratum.

    The singular points are ``find_singular_points``'s, from the seed grid
    of the dimension.  Per singular point, ``ball_radii`` records a
    numerically estimated radius within which the distance-to-the-point
    function has no critical value on the punctured variety; one warning,
    naming the number of such pairs and the closest one, is issued when
    singular points sit closer than four times the largest such radius.
    """
    sing = find_singular_points(p, level, region)
    radii = [_enclosing_ball_radius(p, level, s, region) for s in sing]
    if len(sing) >= 2:
        r4 = 4.0 * max(radii)
        i, j = np.triu_indices(len(sing), k=1)
        S = np.array(sing)
        # hypot, not a sum of squares, which overflows to inf in a huge region
        gaps = np.hypot.reduce(np.abs(S[i] - S[j]), axis=1)
        n_close = int(np.count_nonzero(gaps < r4))
        if n_close:
            k = int(np.argmin(gaps))  # the closest pair is one of the close ones
            warnings.warn(
                f"{n_close} pair(s) of singular points closer than 4*max(ball radius) "
                f"= {r4:.3g}; closest: points {i[k]} and {j[k]}, {gaps[k]:.3g} apart; "
                "shrink the ball estimates",
                RuntimeWarning,
                stacklevel=2,
            )
    return Stratification(
        singular_points=sing,
        regular_dim=p.nvars - 1,
        ball_radii=radii,
    )


def simplex_strata(n: int) -> SimplexStrata:
    """Open i-face counts of the standard n-simplex: C(n+1, i+1) for 0 <= i <= n."""
    if not isinstance(n, int) or not 0 <= n <= 20:
        raise ValueError(f"simplex dimension must be an integer in [0, 20], got {n!r}")
    return SimplexStrata(n=n, counts={i: math.comb(n + 1, i + 1) for i in range(n + 1)})
