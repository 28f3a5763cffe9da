"""Smooth deformations {p = c} of a singular variety {p = 0}.

A deformation at a regular value c is a smooth hypersurface approximating
the singular one away from its singular points.  ``decide`` picks the sign
of c = +/-eps by one rule.  By the Morse lemma (Milnor 1963, *Morse
Theory*, section 2), near a singular point of Hessian inertia (k+, k-) the
level {p = +eps} is S^(k+ - 1) x R^(k-) for every small eps: 1 piece if
k+ >= 2, 2 if k+ = 1 and none if k+ = 0 (-eps swaps k+ and k-).  When every
singular point of {p = 0} in the region is such a point and indefinite
(k+, k- >= 1), and every one has fewer local pieces at the same sign, that
sign wins: going from the other level to it joins two local pieces or adds
a handle, so it has no more components on the whole region either.  This
sees necks of width ~sqrt(eps) that no grid over the whole box resolves,
and costs one Hessian per point.  Otherwise (no singular point, a
degenerate or definite one, or points that prefer no common sign) the sign
is chosen by connectivity over the whole region: the level set with fewer
connected components wins (an empty level set never wins).  Components are
counted on an occupancy grid whose corner lattice is streamed along x0, in
slabs of consecutive corner planes (about ``SLAB_CORNERS`` corners, at
least two planes each).  A slab is evaluated by
``Polynomial.eval_grid`` (no corner coordinates are stored), and a cell is
occupied when its corners' signs differ: the cell test of marching cubes
(Lorensen & Cline 1987), made from boolean sign masks OR-reduced over each
axis.  As in Hoshen & Kopelman's (1976) layer-by-layer cluster labelling,
a slab is reduced to the sorted C-order ids of its occupied cells before
the next one is evaluated, so a slab and the occupied cells set the
memory, not the lattice.  As in He, Chao & Suzuki's (2008) run-based
labelling, each run of consecutive occupied cells along the last axis is
one node; two runs are joined when, shifted by one cell along another
axis, one overlaps the other, which two ``np.searchsorted`` calls on the
runs' ends find.  A slab's seam is such a pair of runs too.  The runs are
labelled in numpy by min-label hooking and pointer jumping (Shiloach &
Vishkin 1982), so the count is deterministic.  ``scipy.ndimage.label``
would label faster, but the runtime dependencies stay ``numpy`` only.

``decide`` is the one level decision: ``stratopt resolve`` prints it, and a
run builds its hyperboloid chart at the level it picks for the double cone.
A level is smooth when it is a regular value: ``smoothness_check`` asks
whether a critical point of p lies on it and draws no samples, so
``decide`` on the double cone costs about 0.2 ms per eps once the singular
search is cached, and about 0.4 ms with that search.
``proximity_check`` and ``stratopt resolve --csv`` project
``level_samples``, uniform samples from seed 0, onto the chosen level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial
from .stratify import (TOL_CRIT, OffVarietyError, Region, find_singular_points, inertia,
                       level_masks, project_to_level)

DEFAULT_GRID_N = 64  # the default grid_n up to 3-D (``default_grid_n``)
# grid corners count_components may evaluate: a bound on its work, as the slabs
# bound its memory; 129^3 fits
MAX_CORNERS = 4_000_000
# corners in a slab of x0 corner planes, rounded down to whole planes (at least
# two, one cell layer): the default 3-D grid is one slab (2.2 MB of float64), as
# every slab adds a fixed cost of numpy calls
SLAB_CORNERS = (DEFAULT_GRID_N + 1) ** 3
CHECK_SAMPLES = 10_000  # uniform samples behind the proximity check
MAX_SAMPLES = 1_000_000  # most projected samples `stratopt resolve --csv` may ask for
# from degree 3 (a quadric's inertia is exact, ``stratify.inertia``), a singular
# point is degenerate when a Hessian eigenvalue is at most MORSE_TOL * sqrt(c)
# in size, c the largest |coefficient| of degree >= 2.  Newton stops a row at
# |grad p| <= 1e-14 (``_newton_endpoints``), which leaves c*x^3 at eigenvalue
# sqrt(12e-14 * c) ~ 3.5e-7 * sqrt(c), while a Morse point c*x^2 has 2c: the
# test reads both alike at every coefficient scale (a Morse point below c ~
# 2.5e-9 reads degenerate and falls back to the counts).  Not relative to the
# largest eigenvalue: all can be small alike at a degenerate point
# (x0^2*x1 - x1^3: -1.67e-7 and 3.1e-7)
MORSE_TOL = math.sqrt(TOL_CRIT)


class ResolutionError(RuntimeError):
    """Neither candidate deformation level yields a usable smooth variety."""


class ProjectionError(RuntimeError):
    """No sample could be projected onto the base variety."""


class NoSamplesError(RuntimeError):
    """No sampled variety points survive the exclusion filter."""


@dataclass(frozen=True)
class Deformation:
    """The level set {base = level} over a bounding region."""

    base: Polynomial
    level: float
    region: Region

    def __post_init__(self):
        if self.base.nvars != self.region.dim:
            raise ValueError("polynomial nvars and region dimension differ")
        if not math.isfinite(self.level):
            raise ValueError(f"deformation level must be finite, got {self.level}")


@dataclass(frozen=True)
class ComponentReport:
    count: int
    grid_spacing: float
    occupied_cells: int


def default_region(nvars: int) -> Region:
    return Region.cube(-2.0, 2.0, nvars)


def deform(p: Polynomial, c: float, region: Region | None = None) -> Deformation:
    """The deformation {p = c}; validity at level c is checked by the callers' probes."""
    return Deformation(base=p, level=float(c), region=region or default_region(p.nvars))


def default_grid_n(nvars: int) -> int:
    """The default ``grid_n`` in ``nvars`` dimensions: the largest g <=
    ``DEFAULT_GRID_N`` whose (g + 1)^nvars corners fit in ``MAX_CORNERS`` (64
    up to 3-D, 43 at 4-D, 19 at 5-D), else 16, the least grid."""
    fits = [g for g in range(16, DEFAULT_GRID_N + 1) if (g + 1) ** nvars <= MAX_CORNERS]
    return fits[-1] if fits else 16


def count_components(d: Deformation, grid_n: int | None = None) -> ComponentReport:
    """Connected components of {base = level} on an occupancy grid.

    base - level is evaluated on the (grid_n + 1)^dim corner lattice
    (``Polynomial.eval_grid``; ``grid_n`` is ``default_grid_n(dim)`` unless
    given), one slab of consecutive x0 corner planes at a time.  A cell is
    occupied iff some corner is <= 0, some corner is >= 0 and no corner is
    NaN (a NaN value, e.g. from an overflow to inf - inf, leaves its cells
    unoccupied); the three sign masks are OR-reduced over each axis's face
    slices.  Occupied cells sharing a face belong to one component.  Only the ids of the occupied cells outlive their slab; a
    run of consecutive ids within one row of the last axis is one node, and
    it is joined to every run across its faces along the other axes.
    """
    p, region, dim = d.base, d.region, d.region.dim
    if grid_n is None:
        grid_n = default_grid_n(dim)
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    if (grid_n + 1) ** dim > MAX_CORNERS:
        hint = "lower grid_n" if 17 ** dim <= MAX_CORNERS else "no grid_n >= 16 fits"
        raise ValueError(f"grid_n={grid_n} in {dim} dimensions needs {(grid_n + 1) ** dim} "
                         f"corners, more than MAX_CORNERS={MAX_CORNERS}; {hint}")
    axes = region.axes(grid_n + 1)
    layers = max(1, SLAB_CORNERS // (grid_n + 1) ** (dim - 1) - 1)  # cell layers per slab
    layer = grid_n ** (dim - 1)  # cells per layer
    # the C-order ids of the occupied cells of the whole grid, ascending
    cells = np.concatenate([
        np.flatnonzero(_occupied_cells(p, d.level, [axes[0][start:start + layers + 1], *axes[1:]]))
        + start * layer for start in range(0, grid_n, layers)])
    spacing = float(np.max(region.widths) / grid_n)
    if cells.size == 0:
        return ComponentReport(count=0, grid_spacing=spacing, occupied_cells=0)
    # runs of consecutive ids, broken where a row of the last axis starts
    breaks = np.flatnonzero((np.diff(cells) != 1) | (cells[1:] % grid_n == 0)) + 1
    first = cells[np.insert(breaks, 0, 0)]
    last = cells[np.append(breaks, cells.size) - 1]
    ends_a, ends_b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for ax in range(dim - 1):
        stride = grid_n ** (dim - 1 - ax)  # the id step along ax
        # run k meets runs lo[k]..hi[k]-1, those overlapping its ids shifted by stride
        lo = np.searchsorted(last, first + stride, "left")
        hi = np.searchsorted(first, last + stride, "right")
        n = np.where(first // stride % grid_n < grid_n - 1, hi - lo, 0)  # no face past the grid
        ends_a.append(np.repeat(np.arange(first.size), n))
        ends_b.append(np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n))  # lo[k], lo[k]+1, ..
    return ComponentReport(count=_count_roots(first.size, np.concatenate(ends_a),
                                              np.concatenate(ends_b)),
                           grid_spacing=spacing, occupied_cells=cells.size)


def _occupied_cells(p: Polynomial, level: float, axes: list[np.ndarray]) -> np.ndarray:
    """Occupancy of the cells of the tensor grid of ``axes`` on {p = level}."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN corners
        vals = p.eval_grid(axes)
        vals -= level
    # weak inequalities: a corner exactly on the level set marks the cell
    below, above, undefined = vals <= 0.0, vals >= 0.0, np.isnan(vals)
    del vals  # freed before the cell passes, so later arrays reuse its pages
    dim = len(axes)
    for ax in range(dim):  # a cell's flag: its 2^dim corners' flags, OR-reduced
        head, tail = _face_slices(dim, ax)
        below = below[head] | below[tail]
        above = above[head] | above[tail]
        undefined = undefined[head] | undefined[tail]
    return below & above & ~undefined


def _face_slices(dim: int, ax: int) -> tuple[tuple, tuple]:
    """Index tuples of the cells before and after each face normal to ``ax``."""
    head = [slice(None)] * dim
    tail = [slice(None)] * dim
    head[ax] = slice(0, -1)
    tail[ax] = slice(1, None)
    return tuple(head), tuple(tail)


def _count_roots(n: int, a: np.ndarray, b: np.ndarray) -> int:
    """Connected components of the graph on nodes 0..n-1 with edges (a[k], b[k]).

    Each round hooks the larger root of every edge that joins two trees onto
    the smaller one, then pointer-jumps until every node points at its root;
    an edge whose ends share a root keeps it for good and is dropped.  Every
    parent is at most its node, so the forest has no cycle, and every round
    that finds an edge joining two trees removes at least one root.
    """
    parent = np.arange(n, dtype=a.dtype)
    while True:
        ra, rb = parent[a], parent[b]
        joins = ra != rb
        if not joins.any():
            return int(np.count_nonzero(parent == np.arange(n)))
        a, b, ra, rb = a[joins], b[joins], ra[joins], rb[joins]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def smoothness_check(d: Deformation) -> bool:
    """True iff no critical point of base lies on {base = level}: the level
    is a regular value, so the level set is smooth.

    The critical points are ``find_singular_points`` on the level (uniform
    sampling cannot witness a measure-zero singular point).  A critical point
    nearer to {base = 0} than to the level is the base variety's own, not
    the level's: the two levels' ``TOL_ON`` bands overlap when |level| <
    2 * ``TOL_ON``.  For a base of degree at most 2 the search is exact by
    construction: it solves grad base = Hx + b = 0 by one SVD of H at H's
    exact rank (``stratify.inertia``), and base is constant on that affine
    critical set, so its points give every critical value.  At degree 3 and
    up it finds the critical points that Newton reaches from the seed grid.
    A level that is empty in R^n has no critical point on it and passes;
    ``decide`` never asks about one, as its count of 0 is not viable.
    """
    values = [d.base.eval(s) for s in find_singular_points(d.base, d.level, d.region)]
    return not any(abs(v - d.level) <= abs(v) for v in values)


def _check_eps(eps: float):
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")


def count_levels(p: Polynomial, eps: float, region: Region | None = None,
                 grid_n: int | None = None) -> list[tuple[Deformation, ComponentReport]]:
    """The deformations at +eps then -eps (tie-break order) with their component reports."""
    _check_eps(eps)
    region = region or default_region(p.nvars)
    return [(d, count_components(d, grid_n)) for d in (deform(p, +eps, region),
                                                       deform(p, -eps, region))]


def _first_smooth(order: list[Deformation], reason: str,
                  failure: str) -> tuple[Deformation, str]:
    """The first of ``order`` that passes ``smoothness_check``, with
    ``reason``, or with ``"smoothness"`` when a level before it failed the
    check (a critical point lies on that level).  When every level fails,
    ``ResolutionError(failure)``."""
    for i, d in enumerate(order):
        if smoothness_check(d):
            return d, reason if i == 0 else "smoothness"
    raise ResolutionError(failure)


def choose(levels: list[tuple[Deformation, ComponentReport]]) -> tuple[Deformation, str]:
    """The deformation to resolve at by the global component counts, and why
    it won.

    Empty level sets (count 0) never win; fewer components come first, and
    the first of ``levels`` (+eps) first on a tie.  The first level in that
    order that passes ``smoothness_check`` wins, for the reason ``"count"``
    (it has the fewest components), ``"tie"`` (the other level has as many)
    or ``"smoothness"`` (a level before it failed the check).  ``decide``
    applies this rule when the Morse rule does not.
    """
    eps = levels[0][0].level
    viable = sorted((r.count, i) for i, (_, r) in enumerate(levels) if r.count > 0)
    if not viable:
        raise ResolutionError(f"both levels +/-{eps} give empty varieties on the region")
    counts = [c for c, _ in viable]
    return _first_smooth([levels[i][0] for _, i in viable],
                         "tie" if counts.count(counts[0]) > 1 else "count",
                         f"no smooth deformation at levels +/-{eps}: "
                         f"component counts {[r.count for _, r in levels]}")


def local_pieces(k: int) -> int:
    """Pieces of {q = +eps} near a Morse point of {q = 0} whose Hessian has
    ``k`` positive eigenvalues, for every small eps > 0: S^(k-1) x R^(n-k) is
    connected if k >= 2, two pieces if k = 1 and empty if k = 0."""
    return 1 if k >= 2 else 2 if k == 1 else 0


def morse_inertia(p: Polynomial, region: Region) -> tuple[tuple[int, int], ...] | None:
    """The Hessian inertia (k+, k-) of each singular point of {p = 0} in
    ``region``, in ``find_singular_points`` order; None when there is no
    singular point or one is degenerate: at degree at most 2, when the
    constant Hessian is rank-deficient (``inertia``, exact), else when a float
    eigenvalue lies within ``MORSE_TOL`` times the square root of p's largest
    |coefficient| of degree >= 2."""
    points = find_singular_points(p, 0.0, region)
    if p.degree <= 2 and points:
        k = inertia(p.hessian(np.zeros(p.nvars)))
        return (k,) * len(points) if sum(k) == p.nvars else None
    scale = max((abs(c) for e, c in p.terms if sum(e) >= 2), default=0.0)
    out = []
    for s in points:
        eig = np.linalg.eigvalsh(p.hessian(s))
        if np.min(np.abs(eig)) <= MORSE_TOL * math.sqrt(scale):
            return None
        out.append((int(np.count_nonzero(eig > 0)), int(np.count_nonzero(eig < 0))))
    return tuple(out) or None


def decide(p: Polynomial, eps: float, region: Region | None = None,
           grid_n: int | None = None,
           levels: list[tuple[Deformation, ComponentReport]] | None = None
           ) -> tuple[Deformation, str, tuple[tuple[int, int], ...] | None]:
    """The deformation level in {+eps, -eps} to resolve {p = 0} at, why it
    won (``"morse"``, ``"count"``, ``"tie"`` or ``"smoothness"``), and the
    singular points' inertia when the Morse rule ordered the levels (None
    when the global counts did).

    The Morse rule comes first: when ``morse_inertia`` classifies every
    singular point of {p = 0}, every point is indefinite (k+, k- >= 1) and
    every one has fewer ``local_pieces`` at the same sign, that sign is tried
    first and the other second (reason ``"morse"``).  Otherwise ``choose``
    decides on the global counts: ``levels`` (``count_levels(p, eps, region,
    grid_n)``, by default at ``default_grid_n`` of the dimension) when the
    caller has them, else counted here.  That covers no
    singular point or a degenerate one; a definite point, whose small sphere
    at one sign and nothing at the other say nothing of the rest of the
    variety; and points that tie, such as (1, 1), or disagree.  Either way
    the first level in order that passes ``smoothness_check`` wins, for the
    reason ``"smoothness"`` when a level before it failed: a critical point
    of p lies on that level.
    """
    _check_eps(eps)
    region = region or default_region(p.nvars)
    inertia = morse_inertia(p, region)
    # +1 (-1) at an indefinite point with fewer local pieces at +eps (-eps), else 0
    prefer = {local_pieces(km) - local_pieces(kp) if kp and km else 0
              for kp, km in inertia or ()}
    if prefer not in ({1}, {-1}):
        return (*choose(levels or count_levels(p, eps, region, grid_n)), None)
    sign = prefer.pop()
    order = [deform(p, sign * eps, region), deform(p, -sign * eps, region)]
    return (*_first_smooth(order, "morse", f"no smooth deformation at levels +/-{eps}: "
                                           f"singular points of inertia {list(inertia)}"),
            inertia)


def choose_resolution(p: Polynomial, eps: float, region: Region | None = None,
                      grid_n: int | None = None) -> Deformation:
    """The deformation level in {+eps, -eps} that ``decide`` picks: by the
    singular points' Hessian inertia when all are Morse points, with no
    component counted, else by the global counts at ``grid_n``."""
    return decide(p, eps, region, grid_n)[0]


def level_samples(d: Deformation, samples: int) -> np.ndarray:
    """``samples`` uniform points of ``d.region`` drawn from
    ``default_rng(0)`` and projected onto {base = level} by
    ``project_to_level``: the converged ones that lie in ``d.region``."""
    X = d.region.sample(samples, np.random.default_rng(0))
    Y, ok = project_to_level(d.base, d.level, X)
    return Y[ok & d.region.contains(Y, pad=1e-9)]


def proximity_check(d: Deformation, exclusion_radius: float) -> float:
    """Max distance from the deformation to the base variety, away from singularities.

    The ``CHECK_SAMPLES`` points are sampled on {base = level}, those within
    ``exclusion_radius`` of any singular point of {base = 0} are dropped, and
    each survivor is Newton-projected onto the base variety; the maximum
    projection distance is returned.
    """
    if not (math.isfinite(exclusion_radius) and exclusion_radius > 0):
        raise ValueError(f"exclusion_radius must be positive and finite, got {exclusion_radius}")
    Y = level_samples(d, CHECK_SAMPLES)
    sing = find_singular_points(d.base, 0.0, d.region)
    if sing:
        dists = np.min(
            np.stack([np.linalg.norm(Y - s, axis=1) for s in sing], axis=1), axis=1
        )
        Y = Y[dists > exclusion_radius]
    if Y.shape[0] == 0:
        raise NoSamplesError(
            f"no variety samples outside exclusion radius {exclusion_radius}"
        )
    Z, okz = project_to_level(d.base, 0.0, Y)
    if not okz.any():
        raise ProjectionError("no sample could be projected onto the base variety")
    return float(np.max(np.linalg.norm(Y[okz] - Z[okz], axis=1)))


def projected_gradient_field(p: Polynomial, level: float, points,
                             G) -> tuple[np.ndarray, np.ndarray]:
    """Tangential part of ambient gradient rows along {p = level}.

    At each row of the (m, n) array ``points`` the matching row g of ``G``,
    broadcast to (m, n), is projected off the level set's normal:
    g - (g.n)n, n = grad p / |grad p|.  A non-finite point raises
    ``ValueError``; then the first point off the level set (``level_masks``)
    raises ``OffVarietyError``.  Returns the tangents, NaN in the rows where
    grad p vanishes, and the mask of those singular rows.
    """
    X = np.asarray(points, dtype=float)
    finite = np.isfinite(X).all(axis=-1)
    if not finite.all():
        raise ValueError(f"point has non-finite entries: {X[np.argmin(finite)]}")
    N, on_level, singular = level_masks(p, level, X)
    if not on_level.all():
        x = X[np.argmin(on_level)]
        raise OffVarietyError(f"point {x} is not on the level set: "
                              f"|p(x) - level| = {abs(p.eval(x) - level):.3e}")
    G = np.broadcast_to(G, X.shape)
    N[singular] = np.nan  # no normal, so no tangent
    # batched matmuls give the bits of one point's 1-D dot; norm(axis=1) and einsum do not
    Nh = N / np.sqrt(N[:, None, :] @ N[:, :, None])[:, 0]
    return G - (G[:, None, :] @ Nh[:, :, None])[:, 0] * Nh, singular
