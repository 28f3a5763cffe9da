"""Smooth deformations {p = c} of a singular variety {p = 0}.

A deformation at a regular value c is a smooth hypersurface approximating
the singular one away from its singular points.  The preferred deformation
level is chosen by connectivity: among the two candidate signs, the one
whose level set has fewer connected components wins (an empty level set
never wins).  Components are counted on an occupancy grid whose corner
lattice is streamed along x0, in slabs of consecutive corner planes (about
``SLAB_CORNERS`` corners, at least two planes each).  A slab is evaluated by
``Polynomial.eval_grid`` (no corner coordinates are stored), and a cell is
occupied when its corners' signs differ: the cell test of marching cubes
(Lorensen & Cline 1987), made from boolean sign masks OR-reduced over each
axis.  As in Hoshen & Kopelman's (1976) layer-by-layer cluster labelling,
only a slab's last cell layer is kept, to join it to the next slab, so a
slab and the occupied cells set the memory, not the lattice.  Occupied
cells that share a face are labelled in numpy by min-label hooking and
pointer jumping (Shiloach & Vishkin 1982), so the count is deterministic.
``scipy.ndimage.label`` would label faster, but the runtime dependencies
stay ``numpy`` only.

``smoothness_check`` and ``proximity_check`` draw the same ``CHECK_SAMPLES``
uniform samples from seed 0 and project them onto the same level; the
projection is cached per process (``SAMPLE_CACHE_SIZE`` entries), so checking
one deformation with both costs one solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial
from .stratify import (OffVarietyError, Region, find_singular_points, level_masks,
                       project_to_level)

DEFAULT_GRID_N = 64
# grid corners count_components may evaluate: a bound on its work, as the slabs
# bound its memory; 129^3 fits
MAX_CORNERS = 4_000_000
# corners in a slab of x0 corner planes, rounded down to whole planes (at least
# two, one cell layer): the default 3-D grid is one slab (2.2 MB of float64), as
# every slab adds a fixed cost of numpy calls
SLAB_CORNERS = (DEFAULT_GRID_N + 1) ** 3
CHECK_SAMPLES = 10_000  # uniform samples behind the smoothness and proximity checks
MAX_SAMPLES = 1_000_000  # most projected samples `stratopt resolve --csv` may ask for
SAMPLE_CACHE_SIZE = 8  # cached projected samples, one per (deformation, samples)
DIVERGENCE_BUDGET = 0.01  # fraction of samples allowed to miss the variety


class ResolutionError(RuntimeError):
    """Neither candidate deformation level yields a usable smooth variety."""


class ProjectionError(RuntimeError):
    """Too many sample projections failed to land on the variety."""


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


def count_components(d: Deformation, grid_n: int = DEFAULT_GRID_N) -> ComponentReport:
    """Connected components of {base = level} on an occupancy grid.

    base - level is evaluated on the (grid_n + 1)^dim corner lattice
    (``Polynomial.eval_grid``), one slab of consecutive x0 corner planes at a
    time.  A cell is occupied iff some corner is <= 0, some corner is >= 0
    and no corner is NaN (a NaN value, e.g. from an overflow to inf - inf,
    leaves its cells unoccupied); the three sign masks are OR-reduced over
    each axis's face slices.  Occupied cells sharing a face belong to one
    component; a slab's first cell layer is joined to the previous slab's
    last one.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    p, region, dim = d.base, d.region, d.region.dim
    if (grid_n + 1) ** dim > MAX_CORNERS:
        raise ValueError(f"grid_n={grid_n} in {dim} dimensions needs {(grid_n + 1) ** dim} "
                         f"corners, more than MAX_CORNERS={MAX_CORNERS}; lower grid_n")
    axes = region.axes(grid_n + 1)
    layers = max(1, SLAB_CORNERS // (grid_n + 1) ** (dim - 1) - 1)  # cell layers per slab
    # occupied cells get ids 0..n_occ-1 in C order; an edge joins two face-adjacent ones
    n_occ, ends_a, ends_b = 0, [], []
    last_occupied = last_ids = None
    for start in range(0, grid_n, layers):
        stop = min(start + layers, grid_n)
        occupied = _occupied_cells(p, d.level, [axes[0][start:stop + 1], *axes[1:]])
        n = int(np.count_nonzero(occupied))
        ids = np.zeros(occupied.shape, dtype=np.int32)
        ids[occupied] = np.arange(n_occ, n_occ + n, dtype=np.int32)
        n_occ += n
        faces = [(occupied[head], occupied[tail], ids[head], ids[tail])
                 for head, tail in (_face_slices(dim, ax) for ax in range(dim))]
        if last_occupied is not None:  # the faces between this slab and the previous one
            faces.append((last_occupied, occupied[0], last_ids, ids[0]))
        for occ_a, occ_b, ids_a, ids_b in faces:
            both = occ_a & occ_b
            ends_a.append(ids_a[both])
            ends_b.append(ids_b[both])
        last_occupied, last_ids = occupied[-1].copy(), ids[-1].copy()
    spacing = float(np.max(region.widths) / grid_n)
    if n_occ == 0:
        return ComponentReport(count=0, grid_spacing=spacing, occupied_cells=0)
    return ComponentReport(count=_count_roots(n_occ, np.concatenate(ends_a),
                                              np.concatenate(ends_b)),
                           grid_spacing=spacing, occupied_cells=n_occ)


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
    """True iff no probe on {base = level} has a vanishing gradient.

    Probes are the ``CHECK_SAMPLES`` seeded uniform samples Newton-projected
    onto the level set, plus any critical points of base located on it
    (uniform sampling alone cannot witness a measure-zero singular point).
    Projection failures are tolerated up to 1% of the samples.
    """
    sing = find_singular_points(d.base, d.level, d.region)
    if sing:
        return False
    Y, ok = _projected_samples(d, CHECK_SAMPLES)
    n_diverged = int((~ok).sum())
    if n_diverged > DIVERGENCE_BUDGET * CHECK_SAMPLES:
        raise ProjectionError(
            f"{n_diverged}/{CHECK_SAMPLES} projections failed to reach level {d.level}"
        )
    _, _, singular = level_masks(d.base, d.level, Y[ok])
    return not singular.any()


@functools.lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _projected_samples(d: Deformation, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` uniform points of ``d.region`` drawn from ``default_rng(0)``
    and projected onto {base = level}: ``project_to_level``'s (points,
    converged mask), read-only and shared by callers."""
    X = d.region.sample(samples, np.random.default_rng(0))
    Y, ok = project_to_level(d.base, d.level, X)
    Y.setflags(write=False)
    ok.setflags(write=False)
    return Y, ok


def count_levels(p: Polynomial, eps: float, region: Region | None = None,
                 grid_n: int = DEFAULT_GRID_N) -> list[tuple[Deformation, ComponentReport]]:
    """The deformations at +eps then -eps (tie-break order) with their component reports."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    region = region or default_region(p.nvars)
    return [(d, count_components(d, grid_n)) for d in (deform(p, +eps, region),
                                                       deform(p, -eps, region))]


def choose(levels: list[tuple[Deformation, ComponentReport]]) -> tuple[Deformation, str]:
    """The deformation to resolve at, and why it won.

    Empty level sets (count 0) never win; fewer components come first, and
    the first of ``levels`` (+eps) first on a tie.  The first level in that
    order that passes ``smoothness_check`` wins, for the reason ``"count"``
    (it has the fewest components), ``"tie"`` (the other level has as many)
    or ``"smoothness"`` (a level before it failed the check).
    """
    eps = levels[0][0].level
    viable = sorted((r.count, i) for i, (_, r) in enumerate(levels) if r.count > 0)
    if not viable:
        raise ResolutionError(f"both levels +/-{eps} give empty varieties on the region")
    for k, (count, i) in enumerate(viable):
        if smoothness_check(levels[i][0]):
            tie = [c for c, _ in viable].count(count) > 1
            return levels[i][0], "smoothness" if k else "tie" if tie else "count"
    raise ResolutionError(f"no smooth deformation at levels +/-{eps}: "
                          f"component counts {[r.count for _, r in levels]}")


def choose_resolution(p: Polynomial, eps: float, region: Region | None = None,
                      grid_n: int = DEFAULT_GRID_N) -> Deformation:
    """The deformation level in {+eps, -eps} that ``choose`` picks."""
    return choose(count_levels(p, eps, region, grid_n))[0]


def level_samples(d: Deformation, samples: int) -> np.ndarray:
    """The converged points of ``_projected_samples`` that lie in ``d.region``."""
    Y, ok = _projected_samples(d, samples)
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
