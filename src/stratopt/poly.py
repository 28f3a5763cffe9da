"""Sparse multivariate polynomials with exact term-wise calculus.

A polynomial over R^n is stored as a tuple of (exponent vector, coefficient)
pairs sorted lexicographically by exponent vector.  The term order is fixed
at construction, so evaluation sums in a deterministic order and results are
bit-reproducible across runs.  Coefficients are doubles; exponents are
nonnegative integers.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

import numpy as np

MAX_NVARS = 8


class DimensionMismatchError(ValueError):
    """Point length does not match the polynomial's variable count."""


class PolynomialParseError(ValueError):
    """Malformed sum-of-monomials text."""


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables x0..x{nvars-1}."""

    __slots__ = ("nvars", "terms", "_diff_cache")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, float]):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
        if nvars > MAX_NVARS:
            raise ValueError(f"nvars={nvars} exceeds supported maximum {MAX_NVARS}")
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = float(c)
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + c
        clean = {e: c for e, c in clean.items() if c != 0.0}
        self.nvars = nvars
        self.terms = tuple(sorted(clean.items()))
        self._diff_cache: dict[int, "Polynomial"] = {}

    # -- construction helpers -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatchError("cannot add polynomials with different nvars")
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.nvars, out)

    def __rmul__(self, scalar: float) -> "Polynomial":
        return Polynomial(self.nvars, {e: scalar * c for e, c in self.terms})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    # -- calculus --------------------------------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for nvars={self.nvars}")
        cached = self._diff_cache.get(var)
        if cached is not None:
            return cached
        out: dict[tuple, float] = {}
        for exps, c in self.terms:
            k = exps[var]
            if k == 0:
                continue
            lowered = exps[:var] + (k - 1,) + exps[var + 1:]
            out[lowered] = out.get(lowered, 0.0) + k * c
        result = Polynomial(self.nvars, out)
        self._diff_cache[var] = result
        return result

    # -- evaluation ------------------------------------------------------------

    def _as_points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise DimensionMismatchError(
                f"expected points of dimension {self.nvars}, got array of shape {X.shape}"
            )
        return X

    def eval_many(self, X) -> np.ndarray:
        """Evaluate at each row of ``X`` (shape (m, nvars)); no finiteness checks."""
        X = self._as_points(X)
        return self._sum_terms(X.T, (X.shape[0],))

    def eval_grid(self, axes) -> np.ndarray:
        """Evaluate on the tensor grid of the 1-D ``axes``, one per variable.

        ``out[i0, i1, ...]`` is the value at ``(axes[0][i0], axes[1][i1], ...)``.
        Each term is built from per-axis powers by broadcasting, with the same
        float operations in the same order as ``eval_many`` on the grid's
        points, so the two agree bit for bit; no coordinate array is formed.
        """
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != self.nvars or any(a.ndim != 1 for a in axes):
            raise DimensionMismatchError(
                f"expected {self.nvars} 1-D axes, got shapes {[a.shape for a in axes]}"
            )
        shape = tuple(a.shape[0] for a in axes)
        # axis j as an array of shape (1, ..., n_j, ..., 1)
        axes = [a.reshape(tuple(-1 if k == j else 1 for k in range(self.nvars)))
                for j, a in enumerate(axes)]
        return self._sum_terms(axes, shape)

    def _sum_terms(self, columns, shape) -> np.ndarray:
        """Sum of the terms, in ``self.terms`` order, over an output of ``shape``;
        ``columns[j]`` holds the values of variable j, broadcastable to it."""
        out = np.zeros(shape)
        for (exps, c) in self.terms:
            term = c
            for j, e in enumerate(exps):
                if e:
                    term = term * columns[j] ** e
            out += term
        return out

    def grad_many(self, X) -> np.ndarray:
        X = self._as_points(X)
        out = np.empty((X.shape[0], self.nvars))
        for j in range(self.nvars):
            out[:, j] = self.diff(j).eval_many(X)
        return out

    def hessian_many(self, X) -> np.ndarray:
        X = self._as_points(X)
        out = np.empty((X.shape[0], self.nvars, self.nvars))
        for i in range(self.nvars):
            for j in range(i, self.nvars):
                vals = self.diff(i).diff(j).eval_many(X)
                out[:, i, j] = vals
                out[:, j, i] = vals
        return out

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nvars,):
            raise DimensionMismatchError(
                f"expected a point of dimension {self.nvars}, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError(f"point has non-finite entries: {x}")
        return x

    def eval(self, x) -> float:
        """Value at a single point, summed in the fixed term order."""
        return float(self.eval_many(self._check_point(x)[None, :])[0])

    def grad(self, x) -> np.ndarray:
        """Exact gradient at a single point."""
        return self.grad_many(self._check_point(x)[None, :])[0]

    def hessian(self, x) -> np.ndarray:
        """Exact (exactly symmetric) Hessian at a single point."""
        return self.hessian_many(self._check_point(x)[None, :])[0]

    __call__ = eval

    # -- text form ---------------------------------------------------------------

    def to_string(self) -> str:
        """Sum-of-monomials text, e.g. ``x0^2 + x1^2 - x2^2``; parses back exactly."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.terms:
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            mag = abs(c)
            if factors and mag == 1.0:
                body = "*".join(factors)
            elif factors:
                body = "*".join([repr(mag)] + factors)
            else:
                body = repr(mag)
            pieces.append(("- " if c < 0 else "+ ") + body)
        first = pieces[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([out] + pieces[1:])


_VAR_RE = re.compile(r"^x(0|[1-9]\d*)(?:\^(\d+))?$")  # no leading zeros: x01 is not x1


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse sum-of-monomials text: signed terms, ``*`` products, ``^`` powers.

    Variables are ``x0..x{n-1}``.  ``nvars`` is inferred from the highest
    variable index when not given.
    """
    s = text.strip()
    if not s:
        raise PolynomialParseError("empty polynomial text")
    # split on +/- signs, but not inside exponent-notation numbers like 1e-3
    chunks = re.split(r"(?<![eE])([+-])", s)
    signed: list[tuple[str, str]] = []
    if chunks[0].strip():
        signed.append(("+", chunks[0]))
    elif len(chunks) == 1:
        raise PolynomialParseError(f"no terms in {text!r}")
    for sign, body in zip(chunks[1::2], chunks[2::2]):
        signed.append((sign, body))
    coeffs: dict[tuple, float] = {}
    max_var = -1
    raw_terms = []
    for sign, body in signed:
        body = body.strip()
        if not body:
            raise PolynomialParseError(f"dangling sign in {text!r}")
        coeff = -1.0 if sign == "-" else 1.0
        exps: dict[int, int] = {}
        for factor in re.split(r"[*\s]+", body):
            if not factor:
                continue
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                exps[idx] = exps.get(idx, 0) + int(m.group(2) or 1)
                max_var = max(max_var, idx)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise PolynomialParseError(
                        f"bad factor {factor!r} in term {body!r}"
                    ) from None
        raw_terms.append((exps, coeff))
    if nvars is None:
        if max_var < 0:
            raise PolynomialParseError(
                "constant-only polynomial: pass nvars explicitly"
            )
        if max_var >= MAX_NVARS:
            raise PolynomialParseError(
                f"variable x{max_var} exceeds the supported maximum of {MAX_NVARS} "
                f"variables (x0..x{MAX_NVARS - 1})"
            )
        nvars = max_var + 1
    elif not 1 <= nvars <= MAX_NVARS:
        raise PolynomialParseError(f"nvars={nvars} is outside the supported 1..{MAX_NVARS}")
    elif max_var >= nvars:
        raise PolynomialParseError(
            f"variable x{max_var} out of range for nvars={nvars}"
        )
    for exps, coeff in raw_terms:
        key = tuple(exps.get(j, 0) for j in range(nvars))
        coeffs[key] = coeffs.get(key, 0.0) + coeff
    if not all(math.isfinite(c) for c in coeffs.values()):
        raise PolynomialParseError(f"non-finite coefficient in {text!r}")
    return Polynomial(nvars, coeffs)


# -- the varieties used throughout ------------------------------------------------


def double_cone() -> Polynomial:
    """x1^2 + x2^2 - x0^2: the chart-consistent double cone constraint.

    The radial chart (xi, xi*cos t, xi*sin t) satisfies this form with the
    first coordinate as the axis, so the polynomial and the chart agree on
    which axis the cone opens along.
    """
    return Polynomial(3, {(2, 0, 0): -1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})


def cusp_curve() -> Polynomial:
    """x0^2 + x1^3: a plane curve with one singular point at the origin."""
    return Polynomial(2, {(2, 0): 1.0, (0, 3): 1.0})


def axis_pair() -> Polynomial:
    """x0*x1: the union of the two coordinate axes."""
    return Polynomial(2, {(1, 1): 1.0})
