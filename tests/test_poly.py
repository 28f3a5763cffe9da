import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stratopt.poly import (DimensionMismatchError, Polynomial,
                           PolynomialParseError, axis_pair, cusp_curve,
                           double_cone, parse_polynomial)

CONE_STD = parse_polynomial("x0^2 + x1^2 - x2^2")
CUSP = cusp_curve()


def test_eval_on_cone_point():
    assert CONE_STD.eval([1, 0, 1]) == 0.0


def test_eval_off_cone_point():
    assert CONE_STD.eval([2, 1, 1]) == 4.0


def test_eval_cusp_on_curve():
    assert CUSP.eval([1, -1]) == 0.0


def test_grad_vanishes_at_origin():
    assert np.array_equal(CONE_STD.grad([0, 0, 0]), np.zeros(3))
    assert np.array_equal(CUSP.grad([0, 0]), np.zeros(2))


def test_grad_at_regular_point():
    assert np.array_equal(CONE_STD.grad([1, 0, 1]), np.array([2.0, 0.0, -2.0]))


def test_hessian_constant_for_quadratic():
    want = np.diag([2.0, 2.0, -2.0])
    for x in ([0, 0, 0], [1, 2, 3], [-0.5, 0.25, 1.75]):
        assert np.array_equal(CONE_STD.hessian(x), want)


def test_hessian_cusp():
    assert np.array_equal(CUSP.hessian([0, 0]), np.diag([2.0, 0.0]))
    assert np.array_equal(CUSP.hessian([0, 1]), np.diag([2.0, 6.0]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        CONE_STD.eval([1, 2])
    with pytest.raises(DimensionMismatchError):
        CONE_STD.grad([1, 2, 3, 4])


def test_nonfinite_point_rejected():
    with pytest.raises(ValueError):
        CONE_STD.eval([np.inf, 0, 0])


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert p.terms == (((0, 1), 2.0),)


def test_duplicate_exponents_merge():
    p = parse_polynomial("x0 + x0 + x1")
    assert p.eval([1, 0]) == 2.0


def test_degree():
    assert CUSP.degree == 3
    assert Polynomial(1, {(0,): 5.0}).degree == 0


# -- parsing ---------------------------------------------------------------

def test_parse_round_trip_examples():
    for text in ("x0^2 + x1^2 - x2^2", "x0^2 + x1^3", "x0*x1",
                 "2.5*x0^3 - 0.5*x1 + 4", "-x0 + 1e-3*x1^2"):
        p = parse_polynomial(text)
        assert parse_polynomial(p.to_string(), nvars=p.nvars) == p


def test_parse_coefficient_forms():
    p = parse_polynomial("3*x0 2*x1", nvars=2)  # whitespace product
    assert p.eval([1, 1]) == 6.0
    assert parse_polynomial("-x0").eval([2]) == -2.0


def test_parse_scientific_notation_not_split():
    p = parse_polynomial("1e-3*x0 + 2E+1", nvars=1)
    assert p.eval([1000.0]) == 1.0 + 20.0


def test_parse_errors():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0 + ")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0^-2")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("y0 + 1")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("3.5")  # constant needs explicit nvars
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x5", nvars=2)
    for text, nvars in [("x0", 10), ("x0", 9), ("1", 0)]:  # nvars outside 1..MAX_NVARS
        with pytest.raises(PolynomialParseError):
            parse_polynomial(text, nvars=nvars)


@pytest.mark.parametrize("text", [
    "inf*x0", "nan + x1^2", "1e400*x0", "1e308*x0 + 1e308*x0",  # non-finite coefficients
    "x01^2", "x0 + x00",  # variable indices with leading zeros
    "x0 + x10",  # more variables than MAX_NVARS
])
def test_parse_rejects_non_finite_and_zero_padded(text):
    with pytest.raises(PolynomialParseError):
        parse_polynomial(text)


def test_named_varieties():
    assert double_cone().eval([1, 1, 0]) == 0.0  # chart point (xi=1, theta=0)
    assert axis_pair().eval([0, 3]) == 0.0
    assert cusp_curve().eval([1, -1]) == 0.0


# -- properties ------------------------------------------------------------

@st.composite
def polynomials(draw, max_nvars=4, max_degree=4):
    nvars = draw(st.integers(1, max_nvars))
    n_terms = draw(st.integers(1, 6))
    coeffs = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(nvars)
        )
        if sum(exps) > max_degree:
            exps = tuple(min(e, 1) for e in exps)
        coeffs[exps] = draw(st.floats(-4, 4, allow_nan=False))
    return Polynomial(nvars, coeffs)


@given(polynomials(), st.integers(0, 2 ** 31 - 1))
def test_grad_matches_central_differences(p, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=p.nvars)
    h = 1e-6
    fd = np.array([
        (p.eval(x + h * e) - p.eval(x - h * e)) / (2 * h)
        for e in np.eye(p.nvars)
    ])
    g = p.grad(x)
    assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


@given(polynomials(max_nvars=3), polynomials(max_nvars=3),
       st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.integers(0, 2 ** 31 - 1))
def test_eval_linear_in_coefficients(p, q, a, b, seed):
    if p.nvars != q.nvars:
        q = Polynomial(p.nvars, {
            (e + (0,) * p.nvars)[:p.nvars]: c for e, c in q.terms
        })
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=p.nvars)
    combo = (a * p) + (b * q)
    lhs = combo.eval(x)
    rhs = a * p.eval(x) + b * q.eval(x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(polynomials(), st.integers(0, 2 ** 31 - 1))
def test_hessian_exactly_symmetric(p, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=p.nvars)
    H = p.hessian(x)
    assert np.array_equal(H, H.T)


@settings(max_examples=300)
@given(st.one_of(st.text(alphabet="x0123456789^*+-.eE \t", max_size=30), st.text(max_size=20),
                 polynomials(max_nvars=8).map(Polynomial.to_string)),
       st.none() | st.integers(-2, 12))
def test_parse_fuzz_raises_only_parse_errors(text, nvars):
    try:
        p = parse_polynomial(text, nvars=nvars)
    except PolynomialParseError:
        return
    assert parse_polynomial(p.to_string(), nvars=p.nvars) == p


def test_eval_deterministic_term_order():
    p1 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1e-8, (1, 1): -1.0})
    p2 = Polynomial(2, {(1, 1): -1.0, (0, 2): 1e-8, (2, 0): 1.0})
    x = [0.123456789, 7.6543210987]
    assert p1.eval(x) == p2.eval(x)  # bitwise: same sorted term order


@st.composite
def lattices(draw):
    """A polynomial in 1-4 variables with exponents 0-5, often with a constant
    term (it may be the only term, or there may be no term at all), and one
    short axis per variable holding -0.0 and a negative value."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * nvars)
    coeff = st.floats(-4, 4, allow_nan=False)
    coeffs = draw(st.dictionaries(exps, coeff, max_size=6))
    if draw(st.booleans()):
        coeffs[(0,) * nvars] = draw(coeff)
    coord = st.floats(-3, 3, allow_nan=False)
    axes = [np.array(draw(st.lists(coord, max_size=3)) + [-0.0, draw(st.floats(-3, -1e-3))])
            for _ in range(nvars)]
    return Polynomial(nvars, coeffs), axes


AXES3 = [np.array([-0.0, -1.5, 2.0]), np.array([0.5, -0.0]), np.array([-2.0, 0.0, 1.0, 3.0])]


@given(lattices())
@example((Polynomial(3, {}), AXES3))                       # the zero polynomial
@example((Polynomial(3, {(0, 0, 0): -2.5}), AXES3))        # constant only
@example((Polynomial(3, {(0, 0, 1): 1.0}), AXES3))         # never spans the grid
@example((Polynomial(3, {(0, 1, 1): 2.0, (1, 0, 0): -1.0}), AXES3))  # first term: x1*x2
def test_eval_grid_bit_identical_to_eval_many(case):
    p, axes = case
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.nvars)
    want = p.eval_many(points).reshape([len(a) for a in axes])
    got = p.eval_grid(axes)
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, -1e-310, 1.0, -1.5]


@st.composite
def special_lattices(draw):
    """A polynomial in 1-3 variables with exponents 0-3, first powers among
    them, and one short axis per variable drawn from -0.0, +-inf, NaN,
    subnormals and any other float."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = draw(st.dictionaries(exps, st.floats(-4, 4, allow_nan=False), max_size=5))
    coeffs[tuple(draw(st.integers(0, 1)) for _ in range(nvars))] = draw(st.floats(-4, 4))
    coord = st.sampled_from(SPECIAL) | st.floats()
    return Polynomial(nvars, coeffs), [np.array(draw(st.lists(coord, min_size=1, max_size=4)))
                                       for _ in range(nvars)]


def power_reference(p, X):
    """p at the rows of X, summed like ``Polynomial._sum_terms`` into an
    array of zeros, with every factor taken as ``x ** e``, e = 1 included."""
    out = np.zeros(X.shape[0])
    for exps, c in p.terms:
        term = c
        for j, e in enumerate(exps):
            if e:
                term = term * X[:, j] ** e
        out = out + term
    return out


@given(special_lattices())
@example((Polynomial(2, {(1, 0): -1.0, (1, 1): 2.0}), [np.array(SPECIAL), np.array(SPECIAL)]))
def test_first_powers_keep_the_bits_of_x_to_the_one(case):
    p, axes = case
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.nvars)
    with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflows
        want = power_reference(p, points)
        got = [p.eval_many(points), p.eval_grid(axes).ravel()]
    nan = np.isnan(want)
    for g in got:
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan], want[~nan])
        assert np.array_equal(np.signbit(g[~nan]), np.signbit(want[~nan]))


def per_exponent_sum(p, columns, shape):
    """``Polynomial._sum_terms`` written with a loop over every exponent of
    every term, ``np.shape`` asked of the partial sum before each add."""
    out = np.zeros(())
    for exps, c in p.terms:
        term = c
        for j, e in enumerate(exps):
            if e:
                term = term * (columns[j] if e == 1 else columns[j] ** e)
        if np.shape(out) == shape:
            out += term
        else:
            out = out + term
    if np.shape(out) != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@st.composite
def sparse_cases(draw):
    """A polynomial in 1-8 variables with exponents 0-3, of any terms, a
    constant only, or terms free of x0; up to 5 points and one short axis
    per variable, their coordinates drawn from SPECIAL and any float."""
    nvars = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.floats(-4, 4, allow_nan=False)
    coeffs = draw(st.dictionaries(exps, coeff, max_size=6))
    kind = draw(st.sampled_from(["any", "constant", "free of x0"]))
    if kind == "constant":
        coeffs = {(0,) * nvars: draw(coeff)}
    elif kind == "free of x0":
        coeffs = {(0,) + e[1:]: c for e, c in coeffs.items()}
    coord = st.sampled_from(SPECIAL) | st.floats()
    X = np.array(draw(st.lists(st.lists(coord, min_size=nvars, max_size=nvars), max_size=5)),
                 dtype=float).reshape(-1, nvars)
    axes = [np.array(draw(st.lists(coord, min_size=1, max_size=3 if nvars <= 4 else 2)))
            for _ in range(nvars)]
    return Polynomial(nvars, coeffs), X, axes


@given(sparse_cases())
@example((Polynomial(8, {(0,) * 8: 1.5}), np.ones((2, 8)), [np.array([-0.0, 2.0])] * 8))
@example((Polynomial(3, {(0, 2, 0): 1.0, (0, 1, 1): -2.0, (0, 0, 0): 0.5}),
          np.array([[np.nan, -0.0, np.inf], [1.0, 2.0, 3.0]]), AXES3))
def test_sums_of_terms_keep_the_bits_of_the_per_exponent_loop(case):
    p, X, axes = case
    m, n = X.shape
    grid_columns = [a.reshape(tuple(-1 if k == j else 1 for k in range(n)))
                    for j, a in enumerate(axes)]
    with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflows
        G = np.empty((m, n))
        H = np.empty((m, n, n))
        for i in range(n):
            G[:, i] = per_exponent_sum(p.diff(i), X.T, (m,))
            for j in range(i, n):
                H[:, i, j] = H[:, j, i] = per_exponent_sum(p.diff(i).diff(j), X.T, (m,))
        pairs = [(p.eval_many(X), per_exponent_sum(p, X.T, (m,))),
                 (p.eval_grid(axes), per_exponent_sum(p, grid_columns, tuple(map(len, axes)))),
                 (p.grad_many(X), G), (p.hessian_many(X), H)]
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_eval_grid_shapes():
    assert np.array_equal(Polynomial(2, {}).eval_grid([[0.0, 1.0], [2.0]]), np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        CUSP.eval_grid([[0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        CUSP.eval_grid([[0.0, 1.0], [[2.0]]])
