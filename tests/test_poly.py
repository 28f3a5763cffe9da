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


def test_eval_grid_shapes():
    assert np.array_equal(Polynomial(2, {}).eval_grid([[0.0, 1.0], [2.0]]), np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        CUSP.eval_grid([[0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        CUSP.eval_grid([[0.0, 1.0], [[2.0]]])
