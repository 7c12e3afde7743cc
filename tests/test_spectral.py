import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

import bmclab
from bmclab.errors import ConfigError, DegreeCapError
from bmclab.kernels import (
    _CROSS_CHECK_ORDERS,
    BarParams,
    _quadrature_sums,
    check_assumptions,
    hermite_nodes,
)
from bmclab.moments import enumerated_cross_moment, exact_cross_moment
from bmclab.spectral import (
    DEGREE_CAP,
    TRIM_EPS,
    SpectralFn,
    apply_kernel,
    center,
    from_monomial,
    product,
    project_linear,
    stationary_inner,
)
from oracles import absolute_series, constant, gaussian_expect, identity, reference_monomial

SRC = Path(bmclab.__file__).resolve().parent


def basis(n, sigma_a):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return SpectralFn(sigma_a=sigma_a, coeffs=c)


def random_fn(rng, degree, sigma_a):
    return SpectralFn(sigma_a=sigma_a, coeffs=rng.normal(size=degree + 1))


def recurrence_values(coeffs, u):
    """Reference sum of c_n He_n(u) by the forward three-term recurrence
    He_{n+1}(u) = u He_n(u) - n He_{n-1}(u)."""
    total = np.full_like(u, coeffs[0])
    prev, cur = np.ones_like(u), u.copy()
    for n in range(1, len(coeffs)):
        total += coeffs[n] * cur
        prev, cur = cur, u * cur - n * prev
    return total


# Derandomized draws for the algebra identities: a stationary scale and
# coefficient vectors up to degree 6.  Each bound below is in ulps of an
# absolute series, plus TRIM_EPS absolutely: the module drops coefficients
# below TRIM_EPS, and subnormal results carry no relative precision.
_property = settings(derandomize=True, database=None, deadline=None, max_examples=100)
_scales = st.floats(0.25, 4.0)
_coeffs = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7)
_EPS = np.finfo(np.float64).eps


def product_scale(f, g, u):
    """Absolute series of f, g and their product at u = x / sigma_a: it bounds
    every sum that product and either evaluation form."""
    abs_fg = hermite_e.hermemul(np.abs(f.coeffs), np.abs(g.coeffs))
    return (absolute_series(abs_fg, u)
            + absolute_series(f.coeffs, u) * absolute_series(g.coeffs, u))


def test_evaluate_matches_recurrence():
    # Clenshaw summation rounds differently from the forward recurrence;
    # both stay within 4 (degree + 1)^2 ulps of the absolute series.
    # Degree <= 1 is the same arithmetic (c0 + c1 u), so it must be exact.
    rng = np.random.default_rng(9)
    for degree in list(range(13)) + [20, 40, DEGREE_CAP]:
        for _ in range(4):
            sigma_a = float(rng.uniform(0.3, 3.0))
            f = random_fn(rng, degree, sigma_a)
            xs = sigma_a * rng.uniform(-8.0, 8.0, size=257)
            got = f.evaluate(xs)
            want = recurrence_values(f.coeffs, xs / sigma_a)
            if degree <= 1:
                assert np.array_equal(got, want)
                continue
            tol = 4.0 * (degree + 1) ** 2 * _EPS * absolute_series(f.coeffs, xs / sigma_a)
            assert np.all(np.abs(got - want) <= tol), degree
    f = from_monomial([0.3, 1.0, 0.5, 0.2], 1.2)
    assert type(f.evaluate(0.7)) is float
    assert f.evaluate(np.float64(0.7)) == f.evaluate(np.array([0.7]))[0]
    assert f.evaluate(np.zeros((2, 3))).shape == (2, 3)


def test_from_monomial_pinned_cases():
    f = from_monomial([0.0, 1.0], sigma_a=2.0)
    assert np.allclose(f.coeffs, [0.0, 2.0])
    one = from_monomial([1.0], sigma_a=0.7)
    assert np.allclose(one.coeffs, [1.0])
    for sigma_a in [0.5, 1.0, 3.0]:
        sq = from_monomial([0.0, 0.0, 1.0], sigma_a=sigma_a)
        assert np.allclose(sq.coeffs, [sigma_a**2, 0.0, sigma_a**2])


def test_from_monomial_pointwise():
    rng = np.random.default_rng(1)
    xs = np.linspace(-6.0, 6.0, 41)
    for _ in range(25):
        deg = int(rng.integers(0, 9))
        poly = rng.normal(size=deg + 1)
        sigma_a = float(rng.uniform(0.3, 3.0))
        f = from_monomial(poly, sigma_a)
        want = np.polynomial.polynomial.polyval(xs * sigma_a / sigma_a, poly)
        got = f.evaluate(xs)
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        back = reference_monomial(f)
        assert np.allclose(back, poly, rtol=0.0, atol=1e-10 * scale)


def test_one_hermite_product_in_the_package():
    # spectral.product is the one He-series product; the closed-form moments
    # take Gaussian expectations on kernels.hermite_nodes instead.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert [name for name, text in sources.items() if "hermemul" in text] == ["spectral"]
    assert sources["spectral"].count("hermemul") == 1
    assert "hermite_e.hermemul" in inspect.getsource(product)


def test_monomials_only_at_the_input_boundary():
    # Values and moments are computed in the He basis: from_monomial is the
    # one conversion from monomials, and nothing converts back.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert [name for name, text in sources.items() if "herme2poly" in text] == []
    assert [name for name, text in sources.items() if "poly2herme" in text] == ["spectral"]
    assert sources["spectral"].count("poly2herme") == 1
    assert "poly2herme" in inspect.getsource(from_monomial)


def test_spectral_caches_stay_bounded():
    # The rules are keyed by an order the cap bounds, so no input grows the
    # cache: beside the assumption checker's three orders, one Gauss-Hermite
    # rule per moment order (deg f + deg g) // 2 + 1 <= DEGREE_CAP + 1.
    rng = np.random.default_rng(14)
    hermite_nodes.cache_clear()
    check_assumptions(0.5)
    params = BarParams(0.5, 1.3)
    for degree in range(DEGREE_CAP + 1):
        f = random_fn(rng, degree, params.sigma_a())
        assert math.isfinite(enumerated_cross_moment(f, f, params, 1, 1, 0.3))
        assert math.isfinite(exact_cross_moment(f, f, params, 1, 1, 0.3))
        product(random_fn(rng, degree // 2, 1.3), random_fn(rng, degree - degree // 2, 1.3))
    with pytest.raises(DegreeCapError):
        from_monomial(np.ones(DEGREE_CAP + 2), 1.3)
    assert hermite_nodes.cache_info().currsize <= DEGREE_CAP + 1 + len(_CROSS_CHECK_ORDERS)
    rules = sum(hermite_nodes(k)[0].nbytes * 2 for k in range(1, DEGREE_CAP + 2))
    assert rules < 1 << 20


_IDLE_CPU = """
import resource, sys, time
import numpy as np
from bmclab import moments
from bmclab.kernels import BarParams, hermite_nodes
from bmclab.spectral import DEGREE_CAP, SpectralFn

# numpy's hermgauss wakes the helper for one spin at order 65, where its
# eigenvalue solve leaves LAPACK's unblocked path, as it does at the assumption
# checker's order 128.  The rule is cached, so it is taken first and the spin
# let pass: the window below measures the moments.
hermite_nodes(DEGREE_CAP + 1)
time.sleep(0.5)
rng = np.random.default_rng(0)
params = BarParams(0.5)
f = SpectralFn(params.sigma_a(), rng.normal(size=DEGREE_CAP + 1))
moments.enumerated_cross_moment(f, f, params, 2, 2, 0.3)
moments.exact_cross_moment(f, f, params, 2, 2, 0.3)
f = SpectralFn(params.sigma_a(), rng.normal(size=21))
moments.exact_cross_moment(f, f, params, 300, 300, 0.3)
usage = resource.getrusage(resource.RUSAGE_SELF)
before = usage.ru_utime + usage.ru_stime
time.sleep(0.2)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_utime + usage.ru_stime - before)
"""


def test_products_stay_under_the_openblas_thread_cutoff():
    # OpenBLAS runs a product of more than M*N*K = 2^18 multiply-adds on a
    # second thread, which then spins for about 130 ms of CPU.  The only matrix
    # product in the package is the assumption checker's slab line, whose size
    # test_kernels pins; the moments take none: at degree 64 x 64 their rule
    # of order 65 gives elementwise products, summed by math.fsum.
    products = [(path.stem, ast.unparse(node)) for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)]
    assert products == [("kernels", "left[i:i + _SLAB_ROWS] @ right")]
    assert products[0][1] in inspect.getsource(_quadrature_sums)
    # A fresh process that runs an enumeration and a cross moment at degree
    # 64 x 64, and a cross moment with 300 rows of degree-20 functions, uses
    # no CPU while it then sleeps 200 ms.
    # numpy loads first, with no OPENBLAS_NUM_THREADS, so its OpenBLAS keeps
    # its helper threads and only the absence of large products keeps them idle.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", _IDLE_CPU], env=env, check=True,
                         capture_output=True, text=True)
    assert float(out.stdout) < 0.05


def test_orthogonality_weights():
    sigma_a = 1.3
    for n in range(9):
        for m in range(9):
            got = stationary_inner(basis(n, sigma_a), basis(m, sigma_a))
            want = float(math.factorial(n)) if n == m else 0.0
            assert abs(got - want) < 1e-12 * max(1.0, want)


@_property
@given(sigma_a=_scales, cf=_coeffs, cg=_coeffs)
def test_inner_matches_quadrature(sigma_a, cf, cg):
    # 64 nodes integrate degree <= 127 exactly, so only rounding separates
    # the two: 1e3 ulps of the quadrature of the absolute product series.
    f = SpectralFn(sigma_a=sigma_a, coeffs=np.array(cf))
    g = SpectralFn(sigma_a=sigma_a, coeffs=np.array(cg))
    want = gaussian_expect(lambda x: f.evaluate(x) * g.evaluate(x), std=sigma_a)
    scale = gaussian_expect(lambda x: product_scale(f, g, x / sigma_a), std=sigma_a)
    assert abs(stationary_inner(f, g) - want) <= 1e3 * _EPS * scale + TRIM_EPS


def test_inner_examples():
    sigma_a = 1.7
    assert abs(stationary_inner(basis(1, sigma_a), basis(1, sigma_a)) - 1.0) < 1e-15
    x = identity(sigma_a)
    assert abs(stationary_inner(x, x) - sigma_a**2) < 1e-12
    sq = from_monomial([0, 0, 1], sigma_a)
    assert abs(stationary_inner(sq, sq) - 3.0 * sigma_a**4) < 1e-10


def test_kernel_action_is_diagonal():
    a = 0.6
    sigma_a = 0.9
    for n in range(0, DEGREE_CAP + 1, 7):
        f = basis(n, sigma_a)
        g = apply_kernel(f, a, 1)
        want = np.zeros(n + 1)
        want[n] = a**n
        assert np.allclose(g.coeffs, want[: len(g.coeffs)], rtol=0.0, atol=1e-300)
    c = constant(4.2, sigma_a)
    assert np.allclose(apply_kernel(c, a, 5).coeffs, c.coeffs)


def test_kernel_matches_conditional_expectation():
    # One kernel step is E[f(a x + sigma G)] with sigma = sigma_a sqrt(1-a^2).
    rng = np.random.default_rng(3)
    a = 0.5
    sigma_a = 1.0
    sigma = sigma_a * np.sqrt(1.0 - a * a)
    sq = from_monomial([0, 0, 1], sigma_a)
    stepped = apply_kernel(sq, a, 1)
    assert np.allclose(stepped.coeffs, [sigma_a**2, 0.0, 0.25 * sigma_a**2])
    for x in [0.0, 1.0, 2.0]:
        want = gaussian_expect(sq.evaluate, mean=a * x, std=sigma, order=64)
        assert abs(stepped.evaluate(x) - want) < 1e-10 * (1.0 + abs(want))
    f = random_fn(rng, 6, sigma_a)
    stepped = apply_kernel(f, a, 1)
    for x in [-2.0, 0.3]:
        want = gaussian_expect(f.evaluate, mean=a * x, std=sigma, order=64)
        assert abs(stepped.evaluate(x) - want) < 1e-10 * (1.0 + abs(want))


def test_multi_step_composes():
    rng = np.random.default_rng(4)
    f = random_fn(rng, 5, 1.4)
    two = apply_kernel(apply_kernel(f, 0.7, 1), 0.7, 1)
    assert np.allclose(apply_kernel(f, 0.7, 2).coeffs, two.coeffs)
    assert apply_kernel(f, 0.7, 0) is f


@_property
@given(sigma_a=_scales, cf=_coeffs, cg=_coeffs)
def test_product_pinned_and_oracle(sigma_a, cf, cg):
    # Tolerances: 4 (degree + 1)^2 ulps of the absolute series for pointwise
    # values, 1e3 ulps of its quadrature for the projections.
    g1 = basis(1, sigma_a)
    assert np.allclose(product(g1, g1).coeffs, [1.0, 0.0, 1.0])
    f = SpectralFn(sigma_a=sigma_a, coeffs=np.array(cf))
    g = SpectralFn(sigma_a=sigma_a, coeffs=np.array(cg))
    fg = product(f, g)
    assert np.allclose(product(f, constant(1.0, sigma_a)).coeffs, f.coeffs)
    xs = sigma_a * math.sqrt(2.0) * hermite_nodes(64)[0]  # nodes of N(0, sigma_a^2)
    gap = np.abs(fg.evaluate(xs) - f.evaluate(xs) * g.evaluate(xs))
    degree = f.degree + g.degree
    tol = (4.0 * (degree + 1) ** 2 * _EPS * product_scale(f, g, xs / sigma_a)
           + TRIM_EPS * absolute_series(np.ones(degree + 1), xs / sigma_a))
    assert np.all(gap <= tol)
    # Projection of the pointwise product onto each basis element.
    for k in range(fg.degree + 1):
        bk = basis(k, sigma_a)
        want_k = gaussian_expect(
            lambda x: f.evaluate(x) * g.evaluate(x) * bk.evaluate(x), std=sigma_a
        ) / float(math.factorial(k))
        scale_k = gaussian_expect(
            lambda x: product_scale(f, g, x / sigma_a)
            * absolute_series(bk.coeffs, x / sigma_a), std=sigma_a
        ) / float(math.factorial(k))
        assert abs(fg.coeffs[k] - want_k) <= 1e3 * _EPS * scale_k + TRIM_EPS


def test_product_inner_consistency():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_fn(rng, 5, 0.8)
        g = random_fn(rng, 5, 0.8)
        assert abs(stationary_inner(f, g) - product(f, g).coeffs[0]) < 1e-10


@_property
@given(sigma_a=_scales, cf=_coeffs)
def test_projectors(sigma_a, cf):
    f = SpectralFn(sigma_a=sigma_a, coeffs=np.array(cf))
    one = constant(1.0, sigma_a)
    x = identity(sigma_a)
    # center(f) changes c0 alone, to zero: its stationary mean.
    centered = center(f)
    assert centered.coeffs[0] == 0.0
    assert np.array_equal(centered.coeffs[1:], f.coeffs[1:])
    assert stationary_inner(one, centered) == 0.0
    mean_scale = gaussian_expect(lambda v: absolute_series(f.coeffs, v / sigma_a),
                                 std=sigma_a)
    mean = gaussian_expect(centered.evaluate, std=sigma_a)
    assert abs(mean) <= 1e3 * _EPS * mean_scale + TRIM_EPS
    # project_linear is idempotent and leaves a residual orthogonal to x.
    p = project_linear(f)
    assert np.array_equal(project_linear(p).coeffs, p.coeffs)
    residual = SpectralFn(sigma_a=sigma_a,
                          coeffs=f.coeffs - np.pad(p.coeffs, (0, len(f.coeffs) - len(p.coeffs))))
    # A c1 under the trim threshold is dropped from P f and stays in the
    # residual, so the residual keeps at most TRIM_EPS of x.
    assert abs(stationary_inner(residual, x)) <= TRIM_EPS * sigma_a
    cross = gaussian_expect(lambda v: residual.evaluate(v) * v, std=sigma_a)
    cross_scale = gaussian_expect(
        lambda v: absolute_series(f.coeffs, v / sigma_a) * np.abs(v), std=sigma_a)
    assert abs(cross) <= 1e3 * _EPS * cross_scale + TRIM_EPS


def test_projectors_pinned():
    sigma_a = 2.0
    x = identity(sigma_a)
    assert np.allclose(project_linear(x).coeffs, x.coeffs)
    sq = from_monomial([0, 0, 1], sigma_a)
    assert not np.any(project_linear(sq).coeffs)
    assert not np.any(center(constant(5.0, sigma_a)).coeffs)
    f = SpectralFn(sigma_a=sigma_a, coeffs=np.array([3.0, 2.0, 1.0, 0.5]))
    assert np.allclose(center(f).coeffs, [0.0, 2.0, 1.0, 0.5])
    assert np.allclose(project_linear(f).coeffs, [0.0, 2.0])


def test_pair_expect():
    # The two children are conditionally independent given the parent, so
    # their expected product is the product of the one-step kernel actions.
    sigma_a = 1.0
    a = 0.5
    x = identity(sigma_a)
    got = product(apply_kernel(x, a), apply_kernel(x, a))
    want = from_monomial([0, 0, 0.25], sigma_a)
    assert np.allclose(got.coeffs, want.coeffs)
    g = from_monomial([0.0, 1.0, 0.5], sigma_a)
    one = constant(1.0, sigma_a)
    got = product(apply_kernel(one, a), apply_kernel(g, a))
    assert np.allclose(got.coeffs, apply_kernel(g, a).coeffs)
    # Two-child product expectation never exceeds the one-step mean of f^2.
    f = from_monomial([0.3, -1.0, 0.2, 0.1], sigma_a)
    lhs = product(apply_kernel(f, a), apply_kernel(f, a))
    rhs = apply_kernel(product(f, f), a, 1)
    xs = np.linspace(-5.0, 5.0, 21)
    assert np.all(lhs.evaluate(xs) <= rhs.evaluate(xs) + 1e-12)


def test_exponential_convergence_bound():
    rng = np.random.default_rng(7)
    a = 0.6
    for _ in range(10):
        f = center(random_fn(rng, 6, 1.0))
        norm = np.sqrt(stationary_inner(f, f))
        for k in [1, 2, 5]:
            fk = apply_kernel(f, a, k)
            assert np.sqrt(stationary_inner(fk, fk)) <= abs(a) ** k * norm + 1e-12
    g3 = apply_kernel(basis(1, 1.0), a, 3)
    assert abs(np.sqrt(stationary_inner(g3, g3)) - abs(a) ** 3) < 1e-15


def test_kernel_preserves_stationary_mean():
    rng = np.random.default_rng(8)
    one = constant(1.0, 1.2)
    for _ in range(10):
        f = random_fn(rng, 6, 1.2)
        assert abs(
            stationary_inner(one, apply_kernel(f, 0.8, 1)) - stationary_inner(one, f)
        ) < 1e-12


def test_degree_cap_and_scale_errors():
    with pytest.raises(DegreeCapError):
        from_monomial(np.ones(DEGREE_CAP + 2), sigma_a=1.0)
    big = basis(40, 1.0)
    with pytest.raises(DegreeCapError):
        product(big, big)
    with pytest.raises(DegreeCapError):
        product(basis(DEGREE_CAP - 1, 1.0), basis(2, 1.0))
    with pytest.raises(ConfigError):
        stationary_inner(basis(1, 1.0), basis(1, 2.0))
    with pytest.raises(ConfigError):
        SpectralFn(sigma_a=-1.0, coeffs=np.array([1.0]))


def test_empty_coefficient_arrays_are_rejected():
    # An empty array would make a degree -1 function that cannot be evaluated.
    with pytest.raises(ConfigError, match="nonempty"):
        SpectralFn(sigma_a=1.0, coeffs=np.array([]))
    with pytest.raises(ConfigError, match="nonempty"):
        from_monomial([], sigma_a=1.0)


def test_trimming_keeps_degree_honest():
    f = SpectralFn(sigma_a=1.0, coeffs=np.array([1.0, 2.0, 0.0, 0.0]))
    assert f.degree == 1
    assert f.coeffs.tolist() == [1.0, 2.0]
    assert center(f).coeffs.tolist() == [0.0, 2.0]
    assert SpectralFn(sigma_a=1.0, coeffs=np.zeros(5)).degree == 0
