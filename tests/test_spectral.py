import math

import numpy as np
import pytest

from bmclab.errors import ConfigError, DegreeCapError
from bmclab.quadrature import gaussian_expect
from bmclab.spectral import (
    DEGREE_CAP,
    SpectralFn,
    apply_kernel,
    as_monomial,
    center,
    constant,
    from_monomial,
    identity,
    pair_expect,
    product,
    project_linear,
    stationary_inner,
)


def basis(n, sigma_a):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return SpectralFn(sigma_a=sigma_a, coeffs=c)


def random_fn(rng, degree, sigma_a):
    return SpectralFn(sigma_a=sigma_a, coeffs=rng.normal(size=degree + 1))


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
        back = as_monomial(f)
        assert np.allclose(back, poly, rtol=0.0, atol=1e-10 * scale)


def test_orthogonality_weights():
    sigma_a = 1.3
    for n in range(9):
        for m in range(9):
            got = stationary_inner(basis(n, sigma_a), basis(m, sigma_a))
            want = float(math.factorial(n)) if n == m else 0.0
            assert abs(got - want) < 1e-12 * max(1.0, want)


def test_inner_matches_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(25):
        sigma_a = float(rng.uniform(0.4, 2.5))
        f = random_fn(rng, int(rng.integers(0, 7)), sigma_a)
        g = random_fn(rng, int(rng.integers(0, 7)), sigma_a)
        want = gaussian_expect(lambda x: f.evaluate(x) * g.evaluate(x), std=sigma_a, order=64)
        got = stationary_inner(f, g)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))


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


def test_product_pinned_and_oracle():
    sigma_a = 1.1
    g1 = basis(1, sigma_a)
    sq = product(g1, g1)
    assert np.allclose(sq.coeffs, [1.0, 0.0, 1.0])
    rng = np.random.default_rng(5)
    xs = np.linspace(-6.0 * sigma_a, 6.0 * sigma_a, 31)
    for _ in range(20):
        f = random_fn(rng, 4, sigma_a)
        g = random_fn(rng, 4, sigma_a)
        fg = product(f, g)
        assert np.allclose(product(f, constant(1.0, sigma_a)).coeffs, f.coeffs)
        want = f.evaluate(xs) * g.evaluate(xs)
        got = fg.evaluate(xs)
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) < 1e-10 * scale
        # Projection of the pointwise product onto each basis element.
        for k in range(min(5, fg.degree + 1)):
            bk = basis(k, sigma_a)
            want_k = gaussian_expect(
                lambda x: f.evaluate(x) * g.evaluate(x) * bk.evaluate(x),
                std=sigma_a,
                order=64,
            ) / float(math.factorial(k))
            got_k = fg.coeffs[k] if k < len(fg.coeffs) else 0.0
            assert abs(got_k - want_k) < 1e-9 * (1.0 + abs(want_k))


def test_product_inner_consistency():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_fn(rng, 5, 0.8)
        g = random_fn(rng, 5, 0.8)
        assert abs(stationary_inner(f, g) - product(f, g).coeffs[0]) < 1e-10


def test_projectors():
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
    sigma_a = 1.0
    a = 0.5
    x = identity(sigma_a)
    got = pair_expect(x, x, a)
    want = from_monomial([0, 0, 0.25], sigma_a)
    assert np.allclose(got.coeffs, want.coeffs)
    g = from_monomial([0.0, 1.0, 0.5], sigma_a)
    assert np.allclose(
        pair_expect(constant(1.0, sigma_a), g, a).coeffs, apply_kernel(g, a, 1).coeffs
    )
    # Two-child product expectation never exceeds the one-step mean of f^2.
    f = from_monomial([0.3, -1.0, 0.2, 0.1], sigma_a)
    lhs = pair_expect(f, f, a)
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
    with pytest.raises(ConfigError):
        stationary_inner(basis(1, 1.0), basis(1, 2.0))
    with pytest.raises(ConfigError):
        SpectralFn(sigma_a=-1.0, coeffs=np.array([1.0]))


def test_trimming_keeps_degree_honest():
    f = SpectralFn(sigma_a=1.0, coeffs=np.array([1.0, 2.0, 0.0, 0.0]))
    assert f.degree == 1
    assert f.coeffs.tolist() == [1.0, 2.0]
    assert center(f).coeffs.tolist() == [0.0, 2.0]
    assert SpectralFn(sigma_a=1.0, coeffs=np.zeros(5)).degree == 0
