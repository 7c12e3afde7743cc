"""Tests for the cached Gauss-Hermite rule in kernels and the quadrature oracle."""

import math

import numpy as np
import pytest

from bmclab.kernels import hermite_nodes
from oracles import gaussian_expect


def test_rules_are_cached_and_read_only():
    for order in [1, 2, 3, 16, 128]:
        t, w = hermite_nodes(order)
        assert hermite_nodes(order)[0] is t
        assert len(t) == len(w) == order
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # Closed forms at orders 2 and 3 (roots of H_2 and H_3).
    t, w = hermite_nodes(2)
    assert np.allclose(t, [-math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15)
    assert np.allclose(w, [math.sqrt(math.pi) / 2] * 2, rtol=1e-15)
    t, w = hermite_nodes(3)
    assert np.allclose(t, [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], rtol=1e-15, atol=1e-16)
    root_pi = math.sqrt(math.pi)
    assert np.allclose(w, [root_pi / 6, 2 * root_pi / 3, root_pi / 6], rtol=1e-14)
    with pytest.raises(ValueError):
        hermite_nodes(0)


def test_weights_sum():
    for order in [4, 32, 64]:
        _, w = hermite_nodes(order)
        assert abs(w.sum() - np.sqrt(np.pi)) < 1e-13


def test_gaussian_moments():
    # E[X^{2k}] = (2k-1)!! for a standard normal; odd moments vanish.
    double_factorials = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0}
    for p, want in double_factorials.items():
        got = gaussian_expect(lambda x: x**p, order=64)
        assert abs(got - want) < 1e-10 * max(1.0, want)
    for p in [1, 3, 5, 7]:
        assert abs(gaussian_expect(lambda x: x**p, order=64)) < 1e-10


def test_mean_and_scale_change():
    got = gaussian_expect(lambda x: x**2, mean=3.0, std=2.0, order=32)
    assert abs(got - (9.0 + 4.0)) < 1e-10
    got = gaussian_expect(lambda x: np.cos(x), mean=0.0, std=1.0, order=64)
    assert abs(got - np.exp(-0.5)) < 1e-12


def test_orders_agree_on_smooth_integrand():
    vals = [gaussian_expect(lambda x: np.exp(0.1 * x**2 + x), order=k) for k in (32, 64, 128)]
    # Closed form: E[exp(g x^2 + x)] = (1-2g)^{-1/2} exp(1/(2(1-2g))).
    want = (1 - 0.2) ** -0.5 * np.exp(0.5 / 0.8)
    for v in vals:
        assert abs(v - want) < 1e-9 * want
