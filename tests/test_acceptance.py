"""Acceptance suite: nine end-to-end criteria at full desk scale.

Each test covers one numbered criterion, prints a single pass/fail line
(also echoed in the terminal summary), and enforces the stated tolerance
and runtime budget.  All randomness is seeded, so every verdict is
reproducible.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from numpy.polynomial.polynomial import polyval

from conftest import record_criterion

import bmclab.treesim as treesim
from bmclab.cli import main as cli_main
from bmclab.experiments import (
    ExperimentConfig,
    clt_study,
    h1,
    h2,
    slope_study,
    slope_summary,
    supercritical_study,
)
from bmclab.kernels import BarParams, check_assumptions
from bmclab.moments import (
    enumerated_cross_moment,
    enumerated_mean,
    enumerated_second_moment,
    exact_cross_moment,
    exact_mean,
    exact_second_moment,
)
from bmclab.quadrature import gaussian_expect, hermite_nodes
from bmclab.rng import RandomStream
from bmclab.spectral import apply_kernel, from_monomial, product, stationary_inner
from bmclab.treesim import FunctionalSeq, InitialLaw, generation_sums

A_SET = (0.3, 2.0**-0.5, 0.85)
MONOMIALS = ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))
MONOMIAL_NAMES = ("x", "x^2", "x^3")


def _finish(num: int, name: str, failures: list[str], elapsed: float,
            limit: float | None) -> None:
    if limit is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num} ({name}): {status} [{elapsed:.1f}s]"
    if failures:
        line += " -- " + "; ".join(failures[:4])
    record_criterion(line)
    print(line)
    assert not failures, line


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def test_criterion_1_spectral_oracle():
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(20260817)
    a_values = (0.2, 0.5, 2.0**-0.5, 0.85)
    points = np.array([-1.3, -0.4, 0.0, 0.7, 2.1])
    raw_nodes, raw_weights = hermite_nodes(64)
    nodes = math.sqrt(2.0) * raw_nodes
    weights = raw_weights / math.sqrt(math.pi)
    basis_at_nodes = np.zeros((17, nodes.size))
    basis_at_nodes[0] = 1.0
    basis_at_nodes[1] = nodes
    for k in range(2, 17):
        basis_at_nodes[k] = (nodes * basis_at_nodes[k - 1]
                             - (k - 1) * basis_at_nodes[k - 2])
    factorials = np.array([math.factorial(k) for k in range(17)])
    worst = 0.0
    for trial in range(200):
        fc = rng.uniform(-1.0, 1.0, int(rng.integers(1, 10)))
        gc = rng.uniform(-1.0, 1.0, int(rng.integers(1, 10)))
        a = a_values[trial % 4]
        sigma_a = BarParams.symmetric_params(a).sigma_a()
        f = from_monomial(fc, sigma_a)
        g = from_monomial(gc, sigma_a)

        step_std = math.sqrt(1.0 - a * a) * sigma_a
        applied = apply_kernel(f, a).evaluate(points)
        for x, got in zip(points, applied):
            want = gaussian_expect(lambda t: polyval(t, fc),
                                   mean=a * x, std=step_std)
            worst = max(worst, _rel_err(got, want))

        inner_want = gaussian_expect(
            lambda t: polyval(t, fc) * polyval(t, gc), std=sigma_a)
        worst = max(worst, _rel_err(stationary_inner(f, g), inner_want))

        # The quadrature oracle measures integrals, so the product is
        # probed through all of its basis projections: factorial(k) times
        # coefficient k must equal the integral of f g basis_k under the
        # stationary law.  This touches every product coefficient.
        prod = product(f, g)
        fg_at_nodes = (polyval(sigma_a * nodes, fc)
                       * polyval(sigma_a * nodes, gc) * weights)
        width = len(prod.coeffs)
        prod_want = basis_at_nodes[:width] @ fg_at_nodes
        prod_got = factorials[:width] * prod.coeffs
        for got, want in zip(prod_got, prod_want):
            worst = max(worst, _rel_err(got, want))
    if worst > 1e-10:
        failures.append(f"max relative error {worst:.3e} > 1e-10")
    print(f"spectral ops worst relative error: {worst:.3e}")
    _finish(1, "spectral ops vs quadrature", failures,
            time.perf_counter() - start, 1.0)


def test_criterion_2_many_to_one_monte_carlo():
    start = time.perf_counter()
    failures: list[str] = []
    replicas = 20_000
    depth = 8
    seed = 0
    for a in A_SET:
        params = BarParams.symmetric_params(a)
        funcs = [from_monomial(c, params.sigma_a()) for c in MONOMIALS]
        for x0 in (0.0, 1.0):
            keys = RandomStream.from_seed(seed).split(5).split_keys(
                np.arange(replicas))
            seed += 1
            sums = generation_sums([(params, funcs)], InitialLaw.dirac(x0),
                                   depth, keys)[0]
            for n in (5, 8):
                for j, f in enumerate(funcs):
                    sample = sums[:, n, j]
                    mean_se = sample.std(ddof=1) / math.sqrt(replicas)
                    mean_err = abs(sample.mean() - exact_mean(f, params, n, x0))
                    if mean_err > 4.0 * mean_se:
                        failures.append(
                            f"mean a={a:.3g} x0={x0:g} f={MONOMIAL_NAMES[j]} "
                            f"n={n}: off {mean_err / mean_se:.1f} SE")
                    squares = sample**2
                    m2_se = squares.std(ddof=1) / math.sqrt(replicas)
                    m2_err = abs(squares.mean()
                                 - exact_second_moment(f, params, n, x0))
                    if m2_err > 4.0 * m2_se:
                        failures.append(
                            f"second moment a={a:.3g} x0={x0:g} "
                            f"f={MONOMIAL_NAMES[j]} n={n}: "
                            f"off {m2_err / m2_se:.1f} SE")
    _finish(2, "many-to-one moments vs MC", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_3_enumeration_oracle():
    start = time.perf_counter()
    failures: list[str] = []
    worst = 0.0
    for a in A_SET:
        params = BarParams.symmetric_params(a)
        funcs = [from_monomial(c, params.sigma_a()) for c in MONOMIALS]
        for x0 in (0.0, 1.0):
            for j, f in enumerate(funcs):
                worst = max(worst, _rel_err(
                    exact_mean(f, params, 4, x0),
                    enumerated_mean(f, params, 4, x0)))
                for n in (2, 4):
                    got = exact_second_moment(f, params, n, x0)
                    want = enumerated_second_moment(f, params, n, x0)
                    err = abs(got - want) / max(1.0, abs(want))
                    if err > 1e-8:
                        failures.append(
                            f"second moment a={a:.3g} x0={x0:g} "
                            f"f={MONOMIAL_NAMES[j]} n={n}: rel {err:.2e}")
                    worst = max(worst, err)
            for fi, gi, n, m in ((1, 0, 4, 2), (2, 1, 3, 3), (2, 0, 4, 1),
                                 (0, 0, 4, 0)):
                got = exact_cross_moment(funcs[fi], funcs[gi], params, n, m, x0)
                want = enumerated_cross_moment(funcs[fi], funcs[gi], params,
                                               n, m, x0)
                err = abs(got - want) / max(1.0, abs(want))
                if err > 1e-8:
                    failures.append(
                        f"cross a={a:.3g} x0={x0:g} "
                        f"({MONOMIAL_NAMES[fi]},{MONOMIAL_NAMES[gi]}) "
                        f"n={n} m={m}: rel {err:.2e}")
                worst = max(worst, err)
    print(f"enumeration worst relative error: {worst:.3e}")
    _finish(3, "exact moments vs enumeration", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_4_subcritical_clt():
    start = time.perf_counter()
    failures: list[str] = []
    params = BarParams.symmetric_params(0.5, 1.0)
    cfg = ExperimentConfig(
        params=params,
        nu=InitialLaw.stationary(),
        fseq=FunctionalSeq.single(from_monomial([0.0, 1.0], params.sigma_a())),
        n=12,
        replicas=5000,
        master_seed=41,
    )
    res = clt_study(cfg)
    if abs(res.series_variance - 2.0) > 1e-6:
        failures.append(f"series variance {res.series_variance!r} != 2")
    if abs(res.empirical_variance - 2.0) > 0.05 * 2.0:
        failures.append(
            f"empirical variance {res.empirical_variance:.4f} "
            "outside 5% of 2")
    if not res.ks_distance < 0.03:
        failures.append(f"KS distance {res.ks_distance:.4f} >= 0.03")
    print(f"subcritical: empirical var {res.empirical_variance:.4f}, "
          f"KS {res.ks_distance:.4f}")
    _finish(4, "subcritical CLT at depth 12", failures,
            time.perf_counter() - start, 120.0)


def test_criterion_5_critical_clt():
    start = time.perf_counter()
    failures: list[str] = []
    params = BarParams.symmetric_params(2.0**-0.5, 1.0)
    cfg = ExperimentConfig(
        params=params,
        nu=InitialLaw.dirac(0.0),
        fseq=FunctionalSeq.single(from_monomial([0.0, 1.0], params.sigma_a())),
        n=14,
        replicas=5000,
        master_seed=43,
    )
    res = clt_study(cfg)
    if abs(res.series_variance - 1.0) > 1e-9:
        failures.append(f"series variance {res.series_variance!r} != 1")
    if abs(res.empirical_variance - 1.0) > 0.10:
        failures.append(
            f"empirical variance {res.empirical_variance:.4f} "
            "outside 10% of 1")
    print(f"critical: empirical var {res.empirical_variance:.4f}, "
          f"KS {res.ks_distance:.4f}")
    _finish(5, "critical CLT at depth 14", failures,
            time.perf_counter() - start, 300.0)


def test_criterion_6_phase_transition_slopes():
    start = time.perf_counter()
    failures: list[str] = []
    alphas = [round(0.1 + 0.05 * k, 10) for k in range(18)]
    for coeffs, name, target_fn in (([0.0, 1.0], "x", h1),
                                    ([0.0, 0.0, 1.0], "x^2", h2)):
        results = slope_study(alphas, coeffs, n_max=12, replicas=500,
                              target="Gn", outer_repeats=20,
                              master_seed=97 if name == "x" else 98)
        worst = 0.0
        for summary in slope_summary(results):
            expected = target_fn(summary.alpha)
            dev = abs(summary.mean_slope - expected)
            worst = max(worst, dev)
            if dev > 0.15:
                failures.append(
                    f"f={name} alpha={summary.alpha:g}: mean slope "
                    f"{summary.mean_slope:.3f} vs {expected:.3f} "
                    f"(dev {dev:.3f})")
        print(f"slopes f={name}: worst deviation {worst:.3f}")
    _finish(6, "phase-transition slopes", failures,
            time.perf_counter() - start, 900.0)


def test_criterion_7_supercritical_limits():
    start = time.perf_counter()
    failures: list[str] = []
    params = BarParams.symmetric_params(0.85, 1.0)
    cfg = ExperimentConfig(
        params=params,
        nu=InitialLaw.stationary(),
        fseq=FunctionalSeq.single(from_monomial([0.0, 1.0], params.sigma_a())),
        n=14,
        replicas=2000,
        master_seed=53,
    )
    res = supercritical_study(cfg)
    limit_ratio = 2.0 * 0.85 / (2.0 * 0.85 - 1.0)
    if abs(res.ratio_median - limit_ratio) > 0.10 * limit_ratio:
        failures.append(
            f"ratio median {res.ratio_median:.4f} outside 10% of "
            f"{limit_ratio:.4f}")
    diffs = res.martingale_l1_diffs
    for level in range(8, 13):
        if not diffs[level] > diffs[level + 1]:
            failures.append(
                f"martingale increment not decreasing at level {level}: "
                f"{diffs[level]:.3e} <= {diffs[level + 1]:.3e}")
    print(f"supercritical: ratio median {res.ratio_median:.4f} "
          f"(limit {limit_ratio:.4f})")
    _finish(7, "supercritical ratio and martingale", failures,
            time.perf_counter() - start, 180.0)


def test_criterion_8_assumption_thresholds():
    start = time.perf_counter()
    failures: list[str] = []
    cases = (
        ("Qh_in_L4", 0.75, True), ("Qh_in_L4", 0.76, False),
        ("hilsch2_holds", 0.724, True), ("hilsch2_holds", 0.725, False),
        ("h_in_L4", 0.57, True), ("h_in_L4", 0.58, False),
    )
    for field, a, expected in cases:
        report = check_assumptions(a)
        got = getattr(report, field)
        if got is not expected:
            failures.append(f"{field} at a={a}: got {got}, want {expected}")
    _finish(8, "integrability thresholds", failures,
            time.perf_counter() - start, 5.0)


def _collect_outputs(out_dir):
    found = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix in (".csv", ".svg"):
            found[path.name] = path.read_bytes()
    return found


def test_criterion_9_thread_determinism(tmp_path, capsys, monkeypatch):
    start = time.perf_counter()
    failures: list[str] = []
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 64)
    # Tiles of 24 parents: rows of up to 16 parents stay whole, wider rows
    # split into column slices (24 + 8, 24 + 24 + 16, ...).
    monkeypatch.setattr(treesim, "TILE_VALUES", 24)
    commands = {
        "simulate": ["simulate", "--a", "0.5", "--n", "7", "--replicas", "48",
                     "--seed", "9"],
        "clt": ["clt", "--a", "0.5", "--n", "7", "--replicas", "48",
                "--seed", "9"],
        "slopes": ["slopes", "--alphas", "0.3,0.6", "--f", "x", "--n", "8",
                   "--replicas", "24", "--outer-repeats", "2", "--seed", "9",
                   "--plot"],
        "supercritical": ["supercritical", "--a", "0.85", "--n", "7",
                          "--replicas", "48", "--seed", "9"],
        "martingale": ["martingale", "--a", "0.85", "--n", "6", "--seed", "9"],
    }
    baselines = {}
    for threads in range(1, 9):
        for name, argv in commands.items():
            out = tmp_path / f"{name}-t{threads}"
            code = cli_main(argv + ["--threads", str(threads),
                                    "--out", str(out)])
            if code != 0:
                failures.append(f"{name} at threads={threads} exited {code}")
                continue
            outputs = _collect_outputs(out)
            if threads == 1:
                baselines[name] = outputs
            elif outputs != baselines[name]:
                changed = sorted(k for k in outputs
                                 if outputs.get(k) != baselines[name].get(k))
                failures.append(
                    f"{name} outputs differ at threads={threads}: {changed}")
    capsys.readouterr()
    manifest = json.loads((tmp_path / "clt-t1" / "manifest.json").read_text())
    if manifest["command"] != "clt":
        failures.append("manifest smoke check failed")
    _finish(9, "bitwise determinism across 1..8 threads", failures,
            time.perf_counter() - start, None)
