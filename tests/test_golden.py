"""Golden digests of every file the CLI writes, at small fixed configs.

Each case runs one file-writing command and compares blake2b digests of its
CSV/SVG/JSON outputs with the values stored below.  manifest.json is left
out because it records wall time.  ``variance`` writes no file, so its
stdout lines are digested instead, under the name "stdout".  A refactor that should not change any
output must leave this table unchanged; a deliberate output change updates
the table and is recorded in CHANGES.md.  The bytes depend on the floating
point results of numpy and scipy, so a dependency upgrade can move them too.

Print the current table with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import pytest

from bmclab.cli import main

CRITICAL_A = repr(2.0**-0.5)

CASES = {
    "simulate": ["simulate", "--a", "0.5", "--n", "6", "--replicas", "20",
                 "--f", "x^2", "--seed", "11"],
    # The supercritical tree statistic, and a Gaussian root law.
    "simulate-supercritical-tree": ["simulate", "--a", "0.85", "--shape", "tree",
                                    "--f", "0.3,1,0.5,0.2", "--n", "6",
                                    "--replicas", "20", "--seed", "13"],
    "simulate-gaussian-tree": ["simulate", "--a", "-0.6", "--shape", "tree",
                               "--f", "x^2", "--nu", "gaussian:0.2,2", "--n", "6",
                               "--replicas", "20", "--seed", "17"],
    "clt-critical": ["clt", "--a", CRITICAL_A, "--n", "6", "--replicas", "50",
                     "--nu", "dirac:0", "--seed", "3"],
    "clt-subcritical": ["clt", "--a", "0.5", "--n", "6", "--replicas", "50",
                        "--f", "0.3,1,0.5,0.2", "--seed", "1"],
    "slopes": ["slopes", "--alphas", "0.3,0.6", "--f", "x", "--n", "8",
               "--replicas", "40", "--outer-repeats", "2", "--seed", "3",
               "--plot"],
    # The whole-tree slope fit.
    "slopes-tree": ["slopes", "--alphas", "0.3,0.8", "--f", "0.3,1,0.5,0.2",
                    "--target", "Tn", "--n", "7", "--n-min", "2", "--replicas", "30",
                    "--outer-repeats", "3", "--seed", "7", "--plot"],
    "supercritical": ["supercritical", "--a", "0.85", "--n", "7",
                      "--replicas", "50", "--seed", "5"],
    "martingale": ["martingale", "--a", "0.85", "--n", "6", "--seed", "4"],
    "check-assumptions": ["check-assumptions", "--a", "0.75"],
    # Raises near-threshold:hilsch2 and quadrature-slow-convergence:hilsch2.
    "check-assumptions-near-threshold": ["check-assumptions", "--a", "0.7239"],
    # All three norms diverge, and the quadrature sums must grow with the order.
    "check-assumptions-divergent": ["check-assumptions", "--a", "0.9"],
}

VARIANCE_F = ["--f", "0.3,1,0.5,0.2"]

STDOUT_CASES = {
    "variance-critical-single": ["variance", "--a", CRITICAL_A, *VARIANCE_F],
    "variance-critical-tree": ["variance", "--a", CRITICAL_A, "--sigma", "0.7",
                               "--shape", "tree", *VARIANCE_F],
    # The depth-gap coupling a^d keeps the sign of the slope.
    "variance-critical-tree-negative": ["variance", "--a=-0.7071067811865476",
                                        "--shape", "tree", *VARIANCE_F],
    "variance-subcritical-single": ["variance", "--a", "0.5", "--sigma", "1.3",
                                    *VARIANCE_F],
    "variance-subcritical-tree": ["variance", "--a", "-0.6", "--shape", "tree",
                                  *VARIANCE_F],
}

GOLDEN = {
    "check-assumptions": {
        "assumptions.json": "db21a197d7cd846475d486ca65fc8b23",
    },
    "check-assumptions-divergent": {
        "assumptions.json": "cfca4f13a2e6e14d17ff4017b19f65a1",
    },
    "check-assumptions-near-threshold": {
        "assumptions.json": "7ff3d616cd2da55374ca167845eba091",
    },
    "clt-critical": {
        "clt.csv": "c76c4add6e21eed5f7f49cb31e0376e3",
        "stats.csv": "1210bfed7359d2da028654d518e59311",
    },
    "clt-subcritical": {
        "clt.csv": "3999d13519d7e900a32f55bf1feec6d3",
        "stats.csv": "122b1a194c33fd8df0ba878e462a27e6",
    },
    "martingale": {
        "martingale.csv": "88f27e566d3de0a312d1d9388f91c2f0",
    },
    "simulate": {
        "stats.csv": "de39f0f5d2b9763fb7107b3031b1b3b7",
    },
    "simulate-gaussian-tree": {
        "stats.csv": "1f399de95af097cd40d9601ec4640403",
    },
    "simulate-supercritical-tree": {
        "stats.csv": "a0e2438a80a8e041cb3a6292c6cde387",
    },
    "slopes": {
        "slopes.csv": "e31d176b69ac4324403db4d4469a580a",
        "slopes.svg": "f36865d8fef310f7cde26545b5b16d22",
    },
    "slopes-tree": {
        "slopes.csv": "55777417abe3364918b58c1d758eefdb",
        "slopes.svg": "07c79ac5b3b8842c8d99b85ac3d12438",
    },
    "supercritical": {
        "supercritical.csv": "2b788f206627409b66305c302e040722",
    },
    "variance-critical-single": {
        "stdout": "e873e5c6c2483f79da89cb85ec6f8748",
    },
    "variance-critical-tree": {
        "stdout": "509d294964aee425c2992db33b194ba0",
    },
    "variance-critical-tree-negative": {
        "stdout": "67f8491e91ce2ec437a749ebb0edc9ba",
    },
    "variance-subcritical-single": {
        "stdout": "7e7c10f7e916925239ea22210103c515",
    },
    "variance-subcritical-tree": {
        "stdout": "822bd9e029efcfcf9703a53876937fa1",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def output_digests(argv, out_dir) -> dict[str, str]:
    """Run one command into out_dir; digest every output but the manifest."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out_dir)]) == 0
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = _digest(fh.read())
    return digests


def stdout_digests(argv) -> dict[str, str]:
    """Run one command that writes no file; digest what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return {"stdout": _digest(buf.getvalue().encode("utf-8"))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path):
    assert output_digests(CASES[case], tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STDOUT_CASES))
def test_stdout_digests(case):
    assert stdout_digests(STDOUT_CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = {}
        for case in sorted(CASES):
            table[case] = output_digests(CASES[case], os.path.join(root, case))
    for case in STDOUT_CASES:
        table[case] = stdout_digests(STDOUT_CASES[case])
    sys.stdout.flush()
    for case, digests in sorted(table.items()):
        print(f"    {case!r}: {{")
        for name, digest in digests.items():
            print(f"        {name!r}: {digest!r},")
        print("    },")
