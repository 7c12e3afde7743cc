"""One-shot processes: what importing bmclab costs and what it leaves behind.

Importing bmclab loads numpy's and scipy.special's OpenBLAS with one thread
each unless the caller set ``OPENBLAS_NUM_THREADS``, so no idle helper thread
spins; the caller's environment is given back afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmclab
from test_golden import CASES, GOLDEN, _digest

SRC = Path(bmclab.__file__).resolve().parent.parent

# One tiny call of each command, then the thread count, the CPU used while
# idle and whether the environment came back unchanged.
_FRESH_PROCESS = """
import contextlib, io, json, os, resource, sys, time
before = dict(os.environ)
import bmclab.cli
argvs = [
    ["variance", "--a", "0.5", "--f", "x"],
    ["check-assumptions", "--a", "0.5"],
    ["simulate", "--a", "0.5", "--n", "3", "--replicas", "2"],
    ["slopes", "--alphas", "0.5,0.8", "--n", "8", "--replicas", "4",
     "--outer-repeats", "1"],
    ["clt", "--a", "0.5", "--n", "3", "--replicas", "4"],
    ["supercritical", "--a", "0.85", "--n", "3", "--replicas", "4"],
    ["martingale", "--a", "0.85", "--n", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in argvs:
        assert bmclab.cli.main(argv + ["--out", sys.argv[1]]) == 0
usage = resource.getrusage(resource.RUSAGE_SELF)
cpu = usage.ru_utime + usage.ru_stime
time.sleep(0.2)
usage = resource.getrusage(resource.RUSAGE_SELF)
task = "/proc/self/task"
print(json.dumps({
    "idle_cpu": usage.ru_utime + usage.ru_stime - cpu,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "environ_kept": dict(os.environ) == before,
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def _env(**extra) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=str(SRC), **extra)


def _fresh_process(tmp_path, **extra) -> dict:
    out = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(tmp_path)],
                         env=_env(**extra), check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_fresh_process_keeps_one_thread_and_the_environment(tmp_path):
    got = _fresh_process(tmp_path)
    assert got["environ_kept"]
    assert got["blas_threads"] is None
    assert got["idle_cpu"] < 0.05
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert got["threads"] == 1


def test_a_callers_blas_thread_count_wins(tmp_path):
    got = _fresh_process(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert got["environ_kept"]
    assert got["blas_threads"] == "2"
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its threads at the one CPU available")
    # The main thread plus one helper for each of the two OpenBLAS builds.
    assert got["threads"] == 3


@pytest.mark.parametrize("case", ["check-assumptions", "check-assumptions-divergent",
                                  "check-assumptions-near-threshold", "clt-critical"])
def test_one_shot_command_writes_the_golden_bytes(case, tmp_path):
    # hermgauss's eigen-solve and the quadrature slab products run on a
    # one-thread BLAS here; the bytes must be those of the golden table.
    subprocess.run([sys.executable, "-m", "bmclab.cli", *CASES[case],
                    "--out", str(tmp_path)],
                   env=_env(), check=True, capture_output=True)
    digests = {path.name: _digest(path.read_bytes())
               for path in sorted(tmp_path.iterdir()) if path.name != "manifest.json"}
    assert digests == GOLDEN[case]
