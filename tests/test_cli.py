"""End-to-end checks for the command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmclab.experiments as experiments
import bmclab.treesim as treesim
from bmclab.cli import (
    _COMMANDS,
    THREADS_MAX,
    _build_parser,
    _parse_alphas,
    _parse_f,
    _parse_nu,
    main,
)
from bmclab.errors import ConfigError, ResourceCapError


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_parse_f_forms():
    assert _parse_f("x") == [0.0, 1.0]
    assert _parse_f("x^3") == [0.0, 0.0, 0.0, 1.0]
    assert _parse_f("1") == [1.0]
    assert _parse_f("0.5,0,2") == [0.5, 0.0, 2.0]
    assert _parse_f([0, 1.5]) == [0.0, 1.5]
    with pytest.raises(ConfigError):
        _parse_f("x^9")
    with pytest.raises(ConfigError):
        _parse_f("x^0")
    with pytest.raises(ConfigError):
        _parse_f("y")
    with pytest.raises(ConfigError):
        _parse_f(["x2"])


def test_parse_nu_forms():
    assert _parse_nu("stationary") == treesim.InitialLaw.stationary()
    assert _parse_nu(" dirac:1.5") == treesim.InitialLaw.dirac(1.5)
    assert _parse_nu("gaussian:0,2") == treesim.InitialLaw.gaussian(0.0, 2.0)
    for bad in ("uniform", "gaussian:1", "dirac:nan", "dirac:inf",
                "gaussian:inf,1", "gaussian:nan,1", "gaussian:0,inf",
                "gaussian:0,nan", "gaussian:0,0"):
        with pytest.raises(ConfigError):
            _parse_nu(bad)


def test_parse_alpha_grids():
    grid = _parse_alphas("0.05:0.95:0.05")
    assert len(grid) == 19
    assert grid[0] == 0.05
    assert grid[-1] == 0.95
    assert _parse_alphas("0.1,0.2") == [0.1, 0.2]
    assert _parse_alphas([0.3]) == [0.3]
    with pytest.raises(ConfigError):
        _parse_alphas("0.9:0.1:0.05")
    with pytest.raises(ConfigError):
        _parse_alphas("0.1:0.9")
    with pytest.raises(ConfigError):
        _parse_alphas([0.2, "a"])
    for bad in ("0.1:0.9:nan", "0.1:nan:0.1", "-inf:0.5:0.1", "0.1:inf:0.1",
                "0.1:0.9:inf"):
        with pytest.raises(ConfigError):
            _parse_alphas(bad)
    # 800,001 points: the count is checked before the list is built.
    with pytest.raises(ResourceCapError):
        _parse_alphas("0.1:0.9:1e-6")
    with pytest.raises(ResourceCapError):
        _parse_alphas("-1e300:1e300:1e-300")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_unchanged_by_early_exits(capsys, monkeypatch):
    _build_parser.cache_clear()
    argv = ["variance", "--a", "0.5", "--f", "x^2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["variance", "--a", "0.5", "--no-such-flag", "1"]) == 2
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    assert main(["variance", "--help"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert built == []


def test_simulate_writes_stats_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--a", "0.5", "--sigma", "1", "--n", "6",
                 "--replicas", "12", "--f", "x", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    lines = _read(out / "stats.csv").splitlines()
    assert lines[0] == "replica,statistic"
    assert len(lines) == 13
    assert lines[1].split(",")[0] == "0"
    float(lines[1].split(",")[1])
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 7
    assert manifest["outputs"] == ["stats.csv"]
    assert len(manifest["config_digest"]) == 16
    assert manifest["wall_time_s"] >= 0.0
    capsys.readouterr()


def _printed_number(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.startswith(name + " = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no line for {name} in {out!r}")


def test_variance_prints_identity_value(capsys):
    assert main(["variance", "--a", "0.5", "--f", "x"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "regime = subcritical"
    assert abs(_printed_number(out, "value") - 2.0) <= 1e-14
    assert _printed_number(out, "sigma2") == 0.0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("a,f,want", [
    ("0.7", "x", 50.0),
    ("0.7", "x^3", 1782.2941164434221),
    ("0.705", "x", 1.0 / (1.0 - 2.0 * 0.705**2)),
    ("0.705", "x^3", 6033.885048612309),
])
def test_variance_finite_near_the_critical_slope(a, f, want, capsys):
    assert main(["variance", "--a", a, "--f", f]) == 0
    value = _printed_number(capsys.readouterr().out, "value")
    assert value == pytest.approx(want, rel=1e-12)


def test_removed_variance_options_exit_two(tmp_path, capsys):
    assert main(["variance", "--a", "0.5", "--f", "x", "--tol", "0"]) == 2
    assert main(["variance", "--a", "0.5", "--f", "x", "--regime", "sub"]) == 2
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"a": 0.5, "tol": 1e-10}), encoding="utf-8")
    assert main(["variance", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_variance_auto_classifies(capsys):
    assert main(["variance", "--a", "0.70710678118654752", "--f", "x"]) == 0
    out = capsys.readouterr().out
    assert "regime = critical" in out
    assert abs(_printed_number(out, "value") - 1.0) < 1e-12
    assert main(["variance", "--a", "0.9", "--f", "x"]) == 3
    err = capsys.readouterr().err
    assert "supercritical" in err


def test_clt_csv_schema(tmp_path, capsys):
    out = tmp_path / "clt"
    code = main(["clt", "--a", "0.5", "--n", "6", "--replicas", "200",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = _read(out / "clt.csv").splitlines()
    assert lines[0] == ("n,empirical_variance,series_variance,ks_distance,"
                        "ks_threshold,mean,skewness,kurtosis")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "6"
    assert all(math.isfinite(float(v)) for v in fields[1:])
    stats = _read(out / "stats.csv").splitlines()
    assert len(stats) == 201
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["outputs"] == ["clt.csv", "stats.csv"]
    capsys.readouterr()


# Per command: flags that enter the config, and switches that do not.
_ROUND_TRIPS = {
    "simulate": (["--a", "0.5", "--n", "6", "--replicas", "20", "--f", "x^2",
                  "--seed", "11"], []),
    "variance": (["--a", "-0.6", "--sigma", "1.3", "--f", "0.3,1,0.5,0.2",
                  "--shape", "tree"], []),
    "clt": (["--a", "0.5", "--n", "5", "--replicas", "20", "--shape", "tree",
             "--nu", "gaussian:0.1,2", "--seed", "3"], []),
    "slopes": (["--alphas", "0.3,0.6", "--n", "7", "--n-min", "2", "--target", "Tn",
                "--replicas", "10", "--outer-repeats", "2", "--seed", "5"], ["--plot"]),
    "supercritical": (["--a", "0.85", "--n", "5", "--replicas", "10",
                       "--nu", "dirac:-0.0", "--seed", "2"], []),
    "martingale": (["--a", "0.85", "--n", "5", "--f", "x^3", "--seed", "4"], []),
    "check-assumptions": (["--a", "0.75"], []),
}


def _run_round_trip_side(argv, out, dumped, capsys):
    """Run once; return the outputs but the manifest, the stdout lines that
    name no path, and the digest of the config dumped to `dumped`."""
    assert main(argv + ["--dump-config", str(dumped), "--out", str(out)]) == 0, argv
    lines = capsys.readouterr().out.splitlines()
    digest = re.search(r"\(digest (\w+)\)", lines[0]).group(1)
    printed = [line for line in lines[1:]
               if not line.startswith(("wrote ", "manifest: "))]
    files = {name: _read(out / name) for name in sorted(os.listdir(out))
             if name != "manifest.json"}
    if os.path.exists(out / "manifest.json"):
        assert json.loads(_read(out / "manifest.json"))["config_digest"] == digest
    return files, printed, digest


def test_dump_config_round_trip(tmp_path, capsys):
    for command, (flags, switches) in _ROUND_TRIPS.items():
        first_cfg = tmp_path / f"{command}-1.json"
        first = _run_round_trip_side([command, *flags, *switches],
                                     tmp_path / f"{command}-1", first_cfg, capsys)
        second_cfg = tmp_path / f"{command}-2.json"
        second = _run_round_trip_side([command, "--config", str(first_cfg), *switches],
                                      tmp_path / f"{command}-2", second_cfg, capsys)
        assert first == second, command
        assert _read(first_cfg) == _read(second_cfg), command
        assert command == "variance" or first[0], command
    dumped = json.loads(_read(tmp_path / "simulate-1.json"))
    assert dumped["command"] == "simulate"
    assert dumped["f"] == [0.0, 0.0, 1.0]
    assert dumped["seed"] == 11


def test_root_law_spellings_share_one_digest(tmp_path, capsys):
    # The digest records the parsed root law in canonical form, so spellings
    # of one law that give one output give one digest.
    runs = []
    for i, nu in enumerate(["dirac:1", "dirac:1.0", "dirac:+1", " dirac:1"]):
        argv = ["simulate", "--a", "0.5", "--n", "3", "--replicas", "2", "--nu", nu]
        runs.append(_run_round_trip_side(argv, tmp_path / str(i), tmp_path / f"{i}.json",
                                         capsys))
        assert json.loads(_read(tmp_path / f"{i}.json"))["nu"] == "dirac:1.0"
    assert all(run == runs[0] for run in runs)
    # The canonical form of the stationary law is its only spelling, so the
    # digest of a stationary run is the one recorded before.
    argv = ["simulate", "--a", "0.5", "--n", "3", "--replicas", "2"]
    stationary = _run_round_trip_side(argv, tmp_path / "s", tmp_path / "s.json", capsys)
    assert stationary[2] == "cb3e9c0c0fa3072c"


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps({"a": 0.5, "n": 6, "replicas": 15,
                                    "seed": 3}), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg_path), "--replicas", "8",
                 "--out", str(out)])
    assert code == 0
    assert len(_read(out / "stats.csv").splitlines()) == 9
    capsys.readouterr()


def test_thread_count_leaves_outputs_bitwise_identical(tmp_path, capsys,
                                                       monkeypatch):
    # slopes runs its three alphas as lanes: by default in one chunk of all
    # lanes, and with 64-value chunks in groups of one lane per row.
    runs = (
        (["clt", "--a", "0.5", "--n", "7", "--replicas", "64", "--seed", "2"],
         ("clt.csv", "stats.csv")),
        (["slopes", "--alphas", "0.3,0.6,0.8", "--n", "8", "--replicas", "24",
          "--outer-repeats", "2", "--seed", "4", "--plot"],
         ("slopes.csv", "slopes.svg")),
    )
    for argv, names in runs:
        outputs = []
        for label, chunk, threads in (("default", treesim.CHUNK_VALUES, "1"),
                                      ("t1", 64, "1"), ("t5", 64, "5")):
            monkeypatch.setattr(treesim, "CHUNK_VALUES", chunk)
            out = tmp_path / f"{argv[0]}-{label}"
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(tuple((out / name).read_bytes() for name in names))
        assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()


def test_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--bogus-flag", "1"]) == 2
    assert main(["simulate", "--a", "0.5"]) == 2
    assert main(["clt", "--a", "0.9", "--n", "6", "--replicas", "10",
                 "--out", str(tmp_path / "x")]) == 3
    assert main(["simulate", "--a", "0.5", "--n", "40", "--replicas", "4",
                 "--out", str(tmp_path / "y")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"a": 0.5, "n": 6, "replicas": 4,
                                   "bogus": 1}), encoding="utf-8")
    assert main(["simulate", "--config", str(unknown)]) == 2
    assert main(["simulate", "--a", "0.5", "--n", "6", "--replicas", "4",
                 "--threads", "0"]) == 2
    capsys.readouterr()


# 1e-200 squares to zero, 1e-160 to a subnormal and 1e200 to inf.
@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1", "1e-200", "1e-160", "1e200"])
def test_variance_rejects_bad_sigma(sigma, capsys):
    assert main(["variance", "--a", "0.5", "--sigma", sigma]) == 2
    assert "sigma" in capsys.readouterr().err


def test_settings_that_changed_nothing_are_gone(tmp_path, capsys, monkeypatch):
    # The assumption report depends on the slope alone and the supercritical
    # study reads one test function, never its shape.
    assert main(["check-assumptions", "--a", "0.5", "--sigma", "1"]) == 2
    assert main(["supercritical", "--a", "0.85", "--n", "4", "--replicas", "5",
                 "--shape", "single", "--out", str(tmp_path)]) == 2
    for command, extra in (("check-assumptions", {"sigma": 1.0}),
                           ("supercritical", {"n": 4, "replicas": 5,
                                              "shape": "single"})):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps({"a": 0.85, **extra}), encoding="utf-8")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    # --threads is the one way to set the thread count.
    monkeypatch.setenv("BMC_LAB_THREADS", "0")
    assert main(["variance", "--a", "0.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("sigma", ["1e160", "1e-200", "1e-160"])
def test_simulate_rejects_bad_sigma(sigma, tmp_path, capsys):
    assert main(["simulate", "--a", "0.5", "--sigma", sigma, "--n", "3",
                 "--replicas", "3", "--f", "x^3", "--out", str(tmp_path)]) == 2
    assert "sigma" in capsys.readouterr().err


def test_replica_count_over_the_cap_exits_four(tmp_path, capsys):
    # Counts of 2^60 and more: numpy refuses to allocate them, so the cap
    # has to be checked before any replica key exists.
    runs = (
        ["simulate", "--a", "0.5", "--n", "3", "--replicas", str(2**62)],
        ["clt", "--a", "0.5", "--n", "3", "--replicas", str(2**60)],
        ["supercritical", "--a", "0.85", "--n", "3", "--replicas", str(2**61)],
        ["slopes", "--alphas", "0.5", "--n", "8", "--replicas", str(2**60)],
    )
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path)]) == 4
        assert "cap" in capsys.readouterr().err


def test_thread_count_over_the_cap_exits_four(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(treesim, "ThreadPoolExecutor", no_pool)
    # At the cap: one replica chunk runs on the calling thread.
    small = ["simulate", "--a", "0.5", "--n", "3", "--replicas", "2",
             "--out", str(tmp_path)]
    assert main(small + ["--threads", str(THREADS_MAX)]) == 0
    capsys.readouterr()

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the thread cap was checked")

    monkeypatch.setattr(experiments, "generation_sums", no_simulation)
    # Depth 21 puts one replica in each chunk, each with a 16 MiB buffer.
    deep = ["clt", "--a", "0.5", "--n", "21", "--replicas", "1000",
            "--out", str(tmp_path)]
    assert main(deep + ["--threads", str(THREADS_MAX + 1)]) == 4
    assert "--threads" in capsys.readouterr().err


def test_unusable_output_paths_exit_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["simulate", "--a", "0.5", "--n", "3", "--replicas", "2",
                 "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    missing = tmp_path / "missing" / "c.json"
    assert main(["variance", "--a", "0.5", "--dump-config", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(missing) in err


def test_slope_grid_is_checked_before_simulating(tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(experiments, "generation_sums", no_simulation)
    base = ["slopes", "--n", "8", "--replicas", "4", "--out", str(tmp_path)]
    for grid in ("0.1:0.9:nan", "0.1:nan:0.1", "-inf:0.5:0.1"):
        assert main(base + [f"--alphas={grid}"]) == 2
        assert "--alphas" in capsys.readouterr().err
    for grid, repeats in (("0.1:0.9:1e-6", "2"), ("0.5", str(10**6)),
                          ("-1e300:1e300:1e-300", "1")):
        assert main(base + [f"--alphas={grid}", "--outer-repeats", repeats]) == 4
        assert "cap" in capsys.readouterr().err


def test_rescaled_coefficients_that_overflow_exit_2(capsys):
    # Both coefficients are finite; x * sigma_a is not, and numpy's overflow
    # warning would fail this test.
    assert main(["variance", "--a", "0.5", "--sigma", "1e150",
                 "--f", "1e300,1e300"]) == 2
    assert "overflow once rescaled by sigma_a" in capsys.readouterr().err


def test_slope_sums_cap_counts_lanes(tmp_path, capsys, monkeypatch):
    # 4 replicas at depth 8 need 4 * 10 * 8 = 320 bytes of keys and sums per
    # lane: one alpha fits under 1000 bytes, four do not.
    monkeypatch.setattr(treesim, "SUMS_BYTES_MAX", 1000)
    base = ["slopes", "--n", "8", "--replicas", "4", "--out", str(tmp_path)]
    assert main(base + ["--alphas", "0.5"]) == 0

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the sums cap was checked")

    monkeypatch.setattr(experiments, "generation_sums", no_simulation)
    capsys.readouterr()
    assert main(base + ["--alphas", "0.2,0.4,0.6,0.8"]) == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("head,flag,value,code", [
    (["variance", "--f", "x"], "--a", "-5e-07", 0),
    (["variance", "--a", "0.5"], "--sigma", "-1e-05", 2),
    (["variance", "--a", "0.5"], "--f", "-1.5e3,2", 0),
], ids=["a", "sigma", "f"])
def test_spaced_negative_values_read_as_values(head, flag, value, code, capsys):
    assert main(head + [flag, value]) == code
    spaced = capsys.readouterr()
    assert main(head + [f"{flag}={value}"]) == code
    assert capsys.readouterr() == spaced
    if code == 2:
        # Rejected by the sigma check, not by argparse.
        assert "sigma must be positive" in spaced.err


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_ROOT_HALF = math.sqrt(0.5)


def _number(value: float) -> str:
    return repr(float(value))


def _run_quietly(argv):
    """Run main (pytest raises every warning as an error); a clean exit
    leaves stderr empty and a rejection prints exactly one `error: ` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], (argv, lines)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, code, lines)
    return code, out.getvalue(), err.getvalue()


_slopes = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([-_ROOT_HALF, _ROOT_HALF, math.nextafter(_ROOT_HALF, 0.0),
                     math.nextafter(_ROOT_HALF, 1.0)]),
    st.builds(lambda sign, d: sign * (_ROOT_HALF + d), st.sampled_from([-1.0, 1.0]),
              st.floats(-1e-6, 1e-6)),
)
_sigmas = st.one_of(
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
    st.floats(-320.0, 308.0).map(lambda e: -(10.0**e)),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
)
_test_functions = st.one_of(
    st.sampled_from(["x", "x^3", "x^8", "1"]),
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6).map(
        lambda cs: ",".join(_number(c) for c in cs)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(command=st.sampled_from(["variance", "check-assumptions"]), a=_slopes,
       sigma=_sigmas, f=_test_functions, shape=st.sampled_from(["single", "tree"]))
def test_numeric_flags_exit_cleanly_and_print_finite_numbers(command, a, sigma, f, shape):
    argv = [command, "--a", _number(a)]
    if command == "variance":
        argv += ["--sigma", _number(sigma), "--f", f, "--shape", shape]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())


# The first explicit example pins a root far from zero: the sample's spread
# cancels against its mean, so clt leaves skewness and kurtosis empty and
# exits 0.  The others make the test function or the sample variance
# overflow, which must be rejected with exit 3 and no numpy warning.  The
# drawn shape runs the whole-tree sum in every regime; the last three
# examples overflow that sum, or add infinities of both signs in it.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@example(command="clt", a=0.3, sigma=1.0, f="x", n=3, replicas=50, nu="dirac:1e17",
         shape="single")
@example(command="clt", a=0.0, sigma=1.0, f="0,1.797693134862316e+291", n=3,
         replicas=2, nu="dirac:1e17", shape="single")
@example(command="clt", a=0.703125, sigma=1.0, f="0,6.464396010224239e+290", n=3,
         replicas=2, nu="dirac:1e17", shape="single")
@example(command="clt", a=0.0, sigma=1.0, f="0,0,1.797693134862316e+291", n=3,
         replicas=2, nu="dirac:1e17", shape="single")
@example(command="clt", a=-_ROOT_HALF, sigma=1e19, f="x^8", n=3, replicas=2,
         nu="stationary", shape="single")
@example(command="simulate", a=_ROOT_HALF, sigma=1.0, f="0,3e307", n=4, replicas=2,
         nu="stationary", shape="tree")
@example(command="simulate", a=-_ROOT_HALF, sigma=1.0, f="0,3e307", n=4, replicas=2,
         nu="stationary", shape="tree")
@example(command="simulate", a=0.9, sigma=1.0, f="0,1e307", n=4, replicas=2,
         nu="stationary", shape="tree")
@given(command=st.sampled_from(["clt", "simulate"]), a=_slopes, sigma=_sigmas,
       f=_test_functions, n=st.integers(3, 4), replicas=st.integers(2, 6),
       nu=st.sampled_from(["stationary", "dirac:1e17"]),
       shape=st.sampled_from(["single", "tree"]))
def test_simulating_commands_exit_cleanly_and_write_finite_numbers(
        command, a, sigma, f, n, replicas, nu, shape):
    argv = [command, "--a", _number(a), "--sigma", _number(sigma), "--f", f,
            "--n", str(n), "--replicas", str(replicas), "--nu", nu, "--shape", shape]
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = _run_quietly(argv + ["--out", tmp])
        if code == 0:
            written = [_read(os.path.join(tmp, name)) for name in sorted(os.listdir(tmp))
                       if name.endswith(".csv")]
            assert written, argv
            for text in [out] + written:
                assert not _NON_FINITE.search(text), (argv, text)


def _tree_command_argv(command, a, a2, sigma, f, n, replicas, n_min):
    argv = [command, f"--sigma={_number(sigma)}", f"--f={f}", f"--n={n}"]
    if command == "slopes":
        # A second grid point gives the plot a nonzero x-span.
        argv += [f"--alphas={_number(a)},{_number(a2)}", f"--n-min={n_min}",
                 f"--replicas={replicas}", "--outer-repeats=2", "--plot"]
    else:
        argv += [f"--a={_number(a)}"]
    if command == "supercritical":
        argv += [f"--replicas={replicas}"]
    return argv


def _run_tree_command(argv) -> tuple[int, str, list[str]]:
    """Run quietly; a clean exit writes outputs with only finite numbers, as
    does stdout.  Returns the exit code, stderr and the CSV and SVG files
    written."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_quietly(argv + ["--out", tmp])
        names = sorted(name for name in os.listdir(tmp)
                       if name.endswith((".csv", ".svg")))
        if code == 0:
            assert names, argv
            for text in [out] + [_read(os.path.join(tmp, name)) for name in names]:
                assert not _NON_FINITE.search(text), (argv, text)
    return code, err, names


# The explicit examples pin faults the derandomized draws miss: a constant f
# centers to zero, which leaves every replica's ratio and every regression
# depth undefined, a tiny slope makes (2a)^-g overflow, a huge f makes a
# depth's variance overflow, which leaves that depth out of the fit, and a
# slope grid whose span is tiny next to the spacing of doubles at its values
# once sent the plot's tick loop into a hang or an exception.  The last three
# overflow the supercritical statistics, their ratio or the martingale
# increments, which must be rejected with exit 3 and no numpy warning.  Most
# draws are rejected at the boundary, and each of those must exit 2.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@example(command="supercritical", a=0.85, a2=0.5, sigma=1.0, f="1", n=4, replicas=5,
         n_min=0)
@example(command="slopes", a=0.5, a2=0.5, sigma=1.0, f="1", n=6, replicas=5, n_min=3)
@example(command="martingale", a=1e-290, a2=0.5, sigma=1.0, f="x", n=3, replicas=2,
         n_min=0)
@example(command="slopes", a=0.5, a2=0.5, sigma=1.0, f="0.0,1.1454206544607547e+154",
         n=3, replicas=2, n_min=0)
@example(command="slopes", a=0.5, a2=0.5000000000000001, sigma=1.0, f="x", n=3,
         replicas=2, n_min=0)
@example(command="slopes", a=5e-324, a2=1e-323, sigma=1.0, f="x", n=3, replicas=2,
         n_min=0)
@example(command="slopes", a=5e-324, a2=3.5e-323, sigma=1.0, f="x", n=3, replicas=2,
         n_min=0)
@example(command="supercritical", a=0.9, a2=0.5, sigma=1.0, f="0,1e307", n=4,
         replicas=3, n_min=0)
@example(command="supercritical", a=-0.9, a2=0.5, sigma=1.0, f="0,1e307", n=4,
         replicas=3, n_min=0)
@example(command="supercritical", a=0.75, a2=0.5, sigma=1.0, f="0,3e307", n=4,
         replicas=3, n_min=0)
@given(command=st.sampled_from(["supercritical", "slopes", "martingale"]), a=_slopes,
       a2=_slopes, sigma=_sigmas, f=_test_functions, n=st.integers(3, 6),
       replicas=st.integers(2, 6), n_min=st.integers(-3, 3))
def test_tree_commands_exit_cleanly_and_write_finite_numbers(
        command, a, a2, sigma, f, n, replicas, n_min):
    code, _, names = _run_tree_command(
        _tree_command_argv(command, a, a2, sigma, f, n, replicas, n_min))
    sigma_ok = sigma > 0.0 and sys.float_info.min <= sigma * sigma < math.inf
    grid_ok = 0.0 < a < 1.0 and 0.0 < a2 < 1.0 and 0 <= n_min <= n - 3
    if not sigma_ok or (command == "slopes" and not grid_ok):
        assert (code, names) == (2, []), (command, a, a2, sigma, n, n_min)


_unit_slopes = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_tree_commands_accept_valid_values():
    # Only values the boundary accepts: sigma = 10^e with |e| <= 150 (its
    # square is a normal float), slopes in (0, 1) and a regression range of
    # at least four depths.  Rejections left are of the function or of the
    # computation, so most slope grids must be fitted and plotted.
    plotted: list[bool] = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(command=st.sampled_from(["supercritical", "slopes", "martingale"]),
           a=_unit_slopes, a2=_unit_slopes,
           sigma=st.floats(-150.0, 150.0).map(lambda e: 10.0**e), f=_test_functions,
           n=st.integers(3, 6), replicas=st.integers(2, 6), n_min=st.integers(0, 3))
    def run(command, a, a2, sigma, f, n, replicas, n_min):
        argv = _tree_command_argv(command, a, a2, sigma, f, max(n, n_min + 3),
                                  replicas, n_min)
        code, err, names = _run_tree_command(argv)
        # A function whose coefficients overflow at this scale is rejected.
        assert code != 2 or "overflow once rescaled" in err, (argv, err)
        if command == "slopes":
            plotted.append(code == 0 and "slopes.svg" in names)

    run()
    assert sum(plotted) > len(plotted) / 2, (sum(plotted), len(plotted))


def test_clt_moments_of_large_traits_are_finite(tmp_path, capsys):
    # The fourth central moment of traits near 1e110 overflows unless the
    # sample is rescaled first.
    argv = ["clt", "--a", "0.5", "--sigma", "1e110", "--n", "3", "--replicas", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    header, row = _read(tmp_path / "clt.csv").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert all(math.isfinite(float(v)) for v in cells.values()), cells
    assert not _NON_FINITE.search(capsys.readouterr().out)


def test_clt_leaves_moments_that_cancel_empty(tmp_path, capsys):
    # Traits near 1e17 with unit noise: the variance and the KS distance are
    # defined, but the centered values cancel against the mean, so skewness
    # and kurtosis are not.  No warning reaches stderr.
    argv = ["clt", "--a", "0.3", "--nu", "dirac:1e17", "--n", "3", "--replicas", "50"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "flag: moments-skipped:cancellation" in out.splitlines()
    assert not _NON_FINITE.search(out)
    header, row = _read(tmp_path / "clt.csv").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells.pop("skewness") == "" and cells.pop("kurtosis") == ""
    assert all(math.isfinite(float(v)) for v in cells.values()), cells


def test_check_assumptions_key_order(tmp_path, capsys):
    assert main(["check-assumptions", "--a", "0.75"]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert list(payload) == ["a", "h_in_L4", "Qh_in_L4", "hilsch2_holds",
                             "norms", "flags"]
    assert payload["a"] == 0.75
    out = tmp_path / "chk"
    assert main(["check-assumptions", "--a", "0.75", "--out", str(out)]) == 0
    capsys.readouterr()
    text = _read(out / "assumptions.json")
    assert text.index('"a"') < text.index('"h_in_L4"') < text.index('"norms"')
    assert json.loads(text) == payload
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["outputs"] == ["assumptions.json"]


def test_slopes_csv_and_plot(tmp_path, capsys):
    out = tmp_path / "slopes"
    code = main(["slopes", "--alphas", "0.3,0.6", "--f", "x", "--n", "8",
                 "--replicas", "40", "--outer-repeats", "2", "--seed", "3",
                 "--plot", "--out", str(out)])
    assert code == 0
    lines = _read(out / "slopes.csv").splitlines()
    assert lines[0] == ("alpha,target,n_min,n_max,slope,stderr,h1,h2,"
                        "replicas,outer_repeat")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.3
    assert first[1] == "Gn"
    assert first[2] == "5"
    assert first[3] == "8"
    svg = _read(out / "slopes.svg")
    assert svg.startswith("<svg")
    assert "h1" in svg and "h2" in svg
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["outputs"] == ["slopes.csv", "slopes.svg"]
    printed = capsys.readouterr().out
    assert "alpha=0.3" in printed
    assert "mean_slope=" in printed


def test_slope_chart_is_drawn_in_alpha_order(tmp_path, capsys):
    # The CSV and stdout keep the grid order; the mean-slope line and the
    # band run left to right.
    assert main(["slopes", "--alphas", "0.3,0.8,0.5", "--f", "x", "--n", "8",
                 "--replicas", "20", "--outer-repeats", "2", "--seed", "3",
                 "--plot", "--out", str(tmp_path)]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("alpha=")]
    assert printed == ["alpha=0.3", "alpha=0.8", "alpha=0.5"]
    rows = _read(tmp_path / "slopes.csv").splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.3, 0.3, 0.8, 0.8, 0.5, 0.5]
    svg = _read(tmp_path / "slopes.svg")
    line = re.search(r'<polyline points="([^"]*)" fill="none" stroke="#000000"', svg)
    band = re.search(r'<polygon points="([^"]*)"', svg)
    xs = [float(point.split(",")[0]) for point in line.group(1).split()]
    edge = [float(point.split(",")[0]) for point in band.group(1).split()]
    assert len(xs) == 3 and xs == sorted(xs)
    assert edge == xs + xs[::-1]


def test_repeated_grid_slope_reports_its_own_spread(capsys):
    # Both lanes of a repeated slope run on the same trees, so each line
    # must be the line of that slope alone, not a spread over both copies.
    base = ["slopes", "--n", "8", "--replicas", "20", "--outer-repeats", "3",
            "--seed", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        assert main(base + ["--alphas", "0.5", "--out", tmp]) == 0
        single = capsys.readouterr().out.splitlines()[0]
        assert main(base + ["--alphas", "0.5,0.5", "--out", tmp]) == 0
        repeated = capsys.readouterr().out.splitlines()[:2]
    assert "sd=0.365812" in single
    assert repeated == [single, single]


def test_slopes_rejects_unknown_target(tmp_path, capsys):
    assert main(["slopes", "--alphas", "0.5", "--n", "8", "--replicas", "4",
                 "--target", "An", "--out", str(tmp_path)]) == 2
    assert "unknown target 'An'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_undefined_results_exit_three_or_leave_empty_cells(tmp_path, capsys):
    # A constant f centers to zero: supercritical's single headline ratio is
    # undefined (exit 3); each undefined slope is an empty slopes.csv cell.
    assert main(["supercritical", "--a", "0.85", "--f", "1", "--n", "4",
                 "--replicas", "5", "--out", str(tmp_path / "sup")]) == 3
    assert "ratio" in capsys.readouterr().err
    out = tmp_path / "slopes"
    assert main(["slopes", "--alphas", "0.5", "--f", "1", "--n", "8",
                 "--replicas", "10", "--outer-repeats", "2",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mean_slope=skipped sd=skipped" in printed
    assert not _NON_FINITE.search(printed)
    header, *rows = _read(out / "slopes.csv").splitlines()
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["slope"] == "" and cells["stderr"] == ""
        assert cells["h1"] == "-1"


@pytest.mark.parametrize("n_min", ["-3", "-40"])
def test_slopes_rejects_negative_n_min(n_min, tmp_path, capsys):
    assert main(["slopes", "--alphas", "0.5", "--f", "x", "--n", "5",
                 "--n-min", n_min, "--replicas", "10", "--outer-repeats", "2",
                 "--out", str(tmp_path)]) == 2
    assert "n_min" in capsys.readouterr().err


def test_supercritical_and_martingale_outputs(tmp_path, capsys):
    out = tmp_path / "sup"
    code = main(["supercritical", "--a", "0.85", "--n", "7", "--replicas",
                 "50", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = _read(out / "supercritical.csv").splitlines()
    assert lines[0] == "level,martingale_l1_diff"
    assert len(lines) == 8
    printed = capsys.readouterr().out
    assert "ratio_median = " in printed
    assert "ratio_limit = 2.4285714" in printed

    out2 = tmp_path / "mart"
    code = main(["martingale", "--a", "0.85", "--n", "6", "--seed", "4",
                 "--out", str(out2)])
    assert code == 0
    lines = _read(out2 / "martingale.csv").splitlines()
    assert lines[0] == "level,value"
    assert len(lines) == 8
    capsys.readouterr()


# The required options of each command that reads f, as a config file.
_F_CONFIGS = {
    "simulate": {"a": 0.5, "n": 3, "replicas": 3},
    "variance": {"a": 0.5},
    "clt": {"a": 0.5, "n": 3, "replicas": 3},
    "supercritical": {"a": 0.85, "n": 3, "replicas": 3},
    "martingale": {"a": 0.85, "n": 3},
    "slopes": {"alphas": [0.5], "n": 8, "replicas": 4},
}


@pytest.mark.parametrize("command", sorted(_F_CONFIGS))
def test_empty_coefficient_list_exits_two(command, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_F_CONFIGS[command], "f": []}), encoding="utf-8")
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "nonempty" in err


# Python's int() takes at most 4300 digits, and json nests about 1000 deep.
_HUGE = "9" * 5000


@pytest.mark.parametrize("argv, text", [
    (["simulate"], '{"a": 0.5, "n": %s, "replicas": 3}' % _HUGE),
    (["variance"], '{"a": 0.5, "f": [0, %s]}' % _HUGE),
    (["variance"], "[" * 100_000 + "]" * 100_000),
    (["variance", "--a", "0.5", "--f", "x^" + _HUGE], None),
], ids=["long-integer", "long-coefficient", "deep-nesting", "long-power"])
def test_inputs_past_the_parser_limits_exit_two(argv, text, tmp_path, capsys):
    if text is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if text is None:
        assert "1..8" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--a", "0.5", "--n", _HUGE, "--replicas", "3"],
    ["variance", "--a", "0.5", "--f", "y" * 3000],
    ["variance", "--a", "q" * 3000],
    ["clt", "--a", "0.5", "--n", "4", "--replicas", "10", "--nu", "q" * 3000],
    ["slopes", "--n", "8", "--replicas", "4", "--alphas", "z" * 3000],
], ids=["int", "f", "float", "nu", "alphas"])
def test_long_rejected_values_give_one_short_error_line(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200 and "..." in err


def test_short_rejected_values_are_echoed_whole(tmp_path, capsys):
    for argv, message in (
            (["simulate", "--a", "0.5", "--n", "3.5", "--replicas", "3"],
             "error: option --n needs an integer, got '3.5'\n"),
            (["variance", "--a", "0.5", "--f", "y"],
             "error: --f takes x, x^p, 1, or a coefficient list, got 'y'\n"),
            (["clt", "--a", "0.5", "--n", "4", "--replicas", "10", "--nu", "q"],
             "error: --nu takes stationary, dirac:X, or gaussian:MEAN,VAR, got 'q'\n")):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == message


def test_empty_slope_grid_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_F_CONFIGS["slopes"], "alphas": []}),
                        encoding="utf-8")
    assert main(["slopes", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "slope grid alphas" in capsys.readouterr().err


# One small run per command, with and without each switch or --out that
# changes what it writes.
_CONTRACT_RUNS = {
    "simulate": ["simulate", "--a", "0.5", "--n", "3", "--replicas", "3", "--out", "o"],
    "variance": ["variance", "--a", "0.5", "--out", "o"],
    "clt": ["clt", "--a", "0.5", "--n", "4", "--replicas", "10", "--out", "o"],
    "slopes": ["slopes", "--alphas", "0.3,0.6", "--n", "8", "--replicas", "4",
               "--out", "o"],
    "slopes --plot": ["slopes", "--alphas", "0.3,0.6", "--n", "8", "--replicas", "4",
                      "--plot", "--out", "o"],
    "supercritical": ["supercritical", "--a", "0.85", "--n", "4", "--replicas", "5",
                      "--out", "o"],
    "martingale": ["martingale", "--a", "0.85", "--n", "4", "--out", "o"],
    "check-assumptions": ["check-assumptions", "--a", "0.5"],
    "check-assumptions --out": ["check-assumptions", "--a", "0.5", "--out", "o"],
}


def test_contract_runs_cover_every_command():
    assert {argv[0] for argv in _CONTRACT_RUNS.values()} == set(_COMMANDS)


@pytest.mark.parametrize("label", list(_CONTRACT_RUNS))
def test_out_holds_exactly_the_manifest_outputs(label, tmp_path, monkeypatch, capsys):
    # Every path is relative to the working directory, so tmp_path holds
    # whatever the run writes.
    monkeypatch.chdir(tmp_path)
    assert main(_CONTRACT_RUNS[label]) == 0
    out = capsys.readouterr().out
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                     if p.is_file())
    if label in ("variance", "check-assumptions"):
        assert written == [] and "manifest:" not in out
        return
    manifest = json.loads(_read(tmp_path / "o" / "manifest.json"))
    assert manifest["outputs"]
    assert written == sorted(os.path.join("o", name)
                             for name in [*manifest["outputs"], "manifest.json"])
    assert out.endswith(f"manifest: {os.path.join('o', 'manifest.json')}\n")


@pytest.mark.parametrize("argv, name", [
    (["check-assumptions", "--a", "0.5"], "assumptions.json"),
    (["simulate", "--a", "0.5", "--n", "3", "--replicas", "3"], "stats.csv"),
    (["clt", "--a", "0.5", "--n", "4", "--replicas", "10"], "stats.csv"),
])
def test_failed_write_prints_nothing(argv, name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / "manifest.json").exists()
