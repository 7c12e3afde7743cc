"""Command-line front end for the tree simulation laboratory.

Each subcommand assembles its configuration from built-in defaults, an
optional JSON config file, and command-line flags (later sources win),
computes an 8-byte digest of the canonicalized configuration, and runs the
requested study.  A runner returns its output files, each a stream of text
chunks, and its stdout lines; _dispatch alone writes the files, then prints
the lines, then writes a manifest that records the digest, seed, version,
and wall time.  Exit codes: 0 success, 2 configuration error or unusable
path, 3 computation rejected (wrong regime or degree cap), 4 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from . import __version__
from .errors import ComputationRejected, ConfigError, ResourceCapError
from .experiments import (
    DEFAULT_N_MIN,
    DEFAULT_OUTER_REPEATS,
    SLOPE_RUNS_MAX,
    ExperimentConfig,
    clt_study,
    h1,
    h2,
    martingale_path,
    replicate,
    slope_study,
    supercritical_study,
)
from .kernels import BarParams, check_assumptions
from .spectral import SpectralFn, from_monomial
from .svg import Band, Series, line_chart
from .treesim import THREADS_MAX, InitialLaw
from .variance import limit_variance

_MAX_MONOMIAL_POWER = 8


def _g17(value) -> str:
    return f"{float(value):.17g}"


def _cell(value) -> str:
    """A CSV cell: an undefined (NaN) value stays empty."""
    return "" if math.isnan(value) else _g17(value)


def _shown(value) -> str:
    """The repr of a rejected value for its error line, cut to 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"option {name} needs a number, got {_shown(value)}") from None


def _as_int(value, name: str) -> int:
    try:
        return int(str(value), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"option {name} needs an integer, got {_shown(value)}") from None


def _as_str(value, name: str) -> str:
    return str(value)


def _parse_f(value, name: str = "--f") -> list[float]:
    """A test function: "x", "x^p" (p <= 8), "1", or monomial coefficients."""
    if isinstance(value, (list, tuple)):
        return [_as_float(c, name) for c in value]
    text = str(value).strip()
    if text == "x":
        return [0.0, 1.0]
    match = re.fullmatch(r"x\^0*(\d+)", text)
    if match:
        # Compared as text: int() rejects a string of more than 4300 digits.
        if match.group(1) not in [str(p) for p in range(1, _MAX_MONOMIAL_POWER + 1)]:
            raise ConfigError(
                f"monomial powers are limited to 1..{_MAX_MONOMIAL_POWER}")
        return [0.0] * int(match.group(1)) + [1.0]
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{name} takes x, x^p, 1, or a coefficient list, got {_shown(value)}") from None


def _parse_nu(value, name: str = "--nu") -> InitialLaw:
    """An initial law: "stationary", "dirac:X", or "gaussian:MEAN,VAR"."""
    text = str(value).strip()
    if text == "stationary":
        return InitialLaw.stationary()
    if text.startswith("dirac:"):
        return InitialLaw.dirac(_as_float(text[6:], f"{name} dirac point"))
    if text.startswith("gaussian:"):
        parts = text[9:].split(",")
        if len(parts) != 2:
            raise ConfigError(f"{name} gaussian takes MEAN,VAR")
        return InitialLaw.gaussian(_as_float(parts[0], f"{name} gaussian mean"),
                                   _as_float(parts[1], f"{name} gaussian var"))
    raise ConfigError(
        f"{name} takes stationary, dirac:X, or gaussian:MEAN,VAR, got {_shown(value)}")


def _nu_text(nu: InitialLaw) -> str:
    """The canonical spelling of a root law, which _parse_nu reads back."""
    return {"stationary": "stationary", "dirac": f"dirac:{nu.x0!r}",
            "gaussian": f"gaussian:{nu.mean!r},{nu.var!r}"}[nu.kind]


def _parse_alphas(value, name: str = "--alphas") -> list[float]:
    """A slope grid: "start:stop:step" (inclusive) or a comma list."""
    if isinstance(value, (list, tuple)):
        return [_as_float(v, name) for v in value]
    text = str(value).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name} grid form is start:stop:step")
        start = _as_float(parts[0], f"{name} start")
        stop = _as_float(parts[1], f"{name} stop")
        step = _as_float(parts[2], f"{name} step")
        if not (math.isfinite(start) and start <= stop < math.inf
                and 0.0 < step < math.inf):
            raise ConfigError(f"{name} grid needs finite bounds, step > 0, stop >= start")
        last = (stop - start) / step + 1e-9
        if last >= SLOPE_RUNS_MAX:
            raise ResourceCapError(f"{name} grid exceeds the cap of {SLOPE_RUNS_MAX:,} points")
        return [round(start + i * step, 10) for i in range(math.floor(last) + 1)]
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} takes a grid or comma list, got {_shown(value)}") from None


# Every config key: the parser that turns a flag or config-file value into
# the typed value the runners read, and the flag's help text.
_OPTIONS: dict[str, tuple[Callable, str]] = {
    "a": (_as_float, "autoregression slope in (-1, 1)"),
    "sigma": (_as_float, "noise standard deviation (default 1)"),
    "n": (_as_int, "tree depth"),
    "replicas": (_as_int, "number of independent trees"),
    "f": (_parse_f, "test function: x, x^p, 1, or coefficients c0,c1,..."),
    "shape": (_as_str, "functional shape: single or tree"),
    "nu": (_parse_nu, "root law: stationary, dirac:X, or gaussian:MEAN,VAR"),
    "seed": (_as_int, "master seed (default 0)"),
    "alphas": (_parse_alphas, "slope grid: start:stop:step or comma list"),
    "n_min": (_as_int, "smallest regression depth (default 5)"),
    "target": (_as_str, "population for slopes: Gn or Tn"),
    "outer_repeats": (_as_int, "independent slope repetitions (default 20)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    data.pop("command", None)
    unknown = sorted(set(data) - set(_COMMANDS[command].defaults))
    if unknown:
        raise ConfigError(
            f"config file {path} has unknown keys for {command}: "
            + ", ".join(unknown))
    return data


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _config_digest(payload: dict) -> str:
    return hashlib.blake2b(_canonical_json(payload).encode("utf-8"),
                           digest_size=8).hexdigest()


def _write(path: str, chunks: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _csv(header, rows):
    """A CSV file's lines, yielded one row at a time."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _params_and_f(cfg: dict) -> tuple[BarParams, SpectralFn]:
    """Kernel parameters and the test function in the kernel's eigenbasis."""
    params = BarParams(cfg["a"], cfg["sigma"])
    return params, from_monomial(cfg["f"], params.sigma_a())


def _tree(cfg: dict) -> bool:
    """Whether --shape or --target asks for the whole-tree sum (no, for
    commands with neither)."""
    if "target" in cfg:
        if cfg["target"] not in ("Gn", "Tn"):
            raise ConfigError(f"unknown target {cfg['target']!r}")
        return cfg["target"] == "Tn"
    shape = cfg.get("shape", "single")
    if shape not in ("single", "tree"):
        raise ConfigError(f"--shape takes single or tree, got {shape!r}")
    return shape == "tree"


def _experiment_config(cfg: dict) -> ExperimentConfig:
    params, f = _params_and_f(cfg)
    return ExperimentConfig(params=params, nu=cfg["nu"], f=f, n=cfg["n"],
                            replicas=cfg["replicas"], master_seed=cfg["seed"],
                            tree=_tree(cfg))


# A runner's outputs: each file's name and text chunks, and the stdout lines.
_Outputs = tuple[dict[str, Iterable[str]], list]


def _run_simulate(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    ecfg = _experiment_config(cfg)
    values = replicate(ecfg, threads=threads)
    rows = ((str(i), _g17(v)) for i, v in enumerate(values))
    return {"stats.csv": _csv(("replica", "statistic"), rows)}, [
        lambda paths: f"wrote {paths['stats.csv']} "
                      f"({ecfg.replicas} replicas, depth {ecfg.n})"]


def _run_variance(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    params, f = _params_and_f(cfg)
    report = limit_variance(f, params, _tree(cfg))
    return {}, [f"regime = {report.regime}", f"value = {_g17(report.value)}",
                f"sigma1 = {_g17(report.sigma1)}", f"sigma2 = {_g17(report.sigma2)}"]


def _run_clt(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    ecfg = _experiment_config(cfg)
    res = clt_study(ecfg, threads=threads)
    # Undefined values (a point-mass limit's KS distance, the skewness and
    # kurtosis of a sample that cancels against its mean) are empty cells.
    ks = _cell(res.ks_distance)
    files = {
        "clt.csv": _csv(
            ("n", "empirical_variance", "series_variance", "ks_distance",
             "ks_threshold", "mean", "skewness", "kurtosis"),
            [(str(res.n), _g17(res.empirical_variance), _g17(res.series_variance),
              ks, _g17(res.ks_threshold), _g17(res.moments.mean),
              _cell(res.moments.skewness), _cell(res.moments.kurtosis))]),
        "stats.csv": _csv(("replica", "statistic"),
                          ((str(i), _g17(v)) for i, v in enumerate(res.values))),
    }
    return files, [
        f"regime = {res.regime}",
        f"empirical_variance = {_g17(res.empirical_variance)}",
        f"series_variance = {_g17(res.series_variance)}",
        f"ks_distance = {ks or 'skipped'} (5% threshold {_g17(res.ks_threshold)})",
        *(f"flag: {flag}" for flag in res.flags)]


def _slope_plot(results) -> str:
    xs, means, lower, upper = [], [], [], []
    for res in sorted(results, key=lambda res: res.alpha):
        if math.isnan(res.mean_slope):
            continue
        xs.append(res.alpha)
        means.append(res.mean_slope)
        lower.append(res.mean_slope - 2.0 * res.sd_slope)
        upper.append(res.mean_slope + 2.0 * res.sd_slope)
    lo, hi = min(res.alpha for res in results), max(res.alpha for res in results)
    grid = [lo + (hi - lo) * i / 200.0 for i in range(201)]
    series = [
        Series(label="mean slope", x=tuple(xs), y=tuple(means), color="#000000"),
        Series(label="h1", x=tuple(grid), y=tuple(h1(g) for g in grid),
               color="#c62828"),
        Series(label="h2", x=tuple(grid), y=tuple(h2(g) for g in grid),
               color="#1565c0", dashed=True),
    ]
    band = Band(x=tuple(xs), lower=tuple(lower), upper=tuple(upper)) if xs else None
    return line_chart(series, title="variance decay exponent",
                      x_label="slope parameter", y_label="fitted exponent",
                      band=band)


def _run_slopes(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    target = cfg["target"]
    results = slope_study(
        cfg["alphas"],
        cfg["f"],
        n_max=cfg["n"],
        replicas=cfg["replicas"],
        tree=_tree(cfg),
        n_min=cfg["n_min"],
        outer_repeats=cfg["outer_repeats"],
        master_seed=cfg["seed"],
        sigma=cfg["sigma"],
        nu=cfg["nu"],
        threads=threads,
    )
    files = {"slopes.csv": _csv(
        ("alpha", "target", "n_min", "n_max", "slope", "stderr", "h1", "h2",
         "replicas", "outer_repeat"),
        ((_g17(r.alpha), target, str(cfg["n_min"]), str(cfg["n"]), _cell(slope),
          _cell(stderr), _g17(h1(r.alpha)), _g17(h2(r.alpha)), str(cfg["replicas"]),
          str(k))
         for r in results for k, (slope, stderr) in enumerate(zip(r.slopes, r.stderrs))))}
    lines = []
    for r in results:
        # A grid point whose every repeat lacks a slope has no mean.
        mean, sd = ((f"{r.mean_slope:.6f}", f"{r.sd_slope:.6f}")
                    if not math.isnan(r.mean_slope) else ("skipped", "skipped"))
        lines.append(f"alpha={r.alpha:g} target={target} mean_slope={mean} sd={sd} "
                     f"h1={h1(r.alpha):.6f} h2={h2(r.alpha):.6f}")
    flagged = sum(1 for r in results for flags in r.flags if flags)
    if flagged:
        lines.append(f"flagged runs: {flagged}")
    if args.plot:
        files["slopes.svg"] = [_slope_plot(results) + "\n"]
    return files, lines


def _run_supercritical(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    ecfg = _experiment_config(cfg)
    res = supercritical_study(ecfg, threads=threads)
    rows = ((str(g), _g17(v)) for g, v in enumerate(res.martingale_l1_diffs))
    return {"supercritical.csv": _csv(("level", "martingale_l1_diff"), rows)}, [
        f"ratio_median = {_g17(res.ratio_median)}",
        f"ratio_limit = {_g17(res.ratio_limit)}",
        *(f"flag: {flag}" for flag in res.flags)]


def _run_martingale(cfg: dict, threads: int, args: argparse.Namespace) -> _Outputs:
    params, f = _params_and_f(cfg)
    n = cfg["n"]
    path_values = martingale_path(f, params, cfg["nu"], n, cfg["seed"])
    rows = ((str(g), _g17(v)) for g, v in enumerate(path_values))
    return {"martingale.csv": _csv(("level", "value"), rows)}, [
        f"martingale value at depth {n}: {_g17(path_values[-1])}"]


def _run_check_assumptions(cfg: dict, threads: int,
                           args: argparse.Namespace) -> _Outputs:
    text = json.dumps(check_assumptions(cfg["a"]).as_json_dict(), indent=2)
    files = {} if args.out is None else {"assumptions.json": [text + "\n"]}
    return files, [text]


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, option defaults and runner.

    A default of None marks a required option.  The runner takes the merged
    config, the thread count and the parsed flags, and returns its outputs
    without writing or printing: a dict from each file name to its text
    chunks (CSV rows come from a generator, so large files stay streamed),
    and the stdout lines.  A line that names a written file is a function
    of the dict from file names to paths.  switches are extra store-true
    flags that steer the run without entering the config or its digest.
    """

    help: str
    defaults: dict
    run: Callable[[dict, int, argparse.Namespace], _Outputs]
    switches: tuple[tuple[str, str], ...] = ()


_SIMULATION_DEFAULTS = {"a": None, "sigma": 1.0, "n": None, "replicas": None,
                        "f": "x", "shape": "single", "nu": "stationary",
                        "seed": 0}

_COMMANDS: dict[str, _Command] = {
    "simulate": _Command(
        "replicate the regime-normalized statistic to CSV",
        _SIMULATION_DEFAULTS, _run_simulate),
    "variance": _Command(
        "evaluate the limit variance in closed form",
        {"a": None, "sigma": 1.0, "f": "x", "shape": "single"}, _run_variance),
    "clt": _Command(
        "compare the replicated statistic with its Gaussian limit",
        _SIMULATION_DEFAULTS, _run_clt),
    "slopes": _Command(
        "fit variance decay exponents over a slope grid",
        {"alphas": None, "f": "x", "n": None, "n_min": DEFAULT_N_MIN,
         "replicas": None, "target": "Gn",
         "outer_repeats": DEFAULT_OUTER_REPEATS, "sigma": 1.0,
         "nu": "stationary", "seed": 0},
        _run_slopes, switches=(("--plot", "also write slopes.svg"),)),
    "supercritical": _Command(
        "rescaled-statistic ratio and martingale increments",
        {"a": None, "sigma": 1.0, "n": None, "replicas": None, "f": "x",
         "nu": "stationary", "seed": 0},
        _run_supercritical),
    "martingale": _Command(
        "one martingale path along a simulated tree",
        {"a": None, "sigma": 1.0, "n": None, "f": "x", "nu": "stationary",
         "seed": 0},
        _run_martingale),
    "check-assumptions": _Command(
        "integrability thresholds for the density row",
        {"a": None}, _run_check_assumptions),
}


def _add_common(sub: argparse.ArgumentParser, keys) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--dump-config",
                     help="write the merged canonical config JSON to this path")
    sub.add_argument("--threads", default="1", help="worker threads (default 1)")
    sub.add_argument("--out", help="output directory (default: current)")
    for key in keys:
        sub.add_argument(_flag(key), dest=key, help=_OPTIONS[key][1])


@functools.cache  # parse_args never mutates the parser, so calls share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmclab",
        description="Simulation laboratory for autoregressive processes on "
                    "binary trees.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        sub = subs.add_parser(command, help=spec.help)
        _add_common(sub, spec.defaults.keys())
        for flag, text in spec.switches:
            sub.add_argument(flag, action="store_true", help=text)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    spec = _COMMANDS[command]
    file_cfg = _load_config_file(args.config, command) if args.config else {}
    flag_cfg = {key: value for key, value in vars(args).items()
                if key in spec.defaults and value is not None}
    raw = {**spec.defaults, **file_cfg, **flag_cfg}
    missing = sorted(key for key, value in raw.items() if value is None)
    if missing:
        flags = ", ".join(_flag(key) for key in missing)
        raise ConfigError(f"missing required option(s): {flags}")
    # Parsed values make the digest independent of the source (flags are
    # strings, a config file may hold numbers) and of the spelling.
    cfg = {key: _OPTIONS[key][0](value, _flag(key)) for key, value in raw.items()}
    record = {"command": command, **cfg}
    if "nu" in cfg:
        record["nu"] = _nu_text(cfg["nu"])

    threads = _as_int(args.threads, "--threads")
    if threads < 1:
        raise ConfigError("--threads must be positive")
    if threads > THREADS_MAX:
        raise ResourceCapError(f"--threads exceeds the cap of {THREADS_MAX}")
    out_dir = args.out if args.out is not None else "."
    if args.out is not None:
        os.makedirs(out_dir, exist_ok=True)

    digest = _config_digest(record)
    if args.dump_config:
        _write(args.dump_config, [_canonical_json(record) + "\n"])
        print(f"config written to {args.dump_config} (digest {digest})")

    start = time.perf_counter()
    files, lines = spec.run(cfg, threads, args)
    paths = {name: os.path.join(out_dir, name) for name in files}
    for name, chunks in files.items():
        _write(paths[name], chunks)
    wall = time.perf_counter() - start

    for line in lines:
        print(line if isinstance(line, str) else line(paths))
    if files:
        manifest = {"command": command, "config_digest": digest,
                    "master_seed": cfg.get("seed"), "version": __version__,
                    "wall_time_s": round(wall, 3), "outputs": sorted(files)}
        path = os.path.join(out_dir, "manifest.json")
        _write(path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
        print(f"manifest: {path}")
    return 0


def main(argv=None) -> int:
    # argparse takes a token such as -5e-07 for a flag, so a value flag and a
    # negative number after it become one token, "--a=-5e-07".
    argv = list(sys.argv[1:] if argv is None else argv)
    value_flags = {"--config", "--dump-config", "--threads", "--out", *map(_flag, _OPTIONS)}
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in value_flags and re.match(r"-(\.?\d|inf|nan)", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return _dispatch(args)
    except (ConfigError, OSError) as exc:  # OSError: an unusable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ComputationRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
