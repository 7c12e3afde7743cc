"""Command-line front end for the tree simulation laboratory.

Each subcommand assembles its configuration from built-in defaults, an
optional JSON config file, and command-line flags (later sources win),
computes an 8-byte digest of the canonicalized configuration, runs the
requested study, and persists CSV/SVG outputs next to a manifest that
records the digest, seed, version, and wall time.  Exit codes: 0 success,
2 configuration error or unusable path, 3 computation rejected (wrong
regime or degree cap), 4 resource cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable

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
    slope_study,
    slope_summary,
    supercritical_study,
)
from .kernels import BarParams, check_assumptions
from .spectral import from_monomial
from .svg import Band, Series, line_chart
from .treesim import FunctionalSeq, InitialLaw, replicate
from .variance import limit_variance

_MAX_MONOMIAL_POWER = 8

# Each worker thread holds one chunk's tree buffer of 16 MiB (32 MiB at depth
# 22), so the cap keeps the buffers near SUMS_BYTES_MAX, 1 GiB.
THREADS_MAX = 64


def _g17(value) -> str:
    return f"{float(value):.17g}"


def _cell(value) -> str:
    """A CSV cell: an undefined (NaN) value stays empty."""
    return "" if math.isnan(value) else _g17(value)


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"option {name} needs a number, got {value!r}") from None


def _as_int(value, name: str) -> int:
    try:
        out = int(str(value), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"option {name} needs an integer, got {value!r}") from None
    return out


def _as_str(value, name: str) -> str:
    return str(value)


def _parse_f(value, name: str = "--f") -> list[float]:
    """A test function: "x", "x^p" (p <= 8), "1", or monomial coefficients."""
    if isinstance(value, (list, tuple)):
        return [_as_float(c, name) for c in value]
    text = str(value).strip()
    if text == "1":
        return [1.0]
    if text == "x":
        return [0.0, 1.0]
    match = re.fullmatch(r"x\^(\d+)", text)
    if match:
        power = int(match.group(1))
        if not 1 <= power <= _MAX_MONOMIAL_POWER:
            raise ConfigError(
                f"monomial powers are limited to 1..{_MAX_MONOMIAL_POWER}")
        return [0.0] * power + [1.0]
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{name} takes x, x^p, 1, or a coefficient list, got {value!r}") from None


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
        f"{name} takes stationary, dirac:X, or gaussian:MEAN,VAR, got {value!r}")


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
        raise ConfigError(f"{name} takes a grid or comma list, got {value!r}") from None


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
    except json.JSONDecodeError as exc:
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


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_manifest(out_dir: str, command: str, digest: str, seed,
                    wall_time: float, outputs: list[str]) -> str:
    path = os.path.join(out_dir, "manifest.json")
    payload = {
        "command": command,
        "config_digest": digest,
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": round(wall_time, 3),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _params_and_fseq(cfg: dict) -> tuple[BarParams, FunctionalSeq]:
    """Kernel parameters and the test function in the requested shape."""
    params = BarParams.symmetric_params(cfg["a"], cfg["sigma"])
    f = from_monomial(cfg["f"], params.sigma_a())
    shape = cfg["shape"]
    if shape not in ("single", "tree"):
        raise ConfigError(f"--shape takes single or tree, got {shape!r}")
    return params, getattr(FunctionalSeq, shape)(f)


def _experiment_config(cfg: dict) -> ExperimentConfig:
    params, fseq = _params_and_fseq(cfg)
    return ExperimentConfig(params=params, nu=cfg["nu"], fseq=fseq, n=cfg["n"],
                            replicas=cfg["replicas"], master_seed=cfg["seed"])


def _run_simulate(cfg: dict, out_dir: str, threads: int,
                  args: argparse.Namespace) -> list[str]:
    ecfg = _experiment_config(cfg)
    values = replicate(ecfg, threads=threads)
    path = os.path.join(out_dir, "stats.csv")
    _write_csv(path, ("replica", "statistic"),
               ((str(i), _g17(v)) for i, v in enumerate(values)))
    print(f"wrote {path} ({ecfg.replicas} replicas, depth {ecfg.n})")
    return [path]


def _run_variance(cfg: dict, out_dir: str, threads: int,
                  args: argparse.Namespace) -> list[str]:
    params, fseq = _params_and_fseq(cfg)
    report = limit_variance(fseq, params)
    print(f"regime = {report.regime}")
    print(f"value = {_g17(report.value)}")
    print(f"sigma1 = {_g17(report.sigma1)}")
    print(f"sigma2 = {_g17(report.sigma2)}")
    return []


def _run_clt(cfg: dict, out_dir: str, threads: int,
             args: argparse.Namespace) -> list[str]:
    ecfg = _experiment_config(cfg)
    res = clt_study(ecfg, threads=threads)
    # Undefined values (a point-mass limit's KS distance, the skewness and
    # kurtosis of a sample that cancels against its mean) are empty cells.
    ks = _cell(res.ks_distance)
    clt_path = os.path.join(out_dir, "clt.csv")
    _write_csv(
        clt_path,
        ("n", "empirical_variance", "series_variance", "ks_distance",
         "ks_threshold", "mean", "skewness", "kurtosis"),
        [(str(res.n), _g17(res.empirical_variance), _g17(res.series_variance),
          ks, _g17(res.ks_threshold), _g17(res.moments.mean),
          _cell(res.moments.skewness), _cell(res.moments.kurtosis))],
    )
    stats_path = os.path.join(out_dir, "stats.csv")
    _write_csv(stats_path, ("replica", "statistic"),
               ((str(i), _g17(v)) for i, v in enumerate(res.values)))
    print(f"regime = {res.regime}")
    print(f"empirical_variance = {_g17(res.empirical_variance)}")
    print(f"series_variance = {_g17(res.series_variance)}")
    print(f"ks_distance = {ks or 'skipped'} "
          f"(5% threshold {_g17(res.ks_threshold)})")
    for flag in res.flags:
        print(f"flag: {flag}")
    return [clt_path, stats_path]


def _slope_plot(alphas, summaries) -> str:
    by_alpha = {s.alpha: s for s in summaries}
    xs, means, lower, upper = [], [], [], []
    for alpha in alphas:
        summary = by_alpha.get(alpha)
        if summary is None or math.isnan(summary.mean_slope):
            continue
        xs.append(alpha)
        means.append(summary.mean_slope)
        lower.append(summary.mean_slope - 2.0 * summary.sd_slope)
        upper.append(summary.mean_slope + 2.0 * summary.sd_slope)
    lo, hi = min(alphas), max(alphas)
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


def _run_slopes(cfg: dict, out_dir: str, threads: int,
                args: argparse.Namespace) -> list[str]:
    alphas = cfg["alphas"]
    results = slope_study(
        alphas,
        cfg["f"],
        n_max=cfg["n"],
        replicas=cfg["replicas"],
        target=cfg["target"],
        n_min=cfg["n_min"],
        outer_repeats=cfg["outer_repeats"],
        master_seed=cfg["seed"],
        sigma=cfg["sigma"],
        nu=cfg["nu"],
        threads=threads,
    )
    path = os.path.join(out_dir, "slopes.csv")
    _write_csv(
        path,
        ("alpha", "target", "n_min", "n_max", "slope", "stderr", "h1", "h2",
         "replicas", "outer_repeat"),
        ((_g17(r.alpha), r.target, str(r.n_min), str(r.n_max), _cell(r.slope),
          _cell(r.stderr), _g17(r.h1), _g17(r.h2), str(r.replicas),
          str(r.outer_repeat)) for r in results),
    )
    outputs = [path]
    summaries = slope_summary(results)
    for s in summaries:
        # A grid point whose every repeat lacks a slope has no summary.
        mean, sd = ((f"{s.mean_slope:.6f}", f"{s.sd_slope:.6f}")
                    if not math.isnan(s.mean_slope) else ("skipped", "skipped"))
        print(f"alpha={s.alpha:g} target={s.target} mean_slope={mean} sd={sd} "
              f"h1={s.h1:.6f} h2={s.h2:.6f}")
    flagged = [r for r in results if r.flags]
    if flagged:
        print(f"flagged runs: {len(flagged)}")
    if args.plot:
        svg_path = os.path.join(out_dir, "slopes.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(_slope_plot(alphas, summaries))
            fh.write("\n")
        outputs.append(svg_path)
    return outputs


def _run_supercritical(cfg: dict, out_dir: str, threads: int,
                       args: argparse.Namespace) -> list[str]:
    # The study reads one test function, never a shape.
    ecfg = _experiment_config({**cfg, "shape": "single"})
    res = supercritical_study(ecfg, threads=threads)
    path = os.path.join(out_dir, "supercritical.csv")
    _write_csv(path, ("level", "martingale_l1_diff"),
               ((str(g), _g17(v)) for g, v in enumerate(res.martingale_l1_diffs)))
    a = ecfg.params.a
    print(f"ratio_median = {_g17(res.ratio_median)}")
    print(f"ratio_limit = {_g17(2.0 * a / (2.0 * a - 1.0))}")
    for flag in res.flags:
        print(f"flag: {flag}")
    return [path]


def _run_martingale(cfg: dict, out_dir: str, threads: int,
                    args: argparse.Namespace) -> list[str]:
    params = BarParams.symmetric_params(cfg["a"], cfg["sigma"])
    f = from_monomial(cfg["f"], params.sigma_a())
    n = cfg["n"]
    path_values = martingale_path(f, params, cfg["nu"], n, cfg["seed"])
    path = os.path.join(out_dir, "martingale.csv")
    _write_csv(path, ("level", "value"),
               ((str(g), _g17(v)) for g, v in enumerate(path_values)))
    print(f"martingale value at depth {n}: {_g17(path_values[-1])}")
    return [path]


def _run_check_assumptions(cfg: dict, out_dir: str, threads: int,
                           args: argparse.Namespace) -> list[str]:
    report = check_assumptions(cfg["a"])
    text = json.dumps(report.as_json_dict(), indent=2)
    print(text)
    if args.out is None:
        return []
    path = os.path.join(out_dir, "assumptions.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return [path]


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, option defaults and runner.

    A default of None marks a required option.  The runner takes the merged
    config, the output directory, the thread count and the parsed flags, and
    returns the paths it wrote.  switches are extra store-true flags that
    steer the run without entering the config or its digest.
    """

    help: str
    defaults: dict
    run: Callable[[dict, str, int, argparse.Namespace], list[str]]
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
    # strings, a config file may hold numbers); nu is kept as given.
    cfg = {key: _OPTIONS[key][0](value, _flag(key)) for key, value in raw.items()}
    record = {"command": command, **cfg}
    if "nu" in raw:
        record["nu"] = str(raw["nu"])

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
        with open(args.dump_config, "w", encoding="utf-8") as fh:
            fh.write(_canonical_json(record))
            fh.write("\n")
        print(f"config written to {args.dump_config} (digest {digest})")

    start = time.perf_counter()
    outputs = spec.run(cfg, out_dir, threads, args)
    wall = time.perf_counter() - start

    if outputs:
        manifest = _write_manifest(out_dir, command, digest, cfg.get("seed"),
                                   wall, outputs)
        print(f"manifest: {manifest}")
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
