"""The benchmark's workloads: op lists, reference values and output checks.

An op is one in-process ``bmclab.cli.main(argv)`` call, or for the
``moments`` layer, which the CLI cannot reach, one direct library call.
Ops of one kind do the same amount of work; a pass is the workload's op
list once.  Seeds come from the workload seed and the pass index.

Every op is checked against the acceptance tolerances.  A miss marks the op
failed.  A miss is also *wrong* when a finite number disagrees with an exact
reference (closed form, enumeration, a formula); statistical tolerances and
non-finite values only fail the op.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

CRITICAL_A = repr(2.0**-0.5)


@dataclass(frozen=True)
class Miss:
    text: str
    wrong: bool = False


@dataclass(frozen=True)
class Op:
    kind: str
    command: str
    argv: tuple[str, ...] = ()
    call: Callable[[], str] | None = None
    nodes: int = 0
    check: Callable[["OpResult"], list[Miss]] | None = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    cpu_seconds: float
    code: int | None
    stdout: str
    files: dict[str, bytes]
    misses: list[Miss] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.misses)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    pass_ops: Callable[[int, int], list[Op]]
    pooled_check: Callable[[list[OpResult]], None] | None = None


def op_seed(seed: int, pass_index: int, slot: int) -> int:
    """Master seed of one op, a pure function of the workload seed."""
    return (seed * 1_000_003 + pass_index * 1009 + slot) % (1 << 31)


def tree_nodes(replicas: int, n: int) -> int:
    return replicas * ((1 << (n + 1)) - 1)


# -- shared parsing ----------------------------------------------------------

def _csv_rows(res: OpResult, name: str) -> list[dict[str, str]] | None:
    data = res.files.get(name)
    if data is None:
        return None
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _stdout_value(res: OpResult, key: str) -> float | None:
    prefix = key + " = "
    for line in res.stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def _exit_ok(res: OpResult) -> list[Miss]:
    if res.code != 0:
        return [Miss(f"exit code {res.code}")]
    return []


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# -- slopes ------------------------------------------------------------------

SLOPE_ALPHAS = (0.2, 0.5, 0.6, 0.7, 0.8, 0.9)
SLOPE_N, SLOPE_REPLICAS, SLOPE_REPEATS, SLOPE_TOL = 12, 500, 3, 0.15


def ref_h1(alpha: float) -> float:
    return math.log2(max(alpha**2, 0.5))


def ref_h2(alpha: float) -> float:
    return math.log2(max(alpha**4, 0.5))


SLOPE_FUNCS = (("x", ref_h1), ("x^2", ref_h2))


def _check_slopes_op(res: OpResult) -> list[Miss]:
    misses = _exit_ok(res)
    rows = _csv_rows(res, "slopes.csv")
    if rows is None or len(rows) != len(SLOPE_ALPHAS):
        return misses + [Miss("slopes.csv missing or wrong row count")]
    for row, alpha in zip(rows, SLOPE_ALPHAS):
        if float(row["alpha"]) != alpha or row["n_max"] != str(SLOPE_N):
            misses.append(Miss(f"unexpected grid row {row}", wrong=True))
        if not math.isfinite(float(row["slope"])):
            misses.append(Miss(f"alpha={alpha}: non-finite slope"))
        for col, ref in (("h1", ref_h1), ("h2", ref_h2)):
            if _rel(float(row[col]), ref(alpha)) > 1e-12:
                misses.append(Miss(f"alpha={alpha}: {col} column {row[col]}",
                                   wrong=True))
    svg = res.files.get("slopes.svg", b"")
    if b"<svg" not in svg[:200]:
        misses.append(Miss("slopes.svg missing"))
    return misses


def _slopes_pass(seed: int, p: int) -> list[Op]:
    alphas = ",".join(repr(a) for a in SLOPE_ALPHAS)
    ops = []
    for r in range(SLOPE_REPEATS):
        for j, (f, _) in enumerate(SLOPE_FUNCS):
            argv = ("slopes", "--alphas", alphas, "--f", f, "--n", str(SLOPE_N),
                    "--replicas", str(SLOPE_REPLICAS), "--outer-repeats", "1",
                    "--seed", str(op_seed(seed, p, 2 * r + j)), "--threads", "1",
                    "--plot")
            ops.append(Op(kind=f"slopes f={f}", command="slopes", argv=argv,
                          nodes=len(SLOPE_ALPHAS) * tree_nodes(SLOPE_REPLICAS, SLOPE_N),
                          check=_check_slopes_op))
    return ops


def _slopes_pooled(results: list[OpResult]) -> None:
    """Mean slope per grid point over every repeat of the phase."""
    for f, ref in SLOPE_FUNCS:
        group = [r for r in results if r.op.kind == f"slopes f={f}"]
        slopes: dict[float, list[float]] = {a: [] for a in SLOPE_ALPHAS}
        for res in group:
            for row in _csv_rows(res, "slopes.csv") or []:
                alpha = float(row["alpha"])
                if alpha in slopes and math.isfinite(float(row["slope"])):
                    slopes[alpha].append(float(row["slope"]))
        for alpha, values in slopes.items():
            if not values:
                continue
            mean = math.fsum(values) / len(values)
            dev = abs(mean - ref(alpha))
            if dev > SLOPE_TOL:
                miss = Miss(f"f={f} alpha={alpha}: mean slope {mean:.4f} over "
                            f"{len(values)} repeats deviates {dev:.4f} > {SLOPE_TOL}")
                for res in group:
                    res.misses.append(miss)


# -- deep_trees --------------------------------------------------------------

DEEP_THREADS = 2
CLT_N, CLT_REPLICAS, CLT_TOL = 14, 5000, 0.10
SUPER_A, SUPER_N, SUPER_REPLICAS = 0.85, 14, 2000
MART_N, MART_SEEDS = 21, 4


def _check_clt(res: OpResult) -> list[Miss]:
    misses = _exit_ok(res)
    rows = _csv_rows(res, "clt.csv")
    stats = _csv_rows(res, "stats.csv")
    if not rows or stats is None:
        return misses + [Miss("clt.csv or stats.csv missing")]
    row = rows[0]
    series, empirical = float(row["series_variance"]), float(row["empirical_variance"])
    if abs(series - 1.0) > 1e-9:
        misses.append(Miss(f"series variance {series!r} != 1", wrong=True))
    if not abs(empirical - 1.0) <= CLT_TOL:
        misses.append(Miss(f"empirical variance {empirical:.4f} not within "
                           f"{CLT_TOL} of 1"))
    values = [float(s["statistic"]) for s in stats]
    if len(values) != CLT_REPLICAS or not all(map(math.isfinite, values)):
        misses.append(Miss("stats.csv has wrong size or non-finite values"))
    else:
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        if _rel(var, empirical) > 1e-9:
            misses.append(Miss(f"stats.csv variance {var!r} != clt.csv "
                               f"{empirical!r}", wrong=True))
    return misses


def _check_supercritical(res: OpResult) -> list[Miss]:
    misses = _exit_ok(res)
    limit = 2.0 * SUPER_A / (2.0 * SUPER_A - 1.0)
    ratio = _stdout_value(res, "ratio_median")
    printed = _stdout_value(res, "ratio_limit")
    if printed is None or _rel(printed, limit) > 1e-12:
        misses.append(Miss(f"ratio_limit {printed} != {limit}", wrong=True))
    if ratio is None or not abs(ratio - limit) <= 0.10 * limit:
        misses.append(Miss(f"ratio median {ratio} not within 10% of {limit:.4f}"))
    rows = _csv_rows(res, "supercritical.csv")
    if rows is None or len(rows) != SUPER_N:
        return misses + [Miss("supercritical.csv missing or wrong row count")]
    diffs = [float(r["martingale_l1_diff"]) for r in rows]
    for level in range(8, 13):
        if not diffs[level] > diffs[level + 1]:
            misses.append(Miss(f"martingale increment rises at level {level}"))
    return misses


def _check_martingale(res: OpResult) -> list[Miss]:
    misses = _exit_ok(res)
    rows = _csv_rows(res, "martingale.csv")
    if rows is None or [r["level"] for r in rows] != [str(g) for g in range(MART_N + 1)]:
        return misses + [Miss("martingale.csv missing or wrong levels")]
    if not all(math.isfinite(float(r["value"])) for r in rows):
        misses.append(Miss("non-finite martingale value"))
    last = res.stdout.strip().splitlines()[0].rsplit(" ", 1)[-1] if res.stdout else ""
    if last != rows[-1]["value"]:
        misses.append(Miss(f"printed value {last} != csv {rows[-1]['value']}",
                           wrong=True))
    return misses


def _deep_pass(seed: int, p: int) -> list[Op]:
    threads = ("--threads", str(DEEP_THREADS))
    ops = [
        Op(kind="clt", command="clt",
           argv=("clt", "--a", CRITICAL_A, "--nu", "dirac:0", "--n", str(CLT_N),
                 "--replicas", str(CLT_REPLICAS),
                 "--seed", str(op_seed(seed, p, 0))) + threads,
           nodes=tree_nodes(CLT_REPLICAS, CLT_N), check=_check_clt),
        Op(kind="supercritical", command="supercritical",
           argv=("supercritical", "--a", repr(SUPER_A), "--n", str(SUPER_N),
                 "--replicas", str(SUPER_REPLICAS),
                 "--seed", str(op_seed(seed, p, 1))) + threads,
           nodes=tree_nodes(SUPER_REPLICAS, SUPER_N), check=_check_supercritical),
    ]
    for k in range(MART_SEEDS):
        ops.append(Op(kind="martingale", command="martingale",
                      argv=("martingale", "--a", repr(SUPER_A), "--n", str(MART_N),
                            "--seed", str(op_seed(seed, p, 2 + k))) + threads,
                      nodes=tree_nodes(1, MART_N), check=_check_martingale))
    return ops


# -- series ------------------------------------------------------------------

MONOMIALS = {"x": 1, "x^2": 2, "x^3": 3}
# bmclab 0.1.0 prints nan for the single shape at a = 0.7 with f = x or x^3
# (ROADMAP item 2), so those two points are left out: every op of a workload
# must succeed.  The tree grid keeps each op under about 1 s, so a 30 s run
# times every op about ten times and takes medians.
SINGLE_GRID = ([(a, f) for a in (0.3, 0.5, 0.6) for f in ("x", "x^2", "x^3")]
               + [(0.7, "x^2")])
TREE_GRID = [(a, "x^2") for a in (0.3, 0.5, 0.6)] + [(0.3, "x"), (0.3, "x^3")]
ASSUMPTION_CASES = (("Qh_in_L4", 0.75, True), ("Qh_in_L4", 0.76, False),
                    ("hilsch2_holds", 0.724, True), ("hilsch2_holds", 0.725, False),
                    ("h_in_L4", 0.57, True), ("h_in_L4", 0.58, False))
MOMENT_A = (0.3, 2.0**-0.5, 0.85)


def hermite_coeffs(power: int, sigma_a: float) -> dict[int, float]:
    """Coefficients of x^power on He_m(x / sigma_a), m >= 1 (centered)."""
    out = {}
    for j in range(power // 2 + 1):
        m = power - 2 * j
        if m >= 1:
            out[m] = (sigma_a**power * math.factorial(power)
                      / (2**j * math.factorial(j) * math.factorial(m)))
    return out


def closed_form_variance(a: float, power: int, shape: str) -> float:
    """Limit variance from the per-degree closed forms (symmetric, sigma=1).

    Single shape: sum over m of m! c_m^2 (1 - L^2) / (1 - 2 L^2), L = a^m.
    Tree shape multiplies each term by 2 (1 + L) / (1 - L).
    """
    sigma_a = 1.0 / math.sqrt(1.0 - a * a)
    total = []
    for m, c in hermite_coeffs(power, sigma_a).items():
        lam = a**m
        term = math.factorial(m) * c * c * (1.0 - lam**2) / (1.0 - 2.0 * lam**2)
        if shape == "tree":
            term *= 2.0 * (1.0 + lam) / (1.0 - lam)
        total.append(term)
    return math.fsum(total)


CRITICAL_TREE_X = 6.0 + 4.0 * math.sqrt(2.0)


def _variance_check(want: float) -> Callable[[OpResult], list[Miss]]:
    def check(res: OpResult) -> list[Miss]:
        misses = _exit_ok(res)
        got = _stdout_value(res, "value")
        if got is None or not math.isfinite(got):
            return misses + [Miss(f"value {got} is not finite (want {want!r})")]
        if _rel(got, want) > 1e-8:
            misses.append(Miss(f"value {got!r} != closed form {want!r}", wrong=True))
        return misses
    return check


def _assumption_check(fieldname: str, want: bool) -> Callable[[OpResult], list[Miss]]:
    def check(res: OpResult) -> list[Miss]:
        misses = _exit_ok(res)
        data = res.files.get("assumptions.json")
        if data is None:
            return misses + [Miss("assumptions.json missing")]
        got = json.loads(data)[fieldname]
        if got is not want:
            misses.append(Miss(f"{fieldname}: got {got}, want {want}", wrong=True))
        return misses
    return check


def _moments_call(a: float) -> Callable[[], str]:
    """Criterion 3 at one slope: exact vs enumerated moments at depth <= 4."""

    def call() -> str:
        from bmclab import moments
        from bmclab.kernels import BarParams
        from bmclab.spectral import from_monomial

        params = BarParams.symmetric_params(a)
        funcs = [from_monomial([0.0] * p + [1.0], params.sigma_a()) for p in (1, 2, 3)]
        pairs = []
        for x0 in (0.0, 1.0):
            for f in funcs:
                pairs.append((moments.exact_mean(f, params, 4, x0),
                              moments.enumerated_mean(f, params, 4, x0)))
                for n in (2, 4):
                    pairs.append((moments.exact_second_moment(f, params, n, x0),
                                  moments.enumerated_second_moment(f, params, n, x0)))
            for fi, gi, n, m in ((1, 0, 4, 2), (2, 1, 3, 3), (2, 0, 4, 1), (0, 0, 4, 0)):
                pairs.append((
                    moments.exact_cross_moment(funcs[fi], funcs[gi], params, n, m, x0),
                    moments.enumerated_cross_moment(funcs[fi], funcs[gi], params,
                                                    n, m, x0)))
        return "\n".join(f"{float(e)!r} {float(n)!r}" for e, n in pairs)

    return call


def _check_moments(res: OpResult) -> list[Miss]:
    misses = []
    for line in res.stdout.splitlines():
        exact, enumerated = (float(v) for v in line.split())
        if not _rel(exact, enumerated) <= 1e-8:
            misses.append(Miss(f"exact {exact!r} vs enumerated {enumerated!r}",
                               wrong=math.isfinite(exact)))
    if not res.stdout:
        misses.append(Miss("no moments computed"))
    return misses


def _series_pass(seed: int, p: int) -> list[Op]:
    threads = ("--threads", "1")
    ops = []
    for shape, grid in (("single", SINGLE_GRID), ("tree", TREE_GRID)):
        for a, f in grid:
            ops.append(Op(kind=f"variance {shape} a={a} f={f}", command="variance",
                          argv=("variance", "--a", repr(a), "--f", f,
                                "--shape", shape) + threads,
                          check=_variance_check(
                              closed_form_variance(a, MONOMIALS[f], shape))))
    ops.append(Op(kind="variance critical tree f=x", command="variance",
                  argv=("variance", "--a", CRITICAL_A, "--f", "x",
                        "--shape", "tree") + threads,
                  check=_variance_check(CRITICAL_TREE_X)))
    for fieldname, a, want in ASSUMPTION_CASES:
        ops.append(Op(kind=f"check-assumptions a={a}", command="check-assumptions",
                      argv=("check-assumptions", "--a", repr(a)) + threads,
                      check=_assumption_check(fieldname, want)))
    for a in MOMENT_A:
        ops.append(Op(kind=f"moments a={a:.4g}", command="moments",
                      call=_moments_call(a), check=_check_moments))
    return ops


WORKLOADS = {
    "slopes": Workload("slopes", 1, _slopes_pass, _slopes_pooled),
    "deep_trees": Workload("deep_trees", DEEP_THREADS, _deep_pass),
    "series": Workload("series", 1, _series_pass),
}

# Tiny calls of every command, run before timing so lazy set-up is paid.
WARMUP_ARGV = (
    ("variance", "--a", "0.5", "--f", "x", "--threads", "1"),
    ("check-assumptions", "--a", "0.5", "--threads", "1"),
    ("simulate", "--a", "0.5", "--n", "3", "--replicas", "2", "--threads", "1"),
    ("slopes", "--alphas", "0.5,0.8", "--n", "8", "--replicas", "4",
     "--outer-repeats", "1", "--threads", "1", "--plot"),
    ("clt", "--a", CRITICAL_A, "--nu", "dirac:0", "--n", "3", "--replicas", "4",
     "--threads", "2"),
    ("supercritical", "--a", "0.85", "--n", "3", "--replicas", "4", "--threads", "2"),
    ("martingale", "--a", "0.85", "--n", "3", "--threads", "2"),
)
