"""bmclab benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload slopes --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven the way its
users drive it: in-process ``bmclab.cli.main(argv)`` calls, plus direct
``bmclab.moments`` calls.  The run repeats passes over the workload's op
list for ``--seconds`` (always at least one pass), checks every output, and
prints a report followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (one
pass, as the sum over op kinds of the median op time), ``cpu_s`` (the same
in process CPU time), ``setup_s`` (median CPU time of five fresh
interpreters importing ``bmclab.cli`` and paying first-call costs) and
``peak_rss_mb``.  With ``--trace 1`` the run measures untraced
for half the time, then replays the first pass with spans at every layer
boundary; the metrics are the per-layer ones, and the replay must write
byte-identical outputs.

Results, with a description of the machine, go to
``.perfbench/results/`` in the checkout.  Exit code 2 means the checkout
holds no program to measure, or its warm-up calls fail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WARMUP_ARGV, WORKLOADS, Miss, Op, OpResult  # noqa: E402

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# Run by a fresh interpreter to time set-up: import, then the warm-up calls.
SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bmclab.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        if bmclab.cli.main(list(argv) + ["--out", sys.argv[2]]) != 0:
            sys.exit(1)
"""


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import bmclab from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "bmclab" / "cli.py").is_file():
        die(f"no program at {src / 'bmclab'}; run from a bmclab source checkout")
    sys.path.insert(0, str(src))
    import bmclab.cli

    if Path(bmclab.cli.__file__).resolve().parent != (src / "bmclab").resolve():
        die(f"imported bmclab from {bmclab.cli.__file__}, not from {src}")
    return bmclab.cli


# -- one op --------------------------------------------------------------------

def _digests(res: OpResult) -> dict[str, str]:
    items = res.files.items() if res.files else [("stdout", res.stdout.encode())]
    return {name: hashlib.blake2b(data, digest_size=16).hexdigest()
            for name, data in sorted(items)}


def execute(op: Op, cli, out_dir: Path, tracer=None) -> OpResult:
    """Run one op, timed, then collect and check what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    cpu_start, start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                print(op.call())
                code = 0
            elif tracer is not None:
                with tracer.span("cli.main"):
                    code = cli.main(list(op.argv) + ["--out", str(out_dir)])
            else:
                code = cli.main(list(op.argv) + ["--out", str(out_dir)])
    except Exception:  # an op that raises is a failed op, not a failed run
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start

    files = {}
    if out_dir.is_dir():
        written = sorted(p for p in out_dir.iterdir() if p.is_file())
        if tracer is not None:
            tracer.count("cli.output_bytes",
                         sum(p.stat().st_size for p in written) + len(out.getvalue()))
        files = {p.name: p.read_bytes() for p in written if p.name != "manifest.json"}
        shutil.rmtree(out_dir)
    res = OpResult(op=op, seconds=seconds, cpu_seconds=cpu_seconds, code=code,
                   stdout=out.getvalue(), files=files)
    if code is None:
        res.misses.append(Miss("raised: " + err.getvalue().strip().splitlines()[-1]))
    elif op.check is not None:
        try:
            res.misses.extend(op.check(res))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            res.misses.append(Miss(f"unreadable output: {exc!r}"))
    return res


def run_ops(ops, cli, work: Path, tracer=None) -> list[OpResult]:
    return [execute(op, cli, work / f"op{i}", tracer) for i, op in enumerate(ops)]


def run_for(workload, seed: int, budget: float, cli, work: Path) -> list[OpResult]:
    """Passes over the op list until the next op would overrun the budget."""
    results: list[OpResult] = []
    times: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    p = 0
    while True:
        for op in workload.pass_ops(seed, p):
            if p > 0 and (time.perf_counter() - start
                          + statistics.median(times[op.kind]) > budget):
                return results
            res = execute(op, cli, work / f"op{len(results)}")
            times[op.kind].append(res.seconds)
            results.append(res)
        p += 1


# -- metrics ---------------------------------------------------------------------

def per_pass(results, one_pass, command: str | None = None,
             clock: str = "seconds") -> float:
    """Time of one pass: per op kind, median time times its count per pass."""
    times: dict[str, list[float]] = defaultdict(list)
    for res in results:
        times[res.op.kind].append(getattr(res, clock))
    mult = Counter(op.kind for op in one_pass
                   if command is None or op.command == command)
    return sum(statistics.median(times[kind]) * n for kind, n in mult.items())


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(work: Path) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of fresh interpreters importing bmclab and warming up."""
    code = SETUP_SNIPPET.format(argvs=WARMUP_ARGV)
    out = []
    for i in range(SETUP_RUNS):
        target = work / f"setup{i}"
        cpu_start, start = _children_cpu(), time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(target)],
                       check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        out.append((time.perf_counter() - start, _children_cpu() - cpu_start))
        shutil.rmtree(target, ignore_errors=True)
    return out


def warm_up(cli, work: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in WARMUP_ARGV:
            if cli.main(list(argv) + ["--out", str(work / "warmup")]) != 0:
                die(f"warm-up call failed: {' '.join(argv)}")
    shutil.rmtree(work / "warmup", ignore_errors=True)


def machine(threads: int) -> dict:
    """Machine and software description stamped on every results file."""
    import numpy
    import scipy

    import bmclab

    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "bmclab": bmclab.__version__, "threads": threads}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    src = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_digest"] = src.hexdigest()
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return info


def op_record(res: OpResult, phase: str) -> dict:
    return {"phase": phase, "kind": res.op.kind, "command": res.op.command,
            "argv": list(res.op.argv), "seconds": res.seconds,
            "cpu_seconds": res.cpu_seconds, "code": res.code,
            "digests": _digests(res), "misses": [m.text for m in res.misses],
            "wrong": any(m.wrong for m in res.misses)}


def trace_replay(ops, cli, work: Path):
    """Run ops again with spans at every layer boundary, then restore."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        start = time.perf_counter()
        traced = run_ops(ops, cli, work, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, traced, wall


def report_metrics(results, one_pass, setup, failed: int, attempted: int) -> dict:
    """Every end-to-end figure of the untraced phase, as name -> (value, unit)."""
    wall = per_pass(results, one_pass)
    report = {
        "wall_s": (wall, "s"),
        "cpu_s": (per_pass(results, one_pass, clock="cpu_seconds"), "s"),
        "nodes_per_s": (sum(op.nodes for op in one_pass) / wall, "1/s"),
        "ops_failed": (failed / attempted, "ratio"),
        "passes": (len(results) / len(one_pass), "count"),
    }
    for command in sorted({op.command for op in one_pass}):
        key = f"cmd.{command.replace('-', '_')}_s"
        report[key] = (per_pass(results, one_pass, command), "s")
    if setup:
        report["setup_s"] = (statistics.median(c for _, c in setup), "s")
        report["setup_wall_s"] = (statistics.median(w for w, _ in setup), "s")
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return report


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    workload = WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench"
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    one_pass = workload.pass_ops(args.seed, 0)

    setup = [] if args.trace else measure_setup(work)
    warm_up(cli, work)

    budget = args.seconds / 2 if args.trace else args.seconds
    results = run_for(workload, args.seed, budget, cli, work / "plain")
    phases = [("plain", results)]
    tracer = None
    if args.trace:
        tracer, traced, traced_wall = trace_replay(
            [res.op for res in results[:len(one_pass)]], cli, work / "traced")
        phases.append(("traced", traced))
        for plain_res, traced_res in zip(results, traced):
            if _digests(plain_res) != _digests(traced_res):
                traced_res.misses.append(
                    Miss("traced outputs differ from untraced", wrong=True))
    if workload.pooled_check:
        for _, phase in phases:
            workload.pooled_check(phase)

    all_results = [res for _, phase in phases for res in phase]
    attempted = len(all_results)
    failed = sum(res.failed for res in all_results)
    correct = not any(m.wrong for res in all_results for m in res.misses)
    report = report_metrics(results, one_pass, setup, failed, attempted)
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, traced_wall)
        plain_s = sum(res.seconds for res in results[:len(traced)])
        metrics["trace_overhead"] = (
            sum(res.seconds for res in traced) / plain_s - 1.0, "ratio")
    else:
        metrics = {k: report[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}

    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(workload.threads),
        "correct": correct, "attempted": attempted, "failed": failed,
        "report": _as_json(report), "metrics": _as_json(metrics),
        "setup_runs_s": setup,
        "missing_boundaries": tracer.missing if tracer is not None else [],
        "ops": [op_record(res, name) for name, phase in phases for res in phase],
    }, indent=1) + "\n")
    if tracer is not None:
        origin = min((s.start for s in tracer.spans), default=0.0)
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(
            [[s.ident, s.name, s.start - origin, s.end - origin, s.parent, s.thread]
             for s in sorted(tracer.spans, key=lambda s: s.ident)]) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for key, (value, unit) in {**report, **metrics}.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    for res in all_results:
        for miss in res.misses:
            print(f"{args.workload} miss [{res.op.kind}]: {miss.text}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": _as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
