"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import statistics
import threading

import pytest

import run
import spans
import workloads
from workloads import Miss, Op, OpResult

cli = run.load_program()

TINY_OPS = [
    Op(kind="variance", command="variance",
       argv=("variance", "--a", "0.5", "--f", "x^2", "--shape", "tree")),
    Op(kind="clt", command="clt",
       argv=("clt", "--a", workloads.CRITICAL_A, "--nu", "dirac:0", "--n", "6",
             "--replicas", "300", "--seed", "3", "--threads", "2")),
    Op(kind="slopes", command="slopes",
       argv=("slopes", "--alphas", "0.5,0.8", "--n", "8", "--replicas", "8",
             "--outer-repeats", "1", "--plot")),
    Op(kind="martingale", command="martingale",
       argv=("martingale", "--a", "0.85", "--n", "5")),
    Op(kind="check-assumptions", command="check-assumptions",
       argv=("check-assumptions", "--a", "0.6")),
    Op(kind="moments", command="moments", call=workloads._moments_call(0.3)),
]


def traced_run(tmp_path, monkeypatch):
    """Trace the tiny ops with small chunks, so the pool has work to split."""
    import bmclab.treesim

    monkeypatch.setattr(bmclab.treesim, "CHUNK_VALUES", 1 << 10)
    tracer = spans.Tracer()
    spans.install(tracer)
    patched = tracer.patched
    try:
        start = run.time.perf_counter()
        results = run.run_ops(TINY_OPS, cli, tmp_path, tracer)
        wall = run.time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, patched, results, wall


def test_traced_run_restores_every_patched_attribute(tmp_path, monkeypatch):
    before = {}
    probe = spans.Tracer()
    spans.install(probe)
    for owner, attr, original in probe.patched:
        before[(id(owner), attr)] = (owner, attr, original, attr in vars(owner))
    probe.uninstall()

    tracer, patched, results, _ = traced_run(tmp_path, monkeypatch)
    assert len(patched) == len(before) > 20
    for owner, attr, original, own in before.values():
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
        assert (attr in vars(owner)) == own
    assert not tracer.patched
    assert all(res.code == 0 for res in results)


def test_metric_names_are_well_formed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))
    traced = set(spans.layer_metrics(spans.Tracer(), 1.0)) | {"trace_overhead"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _layer_sum(metrics) -> float:
    return sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)


def test_self_times_and_residual_add_up_to_traced_wall(tmp_path, monkeypatch):
    tracer, _, results, wall = traced_run(tmp_path, monkeypatch)
    metrics = spans.layer_metrics(tracer, wall)
    total = _layer_sum(metrics) + metrics["residual_s"][0]
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    outside = metrics["residual_s"][0] + metrics["thread_overlap_s"][0]
    assert -1e-9 <= outside <= wall
    assert metrics["treesim.chunks"][0] > metrics["treesim.generation_sums.calls"][0]
    assert {s.layer for s in tracer.spans} <= set(spans.LAYERS)
    assert {s.layer for s in tracer.spans} >= {"cli", "rng", "treesim", "moments",
                                               "variance", "kernels", "svg"}


def test_self_times_on_known_spans():
    t = spans.Tracer()
    main = threading.get_ident()
    t.spans = [
        spans.Span(0, "cli.main", 1.0, 11.0, None, main),
        spans.Span(1, "experiments.slope_study", 2.0, 10.0, 0, main),
        spans.Span(2, "treesim.generation_sums", 3.0, 9.0, 1, main),
        spans.Span(3, "treesim.chunk", 3.0, 8.0, 2, 7),
        spans.Span(4, "treesim.chunk", 4.0, 9.0, 2, 8),
        spans.Span(5, "rng.uniform_pairs", 4.0, 6.0, 3, 7),
        spans.Span(6, "spectral.evaluate", 5.0, 7.0, 4, 8),
    ]
    metrics = spans.layer_metrics(t, 13.0)
    assert metrics["cli.self_s"][0] == 2.0
    assert metrics["experiments.self_s"][0] == 2.0
    # generation_sums is covered by its chunks; the chunks overlap for 4 s.
    assert metrics["treesim.self_s"][0] == 6.0
    assert metrics["rng.self_s"][0] == 2.0
    assert metrics["thread_overlap_s"][0] == 4.0
    assert metrics["treesim.thread_speedup"][0] == 10.0 / 6.0
    assert _layer_sum(metrics) + metrics["residual_s"][0] == 13.0
    # Outside every span: [0, 1) and [11, 13).
    assert metrics["residual_s"][0] + metrics["thread_overlap_s"][0] == 3.0


def test_traced_outputs_match_untraced(tmp_path, monkeypatch):
    plain = run.run_ops(TINY_OPS, cli, tmp_path / "plain")
    _, _, traced, _ = traced_run(tmp_path / "traced", monkeypatch)
    for a, b in zip(plain, traced):
        assert run._digests(a) == run._digests(b), a.op.kind


def test_closed_forms_match_known_values():
    assert workloads.closed_form_variance(0.5, 1, "single") == pytest.approx(2.0)
    assert workloads.closed_form_variance(0.5, 1, "tree") == pytest.approx(12.0)
    assert workloads.closed_form_variance(0.7, 1, "single") == pytest.approx(50.0)
    assert workloads.closed_form_variance(0.5, 3, "single") == pytest.approx(
        46.451612903224643, rel=1e-10)


def _variance_result(text: str) -> OpResult:
    return OpResult(op=Op(kind="v", command="variance"), seconds=0.0,
                    cpu_seconds=0.0, code=0, stdout=text, files={})


def test_nan_fails_the_op_and_a_wrong_value_is_wrong():
    check = workloads._variance_check(50.0)
    assert check(_variance_result("value = 50.000000000001\n")) == []
    nan = check(_variance_result("value = nan\n"))
    assert nan and not any(m.wrong for m in nan)
    off = check(_variance_result("value = 49.5\n"))
    assert off and all(m.wrong for m in off)


def test_op_lists_are_a_function_of_the_seed():
    def inputs(workload, seed, p):
        return [(op.kind, op.argv) for op in workload.pass_ops(seed, p)]

    for workload in workloads.WORKLOADS.values():
        assert inputs(workload, 5, 1) == inputs(workload, 5, 1)
        if workload.name != "series":
            assert inputs(workload, 5, 0) != inputs(workload, 6, 0)
            assert inputs(workload, 5, 0) != inputs(workload, 5, 1)
        for op in workload.pass_ops(5, 0):
            if op.argv:
                assert op.argv[op.argv.index("--threads") + 1] == str(workload.threads)


def test_pooled_slope_check_marks_every_repeat():
    def result(slope: float) -> OpResult:
        rows = "alpha,slope\n" + "".join(
            f"{a!r},{slope if a == 0.7 else workloads.ref_h1(a)!r}\n"
            for a in workloads.SLOPE_ALPHAS)
        return OpResult(op=Op(kind="slopes f=x", command="slopes"), seconds=0.0,
                        cpu_seconds=0.0, code=0, stdout="",
                        files={"slopes.csv": rows.encode()})

    good = [result(-0.9), result(-0.88), result(-0.86)]
    workloads.WORKLOADS["slopes"].pooled_check(good)
    assert not any(r.misses for r in good)
    bad = [result(-0.8), result(-0.88), result(-0.86)]
    workloads.WORKLOADS["slopes"].pooled_check(bad)
    assert all(r.misses == [bad[0].misses[0]] for r in bad)
    assert isinstance(bad[0].misses[0], Miss) and not bad[0].misses[0].wrong
    assert math.isclose(workloads.ref_h1(0.7), -1.0)


def test_summarize_gives_median_and_quartiles_over_runs(tmp_path):
    import summarize

    for seed, wall in enumerate((10.0, 12.0, 11.0, 13.0)):
        (tmp_path / f"slopes-seed{seed}-trace0.json").write_text(json.dumps({
            "workload": "slopes",
            "report": {"wall_s": {"value": wall, "unit": "s"}}}))
    (tmp_path / "slopes-seed9-trace1.json").write_text("not read")
    runs, median, q1, q3, unit = summarize.summarize(tmp_path)["slopes"]["wall_s"]
    assert (runs, median, unit) == (4, 11.5, "s")
    assert (q1, q3) == tuple(statistics.quantiles([10.0, 11.0, 12.0, 13.0], n=4)[::2])


def test_a_missing_boundary_is_listed_not_fatal():
    import types

    module = types.ModuleType("gone")
    module.kept = lambda: 1
    tracer = spans.Tracer()
    tracer.wrap(module, "removed", "rng.removed")
    tracer.wrap(module, "kept", "rng.kept")
    assert tracer.missing == ["gone.removed"]
    assert module.kept() == 1 and [s.name for s in tracer.spans] == ["rng.kept"]
    tracer.uninstall()
    assert not hasattr(module, "removed") and module.kept() == 1
