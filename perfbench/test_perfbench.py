"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import gc
import json
import re

import pytest

import run

inputs, workloads = run._import_program()
from tracer import Tracer  # noqa: E402  (needs the path set by _import_program)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tracer():
    t = Tracer()
    t.begin_op(0)
    yield t
    t.disable()


def _children(t: Tracer, parent: int) -> list[str]:
    return [t.names[t.span_name[i]] for i in range(len(t.span_name)) if t.span_parent[i] == parent]


def test_kar_compose_spans_have_compose_children(tracer):
    gl = workloads.lie.gl_object()
    module = workloads.lie.canonical_module(gl, "ud", check=False)
    tracer.enable()
    workloads.lie.check_module(module)
    tracer.disable()
    kar_compose = [
        i for i in range(len(tracer.span_name))
        if tracer.names[tracer.span_name[i]] == "karoubi.kar_compose"
    ]
    assert kar_compose
    assert all("diagrams.compose" in _children(tracer, i) for i in kar_compose)


def test_disable_restores_every_binding(tracer):
    originals = {
        name: getattr(workloads.diagrams, name) for name in ("compose", "tensor", "parse_expr")
    }
    karoubi_compose = vars(workloads.karoubi)["compose"]
    tracer.enable()
    assert vars(workloads.karoubi)["compose"] is not karoubi_compose
    tracer.disable()
    assert vars(workloads.karoubi)["compose"] is karoubi_compose
    for name, fn in originals.items():
        assert getattr(workloads.diagrams, name) is fn


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(workload, tracer):
    wl = workloads.WORKLOADS[workload]
    shared = wl.setup()
    items = inputs.cycle(workload, inputs.make_rng(workload, 7))[:3]
    plain = [wl.digest(wl.run(shared, item)) for item in items]
    traced = []
    for op_id, item in enumerate(items):
        tracer.begin_op(op_id)
        tracer.enable()
        traced.append(wl.digest(wl.run(shared, item)))
        tracer.disable()
    assert traced == plain
    assert len(tracer.span_name) > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload):
    def draw(seed):
        rng = inputs.make_rng(workload, seed)
        return [inputs.cycle(workload, rng) for _ in range(3)]

    first = draw(11)
    assert first == draw(11)
    assert json.loads(json.dumps(first)) == first  # plain data only
    assert first != draw(12)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_size_classes_do_not_depend_on_the_seed(workload):
    def classes(seed):
        items = inputs.cycle(workload, inputs.make_rng(workload, seed))
        return [
            {k: v for k, v in item.items()
             if k in ("kind", "length", "class", "n", "mode", "word", "families", "m", "d")
             and not (workload in ("compat", "realize") and k == "word")}
            for item in items
        ]

    assert classes(1) == classes(2)


def test_metric_names_are_well_formed():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in config[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert name[0].isalnum() and len(name) <= 64


def test_traced_compat_run_produces_its_layer_metrics(tracer):
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS["compat"]
    runner = run.Runner(wl, wl.setup())
    totals, traced_ops = run.measure_traced(runner, inputs, "compat", 1, 0.0, tracer)
    metrics = run.per_layer_metrics(tracer, totals, traced_ops)
    expected = {
        m["name"] for m in config["per_layer"]
        if m["name"].split(".")[0] in ("diagrams", "karoubi", "lie", "op", "trace")
    } - {"diagrams.all_matchings.self_s"} | {
        "exact.deltapoly.created",
        "currents.action.calls",
        "currents.check_current_compatibility.self_s",
    }
    assert expected <= set(metrics)
    assert not runner.failures


def test_an_injected_wrong_answer_is_counted_as_failed():
    wl = workloads.WORKLOADS["realize"]
    calls = {"n": 0}

    def wrong_once(shared, item):
        result = wl.run(shared, item)
        calls["n"] += 1
        if calls["n"] == 2:
            return dataclasses.replace(result, rank=result.rank + 1)
        return result

    runner = run.Runner(wl._replace(run=wrong_once), wl.setup())
    items = inputs.cycle("realize", inputs.make_rng("realize", 3))[:3]
    times = [runner.op(item)[0] for item in items]
    metrics = run.end_to_end_metrics(times, [1.0], runner)
    assert runner.attempted == 3
    assert len(runner.failures) == 1
    assert metrics["failed_frac"] == pytest.approx(1 / 3)
    assert metrics["ok_frac"] == pytest.approx(2 / 3)


def test_reference_scaling_cancels_host_speed_but_not_program_speed():
    base = run.scaled(0.1, [1e-3, 1e-3])
    assert run.scaled(0.2, [2e-3, 2e-3]) == pytest.approx(base)  # host twice as slow
    assert run.scaled(0.2, [1e-3, 1e-3]) == pytest.approx(2 * base)  # program twice as slow


def test_a_reference_reading_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert run.reference_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_raising_op_is_counted_as_failed():
    wl = workloads.WORKLOADS["equivariant"]

    def raising(shared, item):
        raise ValueError("boom")

    runner = run.Runner(wl._replace(run=raising), wl.setup())
    runner.op(inputs.warmup_item("equivariant"))
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_expected_ranks_match_the_paper_and_classical_values():
    assert workloads.expected_rank("uuuu", 2) == 14  # the kernel10 headline: 24 - 10
    assert workloads.expected_rank("udud", 2) == 14
    assert workloads.expected_rank("uuu", 3) == 6
    assert workloads.expected_rank("ssss", 2) == 35
    assert workloads.expected_rank("sss", 3) == 15


def test_expected_fixed_dimension_counts_cancelling_weights():
    # Z_2 flipping e and f, t -> -t on Q[t]/(t^3): h (x) {1, t^2}, e (x) t, f (x) t
    assert workloads.expected_fixed_dimension(2, 3, 1, 1) == 4
