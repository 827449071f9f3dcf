"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("a", 1.0, 4.0, 0, "op0"),
        Span("a.child", 2.0, 3.0, 1, "op0"),
        Span("b", 5.0, 9.0, 0, "op0"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        Span("p", 0.0, 10.0, -1, "op0"),
        Span("c1", 1.0, 5.0, 0, "op0"),
        Span("c2", 3.0, 7.0, 0, "op0"),  # overlaps c1: union is [1, 7]
        Span("c3", 9.0, 12.0, 0, "op0"),  # clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_metric_names_and_benchmark_json_agree():
    bench = _benchmark()
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == layers.metric_specs()
    names = [n for n, _ in e2e] + [n for n, _, _ in per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in bench["workloads"]] == ["datagen", "rollout", "train"]


def test_wrappers_installed_by_identity_and_removed():
    import meshpass.cli  # noqa: F401  (loads every module that binds the targets)
    from meshpass import dataset, mesh, nn, solver
    from meshpass.nn import autodiff

    originals = (mesh.generate_mesh, autodiff.matmul, solver.FrameStepper.step)
    tracer = Tracer()
    tracer.install(layers.targets() + [Target("meshpass.mesh", "no_such_function", "mesh.gone")])
    try:
        assert tracer.missing == ["mesh.gone"]
        assert dataset.generate_mesh is mesh.generate_mesh is not originals[0]
        assert nn.matmul is autodiff.matmul is not originals[1]
        assert solver.FrameStepper.step is not originals[2]
    finally:
        tracer.uninstall()
    assert (mesh.generate_mesh, autodiff.matmul, solver.FrameStepper.step) == originals
    assert dataset.generate_mesh is mesh.generate_mesh and nn.matmul is autodiff.matmul


def _recorded(tracer):
    """Per-layer metric names backed by a recorded span or measure counter."""
    spans = {s.name for s in tracer.spans}
    counted = {(name, q) for name, q, _ in tracer.counters}
    out = set()
    for metric, _, _ in layers.metric_specs():
        name, q = metric.rsplit(".", 1)
        if (name in spans and q in ("calls", "self_s", "failed")) or (name, q) in counted:
            out.add(metric)
    return out


def _assert_covered(tracer, workload):
    assert tracer.missing == []
    called = {s.name for s in tracer.spans}
    expected = layers.expected_calls(workload)
    assert [n for n in expected if n not in called] == []
    recorded = _recorded(tracer)
    expected_metrics = [m for m, _, _ in layers.metric_specs() if m.rsplit(".", 1)[0] in expected]
    assert [m for m in expected_metrics if m not in recorded] == []
    return called


def test_datagen_counts_forced_mesh_failure_and_records_its_layers(tmp_path, monkeypatch):
    import workloads
    from meshpass import mesh
    from meshpass.mesh import MeshGenerationError

    real = mesh._sizing_field
    calls = []

    def failing_once(*args, **kwargs):
        # Fails inside the first generate_mesh call, so its span records it.
        calls.append(args)
        if len(calls) == 1:
            raise MeshGenerationError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh, "_sizing_field", failing_once)
    monkeypatch.setattr(workloads, "GEN_STEPS", 2)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        out = run.run("datagen", 3, 0.5, tracer=tracer, work=str(tmp_path / "work"))
    finally:
        tracer.uninstall()
    assert out["attempted"] == 2 and out["failed"] == 1 and out["correct"]
    assert out["phases"]["failed_ratio"] == 0.5
    assert "forced failure" in out["errors"][0]
    assert len(out["digests"]) == 1
    called = _assert_covered(tracer, "datagen")
    assert not any(n.split(".")[0] in ("graphs", "processor", "nn") for n in called)
    metrics = layers.layer_metrics(tracer, run.SETUP_REPEATS, out["attempted"],
                                   out["minor_faults"])
    assert list(metrics) == [m["name"] for m in _benchmark()["per_layer"]]
    assert metrics["dataset.high_accuracy_trajectory.self_s"]["value"] > 0
    assert metrics["mesh.generate_mesh.failed"]["value"] == 0.5
    assert metrics["process.minor_faults"]["value"] > 0
    assert set(out["values"]) == {n for n, _ in run.END_TO_END}
    assert all(v > 0 for v in out["values"].values())


def test_rollout_records_forward_layers_and_no_backward(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "ROLLOUT_RESOLUTIONS", (1e-2,))
    monkeypatch.setattr(workloads, "EVAL_STEPS", 1)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        out = run.run("rollout", 4, 0.1, tracer=tracer, work=str(tmp_path / "work"))
    finally:
        tracer.uninstall()
    assert out["correct"] and out["failed"] == 0
    called = _assert_covered(tracer, "rollout")
    assert "nn.backward" not in called and "nn.Adam.step" not in called
    # The substep count in the result's provenance is not a traced solver assembly.
    assembled = [s for s in tracer.spans if s.name == "solver.FrameStepper.assemble"]
    assert {s.op for s in assembled} == {f"setup{k}" for k in range(run.SETUP_REPEATS)}


def test_train_setup_failure_is_counted_and_train_layers_recorded(tmp_path, monkeypatch):
    import workloads

    real = workloads._run_cli

    def fail_first_scenario(argv):
        if argv[argv.index("--seed") + 1] == "0":
            raise workloads.OpFailed("meshpass gen exited 1: forced failure")
        return real(argv)

    monkeypatch.setattr(workloads, "_run_cli", fail_first_scenario)
    monkeypatch.setattr(workloads, "TRAIN_SCENARIOS", 2)
    monkeypatch.setattr(workloads, "TRAIN_GEN_STEPS", 1)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        out = run.run("train", 5, 0.1, tracer=tracer, work=str(tmp_path / "work"))
    finally:
        tracer.uninstall()
    assert out["attempted"] == 3 and out["failed"] == 1 and out["correct"]
    _assert_covered(tracer, "train")
    assert out["errors"][0].startswith("setup: scenario 0:")
    assert out["workload_info"]["samples"] == 1


def test_operation_count_does_not_depend_on_speed(tmp_path, monkeypatch):
    import time

    import workloads

    delays = iter([0.0, 0.3, 0.0, 0.0, 0.0, 0.0])

    def op(self, i):
        time.sleep(next(delays))
        if i == 1:
            raise workloads.OpFailed("forced failure")
        return i

    monkeypatch.setattr(workloads.Datagen, "op", op)
    monkeypatch.setattr(workloads.Datagen, "check", lambda self, i, result: str(result))
    seconds = 4 * workloads.Datagen.NOMINAL_OP_S
    out = run.run("datagen", 1, seconds, work=str(tmp_path / "work"))
    assert out["attempted"] == 4 and out["failed"] == 1
    assert out["digests"] == ["0", "2", "3"]
