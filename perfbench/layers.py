"""The traced meshpass functions and the per-layer metrics made from them.

Each row names a function by module and qualified name, the quantities
reported for it, the workloads on which it must record calls, and the
end-to-end metric it should move on which workload. The table, with
PROCESS_METRICS, is the single source for the wrappers, the per-layer
metric names in BENCHMARK.json and the coverage report: a name that no
longer resolves, or that records no call on a workload listed for it, is
reported by name.

Per-layer values are per operation: spans recorded during set-up count
once (their total divided by the number of set-up repetitions) and spans
of timed operations are averaged over the operations attempted. ``flops``
and ``bytes`` are computed from operand shapes and file sizes, not
measured by hardware counters.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import Target, self_times

ALL = ("datagen", "rollout", "train")
MODEL = ("rollout", "train")

UNITS = {"calls": "count", "self_s": "s"}


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _generate_mesh_measure():
    seen = {}

    def measure(args, kwargs, mesh, op):
        domain, edge_min = args[0], args[1]
        seed = kwargs.get("seed", args[2] if len(args) > 2 else 0)
        key = (repr(domain), float(edge_min), int(seed))
        keys = seen.setdefault(op, set())
        repeat = key in keys
        keys.add(key)
        return {"nodes": mesh.n_nodes, "repeat_calls": int(repeat)}

    return measure


def _matmul_flops(args, kwargs, result, op):
    a, b = _shape(args[0]), _shape(args[1])
    return {"flops": 2 * int(np.prod(a[:-1])) * a[-1] * b[-1]}


def _spmm_flops(args, kwargs, result, op):
    return {"flops": 2 * args[0].mat.nnz * _shape(args[1])[-1]}


def _adam_bytes(args, kwargs, result, op):
    # Per element: read param, grad, m, v; write param, m, v (float64).
    return {"bytes": 7 * 8 * sum(p.data.size for p in args[0].params)}


# (module, qualname, span name, extra quantities, workloads with calls, moves)
TABLE = (
    ("meshpass.mesh", "generate_mesh", "mesh.generate_mesh",
     {"repeat_calls": "count", "nodes": "count", "failed": "count"}, ALL,
     "op_s on datagen; setup_s on rollout and train"),
    ("meshpass.mesh", "build_interpolator", "mesh.build_interpolator",
     {"points": "count"}, ("datagen", "rollout"),
     "op_s on datagen (labels) and rollout (evaluate)"),
    ("meshpass.solver", "FrameStepper.__init__", "solver.FrameStepper.assemble", {}, ALL,
     "op_s on datagen; setup_s on rollout and train"),
    ("meshpass.solver", "FrameStepper.step", "solver.FrameStepper.step",
     {"substeps": "count"}, ALL, "op_s on datagen; setup_s on rollout and train"),
    ("meshpass.solver", "simulate", "solver.simulate", {}, ALL,
     "op_s on datagen; setup_s on rollout and train"),
    ("meshpass.solver", "one_step_errors", "solver.one_step_errors", {}, ("rollout",),
     "op_s on rollout"),
    ("meshpass.dataset", "simulate_scenario", "dataset.simulate_scenario", {},
     ("datagen", "train"), "op_s on datagen; setup_s on train"),
    ("meshpass.dataset", "high_accuracy_trajectory", "dataset.high_accuracy_trajectory", {},
     ("datagen",), "op_s on datagen"),
    ("meshpass.dataset", "write_scenario_dir", "dataset.write_scenario_dir",
     {"bytes": "B"}, ("datagen", "train"), "op_s on datagen; setup_s on train"),
    ("meshpass.dataset", "load_dataset", "dataset.load_dataset", {"bytes": "B"}, ("train",),
     "setup_s on train"),
    ("meshpass.cli", "cmd_gen", "cli.cmd_gen", {}, ("datagen", "train"),
     "op_s on datagen; setup_s on train"),
    ("meshpass.graphs", "encode_fine", "graphs.encode_fine", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.graphs", "encode_coarse", "graphs.encode_coarse", {}, MODEL,
     "op_s on rollout and train (calls per step go to zero with cached latents)"),
    ("meshpass.graphs", "build_transfer", "graphs.build_transfer", {}, MODEL,
     "op_s on rollout and train (calls per step go to zero with cached latents)"),
    ("meshpass.graphs", "containment_edges", "graphs.containment_edges", {}, MODEL,
     "op_s on rollout and train; setup_s on rollout (normalizer warm-up)"),
    ("meshpass.processor", "high_res_update", "processor.high_res_update", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.processor", "low_res_update", "processor.low_res_update", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.processor", "downsample_update", "processor.downsample_update", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.processor", "upsample_update", "processor.upsample_update", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.processor", "forward_normalized_delta", "processor.forward_normalized_delta",
     {}, MODEL, "op_s on rollout and train"),
    ("meshpass.processor", "predict_step", "processor.predict_step", {}, ("rollout",),
     "op_s on rollout"),
    ("meshpass.nn.autodiff", "matmul", "nn.matmul", {"flops": "flop"}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "spmm", "nn.spmm", {"flops": "flop"}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "concat", "nn.concat", {"bytes": "B"}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "layer_norm", "nn.layer_norm", {}, MODEL,
     "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "add", "nn.add", {}, MODEL, "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "relu", "nn.relu", {}, MODEL, "op_s on rollout and train"),
    ("meshpass.nn.autodiff", "backward", "nn.backward", {}, ("train",),
     "op_s on train only (no calls on rollout)"),
    ("meshpass.nn.optim", "Adam.step", "nn.Adam.step", {"bytes": "B"}, ("train",),
     "op_s on train only (no calls on rollout)"),
    ("meshpass.training", "train", "training.train", {}, ("train",), "op_s on train"),
    ("meshpass.training", "training_loss", "training.training_loss", {}, ("train",),
     "op_s on train"),
    ("meshpass.training", "warm_up_normalizers", "training.warm_up_normalizers", {}, MODEL,
     "setup_s on rollout and train"),
    ("meshpass.training", "evaluate", "training.evaluate", {}, ("rollout",), "op_s on rollout"),
    ("meshpass.training", "rollout_errors", "training.rollout_errors", {}, ("rollout",),
     "op_s on rollout"),
    ("meshpass.training", "save_checkpoint", "training.save_checkpoint", {"bytes": "B"},
     ("rollout",), "setup_s on rollout"),
    ("meshpass.training", "load_checkpoint", "training.load_checkpoint", {}, ("rollout",),
     "setup_s on rollout"),
    ("meshpass.analysis", "graph_laplacian", "analysis.graph_laplacian", {}, ("rollout",),
     "op_s on rollout (spectrum)"),
    ("meshpass.analysis", "spectral_basis", "analysis.spectral_basis", {}, ("rollout",),
     "op_s on rollout (spectrum)"),
    ("meshpass.analysis", "gft_spectrum", "analysis.gft_spectrum", {}, ("rollout",),
     "op_s on rollout (spectrum)"),
)

# Measured by the runner around each operation rather than by a wrapper:
# minor page faults show the allocation churn (fresh pages mapped and
# zeroed for temporaries) that no span separates from compute.
PROCESS_METRICS = [("process.minor_faults", "count", "lower")]

# Spans whose call counts are reported (the rest report self time only, plus
# the quantities listed in TABLE).
COUNTED = {
    "mesh.generate_mesh", "solver.FrameStepper.step", "graphs.encode_fine",
    "graphs.encode_coarse", "graphs.build_transfer", "graphs.containment_edges",
    "processor.high_res_update", "processor.low_res_update", "processor.downsample_update",
    "processor.upsample_update", "nn.matmul", "nn.spmm", "nn.concat", "nn.layer_norm",
    "nn.add", "nn.relu", "nn.backward",
}

_MEASURES = {
    "mesh.build_interpolator": lambda a, k, r, op: {"points": len(np.atleast_2d(a[1]))},
    "solver.FrameStepper.step": lambda a, k, r, op: {"substeps": a[0].n_substeps},
    "dataset.write_scenario_dir": lambda a, k, r, op: {"bytes": _dir_bytes(r)},
    "dataset.load_dataset": lambda a, k, r, op: {"bytes": _dir_bytes(a[0])},
    "training.save_checkpoint": lambda a, k, r, op: {"bytes": os.path.getsize(a[0])},
    "nn.matmul": _matmul_flops,
    "nn.spmm": _spmm_flops,
    "nn.concat": lambda a, k, r, op: {"bytes": r.data.nbytes},
    "nn.Adam.step": _adam_bytes,
}


def targets():
    """Fresh wrapper targets (measure hooks hold per-run state)."""
    measures = dict(_MEASURES, **{"mesh.generate_mesh": _generate_mesh_measure()})
    return [Target(module, qualname, name, measures.get(name))
            for module, qualname, name, *_ in TABLE]


def metric_specs():
    """Per-layer metrics in BENCHMARK.json order: (name, unit, better)."""
    out = []
    for _, _, name, extra, _, _ in TABLE:
        quantities = (["calls"] if name in COUNTED else []) + list(extra) + ["self_s"]
        out += [(f"{name}.{q}", extra.get(q) or UNITS[q], "lower") for q in quantities]
    return out + PROCESS_METRICS


def expected_calls(workload):
    return [name for _, _, name, _, workloads, _ in TABLE if workload in workloads]


def layer_metrics(tracer, setup_reps, ops_attempted, minor_faults):
    """Per-operation per-layer values from a traced run (see module doc);
    ``minor_faults`` is the runner's mean count per operation."""
    totals = {}  # (name, quantity, is_setup) -> amount
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        phase = span.op.startswith("setup")
        for q, amount in (("calls", 1), ("failed", int(span.failed)), ("self_s", own)):
            key = (span.name, q, phase)
            totals[key] = totals.get(key, 0) + amount
    for (name, q, op), amount in tracer.counters.items():
        key = (name, q, op.startswith("setup"))
        totals[key] = totals.get(key, 0) + amount
    out = {}
    for metric, unit, _ in metric_specs()[:-len(PROCESS_METRICS)]:
        name, q = metric.rsplit(".", 1)
        value = (totals.get((name, q, True), 0) / max(setup_reps, 1)
                 + totals.get((name, q, False), 0) / max(ops_attempted, 1))
        out[metric] = {"value": float(value), "unit": unit}
    out["process.minor_faults"] = {"value": float(minor_faults), "unit": "count"}
    return out
