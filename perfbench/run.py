"""meshpass benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload {datagen,rollout,train} \
        --seed N --seconds S --trace {0,1}

One caller, one operation in flight, BLAS pinned to one thread (set here
before numpy is imported, since threadpoolctl is not available). The run
sets its workload up several times and reports the median, then runs
a fixed number of operations, ``--seconds`` divided by the workload's
nominal operation cost (see ``op_count``), checks every operation's
output outside the timed region, and prints the metrics. A fixed count
makes ``attempted`` and ``failed`` depend on the seed only: a datagen
scenario the mesh generator rejects fails in every run of that seed. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of perfbench/layers.py with
``--trace 1``. A failed operation (exception, non-zero exit or failed
output check) is counted and never aborts the run.

End-to-end metrics, lower is better:
  setup_s      import time plus the median wall time of one set-up
  op_s         median wall time of a succeeded operation after the first (a
               warm-up): one generated scenario (datagen), one evaluate pass
               plus error spectrum (rollout), one training step (train).
               Failed operations are reported in ``failed`` and in the
               failed_ratio line.
  peak_rss_mb  peak resident set size of the process

Each end-to-end metric must exist on every workload, so the workload-
specific figures are printed as ``phase`` lines instead: gen_scenario_s
(all operation time per succeeded scenario), model_step_s (mean
``ModelStepper.step``), eval_s and spectrum_s (medians per operation),
train_step_s, and failed_ratio.

The process re-executes itself once with ``PYTHONHASHSEED=0`` and
address-space randomisation off (see ``fix_layout``), so the number of
page faults an operation takes does not change with a random per-process
layout; the mean count per operation is printed as ``minor_faults_per_op``
and is the per-layer metric ``process.minor_faults``. glibc's allocator
keeps its default settings.

``meshpass bench`` (``analysis.timing_benchmark``) is not used: it times a
synthetic loop over processor block 0, not a real ``predict_step``,
evaluation pass or training step.

Files are written only under ``.perfbench/`` at the checkout root: a work
directory that is removed at exit, the last untraced end-to-end values per
(workload, seed) so a traced run can report its tracing overhead, and the
traced run's spans.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MiB"))
ADDR_NO_RANDOMIZE = 0x0040000


def fix_layout():
    """Re-execute this process once with Python's string hashing seeded and
    address-space randomisation off (a personality flag of this process and
    its children only). The layout decides how many fresh pages numpy's
    temporaries fault in: with a random layout one rollout pass took 0.6M to
    1.8M minor faults and 7 to 11 s, changing from process to process (one
    2-core Xeon VM). With the fixed layout one version of the code takes
    the same counts on every run and seed: twenty seeds all took 1.79M
    faults per pass. Changed code can land on another count; an edit to
    docstrings in this directory once moved later passes to almost none.
    Every fault is still paid and timed. Returns whether both settings
    hold."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        persona = libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        persona = -1
    fixed = persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)
    fixed = fixed and os.environ.get("PYTHONHASHSEED") == "0"
    if fixed or os.environ.get("PERFBENCH_REEXEC") == "1":
        return fixed
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PERFBENCH_REEXEC"] = "1"  # one attempt, even if the flag is refused
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("datagen", "rollout", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def provenance(seed, layout_fixed):
    import numpy
    import scipy

    commit = None
    try:
        # The ceiling keeps git from reporting an enclosing repository when
        # the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "meshpass")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    blas = {}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "layout_fixed": layout_fixed,
    }


def op_count(wl, seconds):
    """Operations in a run: ``seconds`` of operations at the workload's
    nominal cost, at least a warm-up and one timed operation. The count
    does not depend on how fast this run goes, so runs with the same seed
    attempt the same operations and fail the same ones."""
    return max(2, round(seconds / wl.NOMINAL_OP_S))


def run(workload, seed, seconds, tracer=None, work=None, import_time=0.0):
    """Set up and run one workload; returns a result dict (see main)."""
    import workloads

    work = work or os.path.join(STATE, f"work-{workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[workload](seed, work)
    phase = tracer.phase if tracer is not None else contextlib.nullcontext
    quiet = tracer.suspended if tracer is not None else contextlib.nullcontext
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            with phase(f"setup{k}"):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
        # Scenarios the kept set-up could not generate count as failed
        # operations (train builds its dataset one scenario at a time).
        errors = [f"setup: {e}" for e in getattr(wl, "setup_failures", ())]
        attempted = failed = len(errors)
        op_times, op_faults, op_ok, results, digests = [], [], [], [], []
        correct = True
        for i in range(op_count(wl, seconds)):
            attempted += 1
            with phase(f"op{i}"):
                f0 = minor_faults()
                t0 = time.perf_counter()
                try:
                    result = wl.op(i)
                    ok = True
                except Exception:  # a failed operation is counted, never fatal
                    ok = False
                    where = traceback.format_exc().strip().splitlines()[-3:]
                    errors.append(f"op {i}: " + " | ".join(line.strip() for line in where))
                op_times.append(time.perf_counter() - t0)
                op_faults.append(minor_faults() - f0)
            if ok:
                with quiet():
                    try:
                        digests.append(wl.check(i, result))
                        results.append(result)
                    except workloads.CheckFailed as exc:
                        ok = correct = False
                        errors.append(f"op {i}: check failed: {exc}")
            failed += not ok
            op_ok.append(ok)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_check = getattr(wl, "final_check", None)
        if final_check is not None and results:
            with quiet():
                try:
                    final_check()
                except workloads.CheckFailed as exc:  # charged to the last succeeded op
                    correct = False
                    failed += 1
                    errors.append(f"final check failed: {exc}")
        with quiet():  # builds solver objects to count substeps
            workload_info = wl.provenance() if results else {}
        ok_times = [t for t, ok in zip(op_times, op_ok) if ok]
        timed_ok = [t for t, ok in zip(op_times[1:], op_ok[1:]) if ok]
        values = {
            "setup_s": import_time + statistics.median(setup_times),
            # The first operation is a warm-up (allocator pools and module
            # caches fill): counted and checked, but not in op_s.
            "op_s": statistics.median(timed_ok or ok_times or op_times),
            "peak_rss_mb": peak_rss_mb,
        }
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "values": values,
            "phases": dict(wl.phases(results, op_times), failed_ratio=failed / attempted),
            "minor_faults": statistics.fmean(op_faults),
            "setup_times": setup_times,
            "op_times": op_times,
            "op_faults": op_faults,
            "digests": digests,
            "errors": errors,
            "workload_info": workload_info,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    layout_fixed = fix_layout()
    if not os.path.isdir(os.path.join(SRC, "meshpass")):
        print(f"perfbench: meshpass sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import meshpass.analysis  # noqa: F401  (load every module before wrapping)
    import meshpass.cli  # noqa: F401
    import workloads  # noqa: F401

    import_time = time.perf_counter() - T_START
    os.makedirs(STATE, exist_ok=True)

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(layers.targets())
    try:
        out = run(args.workload, args.seed, args.seconds, tracer=tracer,
                  import_time=import_time)
    finally:
        if tracer is not None:
            tracer.uninstall()

    info = {"provenance": provenance(args.seed, layout_fixed), "workload": out["workload_info"],
            "attempted": out["attempted"], "failed": out["failed"],
            "setup_times": out["setup_times"], "op_times": out["op_times"],
            "op_faults": out["op_faults"],
            "digests": out["digests"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in out["errors"]:
        print(f"failure: {line}")
    print("info " + json.dumps(info, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"metric {name} {out['values'][name]:.6g} {unit}")
    print(f"phase minor_faults_per_op {out['minor_faults']:.6g} count")
    for name, value in out["phases"].items():
        unit = "1" if name == "failed_ratio" else "s"
        print(f"phase {name} {value:.6g} {unit}")

    e2e = {name: {"value": out["values"][name], "unit": unit} for name, unit in END_TO_END}
    record = os.path.join(STATE, f"e2e-{args.workload}-{args.seed}.json")
    if not args.trace:
        with open(record, "w") as fh:
            json.dump(e2e, fh)
        metrics = e2e
    else:
        import layers

        metrics = layers.layer_metrics(tracer, SETUP_REPEATS, out["attempted"],
                                       out["minor_faults"])
        if os.path.exists(record):
            with open(record) as fh:
                untraced = json.load(fh)
            for name, unit in END_TO_END:
                delta = out["values"][name] - untraced[name]["value"]
                print(f"tracing-overhead {name} {delta:+.6g} {unit}")
        for name in tracer.missing:
            print(f"coverage: {name} could not be wrapped (name not found)")
        called = {s.name for s in tracer.spans}
        for name in layers.expected_calls(args.workload):
            if name not in called:
                print(f"coverage: {name} recorded no call on {args.workload}")
        tracer.dump(os.path.join(STATE, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # set-up failure: no result line, non-zero exit
        traceback.print_exc()
        sys.exit(1)
