"""Command-line entry point: gen / train / eval / analyze / bench.

Runs are configured by a plain-text key=value file plus ``--set`` overrides;
unknown keys are rejected. Every command writes only under its ``--out``
directory and is reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import analysis, dataset, nn, solver, training
from .mesh import load_mesh
from .nn import NonFiniteError
from .processor import ModelParams, parse_schedule
from .records import read_key_values, write_key_values
from .solver import FrameStepper, load_trajectory
from .training import ModelStepper, TrainConfig, evaluate, load_checkpoint, save_checkpoint


class ConfigError(ValueError):
    pass


LABEL_MODES = ("native", "high-accuracy")

# key -> (default, type, help)
CONFIG_DEFAULTS = {
    "scenarios": (10, int, "number of scenarios to generate"),
    "seed": (0, int, "global RNG seed"),
    "labels": ("native", str, "label mode: native | high-accuracy"),
    "refine": (4, int, "refinement factor for high-accuracy labels (>= 2)"),
    "edge_min_lo": (1e-3, float, "lower bound of the sampled minimum edge length"),
    "edge_min_hi": (1e-2, float, "upper bound of the sampled minimum edge length"),
    "viscosity": (1e-3, float, "scalar diffusivity (m^2/s)"),
    "dt": (0.01, float, "frame timestep (s)"),
    "n_steps": (200, int, "frames per trajectory"),
    "coarse_edge_min": (1e-2, float, "fixed coarse-level resolution"),
    "processor": ("p=1H 11L 1H (U=1,D=1)", str, "processor schedule string"),
    "latent_size": (128, int, "latent width"),
    "hidden_size": (128, int, "MLP hidden width"),
    "train_steps": (10000, int, "training steps"),
    "learning_rate": (1e-4, float, "initial learning rate"),
    "lr_decay": (0.1, float, "total learning-rate decay factor"),
    "batch_size": (1, int, "graphs per training step"),
    "noise_std": (0.02, float, "training noise std in normalized units"),
    "normalizer_steps": (300, int, "normalizer accumulation budget"),
    "eval_resolutions": ("", str, "comma-separated edge_min values for eval"),
    "n_resolutions": (5, int, "test resolutions when eval_resolutions is empty"),
    "eval_steps": (50, int, "frames in the evaluation reference trajectory"),
    "max_rollout": (50, int, "rollout length for MSE-N metrics"),
    "workers": (1, int, "parallel gen processes; the output does not depend on it"),
}


# flag -> (config key, argparse options besides the key's type): the flags
# that set a config key. A flag beats --set, which beats the --config file.
KEY_FLAGS = {
    "--scenarios": ("scenarios", {}),
    "--seed": ("seed", {}),
    "--labels": ("labels", {"choices": LABEL_MODES}),
    "--refine": ("refine", {}),
    "--processor": ("processor", {}),
    "--steps": ("train_steps", {}),
}

# Keys that count something and must be at least 1.
COUNT_KEYS = ("scenarios", "n_steps", "eval_steps", "max_rollout", "n_resolutions")


def load_config(path=None, overrides=()):
    cfg = {k: v for k, (v, _, _) in CONFIG_DEFAULTS.items()}

    def apply(key, raw, where):
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        _, typ, _ = CONFIG_DEFAULTS[key]
        try:
            cfg[key] = typ(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in {where}: {raw!r}") from exc

    if path:
        for key, raw in read_key_values(path).items():
            apply(key, raw, path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), "--set")
    return cfg


def resolve_config(args):
    """The settings of a command: the defaults, then the ``--config`` file,
    then ``--set``, then the command's key flags. ConfigError for a count
    below 1 or a coarse_edge_min that is not positive and finite."""
    cfg = load_config(args.config, args.set or ())
    for key, _ in KEY_FLAGS.values():
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key in COUNT_KEYS:
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    if not 0 < cfg["coarse_edge_min"] < np.inf:
        raise ConfigError(
            f"coarse_edge_min must be positive and finite, got {cfg['coarse_edge_min']!r}"
        )
    return cfg


def _resolution_list(text, name):
    """The comma-separated edge lengths of ``text``; ConfigError naming
    ``name`` (a config key or a flag) and the first entry that is not a
    positive number."""
    values = []
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = np.nan
        if not 0 < value < np.inf:
            raise ConfigError(f"{name}: {entry.strip()!r} is not a positive number")
        values.append(value)
    return values


def _edge_min_range(cfg):
    lo, hi = cfg["edge_min_lo"], cfg["edge_min_hi"]
    if not 0 < lo <= hi:
        raise ConfigError(
            f"need 0 < edge_min_lo <= edge_min_hi, got edge_min_lo={lo!r}, edge_min_hi={hi!r}"
        )
    return lo, hi


def cmd_gen(args):
    cfg = resolve_config(args)
    if cfg["labels"] not in LABEL_MODES:
        raise ConfigError("labels must be 'native' or 'high-accuracy'")
    refinement = cfg["refine"] if cfg["labels"] == "high-accuracy" else None
    if refinement is not None:
        dataset.check_refinement(refinement)
    lo, hi = _edge_min_range(cfg)
    rng = np.random.default_rng(cfg["seed"])
    scenarios = []
    for scenario in dataset.sample_scenarios(cfg["scenarios"], cfg["seed"]):
        # Re-sample edge_min within the configured (desk-scale) subrange;
        # the clamp keeps exp(log(x)) rounding inside it.
        edge_min = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        scenarios.append(
            dataset.ScenarioParams(
                scenario.radius, scenario.center, scenario.inflow_mean,
                min(max(edge_min, lo), hi), scenario.seed,
            )
        )
    # Bad PDE keys fail here, before any mesh is generated.
    dataset.scenario_pde_config(scenarios[0], cfg["viscosity"], cfg["dt"], cfg["n_steps"])
    os.makedirs(args.out, exist_ok=True)
    generate = functools.partial(
        dataset.simulate_scenario, refinement=refinement,
        viscosity=cfg["viscosity"], dt=cfg["dt"], n_steps=cfg["n_steps"],
    )
    if cfg["workers"] > 1:
        with Pool(cfg["workers"]) as pool:
            results = pool.map(generate, scenarios)
    else:
        results = [generate(s) for s in scenarios]
    extra = {key: cfg[key] for key in ("viscosity", "dt", "n_steps", "coarse_edge_min")}
    extra.update(refinement=refinement or 1, domain_length=dataset.CHANNEL_LENGTH,
                 domain_height=dataset.CHANNEL_HEIGHT)
    for index, (scenario, (mesh, traj, labels)) in enumerate(zip(scenarios, results)):
        dataset.write_scenario_dir(args.out, index, scenario, mesh, traj, labels, extra)
    write_key_values(os.path.join(args.out, "dataset_meta"), {k: cfg[k] for k in sorted(cfg)})
    print(f"wrote {len(scenarios)} scenarios to {args.out}")
    return 0


def cmd_train(args):
    cfg = resolve_config(args)
    train_cfg = TrainConfig(
        steps=cfg["train_steps"],
        learning_rate=cfg["learning_rate"],
        lr_decay=cfg["lr_decay"],
        batch_size=cfg["batch_size"],
        noise_std=cfg["noise_std"],
        seed=cfg["seed"],
        schedule=cfg["processor"],
        normalizer_steps=min(cfg["normalizer_steps"], cfg["train_steps"]),
        latent_size=cfg["latent_size"],
        hidden_size=cfg["hidden_size"],
    )
    if not os.path.isdir(args.dataset):
        print(f"error: dataset directory not found: {args.dataset}", file=sys.stderr)
        return 1
    schedule = parse_schedule(cfg["processor"])
    samples = dataset.load_dataset(
        args.dataset,
        coarse_edge_min=cfg["coarse_edge_min"] if schedule.has_coarse_steps else None,
    )
    if not samples:
        print(f"error: no scenarios under {args.dataset}", file=sys.stderr)
        return 1
    if args.resume:
        params, optimizer, start_step = load_checkpoint(args.resume)
        for key, held, same in (
            ("processor", params.schedule.text, schedule == params.schedule),
            ("latent_size", params.latent_size, cfg["latent_size"] == params.latent_size),
            ("hidden_size", params.hidden_size, cfg["hidden_size"] == params.hidden_size),
        ):
            if not same:
                raise ConfigError(f"--resume checkpoint {args.resume} has {key}={held!r}, "
                                  f"but this run sets {key}={cfg[key]!r}")
    else:
        params = ModelParams(
            cfg["processor"],
            field_width=samples[0].inputs.shape[-1] if samples[0].inputs.ndim > 1 else 1,
            latent_size=cfg["latent_size"],
            hidden_size=cfg["hidden_size"],
            seed=cfg["seed"],
        )
        optimizer = nn.Adam(params.parameters(), lr=train_cfg.learning_rate)
        start_step = 0
    os.makedirs(args.out, exist_ok=True)
    history = training.train(params, samples, train_cfg, optimizer, start_step)
    ckpt = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(ckpt, params, optimizer, train_cfg.steps)
    training.write_history_csv(history, os.path.join(args.out, "history.csv"))
    print(f"trained {train_cfg.steps - start_step} steps; checkpoint at {ckpt}")
    return 0


def _eval_resolutions(cfg):
    if cfg["eval_resolutions"]:
        return sorted(_resolution_list(cfg["eval_resolutions"], "eval_resolutions"),
                      reverse=True)
    return None


def cmd_eval(args):
    cfg = resolve_config(args)
    if not (args.solver or args.checkpoint):
        print("error: --checkpoint or --solver required", file=sys.stderr)
        return 1
    resolutions = _eval_resolutions(cfg)
    params = None if args.solver else load_checkpoint(args.checkpoint)[0]
    meshes, ref_traj, pde_cfg = dataset.fixed_obstacle_testset(
        resolutions=resolutions,
        n_resolutions=cfg["n_resolutions"],
        seed=cfg["seed"],
        viscosity=cfg["viscosity"],
        dt=cfg["dt"],
        n_steps=cfg["eval_steps"],
        edge_min_range=_edge_min_range(cfg),
    )
    os.makedirs(args.out, exist_ok=True)
    if params is None:
        factory = lambda mesh: FrameStepper(mesh, pde_cfg)
        report = evaluate(factory, meshes, ref_traj, model="solver", mps=0,
                          schedule="", max_rollout=cfg["max_rollout"])
    else:
        coarse = None
        if params.schedule.has_coarse_steps:
            coarse = dataset.coarse_mesh(pde_cfg.domain, cfg["seed"], cfg["coarse_edge_min"])

        def factory(mesh):
            return ModelStepper(params, coarse).bind(mesh)

        report = evaluate(
            factory, meshes, ref_traj, model="model",
            mps=params.schedule.total_mps, schedule=params.schedule.text,
            max_rollout=cfg["max_rollout"],
        )
    report.write_csv(os.path.join(args.out, "eval.csv"))
    report.write_rollout_csv(os.path.join(args.out, "rollout.csv"))
    print(f"wrote evaluation for {len(meshes)} resolutions to {args.out}")
    return 0


# analyze mode -> the flags it reads
ANALYZE_INPUTS = {"spectrum": ("mesh", "traj", "ref"), "curve": ("eval", "baseline")}


def cmd_analyze(args):
    for flag in ANALYZE_INPUTS.get(args.mode, ()):
        if getattr(args, flag) is None:
            print(f"error: --mode {args.mode} needs --{flag}", file=sys.stderr)
            return 1
    if args.frame < 0:
        print("error: --frame must be >= 0", file=sys.stderr)
        return 1
    if args.mode == "spectrum":
        mesh = load_mesh(args.mesh)
        traj_a, _ = load_trajectory(args.traj, mesh)
        traj_b, _ = load_trajectory(args.ref, mesh)
        if traj_a.fields.shape != traj_b.fields.shape:
            print("error: trajectory shapes differ", file=sys.stderr)
            return 1
        basis = analysis.spectral_basis(analysis.graph_laplacian(mesh))
        frame = min(args.frame, traj_a.n_frames - 1)
        err = traj_a.fields[frame] - traj_b.fields[frame]
        spectrum = analysis.gft_spectrum(basis, err)
        os.makedirs(args.out, exist_ok=True)
        analysis.write_spectrum_csv(os.path.join(args.out, "spectrum.csv"), basis, spectrum)
        print(f"wrote spectrum.csv (frame {frame}) to {args.out}")
        return 0
    if args.mode == "curve":
        merged = analysis.convergence_curve(
            training.EvalReport.read_csv(args.eval).rows,
            training.EvalReport.read_csv(args.baseline).rows,
        )
        os.makedirs(args.out, exist_ok=True)
        analysis.write_curve_csv(os.path.join(args.out, "curve.csv"), merged)
        print(f"wrote curve.csv to {args.out}")
        return 0
    print(f"error: unknown analyze mode {args.mode}", file=sys.stderr)
    return 1


def cmd_bench(args):
    cfg = resolve_config(args)
    resolutions = (
        _resolution_list(args.resolutions, "--resolutions")
        if args.resolutions
        else [8e-3, 5e-3, 3.5e-3]
    )
    params = ModelParams(
        cfg["processor"], 1, cfg["latent_size"], cfg["hidden_size"], cfg["seed"]
    )
    coarse = dataset.coarse_mesh(dataset.TEST_DOMAIN, cfg["seed"], cfg["coarse_edge_min"])
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for res in resolutions:
        fine = dataset.generate_mesh(dataset.TEST_DOMAIN, res, seed=cfg["seed"])
        row = analysis.timing_benchmark(params, fine, coarse)
        row["edge_min"] = res
        rows.append(row)
    analysis.write_timing_csv(os.path.join(args.out, "timing.csv"), rows)
    print(f"wrote timing.csv for {len(rows)} resolutions to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meshpass",
        description="Two-level message-passing simulator toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config")
    settings.add_argument("--set", action="append", metavar="KEY=VALUE")

    def add_key_flags(p, *flags):
        for flag in flags:
            key, options = KEY_FLAGS[flag]
            _, typ, text = CONFIG_DEFAULTS[key]
            p.add_argument(flag, dest=key, type=typ, help=text, **options)

    p = sub.add_parser("gen", parents=[settings], help="generate a dataset of scenarios")
    p.add_argument("--out", required=True)
    add_key_flags(p, "--scenarios", "--seed", "--labels", "--refine")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[settings], help="train a model on a generated dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    add_key_flags(p, "--processor", "--steps", "--seed")
    p.add_argument("--resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[settings],
                       help="evaluate a checkpoint or the classical solver")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--solver", action="store_true")
    add_key_flags(p, "--seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="spectra and convergence curves")
    p.add_argument("--mode", choices=("spectrum", "curve"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mesh")
    p.add_argument("--traj")
    p.add_argument("--ref")
    p.add_argument("--frame", type=int, default=1)
    p.add_argument("--eval")
    p.add_argument("--baseline")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", parents=[settings],
                       help="wall-time per step kind across resolutions")
    p.add_argument("--out", required=True)
    add_key_flags(p, "--processor")
    p.add_argument("--resolutions")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
