"""Command-line pipeline driver.

Usage: ``marscost {simulate|label|train|eval|ablate|export} --config cfg.json
[--seed N] [--out DIR]``. Commands are idempotent for a fixed config and
seed; all artifacts are written atomically under the configured workdir.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as mio
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, load_config
from .dataset import build_samples, label_runs, simulate_run, split_samples
from .evaluation import AblationSpec, export_costmap, import_costmap, predict, run_ablation_suite
from .heightfield import generate_heightfield, load_heightfield
from .train import fit
from .types import FormatError


def _terrain_for(cfg):
    t = cfg.sim["terrain"]
    if t["heightmap_path"]:
        return load_heightfield(t["heightmap_path"], t["cell_size"])
    return generate_heightfield(cfg.seed, t["rows"], t["cols"], t["cell_size"], t["roughness"])


def _run_seeds(seed: int, run: int):
    """IMU seed and per-pose LiDAR seed function of run ``run`` under the config seed."""

    def derive(*key):
        return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])

    return derive(1, run), lambda k: derive(2, run, k)


def _run_dirs(cfg):
    return sorted(p for p in cfg.data_dir.glob("run_*") if p.is_dir())


def cmd_simulate(cfg) -> int:
    hf = _terrain_for(cfg)
    sim = cfg.sim_config()
    paths = cfg.trajectories()
    n_clouds = 0
    n_images = 0
    for r, waypoints in enumerate(paths):
        traj, imu, clouds, images = simulate_run(hf, waypoints, sim, *_run_seeds(cfg.seed, r))
        mio.write_run_dir(cfg.data_dir / f"run_{r:03d}", traj, imu, clouds, images)
        n_clouds += len(clouds)
        n_images += len(images)
        print(f"run_{r:03d}: {len(traj)} poses, {len(clouds)} clouds, {len(images)} images")
    print(f"simulated {len(paths)} runs -> {cfg.data_dir} "
          f"({n_clouds} clouds, {n_images} images)")
    return 0


def cmd_label(cfg) -> int:
    runs = _run_dirs(cfg)
    if not runs:
        print(f"error: no simulation runs under {cfg.data_dir}; run 'simulate' first",
              file=sys.stderr)
        return 2
    drives = [
        (mio.read_trajectory_csv(d / "trajectory.csv"), mio.read_imu_csv(d / "imu.csv"))
        for d in runs
    ]
    sparse, norm = label_runs(drives, cfg.labeling_config())
    for run_dir, labels in zip(runs, sparse):
        mio.write_sparse_csv(labels.xy, labels.tc, cfg.labels_dir / f"{run_dir.name}.sparse.csv")
    for run_dir, dense in zip(runs, norm.maps):
        mio.write_costmap_pgm(dense, cfg.labels_dir / f"{run_dir.name}.pgm")
        print(f"{run_dir.name}: {int(dense.valid.sum())} labeled fine cells")
    meta = {"low": norm.low, "high": norm.high, "degenerate": norm.degenerate}
    mio.atomic_write_text(cfg.labels_dir / "normalization.json", json.dumps(meta, indent=2) + "\n")
    if norm.degenerate:
        print("warning: degenerate labels (all valid cells equal); everything mapped to 0")
    print(f"labeled {len(runs)} runs -> {cfg.labels_dir}")
    return 0


def _load_samples(cfg):
    runs = _run_dirs(cfg)
    if not runs:
        raise FileNotFoundError(f"no simulation runs under {cfg.data_dir}")
    layout = cfg.bev_layout()
    samples = []
    for run_dir in runs:
        label_path = cfg.labels_dir / f"{run_dir.name}.pgm"
        if not label_path.exists():
            raise FileNotFoundError(f"missing label raster {label_path}")
        labels = mio.read_costmap_pgm(label_path)
        traj, _, clouds, images = mio.read_run_dir(run_dir)
        samples.extend(build_samples(traj, labels, clouds, images, layout))
    if not samples:
        raise RuntimeError("no usable samples (label coverage too sparse for the BEV windows)")
    return samples


def _split(cfg):
    """(train, held-out) samples; the held-out side falls back to every sample if empty."""
    samples = _load_samples(cfg)
    train_set, heldout = split_samples(samples, cfg.raw["train"]["holdout_fraction"], cfg.seed)
    return train_set, heldout or samples


def cmd_train(cfg) -> int:
    train_set, _ = _split(cfg)
    if not train_set:
        print("error: training split is empty", file=sys.stderr)
        return 2
    params, history = fit(train_set, cfg.train_config(), cfg.net_config())
    save_checkpoint(params, cfg.checkpoint_path)
    lines = ["step,huber,smooth,total"]
    for rec in history:
        lines.append(f"{rec.step},{rec.huber:.17g},{rec.smooth:.17g},{rec.total:.17g}")
    mio.atomic_write_text(cfg.train_log_path, "\n".join(lines) + "\n")
    last = history[-1].total if history else float("nan")
    print(f"trained on {len(train_set)} samples for {len(history)} steps "
          f"(final loss {last:.5f}) -> {cfg.checkpoint_path}")
    return 0


def _model_and_heldout(cfg):
    """The trained checkpoint and the held-out samples it is evaluated on."""
    if not cfg.checkpoint_path.exists():
        raise FileNotFoundError(f"missing checkpoint {cfg.checkpoint_path}; run 'train' first")
    params = load_checkpoint(cfg.checkpoint_path)
    return params, _split(cfg)[1]


def cmd_eval(cfg) -> int:
    params, heldout = _model_and_heldout(cfg)
    report = run_ablation_suite(params, heldout, [cfg.build(AblationSpec, mode="baseline")])
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    mio.atomic_write_text(cfg.report_dir / "eval.csv", report.to_csv_text())
    first = heldout[0]
    pred = predict(params, first)
    export_costmap(pred, cfg.report_dir / "prediction_0.pgm", "pgm")
    export_costmap(pred, cfg.report_dir / "prediction_0.csv", "csv")
    export_costmap(first.target, cfg.report_dir / "target_0.pgm", "pgm")
    print(report.format_table())
    print(f"evaluated {len(heldout)} held-out samples -> {cfg.report_dir / 'eval.csv'}")
    return 0


def cmd_ablate(cfg) -> int:
    params, heldout = _model_and_heldout(cfg)
    report = run_ablation_suite(params, heldout, cfg.ablation_specs())
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    mio.atomic_write_text(cfg.report_dir / "ablation.csv", report.to_csv_text())
    print(report.format_table())
    print(f"ablation report -> {cfg.report_dir / 'ablation.csv'}")
    return 0


def cmd_export(cfg, map_path, fmt) -> int:
    if map_path is None:
        candidates = sorted(cfg.labels_dir.glob("run_*.pgm"))
        if not candidates:
            raise FileNotFoundError(f"no costmap to export under {cfg.labels_dir}")
        map_path = candidates[0]
    cmap = import_costmap(map_path)
    out_dir = cfg.report_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (Path(map_path).stem + "." + fmt)
    export_costmap(cmap, out_path, fmt)
    print(f"exported {map_path} -> {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marscost",
        description="Synthetic rover traversability pipeline: simulate, label, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"marscost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "generate terrain and record sensor runs"),
        ("label", "derive traversability-cost labels from recorded runs"),
        ("train", "fit the costmap regressor and write a checkpoint"),
        ("eval", "evaluate the checkpoint on held-out samples"),
        ("ablate", "run the input-corruption robustness suite"),
        ("export", "convert a costmap raster between pgm and csv"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config workdir")
        if name == "export":
            p.add_argument("--map", default=None, help="costmap artifact to convert")
            p.add_argument("--format", default="csv", choices=["pgm", "csv"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, workdir_override=args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "label":
            return cmd_label(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "export":
            return cmd_export(cfg, args.map, args.format)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, FormatError, FileNotFoundError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
