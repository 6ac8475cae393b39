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
from .bev import pillarize
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, load_config
from .dataset import MIN_VALID_CELLS, build_samples, label_runs, simulate_run, split_samples
from .evaluation import export_costmap, import_costmap, predict, run_ablation_suite
from .heightfield import _require_inside, build_terrain
from .labeling import label_grids_for, match_imu
from .simulate import _drive_legs
from .train import fit
from .types import FormatError


def _run_dirs(cfg):
    runs = sorted(p for p in cfg.data_dir.glob("run_*") if p.is_dir())
    if not runs:
        raise FileNotFoundError(f"no simulation runs under {cfg.data_dir}; run 'simulate' first")
    return runs


def cmd_simulate(cfg) -> int:
    hf = build_terrain(cfg.terrain, cfg.seed)
    for i, wp in enumerate(cfg.trajectories):  # every path, before any run is written
        try:
            _drive_legs(hf, wp, cfg.sim.speed * cfg.sim.dt)
        except ValueError as e:
            raise ConfigError(f"sim.trajectories[{i}]: {e}") from e
    n_clouds = 0
    n_images = 0
    for r, waypoints in enumerate(cfg.trajectories):
        traj, imu, clouds, images = simulate_run(hf, waypoints, cfg.sim, cfg.seed, r)
        mio.write_run_dir(cfg.data_dir / f"run_{r:03d}", traj, imu, clouds, images)
        n_clouds += len(clouds)
        n_images += len(images)
        hits = sum(len(c) for c in clouds.values())
        rays = len(clouds) * cfg.sim.lidar_rays
        print(f"run_{r:03d}: {len(traj)} poses, {len(clouds)} clouds ({hits} of {rays} LiDAR rays "
              f"hit, {100.0 * hits / max(rays, 1):.1f} %), {len(images)} images")
    print(f"simulated {len(cfg.trajectories)} runs -> {cfg.data_dir} "
          f"({n_clouds} clouds, {n_images} images)")
    return 0


def cmd_label(cfg) -> int:
    runs = _run_dirs(cfg)
    drives = [
        (mio.read_trajectory_csv(d / "trajectory.csv"), mio.read_imu_csv(d / "imu.csv"))
        for d in runs
    ]
    hf = build_terrain(cfg.terrain, cfg.seed)
    for run_dir, (traj, imu) in zip(runs, drives):  # the label grids are sized by the poses
        try:
            _require_inside(hf, traj.positions[:, 0], traj.positions[:, 1], "pose")
            label_grids_for(traj, cfg.labeling)
        except ValueError as e:
            raise FormatError(f"{run_dir / 'trajectory.csv'}: {e}") from e
        try:
            match_imu(traj, imu)
        except ValueError as e:
            raise FormatError(f"{run_dir / 'imu.csv'}: {e}") from e
    sparse, norm = label_runs(drives, cfg.labeling)
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
    """Every run's samples; prints how many of the sensed frames they are."""
    runs = _run_dirs(cfg)
    samples = []
    n_frames = 0
    for run_dir in runs:
        label_path = cfg.labels_dir / f"{run_dir.name}.pgm"
        if not label_path.exists():
            raise FileNotFoundError(f"missing label raster {label_path}")
        labels = mio.read_costmap_pgm(label_path)
        traj, clouds, images = mio.read_run_dir(run_dir)
        n_frames += len(clouds)  # read_run_dir gives every frame its cloud and its image
        samples.extend(build_samples(traj, labels, clouds, images, cfg.layout))
    print(f"samples: {len(samples)} of {n_frames} sensed frames kept "
          f"({n_frames - len(samples)} under min_valid_cells={MIN_VALID_CELLS})")
    if not samples:
        raise RuntimeError("no usable samples (label coverage too sparse for the BEV windows)")
    return samples


def _split(cfg):
    """(train, held-out) samples."""
    return split_samples(_load_samples(cfg), cfg.holdout_fraction, cfg.seed)


def cmd_train(cfg) -> int:
    train_set, _ = _split(cfg)
    if not train_set:
        raise RuntimeError("training split is empty")
    params, history = fit(train_set, cfg.train, cfg.net)
    save_checkpoint(params, cfg.checkpoint_path)
    table = np.array([(r.step, r.huber, r.smooth, r.total, r.grad_norm) for r in history])
    mio._write_table(cfg.train_log_path, "step,huber,smooth,total,grad_norm", table.reshape(-1, 5))
    last = history[-1].total if history else float("nan")
    print(f"trained on {len(train_set)} samples for {len(history)} steps "
          f"(final loss {last:.5f}) -> {cfg.checkpoint_path}")
    return 0


def _model_and_heldout(cfg):
    """The trained checkpoint and the held-out samples it is evaluated on.

    An empty held-out split falls back to every sample (the whole training
    split, in order), and a note on stderr says so.
    """
    if not cfg.checkpoint_path.exists():
        raise FileNotFoundError(f"missing checkpoint {cfg.checkpoint_path}; run 'train' first")
    params = load_checkpoint(cfg.checkpoint_path)
    train_set, heldout = _split(cfg)
    if not heldout:
        print(f"note: the held-out split is empty; scoring all {len(train_set)} samples, "
              "which include the training split", file=sys.stderr)
        heldout = train_set
    return params, heldout


def cmd_eval(cfg) -> int:
    params, heldout = _model_and_heldout(cfg)
    report = run_ablation_suite(params, heldout, [cfg.baseline])
    mio.atomic_write_text(cfg.report_dir / "eval.csv", report.to_csv_text())
    first = heldout[0]
    pred = predict(params, first)
    export_costmap(pred, cfg.report_dir / "prediction_0.pgm", "pgm")
    export_costmap(pred, cfg.report_dir / "prediction_0.csv", "csv")
    export_costmap(first.target, cfg.report_dir / "target_0.pgm", "pgm")
    print(report.format_table())
    cap = params.config.max_points_per_pillar
    # the evaluation above already built these pillars; they are memoised per cloud
    pts = [pillarize(s.cloud, s.target.grid, cap) for s in heldout]
    print(f"held-out points: {sum(pt.n_kept for pt in pts)} kept, "
          f"{sum(pt.n_outside for pt in pts)} outside the grid, "
          f"{sum(pt.n_dropped for pt in pts)} over the cap of {cap} per pillar")
    print(f"evaluated {len(heldout)} held-out samples -> {cfg.report_dir / 'eval.csv'}")
    return 0


def cmd_ablate(cfg) -> int:
    params, heldout = _model_and_heldout(cfg)
    report = run_ablation_suite(params, heldout, cfg.ablations)
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
    out_path = cfg.report_dir / (Path(map_path).stem + "." + fmt)
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
