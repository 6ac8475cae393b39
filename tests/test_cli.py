import hashlib
import json
import re
import tracemalloc
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from marscost import cli
from marscost import io as mio
from marscost.checkpoint import load_checkpoint, save_checkpoint
from marscost.cli import main
from marscost.config import RunConfig, load_config, validate_config
from marscost.dataset import (
    MIN_VALID_CELLS, BevLayout, SimConfig, build_samples, label_runs, simulate_run,
)
from marscost.evaluation import ABLATION_MODES, AblationSpec, run_ablation_suite
from marscost.heightfield import TerrainConfig, build_terrain
from marscost.io import COSTMAP_MAXVAL, read_run_dir
from marscost.labeling import LabelingConfig
from marscost.net import NetConfig, init_params
from marscost.train import AugmentConfig, TrainConfig
from marscost.types import DenseCostmap, GridSpec, ImuLog, Trajectory

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"


def _tiny_config(tmp_path, **overrides):
    cfg = json.loads(TINY.read_text())
    cfg["workdir"] = str(tmp_path / "run")
    # shrink further for test speed
    cfg["sim"]["trajectories"] = [[[2.0, 2.0], [7.2, 7.4]]]
    cfg["sim"]["sensor_stride"] = 18
    cfg["sim"]["lidar_rays"] = 250
    cfg["train"]["epochs"] = 2
    for key, val in overrides.items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["workdir"])


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_full_pipeline_end_to_end(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    run0 = workdir / "data" / "run_000"
    assert (run0 / "trajectory.csv").exists()
    assert (run0 / "imu.csv").exists()
    assert list(run0.glob("cloud_*.csv"))
    assert list(run0.glob("image_*.ppm"))

    assert main(["label", "--config", str(cfg)]) == 0
    assert (workdir / "labels" / "run_000.pgm").exists()
    assert (workdir / "labels" / "run_000.sparse.csv").exists()
    assert (workdir / "labels" / "normalization.json").exists()

    assert main(["train", "--config", str(cfg)]) == 0
    assert (workdir / "model.ckpt").exists()
    log = (workdir / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,huber,smooth,total,grad_norm"
    assert len(log) > 1

    assert main(["eval", "--config", str(cfg)]) == 0
    assert (workdir / "report" / "eval.csv").exists()
    assert (workdir / "report" / "prediction_0.pgm").exists()
    assert _held_out_point_line(cfg) in capsys.readouterr().out.splitlines()

    assert main(["ablate", "--config", str(cfg)]) == 0
    report = (workdir / "report" / "ablation.csv").read_text().splitlines()
    assert report[0] == "mode,mae,mse,n"
    assert len(report) == 7  # six modes

    assert main(["export", "--config", str(cfg), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "ablation report" in out
    assert not list(workdir.rglob("*.tmp"))


def _held_out_point_line(cfg_path) -> str:
    """The counter line ``eval`` should print, counted here by brute force per cell."""
    cfg = load_config(cfg_path)
    cap = cfg.net.max_points_per_pillar
    kept = outside = dropped = 0
    for sample in cli._split(cfg)[1]:
        grid = sample.target.grid
        xy = sample.cloud.xyz[:, :2]
        i, j = grid.cell_of(xy[:, 0], xy[:, 1])
        inside = (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
        outside += int(np.count_nonzero(~inside))
        _, per_cell = np.unique(i[inside] * grid.cols + j[inside], return_counts=True)
        kept += int(np.minimum(per_cell, cap).sum())
        dropped += int(np.maximum(per_cell - cap, 0).sum())
    assert kept > 0
    return (f"held-out points: {kept} kept, {outside} outside the grid, "
            f"{dropped} over the cap of {cap} per pillar")


def _sample_count_line(workdir, layout) -> str:
    """The samples line train, eval and ablate should print, counted frame by frame and
    cell by cell from the files on disk."""
    kept = frames = 0
    for run in sorted((workdir / "data").glob("run_*")):
        labels = mio.read_costmap_pgm(workdir / "labels" / f"{run.name}.pgm")
        traj = mio.read_trajectory_csv(run / "trajectory.csv")
        # BEV cell (a, b) takes the label cell holding its centre; the window's
        # corner sits on the label lattice nearest to half a window below the pose
        step = round(layout.resolution / labels.grid.resolution)
        half = layout.size * layout.resolution / 2.0
        for cloud in run.glob("cloud_*.csv"):
            k = int(cloud.stem.split("_")[1])
            frames += 1
            corner = [round((traj.positions[k, axis] - half - labels.grid.origin[axis])
                            / labels.grid.resolution) for axis in (0, 1)]
            n_valid = 0
            for a in range(layout.size):
                for b in range(layout.size):
                    i = corner[1] + a * step + step // 2
                    j = corner[0] + b * step + step // 2
                    inside = 0 <= i < labels.grid.rows and 0 <= j < labels.grid.cols
                    n_valid += bool(inside and labels.valid[i, j])
            kept += n_valid >= MIN_VALID_CELLS
    return (f"samples: {kept} of {frames} sensed frames kept "
            f"({frames - kept} under min_valid_cells={MIN_VALID_CELLS})")


def test_train_eval_ablate_report_the_kept_samples(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    # drop every label above y = 3 m, so some windows keep too few labeled cells
    label_path = workdir / "labels" / "run_000.pgm"
    labels = mio.read_costmap_pgm(label_path)
    row_y = labels.grid.origin[1] + (np.arange(labels.grid.rows) + 0.5) * labels.grid.resolution
    valid = labels.valid & (row_y <= 3.0)[:, None]
    mio.write_costmap_pgm(DenseCostmap(labels.grid, np.where(valid, labels.values, 0.0), valid),
                          label_path)
    # and a frame lost whole, cloud and image, is no sensed frame
    (workdir / "data" / "run_000" / "cloud_72.csv").unlink()
    (workdir / "data" / "run_000" / "image_72.ppm").unlink()
    expected = _sample_count_line(workdir, load_config(cfg).layout)
    assert expected.startswith("samples: 3 of 4 ")  # the damage skips some frames, not all
    capsys.readouterr()
    for command in ("train", "eval", "ablate"):
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected


def test_simulate_prints_lidar_hit_rate(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    _, clouds, images = read_run_dir(workdir / "data" / "run_000")
    hits = sum(len(c) for c in clouds.values())
    rays = 250 * len(clouds)
    assert 0 < hits < rays
    assert line.endswith(
        f" poses, {len(clouds)} clouds ({hits} of {rays} LiDAR rays hit, "
        f"{100.0 * hits / rays:.1f} %), {len(images)} images"
    )


def test_simulate_deterministic_bytes(tmp_path):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    first = _tree_bytes(workdir / "data")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert _tree_bytes(workdir / "data") == first
    # a different seed changes the artifacts
    assert main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "alt")]) == 0
    assert _tree_bytes(tmp_path / "alt" / "data") != first


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = json.loads(TINY.read_text())
    del cfg["sim"]["trajectories"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "sim.trajectories" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = json.loads(TINY.read_text())
    cfg["sim"]["warp_drive"] = True
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(cfg))
    assert main(["label", "--config", str(path)]) == 2
    assert "warp_drive" in capsys.readouterr().err


def test_ablate_without_checkpoint_exits_2(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    assert main(["ablate", "--config", str(cfg)]) == 2
    assert "model.ckpt" in capsys.readouterr().err


def test_label_without_runs_exits_2(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["label", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: no simulation runs under {workdir / 'data'}; "
                                       "run 'simulate' first\n")


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_every_stage_without_runs_exits_2_with_one_message(tmp_path, capsys, command):
    """The stages after ``label`` stop with the message ``label`` gives."""
    cfg, workdir = _tiny_config(tmp_path)
    if command != "train":  # past the checkpoint check, to the run lookup
        save_checkpoint(init_params(NetConfig(1, 1, 1, 1, 1, 1), seed=0), workdir / "model.ckpt")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: no simulation runs under {workdir / 'data'}; "
                                       "run 'simulate' first\n")


def test_train_on_an_empty_split_exits_2(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path, **{"train.holdout_fraction": 0.99})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: training split is empty\n"
    assert not (workdir / "model.ckpt").exists()


@pytest.mark.parametrize("holdout", [0.0, None])  # None: the config's default split
def test_eval_and_ablate_say_when_they_score_training_samples(tmp_path, capsys, holdout):
    overrides = {} if holdout is None else {"train.holdout_fraction": holdout}
    cfg, workdir = _tiny_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    loaded = load_config(cfg)
    train_set, heldout = cli._split(loaded)
    assert bool(heldout) == (holdout is None)
    note = ("" if heldout else f"note: the held-out split is empty; scoring all {len(train_set)} "
            "samples, which include the training split\n")
    for command in ("eval", "ablate"):
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == note
    # the note changes no file: the reports score the held-out samples, else every sample
    params = load_checkpoint(workdir / "model.ckpt")
    scored = heldout or train_set
    report = workdir / "report"
    suite = run_ablation_suite(params, scored, [loaded.baseline])
    assert (report / "eval.csv").read_text() == suite.to_csv_text()
    suite = run_ablation_suite(params, scored, loaded.ablations)
    assert (report / "ablation.csv").read_text() == suite.to_csv_text()


def test_label_header_only_trajectory_exits_2(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    run0 = workdir / "data" / "run_000"
    run0.mkdir(parents=True)
    (run0 / "trajectory.csv").write_text("t,x,y,z,qw,qx,qy,qz\n")
    assert main(["label", "--config", str(cfg)]) == 2
    assert "trajectory.csv" in capsys.readouterr().err


def test_label_pose_off_the_terrain_exits_2_before_any_grid(tmp_path, capsys):
    """A finite pose far off the terrain would size label grids of terabytes."""
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    path = workdir / "data" / "run_000" / "trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1 + 5].split(",")  # pose 5, under the header row
    lines[1 + 5] = ",".join([fields[0], "1e9", *fields[2:]])
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["label", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: pose 5 at (1000000000.0, ")
    assert "outside the terrain extent" in err and err.count("\n") == 1
    assert not (workdir / "labels").exists()


def test_label_imu_out_of_step_exits_2_naming_the_imu_file(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    path = workdir / "data" / "run_000" / "imu.csv"
    imu = mio.read_imu_csv(path)
    mio.write_imu_csv(ImuLog(imu.times + 0.07, imu.accel, imu.gyro), path)
    capsys.readouterr()
    assert main(["label", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: pose 0: IMU reading at t=0.07, pose at t=0.0\n")
    assert not (workdir / "labels").exists()


def test_label_trajectory_cut_by_a_row_exits_2_naming_the_pose_count(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    run0 = workdir / "data" / "run_000"
    path = run0 / "trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    n = len(lines) - 1  # poses written, under the header row
    capsys.readouterr()
    assert main(["label", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {run0 / 'imu.csv'}: {n} IMU readings for a "
                                       f"trajectory of {n - 1} poses (one reading per pose)\n")
    assert not (workdir / "labels").exists()


def test_label_grid_past_the_cell_bound_exits_2_without_sizing_it(tmp_path, capsys):
    """A 2 x 2 heightmap of 10 km cells admits poses 14 km apart, whose 0.1 m
    label grid would take 75 GiB a raster."""
    pgm = tmp_path / "terrain.pgm"
    pgm.write_text("P2\n2 2\n255\n0 1\n2 3\n")
    (tmp_path / "terrain.meta.json").write_text(
        json.dumps({"min_height_m": 0.0, "max_height_m": 1.0, "cell_size_m": 1e4})
    )
    cfg, workdir = _tiny_config(tmp_path, **{"sim.terrain.heightmap_path": str(pgm)})
    run0 = workdir / "data" / "run_000"
    t = np.array([0.0, 1.0])
    traj = Trajectory(t, [(1.0, 1.0, 0.0), (9999.0, 9999.0, 0.0)], np.tile([1.0, 0, 0, 0], (2, 1)))
    mio.write_trajectory_csv(traj, run0 / "trajectory.csv")
    mio.write_imu_csv(ImuLog(t, np.zeros((2, 3)), np.zeros((2, 3))), run0 / "imu.csv")
    tracemalloc.start()
    try:
        assert main(["label", "--config", str(cfg)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert capsys.readouterr().err == (f"error: {run0 / 'trajectory.csv'}: the poses span a "
                                       "50000 x 50000 label grid at 0.2 m, more than 4194304 cells\n")
    assert not (workdir / "labels").exists()


def test_export_bad_costmap_csv_exits_2(tmp_path, capsys):
    cfg, _ = _tiny_config(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("# grid origin_x=0 origin_y=0 resolution=1 rows=2 cols=2\n"
                   "i,j,value,valid\n5,0,1,1\n")
    assert main(["export", "--config", str(cfg), "--map", str(bad)]) == 2
    assert "bad.csv:3" in capsys.readouterr().err


def test_export_costmap_csv_with_two_rows_swapped_exits_2(tmp_path, capsys):
    cfg, _ = _tiny_config(tmp_path)
    path = tmp_path / "swapped.csv"
    grid = GridSpec((0.0, 0.0), 0.5, 2, 3)
    mio.write_costmap_csv(DenseCostmap(grid, np.arange(6.0).reshape(2, 3)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[4], lines[6] = lines[6], lines[4]  # cells (0, 2) and (1, 1)
    path.write_text("".join(lines))
    assert main(["export", "--config", str(cfg), "--map", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}:5: expected cell (0, 2) of the 2x3 grid "
                                       "in row-major order, found (1, 1)\n")


def test_train_shift_that_empties_the_window_exits_2_naming_the_knob(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path, **{"train.augment.max_shift_cells": 30})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: a shift of \(-?\d+, -?\d+\) cells leaves no labelled cell in "
                        r"the 24x24-cell window; lower train\.augment\.max_shift_cells "
                        r"\(now 30\)\n", err), err
    assert not (workdir / "model.ckpt").exists()


def test_export_costmap_csv_declaring_a_huge_grid_exits_2(tmp_path, capsys):
    cfg, _ = _tiny_config(tmp_path)
    huge = tmp_path / "huge.csv"
    huge.write_text("# grid origin_x=0 origin_y=0 resolution=1 rows=10000000 cols=10000000\n"
                    "i,j,value,valid\n0,0,1,1\n")
    assert main(["export", "--config", str(cfg), "--map", str(huge), "--format", "pgm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {huge}:3: table ends after 1 of 100000000000000 cells")
    assert err.count("\n") == 1


def test_export_costmap_csv_with_a_digit_separator_in_its_header_exits_2(tmp_path, capsys):
    cfg, _ = _tiny_config(tmp_path)
    bad = tmp_path / "sep.csv"
    rows = "".join(f"{i},0,1,1\n" for i in range(10))
    bad.write_text("# grid origin_x=0 origin_y=0 resolution=0_5 rows=1_0 cols=1\n"
                   "i,j,value,valid\n" + rows)
    assert main(["export", "--config", str(cfg), "--map", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:1: '_' is not part of a number\n"


@pytest.mark.parametrize("damage", [lambda b: b[:-5], lambda b: b + b"\x00",
                                    lambda b: b"MCCKPT\x01\x00" + b[8:], lambda b: b[:20],
                                    lambda b: b[:8] + bytes(4) + b[12:]],
                         ids=["truncated", "padded", "version_1", "short_header", "zero_width"])
def test_eval_damaged_checkpoint_exits_2(tmp_path, capsys, damage):
    cfg, workdir = _tiny_config(tmp_path)
    workdir.mkdir(parents=True)
    ckpt = workdir / "model.ckpt"
    save_checkpoint(init_params(NetConfig(1, 1, 1, 1, 1, 1), seed=0), ckpt)
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "model.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_train_non_finite_config_literal_exits_2(tmp_path, capsys, literal):
    cfg, workdir = _tiny_config(tmp_path, **{"train.lr": 0.125})
    cfg.write_text(cfg.read_text().replace("0.125", literal))
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"config file {cfg} holds the non-finite number {literal}" in capsys.readouterr().err
    assert not workdir.exists()


def test_overflowing_config_number_exits_2(tmp_path, capsys):
    for literal in ("1e999", "1" + "0" * 400):  # parses as inf; an int that no float holds
        cfg, _ = _tiny_config(tmp_path, **{"sim.lidar_max_range": 0.125})
        cfg.write_text(cfg.read_text().replace("0.125", literal))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "'sim.lidar_max_range' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("sim.sensor_stride", 0, "sensor_stride must be positive"),
    ("sim.dt", -0.1, "dt must be positive"),
    ("sim.camera_w_px", 0, "camera_w_px must be positive"),
    ("sim.imu_noise_scale", -1.0, "imu_noise_scale must be nonnegative"),
    ("sim.chassis_height", -1.0, "sim section: chassis_height must be positive"),
    ("sim.gravity", 0.0, "sim section: gravity must be positive"),
    ("sim.gravity", -9.81, "sim section: gravity must be positive"),
    ("sim.terrain.roughness", 5.0, "sim.terrain section: roughness must lie in [0, 1]"),
    ("sim.terrain.rows", 1, "sim.terrain section: rows and cols must be at least 2"),
    ("sim.terrain.rows", 5462, "sim.terrain section: a 5462x48 grid has more than 262144 nodes"),
    ("sim.terrain.cell_size", -0.2, "sim.terrain section: cell_size must be positive"),
    ("train.holdout_fraction", 1.5, "train.holdout_fraction: holdout_fraction must lie in"),
    ("train.augment.max_shift_cells", -1, "train section: max_shift_cells must be nonnegative"),
])
def test_simulate_rejects_out_of_range_values_before_any_work(tmp_path, capsys, key, value, message):
    cfg, workdir = _tiny_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not workdir.exists()


def _tiny_heightmap(tmp_path):
    """A 3 x 3 node heightmap with 0.5 m cells: extent x [0, 1], y [0, 1]."""
    pgm = tmp_path / "terrain.pgm"
    pgm.write_text("P2\n3 3\n255\n0 1 2\n3 4 5\n6 7 8\n")
    (tmp_path / "terrain.meta.json").write_text(
        json.dumps({"min_height_m": 0.0, "max_height_m": 1.0, "cell_size_m": 0.5})
    )
    return str(pgm)


@pytest.mark.parametrize("terrain, paths, message", [
    ("generated", [[[2.0, 2.0], [7.2, 7.4]], [[2.0, 7.2], [17.4, 2.2]]],
     "sim.trajectories[1]: waypoint 1 at (17.4, 2.2) is outside the terrain extent "
     "x [0.0, 9.4], y [0.0, 9.4]"),
    ("heightmap", [[[0.2, 0.2], [0.8, 0.8]], [[0.2, 0.2], [0.6, 0.9], [0.5, -0.25]]],
     "sim.trajectories[1]: waypoint 2 at (0.5, -0.25) is outside the terrain extent "
     "x [0.0, 1.0], y [0.0, 1.0]"),
    ("generated", [[[2.0, 2.0], [7.2, 7.4]], [[3.0, 3.0], [3.0, 3.0]]],
     "sim.trajectories[1]: waypoint 1 at (3.0, 3.0) repeats waypoint 0"),
    ("generated", [[[2.0, 2.0], [7.2, 7.4]], [[2.0, 2.0], [2.05, 2.0]]],
     "sim.trajectories[1]: the path is 0.04999999999999982 m long, shorter than one pose "
     "step of 0.1 m (speed * dt), and a trajectory needs at least 2 poses"),
])
def test_simulate_rejects_waypoints_off_the_terrain_before_writing_any_run(
        tmp_path, capsys, terrain, paths, message):
    overrides = {"sim.trajectories": paths}
    if terrain == "heightmap":
        overrides["sim.terrain.heightmap_path"] = _tiny_heightmap(tmp_path)
    cfg, workdir = _tiny_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (workdir / "data").exists()


def test_label_rejects_out_of_range_terrain_before_any_work(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    _tiny_config(tmp_path, **{"sim.terrain.roughness": 5.0})  # rewrites the same config file
    assert main(["label", "--config", str(cfg)]) == 2
    assert "sim.terrain section: roughness must lie in [0, 1]" in capsys.readouterr().err
    assert (workdir / "data").exists() and not (workdir / "labels").exists()


def test_eval_non_finite_checkpoint_exits_2(tmp_path, capsys):
    cfg, workdir = _tiny_config(tmp_path)
    workdir.mkdir(parents=True)
    ckpt = workdir / "model.ckpt"
    params = init_params(NetConfig(1, 1, 1, 1, 1, 1), seed=0)
    save_checkpoint(params.like(np.full_like(params.theta, np.nan)), ckpt)
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "non-finite" in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_simulate_from_imported_heightmap(tmp_path):
    # a raster heightmap plus sidecar drives the terrain instead of noise
    rng = np.random.default_rng(0)
    pgm = tmp_path / "terrain.pgm"
    rows = rng.integers(0, 255, (48, 48))
    lines = ["P2", "48 48", "255"] + [" ".join(str(v) for v in r) for r in rows]
    pgm.write_text("\n".join(lines) + "\n")
    (tmp_path / "terrain.meta.json").write_text(
        json.dumps({"min_height_m": 0.0, "max_height_m": 0.6, "cell_size_m": 0.2})
    )
    cfg, workdir = _tiny_config(tmp_path, **{"sim.terrain.heightmap_path": str(pgm)})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (workdir / "data" / "run_000" / "trajectory.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "marscost" in capsys.readouterr().out


def test_reports_reproducible(tmp_path):
    cfg, workdir = _tiny_config(tmp_path)
    for cmd in ("simulate", "label", "train", "ablate"):
        assert main([cmd, "--config", str(cfg)]) == 0
    first = (workdir / "report" / "ablation.csv").read_bytes()
    assert main(["ablate", "--config", str(cfg)]) == 0
    assert (workdir / "report" / "ablation.csv").read_bytes() == first


def test_cli_dataset_matches_in_memory_stages(tmp_path):
    # the on-disk pipeline differs from the in-memory stages only by storage quantization
    cfg_path, _ = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["label", "--config", str(cfg_path)]) == 0
    cfg = load_config(cfg_path)
    on_disk = cli._load_samples(cfg)

    hf = build_terrain(cfg.terrain, cfg.seed)
    drives = [
        simulate_run(hf, waypoints, cfg.sim, *cli._run_seeds(cfg.seed, r))
        for r, waypoints in enumerate(cfg.trajectories)
    ]
    _, norm = label_runs(drives, cfg.labeling)
    in_memory = []
    spans = []
    for (traj, _, clouds, images), labels in zip(drives, norm.maps):
        run = build_samples(traj, labels, clouds, images, cfg.layout)
        in_memory.extend(run)
        vals = labels.values[labels.valid]
        spans.extend([vals.max() - vals.min()] * len(run))

    assert len(on_disk) == len(in_memory) > 0
    for disk, mem, span in zip(on_disk, in_memory, spans):
        assert np.array_equal(disk.cloud.xyz, mem.cloud.xyz)
        assert np.array_equal(disk.cloud.rgb, mem.cloud.rgb)
        assert np.max(np.abs(disk.image.pixels - mem.image.pixels)) <= 0.5 / 255 + 1e-12
        assert np.array_equal(disk.target.valid, mem.target.valid)
        err = np.abs(disk.target.values - mem.target.values)[mem.target.valid]
        assert np.max(err) <= 0.5 * span / COSTMAP_MAXVAL + 1e-12


def test_config_defaults_are_dataclass_defaults():
    cfg = validate_config({"sim": {"trajectories": [[[2.0, 2.0], [7.0, 7.0]]]}})
    assert cfg.terrain == TerrainConfig()
    assert cfg.sim == SimConfig()
    assert cfg.labeling == LabelingConfig()
    assert cfg.net == NetConfig()
    assert cfg.layout == BevLayout()
    assert cfg.train == TrainConfig()
    assert cfg.baseline == AblationSpec("baseline")
    assert cfg.ablations == tuple(AblationSpec(mode) for mode in ABLATION_MODES)


def _readme_config_keys() -> list:
    """Dotted keys of the README's config table; ``a`` (``b``, ``c``) lists a.b and a.c."""
    text = (TINY.parent.parent / "README.md").read_text()
    table = re.search(r"^\| section +\| keys \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, flags=re.M)
    keys = []
    for row in table.group(1).splitlines():
        section, cell = (c.strip() for c in row.strip("|").split("|"))
        path = [] if section == "top level" else [section.strip("`")]
        last = None
        for name, paren in re.findall(r"`(\w+)`|([()])", cell):
            if name:
                keys.append(".".join(path + [name]))
                last = name
            elif paren == "(":
                path.append(last)
            else:
                path.pop()
    return [k for k in keys if not any(other.startswith(k + ".") for other in keys)]


# each section dataclass under its key prefix (a library default instance of it), and the
# config keys that no dataclass field reads, with their defaults
_SECTION_DEFAULTS = {
    "sim.terrain.": TerrainConfig(), "sim.": SimConfig(), "labeling.": LabelingConfig(),
    "model.bev_": BevLayout(), "model.": NetConfig(), "train.augment.": AugmentConfig(),
    "train.": TrainConfig(), "eval.": AblationSpec("baseline"),
}
_LOOSE_DEFAULTS = {"seed": 7, "workdir": "runs/default", "train.holdout_fraction": 0.25,
                   "eval.modes": list(ABLATION_MODES),
                   "sim.trajectories": [[[2.0, 2.0], [7.0, 7.0]]]}  # required: no default


def _default_of(key: str):
    if key in _LOOSE_DEFAULTS:
        return _LOOSE_DEFAULTS[key]
    prefix, section = next((p, obj) for p, obj in _SECTION_DEFAULTS.items() if key.startswith(p))
    return getattr(section, key[len(prefix):])


def test_readme_config_table_lists_exactly_the_schema_keys():
    readme = _readme_config_keys()
    assert len(readme) == len(set(readme))
    # a dataclass field with a plain default is a key; a nested dataclass is a subsection,
    # and AblationSpec.mode (no default) is given per mode
    fielded = [prefix + f.name for prefix, section in _SECTION_DEFAULTS.items()
               for f in fields(section) if f.default is not MISSING]
    assert sorted(readme) == sorted(fielded + list(_LOOSE_DEFAULTS))
    assert len(readme) == 50

    # every key set to its default builds what a config giving only the trajectories builds
    data = {}
    for key in readme:
        *path, leaf = key.split(".")
        node = data
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = _default_of(key)
    full = validate_config(data)
    bare = validate_config({"sim": {"trajectories": _LOOSE_DEFAULTS["sim.trajectories"]}})
    for f in fields(RunConfig):
        if f.name != "trajectories":
            assert getattr(full, f.name) == getattr(bare, f.name), f.name
    assert [w.tolist() for w in full.trajectories] == [w.tolist() for w in bare.trajectories]


@pytest.mark.parametrize("section", ["sim", "sim.terrain", "train.augment"])
def test_a_section_that_is_no_object_exits_2_naming_it(tmp_path, capsys, section):
    cfg, workdir = _tiny_config(tmp_path, **{section: 3})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config section {section} must be an object\n"
    assert not workdir.exists()


@pytest.mark.parametrize("waypoint, shown", [
    ([7.2, "x"], '[7.2, "x"]'), ([7.2, None], "[7.2, null]"), ([True, 7.4], "[true, 7.4]"),
])
def test_a_waypoint_that_is_not_two_finite_numbers_exits_2_naming_it(
        tmp_path, capsys, waypoint, shown):
    cfg, workdir = _tiny_config(tmp_path, **{"sim.trajectories": [[[2.0, 2.0], [7.2, 7.4]],
                                                                  [[2.0, 2.0], waypoint]]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("error: sim.trajectories[1]: waypoint 1 must be two finite "
                                       f"numbers [x, y], not {shown}\n")
    assert not workdir.exists()


def test_heightmap_cell_size_comes_from_its_sidecar(tmp_path):
    pgm = tmp_path / "terrain.pgm"
    pgm.write_text("P2\n3 3\n255\n0 1 2\n3 4 5\n6 7 8\n")
    (tmp_path / "terrain.meta.json").write_text(
        json.dumps({"min_height_m": 0.0, "max_height_m": 1.0, "cell_size_m": 0.5})
    )
    cfg = validate_config({"sim": {"terrain": {"heightmap_path": str(pgm)},
                                   "trajectories": [[[0.2, 0.2], [0.8, 0.8]]]}})
    assert build_terrain(cfg.terrain, cfg.seed).cell_size == 0.5


# sha256 of every file that simulate and label write for _tiny_config
GOLDEN_SIMULATE_LABEL = {
    "data/run_000/cloud_0.csv": "3f21c48a350ad1a3bc745f79c3fce375254d7634cc0db66b32d11b45ee50bb72",
    "data/run_000/cloud_18.csv": "774a37a2fe67be86712c49f4ee3a3d430dcc38d29ca41d0a257607a362d85a6e",
    "data/run_000/cloud_36.csv": "40ee29a15ae176078119cb83078a6a2311d6be2099e39030530ac1f41e6a3a7c",
    "data/run_000/cloud_54.csv": "76c8cdbada828a544000d532b3739882c2e27b73752e84eb158522fef3266561",
    "data/run_000/cloud_72.csv": "35768974569900604254989d34966d8cfb68b5445de9b67cc4d0b992aa324498",
    "data/run_000/image_0.ppm": "c9aa83a27376af67cd058bd865e4089465fc9b763293b3669fee940cb3a51051",
    "data/run_000/image_18.ppm": "a6e0c6f4210346712b8391d74b929cf98aa4cb8948dcb450e546d82d09516bd4",
    "data/run_000/image_36.ppm": "673c6ffdb41dc4285f931c5550d6469cbac08d1d6d34cb6ba0cd3886064f414f",
    "data/run_000/image_54.ppm": "d5349cca58abf942617af122f5cde2196f9262a49283398acb3e00f3d7c3abbc",
    "data/run_000/image_72.ppm": "88093d1c7011432aa7e63a55976deedc54fb62e617833ea846438c347adb0f4a",
    "data/run_000/imu.csv": "4d4ea47af5de8dc7d2184b71a7c160e70b3a7713070fb4d60cb92ede6166eacc",
    "data/run_000/trajectory.csv": "80bd96f9b8eaf3cb39b8ac2101667cef3e3631eb3e26837244a01d8b132dce8d",
    "labels/normalization.json": "c5178f27a863dbfdafc6913388338e71aeeafaf51831c5fa62eda6ff4170dfba",
    "labels/run_000.mask.pbm": "351c9a119b2840ba7a89ca5bcc43db7268799081bb79f15e22499a0d6aa22658",
    "labels/run_000.meta.json": "1cab53d6cb942dd4cb571c376db9f86fea43d53008f6bdd78ec8a8e007f19113",
    "labels/run_000.pgm": "a2a1e8af4065e3af625f75bc81370a6f00207ebc1845f0fe275a082833d4aa69",
    "labels/run_000.sparse.csv": "c93eb5807c18cd718dbe669cdf1b6d5b0d2578ee9bd660604b2bdf785ef991af",
}


def test_simulate_and_label_golden_fingerprints(tmp_path):
    """The simulate and label stages use no BLAS, so their files are meant to be bit-stable
    on one host. A changed hash means a writer or a stage changed its output bytes; a change
    made on purpose updates this table and says so in CHANGES.md."""
    cfg, workdir = _tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    hashes = {name: hashlib.sha256(data).hexdigest() for name, data in _tree_bytes(workdir).items()}
    assert hashes == GOLDEN_SIMULATE_LABEL
