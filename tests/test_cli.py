import json
from pathlib import Path

import numpy as np
import pytest

from marscost import cli
from marscost.cli import main
from marscost.config import load_config, validate_config
from marscost.dataset import BevLayout, SimConfig, build_samples, label_runs, simulate_run
from marscost.evaluation import ABLATION_MODES, AblationSpec
from marscost.io import COSTMAP_MAXVAL
from marscost.labeling import LabelingConfig
from marscost.net import NetConfig
from marscost.train import TrainConfig

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
    assert log[0] == "step,huber,smooth,total"
    assert len(log) > 1

    assert main(["eval", "--config", str(cfg)]) == 0
    assert (workdir / "report" / "eval.csv").exists()
    assert (workdir / "report" / "prediction_0.pgm").exists()

    assert main(["ablate", "--config", str(cfg)]) == 0
    report = (workdir / "report" / "ablation.csv").read_text().splitlines()
    assert report[0] == "mode,mae,mse,n"
    assert len(report) == 7  # six modes

    assert main(["export", "--config", str(cfg), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "ablation report" in out
    assert not list(workdir.rglob("*.tmp"))


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


def test_label_without_runs_exits_2(tmp_path):
    cfg, _ = _tiny_config(tmp_path)
    assert main(["label", "--config", str(cfg)]) == 2


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

    hf = cli._terrain_for(cfg)
    drives = [
        simulate_run(hf, waypoints, cfg.sim_config(), *cli._run_seeds(cfg.seed, r))
        for r, waypoints in enumerate(cfg.trajectories())
    ]
    _, norm = label_runs(drives, cfg.labeling_config())
    in_memory = []
    spans = []
    for (traj, _, clouds, images), labels in zip(drives, norm.maps):
        run = build_samples(traj, labels, clouds, images, cfg.bev_layout())
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
    assert cfg.train_config() == TrainConfig()
    assert cfg.labeling_config() == LabelingConfig()
    assert cfg.net_config() == NetConfig()
    assert cfg.bev_layout() == BevLayout()
    assert cfg.sim_config() == SimConfig()
    assert cfg.ablation_specs()[0] == AblationSpec(ABLATION_MODES[0])
