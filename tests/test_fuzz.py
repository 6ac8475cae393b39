"""Seeded fuzz of every artifact reader.

Small artifacts are damaged three ways: truncated at every offset, with
seeded bytes flipped, and with ``NaN``, ``Infinity`` and ``1e999`` put into
each numeric field. A read must return a valid object or raise a
``FormatError`` that names the damaged file; any other exception fails.
One CLI case per artifact kind must exit 2 and name the file in one line on
stderr. A run directory that lost one frame file must name it.
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from marscost import io as mio
from marscost.cli import main
from marscost.heightfield import Heightfield, load_heightfield
from marscost.types import (
    DenseCostmap, FormatError, GridSpec, Image, ImuLog, PointCloud, SparseCostmap, Trajectory,
)
from test_cli import _tiny_config
from test_io import read_sparse_table

SEED = 6
FLIPS = 48  # seeded byte flips per file
NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
BAD_NUMBERS = (b"NaN", b"Infinity", b"1e999")


def _is_pgm(out):
    pixels, maxval = out
    return pixels.ndim == 2 and pixels.min() >= 0 and pixels.max() <= maxval


def _artifacts(d):
    """name: (read(), is_valid(result), files the read depends on), all written under ``d``."""
    rng = np.random.default_rng(SEED)
    grid = GridSpec((0.5, -1.25), 0.25, 3, 4)
    cmap = DenseCostmap(grid, rng.uniform(0, 2, (3, 4)), rng.uniform(0, 1, (3, 4)) > 0.3)
    mio.write_pgm(d / "p2.pgm", rng.integers(0, 65536, (3, 4)))
    p5_pixels = rng.integers(0, 256, 12).astype(np.uint8).tobytes()
    (d / "p5.pgm").write_bytes(b"P5\n4 3\n255\n" + p5_pixels)
    mio.write_pbm(d / "m.pbm", rng.uniform(0, 1, (3, 5)) > 0.5)
    mio.write_ppm(d / "i.ppm", Image(rng.uniform(0, 1, (2, 3, 3))))
    mio.write_costmap_pgm(cmap, d / "c.pgm")
    mio.write_pgm(d / "h.pgm", rng.integers(0, 256, (3, 3)), 255)
    (d / "h.meta.json").write_text(
        '{"min_height_m": -0.5, "max_height_m": 1.5, "cell_size_m": 0.25}')
    mio.write_costmap_csv(cmap, d / "c.csv")
    mio.write_sparse_csv(rng.uniform(-5, 5, (3, 2)), rng.uniform(0, 3, 3), d / "s.csv")
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    traj = Trajectory([0.0, 0.1, 0.2], rng.uniform(0, 5, (3, 3)), quats)
    mio.write_trajectory_csv(traj, d / "t.csv")
    imu = ImuLog([0.0, 0.1], rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 3)))
    mio.write_imu_csv(imu, d / "u.csv")
    mio.write_cloud_csv(PointCloud(rng.uniform(-3, 3, (3, 3)), rng.uniform(0, 1, (3, 3))), d / "p.csv")
    is_a = lambda cls: lambda out: isinstance(out, cls)  # noqa: E731
    return {
        "pgm_p2": (lambda: mio.read_pgm(d / "p2.pgm"), _is_pgm, ["p2.pgm"]),
        "pgm_p5": (lambda: mio.read_pgm(d / "p5.pgm"), _is_pgm, ["p5.pgm"]),
        "pbm": (lambda: mio.read_pbm(d / "m.pbm"), lambda out: out.dtype == bool, ["m.pbm"]),
        "ppm": (lambda: mio.read_ppm(d / "i.ppm"), is_a(Image), ["i.ppm"]),
        "costmap_pgm": (lambda: mio.read_costmap_pgm(d / "c.pgm"), is_a(DenseCostmap),
                        ["c.pgm", "c.meta.json", "c.mask.pbm"]),
        "heightmap": (lambda: load_heightfield(d / "h.pgm"), is_a(Heightfield),
                      ["h.pgm", "h.meta.json"]),
        "costmap_csv": (lambda: mio.read_costmap_csv(d / "c.csv"), is_a(DenseCostmap), ["c.csv"]),
        "sparse": (lambda: read_sparse_table(d / "s.csv"), is_a(SparseCostmap), ["s.csv"]),
        "trajectory": (lambda: mio.read_trajectory_csv(d / "t.csv"), is_a(Trajectory), ["t.csv"]),
        "imu": (lambda: mio.read_imu_csv(d / "u.csv"), is_a(ImuLog), ["u.csv"]),
        "cloud": (lambda: mio.read_cloud_csv(d / "p.csv"), is_a(PointCloud), ["p.csv"]),
    }


def _damaged(data: bytes, rng):
    """(description, bytes) of every damaged variant of ``data``."""
    for n in range(len(data)):
        yield f"truncated at {n}", data[:n]
    for _ in range(FLIPS):
        at, mask = int(rng.integers(len(data))), int(rng.integers(1, 256))
        yield f"byte {at} xor {mask}", data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
    for m in NUMBER.finditer(data):
        for bad in BAD_NUMBERS:
            yield f"{bad.decode()} at {m.start()}", data[: m.start()] + bad + data[m.end() :]


ARTIFACTS = ["pgm_p2", "pgm_p5", "pbm", "ppm", "costmap_pgm", "heightmap", "costmap_csv",
             "sparse", "trajectory", "imu", "cloud"]


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_damaged_artifact_is_read_or_named(tmp_path, artifact):
    read, is_valid, files = _artifacts(tmp_path)[artifact]
    assert is_valid(read())
    rng = np.random.default_rng(SEED)
    for name in files:
        path = tmp_path / name
        original = path.read_bytes()
        assert len(original) <= 1024
        for how, data in _damaged(original, rng):
            path.write_bytes(data)
            try:
                out = read()
            except FormatError as e:
                assert str(path) in str(e), f"{name} {how}: {e}"
            else:
                assert is_valid(out), f"{name} {how}: invalid {out!r}"
        path.write_bytes(original)


def _nan_first_number(text: str, after: int = 0) -> str:
    """``text`` with its first number past character ``after`` replaced by NaN."""
    m = re.compile(r"-?[0-9][0-9.e+-]*").search(text, after)
    return text[: m.start()] + "NaN" + text[m.end() :]


def _halve(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _nan_row(path):
    text = path.read_text()
    path.write_text(_nan_first_number(text, text.index("\n", text.index("\n") + 1)))


def _nan_sidecar(path):
    path.write_text(_nan_first_number(path.read_text()))


def _keep_20_lines(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:20]))


# kind: (command, file under the workdir, damage)
CLI_CASES = {
    "trajectory": ("label", "data/run_000/trajectory.csv", _nan_row),
    "trajectory_cut": ("train", "data/run_000/trajectory.csv", _keep_20_lines),
    "imu": ("label", "data/run_000/imu.csv", _nan_row),
    "cloud": ("train", "data/run_000/cloud_0.csv", _nan_row),
    "image": ("train", "data/run_000/image_0.ppm", _halve),
    "image_lost": ("train", "data/run_000/image_36.ppm", Path.unlink),
    "cloud_lost": ("train", "data/run_000/cloud_36.csv", Path.unlink),
    "costmap_pgm": ("train", "labels/run_000.pgm", _halve),
    "costmap_sidecar": ("train", "labels/run_000.meta.json", _nan_sidecar),
    "costmap_mask": ("train", "labels/run_000.mask.pbm", _halve),
    "costmap_csv": ("export", "report/run_000.csv", _nan_row),
    "heightmap_pgm": ("simulate", "terrain/h.pgm", _halve),
    "heightmap_sidecar": ("simulate", "terrain/h.meta.json", _nan_sidecar),
}


@pytest.fixture(scope="module")
def labeled_workdir(tmp_path_factory):
    """Config and workdir after ``simulate`` and ``label``, plus a heightmap and a costmap CSV."""
    root = tmp_path_factory.mktemp("fuzz_cli")
    cfg, workdir = _tiny_config(root)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["label", "--config", str(cfg)]) == 0
    assert main(["export", "--config", str(cfg), "--format", "csv"]) == 0
    (workdir / "terrain").mkdir()
    mio.write_pgm(workdir / "terrain/h.pgm", np.arange(48 * 48).reshape(48, 48) % 256, 255)
    (workdir / "terrain/h.meta.json").write_text(
        json.dumps({"min_height_m": 0.0, "max_height_m": 0.5, "cell_size_m": 0.2}, indent=2))
    return root, workdir


@pytest.mark.parametrize("kind", sorted(CLI_CASES))
def test_cli_damaged_artifact_exits_2(tmp_path, capsys, labeled_workdir, kind):
    root, original = labeled_workdir
    command, name, damage = CLI_CASES[kind]
    workdir = shutil.copytree(original, tmp_path / "run")
    cfg = json.loads((root / "config.json").read_text())
    cfg["workdir"] = str(workdir)
    if command == "simulate":
        cfg["sim"]["terrain"]["heightmap_path"] = str(workdir / "terrain/h.pgm")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    damage(workdir / name)
    argv = [command, "--config", str(tmp_path / "config.json")]
    if command == "export":
        argv += ["--map", str(workdir / name)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(workdir / name) in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err


def test_run_dir_missing_any_frame_file_names_it(tmp_path, labeled_workdir):
    """Each frame needs its cloud and its image: losing either is named, not skipped."""
    _, original = labeled_workdir
    data = shutil.copytree(original / "data", tmp_path / "data")
    clouds, images = sorted(data.glob("run_*/cloud_*.csv")), sorted(data.glob("run_*/image_*.ppm"))
    assert len(clouds) == len(images) > 1
    for path in clouds + images:
        kept = path.read_bytes()
        path.unlink()
        with pytest.raises(FormatError, match=re.escape(f"{path}: missing")):
            mio.read_run_dir(path.parent)
        path.write_bytes(kept)
