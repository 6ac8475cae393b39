"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion alongside its runtime.
"""

import ctypes
import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy_instance, sample_loss
from marscost.bev import PillarTensor, embed_image, film_gamma_beta, pillar_encode_cached, pillarize
from marscost.checkpoint import load_checkpoint, save_checkpoint
from marscost.cli import main as cli_main
from marscost.dataset import split_samples, synthesize_dataset
from marscost.evaluation import (
    ABLATION_MODES,
    AblationSpec,
    export_costmap,
    import_costmap,
    predict,
    run_ablation_suite,
)
from marscost.labeling import (
    LabelingConfig,
    bin_trajectory,
    cell_costs,
    interpolate_costmap,
    label_grids_for,
    sparse_kernel,
)
from marscost.net import (
    NetConfig,
    _huber_value_grad,
    loss_and_grads,
    smoothness_loss,
)
from marscost.simulate import generate_trajectory, synthesize_imu
from marscost.train import AugmentConfig, TrainConfig, fit
from marscost.types import DenseCostmap, GridSpec, SparseCostmap


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 1. kernel exactness
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_exactness():
    with criterion(1, "kernel exactness"):
        start = time.time()
        assert sparse_kernel(0.0, 1.0) == 1.0
        assert sparse_kernel(1.0, 1.0) == 0.0
        assert abs(sparse_kernel(0.5, 1.0) - 1.0 / 6.0) <= 1e-12
        d = np.linspace(0.0, 1.0, 10_000)
        assert np.all(sparse_kernel(d, 1.0) >= 0.0)
        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 2. gradient gate
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_gate():
    with criterion(2, "analytic gradients vs central differences"):
        start = time.time()
        params, sample = make_toy_instance(3)  # 16x16 grid
        assert params.n_parameters() <= 5000
        assert sample.target.grid.rows == 16 and sample.target.grid.cols == 16
        delta, lam = 0.1, 0.1
        _, _, _, grads = loss_and_grads(params, [sample], delta, lam)
        h = 1e-4
        worst = 0.0
        for name, tensor in params.named_tensors():
            flat = tensor.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                hi = sample_loss(params, sample, delta, lam)
                flat[i] = old - h
                lo = sample_loss(params, sample, delta, lam)
                flat[i] = old
                num = (hi - lo) / (2 * h)
                worst = max(worst, abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-6))
        elapsed = time.time() - start
        print(f"  max relative error {worst:.3e} over {params.n_parameters()} parameters "
              f"in {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. labeling oracle
# ---------------------------------------------------------------------------


def _cost_oracle(positions, accels, gyros, cfg):
    n = len(positions)
    term1 = math.sqrt(sum(sum(a * a for a in acc) for acc in accels) / n)
    if n < 2:
        return cfg.w1 * term1
    num = den = jerk_sq = 0.0
    for i in range(n - 1):
        ds = math.sqrt(sum((positions[i + 1][k] - positions[i][k]) ** 2 for k in range(3)))
        ds = max(ds, cfg.epsilon)
        num += math.sqrt(sum(g * g for g in gyros[i])) * ds
        den += ds
        jm = math.sqrt(sum((accels[i + 1][k] - accels[i][k]) ** 2 for k in range(3))) / ds
        jerk_sq += jm * jm
    return cfg.w1 * term1 + cfg.w2 * num / den + cfg.w3 * math.sqrt(jerk_sq / (n - 1))


def test_criterion_3_labeling_oracle(rough_field):
    with criterion(3, "cell costs match brute-force recomputation"):
        cfg = LabelingConfig()
        traj = generate_trajectory(rough_field, [(1.5, 1.5), (8.0, 7.5)], speed=1.0, dt=0.1)
        imu = synthesize_imu(traj, rough_field, noise_scale=2.0, seed=17)
        coarse, _ = label_grids_for(traj, cfg)
        index, cell, accel, gyro = bin_trajectory(traj, imu, coarse)
        costs = cell_costs(cell, traj.positions, accel, gyro, cfg)
        assert len(index) >= 10
        rng = np.random.default_rng(0)
        # independently re-bin: scalar floor arithmetic over the raw streams
        by_cell = {}
        for p, a, g in zip(traj.positions, imu.accel, imu.gyro):
            i = math.floor((p[1] - coarse.origin[1]) / coarse.resolution)
            j = math.floor((p[0] - coarse.origin[0]) / coarse.resolution)
            by_cell.setdefault((i, j), []).append((list(p), list(a), list(g)))
        for idx in rng.choice(len(index), size=10, replace=False):
            raw = by_cell[tuple(index[idx].tolist())]
            expected = _cost_oracle(
                [r[0] for r in raw], [r[1] for r in raw], [r[2] for r in raw], cfg
            )
            assert abs(costs[idx] - expected) <= 1e-9


# ---------------------------------------------------------------------------
# 4. interpolation oracle
# ---------------------------------------------------------------------------


def test_criterion_4_interpolation_oracle():
    with criterion(4, "interpolation matches the naive all-pairs loop"):
        rng = np.random.default_rng(41)
        cfg = LabelingConfig()
        grid = GridSpec((-1.0, -1.0), 0.2, 20, 20)  # 400 query cells
        sparse = SparseCostmap(rng.uniform(-1, 3, (5, 2)), rng.uniform(0, 25, 5))
        dense = interpolate_costmap(sparse, grid, cfg)
        r = cfg.kernel_radius
        for i in range(grid.rows):
            for j in range(grid.cols):
                cx = grid.origin[0] + (j + 0.5) * grid.resolution
                cy = grid.origin[1] + (i + 0.5) * grid.resolution
                num = den = 0.0
                for n in range(len(sparse)):
                    d = math.hypot(sparse.xy[n, 0] - cx, sparse.xy[n, 1] - cy)
                    if d <= r:
                        u = d / r
                        k = (2 + math.cos(2 * math.pi * u)) / 3 * (1 - u) + math.sin(
                            2 * math.pi * u
                        ) / (2 * math.pi)
                        num += max(k, 0.0) * sparse.tc[n]
                        den += max(k, 0.0)
                if den > 1e-12:
                    assert dense.valid[i, j]
                    assert abs(dense.values[i, j] - num / den) <= 1e-9
                else:
                    assert not dense.valid[i, j]


# ---------------------------------------------------------------------------
# 5 and 6 share one trained model
# ---------------------------------------------------------------------------

ACCEPT_NET = NetConfig(
    channels=8,
    stage2_channels=12,
    stage3_channels=16,
    film_hidden=8,
    head_channels=16,
    max_points_per_pillar=32,
)


# sha256 over every array of synthesize_dataset(seed=11, n_runs=4), see _dataset_sha256
ACCEPT_DATASET_SHA256 = "ebad11cffd32a391bd05838f787b133c1254d5e462fab420e0b6d1391efb82bd"


def _dataset_sha256(samples) -> str:
    """One digest of each sample's cloud, image and label arrays: dtype, shape and bytes."""
    digest = hashlib.sha256()
    for s in samples:
        for a in (s.cloud.xyz, s.cloud.rgb, s.image.pixels, s.target.values, s.target.valid):
            digest.update(f"{a.dtype}{a.shape}".encode())
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trained_model():
    t0 = time.time()
    samples = synthesize_dataset(seed=11, n_runs=4)
    assert len(samples) >= 32
    # the dataset is golden: a change to simulation or labeling shows here first
    assert _dataset_sha256(samples) == ACCEPT_DATASET_SHA256
    train, heldout = split_samples(samples, 0.25, seed=11)
    steps_per_epoch = (len(train) + 7) // 8
    cfg = TrainConfig(
        lr=1e-4,
        batch_size=8,
        huber_delta=0.1,
        smooth_lambda=0.1,
        epochs=500 // steps_per_epoch,
        seed=1,
        augment=AugmentConfig(rotate=False, translate=False, noise_sigma=0.0),
    )
    params, history = fit(train, cfg, ACCEPT_NET)
    return params, history, train, heldout, time.time() - t0


def test_criterion_5_convergence(trained_model):
    with criterion(5, "training converges and generalizes"):
        params, history, train, heldout, elapsed = trained_model
        assert len(history) <= 500
        assert train[0].target.grid.rows == 32 and train[0].target.grid.cols == 32
        first10 = float(np.mean([h.total for h in history[:10]]))
        last10 = float(np.mean([h.total for h in history[-10:]]))
        report = run_ablation_suite(params, heldout, [AblationSpec("baseline", seed=0)])
        heldout_mae = report.rows[0].mae
        print(f"  first10 {first10:.5f} last10 {last10:.5f} ratio {last10 / first10:.3f} "
              f"heldout MAE {heldout_mae:.4f} wall {elapsed:.0f}s")
        assert last10 <= 0.5 * first10
        assert heldout_mae <= 0.15
        assert elapsed < 300.0


def test_criterion_6_ablation_ordering(trained_model):
    with criterion(6, "corruption ablations degrade gracefully in order"):
        params, _, _, heldout, _ = trained_model
        specs = [AblationSpec(m, seed=3) for m in ABLATION_MODES]
        report = run_ablation_suite(params, heldout, specs)
        by_mode = report.by_mode()
        print("  " + report.format_table().replace("\n", "\n  "))
        assert by_mode["sparse_pointcloud"].mae >= by_mode["baseline"].mae
        assert by_mode["gaussian_noise"].mae >= by_mode["baseline"].mae
        # baseline row is exactly plain evaluation
        abs_sum = n_cells = 0.0
        for s in heldout:
            pred = predict(params, s)
            err = (pred.values - s.target.values)[s.target.valid]
            abs_sum += np.abs(err).sum()
            n_cells += err.size
        assert by_mode["baseline"].mae == abs_sum / n_cells


# ---------------------------------------------------------------------------
# 7. invariance suite
# ---------------------------------------------------------------------------


def test_criterion_7_invariances(flat_field):
    with criterion(7, "structural invariances"):
        rng = np.random.default_rng(70)
        # pillar permutation invariance, 100 shuffles
        grid = GridSpec((0.0, 0.0), 0.5, 8, 8)
        pts = rng.uniform(0, 4, (60, 2))
        z = rng.uniform(-1, 1, 60)
        rgb = rng.uniform(0, 1, (60, 3))
        w = rng.normal(0, 1, (9, 4))
        b = rng.normal(0, 1, 4)
        from marscost.types import PointCloud

        base_pt = pillarize(PointCloud(np.column_stack([pts, z]), rgb), grid, 64)
        base, _ = pillar_encode_cached(base_pt, w, b, grid)
        for _ in range(100):
            perm = rng.permutation(60)
            cloud = PointCloud(np.column_stack([pts[perm], z[perm]]), rgb[perm])
            enc, _ = pillar_encode_cached(pillarize(cloud, grid, 64), w, b, grid)
            assert np.array_equal(enc, base)
            pperm = rng.permutation(base_pt.n_pillars)
            shuffled = PillarTensor(
                base_pt.indices[pperm], base_pt.features[pperm], base_pt.counts[pperm],
                base_pt.max_points,
            )
            assert np.array_equal(pillar_encode_cached(shuffled, w, b, grid)[0], base)

        # FiLM identity
        from marscost.bev import EMBED_DIM
        from marscost.types import Image

        feat = rng.normal(0, 1, (8, 8, 5))
        b2 = np.zeros(10)
        b2[:5] = 1.0
        emb = embed_image(Image(rng.uniform(0, 1, (8, 8, 3))))
        gamma, beta, _ = film_gamma_beta(emb, np.zeros((EMBED_DIM, 3)), np.zeros(3),
                                         np.zeros((3, 10)), b2)
        assert np.all(gamma == 1.0) and np.all(beta == 0.0)
        assert np.array_equal(gamma[None, None, :] * feat + beta[None, None, :], feat)

        # Huber C1 continuity at |e| = delta
        delta = 0.1
        for e in (delta - 1e-9, delta + 1e-9):
            v, g = _huber_value_grad(
                np.array([[e]]), np.zeros((1, 1)), np.ones((1, 1), dtype=bool), delta
            )
            assert abs(v - 0.5 * delta**2) <= 1e-9
            assert abs(g[0, 0] - delta) <= 1e-9

        # cell cost is invariant under time reparameterization
        cfg = LabelingConfig()
        traj_a = generate_trajectory(flat_field, [(1.0, 1.0), (5.0, 1.0)], speed=1.0, dt=0.1)
        traj_b = generate_trajectory(flat_field, [(1.0, 1.0), (5.0, 1.0)], speed=0.5, dt=0.2)
        imu_a = synthesize_imu(traj_a, flat_field, seed=0)
        from marscost.types import ImuLog

        imu_b = ImuLog(traj_b.times, imu_a.accel, imu_a.gyro)
        label_grid = GridSpec((0.0, 0.0), 0.2, 12, 32)
        costs = []
        for traj, imu in ((traj_a, imu_a), (traj_b, imu_b)):
            index, cell, accel, gyro = bin_trajectory(traj, imu, label_grid)
            cost = cell_costs(cell, traj.positions, accel, gyro, cfg)
            costs.append(dict(zip(map(tuple, index.tolist()), cost)))
        assert costs[0] == costs[1]

        # smoothness loss is zero iff the map is constant
        g2 = GridSpec((0.0, 0.0), 1.0, 5, 5)
        assert smoothness_loss(DenseCostmap(g2, np.full((5, 5), 0.3)), 0.1) == 0.0
        wiggly = np.full((5, 5), 0.3)
        wiggly[2, 2] += 1e-9
        assert smoothness_loss(DenseCostmap(g2, wiggly), 0.1) > 0.0


# ---------------------------------------------------------------------------
# 8. determinism and round trips
# ---------------------------------------------------------------------------


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _tiny_pipeline_config(tmp_path, tag: str) -> Path:
    """``configs/tiny.json`` cut to one run, fewer frames and rays and 2 epochs,
    with its workdir at ``tmp_path / tag``."""
    tiny = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
    cfg = json.loads(tiny.read_text())
    cfg["sim"]["trajectories"] = cfg["sim"]["trajectories"][:1]
    cfg["sim"]["sensor_stride"] = 18
    cfg["sim"]["lidar_rays"] = 250
    cfg["train"]["epochs"] = 2
    cfg["workdir"] = str(tmp_path / tag)
    path = tmp_path / f"cfg_{tag}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with criterion(8, "seeded determinism and artifact round trips"):
        trees = []
        for tag in ("a", "b"):
            path = _tiny_pipeline_config(tmp_path, tag)
            for cmd in ("simulate", "label", "train"):
                assert cli_main([cmd, "--config", str(path)]) == 0
            tree = _tree_bytes(tmp_path / tag)
            trees.append({k: v for k, v in tree.items() if not k.startswith("report")})
        assert trees[0] == trees[1]  # bit-identical artifacts for the same seed

        # checkpoint round trip is bit exact
        ckpt = load_checkpoint(tmp_path / "a" / "model.ckpt")
        save_checkpoint(ckpt, tmp_path / "again.ckpt")
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()

        # costmap round trips: CSV exact, PGM within one 16-bit quantization step
        labels = import_costmap(tmp_path / "a" / "labels" / "run_000.pgm")
        export_costmap(labels, tmp_path / "rt.csv", "csv")
        back_csv = import_costmap(tmp_path / "rt.csv")
        assert np.array_equal(back_csv.values, labels.values)
        assert np.array_equal(back_csv.valid, labels.valid)
        export_costmap(labels, tmp_path / "rt.pgm", "pgm")
        back_pgm = import_costmap(tmp_path / "rt.pgm")
        assert np.max(np.abs(back_pgm.values[labels.valid] - labels.values[labels.valid])) <= 1.6e-5


# ---------------------------------------------------------------------------
# pinned bytes of the BLAS-dependent stages
# ---------------------------------------------------------------------------


def _blas_config() -> str:
    """The configuration string of numpy's bundled scipy-openblas, which names the
    kernel core it picked for this CPU; ``"unknown"`` for any other BLAS."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_config64_", None) if libs else None
    if get is None:
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


# sha256 of what train, eval and ablate write for the tiny pipeline, and of
# criterion 5's weights and loss history, per (numpy version, BLAS configuration):
# GEMM results, and so these bytes, depend on the kernels OpenBLAS picks per CPU
GOLDEN_TRAIN_EVAL = {
    ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"): {
        "model.ckpt": "3dfb2f37204db8ad0f87e6ecff0f157f3d45362d4350342a6b169eb1969d7229",
        "train_log.csv": "87be10bed42189e15244e7618c3d688ef3978423ab7e3609fab9781d271d602f",
        "report/eval.csv": "ce94e4285a96adf8b6991f989f04af33ba84ad05210f1c525eeadd96291584fd",
        "report/ablation.csv": "c06aeda412223e4149ad638c371feb9c7b261178149bf4428850082231a0a70f",
        "report/prediction_0.pgm": "d6fe7e420462c11eeb3e47c7accf85fccdc3a5fef06a92a1abee56c65517a087",
        "report/prediction_0.mask.pbm": "cbe4fa1585971dc8ef73a1e4ab99a6797d86f92017c989dd7c9f8d72a63b0f08",
        "report/prediction_0.meta.json": "5a5667e0c1c1807e943232968bc911810b68bb128e3fd8998b6b7ab582fc9bab",
        "report/prediction_0.csv": "6ffdaadcf91c71c3296cdc4128141f40e34cd0dbda30d585a0a51b7228d03255",
        "report/target_0.pgm": "6cc0200b2b0559751299d079d6afb6fe15faf347f3d352c1c17fc23101ccdc33",
        "report/target_0.mask.pbm": "9613aa464659ac6519a08e847a4d615aec37845d63ad81f215cea194f7d8bab6",
        "report/target_0.meta.json": "0eceed0e6c1b89d0462b54fd7dae873484adda5037ae2a202bdc15d4a4dcd5f1",
        "criterion_5/theta": "fdee626aa4ee407e793d5b087e48cc83d506ca957dd8f5d0f4bdc8f736992371",
        "criterion_5/history": "94d99bc4b295436f27b7d71f9915e9e418ff0802f0dd20db42c74ef168236c85",
    },
}

TRAIN_EVAL_FILES = (
    "model.ckpt",
    "train_log.csv",
    "report/eval.csv",
    "report/ablation.csv",
    "report/prediction_0.pgm",
    "report/prediction_0.mask.pbm",
    "report/prediction_0.meta.json",
    "report/prediction_0.csv",
    "report/target_0.pgm",
    "report/target_0.mask.pbm",
    "report/target_0.meta.json",
)


def test_train_eval_golden_fingerprints(tmp_path, trained_model):
    """``train``, ``eval`` and ``ablate`` are meant to be bit-stable on one BLAS build,
    as is criterion 5's fit. A changed hash means a stage changed its output bytes; a
    change made on purpose updates this table and says so in CHANGES.md. A host with
    another BLAS build or numpy version has no entry: the test skips and prints the
    key and the digests to add."""
    workdir = tmp_path / "tiny"
    path = _tiny_pipeline_config(tmp_path, "tiny")
    for cmd in ("simulate", "label", "train", "eval", "ablate"):
        assert cli_main([cmd, "--config", str(path)]) == 0
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in TRAIN_EVAL_FILES}
    params, history = trained_model[:2]
    digests["criterion_5/theta"] = hashlib.sha256(params.theta.tobytes()).hexdigest()
    steps = np.array([(h.step, h.huber, h.smooth, h.total, h.grad_norm) for h in history])
    digests["criterion_5/history"] = hashlib.sha256(steps.tobytes()).hexdigest()
    key = (np.__version__, _blas_config())
    if key not in GOLDEN_TRAIN_EVAL:
        pytest.skip(f"no GOLDEN_TRAIN_EVAL entry for {key!r}; its digests: "
                    + json.dumps(digests, indent=1))
    assert digests == GOLDEN_TRAIN_EVAL[key]
