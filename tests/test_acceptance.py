"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion alongside its runtime.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy_instance
from marscost.bev import PillarTensor, embed_image, film_modulate, pillar_encode, pillarize
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
    cell_cost,
    interpolate_costmap,
    label_grids_for,
    sparse_kernel,
)
from marscost.net import (
    NetConfig,
    _huber_value_grad,
    loss_and_grads,
    sample_loss,
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
        cells = bin_trajectory(traj, imu, coarse)
        assert len(cells) >= 10
        rng = np.random.default_rng(0)
        # independently re-bin: scalar floor arithmetic over the raw streams
        by_cell = {}
        for p, a, g in zip(traj.positions, imu.accel, imu.gyro):
            i = math.floor((p[1] - coarse.origin[1]) / coarse.resolution)
            j = math.floor((p[0] - coarse.origin[0]) / coarse.resolution)
            by_cell.setdefault((i, j), []).append((list(p), list(a), list(g)))
        for idx in rng.choice(len(cells), size=10, replace=False):
            cell = cells[idx]
            raw = by_cell[cell.index]
            expected = _cost_oracle(
                [r[0] for r in raw], [r[1] for r in raw], [r[2] for r in raw], cfg
            )
            assert abs(cell_cost(cell, cfg) - expected) <= 1e-9


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


@pytest.fixture(scope="module")
def trained_model():
    t0 = time.time()
    samples = synthesize_dataset(seed=11, n_runs=4)
    assert len(samples) >= 32
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
        base = pillar_encode(base_pt, w, b, grid)
        for _ in range(100):
            perm = rng.permutation(60)
            cloud = PointCloud(np.column_stack([pts[perm], z[perm]]), rgb[perm])
            enc = pillar_encode(pillarize(cloud, grid, 64), w, b, grid)
            assert np.array_equal(enc.data, base.data)
            pperm = rng.permutation(base_pt.n_pillars)
            shuffled = PillarTensor(
                base_pt.indices[pperm], base_pt.features[pperm], base_pt.counts[pperm],
                base_pt.max_points,
            )
            assert np.array_equal(pillar_encode(shuffled, w, b, grid).data, base.data)

        # FiLM identity
        from marscost.bev import EMBED_DIM, FilmParams
        from marscost.types import BevFeatureMap, Image

        feat = BevFeatureMap(grid, rng.normal(0, 1, (8, 8, 5)))
        b2 = np.zeros(10)
        b2[:5] = 1.0
        identity = FilmParams(np.zeros((EMBED_DIM, 3)), np.zeros(3), np.zeros((3, 10)), b2)
        emb = embed_image(Image(rng.uniform(0, 1, (8, 8, 3))))
        assert np.array_equal(film_modulate(feat, emb, identity).data, feat.data)

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
        costs_a = {c.index: cell_cost(c, cfg) for c in bin_trajectory(traj_a, imu_a, label_grid)}
        costs_b = {c.index: cell_cost(c, cfg) for c in bin_trajectory(traj_b, imu_b, label_grid)}
        assert costs_a == costs_b

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


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with criterion(8, "seeded determinism and artifact round trips"):
        tiny = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
        cfg = json.loads(tiny.read_text())
        cfg["sim"]["trajectories"] = cfg["sim"]["trajectories"][:1]
        cfg["sim"]["sensor_stride"] = 18
        cfg["sim"]["lidar_rays"] = 250
        cfg["train"]["epochs"] = 2
        trees = []
        for tag in ("a", "b"):
            cfg["workdir"] = str(tmp_path / tag)
            path = tmp_path / f"cfg_{tag}.json"
            path.write_text(json.dumps(cfg))
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
