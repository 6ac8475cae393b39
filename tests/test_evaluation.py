from dataclasses import replace

import numpy as np
import pytest

from conftest import make_toy_instance, random_sample
from marscost import evaluation
from marscost.bev import embed_image
from marscost.evaluation import (
    ABLATION_MODES,
    AblationSpec,
    MetricsReport,
    apply_ablation,
    export_costmap,
    import_costmap,
    mae,
    mse,
    predict,
    run_ablation_suite,
)
from marscost.types import DenseCostmap, GridSpec, Image, PointCloud, Sample


def _pair(seed, rows=8, cols=8):
    rng = np.random.default_rng(seed)
    grid = GridSpec((0.0, 0.0), 0.5, rows, cols)
    pred = DenseCostmap(grid, rng.uniform(0, 1, (rows, cols)))
    valid = rng.uniform(0, 1, (rows, cols)) > 0.25
    target = DenseCostmap(grid, rng.uniform(0, 1, (rows, cols)) * valid, valid)
    return pred, target


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_zero_for_identical_maps():
    _, target = _pair(0)
    pred = DenseCostmap(target.grid, target.values.copy())
    assert mae(pred, target) == 0.0
    assert mse(pred, target) == 0.0


def test_metrics_constant_error():
    grid = GridSpec((0.0, 0.0), 1.0, 3, 3)
    target = DenseCostmap(grid, np.full((3, 3), 0.2))
    pred = DenseCostmap(grid, np.full((3, 3), 0.3))
    assert mae(pred, target) == pytest.approx(0.1, abs=1e-15)
    assert mse(pred, target) == pytest.approx(0.01, abs=1e-15)


def test_metrics_match_scalar_loop_oracle():
    pred, target = _pair(1)
    abs_sum = sq_sum = n = 0
    for i in range(8):
        for j in range(8):
            if target.valid[i, j]:
                e = pred.values[i, j] - target.values[i, j]
                abs_sum += abs(e)
                sq_sum += e * e
                n += 1
    assert abs(mae(pred, target) - abs_sum / n) <= 1e-12
    assert abs(mse(pred, target) - sq_sum / n) <= 1e-12


def test_metrics_symmetric_and_zero_iff_equal():
    pred, target = _pair(2)
    sym_target = DenseCostmap(pred.grid, pred.values.copy(), target.valid.copy())
    sym_pred = DenseCostmap(pred.grid, target.values.copy())
    assert mae(sym_pred, DenseCostmap(pred.grid, pred.values, target.valid)) == pytest.approx(
        mae(DenseCostmap(pred.grid, target.values.copy()), sym_target), abs=1e-15
    )
    assert mae(pred, target) > 0.0


def test_metrics_reject_no_valid_cells():
    grid = GridSpec((0.0, 0.0), 1.0, 2, 2)
    target = DenseCostmap(grid, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        mae(DenseCostmap(grid, np.zeros((2, 2))), target)


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def test_baseline_mode_unchanged():
    sample = random_sample(3)
    out = apply_ablation(sample, AblationSpec("baseline", seed=1))
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)
    assert np.array_equal(out.cloud.rgb, sample.cloud.rgb)
    assert np.array_equal(out.image.pixels, sample.image.pixels)


def test_no_color_zeroes_rgb():
    sample = random_sample(4)
    out = apply_ablation(sample, AblationSpec("no_color_pointcloud"))
    assert np.all(out.cloud.rgb == 0.0)
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)


def test_no_image_encoder_injects_mean_color():
    sample = random_sample(5)
    out = apply_ablation(sample, AblationSpec("no_image_encoder"))
    mean_rgb = sample.image.pixels.reshape(-1, 3).mean(axis=0)
    assert np.all(out.cloud.rgb == mean_rgb)
    # the image goes flat at the clean mean colour, pixel for pixel
    assert out.image.pixels.shape == sample.image.pixels.shape
    assert np.all(out.image.pixels == mean_rgb)
    assert out.cloud.xyz is sample.cloud.xyz
    assert out.target is sample.target


def test_no_image_encoder_sees_only_the_mean_color():
    params, sample = make_toy_instance(22)
    # multiples of 1/64 sum exactly, so the reversed image has the very same mean
    px = np.random.default_rng(5).integers(0, 65, sample.image.pixels.shape) / 64.0
    a = Sample(sample.cloud, Image(px), sample.target)
    b = Sample(sample.cloud, Image(px[::-1, ::-1]), sample.target)
    assert not np.array_equal(a.image.pixels, b.image.pixels)
    assert predict(params, a).values.tobytes() != predict(params, b).values.tobytes()
    spec = AblationSpec("no_image_encoder")
    pa = predict(params, apply_ablation(a, spec)).values
    pb = predict(params, apply_ablation(b, spec)).values
    assert pa.tobytes() == pb.tobytes()


def test_sparse_mode_keeps_exact_count():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.uniform(0, 3, (1000, 3)), rng.uniform(0, 1, (1000, 3)))
    sample = Sample(cloud, random_sample(6).image, random_sample(6).target)
    out = apply_ablation(sample, AblationSpec("sparse_pointcloud", drop_fraction=0.3, seed=2))
    assert len(out.cloud) == 700


def test_occlusion_zeroes_expected_fraction():
    sample = random_sample(7)
    out = apply_ablation(sample, AblationSpec("occlude_image", occlusion_fraction=0.3, seed=3))
    zeroed = np.all(out.image.pixels == 0.0, axis=2).sum()
    total = sample.image.rows * sample.image.cols
    assert abs(zeroed / total - 0.3) < 0.1
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)


def test_occlusion_of_zero_occludes_nothing():
    params, sample = make_toy_instance(21)
    clean = predict(params, sample).values
    for seed in range(4):
        out = apply_ablation(sample, AblationSpec("occlude_image", occlusion_fraction=0.0, seed=seed))
        assert out.image.pixels.tobytes() == sample.image.pixels.tobytes()
        assert predict(params, out).values.tobytes() == clean.tobytes()
    out = apply_ablation(sample, AblationSpec("occlude_image", occlusion_fraction=0.001, seed=0))
    assert np.all(out.image.pixels == 0.0, axis=2).sum() == 1  # any other fraction hides a pixel


def test_gaussian_mode_sigma_zero_unchanged():
    sample = random_sample(8)
    spec = AblationSpec("gaussian_noise", noise_sigma_image=0.0, noise_sigma_points=0.0, seed=4)
    out = apply_ablation(sample, spec)
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)
    assert np.array_equal(out.image.pixels, sample.image.pixels)


@pytest.mark.parametrize("mode", ["no_image_encoder", "occlude_image", "gaussian_noise"])
def test_image_ablations_give_a_new_image_and_embedding(mode):
    sample = random_sample(10)
    out = apply_ablation(sample, AblationSpec(mode, seed=6))
    assert out.image is not sample.image
    assert not np.array_equal(embed_image(out.image), embed_image(sample.image))


def test_ablation_never_touches_target():
    sample = random_sample(9)
    for mode in ABLATION_MODES:
        out = apply_ablation(sample, AblationSpec(mode, seed=5))
        assert np.array_equal(out.target.values, sample.target.values)
        assert np.array_equal(out.target.valid, sample.target.valid)


def test_ablation_deterministic_per_seed():
    sample = random_sample(10)
    a = apply_ablation(sample, AblationSpec("gaussian_noise", seed=11))
    b = apply_ablation(sample, AblationSpec("gaussian_noise", seed=11))
    c = apply_ablation(sample, AblationSpec("gaussian_noise", seed=12))
    assert np.array_equal(a.cloud.xyz, b.cloud.xyz)
    assert not np.array_equal(a.cloud.xyz, c.cloud.xyz)


def test_ablation_spec_validation():
    with pytest.raises(ValueError):
        AblationSpec("nonsense")
    with pytest.raises(ValueError):
        AblationSpec("baseline", occlusion_fraction=1.0)
    with pytest.raises(ValueError):
        AblationSpec("baseline", noise_sigma_image=-0.1)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_baseline_equals_plain_evaluation():
    params, sample = make_toy_instance(3)
    dataset = [sample, random_sample(12, grid_size=16)]
    report = run_ablation_suite(params, dataset, [AblationSpec("baseline", seed=0)])
    abs_sum = sq_sum = n = 0
    for s in dataset:
        pred = predict(params, s)
        err = (pred.values - s.target.values)[s.target.valid]
        abs_sum += np.abs(err).sum()
        sq_sum += (err**2).sum()
        n += err.size
    row = report.rows[0]
    assert row.mae == abs_sum / n
    assert row.mse == sq_sum / n
    assert row.n == 2


def test_suite_one_row_per_mode_and_deterministic():
    params, sample = make_toy_instance(4)
    dataset = [sample]
    specs = [AblationSpec(m, seed=7) for m in ABLATION_MODES]
    r1 = run_ablation_suite(params, dataset, specs)
    r2 = run_ablation_suite(params, dataset, specs)
    assert [r.mode for r in r1.rows] == list(ABLATION_MODES)
    assert r1.to_csv_text() == r2.to_csv_text()
    assert all(0.0 <= r.mae <= 1.0 for r in r1.rows)


def test_suite_gives_every_mode_the_same_params(monkeypatch):
    params, sample = make_toy_instance(4)
    dataset = [sample, random_sample(12, grid_size=16), random_sample(13, grid_size=16)]
    spec = AblationSpec("no_image_encoder", seed=7)
    # oracle: the mode's samples, ablated and scored one by one
    abs_sum = n = 0
    for idx, s in enumerate(dataset):
        seed = np.random.SeedSequence([spec.seed, idx]).generate_state(1)[0]
        ablated = apply_ablation(s, replace(spec, seed=seed))
        pred = predict(params, ablated)
        err = (pred.values - ablated.target.values)[ablated.target.valid]
        abs_sum += np.abs(err).sum()
        n += err.size
    seen = []
    monkeypatch.setattr(evaluation, "predict", lambda p, s: seen.append(p) or predict(p, s))
    specs = [AblationSpec(m, seed=7) for m in ABLATION_MODES] + [spec]
    report = run_ablation_suite(params, dataset, specs)
    assert len(seen) == len(specs) * len(dataset)
    assert all(p is params for p in seen)  # no mode swaps the weights
    assert report.rows[ABLATION_MODES.index("no_image_encoder")].mae == abs_sum / n
    assert report.rows[-1].mae == abs_sum / n


def test_report_csv_shape():
    report = MetricsReport([])
    params, sample = make_toy_instance(5)
    report = run_ablation_suite(params, [sample], [AblationSpec("baseline")])
    text = report.to_csv_text()
    assert text.splitlines()[0] == "mode,mae,mse,n"
    assert len(text.splitlines()) == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_csv_round_trip_exact(tmp_path):
    _, target = _pair(13)
    export_costmap(target, tmp_path / "m.csv", "csv")
    back = import_costmap(tmp_path / "m.csv")
    assert np.array_equal(back.values, target.values)
    assert np.array_equal(back.valid, target.valid)
    assert back.grid == target.grid


def test_export_pgm_round_trip_quantized(tmp_path):
    _, target = _pair(14)
    export_costmap(target, tmp_path / "m.pgm", "pgm")
    back = import_costmap(tmp_path / "m.pgm")
    # [0, 1] values quantized to 16 bits: error bounded by one quantization step
    assert np.max(np.abs(back.values[back.valid] - target.values[target.valid])) <= 1.6e-5
    assert np.array_equal(back.valid, target.valid)


def test_export_all_invalid_map(tmp_path):
    grid = GridSpec((0.0, 0.0), 1.0, 3, 3)
    cmap = DenseCostmap(grid, np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    export_costmap(cmap, tmp_path / "empty.pgm", "pgm")
    back = import_costmap(tmp_path / "empty.pgm")
    assert not back.valid.any()


def test_export_rejects_unknown_format(tmp_path):
    _, target = _pair(15)
    with pytest.raises(ValueError):
        export_costmap(target, tmp_path / "m.xyz", "xyz")
