import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_NET, make_toy_instance, random_sample
from marscost import train
from marscost.bev import embed_image
from marscost.checkpoint import load_checkpoint, save_checkpoint
from marscost.net import init_params, loss_and_grads
from marscost.train import (
    AdamState,
    AugmentConfig,
    TrainConfig,
    adam_step,
    augment,
    fit,
    rotate_sample,
    translate_sample,
)
from marscost.types import DenseCostmap, Sample

NO_AUG = AugmentConfig(rotate=False, translate=False, noise_sigma=0.0)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _zero_grads(params):
    return params.like(np.zeros_like(params.theta))


def test_adam_zero_grads_leave_params_unchanged():
    params = init_params(TOY_NET, seed=0)
    state = AdamState.fresh(params)
    new_params, new_state = adam_step(params, _zero_grads(params), state, lr=1e-2)
    for (_, a), (_, b) in zip(params.named_tensors(), new_params.named_tensors()):
        assert np.array_equal(a, b)
    assert new_state.k == 1


def test_adam_first_step_is_signed_lr():
    # closed form: m_hat / (sqrt(v_hat) + eps) = sign(g) up to eps rounding
    params = init_params(TOY_NET, seed=0)
    state = AdamState.fresh(params)
    grads = _zero_grads(params)
    grads.head_b2[0] = 0.37
    lr = 1e-3
    new_params, _ = adam_step(params, grads, state, lr)
    delta = new_params.head_b2[0] - params.head_b2[0]
    assert abs(delta + lr * np.sign(0.37)) <= lr * 1e-6


def test_adam_deterministic_with_cloned_state():
    params = init_params(TOY_NET, seed=1)
    rng = np.random.default_rng(2)
    grads = params.like(rng.normal(0, 1e-3, params.theta.shape))
    s1 = AdamState.fresh(params)
    p_a, s_a = adam_step(params, grads, s1, 1e-3)
    p_b, s_b = adam_step(params, grads, s1, 1e-3)  # the step returns a new state
    assert s1.k == 0 and not s1.m.any() and not s1.v.any()
    for (_, a), (_, b) in zip(p_a.named_tensors(), p_b.named_tensors()):
        assert np.array_equal(a, b)
    assert s_a.k == s_b.k
    assert np.array_equal(s_a.m, s_b.m)
    assert np.array_equal(s_a.v, s_b.v)


def test_adam_rejects_non_finite_grads():
    params = init_params(TOY_NET, seed=1)
    grads = _zero_grads(params)
    grads.conv2_w[0, 0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="conv2_w"):
        adam_step(params, grads, AdamState.fresh(params), 1e-3)


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan])
def test_adam_and_train_config_reject_non_positive_lr(lr):
    params = init_params(TOY_NET, seed=1)
    with pytest.raises(ValueError, match="learning rate"):
        adam_step(params, _zero_grads(params), AdamState.fresh(params), lr)
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=lr)


def test_adam_step_does_not_mutate_inputs():
    params = init_params(TOY_NET, seed=3)
    before = params.like(params.theta.copy())
    state = AdamState.fresh(params)
    grads = params.like(np.full(params.theta.shape, 0.1))
    adam_step(params, grads, state, 1e-2)
    for (_, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
        assert np.array_equal(a, b)
    assert state.k == 0


def test_adam_matches_a_per_tensor_reference_bit_for_bit():
    params = init_params(TOY_NET, seed=4)
    rng = np.random.default_rng(8)
    state = AdamState.fresh(params)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    ref = {n: t.copy() for n, t in params.named_tensors()}
    ref_m = {n: np.zeros_like(t) for n, t in ref.items()}
    ref_v = {n: np.zeros_like(t) for n, t in ref.items()}
    for k in (1, 2, 3):
        grads = params.like(rng.normal(0, 1e-2, params.theta.shape))
        params, state = adam_step(params, grads, state, lr)
        for name, g in grads.named_tensors():
            ref_m[name] = b1 * ref_m[name] + (1.0 - b1) * g
            ref_v[name] = b2 * ref_v[name] + (1.0 - b2) * g**2
            m_hat = ref_m[name] / (1.0 - b1**k)
            v_hat = ref_v[name] / (1.0 - b2**k)
            ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert state.k == 3
    for name, tensor in params.named_tensors():
        assert tensor.tobytes() == ref[name].tobytes(), name
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m.values()]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v.values()]).tobytes()


def test_every_tensor_is_a_view_of_its_theta(tmp_path):
    params, sample = make_toy_instance(3)
    _, _, _, grads = loss_and_grads(params, [sample], 0.1, 0.1)
    stepped, _ = adam_step(params, grads, AdamState.fresh(params), 1e-3)
    save_checkpoint(stepped, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    for p in (init_params(TOY_NET, seed=0), stepped, loaded, grads):
        for name, tensor in p.named_tensors():
            assert np.shares_memory(tensor, p.theta), name


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_augment_identity_draw():
    sample = random_sample(20)
    out = augment(sample, seed=0, cfg=NO_AUG)
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)
    assert np.array_equal(out.image.pixels, sample.image.pixels)
    assert np.array_equal(out.target.values, sample.target.values)
    assert np.array_equal(out.target.valid, sample.target.valid)


def test_augment_with_every_transform_off_builds_no_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError(f"augment built a generator from {seed!r}")

    sample = random_sample(20)
    monkeypatch.setattr(train.np.random, "default_rng", no_generator)
    no_shift = AugmentConfig(rotate=False, translate=True, max_shift_cells=0, noise_sigma=0.0)
    for cfg in (NO_AUG, no_shift):
        assert augment(sample, seed=[1, 2, 3], cfg=cfg) is sample


def test_rotation_composition():
    sample = random_sample(21)
    twice = rotate_sample(rotate_sample(sample, 1), 1)
    once = rotate_sample(sample, 2)
    assert np.allclose(twice.cloud.xyz, once.cloud.xyz, atol=1e-12)
    assert np.array_equal(twice.target.values, once.target.values)
    assert np.array_equal(twice.target.valid, once.target.valid)


def test_rotation_four_times_is_identity():
    sample = random_sample(22)
    out = sample
    for _ in range(4):
        out = rotate_sample(out, 1)
    assert np.allclose(out.cloud.xyz, sample.cloud.xyz, atol=1e-12)
    assert np.array_equal(out.target.values, sample.target.values)


def test_rotation_preserves_point_count_and_colors():
    sample = random_sample(23)
    out = rotate_sample(sample, 3)
    assert len(out.cloud) == len(sample.cloud)
    assert np.array_equal(out.cloud.rgb, sample.cloud.rgb)
    assert np.array_equal(np.sort(out.target.values, axis=None),
                          np.sort(sample.target.values, axis=None))


def test_translation_masks_shifted_in_cells():
    sample = random_sample(24)
    out = translate_sample(sample, shift_cols=2, shift_rows=-1)
    assert not out.target.valid[:, :2].any()
    assert not out.target.valid[-1:, :].any()
    assert len(out.cloud) == len(sample.cloud)
    # overlap: new[i - 1, j + 2] = old[i, j]
    mask = out.target.valid[:-1, 2:]
    old_vals = np.where(sample.target.valid, sample.target.values, 0.0)
    assert np.array_equal(out.target.values[:-1, 2:][mask], old_vals[1:, :-2][mask])
    assert np.array_equal(out.target.valid[:-1, 2:], sample.target.valid[1:, :-2])


def test_augment_raises_when_the_shift_moves_every_labelled_cell_away():
    sample = random_sample(24)
    valid = np.zeros_like(sample.target.valid)
    valid[0, 0] = True  # one labelled corner: a negative shift on either axis moves it away
    target = DenseCostmap(sample.target.grid, sample.target.values, valid)
    corner = Sample(sample.cloud, sample.image, target)
    cfg = AugmentConfig(rotate=False, translate=True, max_shift_cells=1)
    kept = away = 0
    for seed in range(12):
        sc, sr = np.random.default_rng(seed).integers(-1, 2, size=2)  # augment's one draw
        if sc < 0 or sr < 0:
            with pytest.raises(ValueError, match=rf"^a shift of \({sc}, {sr}\) cells leaves no "
                               r"labelled cell in the 12x12-cell window; lower "
                               r"train\.augment\.max_shift_cells \(now 1\)$"):
                augment(corner, seed, cfg)
            away += 1
        else:
            out = augment(corner, seed, cfg)
            assert np.argwhere(out.target.valid).tolist() == [[sr, sc]]
            assert out.target.values[sr, sc] == sample.target.values[0, 0]
            kept += 1
    assert kept and away


def test_gaussian_noise_zero_sigma_unchanged():
    sample = random_sample(25)
    out = augment(sample, seed=5, cfg=AugmentConfig(rotate=False, translate=False, noise_sigma=0.0))
    assert np.array_equal(out.cloud.xyz, sample.cloud.xyz)
    assert np.array_equal(out.image.pixels, sample.image.pixels)


def test_noise_never_touches_target():
    sample = random_sample(26)
    out = augment(
        sample, seed=6, cfg=AugmentConfig(rotate=False, translate=False, noise_sigma=0.05)
    )
    assert np.array_equal(out.target.values, sample.target.values)
    assert np.array_equal(out.target.valid, sample.target.valid)
    assert not np.array_equal(out.cloud.xyz, sample.cloud.xyz)
    assert out.image.pixels.min() >= 0.0 and out.image.pixels.max() <= 1.0


def test_noise_gives_a_new_image_and_embedding():
    sample = random_sample(27)
    out = augment(sample, seed=7, cfg=AugmentConfig(noise_sigma=0.05))
    assert out.image is not sample.image
    assert not np.array_equal(embed_image(out.image), embed_image(sample.image))
    quiet = augment(sample, seed=7, cfg=AugmentConfig(noise_sigma=0.0))
    assert quiet.image is sample.image  # rotation and translation keep the image


def test_augment_deterministic_per_seed():
    sample = random_sample(27)
    cfg = AugmentConfig(rotate=True, translate=True, max_shift_cells=2, noise_sigma=0.02)
    a = augment(sample, seed=9, cfg=cfg)
    b = augment(sample, seed=9, cfg=cfg)
    c = augment(sample, seed=10, cfg=cfg)
    assert np.array_equal(a.cloud.xyz, b.cloud.xyz)
    assert np.array_equal(a.target.values, b.target.values)
    assert not (
        np.array_equal(a.cloud.xyz, c.cloud.xyz)
        and np.array_equal(a.target.values, c.target.values)
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_zero_epochs_returns_initial_params():
    sample = random_sample(30, grid_size=16)
    cfg = TrainConfig(epochs=0, seed=4, augment=NO_AUG)
    params, history = fit([sample], cfg, TOY_NET)
    assert history == []
    expected = init_params(TOY_NET, seed=4)
    for (_, a), (_, b) in zip(params.named_tensors(), expected.named_tensors()):
        assert np.array_equal(a, b)


def test_fit_same_seed_identical_history():
    data = [random_sample(31 + i, grid_size=16) for i in range(5)]
    cfg = TrainConfig(
        epochs=3, batch_size=2, seed=5,
        augment=AugmentConfig(rotate=True, translate=True, max_shift_cells=1, noise_sigma=0.01),
    )
    _, h1 = fit(data, cfg, TOY_NET)
    _, h2 = fit(data, cfg, TOY_NET)
    assert [(r.step, r.huber, r.smooth, r.total, r.grad_norm) for r in h1] == [
        (r.step, r.huber, r.smooth, r.total, r.grad_norm) for r in h2
    ]
    assert len(h1) == 3 * 3  # ceil(5 / 2) batches per epoch


def test_fit_different_seed_differs():
    data = [random_sample(40 + i, grid_size=16) for i in range(4)]
    _, h1 = fit(data, TrainConfig(epochs=2, batch_size=2, seed=1, augment=NO_AUG), TOY_NET)
    _, h2 = fit(data, TrainConfig(epochs=2, batch_size=2, seed=2, augment=NO_AUG), TOY_NET)
    assert [r.total for r in h1] != [r.total for r in h2]


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        fit([], TrainConfig(epochs=1), TOY_NET)


def test_fit_records_the_global_gradient_norm_of_each_step():
    sample = random_sample(44, grid_size=16)
    cfg = TrainConfig(epochs=1, batch_size=1, seed=6, augment=NO_AUG)
    _, history = fit([sample], cfg, TOY_NET)
    params = init_params(TOY_NET, seed=6)
    _, _, _, grads = loss_and_grads(params, [sample], cfg.huber_delta, cfg.smooth_lambda)
    flat = np.concatenate([g.ravel() for _, g in grads.named_tensors()])
    assert history[0].grad_norm == np.linalg.norm(flat) > 0.0


# A short seeded fit at the acceptance widths, then the sha256 of its weights and
# the thread count numpy's bundled OpenBLAS reports (0 if numpy bundles another BLAS)
_THREADED_FIT = """
import ctypes
import hashlib
from pathlib import Path

import numpy as np  # loaded before marscost, so only a library call can pin BLAS
from marscost.net import NetConfig
from marscost.train import AugmentConfig, TrainConfig, fit
from marscost.types import DenseCostmap, GridSpec, Image, PointCloud, Sample

rng = np.random.default_rng(5)
grid = GridSpec((0.0, 0.0), 0.25, 32, 32)
samples = [
    Sample(
        PointCloud(np.column_stack([rng.uniform(0, 8, (400, 2)), rng.uniform(-0.4, 0.6, 400)]),
                   rng.uniform(0, 1, (400, 3))),
        Image(rng.uniform(0, 1, (10, 14, 3))),
        DenseCostmap(grid, rng.uniform(0, 1, (32, 32)), rng.uniform(0, 1, (32, 32)) > 0.3),
    )
    for _ in range(4)
]
net = NetConfig(channels=8, stage2_channels=12, stage3_channels=16, film_hidden=8, head_channels=16)
cfg = TrainConfig(batch_size=2, epochs=5, seed=3, augment=AugmentConfig(rotate=False, translate=False))
params, _ = fit(samples, cfg, net)
digest = hashlib.sha256()
for _, tensor in params.named_tensors():
    digest.update(tensor.tobytes())
libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_() if libs else 0
print(digest.hexdigest(), threads)
"""


def test_trained_weights_do_not_depend_on_the_blas_thread_setting():
    """Importing marscost puts BLAS on one thread even when the environment asks
    for two and numpy is already loaded, so the weights match a one-thread run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREADED_FIT], env=env, capture_output=True,
                             text=True, check=True)
        runs.append(run.stdout.split())
    (digest_2, threads_2), (digest_1, threads_1) = runs
    assert len(digest_2) == 64 and digest_2 == digest_1
    assert threads_2 in ("0", "1") and threads_1 in ("0", "1")
