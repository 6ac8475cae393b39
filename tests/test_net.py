import dataclasses
import struct

import numpy as np
import pytest

from conftest import TOY_NET, make_toy_instance, random_sample, sample_loss
from marscost import net
from marscost.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from marscost.net import (
    MAX_WIDTH,
    ModelParams,
    NetConfig,
    forward,
    huber_loss,
    init_params,
    loss_and_grads,
    smoothness_loss,
)
from marscost.types import FormatError, GridSpec, Image, PointCloud

DELTA = 0.1
LAM = 0.1


def _zeroed(params: ModelParams) -> ModelParams:
    return params.like(np.zeros_like(params.theta))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_all_zero_params_is_half():
    params, sample = make_toy_instance(3)
    pred = forward(_zeroed(params), sample.cloud, sample.image, sample.target.grid)
    assert np.allclose(pred.values, 0.5, atol=1e-15)


def test_forward_output_dims_and_range():
    params, sample = make_toy_instance(3)
    pred = forward(params, sample.cloud, sample.image, sample.target.grid)
    grid = sample.target.grid
    assert pred.values.shape == (grid.rows, grid.cols)
    assert pred.valid.all()
    assert np.all(pred.values > 0.0) and np.all(pred.values < 1.0)
    assert np.all(np.isfinite(pred.values))


def test_forward_hands_its_values_to_the_costmap_uncopied(monkeypatch):
    params, sample = make_toy_instance(3)
    grid = sample.target.grid
    values = np.full((grid.rows, grid.cols), 0.25)
    monkeypatch.setattr(net, "forward_cached", lambda *args: (values, {}))
    pred = forward(params, sample.cloud, sample.image, grid)
    assert pred.values is values and not values.flags.writeable
    assert pred.valid.all() and not pred.valid.flags.writeable


def test_forward_empty_cloud_defined():
    params, sample = make_toy_instance(4)
    pred = forward(params, PointCloud.empty(), sample.image, sample.target.grid)
    assert np.all(pred.values > 0.0) and np.all(pred.values < 1.0)


def test_forward_another_image_differs_but_valid():
    params, sample = make_toy_instance(5)
    other = Image(np.random.default_rng(1).uniform(0, 1, sample.image.pixels.shape))
    a = forward(params, sample.cloud, sample.image, sample.target.grid)
    b = forward(params, sample.cloud, other, sample.target.grid)
    assert a.values.shape == b.values.shape
    assert not np.allclose(a.values, b.values)
    assert np.all(b.values > 0.0) and np.all(b.values < 1.0) and b.valid.all()


def test_forward_deterministic():
    params, sample = make_toy_instance(6)
    a = forward(params, sample.cloud, sample.image, sample.target.grid)
    b = forward(params, sample.cloud, sample.image, sample.target.grid)
    assert np.array_equal(a.values, b.values)


def test_forward_odd_grid_sizes():
    params, _ = make_toy_instance(3)
    rng = np.random.default_rng(0)
    for g in (7, 10, 15):
        grid = GridSpec((0.0, 0.0), 0.3, g, g)
        xyz = np.column_stack([rng.uniform(0, g * 0.3, (30, 2)), rng.uniform(-0.2, 0.4, 30)])
        cloud = PointCloud(xyz, rng.uniform(0, 1, (30, 3)))
        pred = forward(params, cloud, Image(rng.uniform(0, 1, (9, 9, 3))), grid)
        assert pred.values.shape == (g, g)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


ONE = np.ones((1, 1), dtype=bool)


def test_huber_zero_when_equal():
    target = random_sample(1).target
    value, _ = huber_loss(target.values.copy(), target.values, target.valid, DELTA)
    assert value == 0.0


def test_huber_quadratic_branch():
    value, _ = huber_loss(np.array([[0.15]]), np.array([[0.10]]), ONE, 0.1)
    assert value == pytest.approx(0.00125, abs=1e-15)


def test_huber_linear_branch():
    value, _ = huber_loss(np.array([[0.4]]), np.array([[0.1]]), ONE, 0.1)
    assert value == pytest.approx(0.025, abs=1e-15)


def test_huber_masked_cells_contribute_nothing():
    rng = np.random.default_rng(2)
    target = random_sample(2).target
    pred_values = rng.uniform(0, 1, target.values.shape)
    base, base_grad = huber_loss(pred_values, target.values, target.valid, DELTA)
    tweaked = pred_values.copy()
    tweaked[~target.valid] = rng.uniform(-5, 5, (~target.valid).sum())
    after, after_grad = huber_loss(tweaked, target.values, target.valid, DELTA)
    assert after == base
    assert np.array_equal(after_grad, base_grad) and np.all(after_grad[~target.valid] == 0.0)


def test_huber_rejects_no_valid_cells():
    with pytest.raises(ValueError, match="no valid target cells"):
        huber_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), DELTA)


def test_huber_rejects_misaligned_maps():
    with pytest.raises(ValueError, match="shapes differ"):
        huber_loss(np.zeros((1, 5)), np.zeros((5, 5)), np.ones((5, 5), dtype=bool), DELTA)


def test_huber_c1_at_threshold():
    # value tends to 0.5 delta^2 and slope to delta from both sides
    for e in (DELTA - 1e-9, DELTA + 1e-9):
        value, grad = huber_loss(np.array([[e]]), np.zeros((1, 1)), ONE, DELTA)
        assert value == pytest.approx(0.5 * DELTA**2, abs=1e-9)
        assert grad[0, 0] == pytest.approx(DELTA, abs=1e-9)


def test_smoothness_zero_iff_constant():
    assert smoothness_loss(np.full((4, 4), 0.7), LAM)[0] == 0.0
    bumpy = np.full((4, 4), 0.7)
    bumpy[1, 2] += 1e-6
    assert smoothness_loss(bumpy, LAM)[0] > 0.0


def test_smoothness_2x2_example():
    v = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert smoothness_loss(v, 0.1)[0] == pytest.approx(0.1, abs=1e-15)
    assert smoothness_loss(v, 0.2)[0] == pytest.approx(0.2, abs=1e-15)


def test_smoothness_degenerate_row():
    # only the horizontal direction exists: mean |diff| = 1
    assert smoothness_loss(np.array([[0.0, 1.0, 0.0, 1.0, 0.0]]), 0.1)[0] == pytest.approx(
        0.1, abs=1e-15)


def test_smoothness_matches_direct_formula():
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 1, (6, 9))
    h, w = v.shape
    expected = LAM * (
        np.abs(v[1:, :] - v[:-1, :]).sum() / ((h - 1) * w)
        + np.abs(v[:, 1:] - v[:, :-1]).sum() / (h * (w - 1))
    )
    assert smoothness_loss(v, LAM)[0] == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_huber_grads_zero_when_pred_equals_target():
    vals = np.random.default_rng(4).uniform(0, 1, (5, 5))
    value, grad = huber_loss(vals, vals.copy(), np.ones((5, 5), dtype=bool), DELTA)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_batch_mean_semantics():
    params, sample = make_toy_instance(3)
    total_1, _, _, grads_1 = loss_and_grads(params, [sample], DELTA, LAM)
    total_2, _, _, grads_2 = loss_and_grads(params, [sample, sample], DELTA, LAM)
    assert total_2 == pytest.approx(total_1, abs=1e-14)
    for name, grad_1 in grads_1.named_tensors():
        assert np.allclose(grad_1, getattr(grads_2, name), atol=1e-13)


def test_batch_permutation_invariance():
    params, a = make_toy_instance(3)
    b = random_sample(7, grid_size=16)
    t1, _, _, _ = loss_and_grads(params, [a, b], DELTA, LAM)
    t2, _, _, _ = loss_and_grads(params, [b, a], DELTA, LAM)
    assert t1 == pytest.approx(t2, abs=1e-15)


def test_gradients_match_finite_differences_spot_check():
    # full sweeps run in the acceptance gate; here a seeded random subset
    params, sample = make_toy_instance(3)
    _, _, _, grads = loss_and_grads(params, [sample], DELTA, LAM)
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for name, tensor in params.named_tensors():
        flat = tensor.reshape(-1)
        g = getattr(grads, name).reshape(-1)
        for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            hi = sample_loss(params, sample, DELTA, LAM)
            flat[i] = old - h
            lo = sample_loss(params, sample, DELTA, LAM)
            flat[i] = old
            num = (hi - lo) / (2 * h)
            worst = max(worst, abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-5))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# init and checkpoints
# ---------------------------------------------------------------------------


def test_init_deterministic_per_seed():
    a = init_params(TOY_NET, seed=9)
    b = init_params(TOY_NET, seed=9)
    c = init_params(TOY_NET, seed=10)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta, tb)
    assert any(
        not np.array_equal(ta, tc)
        for (_, ta), (_, tc) in zip(a.named_tensors(), c.named_tensors())
    )


def test_init_scales_with_fan_in():
    p = init_params(TOY_NET, seed=1)
    assert np.max(np.abs(p.pillar_w)) <= 1.0 / 3.0  # fan-in 9
    assert np.max(np.abs(p.film3_w1)) <= 1.0 / np.sqrt(384)


def test_param_count_toy_under_5k():
    assert init_params(TOY_NET, seed=0).n_parameters() <= 5000


def test_params_are_views_of_one_vector_in_layout_order():
    params = init_params(TOY_NET, seed=2)
    at = 0
    for name, tensor in params.named_tensors():
        assert getattr(params, name) is tensor
        assert np.array_equal(tensor.ravel(), params.theta[at : at + tensor.size])
        at += tensor.size
    assert at == params.n_parameters() == params.theta.size
    other = params.like(np.arange(float(at)))
    assert other.config == params.config and other.pillar_w[0, 1] == 1.0
    with pytest.raises(AttributeError, match="conv9_w"):
        params.conv9_w
    for bad in (np.zeros(at - 1), np.zeros(at + 1), np.zeros((1, at))):
        with pytest.raises(ValueError, match="theta has shape"):
            params.like(bad)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(TOY_NET, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.config == params.config  # every width, max_points_per_pillar included
    assert back.theta.tobytes() == params.theta.tobytes()  # bit-exact float64 round trip
    assert back.theta.flags.writeable and back.theta.flags.owndata


def test_checkpoint_header_is_the_net_config_widths(tmp_path):
    """The header holds the fields of NetConfig in order; a new width needs a new version."""
    names = [f.name for f in dataclasses.fields(NetConfig)]
    assert (MAGIC, names) == (b"MCCKPT\x02\x00", [
        "channels", "stage2_channels", "stage3_channels", "film_hidden", "head_channels",
        "max_points_per_pillar",
    ])
    cfg = NetConfig(1, 2, 3, 4, 5, 6)
    params = init_params(cfg, seed=0)
    save_checkpoint(params, tmp_path / "model.ckpt")
    blob = (tmp_path / "model.ckpt").read_bytes()
    theta = params.theta.astype("<f8").tobytes()
    assert blob == MAGIC + struct.pack("<6I", 1, 2, 3, 4, 5, 6) + theta


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    from marscost.types import FormatError

    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_checkpoint_truncated_anywhere_names_the_file(tmp_path):
    good = tmp_path / "model.ckpt"
    save_checkpoint(init_params(NetConfig(1, 1, 1, 1, 1, 1), seed=0), good)
    data = good.read_bytes()
    bad = tmp_path / "cut.ckpt"
    for n in range(len(data)):
        bad.write_bytes(data[:n])
        with pytest.raises(FormatError, match=r"cut\.ckpt"):
            load_checkpoint(bad)


def test_checkpoint_trailing_byte_and_wrong_shape_name_the_file(tmp_path):
    params = init_params(TOY_NET, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    data = path.read_bytes()
    size = 8 * params.n_parameters()
    path.write_bytes(data + b"\x00")
    with pytest.raises(FormatError, match=rf"model\.ckpt: {size + 1} bytes of parameters, "
                                          rf"but the widths in its header take {size}"):
        load_checkpoint(path)
    wider = dataclasses.replace(TOY_NET, head_channels=TOY_NET.head_channels + 1)
    header = struct.pack("<6I", *dataclasses.astuple(wider))
    path.write_bytes(MAGIC + header + data[len(MAGIC) + len(header) :])
    with pytest.raises(FormatError, match=rf"model\.ckpt: {size} bytes of parameters, but the "
                                          rf"widths in its header take {8 * wider.n_parameters()}"):
        load_checkpoint(path)


def _checkpoint_with_width(path, field, width):
    """A toy checkpoint whose header gives ``field`` the width ``width``."""
    save_checkpoint(init_params(TOY_NET, seed=0), path)
    data = bytearray(path.read_bytes())
    at = len(MAGIC) + 4 * [f.name for f in dataclasses.fields(NetConfig)].index(field)
    data[at : at + 4] = struct.pack("<I", width)
    path.write_bytes(data)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NetConfig)])
def test_checkpoint_zero_width_names_the_file(tmp_path, field):
    path = tmp_path / "model.ckpt"
    _checkpoint_with_width(path, field, 0)
    with pytest.raises(FormatError, match=rf"model\.ckpt: {field} must be positive"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NetConfig)])
def test_checkpoint_width_past_the_bound_names_the_file(tmp_path, field):
    path = tmp_path / "model.ckpt"
    _checkpoint_with_width(path, field, MAX_WIDTH + 1)
    with pytest.raises(FormatError, match=rf"model\.ckpt: {field} must be at most {MAX_WIDTH}"):
        load_checkpoint(path)


def test_checkpoint_old_version_and_short_header_name_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TOY_NET, seed=0), path)
    data = path.read_bytes()
    path.write_bytes(b"MCCKPT\x01\x00" + data[len(MAGIC) :])
    with pytest.raises(FormatError, match=r"model\.ckpt: model checkpoint version 1, "
                                          r"this program reads version 2"):
        load_checkpoint(path)
    path.write_bytes(data[: len(MAGIC) + 23])
    with pytest.raises(FormatError, match=r"model\.ckpt: truncated in the widths header"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_values_naming_the_tensor(tmp_path):
    params = init_params(TOY_NET, seed=0)
    path = tmp_path / "model.ckpt"
    bad = params.like(params.theta.copy())
    bad.conv2_w[0, 0, 0, 1] = np.inf
    save_checkpoint(bad, path)
    with pytest.raises(FormatError, match=r"model\.ckpt: tensor 'conv2_w' holds non-finite values"):
        load_checkpoint(path)
