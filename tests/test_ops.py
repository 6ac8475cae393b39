import numpy as np
import pytest

from marscost.ops import _im2col_rows, conv2d_forward

# the four convolutions of the acceptance regressor (criteria 5 and 6) on its
# 32x32 grid: input shape, kernel shape, stride, pad
ACCEPT_CONVS = (
    ((32, 32, 8), (3, 3, 8, 12), 2, 1),  # conv1
    ((16, 16, 12), (3, 3, 12, 16), 2, 1),  # conv2
    ((16, 16, 28), (3, 3, 28, 16), 1, 1),  # head conv
    ((16, 16, 16), (1, 1, 16, 1), 1, 0),  # head projection
)


def _im2col_reference(x, kh, kw, stride, pad):
    """Oracle: the patch matrix from a strided sliding-window view, rows in
    output order, columns in (ki, kj, channel) order."""
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride]  # (ho, wo, cin, kh, kw)
    ho, wo = win.shape[:2]
    return win.transpose(0, 1, 3, 4, 2).reshape(ho * wo, kh * kw * x.shape[2])


def _seeded_convs(n):
    rng = np.random.default_rng(31)
    out = []
    while len(out) < n:
        k = int(rng.choice([1, 3]))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        h, w = (int(v) for v in rng.integers(1, 12, 2))
        if h + 2 * pad < k or w + 2 * pad < k:
            continue
        cin, cout = (int(v) for v in rng.integers(1, 6, 2))
        out.append(((h, w, cin), (k, k, cin, cout), stride, pad))
    return out


CONVS = ACCEPT_CONVS + tuple(_seeded_convs(60))


def test_seeded_convs_cover_every_stride_pad_and_kernel():
    kinds = {(ws[0], stride, pad) for _, ws, stride, pad in CONVS}
    assert kinds == {(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)}
    assert any(xs[0] % 2 and xs[1] % 2 for xs, *_ in CONVS)  # odd sizes


@pytest.mark.parametrize("x_shape, w_shape, stride, pad", CONVS)
def test_conv_im2col_matches_sliding_window_bit_for_bit(x_shape, w_shape, stride, pad):
    rng = np.random.default_rng(sum(x_shape) * 7 + sum(w_shape) + stride + pad)
    x = rng.normal(0, 1, x_shape)
    w = rng.normal(0, 1, w_shape)
    b = rng.normal(0, 1, w_shape[3])
    y, cache = conv2d_forward(x, w, b, stride=stride, pad=pad)
    patches = _im2col_reference(x, w_shape[0], w_shape[1], stride, pad)
    y_ref = patches @ w.reshape(-1, w_shape[3]) + b
    got = cache["patches"]
    assert (got.dtype, got.shape) == (patches.dtype, patches.shape)
    assert got.tobytes() == patches.tobytes()
    ho, wo = cache["out_hw"]
    assert (y.dtype, y.shape) == (y_ref.dtype, (ho, wo, w_shape[3]))
    assert y.tobytes() == y_ref.tobytes()


def test_im2col_rows_are_cached_and_read_only():
    rows = _im2col_rows(7, 9, 3, 3, 2)
    assert _im2col_rows(7, 9, 3, 3, 2) is rows
    assert rows.shape == (3 * 4 * 9,) and not rows.flags.writeable
    assert rows.min() == 0 and rows.max() == 7 * 9 - 1
