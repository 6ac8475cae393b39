import numpy as np
import pytest

from marscost.ops import (
    _col2im,
    _col2im_rows,
    _im2col_rows,
    _interp_matrix,
    conv2d_backward,
    conv2d_forward,
    resize_bilinear,
    resize_bilinear_backward,
    sigmoid,
)

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


STRIDED = [(xs, ws, stride, pad) for xs, ws, stride, pad in CONVS if stride > 1]


def test_col2im_rows_are_cached_and_read_only():
    rows = _col2im_rows(7, 9, 3, 3, 2, 1)
    assert _col2im_rows(7, 9, 3, 3, 2, 1) is rows
    assert rows.shape == (2 * 2, 7 * 9) and not rows.flags.writeable


@pytest.mark.parametrize("x_shape, w_shape, stride, pad", STRIDED)
def test_col2im_rows_list_each_pixels_taps_in_order(x_shape, w_shape, stride, pad):
    """Every in-bounds (output pixel, tap) row of the im2col gather appears once, in
    the column of the unpadded pixel it reads, columns in (ki, kj) order; every
    other slot is the zero row after the im2col rows."""
    (h, w, _), (kh, kw, _, _) = x_shape, w_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    src = _im2col_rows(hp, wp, kh, kw, stride)  # padded pixel read by each im2col row
    want = [[] for _ in range(h * w)]
    for r, q in enumerate(src.tolist()):
        y, x = q // wp - pad, q % wp - pad
        if 0 <= y < h and 0 <= x < w:
            want[y * w + x].append(r)
    want = [sorted(taps, key=lambda r: r % (kh * kw)) for taps in want]  # by ki * kw + kj
    rows = _col2im_rows(h, w, kh, kw, stride, pad)
    zero = len(src)
    assert rows.shape == (-(-kh // stride) * -(-kw // stride), h * w)
    for col, taps in zip(rows.T.tolist(), want):
        assert [r for r in col if r != zero] == taps
        assert col.count(zero) == len(col) - len(taps)


def _scatter_reference(dcol, h, w, kh, kw, stride, pad):
    """Oracle: each tap's rows added onto strided views of a zeroed padded input."""
    ho, wo = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    dcol = dcol[:-1].reshape(ho, wo, kh, kw, -1)
    dxp = np.zeros((h + 2 * pad, w + 2 * pad, dcol.shape[-1]))
    for ki in range(kh):
        for kj in range(kw):
            dxp[ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcol[:, :, ki, kj]
    return dxp[pad : pad + h, pad : pad + w]


@pytest.mark.parametrize("x_shape, w_shape, stride, pad", STRIDED)
def test_col2im_sums_from_positive_zero_like_the_scatter(x_shape, w_shape, stride, pad):
    """A pixel whose taps are all -0.0 reads +0.0, as on the scatter's np.zeros. The
    product ``dy @ w.T`` never holds a -0.0 (the GEMM sums from +0.0), so the rows
    are given here directly: normal values with seeded patches of -0.0."""
    (h, w, cin), (kh, kw, _, _) = x_shape, w_shape
    rng = np.random.default_rng(sum(x_shape) * 13 + sum(w_shape) + pad)
    n = len(_im2col_rows(h + 2 * pad, w + 2 * pad, kh, kw, stride))
    dcol = rng.normal(0, 1, (n + 1, cin))
    dcol[rng.random(n + 1) < 0.5] = -0.0
    dcol[n] = 0.0
    dx = _col2im(dcol, h, w, kh, kw, stride, pad)
    want = _scatter_reference(dcol, h, w, kh, kw, stride, pad)
    assert (dx.dtype, dx.shape) == (want.dtype, want.shape)
    assert dx.tobytes() == want.tobytes()


def _conv_backward_reference(cache, dy):
    """Oracle: the per-tap col2im scatter that ``conv2d_backward`` ran at every stride."""
    w = cache["w"]
    kh, kw, cin, cout = w.shape
    ho, wo = cache["out_hw"]
    stride, pad = cache["stride"], cache["pad"]
    h, wid, _ = cache["x_shape"]
    dy_flat = dy.reshape(ho * wo, cout)
    dw = (cache["patches"].T @ dy_flat).reshape(kh, kw, cin, cout)
    db = dy_flat.sum(axis=0)
    dcol = (dy_flat @ w.reshape(kh * kw * cin, cout).T).reshape(ho, wo, kh, kw, cin)
    dxp = np.zeros((h + 2 * pad, wid + 2 * pad, cin))
    for ki in range(kh):
        for kj in range(kw):
            dxp[ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcol[:, :, ki, kj]
    return dxp[pad : pad + h, pad : pad + wid], dw, db


@pytest.mark.parametrize("x_shape, w_shape, stride, pad", CONVS)
def test_conv_backward_matches_tap_loop(x_shape, w_shape, stride, pad):
    """Strided: the same sums as the scatter, bit for bit. Stride 1: a correlation
    with the flipped kernel, which sums in another order, within 1e-12 relative.
    Each conv runs twice: on a normal ``dy``, and on one with seeded patches of
    cells zeroed as a ReLU mask leaves them, +0.0 or -0.0 by the cell's sign."""
    rng = np.random.default_rng(sum(x_shape) * 11 + sum(w_shape) + stride + pad)
    x = rng.normal(0, 1, x_shape)
    w = rng.normal(0, 1, w_shape)
    y, cache = conv2d_forward(x, w, rng.normal(0, 1, w_shape[3]), stride=stride, pad=pad)
    dy = rng.normal(0, 1, y.shape)
    masked = dy * (rng.random(y.shape) < 0.5)
    for y0, x0 in rng.integers(0, y.shape[:2], (2, 2)):  # two all-channel patches of zeros
        masked[y0 : y0 + 3, x0 : x0 + 3] *= 0.0
    assert np.signbit(masked[masked == 0]).any()
    for dy in (dy, masked):
        dx, dw, db = conv2d_backward(cache, dy)
        dx_ref, dw_ref, db_ref = _conv_backward_reference(cache, dy)
        for got, want in ((dx, dx_ref), (dw, dw_ref), (db, db_ref)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert dw.tobytes() == dw_ref.tobytes() and db.tobytes() == db_ref.tobytes()
        if stride == 1:
            assert np.abs(dx - dx_ref).max() <= 1e-12 * np.abs(dx_ref).max()
        else:
            assert dx.tobytes() == dx_ref.tobytes()


def test_conv_backward_one_by_one_kernel_with_padding():
    # only the border of the padded input sees the kernel alone; its gradient is cropped
    rng = np.random.default_rng(41)
    x, w = rng.normal(0, 1, (4, 5, 3)), rng.normal(0, 1, (1, 1, 3, 2))
    y, cache = conv2d_forward(x, w, np.zeros(2), stride=1, pad=1)
    dy = rng.normal(0, 1, y.shape)
    dx, _, _ = conv2d_backward(cache, dy)
    assert y.shape == (6, 7, 2)
    assert np.abs(dx - dy[1:-1, 1:-1] @ w[0, 0].T).max() <= 1e-15


# (source, output) sizes of the regressor's resizes and of odd up- and down-samplings
RESIZES = [((8, 8, 16), (16, 16)), ((16, 16, 1), (32, 32)), ((5, 7, 3), (11, 4)), ((9, 6, 2), (3, 3)),
           ((1, 1, 4), (3, 2)), ((6, 6, 5), (6, 6))]


def _resize_reference(x, out_h, out_w):
    """Oracle: the one dense contraction the 3-D resize ran as."""
    ry, rx = _interp_matrix(x.shape[0], out_h), _interp_matrix(x.shape[1], out_w)
    return np.einsum("ih,hwc,jw->ijc", ry, x, rx, optimize=True)


def _resize_backward_reference(dy, in_h, in_w):
    ry, rx = _interp_matrix(in_h, dy.shape[0]), _interp_matrix(in_w, dy.shape[1])
    return np.einsum("ih,ijc,jw->hwc", ry, dy, rx, optimize=True)


@pytest.mark.parametrize("shape, out", RESIZES)
def test_resize_matches_dense_contraction_and_is_its_own_adjoint(shape, out):
    rng = np.random.default_rng(sum(shape) + 3 * sum(out))
    x = rng.normal(0, 1, shape)
    dy = rng.normal(0, 1, (*out, shape[2]))
    y = resize_bilinear(x, *out)
    dx = resize_bilinear_backward(dy, *shape[:2])
    for got, want in ((y, _resize_reference(x, *out)), (dx, _resize_backward_reference(dy, *shape[:2]))):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    lhs, rhs = np.vdot(y, dy), np.vdot(x, dx)  # <R x, dy> == <x, R^T dy>
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _sigmoid_reference(x):
    """Oracle: each sign's side of the logistic function computed on its own cells."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_two_sided_formula_bit_for_bit():
    edges = np.array([0.0, 1e-300, 36.0, 745.0, 800.0, np.inf])
    for x in (np.concatenate([edges, -edges]), np.random.default_rng(43).normal(0, 30, (16, 16))):
        got, want = sigmoid(x), _sigmoid_reference(x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert sigmoid(np.array([-np.inf, -0.0, 0.0, np.inf])).tolist() == [0.0, 0.5, 0.5, 1.0]
