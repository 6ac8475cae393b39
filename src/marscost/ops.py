"""Dense 2-D layer primitives with explicit reverse-mode gradients.

Feature maps are channels-last ``(H, W, C)`` float64 arrays. Convolutions use
zero padding; bilinear resizing uses half-pixel sample centers with border
replication, expressed as fixed interpolation matrices so the backward pass
is just the transposed product.
"""

from functools import lru_cache

import numpy as np


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0):
    """Cross-correlate ``x (H, W, Cin)`` with ``w (kh, kw, Cin, Cout)``.

    Returns ``(y, cache)`` where ``y`` has shape
    ``((H + 2 pad - kh) // stride + 1, ..., Cout)``.
    """
    if x.ndim != 3 or w.ndim != 4 or x.shape[2] != w.shape[2]:
        raise ValueError(f"input shape {x.shape} does not match kernel {w.shape}")
    patches, y = _correlate(x, w, stride, pad, pad)
    cache = {
        "patches": patches,
        "w": w,
        "x_shape": x.shape,
        "stride": stride,
        "pad": pad,
        "out_hw": y.shape[:2],
    }
    return y + b, cache


def _correlate(x: np.ndarray, w: np.ndarray, stride: int, ph: int, pw: int):
    """``(patches, y)``: the im2col matrix of ``x`` zero-padded by ``ph`` rows and
    ``pw`` columns on each side, and its product with ``w`` (no bias)."""
    kh, kw, cin, cout = w.shape
    hp, wp = x.shape[0] + 2 * ph, x.shape[1] + 2 * pw
    if hp < kh or wp < kw:
        raise ValueError("kernel larger than padded input")
    xp = x
    if ph or pw:  # zero border, as np.pad gives, at a fraction of its cost
        xp = np.zeros((hp, wp, cin), dtype=x.dtype)
        xp[ph : hp - ph, pw : wp - pw] = x
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    rows = _im2col_rows(hp, wp, kh, kw, stride)
    patches = xp.reshape(hp * wp, cin).take(rows, axis=0).reshape(ho * wo, kh * kw * cin)
    return patches, (patches @ w.reshape(kh * kw * cin, cout)).reshape(ho, wo, cout)


@lru_cache(maxsize=None)
def _im2col_rows(hp: int, wp: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat input row of every (output pixel, kernel tap) pair, taps in (ki, kj) order.

    Gathering ``x.reshape(hp * wp, cin)`` at these rows gives the im2col patch
    matrix of a ``(kh, kw)`` kernel sliding with ``stride`` over an
    ``(hp, wp)`` input: row ``(oy * wo + ox) * kh * kw + ki * kw + kj`` of the
    gather is input pixel ``(oy * stride + ki, ox * stride + kj)``.
    """
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    top_left = (np.arange(ho)[:, None] * wp + np.arange(wo)[None, :]) * stride
    taps = np.arange(kh)[:, None] * wp + np.arange(kw)[None, :]
    rows = (top_left.reshape(-1, 1) + taps.reshape(1, -1)).reshape(-1)
    rows.setflags(write=False)
    return rows


def conv2d_backward(cache, dy: np.ndarray):
    """Gradients ``(dx, dw, db)`` for :func:`conv2d_forward`.

    At stride 1, ``dx`` on the padded input is ``dy`` zero-padded by the kernel size
    less one and correlated with the kernel flipped in space, its channel axes
    swapped. A strided conv gathers instead: each input pixel sums the rows of
    ``dy @ w.T`` that its taps put there (:func:`_col2im_rows`), in (ki, kj)
    order from +0.0, the sum a per-tap scatter onto ``np.zeros`` makes."""
    w = cache["w"]
    kh, kw, cin, cout = w.shape
    ho, wo = cache["out_hw"]
    stride, pad = cache["stride"], cache["pad"]
    h, wid, _ = cache["x_shape"]
    dy_flat = dy.reshape(ho * wo, cout)
    dw = (cache["patches"].T @ dy_flat).reshape(kh, kw, cin, cout)
    db = dy_flat.sum(axis=0)
    if stride == 1:
        w_adj = w[::-1, ::-1].transpose(0, 1, 3, 2)
        _, dxp = _correlate(dy.reshape(ho, wo, cout), w_adj, 1, kh - 1, kw - 1)
        return (dxp[pad : pad + h, pad : pad + wid] if pad else dxp), dw, db
    n = ho * wo * kh * kw
    dcol = np.empty((n + 1, cin))  # one row per (output pixel, tap), then the zero row
    np.matmul(dy_flat, w.reshape(kh * kw * cin, cout).T, out=dcol[:n].reshape(ho * wo, kh * kw * cin))
    dcol[n] = 0.0
    return _col2im(dcol, h, wid, kh, kw, stride, pad), dw, db


def _col2im(dcol: np.ndarray, h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """``(h, w, cin)`` sums of the rows of ``dcol`` that each unpadded input pixel's
    taps land on; ``dcol`` holds a row per (output pixel, tap) pair in im2col
    order and a zero row after them. Each sum starts from +0.0, so a lone -0.0
    tap reads as +0.0, and adds its taps in (ki, kj) order."""
    rows = _col2im_rows(h, w, kh, kw, stride, pad)
    dx = 0.0 + dcol.take(rows[0], axis=0)
    # a slab at a time: one gather of all slots (256 KiB for conv1) had malloc fault in fresh pages every call
    for slot in rows[1:]:
        dx += dcol.take(slot, axis=0)
    return dx.reshape(h, w, dcol.shape[1])


@lru_cache(maxsize=None)
def _col2im_rows(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """``(ceil(kh / stride) * ceil(kw / stride), h * w)`` rows of ``dcol`` to sum per pixel.

    Column ``y * w + x`` lists the im2col rows (see :func:`_im2col_rows`) of the
    (output pixel, tap) pairs whose tap lands on unpadded input pixel ``(y, x)``,
    taps in (ki, kj) order; a slot with no such pair holds ``ho * wo * kh * kw``,
    the zero row after them.
    """
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1

    def taps(n, k, n_out):
        # per pixel and slot: the tap index along this axis, its output index, and whether both exist
        p = np.arange(pad, pad + n)[:, None]
        tap = p % stride + stride * np.arange(-(-k // stride))[None, :]
        out = (p - tap) // stride
        return tap, out, (tap < k) & (out >= 0) & (out < n_out)

    ki, oy, ok_y = taps(h, kh, ho)
    kj, ox, ok_x = taps(w, kw, wo)
    rows = (oy[:, None, :, None] * wo + ox[None, :, None, :]) * (kh * kw) + (
        ki[:, None, :, None] * kw + kj[None, :, None, :]
    )
    ok = ok_y[:, None, :, None] & ok_x[None, :, None, :]
    rows = np.where(ok, rows, ho * wo * kh * kw).reshape(h * w, -1).T.copy()
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _interp_matrix(n_in: int, n_out: int):
    """Row-interpolation matrix (n_out, n_in): half-pixel centers, clamped borders."""
    m = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src).astype(int)
    frac = src - i0
    lo = np.clip(i0, 0, n_in - 1)
    hi = np.clip(i0 + 1, 0, n_in - 1)
    m[np.arange(n_out), lo] += 1.0 - frac
    m[np.arange(n_out), hi] += frac
    m.setflags(write=False)
    return m


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of an ``(H, W)`` or ``(H, W, C)`` array."""
    ry = _interp_matrix(x.shape[0], out_h)
    rx = _interp_matrix(x.shape[1], out_w)
    if x.ndim == 2:
        return ry @ x @ rx.T
    return rx @ (ry @ x.reshape(x.shape[0], -1)).reshape(out_h, x.shape[1], -1)


def resize_bilinear_backward(dy: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    """Adjoint of :func:`resize_bilinear` back onto the (in_h, in_w) source."""
    ry = _interp_matrix(in_h, dy.shape[0])
    rx = _interp_matrix(in_w, dy.shape[1])
    if dy.ndim == 2:
        return ry.T @ dy @ rx
    return (ry.T @ (rx.T @ dy).reshape(dy.shape[0], -1)).reshape(in_h, in_w, -1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, ``1 / (1 + exp(-x))`` where ``x >= 0`` and
    ``exp(x) / (1 + exp(x))`` elsewhere, from the one ``exp(-|x|)``; neither
    side overflows, and the bits are those of the two sides computed apart."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
