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
    swapped; a strided conv scatters each tap's product instead."""
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
    else:
        dcol = (dy_flat @ w.reshape(kh * kw * cin, cout).T).reshape(ho, wo, kh, kw, cin)
        dxp = np.zeros((h + 2 * pad, wid + 2 * pad, cin))
        for ki in range(kh):
            for kj in range(kw):
                dxp[ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcol[
                    :, :, ki, kj
                ]
    dx = dxp[pad : pad + h, pad : pad + wid] if pad else dxp
    return dx, dw, db


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
