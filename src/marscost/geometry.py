"""Quaternion and rotation helpers.

Quaternions are scalar-first ``(w, x, y, z)`` and encode the world-from-body
rotation: ``v_world = quat_to_matrix(q) @ v_body``.

Every helper takes one quaternion ``(4,)`` or matrix ``(3, 3)``, or a stack
of them ``(..., 4)`` / ``(..., 3, 3)``, and works row by row. Per-row dot
products go through stacked ``np.matmul``, which reaches the same BLAS dot
as ``np.dot`` on one row, so a stack gives the bits of a row-by-row loop.
"""

import numpy as np


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of ``a`` and ``b``, bit-identical to ``np.dot`` per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _components(q: np.ndarray) -> np.ndarray:
    """The last axis first, so ``w, x, y, z = _components(q)`` unpacks one row or a stack."""
    return q.transpose(-1, *range(q.ndim - 1))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.sqrt(row_dot(q, q))
    ok = np.isfinite(n) & (n != 0.0)
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        where = f" at row {', '.join(map(str, k))}" if k else ""
        raise ValueError(f"cannot normalize zero or non-finite quaternion{where}: {q[k]}")
    return q / n[..., None]


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = _components(np.asarray(a, dtype=np.float64))
    bw, bx, by, bz = _components(np.asarray(b, dtype=np.float64))
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix whose columns are the body axes in world coordinates."""
    q = quat_normalize(q)
    w, x, y, z = _components(q)
    entries = np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ])  # row by row, on the first axis
    # C order for any stack: the bits of a product with ``r.T`` depend on the layout
    r = np.ascontiguousarray(entries.transpose(*range(1, q.ndim), 0))
    return r.reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(r: np.ndarray) -> np.ndarray:
    """Quaternion from a proper rotation matrix (Shepperd's branch selection).

    Branch ``i`` takes component ``i`` from a square root (``w`` when the trace
    is positive, else the axis of the largest diagonal entry) and the other
    three from sums and differences of the off-diagonal entries over it.
    """
    r = np.asarray(r, dtype=np.float64)
    r00, r11, r22 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    t = (r00 + r11) + r22
    big_w = t > 0.0
    big_x = ~big_w & (r00 >= r11) & (r00 >= r22)
    big_y = ~big_w & ~big_x & (r11 >= r22)
    branch = np.select([big_w, big_x, big_y], [0, 1, 2], 3)
    with np.errstate(invalid="ignore"):  # only the chosen branch's root is used
        s = 2.0 * np.sqrt(
            np.stack([t + 1.0, 1.0 + r00 - r11 - r22, 1.0 + r11 - r00 - r22, 1.0 + r22 - r00 - r11])
        )
    s = np.take_along_axis(s, branch[None], axis=0)[0]
    big = 0.25 * s
    dx, dy, dz, sxy, sxz, syz = (
        v / s
        for v in (
            r[..., 2, 1] - r[..., 1, 2],
            r[..., 0, 2] - r[..., 2, 0],
            r[..., 1, 0] - r[..., 0, 1],
            r[..., 0, 1] + r[..., 1, 0],
            r[..., 0, 2] + r[..., 2, 0],
            r[..., 1, 2] + r[..., 2, 1],
        )
    )
    # row i: the quaternion when component i is the largest
    table = np.stack(
        [
            np.stack([big, dx, dy, dz], axis=-1),
            np.stack([dx, big, sxy, sxz], axis=-1),
            np.stack([dy, sxy, big, syz], axis=-1),
            np.stack([dz, sxz, syz, big], axis=-1),
        ],
        axis=-2,
    )
    q = np.take_along_axis(table, branch[..., None, None], axis=-2)[..., 0, :]
    q = np.where(q[..., :1] < 0.0, -q, q)
    return quat_normalize(q)


def quat_rotation_vector(q: np.ndarray) -> np.ndarray:
    """Axis-angle vector (radians) of the shortest rotation encoded by ``q``."""
    q = quat_normalize(q)
    q = np.where(q[..., :1] < 0.0, -q, q)
    vec = q[..., 1:]
    norm = np.sqrt(row_dot(vec, vec))[..., None]
    angle = 2.0 * np.arctan2(norm, q[..., :1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # small-angle limit: q ~ (1, phi/2)
        return np.where(norm < 1e-15, 2.0 * vec, vec / norm * angle)
