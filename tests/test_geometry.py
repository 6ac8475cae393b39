import numpy as np
import pytest

from marscost.geometry import (
    matrix_to_quat,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_rotation_vector,
    quat_to_matrix,
    row_dot,
)

# One-quaternion-at-a-time helpers, as the package had them before they took
# stacks: the stacked helpers must give their bits on every row.


def normalize_one(q):
    n = float(np.linalg.norm(q))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return np.asarray(q, dtype=np.float64) / n


def conjugate_one(q):
    q = np.asarray(q, dtype=np.float64)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def multiply_one(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def to_matrix_one(q):
    w, x, y, z = normalize_one(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def shepperd_branch(r):
    """Which component Shepperd's method takes from a root: 0 (w) to 3 (z)."""
    if np.trace(r) > 0.0:
        return 0
    if r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        return 1
    return 2 if r[1, 1] >= r[2, 2] else 3


def matrix_to_quat_one(r):
    r = np.asarray(r, dtype=np.float64)
    branch = shepperd_branch(r)
    if branch == 0:
        s = np.sqrt(np.trace(r) + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif branch == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif branch == 2:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return normalize_one(q)


def rotation_vector_one(q):
    q = normalize_one(q)
    if q[0] < 0.0:
        q = -q
    vec = q[1:]
    norm = float(np.linalg.norm(vec))
    if norm < 1e-15:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(norm, q[0])
    return vec / norm * angle


def _row_by_row(func, *stacks):
    return np.array([func(*rows) for rows in zip(*stacks)])


def _quats(seed, n=500):
    """Random quaternions of mixed scale and sign, plus near-identity and tiny-vector ones."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    q[: n // 10, 1:] *= 1e-9  # near the identity, where the rotation vector takes its limit
    q[n // 10 : n // 5, 1:] *= 1e-17
    return q


def _rotations(seed, n=500):
    return np.array([to_matrix_one(q) for q in _quats(seed, n)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_helpers_match_one_row_at_a_time_bit_for_bit(seed):
    q, p = _quats(seed), _quats(seed + 100)
    unit = _row_by_row(normalize_one, q)
    cases = [
        (quat_normalize(q), _row_by_row(normalize_one, q)),
        (quat_conjugate(q), _row_by_row(conjugate_one, q)),
        (quat_multiply(q, p), _row_by_row(multiply_one, q, p)),
        (quat_to_matrix(q), _row_by_row(to_matrix_one, q)),
        (quat_rotation_vector(q), _row_by_row(rotation_vector_one, q)),
        (quat_rotation_vector(quat_multiply(quat_conjugate(unit[:-1]), unit[1:])),
         _row_by_row(lambda a, b: rotation_vector_one(multiply_one(conjugate_one(a), b)),
                     unit[:-1], unit[1:])),
        (matrix_to_quat(_rotations(seed)), _row_by_row(matrix_to_quat_one, _rotations(seed))),
    ]
    for stacked, reference in cases:
        assert stacked.shape == reference.shape
        assert stacked.tobytes() == reference.tobytes()


def test_helpers_keep_the_shape_of_one_row_and_of_deeper_stacks():
    q = _quats(5, 24)
    for func, args in [
        (quat_normalize, (q,)), (quat_conjugate, (q,)), (quat_multiply, (q, q[::-1])),
        (quat_to_matrix, (q,)), (quat_rotation_vector, (q,)),
        (matrix_to_quat, (quat_to_matrix(q),)),
    ]:
        flat = func(*args)
        deep = func(*(a.reshape(4, 6, *a.shape[1:]) for a in args))
        assert deep.shape == (4, 6, *flat.shape[1:])
        assert deep.tobytes() == flat.tobytes()
        one = func(*(a[7] for a in args))
        assert one.shape == flat.shape[1:]
        assert one.tobytes() == flat[7].tobytes()


def _turn(axis, angle):
    """Rotation matrix of ``angle`` radians about coordinate axis ``axis`` (0, 1, 2)."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


def test_matrix_to_quat_stack_matches_one_at_a_time_in_all_four_branches():
    # trace > 0 near the identity; half turns about x, y and z make r_xx, r_yy and r_zz the
    # largest diagonal entry with a negative trace. Each is tilted a little about each axis.
    rng = np.random.default_rng(4)
    cores = [np.eye(3), _turn(0, np.pi), _turn(1, np.pi), _turn(2, np.pi)]
    mats = []
    for core in cores:
        mats.append(core)
        for _ in range(40):
            a, b, c = rng.normal(0, 0.2, 3)
            mats.append(core @ _turn(0, a) @ _turn(1, b) @ _turn(2, c))
    mats = np.array(mats)
    branches = [shepperd_branch(r) for r in mats]
    assert [shepperd_branch(r) for r in cores] == [0, 1, 2, 3]
    assert all(branches.count(b) > 20 for b in range(4))
    stacked = matrix_to_quat(mats)
    assert stacked.tobytes() == np.array([matrix_to_quat(r) for r in mats]).tobytes()
    assert stacked.tobytes() == np.array([matrix_to_quat_one(r) for r in mats]).tobytes()
    # the round trip: the same rotation, with w >= 0
    assert np.all(stacked[:, 0] >= 0.0)
    assert np.allclose(quat_to_matrix(stacked), mats, atol=1e-12)


def test_quat_normalize_names_the_first_bad_row():
    q = np.tile([1.0, 0.0, 0.0, 0.0], (8, 1))
    q[5] = [np.nan, 0.0, 0.0, 1.0]
    q[6] = 0.0
    with pytest.raises(ValueError, match=r"zero or non-finite quaternion at row 5: \[nan"):
        quat_normalize(q)
    q[3] = [0.0, np.inf, 0.0, 0.0]
    with pytest.raises(ValueError, match="at row 3:"):
        quat_normalize(q)
    with pytest.raises(ValueError, match="at row 1, 1:"):
        quat_normalize(q[:4].reshape(2, 2, 4))
    with pytest.raises(ValueError, match="zero or non-finite quaternion: "):
        quat_normalize(np.zeros(4))
    with pytest.raises(ValueError, match="at row 6"), np.errstate(over="ignore"):
        quat_normalize(np.vstack([q[:3], q[:3], [[1e200, 1e200, 0.0, 0.0]]]))  # norm overflows


def test_row_dot_matches_np_dot_row_by_row():
    rng = np.random.default_rng(9)
    for width in (3, 4):
        a = rng.normal(size=(3000, width)) * 10.0 ** rng.integers(-4, 5, size=(3000, 1))
        b = rng.normal(size=(3000, width))
        assert row_dot(a, b).tobytes() == np.array([np.dot(x, y) for x, y in zip(a, b)]).tobytes()
