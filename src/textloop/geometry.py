"""Rigid transforms, pinhole projection and plane-constrained back-projection.

Conventions used throughout the package:
  - poses are passive SE(3) transforms stored as rotation matrix + translation
  - tangent vectors are 6-vectors laid out [rho(3), theta(3)], rotation last
  - planes are (unit normal n, offset d) with n.p + d = 0 for points p on the plane
  - pixel coordinates (u, v) follow u = fx * x/z + cx, v = fy * y/z + cy
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEPTH_EPSILON = 1e-6
RAY_PARALLEL_EPSILON = 1e-9
NEAR_PI_EPSILON = 1e-9

# series switch points for the Rodrigues / V-matrix coefficients
_SMALL_ANGLE = 1e-4


class GeometryError(ValueError):
    """Base class for geometric precondition violations."""


class RayParallelToPlane(GeometryError):
    """Viewing ray never meets the plane."""


class NegativeDepth(GeometryError):
    """Plane intersection lies behind the camera at this pixel."""


class OutOfRangeFactor(GeometryError):
    """Interpolation factor outside [0, 1]."""


class NearPiRotation(GeometryError):
    """Rotation angle too close to pi for a single-valued logarithm."""


# The SO(3) and V-matrix functions below take (..., 3) and (..., 3, 3)
# inputs; a single rotation or twist goes through them with a leading row
# axis.  Each row gets the bits of the one-row closed forms (frozen in
# tests/one_row_lie.py as the oracle), which takes three choices that numpy
# would otherwise make differently.  The row norm is sqrt(v @ v), because
# np.linalg.norm(axis=-1) rounds differently from the 1-D norm; powers use
# np.float_power, because array ** takes a SIMD pow that rounds differently
# from Python's float **; and each branch runs on its own rows only, so no
# row divides by a zero angle.

_pow = np.float_power


def _norm_stacked(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _skew_stacked(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _by_angle(angle: np.ndarray, series, closed) -> list[np.ndarray]:
    """Coefficients per row: series(angle) below _SMALL_ANGLE, closed(angle) from it on.

    A branch with no rows is not evaluated; input with no rows at all runs series.
    """
    low = angle < _SMALL_ANGLE
    branches = [(rows, f) for rows, f in ((low, series), (~low, closed)) if rows.any()]
    coeffs = None
    for rows, formula in branches or [(low, series)]:
        values = formula(angle[rows])
        if coeffs is None:
            coeffs = [np.empty(angle.shape) for _ in values]
        for c, v in zip(coeffs, values):
            c[rows] = v
    return [c[..., None, None] for c in coeffs]


def _so3_exp_stacked(theta: np.ndarray) -> np.ndarray:
    k = _skew_stacked(theta)
    a, b = _by_angle(
        _norm_stacked(theta),
        lambda x: (
            1.0 - _pow(x, 2) / 6.0 + _pow(x, 4) / 120.0,
            0.5 - _pow(x, 2) / 24.0 + _pow(x, 4) / 720.0,
        ),
        lambda x: (np.sin(x) / x, (1.0 - np.cos(x)) / _pow(x, 2)),
    )
    return np.eye(3) + a * k + b * (k @ k)


def _so3_log_near_pi(rot: np.ndarray, vee: np.ndarray) -> np.ndarray:
    """Rotation vector of one rotation within 1e-3 of pi, where sin(angle) is tiny.

    The axis comes from the symmetric part instead.  Raises NearPiRotation
    within NEAR_PI_EPSILON of pi.
    """
    cos_angle = float(np.clip((np.trace(rot) - 1.0) * 0.5, -1.0, 1.0))
    angle = float(np.arccos(cos_angle))
    if np.pi - angle < NEAR_PI_EPSILON:
        raise NearPiRotation(f"rotation angle {angle!r} within {NEAR_PI_EPSILON} of pi")
    sym = 0.5 * (rot + rot.T)
    outer = (sym - np.eye(3)) / (1.0 - cos_angle) + np.eye(3)
    pivot = int(np.argmax(np.diag(outer)))
    axis = outer[:, pivot] / np.sqrt(outer[pivot, pivot])
    if np.dot(axis, vee) < 0.0:
        axis = -axis
    return angle * axis


def _so3_log_stacked(rot: np.ndarray) -> np.ndarray:
    """Rows within 1e-3 of pi go through _so3_log_near_pi, one at a time in C order."""
    cos_angle = np.clip((np.trace(rot, axis1=-2, axis2=-1) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    vee = np.stack(
        [
            rot[..., 2, 1] - rot[..., 1, 2],
            rot[..., 0, 2] - rot[..., 2, 0],
            rot[..., 1, 0] - rot[..., 0, 1],
        ],
        axis=-1,
    )
    low = angle < _SMALL_ANGLE
    near = np.pi - angle < 1e-3
    mid = ~(low | near)
    out = np.empty(vee.shape)
    x = angle[low]
    out[low] = (0.5 * (1.0 + _pow(x, 2) / 6.0 + 7.0 * _pow(x, 4) / 360.0))[..., None] * vee[low]
    x = angle[mid]
    out[mid] = (0.5 * x / np.sin(x))[..., None] * vee[mid]
    # argwhere, unlike nonzero, also walks a bare (3, 3) input with no row axis
    for index in map(tuple, np.argwhere(near)):
        out[index] = _so3_log_near_pi(rot[index], vee[index])
    return out


def _v_matrix_stacked(theta: np.ndarray) -> np.ndarray:
    k = _skew_stacked(theta)
    b, c = _by_angle(
        _norm_stacked(theta),
        lambda x: (
            0.5 - _pow(x, 2) / 24.0 + _pow(x, 4) / 720.0,
            1.0 / 6.0 - _pow(x, 2) / 120.0 + _pow(x, 4) / 5040.0,
        ),
        lambda x: ((1.0 - np.cos(x)) / _pow(x, 2), (x - np.sin(x)) / _pow(x, 3)),
    )
    return np.eye(3) + b * k + c * (k @ k)


def _v_matrix_inverse_stacked(theta: np.ndarray) -> np.ndarray:
    k = _skew_stacked(theta)
    (g,) = _by_angle(
        _norm_stacked(theta),
        lambda x: (1.0 / 12.0 + _pow(x, 2) / 720.0 + _pow(x, 4) / 30240.0,),
        lambda x: ((1.0 - 0.5 * x * np.cos(0.5 * x) / np.sin(0.5 * x)) / _pow(x, 2),),
    )
    return np.eye(3) - 0.5 * k + g * (k @ k)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float).reshape(3, 3)
        trans = np.array(self.translation, dtype=float).reshape(3)
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rot_t = self.rotation.T
        return Pose(rot_t, -rot_t @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or a stack of (N, 3) points."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        # a column at a time: broadcasting the (3,) translation would run a
        # 3-long inner loop per row
        out = points @ self.rotation.T
        for k in range(3):
            out[..., k] += self.translation[k]
        return out

    def to_json(self) -> dict:
        return {
            "t": [float(x) for x in self.translation],
            "q": [float(x) for x in rotation_to_quaternion(self.rotation)],
        }


def stack_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """(rotations (N, 3, 3), translations (N, 3)) of a sequence of poses."""
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    return rotations, np.array([p.translation for p in poses]).reshape(-1, 3)


def inverse_stacked(rotations: np.ndarray, translations: np.ndarray):
    """Pose.inverse of each (..., 3, 3) rotation and (..., 3) translation."""
    # like the Pose it makes, the rotation keeps the transposed layout, which
    # decides how BLAS rounds the products taken with it
    rot_t = np.swapaxes(rotations, -1, -2)
    return rot_t, (-rot_t @ translations[..., None])[..., 0]


def compose_stacked(rot_a, trans_a, rot_b, trans_b):
    """Pose.compose of each row of a with the same row of b."""
    return rot_a @ rot_b, (rot_a @ trans_b[..., None])[..., 0] + trans_a


def relative_stacked(rotations: np.ndarray, translations: np.ndarray, i, j):
    """poses[i[k]]^-1 poses[j[k]] for each k, as stacked (rotations, translations)."""
    rot_i, trans_i = inverse_stacked(rotations[i], translations[i])
    return compose_stacked(rot_i, trans_i, rotations[j], translations[j])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise GeometryError(f"focal lengths must be positive, got {self.fx}, {self.fy}")


@dataclass(frozen=True)
class PlaneParams:
    """Plane n.p + d = 0 with unit normal n."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float).reshape(3)
        scale = float(np.linalg.norm(normal))
        if scale < 1e-12:
            raise GeometryError("plane normal must be nonzero")
        normal = normal / scale
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset) / scale)


@dataclass(frozen=True)
class PixelPoint:
    u: float
    v: float


def project_array(
    intrinsics: CameraIntrinsics, points: np.ndarray, depth_epsilon: float = DEPTH_EPSILON
) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) camera-frame points to pixels.

    Returns (uv, valid): uv is (N, 2) with rows undefined where valid is False,
    valid marks points with z > depth_epsilon.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    z = points[:, 2]
    valid = z > depth_epsilon
    safe_z = np.where(valid, z, 1.0)
    uv = np.empty((len(points), 2))
    uv[:, 0] = intrinsics.fx * points[:, 0] / safe_z + intrinsics.cx
    uv[:, 1] = intrinsics.fy * points[:, 1] / safe_z + intrinsics.cy
    return uv, valid


def ray_direction(intrinsics: CameraIntrinsics, pixel: PixelPoint) -> np.ndarray:
    """Unnormalized viewing ray with z = 1."""
    return np.array(
        [(pixel.u - intrinsics.cx) / intrinsics.fx, (pixel.v - intrinsics.cy) / intrinsics.fy, 1.0]
    )


def depth_from_plane(
    intrinsics: CameraIntrinsics, plane: PlaneParams, pixel: PixelPoint
) -> float:
    """Depth (z coordinate) where the pixel's viewing ray meets the plane."""
    ray = ray_direction(intrinsics, pixel)
    denom = float(plane.normal @ ray)
    if abs(denom) <= RAY_PARALLEL_EPSILON:
        raise RayParallelToPlane(f"|n.ray| = {abs(denom)} at pixel ({pixel.u}, {pixel.v})")
    depth = -plane.offset / denom
    if depth <= 0.0:
        raise NegativeDepth(f"plane meets ray at depth {depth} behind the camera")
    return depth


def backproject(
    intrinsics: CameraIntrinsics, plane: PlaneParams, pixel: PixelPoint
) -> np.ndarray:
    """Camera-frame point where the pixel's viewing ray meets the plane."""
    return depth_from_plane(intrinsics, plane, pixel) * ray_direction(intrinsics, pixel)


def exp_map(xi: np.ndarray) -> Pose:
    """Exponential map from a [rho, theta] twist to a Pose."""
    rotations, translations = exp_map_stacked(np.asarray(xi, dtype=float).reshape(1, 6))
    return Pose(rotations[0], translations[0])


def log_map(pose: Pose) -> np.ndarray:
    """Inverse of exp_map; raises NearPiRotation near the cut locus."""
    return log_map_stacked(pose.rotation[None], pose.translation[None])[0]


def exp_map_stacked(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp_map of each (..., 6) twist, as (rotations, translations)."""
    rho, theta = xi[..., :3], xi[..., 3:]
    return _so3_exp_stacked(theta), (_v_matrix_stacked(theta) @ rho[..., None])[..., 0]


def log_map_stacked(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """log_map of each pose given as (..., 3, 3) rotations and (..., 3) translations."""
    theta = _so3_log_stacked(rotations)
    rho = (_v_matrix_inverse_stacked(theta) @ translations[..., None])[..., 0]
    return np.concatenate([rho, theta], axis=-1)


def interpolate(pose: Pose, factor: float) -> Pose:
    """Geodesic interpolation from identity (factor 0) to pose (factor 1)."""
    if not 0.0 <= factor <= 1.0:
        raise OutOfRangeFactor(f"interpolation factor {factor} outside [0, 1]")
    return exp_map(factor * log_map(pose))


def kabsch(source: np.ndarray, target: np.ndarray) -> Pose:
    """Least-squares rigid transform taking (N, 3) source points onto target points."""
    centroid_s = source.mean(axis=0)
    centroid_t = target.mean(axis=0)
    h = (source - centroid_s).T @ (target - centroid_t)
    if not np.isfinite(h).all():
        # LAPACK's SVD can loop without end on an infinity
        raise GeometryError("the cross-covariance of the points overflows")
    u, _, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    return Pose(rot, centroid_t - rot @ centroid_s)


def adjoint(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """6x6 adjoints, [rho, theta] layout, of (..., 3, 3) rotations and (..., 3) translations."""
    out = np.zeros(rotation.shape[:-2] + (6, 6))
    out[..., :3, :3] = rotation
    out[..., :3, 3:] = _skew_stacked(translation) @ rotation
    out[..., 3:, 3:] = rotation
    return out


def _q_matrix(rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian, per (..., 3) row."""
    cr = _skew_stacked(rho)
    cp = _skew_stacked(theta)
    c1, c2, c3 = _by_angle(
        _norm_stacked(theta),
        lambda x: (
            1.0 / 6.0 - _pow(x, 2) / 120.0,
            1.0 / 24.0 - _pow(x, 2) / 720.0,
            -1.0 / 120.0 + _pow(x, 2) / 5040.0,
        ),
        lambda x: (
            (x - np.sin(x)) / _pow(x, 3),
            (1.0 - 0.5 * _pow(x, 2) - np.cos(x)) / _pow(x, 4),
            (x - np.sin(x) - _pow(x, 3) / 6.0) / _pow(x, 5),
        ),
    )
    cpcr = cp @ cr
    crcp = cr @ cp
    cpcrcp = cpcr @ cp
    cpcp = cp @ cp
    return (
        0.5 * cr
        + c1 * (cpcr + crcp + cpcrcp)
        - c2 * (cpcp @ cr + cr @ cpcp - 3.0 * cpcrcp)
        - 0.5 * (c2 - 3.0 * c3) * (cpcrcp @ cp + cpcp @ crcp)
    )


def se3_left_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Inverse SE(3) left Jacobian of each (..., 6) twist."""
    xi = np.asarray(xi, dtype=float)
    rho, theta = xi[..., :3], xi[..., 3:]
    v_inv = _v_matrix_inverse_stacked(theta)
    q = _q_matrix(rho, theta)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = v_inv
    out[..., 3:, 3:] = v_inv
    out[..., :3, 3:] = -v_inv @ q @ v_inv
    return out


def se3_right_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Jacobian of xi -> log(exp(xi) exp(delta)) in delta at zero, per (..., 6) twist."""
    return se3_left_jacobian_inverse(-np.asarray(xi, dtype=float))


def rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion [w, x, y, z] with w >= 0."""
    rot = np.asarray(rot, dtype=float)
    trace = float(np.trace(rot))
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (rot[2, 1] - rot[1, 2]) / s,
                (rot[0, 2] - rot[2, 0]) / s,
                (rot[1, 0] - rot[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax([rot[0, 0], rot[1, 1], rot[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(rot[i, i] - rot[j, j] - rot[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (rot[k, j] - rot[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (rot[j, i] + rot[i, j]) / s
        q[1 + k] = (rot[k, i] + rot[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a [w, x, y, z] quaternion (normalized internally)."""
    q = np.asarray(q, dtype=float).reshape(4)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(q))
    if norm < 1e-12:
        raise GeometryError("zero quaternion")
    if not np.isfinite(norm):
        raise GeometryError(f"quaternion norm {norm} is not finite")
    return _unit_quaternion_rotation(*(q / norm))


def quaternion_to_rotation_stacked(q: np.ndarray) -> np.ndarray:
    """quaternion_to_rotation of each row of an (n, 4) array, with its bits, as (n, 3, 3).

    A GeometryError if any row's norm is below 1e-12 or not finite.
    """
    q = np.asarray(q, dtype=float).reshape(-1, 4)
    with np.errstate(over="ignore"):
        norm = _norm_stacked(q)
    if not ((norm >= 1e-12) & np.isfinite(norm)).all():
        raise GeometryError("a quaternion norm is below 1e-12 or not finite")
    rotations = _unit_quaternion_rotation(*(q / norm[:, None]).T)
    return np.ascontiguousarray(np.moveaxis(rotations, -1, 0))


def _unit_quaternion_rotation(w, x, y, z) -> np.ndarray:
    """Rotation matrix of a unit quaternion; arrays of n components give (3, 3, n)."""
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def cumulative_path_length(positions) -> np.ndarray:
    """Arc length walked along a polyline of positions; starts at 0."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    if len(positions) == 0:
        return np.zeros(0)
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])
