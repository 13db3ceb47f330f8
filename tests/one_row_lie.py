"""Frozen one-pose SO(3) and SE(3) closed forms: the oracle for textloop.geometry.

These are copies of the per-row functions that geometry.py ran before every
caller went through its stacked functions.  They use plain Python floats and
3-vectors, and share no code with the stacked path, so a test can ask for
the same bits row by row.  Do not edit them to follow src.
"""

from __future__ import annotations

import numpy as np

from textloop.geometry import _SMALL_ANGLE, NEAR_PI_EPSILON, NearPiRotation, Pose


def skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_exp(theta: np.ndarray) -> np.ndarray:
    """Rodrigues formula, with series expansions below _SMALL_ANGLE."""
    angle = float(np.linalg.norm(theta))
    k = skew(theta)
    if angle < _SMALL_ANGLE:
        a = 1.0 - angle**2 / 6.0 + angle**4 / 120.0
        b = 0.5 - angle**2 / 24.0 + angle**4 / 720.0
    else:
        a = np.sin(angle) / angle
        b = (1.0 - np.cos(angle)) / angle**2
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Inverse of so3_exp.  Raises NearPiRotation within NEAR_PI_EPSILON of pi."""
    cos_angle = float(np.clip((np.trace(rot) - 1.0) * 0.5, -1.0, 1.0))
    angle = float(np.arccos(cos_angle))
    if np.pi - angle < NEAR_PI_EPSILON:
        raise NearPiRotation(f"rotation angle {angle!r} within {NEAR_PI_EPSILON} of pi")
    vee = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    )
    if angle < _SMALL_ANGLE:
        # theta / (2 sin(theta)) expanded around zero
        return 0.5 * (1.0 + angle**2 / 6.0 + 7.0 * angle**4 / 360.0) * vee
    if np.pi - angle < 1e-3:
        # sin(angle) is tiny; recover the axis from the symmetric part instead
        sym = 0.5 * (rot + rot.T)
        outer = (sym - np.eye(3)) / (1.0 - cos_angle) + np.eye(3)
        pivot = int(np.argmax(np.diag(outer)))
        axis = outer[:, pivot] / np.sqrt(outer[pivot, pivot])
        if np.dot(axis, vee) < 0.0:
            axis = -axis
        return angle * axis
    return (0.5 * angle / np.sin(angle)) * vee


def v_matrix(theta: np.ndarray) -> np.ndarray:
    """Integrates rotation over a unit twist; couples rho into translation."""
    angle = float(np.linalg.norm(theta))
    k = skew(theta)
    if angle < _SMALL_ANGLE:
        b = 0.5 - angle**2 / 24.0 + angle**4 / 720.0
        c = 1.0 / 6.0 - angle**2 / 120.0 + angle**4 / 5040.0
    else:
        b = (1.0 - np.cos(angle)) / angle**2
        c = (angle - np.sin(angle)) / angle**3
    return np.eye(3) + b * k + c * (k @ k)


def v_matrix_inverse(theta: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(theta))
    k = skew(theta)
    if angle < _SMALL_ANGLE:
        g = 1.0 / 12.0 + angle**2 / 720.0 + angle**4 / 30240.0
    else:
        half = 0.5 * angle
        g = (1.0 - half * np.cos(half) / np.sin(half)) / angle**2
    return np.eye(3) - 0.5 * k + g * (k @ k)


def exp_map(xi: np.ndarray) -> Pose:
    """Exponential map from a [rho, theta] twist to a Pose."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    rho, theta = xi[:3], xi[3:]
    return Pose(so3_exp(theta), v_matrix(theta) @ rho)


def log_map(pose: Pose) -> np.ndarray:
    """Inverse of exp_map; raises NearPiRotation near the cut locus."""
    theta = so3_log(pose.rotation)
    rho = v_matrix_inverse(theta) @ pose.translation
    return np.concatenate([rho, theta])


def interpolate(pose: Pose, factor: float) -> Pose:
    """Geodesic interpolation from identity (factor 0) to pose (factor 1)."""
    return exp_map(factor * log_map(pose))
