"""Frozen per-pose LiDAR loop and per-pair detection loop: the oracle for textloop.simulator.

These are copies of the sensor loops simulate ran before its LiDAR masks
moved to coordinate columns and its detection gates were stacked: one
(N, 3) mask per pose, and _try_detect on every (image, placement) pair,
projecting one corner at a time.  project returns the (u, v) array that
the PixelPoint it made used to give; _try_detect is otherwise as it was.
They take the rng to draw from, so a test can compare what is left of the
stream as well as the outputs.  Do not edit them to follow src.
"""

from __future__ import annotations

import numpy as np

from textloop.entities import TextDetection
from textloop.simulator import (
    CONFUSABLE,
    LIDAR_RANGE,
    MIN_CORNER_DEPTH,
    SLAB_WINDOW,
    wall_point_grid,
)


def project(intrinsics, point, depth_epsilon: float = 1e-6) -> np.ndarray:
    x, y, z = np.asarray(point, dtype=float)
    if z <= depth_epsilon:
        raise ValueError(f"depth {z} not above {depth_epsilon}")
    return np.array([intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy])


def _misread(content: str, rng) -> str:
    slots = [k for k, ch in enumerate(content) if ch in CONFUSABLE]
    if not slots:
        return content
    k = slots[int(rng.integers(len(slots)))]
    return content[:k] + CONFUSABLE[content[k]] + content[k + 1 :]


def _try_detect(world, placement, cam_pose, intrinsics, noise, rng, t_image):
    center = world.placement_center(placement)
    normal = world.walls[placement.wall_index].normal3()
    cam_position = cam_pose.translation
    to_cam = cam_position - center
    distance = float(np.linalg.norm(to_cam))
    if distance > noise.max_range or distance < 1e-6:
        return None
    cos_incidence = float(normal @ to_cam) / distance
    if cos_incidence <= 0.0 or np.arccos(min(cos_incidence, 1.0)) > noise.max_incidence:
        return None
    if abs(center[2] - cam_position[2]) > SLAB_WINDOW:
        return None
    corners_cam = cam_pose.inverse().apply(world.placement_corners(placement))
    if np.any(corners_cam[:, 2] < MIN_CORNER_DEPTH):
        return None
    quad = np.array([project(intrinsics, c) for c in corners_cam])
    if (
        quad[:, 0].min() < 0.0
        or quad[:, 0].max() > 2.0 * intrinsics.cx
        or quad[:, 1].min() < 0.0
        or quad[:, 1].max() > 2.0 * intrinsics.cy
    ):
        return None
    p = noise.detect_prob * max(0.0, 1.0 - distance / noise.max_range) * cos_incidence
    if rng.random() >= p:
        return None
    content = placement.content
    if noise.misread_prob > 0.0 and rng.random() < noise.misread_prob:
        content = _misread(content, rng)
    if noise.bbox_jitter > 0.0:
        quad = quad + noise.bbox_jitter * rng.standard_normal((4, 2))
    confidence = 1.0 - 0.15 * min(1.0, distance / noise.max_range)
    return TextDetection(content=content, confidence=confidence, quad=quad, timestamp=t_image)


def clouds(world, gt, noise, rng) -> list:
    points, point_normals = wall_point_grid(world)
    out = []
    for pose in gt:
        rel = points - pose.translation
        dist = np.linalg.norm(rel, axis=1)
        facing = np.einsum("ij,ij->i", point_normals, -rel) > 0.0
        mask = (dist <= LIDAR_RANGE) & facing & (np.abs(rel[:, 2]) <= SLAB_WINDOW)
        local = pose.inverse().apply(points[mask]) if mask.any() else np.empty((0, 3))
        if noise.cloud_sigma > 0.0 and len(local):
            local = local + noise.cloud_sigma * rng.standard_normal(local.shape)
        out.append(local)
    return out


def camera(world, t_images, cam_poses, intrinsics, noise, rng) -> list:
    out = []
    for t_image, cam_pose in zip(t_images, cam_poses):
        detections = []
        for placement in world.placements:
            det = _try_detect(world, placement, cam_pose, intrinsics, noise, rng, t_image)
            if det is not None:
                detections.append(det)
        out.append((t_image, detections))
    return out
