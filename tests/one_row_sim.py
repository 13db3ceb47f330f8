"""Frozen per-pose LiDAR loop and per-pair detection loop: the oracle for textloop.simulator.

These are copies of the sensor loops simulate ran before its LiDAR masks
moved to coordinate columns and its detections behind a stacked pre-gate:
one (N, 3) mask per pose, and _try_detect on every (image, placement)
pair.  They take the rng to draw from, so a test can compare what is left
of the stream as well as the outputs.  Do not edit them to follow src.
"""

from __future__ import annotations

import numpy as np

from textloop.simulator import LIDAR_RANGE, SLAB_WINDOW, _try_detect, wall_point_grid


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
