"""Frozen point-to-point ICP that runs every pass: the oracle for loop_closure.icp_verify.

This is a copy of the ICP loop as it was before icp_verify learned to stop
at its correspondence fixed point.  It queries the target once per pass
until the rms change falls below the tolerance, fewer than three points
match, or the passes run out.  It moves the source as Pose.apply then did,
with one broadcast add of the translation.  Do not edit it to follow src.
"""

from __future__ import annotations

import numpy as np

from textloop.entities import TooFewPoints
from textloop.geometry import kabsch
from textloop.loop_closure import IcpParams, IcpResult


def icp_verify(target, source: np.ndarray, init, params: IcpParams = IcpParams()) -> IcpResult:
    points = target.data
    if len(points) < params.min_points or len(source) < params.min_points:
        raise TooFewPoints(f"clouds have {len(points)} and {len(source)} points")
    pose = init
    last_rms = np.inf
    fitness = 0.0
    rms = np.inf
    converged = False
    for _ in range(params.max_iterations):
        moved = source @ pose.rotation.T + pose.translation
        dist, index = target.query(moved, distance_upper_bound=params.max_correspondence)
        matched = np.isfinite(dist)
        fitness = float(matched.sum()) / len(source)
        if matched.sum() < 3:
            break
        rms = float(np.sqrt(np.mean(dist[matched] ** 2)))
        if abs(last_rms - rms) < params.tolerance:
            converged = True
            break
        last_rms = rms
        pose = kabsch(source[matched], points[index[matched]])
    accepted = converged and fitness >= params.min_fitness and rms <= params.max_rms
    return IcpResult(pose=pose, fitness=fitness, rms=rms, converged=converged, accepted=accepted)
