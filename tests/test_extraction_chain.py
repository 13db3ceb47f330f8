"""Replays of every image of a simulated run through the extraction chain.

The first test holds the live window build, region crop and RANSAC to the
frozen chain of tests/frozen_extraction.py; the second bounds how far the
entities move when the anchor frame's cloud is missing from the log.
"""

import dataclasses

import numpy as np
import pytest

import frozen_extraction
from helpers import ACCEPT_NOISE, default_rig
from textloop import entities
from textloop.config import load_config
from textloop.simulator import build_world, default_route, simulate


def _off_signs(detection):
    """The quad blown up, and moved sideways, so its region often spans two walls or none."""
    quad = detection.quad
    center = quad.mean(axis=0)
    for scale, shift in ((6.0, 0.0), (3.0, 120.0)):
        corners = center + scale * (quad - center) + [shift, 0.0]
        yield dataclasses.replace(detection, quad=corners)


# the acceptance noise leaves every wall point on its plane; with cloud noise
# of half the inlier threshold, distances straddle the threshold
@pytest.fixture(
    scope="module",
    params=[("corridor", 1, 0.0), ("multifloor", 1, 0.0), ("corridor", 2, 0.01)],
    ids=lambda p: f"{p[0]}-{p[1]}-sigma{p[2]}",
)
def replay(request):
    """A 2-lap run: extraction params, odometry, clouds by frame, and its images with texts."""
    scenario, seed, cloud_sigma = request.param
    world = build_world(scenario, seed=seed)
    noise = dataclasses.replace(ACCEPT_NOISE, cloud_sigma=cloud_sigma)
    route = default_route(scenario, laps=2)
    result = simulate(world, route, default_rig(), noise, seed=seed)
    stamps = [float(t) for t in result.stamps]
    images = [
        (float(t), detections)
        for t, detections in sorted(result.camera, key=lambda item: item[0])
        if detections and stamps[0] <= t <= stamps[-1]
    ]
    clouds = dict(enumerate(result.clouds))
    params = load_config(None, environ={}).extraction_params()
    return params, stamps, result.odom_poses, clouds, images


def _extract_all(replay, images=None, clouds=None, **chain):
    """Entities of every image, and each RANSAC fit's plane bytes or error type."""
    params, stamps, poses, all_clouds, all_images = replay
    fits = []
    with pytest.MonkeyPatch.context() as patch:
        for name, function in chain.items():
            patch.setattr(entities, name, function)
        fit = entities.fit_plane_ransac

        def recording_fit(points, seed, params):
            try:
                plane = fit(points, seed, params)
            except entities.ExtractionError as exc:
                fits.append(type(exc).__name__)
                raise
            fits.append(plane.normal.tobytes() + np.float64(plane.offset).tobytes())
            return plane

        patch.setattr(entities, "fit_plane_ransac", recording_fit)
        found = [
            entities.extract_entities(
                detections, t, default_rig(), stamps, poses, clouds or all_clouds, params
            )
            for t, detections in images or all_images
        ]
    return found, fits


def _entity_bytes(entity):
    pose = entity.pose_in_anchor
    rotation, translation = pose.rotation.tobytes(), pose.translation.tobytes()
    return entity.content, entity.anchor_frame, rotation, translation


def test_chain_has_the_bits_of_the_frozen_chain(replay):
    images = [
        (t, [*detections, *(off for d in detections for off in _off_signs(d))])
        for t, detections in replay[4]
    ]
    live, live_fits = _extract_all(replay, images)
    frozen, frozen_fits = _extract_all(
        replay,
        images,
        accumulate_local_cloud=frozen_extraction.accumulate_local_cloud,
        points_in_region=frozen_extraction.points_in_region,
        fit_plane_ransac=frozen_extraction.fit_plane_ransac,
    )
    assert [list(map(_entity_bytes, found)) for found in live] == [
        list(map(_entity_bytes, found)) for found in frozen
    ]
    # the same detections are dropped, for the same reason
    assert live_fits == frozen_fits
    assert sum(map(len, live)) > 100
    # some detections are dropped: the blown-up quads leave too few points
    assert sum(isinstance(outcome, str) for outcome in live_fits) > 30


def test_a_missing_anchor_cloud_barely_moves_the_entities(replay):
    # with the window expressed in the frame before the anchor, the entities
    # moved by about one odometry step: a median of 0.19 m and at most 0.25 m
    # on the two runs without cloud noise.  Without the anchor's own points
    # they move by a median of 0.001 m and at most 0.013 m there, and by
    # 0.002 m and at most 0.019 m on the noisy run.
    found, _ = _extract_all(replay)
    shifts = []
    _, _, _, clouds, images = replay
    for (t, detections), full in zip(images, found):
        if not full:
            continue
        anchor = full[0].anchor_frame
        without = {f: points for f, points in clouds.items() if f != anchor}
        (dropped,), _ = _extract_all(replay, [(t, detections)], without)
        assert [e.content for e in dropped] == [e.content for e in full]
        assert all(e.anchor_frame == anchor for e in dropped)
        shifts += [
            np.linalg.norm(a.pose_in_anchor.translation - b.pose_in_anchor.translation)
            for a, b in zip(full, dropped)
        ]
    assert len(shifts) > 100
    assert np.median(shifts) < 0.005
    assert max(shifts) < 0.03
