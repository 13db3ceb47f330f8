"""Tests for loop labeling, per-pose scoring, and aligned trajectory error."""

import numpy as np
import pytest

from helpers import loop_pose_indices
from textloop.evaluation import (
    LengthMismatch,
    LoopGroundTruth,
    ate,
    label_loop_poses,
    make_report,
    score,
)
from textloop.geometry import Pose, cumulative_path_length


def _brute_force_labels(positions, tau, min_travel):
    """Direct restatement of the labeling rule, quadratic over all pairs."""
    positions = np.asarray(positions, dtype=float)
    cum = cumulative_path_length(positions)
    out = []
    for k in range(len(positions)):
        n_k = []
        for p in range(k):
            close = np.linalg.norm(positions[k] - positions[p]) < tau
            far_enough = (cum[k] - cum[p]) > min_travel
            if close and far_enough:
                n_k.append(p)
        out.append(tuple(n_k))
    return tuple(out)


def _ring_positions(laps=2, n=40, radius=40.0 / (2.0 * np.pi)):
    angles = 2.0 * np.pi * np.arange(n * laps) / n
    return np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(len(angles))], axis=1
    )


def test_straight_line_has_no_loop_poses():
    positions = np.stack([np.arange(50.0), np.zeros(50), np.zeros(50)], axis=1)
    gtl = label_loop_poses(positions, tau=1.0, min_travel=10.0)
    assert loop_pose_indices(gtl) == []


def test_ring_revisit_labeled_with_travel():
    # circle of circumference 40 m walked twice: the second lap revisits the first
    positions = _ring_positions(laps=2, n=40)
    gtl = label_loop_poses(positions, tau=1.0, min_travel=10.0)
    assert 0 in gtl.partners[40]
    assert not gtl.partners[5]
    cum = cumulative_path_length(positions)
    # the sampled path is a 40-gon, so one lap is the chord sum, not the arc length
    radius = 40.0 / (2.0 * np.pi)
    chord_lap = 40 * 2.0 * radius * np.sin(np.pi / 40)
    assert cum[40] == pytest.approx(chord_lap, rel=1e-9)


def test_labels_match_brute_force_on_random_walks():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        steps = rng.normal(scale=1.2, size=(120, 3))
        steps[:, 2] *= 0.05
        positions = np.cumsum(steps, axis=0)
        gtl = label_loop_poses(positions, tau=2.0, min_travel=8.0)
        assert gtl.partners == _brute_force_labels(positions, 2.0, 8.0)


def test_labels_accept_pose_sequences():
    positions = _ring_positions()
    poses = [Pose(np.eye(3), p) for p in positions]
    assert label_loop_poses(poses).partners == label_loop_poses(positions).partners


def test_label_requires_two_poses():
    with pytest.raises(ValueError):
        label_loop_poses(np.zeros((1, 3)))


def test_score_undefined_rates():
    positions = np.stack([np.arange(30.0), np.zeros(30), np.zeros(30)], axis=1)
    gtl = label_loop_poses(positions)
    report = score([], gtl)
    assert report.tp == 0 and report.fp == 0 and report.fn == 0
    assert report.recall is None and report.precision is None


def test_score_perfect_predictions():
    gtl = label_loop_poses(_ring_positions(laps=2, n=40))
    predictions = [(k, gtl.partners[k][0]) for k in loop_pose_indices(gtl)]
    report = score(predictions, gtl)
    assert report.recall == 1.0
    assert report.precision == 1.0
    assert report.fp == 0 and report.fn == 0
    assert report.tp == len(loop_pose_indices(gtl))


def test_score_counts_wrong_partner_as_fp():
    gtl = label_loop_poses(_ring_positions(laps=2, n=40))
    loop_poses = loop_pose_indices(gtl)
    predictions = [(k, gtl.partners[k][0]) for k in loop_poses]
    clean = score(predictions, gtl)
    # inject one prediction at a non-loop pose with a far-away partner; every
    # second-lap pose revisits the first lap, so pick one early on lap one
    non_loop = 20
    assert not gtl.partners[non_loop]
    report = score(predictions + [(non_loop, 1)], gtl)
    assert report.tp == clean.tp
    assert report.fp == clean.fp + 1
    assert report.precision == pytest.approx(report.tp / (report.tp + report.fp))


def test_score_accounting_is_per_pose():
    gtl = label_loop_poses(_ring_positions(laps=2, n=40))
    k = loop_pose_indices(gtl)[0]
    # two predictions for one pose, one right and one wrong: a single TP
    report = score([(k, gtl.partners[k][0]), (k, 1)], gtl)
    assert report.tp == 1 and report.fp == 0


def test_score_rejects_inverted_pairs():
    gtl = label_loop_poses(_ring_positions())
    with pytest.raises(ValueError):
        score([(3, 30)], gtl)


def test_ate_zero_on_identical_trajectories():
    positions = _ring_positions()
    result = ate(positions, positions)
    assert result.mean_error < 1e-12


def test_ate_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    positions = np.cumsum(rng.normal(size=(60, 3)), axis=0)
    angle = 0.8
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = positions @ rot.T + np.array([5.0, -2.0, 1.0])
    result = ate(moved, positions)
    assert result.mean_error < 1e-9


def test_ate_noise_statistic():
    # E||n|| for isotropic 3D gaussian noise is sigma * sqrt(8/pi)
    sigma = 0.1
    expected = sigma * np.sqrt(8.0 / np.pi)
    means = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        positions = np.cumsum(rng.normal(size=(200, 3)), axis=0)
        noisy = positions + sigma * rng.standard_normal(positions.shape)
        means.append(ate(noisy, positions).mean_error)
    assert np.mean(means) == pytest.approx(expected, rel=0.1)


def test_ate_length_mismatch():
    with pytest.raises(LengthMismatch):
        ate(np.zeros((4, 3)), np.zeros((5, 3)))


def test_make_report_shape():
    positions = _ring_positions(laps=2, n=40)
    gtl = label_loop_poses(positions)
    predictions = [(k, gtl.partners[k][0]) for k in loop_pose_indices(gtl)[:3]]
    report = make_report(predictions, gtl, positions, positions, params={"tau": 1.0})
    assert set(report) == {
        "recall",
        "precision",
        "tp",
        "fp",
        "fn",
        "ate_mean",
        "ate_per_pose",
        "params",
    }
    assert report["precision"] == 1.0
    assert report["ate_mean"] < 1e-12
    assert len(report["ate_per_pose"]) == len(positions)
    assert isinstance(gtl, LoopGroundTruth)
