"""Metrics: loop-closure labeling, per-pose recall/precision, and aligned ATE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, cumulative_path_length, kabsch

DEFAULT_TAU = 1.0
DEFAULT_MIN_TRAVEL = 10.0


class LengthMismatch(ValueError):
    pass


class PathLengthOverflow(ValueError):
    """The summed step lengths of a trajectory exceed float range."""


def _positions(sequence) -> np.ndarray:
    if len(sequence) and isinstance(sequence[0], Pose):
        return np.stack([p.translation for p in sequence])
    return np.asarray(sequence, dtype=float).reshape(-1, 3)


@dataclass(frozen=True)
class LoopGroundTruth:
    """Per pose k, the earlier poses that count as genuine revisits of it."""

    partners: tuple
    tau: float
    min_travel: float

    def __len__(self) -> int:
        return len(self.partners)


def label_loop_poses(
    gt, tau: float = DEFAULT_TAU, min_travel: float = DEFAULT_MIN_TRAVEL
) -> LoopGroundTruth:
    """Mark poses whose position re-approaches an earlier pose after real travel.

    Partner sets hold every earlier index within `tau` meters whose path
    distance to the pose exceeds `min_travel`.  A PathLengthOverflow if the
    path length is not finite, where the travel would be NaN.
    """
    positions = _positions(gt)
    if len(positions) < 2:
        raise ValueError("need at least two poses to label loops")
    with np.errstate(over="ignore"):
        cum = cumulative_path_length(positions)
    if not np.isfinite(cum[-1]):
        first = int(np.argmax(~np.isfinite(cum)))
        raise PathLengthOverflow(f"pose {first} puts the path length beyond float range")
    partners = []
    for k in range(len(positions)):
        if k == 0:
            partners.append(())
            continue
        dist = np.linalg.norm(positions[:k] - positions[k], axis=1)
        travel = cum[k] - cum[:k]
        hits = np.flatnonzero((dist < tau) & (travel > min_travel))
        partners.append(tuple(int(h) for h in hits))
    return LoopGroundTruth(partners=tuple(partners), tau=tau, min_travel=min_travel)


@dataclass(frozen=True)
class ScoreReport:
    tp: int
    fp: int
    fn: int
    recall: float | None
    precision: float | None


def score(predictions, gtl: LoopGroundTruth) -> ScoreReport:
    """Per-pose accounting of predicted loop pairs against the labels.

    predictions: iterable of (frame, earlier partner frame).  A pose is a TP
    when at least one of its reported partners is in its ground-truth set, an
    FP when it reported only wrong partners, and an FN when it was a loop pose
    that reported nothing.  Rates are None when their denominator is zero.
    """
    reported: dict[int, set[int]] = {}
    for frame, partner in predictions:
        if not 0 <= frame < len(gtl) or not 0 <= partner < len(gtl):
            raise ValueError(f"prediction ({frame}, {partner}) outside pose range")
        if partner >= frame:
            raise ValueError(f"prediction partner {partner} must precede frame {frame}")
        reported.setdefault(frame, set()).add(partner)
    tp = fp = fn = 0
    for k in range(len(gtl)):
        n_k = set(gtl.partners[k])
        if k in reported:
            if reported[k] & n_k:
                tp += 1
            else:
                fp += 1
        elif n_k:
            fn += 1
    recall = tp / (tp + fn) if tp + fn else None
    precision = tp / (tp + fp) if tp + fp else None
    return ScoreReport(tp=tp, fp=fp, fn=fn, recall=recall, precision=precision)


@dataclass(frozen=True)
class AteResult:
    mean_error: float
    per_pose: np.ndarray
    alignment: Pose


def ate(est, gt) -> AteResult:
    """Mean translation error after closed-form rigid (no-scale) alignment."""
    est_positions = _positions(est)
    gt_positions = _positions(gt)
    if len(est_positions) != len(gt_positions):
        raise LengthMismatch(f"{len(est_positions)} estimated vs {len(gt_positions)} reference")
    if len(est_positions) == 0:
        raise ValueError("empty trajectories")
    alignment = kabsch(est_positions, gt_positions)
    per_pose = np.linalg.norm(alignment.apply(est_positions) - gt_positions, axis=1)
    return AteResult(mean_error=float(per_pose.mean()), per_pose=per_pose, alignment=alignment)


def make_report(predictions, gtl: LoopGroundTruth, est, gt, params: dict | None = None) -> dict:
    """JSON-ready summary combining loop scoring and trajectory error."""
    s = score(predictions, gtl)
    a = ate(est, gt)
    return {
        "recall": s.recall,
        "precision": s.precision,
        "tp": s.tp,
        "fp": s.fp,
        "fn": s.fn,
        "ate_mean": a.mean_error,
        "ate_per_pose": [float(x) for x in a.per_pose],
        "params": dict(params or {}),
    }
